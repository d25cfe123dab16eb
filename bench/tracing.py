"""Per-layer tracing of casowron from outside, without editing its source.

``Tracer.install`` replaces each traced public function at every name a
casowron module holds it under, which is the name its caller looks it up
by: ``casowron.determinants.det_exact`` is reached through
``ScalarMatrix.det``, ``casowron.cli.recover_profiles`` from the CLI, and
``casowron.solver.casoratian_matrix`` from ``is_fundamental_set``.  Each call
records a span (name, start, end, parent span, op id) in memory; ``write``
stores them when the run ends.  ``LinearCombo.derivative`` and
``LinearCombo.evaluate`` run once per matrix entry, too often to time each
call, so they are counted and not timed.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

#: (span name, defining module, function name); the span name is the layer.
SPANS = (
    ("cli.main", "cli", "main"),
    ("cli.load_manifest", "cli", "load_manifest"),
    ("casowronsk.wronskian_matrix", "casowronsk", "wronskian_matrix"),
    ("casowronsk.casoratian_matrix", "casowronsk", "casoratian_matrix"),
    ("casowronsk.casoratian_delta_form", "casowronsk", "casoratian_delta_form"),
    ("casowronsk.ratio_sweep", "casowronsk", "ratio_sweep"),
    ("determinants.det_float", "determinants", "det_float"),
    ("determinants.det_exact", "determinants", "det_exact"),
    ("determinants.solve_exact", "determinants", "solve_exact"),
    ("determinants.rank_exact", "determinants", "rank_exact"),
    ("determinants.solve_float", "determinants", "solve_float"),
    ("determinants.lstsq_float", "determinants", "lstsq_float"),
    ("theory.proportionality_constant", "theory", "proportionality_constant"),
    ("theory.classify_subset", "theory", "classify_subset"),
    ("theory.check_invariance", "theory", "check_invariance"),
    ("theory.verify_power_equality", "theory", "verify_power_equality"),
    ("theory.verify_basis_equality", "theory", "verify_basis_equality"),
    ("solver.recover_profiles", "solver", "recover_profiles"),
    ("solver.synthesize", "solver", "synthesize"),
    ("solver.is_fundamental_set", "solver", "is_fundamental_set"),
)

#: Counted, untimed methods of casowron.functions.LinearCombo.
COUNTED = (("functions.derivative", "derivative"), ("functions.evaluate", "evaluate"))


def _det_float_probe(counts: Counter, args, _result) -> None:
    matrix = args[0]  # a ScalarMatrix from the solver, rows elsewhere
    order = matrix.order if hasattr(matrix, "order") else len(matrix)
    counts["determinants.det_float.n3"] += order**3


def _det_exact_probe(counts: Counter, _args, result) -> None:
    bits = max(result.numerator.bit_length(), result.denominator.bit_length())
    if bits > counts["determinants.det_exact.max_bits"]:
        counts["determinants.det_exact.max_bits"] = bits


def _derivative_probe(counts: Counter, _args, result) -> None:
    counts["functions.derivative.terms"] += len(result.terms)


PROBES = {
    "determinants.det_float": _det_float_probe,
    "determinants.det_exact": _det_exact_probe,
    "functions.derivative": _derivative_probe,
}


class Tracer:
    """Spans and counters of one traced run; install() patches, remove() restores."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def _timed(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            counts[name + ".calls"] += 1
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".failed"] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(counts, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        probe = PROBES.get(name)
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[calls] += 1
            if probe is not None:
                probe(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "casowron" or n.startswith("casowron."))]
        for name, home, attr in SPANS:
            original = getattr(sys.modules[f"casowron.{home}"], attr)
            wrapped = self._timed(name, original)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        combo = sys.modules["casowron.functions"].LinearCombo
        for name, attr in COUNTED:
            original = combo.__dict__[attr]
            self._patches.append((combo, attr, original))
            setattr(combo, attr, self._counted(name, original))

    def remove(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def self_times(self) -> Counter:
        """Seconds per span name, minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def write(self, path, t0: float) -> None:
        """One JSON array per span: name, start and end in seconds from t0, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9),
                                     parent, op]) + "\n")
