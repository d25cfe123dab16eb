"""casowron benchmark: seeded, closed-loop CLI workloads checked by oracles.

Run from the repository root:

    python3 bench/run.py --workload kappa-float --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client replays the workload's op stream in-process through
``casowron.cli.main(argv)``, one op after the other, in this one
interpreter.  Ops run in whole rounds (one op per stratum) until the op
time reaches ``--seconds``.  Every report is checked against the oracle the
op was generated with before it counts.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs whole rounds
untraced for half of ``--seconds``, then a fixed number of rounds traced,
and prints the per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload in a fresh interpreter each and
prints every metric by name with its unit.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402
from tracing import SPANS, Tracer  # noqa: E402

#: Set-ups per run; setup_s is their median.
SETUPS = 9
#: Rounds run traced in a --trace 1 run, fixed so the counts repeat exactly.
TRACE_ROUNDS = {"kappa-float": 2, "classify-exact": 2, "solve-profiles": 10,
                "casoratian-scan": 2}
#: The warm-up op of a set-up: this stratum, taken from round 0.
WARMUP = {"kappa-float": "prop-exp-trig-n3", "classify-exact": "classify-monomial-3",
          "solve-profiles": "solve-m3-q50", "casoratian-scan": "casoratian-float-4"}
#: A run stops between rounds, or mid-round past this many seconds.
WALL_LIMIT_S = 120.0
#: Inputs of the first failing ops are kept under .bench_out for a rerun.
KEEP_FAILED_INPUTS = 5

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("pass_rate", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

LAYER_UNITS = {"calls": "count", "terms": "count", "n3": "count", "max_bits": "bits",
               "failed": "count", "self_s": "s", "s": "s"}
PER_LAYER = (
    "cli.main.self_s", "cli.load_manifest.s", "cli.report_bytes",
    "functions.derivative.calls", "functions.derivative.terms", "functions.evaluate.calls",
    "casowronsk.wronskian_matrix.self_s", "casowronsk.wronskian_matrix.calls",
    "casowronsk.casoratian_matrix.self_s", "casowronsk.casoratian_matrix.calls",
    "casowronsk.casoratian_delta_form.self_s", "casowronsk.ratio_sweep.self_s",
    "determinants.det_float.self_s", "determinants.det_float.calls",
    "determinants.det_float.n3",
    "determinants.det_exact.self_s", "determinants.det_exact.calls",
    "determinants.det_exact.max_bits",
    "determinants.solve_exact.self_s", "determinants.solve_exact.calls",
    "determinants.rank_exact.self_s",
    "determinants.solve_float.self_s", "determinants.solve_float.calls",
    "determinants.lstsq_float.self_s",
    "theory.proportionality_constant.self_s", "theory.classify_subset.self_s",
    "theory.check_invariance.self_s", "theory.verify_power_equality.self_s",
    "theory.verify_basis_equality.self_s",
    "solver.recover_profiles.self_s", "solver.recover_profiles.calls",
    "solver.recover_profiles.failed", "solver.synthesize.self_s",
    "solver.is_fundamental_set.self_s",
    "trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead_ops_per_s",
    "trace.ops", "workload.shared_member_share",
)
TRACE_UNITS = {"cli.report_bytes": "bytes", "trace.untraced_ops_per_s": "1/s",
               "trace.traced_ops_per_s": "1/s", "trace.overhead_ops_per_s": "1/s",
               "trace.ops": "count", "workload.shared_member_share": "ratio"}


def layer_unit(name: str) -> str:
    return TRACE_UNITS.get(name) or LAYER_UNITS[name.rsplit(".", 1)[1]]


class Result(NamedTuple):
    """What one attempted op did; the input is kept for the first few failures."""

    index: int
    stratum: str
    argv: tuple
    known_rejected: bool
    seconds: float
    passed: bool
    why: str | None
    report_bytes: int
    text: str | None


class Run:
    """One workload's op stream, its input files, and what the ops did."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.stream = W.OpStream(workload, seed)
        self.next_index = 0
        self.cli = None
        self.results: list = []  # Result per attempted op
        self.members_seen: set = set()
        self.shared = 0
        self.inputs_kept = 0

    def round(self) -> list:
        """The next round as (index, op, input path) with inputs written out."""
        out = []
        for op in self.stream.next_round():
            path = None
            if op.text is not None:
                path = self.work / f"op{self.next_index:06d}.txt"
                path.write_text(op.text, encoding="utf-8")
            out.append((self.next_index, op, path))
            self.next_index += 1
        return out

    def call(self, op: W.Op, path) -> tuple:
        """Time one cli.main call; returns (seconds, exit code, stdout, stderr)."""
        argv = op.argv_for(None if path is None else os.path.relpath(path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed op, not a dead run
                code = f"uncaught {type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
        return seconds, code, out.getvalue(), err.getvalue()

    def attempt(self, index: int, op: W.Op, path) -> float:
        seconds, code, out, err = self.call(op, path)
        why = None
        try:
            op.check(code, out)
        except W.Mismatch as exc:
            why = str(exc)
            if err.strip():
                why += f" [stderr: {err.strip().splitlines()[-1]}]"
        if self.members_seen.intersection(op.members):
            self.shared += 1
        self.members_seen.update(op.members)
        keep = why is not None and self.inputs_kept < KEEP_FAILED_INPUTS
        self.inputs_kept += keep
        self.results.append(Result(index, op.stratum, op.argv, op.known_rejected, seconds,
                                   why is None, why, len(out.encode()),
                                   op.text if keep else None))
        return seconds


def purge_casowron() -> None:
    for name in [n for n in sys.modules if n == "casowron" or n.startswith("casowron.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, work: Path) -> tuple:
    """Import casowron, generate rounds 0 and 1 with their oracles, warm up.

    Returns (seconds, run, first measured round).
    """
    purge_casowron()
    gc.collect()  # the previous set-up's modules and ops are garbage now
    start = perf_counter()
    cli = importlib.import_module("casowron.cli")
    run = Run(workload, seed, work)
    run.cli = cli
    warm = run.round()
    first = run.round()
    _, op, path = next(item for item in warm if item[1].stratum == WARMUP[workload])
    run.call(op, path)
    return perf_counter() - start, run, first


def measure(run: Run, first: list, seconds: float) -> None:
    """Run whole rounds until op time reaches ``seconds``."""
    busy = 0.0
    wall = perf_counter()
    pending = list(first)
    while True:
        if not pending:
            if busy >= seconds:
                return
            pending = run.round()
        if perf_counter() - wall > WALL_LIMIT_S:
            return
        index, op, path = pending.pop(0)
        busy += run.attempt(index, op, path)


def percentile(values: list, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summarize(results: list, round_size: int) -> dict:
    """Timing figures over every attempted op of the run.

    The percentiles are taken within each whole round (the workload's full
    mix, a few seconds long) and averaged over the rounds, so a fast or slow
    spell of the machine moves them in proportion to its length instead of
    flipping them between the spells, as one percentile over the run does.
    """
    times = [r.seconds for r in results]
    passed = sum(r.passed for r in results)
    rounds = [times[i:i + round_size]
              for i in range(0, len(times) - round_size + 1, round_size)] or [times]
    return {"ops_per_s": passed / sum(times),
            "op_p50_ms": statistics.fmean(percentile(r, 50) for r in rounds) * 1e3,
            "op_p90_ms": statistics.fmean(percentile(r, 90) for r in rounds) * 1e3,
            "pass_rate": passed / len(results)}


def report_failures(run: Run, out_dir: Path) -> list:
    """Print each failed op's argv and first disagreement; keep a few inputs."""
    lines = []
    for r in run.results:
        if r.passed:
            continue
        where = f"<input of op {r.index}>"
        if r.text is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            dest = out_dir / f"failed-{run.workload}-seed{run.seed}-op{r.index}.txt"
            dest.write_text(r.text, encoding="utf-8")
            where = os.path.relpath(dest)
        tag = " (seed-rejected region)" if r.known_rejected else ""
        argv = " ".join(where if a == W.FILE else a for a in r.argv)
        lines.append(f"failed op {r.index} [{r.stratum}]{tag}: casowron {argv} -> {r.why}")
    return lines


def run_workload(args) -> int:
    if not (ROOT / "src" / "casowron" / "cli.py").is_file():
        print(f"bench: no casowron source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUPS):
            shutil.rmtree(work)
            work.mkdir()
            seconds, run, first = setup(args.workload, args.seed, work)
            setups.append(seconds)
        if args.trace:
            metrics, lines = traced_metrics(run, first, args, out_dir)
        else:
            metrics, lines = end_to_end_metrics(run, first, args, setups)
        n = len(run.results)
        failed = sum(not r.passed for r in run.results)
        lines.append(f"error_rate: {failed / n:.6g} ratio (= 1 - pass_rate)")
        lines += report_failures(run, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()
    # A failure counts against correctness unless the op comes from the
    # solver region the seed is known to reject; those still count in failed.
    correct = all(r.passed or r.known_rejected for r in run.results)
    print(f"workload {args.workload} seed {args.seed}: attempted {n}, failed {failed}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


def end_to_end_metrics(run: Run, first: list, args, setups: list) -> tuple:
    measure(run, first, args.seconds)
    values = summarize(run.results, len(first))
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    lines = [f"{name}: {values[name]:.6g} {unit}" for name, unit in END_TO_END]
    lines.append(f"samples: {len(run.results)} ops in {len(run.results) // len(first)} "
                 f"whole rounds, {len(setups)} set-ups")
    lines.append(f"workload.shared_member_share: {run.shared / len(run.results):.6g} ratio")
    return metrics, lines


def traced_metrics(run: Run, first: list, args, out_dir: Path) -> tuple:
    measure(run, first, args.seconds / 2)
    untraced = summarize(run.results, len(first))["ops_per_s"]
    split = len(run.results)
    tracer = Tracer()
    tracer.install()
    run.cli = sys.modules["casowron.cli"]
    t0 = perf_counter()
    try:
        for _ in range(TRACE_ROUNDS[args.workload]):
            for index, op, path in run.round():
                tracer.op = index
                run.attempt(index, op, path)
    finally:
        tracer.remove()
    traced_results = run.results[split:]
    traced = summarize(traced_results, len(first))["ops_per_s"]
    values = dict(tracer.counts)
    for name, seconds in tracer.self_times().items():
        values[name + ".self_s"] = seconds
    values["cli.load_manifest.s"] = values.get("cli.load_manifest.self_s", 0.0)
    values["cli.report_bytes"] = sum(r.report_bytes for r in traced_results)
    values["trace.untraced_ops_per_s"] = untraced
    values["trace.traced_ops_per_s"] = traced
    values["trace.overhead_ops_per_s"] = untraced - traced
    values["trace.ops"] = len(traced_results)
    values["workload.shared_member_share"] = run.shared / len(run.results)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}.jsonl", t0)
    metrics = {name: {"value": values.get(name, 0), "unit": layer_unit(name)}
               for name in PER_LAYER}
    layers = list(dict.fromkeys(name for name, _, _ in SPANS))
    total = sum(values.get(name + ".self_s", 0.0) for name in layers)
    lines = [f"{name}: {metrics[name]['value']:.6g} {metrics[name]['unit']}"
             for name in PER_LAYER]
    lines.append(f"traced self time: {total:.6g} s over {len(traced_results)} ops "
                 f"(spans in {os.path.relpath(out_dir / f'spans-{args.workload}.jsonl')})")
    for name in layers:
        share = values.get(name + ".self_s", 0.0) / total if total else 0.0
        if share >= 0.005:
            lines.append(f"share {name}: {share:.3f}")
    return metrics, lines


def run_all(args) -> int:
    """Every workload in its own fresh interpreter; prints each metric."""
    combined, status = {}, 0
    for workload in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        combined[workload] = result
        print(f"== {workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for line in lines[:-1]:
            print(f"   {line}")
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
