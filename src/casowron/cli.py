"""Command-line frontend: manifests in, key-value reports out.

A family manifest is a line-oriented text file: ``member <kind> key=value
...`` lines, an optional ``field exact|float`` line, an optional ``grid
start stop count`` line, and ``#`` comments.  A JSON object with the same
content ({"field": ..., "members": [{"kind": ...}, ...], "grid": [a, b,
n]}) is accepted anywhere a manifest is, including on standard input via
the path ``-``.

Reports are ``key: value`` lines on standard output, deterministic for a
fixed seed and inputs.  Exact rationals print as p/q, floats with 17
significant digits.  ``--csv`` switches per-point columns to a single
comma-separated table; ``--timing`` appends a wall-clock line (off by
default so repeated runs stay byte-identical).

Exit codes: 0 success, 1 argument or manifest problem, 2 domain or
numeric failure, 3 a verification that came back false.
"""
from __future__ import annotations

import argparse
import ast
import cmath
import csv
import io
import json
import math
import os
import sys
import time
import warnings
from dataclasses import replace
from fractions import Fraction

from .casowronsk import (
    CONSTANCY_TOL,
    casoratian,
    casoratian_delta_form,
    difference_quotient,
    fit_convergence_order,
    ratio_sweep,
    scaled_casoratian,
    wronskian,
)
from .errors import (
    ArgumentError,
    CasowronError,
    DomainError,
    ManifestError,
)
from .functions import (
    BinomExp,
    ExpPoly,
    ExpTrig,
    FunctionFamily,
    Hyperbolic,
    Monomial,
    PolyFunction,
    derivative_chain,
    member_polynomial,
    natural_log,
)
from .polynomial import rational_text
from .scalars import EXACT, FLOAT
from .solver import SolverProblem, is_fundamental_set, recover_profiles, synthesize
from .theory import (
    DEFAULT_SEED,
    PROPORTIONALITY_KINDS,
    check_invariance,
    classify_subset,
    proportionality_constant,
    verify_basis_equality,
    verify_power_equality,
)

SEED_ENV_VAR = "CASOWRON_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_UNVERIFIED = 3


# ---------------------------------------------------------------------------
# scalar formatting

def _g(x: float) -> str:
    return "%.17g" % x


def fmt_scalar(v) -> str:
    """Canonical text for report values; round-trips floats and rationals."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, Fraction)):
        return rational_text(v)
    if isinstance(v, complex):
        if v.imag == 0:
            return _g(v.real)
        sign = "+" if v.imag >= 0 else "-"
        return f"{_g(v.real)}{sign}{_g(abs(v.imag))}j"
    if isinstance(v, float):
        return _g(v)
    return str(v)


class Report:
    """Accumulates key-value lines; emitted once, atomically, on success."""

    def __init__(self, csv_mode: bool = False):
        self.csv_mode = csv_mode
        self._lines: list[str] = []
        self._warn_count = 0

    def add(self, key: str, value) -> None:
        self._lines.append(f"{key}: {fmt_scalar(value)}")

    def warn(self, text: str) -> None:
        self._lines.append(f"warning[{self._warn_count}]: {text}")
        self._warn_count += 1

    def table(self, columns, rows) -> None:
        if self.csv_mode:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([fmt_scalar(v) for v in row])
            self._lines.append("table:")
            self._lines.append(buf.getvalue().rstrip("\n"))
        else:
            for i, row in enumerate(rows):
                for name, v in zip(columns, row):
                    self.add(f"{name}[{i}]", v)

    def emit(self, stream=None) -> None:
        stream = sys.stdout if stream is None else stream
        if self._lines:
            print("\n".join(self._lines), file=stream)


# ---------------------------------------------------------------------------
# number and manifest parsing

_CONSTANTS = {"e": math.e, "pi": math.pi}


def parse_exact_number(token: str, where: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ManifestError(f"{where}: not an exact rational: {token!r}") from None


def parse_float_number(token: str, where: str):
    """A float, a named constant, or (with a j) a complex literal."""
    if token in _CONSTANTS:
        return _CONSTANTS[token]
    if "j" in token or "J" in token:
        try:
            return complex(token.replace(" ", ""))
        except ValueError:
            raise ManifestError(f"{where}: bad complex literal: {token!r}") from None
    try:
        return float(Fraction(token))
    except (ValueError, ZeroDivisionError):
        raise ManifestError(f"{where}: bad number: {token!r}") from None


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ArgumentError(f"cannot read {path}: {exc}") from None


def _require(params: dict, key: str, where: str) -> str:
    if key not in params:
        raise ManifestError(f"{where}: missing parameter {key!r}")
    return params.pop(key)


def _int_param(params: dict, key: str, where: str, minimum: int = 0) -> int:
    raw = _require(params, key, where)
    try:
        value = int(str(raw))
    except ValueError:
        raise ManifestError(f"{where}: {key} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise ManifestError(f"{where}: {key} must be >= {minimum}")
    return value


def _coeff_list(raw, where: str) -> list:
    if isinstance(raw, str):
        parts = [p for p in raw.split(",") if p != ""]
    elif isinstance(raw, list):
        parts = raw
    else:
        raise ManifestError(f"{where}: coeffs must be a list or a comma-separated string")
    if not parts:
        raise ManifestError(f"{where}: empty coefficient list")
    return [parse_exact_number(str(p), where) for p in parts]


def _build_member(kind: str, params: dict, where: str):
    params = dict(params)
    params.pop("kind", None)
    if kind == "monomial":
        member = Monomial(_int_param(params, "k", where))
    elif kind == "poly":
        member = PolyFunction(_coeff_list(_require(params, "coeffs", where), where))
    elif kind == "binomexp":
        k = _int_param(params, "k", where)
        a = parse_float_number(str(_require(params, "a", where)), where)
        member = BinomExp(k, a)
    elif kind == "exppoly":
        k = _int_param(params, "k", where)
        m = parse_float_number(str(_require(params, "m", where)), where)
        member = ExpPoly(k, m)
    elif kind == "exptrig":
        k = _int_param(params, "k", where)
        m = parse_float_number(str(_require(params, "m", where)), where)
        omega = parse_float_number(str(_require(params, "omega", where)), where)
        phase = str(params.pop("phase", "cos"))
        member = ExpTrig(k, m, omega, phase)
    elif kind == "hyperbolic":
        k = _int_param(params, "k", where)
        m = parse_float_number(str(_require(params, "m", where)), where)
        phase = str(params.pop("phase", "cosh"))
        member = Hyperbolic(k, m, phase)
    elif kind == "tabulated":
        name = str(_require(params, "name", where))
        if name != "ln":
            raise ManifestError(f"{where}: unknown tabulated function {name!r}")
        member = natural_log()
    else:
        raise ManifestError(f"{where}: unknown member kind {kind!r}")
    if params:
        extra = ", ".join(sorted(params))
        raise ManifestError(f"{where}: unexpected parameters for {kind}: {extra}")
    return member


class Manifest:
    """A parsed family description: members, field tag, optional grid range."""

    def __init__(self, members, field, grid_range):
        if not members:
            raise ManifestError("manifest declares no members")
        if field is None:
            field = EXACT if all(m.exact_compatible for m in members) else FLOAT
        self.family = FunctionFamily(tuple(members), field)
        self.grid_range = grid_range  # (start, stop, count) as raw strings or None

    def grid(self):
        if self.grid_range is None:
            return None
        return make_grid(*self.grid_range, field=self.family.field)


def make_grid(start: str, stop: str, count: str, field: str) -> list:
    """count evenly spaced points from start to stop inclusive."""
    where = "grid"
    try:
        n = int(str(count))
    except ValueError:
        raise ManifestError(f"{where}: count must be an integer") from None
    if n < 1:
        raise ManifestError(f"{where}: count must be >= 1")
    if field == EXACT:
        a = parse_exact_number(str(start), where)
        b = parse_exact_number(str(stop), where)
        if n == 1:
            return [a]
        return [a + (b - a) * Fraction(i, n - 1) for i in range(n)]
    a = parse_float_number(str(start), where)
    b = parse_float_number(str(stop), where)
    if n == 1:
        return [a]
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def _parse_manifest_lines(text: str) -> Manifest:
    members, field, grid_range = [], None, None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head, rest = tokens[0], tokens[1:]
        where = f"line {ln}"
        if head == "field":
            if len(rest) != 1 or rest[0] not in (EXACT, FLOAT):
                raise ManifestError(f"{where}: expected 'field exact' or 'field float'")
            field = rest[0]
        elif head == "grid":
            if len(rest) != 3:
                raise ManifestError(f"{where}: expected 'grid start stop count'")
            grid_range = tuple(rest)
        elif head == "member":
            if not rest:
                raise ManifestError(f"{where}: member line needs a kind")
            params = {}
            for tok in rest[1:]:
                if "=" not in tok:
                    raise ManifestError(f"{where}: expected key=value, got {tok!r}")
                key, _, value = tok.partition("=")
                params[key] = value
            members.append(_build_member(rest[0], params, where))
        else:
            raise ManifestError(f"{where}: unknown directive {head!r}")
    return Manifest(members, field, grid_range)


def _parse_manifest_json(text: str) -> Manifest:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"bad JSON manifest: {exc}") from None
    if not isinstance(data, dict):
        raise ManifestError("JSON manifest must be an object")
    raw_members = data.get("members", [])
    if not isinstance(raw_members, list):
        raise ManifestError("members must be a list")
    members = []
    for i, rec in enumerate(raw_members):
        where = f"members[{i}]"
        if not isinstance(rec, dict) or "kind" not in rec:
            raise ManifestError(f"{where}: each member needs a 'kind'")
        members.append(_build_member(str(rec["kind"]), rec, where))
    field = data.get("field")
    if field is not None and field not in (EXACT, FLOAT):
        raise ManifestError("field must be 'exact' or 'float'")
    grid = data.get("grid")
    if grid is not None:
        if not isinstance(grid, list) or len(grid) != 3:
            raise ManifestError("grid must be [start, stop, count]")
        grid = tuple(str(v) for v in grid)
    return Manifest(members, field, grid)


def load_manifest(path: str) -> Manifest:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return _parse_manifest_json(text)
    return _parse_manifest_lines(text)


def _parse_point(token: str, field: str):
    where = "point"
    if field == EXACT:
        return parse_exact_number(token, where)
    return parse_float_number(token, where)


def _evaluation_points(args, manifest: Manifest) -> list:
    if args.at:
        return [_parse_point(tok, manifest.family.field) for tok in args.at]
    grid = manifest.grid()
    if grid is None:
        raise ArgumentError("no evaluation points: pass --at or a manifest grid line")
    return grid


def _ratio_grid(args, manifest: Manifest) -> list:
    if args.grid:
        return make_grid(*args.grid, field=manifest.family.field)
    grid = manifest.grid()
    if grid is not None:
        return grid
    if manifest.family.field == EXACT:
        return [Fraction(t, 4) for t in range(9)]
    return [t / 4 for t in range(9)]


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ArgumentError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return DEFAULT_SEED


def _family_header(rep: Report, command: str, manifest: Manifest) -> None:
    rep.add("command", command)
    rep.add("field", manifest.family.field)
    rep.add("members", manifest.family.size)


# ---------------------------------------------------------------------------
# subcommand handlers; each fills the report and returns an exit code

def _cmd_wronskian(args, rep: Report) -> int:
    manifest = load_manifest(args.manifest)
    points = _evaluation_points(args, manifest)
    _family_header(rep, "wronskian", manifest)
    rep.add("points", len(points))
    rows = [[x, wronskian(manifest.family, x)] for x in points]
    rep.table(["x", "wronskian"], rows)
    return EXIT_OK


def _cmd_casoratian(args, rep: Report) -> int:
    manifest = load_manifest(args.manifest)
    points = _evaluation_points(args, manifest)
    h = _parse_point(args.step, manifest.family.field)
    _family_header(rep, "casoratian", manifest)
    rep.add("step", h)
    rep.add("points", len(points))
    rows = [[x, casoratian(manifest.family, x, h)] for x in points]
    rep.table(["x", "casoratian"], rows)
    return EXIT_OK


def _cmd_delta_casoratian(args, rep: Report) -> int:
    manifest = load_manifest(args.manifest)
    points = _evaluation_points(args, manifest)
    _family_header(rep, "delta-casoratian", manifest)
    rep.add("points", len(points))
    rows = [
        [x, casoratian_delta_form(manifest.family, x).det()]
        for x in points
    ]
    rep.table(["x", "delta_casoratian"], rows)
    return EXIT_OK


_EXPR_NAMES = {
    "sin": cmath.sin, "cos": cmath.cos, "tan": cmath.tan,
    "sinh": cmath.sinh, "cosh": cmath.cosh, "tanh": cmath.tanh,
    "exp": cmath.exp, "ln": cmath.log, "log": cmath.log,
    "sqrt": cmath.sqrt, "abs": abs, "e": math.e, "pi": math.pi,
}


_EXPR_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Load,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub,
)


def _expr_violation(node) -> str | None:
    """What makes one node of an analytic expression disallowed, or None."""
    if isinstance(node, ast.Constant):
        ok = type(node.value) in (int, float, complex)
        return None if ok else f"constant {node.value!r}"
    if isinstance(node, ast.Name):
        ok = node.id == "x" or node.id in _EXPR_NAMES
        return None if ok else f"name {node.id!r}"
    if isinstance(node, ast.Call):
        ok = (isinstance(node.func, ast.Name)
              and callable(_EXPR_NAMES.get(node.func.id)) and not node.keywords)
        return None if ok else f"call {ast.unparse(node)!r}"
    return None if isinstance(node, _EXPR_NODES) else type(node).__name__


def _analytic_callable(expr: str):
    """Compile a small arithmetic expression in x into a callable.

    Only numbers, x, the names in _EXPR_NAMES, + - * / **, unary signs and
    positional calls of the _EXPR_NAMES functions pass; every other syntax
    tree node is refused before anything is compiled.  Used for families
    whose Wronskian is known analytically but whose members cannot be
    differentiated (tabulated data).
    """
    try:
        tree = ast.parse(expr, "<analytic-w>", "eval")
        for node in ast.walk(tree):
            bad = _expr_violation(node)
            if bad is not None:
                raise ArgumentError(f"bad analytic expression: {bad} is not allowed")
        code = compile(tree, "<analytic-w>", "eval")
    except SyntaxError as exc:
        raise ArgumentError(f"bad analytic expression: {exc}") from None
    except (MemoryError, RecursionError):
        raise ArgumentError("bad analytic expression: nested too deeply") from None

    def evaluate(x):
        names = dict(_EXPR_NAMES)
        names["x"] = complex(x)
        try:
            return complex(eval(code, {"__builtins__": {}}, names))
        except Exception as exc:
            raise DomainError(f"analytic W failed at x = {fmt_scalar(x)}: {exc}") from None

    return evaluate


def _cmd_ratio(args, rep: Report) -> int:
    manifest = load_manifest(args.manifest)
    grid = _ratio_grid(args, manifest)
    if args.analytic_w and manifest.family.field == EXACT:
        raise ArgumentError(
            "--analytic-w needs a float manifest; an exact family's "
            "Wronskian is computed exactly"
        )
    analytic = _analytic_callable(args.analytic_w) if args.analytic_w else None
    sweep = ratio_sweep(
        manifest.family, grid, analytic_w=analytic, constancy_tol=args.tol
    )
    _family_header(rep, "ratio", manifest)
    rep.add("points", len(sweep.grid))
    rows = [
        [x, w, c, "excluded" if r is None else fmt_scalar(r)]
        for x, w, c, r in zip(sweep.grid, sweep.w_values, sweep.c_values, sweep.ratios)
    ]
    rep.table(["x", "wronskian", "casoratian", "ratio"], rows)
    rep.add("ratio-mean", sweep.ratio_mean)
    rep.add("relative-spread", sweep.ratio_relative_spread)
    rep.add("constant", sweep.constant_verdict)
    rep.add("excluded-points", len(sweep.excluded))
    for x in sweep.excluded:
        rep.warn(f"grid point {fmt_scalar(x)} excluded: Casoratian below the degeneracy floor")
    return EXIT_OK


def _cmd_verify_powers(args, rep: Report) -> int:
    seed = _resolve_seed(args)
    check = verify_power_equality(args.n, trials=args.trials, seed=seed)
    rep.add("command", "verify-powers")
    rep.add("n", args.n)
    rep.add("seed", seed)
    rep.add("trials", args.trials)
    rep.add("expected", check.value)
    rep.add("ok", check.ok)
    return EXIT_OK if check.ok else EXIT_UNVERIFIED


def _read_matrix(path: str) -> list:
    rows = []
    for ln, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append([parse_exact_number(tok, f"line {ln}") for tok in line.split()])
    if not rows:
        raise ArgumentError("matrix file holds no rows")
    return rows


def _cmd_verify_basis(args, rep: Report) -> int:
    seed = _resolve_seed(args)
    rows = _read_matrix(args.matrix)
    check = verify_basis_equality(rows, n=args.n, trials=args.trials, seed=seed)
    rep.add("command", "verify-basis")
    rep.add("order", len(rows))
    rep.add("seed", seed)
    rep.add("trials", args.trials)
    rep.add("expected", check.value)
    rep.add("ok", check.ok)
    return EXIT_OK if check.ok else EXIT_UNVERIFIED


def _cmd_classify(args, rep: Report) -> int:
    manifest = load_manifest(args.manifest)
    polys = [member_polynomial(m) for m in manifest.family.members]
    verdict = classify_subset(polys)
    rep.add("command", "classify")
    rep.add("members", len(polys))
    for i, p in enumerate(polys):
        rep.add(f"member[{i}]", p)
    rep.add("case", verdict.case_tag)
    rep.add("wronskian-poly", verdict.w_value)
    rep.add("casoratian-poly", verdict.c_value)
    rep.add("rank", verdict.rank)
    rep.add("span-full", verdict.span_is_full_pm)
    return EXIT_OK


def _cmd_invariance(args, rep: Report) -> int:
    manifest = load_manifest(args.manifest)
    seed = _resolve_seed(args)
    report = check_invariance(manifest.family, seed=seed, ratio_grid=manifest.grid())
    _family_header(rep, "invariance", manifest)
    rep.add("seed", seed)
    rep.add("derivative-invariant", report.d_invariant)
    rep.add("shift-invariant", report.shift_invariant)
    rep.add("kappa-constant", report.kappa_is_constant)
    if report.kappa is not None:
        rep.add("kappa", report.kappa)
    if report.sweep is not None:
        rep.add("ratio-spread", report.sweep.ratio_relative_spread)
    return EXIT_OK


def _parse_terms(raw: str) -> list:
    """Blocks 'm:n' (base:degree), comma separated; a bare 'm' means n = 0."""
    terms = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        m_text, sep, n_text = part.partition(":")
        base = parse_float_number(m_text, f"term {part!r}")
        if not sep:
            degree = 0
        else:
            try:
                degree = int(n_text)
            except ValueError:
                raise ArgumentError(
                    f"term {part!r}: degree must be an integer"
                ) from None
        terms.append((base, degree))
    if not terms:
        raise ArgumentError("no terms given")
    return terms


def _cmd_proportionality(args, rep: Report) -> int:
    kwargs = {}
    if args.n is not None:
        kwargs["n"] = args.n
    if args.a is not None:
        kwargs["a"] = parse_float_number(args.a, "--a")
    if args.m is not None:
        kwargs["m"] = parse_float_number(args.m, "--m")
    if args.omega is not None:
        kwargs["omega"] = parse_float_number(args.omega, "--omega")
    if args.terms is not None:
        kwargs["terms"] = _parse_terms(args.terms)
    if args.grid:
        kwargs["grid"] = make_grid(*args.grid, field=FLOAT)
    report = proportionality_constant(args.kind, tol=args.tol, **kwargs)
    rep.add("command", "proportionality")
    rep.add("kind", report.kind)
    for name, value in report.parameters:
        if name == "terms":
            value = ",".join(f"{fmt_scalar(mb)}:{nb}" for mb, nb in value)
        rep.add(f"param-{name}", value)
    rep.add("measured", report.measured)
    if report.predicted is not None:
        rep.add("predicted", report.predicted)
    rep.add("agreement", report.agreement if report.agreement is not None else "none")
    if report.stated_value is not None:
        rep.add("stated", report.stated_value)
    rep.add("ratio-spread", report.sweep.ratio_relative_spread)
    for note in report.annotations:
        rep.add("note", note)
    for text in report.warnings:
        rep.warn(text)
    if report.agreement is False:
        return EXIT_UNVERIFIED
    return EXIT_OK


def _h_sequence(args, field: str) -> list:
    if field == EXACT:
        start = parse_exact_number(args.h_start, "--h-start")
        factor = parse_exact_number(args.h_factor, "--h-factor")
    else:
        start = parse_float_number(args.h_start, "--h-start")
        factor = parse_float_number(args.h_factor, "--h-factor")
    if start == 0 or factor == 0:
        raise ArgumentError("step sequence needs nonzero start and factor")
    if args.h_count < 2:
        raise ArgumentError("need at least two steps to fit an order")
    out = [start]
    for _ in range(args.h_count - 1):
        out.append(out[-1] * factor)
    return out


def _cmd_limit_check(args, rep: Report) -> int:
    manifest = load_manifest(args.manifest)
    field = manifest.family.field
    x = _parse_point(args.at, field)
    hs = _h_sequence(args, field)
    rep.add("command", "limit-check")
    rep.add("mode", args.mode)
    rep.add("field", field)
    rep.add("x", x)
    if args.mode == "derivative":
        n = args.order
        member = manifest.family.members[0]
        target = derivative_chain(member, n + 1)[-1].evaluate(x)
        values = [difference_quotient(member, x, h, n) for h in hs]
        rep.add("order-n", n)
    else:
        target = wronskian(manifest.family, x)
        values = [scaled_casoratian(manifest.family, x, h) for h in hs]
    errors = [abs(v - target) for v in values]
    rep.add("target", target)
    rep.add("steps", len(hs))
    rows = [[h, v, e] for h, v, e in zip(hs, values, errors)]
    rep.table(["h", "value", "error"], rows)
    exact_match = all(e == 0 for e in errors)
    rep.add("exact-match", exact_match)
    fitted = fit_convergence_order(
        [float(h) for h in hs], [float(e) for e in errors]
    )
    rep.add("fitted-order", fitted)
    rep.add("min-order", args.min_order)
    ok = exact_match or fitted >= args.min_order
    rep.add("ok", ok)
    return EXIT_OK if ok else EXIT_UNVERIFIED


def _read_samples(path: str) -> list:
    values = []
    for ln, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for tok in line.split():
            try:
                values.append(float(tok))
            except ValueError:
                raise ArgumentError(f"line {ln}: bad sample {tok!r}") from None
    if not values:
        raise ArgumentError("samples file holds no values")
    return values


def _cmd_solve(args, rep: Report) -> int:
    samples = _read_samples(args.samples)
    problem = SolverProblem(args.lam, args.m, x0=args.x0, q=args.q, horizon=args.horizon)
    if args.horizon is None:
        problem = replace(problem, horizon=max(problem.m, len(samples) // problem.q))
    profiles = recover_profiles(problem, samples, parity_tol=args.parity_tol)
    solution = synthesize(problem, profiles)
    rep.add("command", "solve")
    rep.add("lambda", problem.lam)
    rep.add("m", problem.m)
    rep.add("q", problem.q)
    rep.add("x0", problem.x0)
    rep.add("horizon", problem.horizon)
    rep.add("parity", problem.parity)
    for i, profile in enumerate(profiles):
        body = ",".join(fmt_scalar(v) for v in profile.samples)
        rep.add(f"profile[{i}]", body)
    rep.add("max-residual", solution.max_residual)
    if args.csv:
        rep.table(["x", "y"], list(zip(solution.grid, solution.values)))
    return EXIT_OK


def _cmd_fundamental(args, rep: Report) -> int:
    manifest = load_manifest(args.manifest)
    if args.grid:
        grid = make_grid(*args.grid, field=manifest.family.field)
    else:
        grid = manifest.grid()
    if grid is None:
        grid = make_grid("0", "5", "6", field=manifest.family.field)
    check = is_fundamental_set(manifest.family, grid)
    _family_header(rep, "fundamental", manifest)
    rep.add("points", len(grid))
    rep.add("fundamental", check.ok)
    rep.add("min-abs-casoratian", check.min_abs)
    rep.add("witness-x", check.witness_x)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on bad arguments, matching the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help=f"random seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    common.add_argument("--csv", action="store_true",
                        help="emit per-point data as one CSV table")
    common.add_argument("--timing", action="store_true",
                        help="append a wall-clock line to the report")

    parser = _Parser(
        prog="casowron",
        description="Wronskians, Casoratians, their ratio theorems, and "
                    "(E - lambda)^m solvers on function-family manifests.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND")
    sub.required = True

    def cmd(name, handler, help_text, **kwargs):
        p = sub.add_parser(name, parents=[common], help=help_text, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = cmd("wronskian", _cmd_wronskian, "Wronskian of a family at points")
    p.add_argument("manifest")
    p.add_argument("--at", action="append", metavar="X",
                   help="evaluation point (repeatable; overrides manifest grid)")

    p = cmd("casoratian", _cmd_casoratian, "Casoratian of a family at points")
    p.add_argument("manifest")
    p.add_argument("--at", action="append", metavar="X")
    p.add_argument("--step", default="1", metavar="H", help="shift step (default 1)")

    p = cmd("delta-casoratian", _cmd_delta_casoratian,
            "Casoratian via the forward-difference form")
    p.add_argument("manifest")
    p.add_argument("--at", action="append", metavar="X")

    p = cmd("ratio", _cmd_ratio, "sweep W/C over a grid and judge constancy")
    p.add_argument("manifest")
    p.add_argument("--grid", nargs=3, metavar=("START", "STOP", "COUNT"))
    p.add_argument("--tol", type=float, default=CONSTANCY_TOL,
                   help="relative spread allowed for a constant verdict")
    p.add_argument("--analytic-w", default=None, metavar="EXPR",
                   help="expression in x supplying W when members cannot "
                        "be differentiated (example: -1/x**2)")

    p = cmd("verify-powers", _cmd_verify_powers,
            "check W = C = product of factorials for powers 1..x^n")
    p.add_argument("n", type=int)
    p.add_argument("--trials", type=int, default=20)

    p = cmd("verify-basis", _cmd_verify_basis,
            "check W = C = det(A) * product of factorials for a basis matrix")
    p.add_argument("matrix", help="file of whitespace-separated rational rows")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--trials", type=int, default=5)

    p = cmd("classify", _cmd_classify,
            "classify a polynomial family's W vs C relationship")
    p.add_argument("manifest")

    p = cmd("invariance", _cmd_invariance,
            "test span closure under derivative and unit shift")
    p.add_argument("manifest")

    p = cmd("proportionality", _cmd_proportionality,
            "measure a structured family's W/C constant")
    p.add_argument("--kind", required=True, choices=PROPORTIONALITY_KINDS)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--a", default=None)
    p.add_argument("--m", default=None)
    p.add_argument("--omega", default=None)
    p.add_argument("--terms", default=None,
                   help="comma-separated m:n blocks (base:degree) for "
                        "gen-exp-poly; bare m means degree 0")
    p.add_argument("--grid", nargs=3, metavar=("START", "STOP", "COUNT"))
    p.add_argument("--tol", type=float, default=1e-9)

    p = cmd("limit-check", _cmd_limit_check,
            "fit the convergence order of a difference-quotient limit")
    p.add_argument("mode", choices=("derivative", "casoratian"))
    p.add_argument("manifest")
    p.add_argument("--at", default="0", metavar="X")
    p.add_argument("--order", type=int, default=1,
                   help="difference order n (derivative mode)")
    p.add_argument("--h-start", default="0.25")
    p.add_argument("--h-factor", default="0.5")
    p.add_argument("--h-count", type=int, default=11)
    p.add_argument("--min-order", type=float, default=0.9)

    p = cmd("solve", _cmd_solve,
            "recover periodic profiles from samples of a solution")
    p.add_argument("samples", help="file of y values on the grid x0 + n/q")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--parity-tol", type=float, default=1e-6,
                   help="largest relative (E - lambda)^m residual accepted")

    p = cmd("fundamental", _cmd_fundamental,
            "check the Casoratian stays nonzero on a grid")
    p.add_argument("manifest")
    p.add_argument("--grid", nargs=3, metavar=("START", "STOP", "COUNT"))

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_OK
    rep = Report(csv_mode=args.csv)
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = args.handler(args, rep)
        except ManifestError as exc:
            print(f"casowron: manifest error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ArgumentError as exc:
            print(f"casowron: argument error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except CasowronError as exc:
            print(f"casowron: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
        except OverflowError as exc:
            print(f"casowron: numeric overflow: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
    for item in caught:
        rep.warn(str(item.message))
    if args.timing:
        rep.add("elapsed-seconds", "%.3f" % (time.perf_counter() - started))
    rep.emit()
    return code


if __name__ == "__main__":
    sys.exit(main())
