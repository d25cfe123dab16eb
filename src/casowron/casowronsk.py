"""Wronskian and Casoratian builders, their limit forms, and ratio sweeps.

Both determinants are built from the same family object: the Wronskian rows
are successive derivatives (exact linear combinations via the function
algebra), the Casoratian rows are successive unit (or h-step) shifts,
realized as plain evaluations at x, x+h, ....
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .determinants import ScalarMatrix
from .errors import ArgumentError, DegenerateSweepError, NumericError
from .functions import FunctionFamily
from .scalars import EXACT

#: Relative spread below which a float ratio sweep counts as constant.
CONSTANCY_TOL = 1e-9
#: A Casoratian smaller than this multiple of the row-norm product is
#: treated as a zero of the determinant rather than a usable value.
DEGENERACY_FLOOR = 1e-12


def _point(family: FunctionFamily, value):
    """Coerce an evaluation point into the family's scalar field."""
    if family.field == EXACT:
        if isinstance(value, (float, complex)):
            raise ArgumentError(
                "exact families require rational evaluation points; "
                f"got {value!r}"
            )
        return Fraction(value)
    if isinstance(value, Fraction):
        return complex(float(value))
    return complex(value)


def wronskian_matrix(family: FunctionFamily, x) -> ScalarMatrix:
    """Row i holds the i-th derivative of every member, evaluated at x."""
    xp = _point(family, x)
    rows = [[c.evaluate(xp) for c in row] for row in family.derivative_rows]
    return ScalarMatrix.from_rows(rows, family.field)


def casoratian_matrix(family: FunctionFamily, x, h=1) -> ScalarMatrix:
    """Row i holds every member evaluated at x + i*h."""
    xp = _point(family, x)
    hp = _point(family, h)
    n = family.size
    rows = [[m.evaluate(xp + i * hp) for m in family.members] for i in range(n)]
    return ScalarMatrix.from_rows(rows, family.field)


def casoratian_delta_form(family: FunctionFamily, x) -> ScalarMatrix:
    """Row i holds the i-th forward difference (unit step) of every member.

    Row reduction turns the shift form into this one, so both share the
    same determinant; the entries differ.
    """
    xp = _point(family, x)
    n = family.size
    rows = [[delta_power(m, xp, 1, i) for m in family.members] for i in range(n)]
    return ScalarMatrix.from_rows(rows, family.field)


def wronskian(family: FunctionFamily, x):
    return wronskian_matrix(family, x).det()


def casoratian(family: FunctionFamily, x, h=1):
    return casoratian_matrix(family, x, h).det()


def scaled_casoratian(family: FunctionFamily, x, h):
    """Casoratian with step h divided by h**(n(n-1)/2); tends to the Wronskian."""
    hp = _point(family, h)
    if hp == 0:
        raise ArgumentError("step h must be nonzero; the limit is a limit")
    n = family.size
    return casoratian(family, x, h) / hp ** (n * (n - 1) // 2)


def delta_power(f, x, h, n: int):
    """n-th forward difference with step h: sum_r C(n,r) (-1)^(n-r) f(x + r h)."""
    if n < 0:
        raise ArgumentError("difference order must be >= 0")
    ev = f.evaluate if hasattr(f, "evaluate") else f
    acc = 0
    for r in range(n + 1):
        term = comb(n, r) * ev(x + r * h)
        acc = acc + (term if (n - r) % 2 == 0 else -term)
    return acc


def difference_quotient(f, x, h, n: int):
    """delta_power(f, x, h, n) / h**n; converges to the n-th derivative."""
    if h == 0:
        raise ArgumentError("step h must be nonzero")
    return delta_power(f, x, h, n) / h**n


def fit_convergence_order(hs, errors) -> float:
    """Least-squares slope of log(error) against log(h).

    Trailing points past the smallest observed error are dropped before
    fitting: once rounding noise dominates, halving h raises the error
    again and those points say nothing about the convergence rate.
    Returns inf when every error is exactly zero.
    """
    pairs = sorted(
        ((float(h), float(e)) for h, e in zip(hs, errors) if e > 0),
        key=lambda p: -p[0],
    )
    if not pairs:
        return math.inf
    best = min(range(len(pairs)), key=lambda i: pairs[i][1])
    kept = pairs[: best + 1] if best >= 1 else pairs
    if len(kept) < 2:
        return 0.0
    xs = [math.log(h) for h, _ in kept]
    ys = [math.log(e) for _, e in kept]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    denom = sum((x - xbar) ** 2 for x in xs)
    if denom == 0:
        return 0.0
    return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / denom


def sign_agreement_step(
    family: FunctionFamily, x, start_h: float = 1.0,
    confirm: int = 3, max_halvings: int = 60,
) -> float:
    """Halve h until sign(Casoratian) matches sign(Wronskian), stably.

    Returns the first step h whose sign matches and keeps matching for
    ``confirm`` further halvings.  Only meaningful for real-valued float
    families with a nonvanishing Wronskian at x.
    """
    w = wronskian(family, x)
    wr = complex(w).real
    if wr == 0:
        raise ArgumentError("Wronskian vanishes at x; sign comparison is empty")
    target = wr > 0

    def matches(step: float) -> bool:
        return (complex(casoratian(family, x, step)).real > 0) == target

    h = float(start_h)
    for _ in range(max_halvings):
        if matches(h) and all(matches(h / 2 ** (i + 1)) for i in range(confirm)):
            return h
        h /= 2.0
    raise NumericError("sign agreement never stabilized while halving h")


def row_norm_product(matrix: ScalarMatrix) -> float:
    """Product over rows of the largest entry magnitude; a det scale bound."""
    out = 1.0
    for row in matrix.entries:
        out *= max(abs(complex(v)) for v in row)
    return out


@dataclass(frozen=True)
class RatioReport:
    """Outcome of sweeping W/C over a grid."""

    grid: tuple
    w_values: tuple
    c_values: tuple
    ratios: tuple  # aligned with grid; None where the point was excluded
    ratio_mean: object
    ratio_relative_spread: object
    constant_verdict: bool
    excluded: tuple  # grid points whose Casoratian fell below the floor
    field: str


def ratio_sweep(
    family: FunctionFamily, grid, analytic_w=None,
    constancy_tol: float = CONSTANCY_TOL,
    floor_scale: float = DEGENERACY_FLOOR,
) -> RatioReport:
    """Evaluate W(x)/C(x) over a grid and judge whether it is constant.

    ``analytic_w`` supplies the Wronskian as a plain callable for families
    that cannot be differentiated member by member (tabulated members).
    Grid points whose Casoratian sits below the degeneracy floor are
    excluded from the ratio statistics and listed in the report.
    """
    grid = tuple(grid)
    if not grid:
        raise ArgumentError("ratio sweep needs a non-empty grid")
    exact = family.field == EXACT
    w_values, c_values, ratios, excluded = [], [], [], []
    for g in grid:
        xp = _point(family, g)
        cm = casoratian_matrix(family, g)
        c = cm.det()
        w = analytic_w(xp) if analytic_w is not None else wronskian(family, g)
        w_values.append(w)
        c_values.append(c)
        degenerate = (c == 0) if exact else (
            abs(c) <= floor_scale * row_norm_product(cm)
        )
        if degenerate:
            ratios.append(None)
            excluded.append(g)
        else:
            ratios.append(w / c)
    included = [r for r in ratios if r is not None]
    if not included:
        raise DegenerateSweepError(
            "every grid point fell below the degeneracy floor"
        )
    mean = sum(included) / len(included)
    if exact:
        spread = _exact_spread(included, mean)
        verdict = not excluded and spread == 0
    else:
        spread = _float_spread(included, mean)
        verdict = not excluded and spread <= constancy_tol
    return RatioReport(
        grid=grid,
        w_values=tuple(w_values),
        c_values=tuple(c_values),
        ratios=tuple(ratios),
        ratio_mean=mean,
        ratio_relative_spread=spread,
        constant_verdict=verdict,
        excluded=tuple(excluded),
        field=family.field,
    )


def _exact_spread(values, mean):
    diameter = max(values) - min(values)
    if diameter == 0:
        return Fraction(0)
    if mean == 0:
        # No relative measure exists around a zero mean; report the absolute
        # diameter, which is nonzero here and therefore fails the verdict.
        return diameter
    return diameter / abs(mean)


def _float_spread(values, mean) -> float:
    diameter = 0.0
    for i in range(len(values)):
        for j in range(i):
            diameter = max(diameter, abs(values[i] - values[j]))
    if diameter == 0.0:
        return 0.0
    if mean == 0:
        return math.inf
    return diameter / abs(mean)
