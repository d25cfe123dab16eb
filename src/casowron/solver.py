"""Solve (E - lambda)^m y = 0 by recovering 1-periodic coefficient profiles.

Every solution is y(x) = (mu_1(x) + mu_2(x) x + ... + mu_m(x) x^(m-1))
|lambda|^x with each mu_i of period one for lambda > 0 and negating across
a unit step for lambda < 0.  On a grid of mesh 1/q, each residue class
scaled to v_r = y(x+r) / (|lambda|^x lambda^r) is a polynomial of degree
< m in r (the sign of lambda in lambda^r gives the profiles their parity).
One forward-difference table per class, the Delta-form of the Casoratian,
does all the work: its m-th differences are the equation's residual in the
same scale, and its first m are the coefficients of v in the binomial basis
C(r, k), which one change of basis turns into the mu_i(x) of the powers
(x + r)^i.  That step amplifies rounding more as x and m grow, and the
solver warns when the amplified rounding could exceed its tolerance.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from math import comb
from operator import mul

from .casowronsk import CONSTANCY_TOL, casoratian_matrix, row_norm_product
from .errors import ArgumentError, InconsistentInputError, NumericalWarning, NumericError
from .functions import FunctionFamily
from .scalars import EXACT

#: Largest relative residual of (E - lambda)^m y tolerated when verifying
#: that input samples really do solve the equation.
PARITY_TOL = 1e-6


@dataclass(frozen=True)
class PeriodicProfile:
    """Samples of one coefficient function over a single period."""

    samples: tuple
    parity: str  # "periodic" | "antiperiodic"

    def __post_init__(self):
        if self.parity not in ("periodic", "antiperiodic"):
            raise ArgumentError("parity must be 'periodic' or 'antiperiodic'")
        samples = tuple(float(v) for v in self.samples)
        if not samples:
            raise ArgumentError("a profile needs at least one sample")
        object.__setattr__(self, "samples", samples)

    @property
    def q(self) -> int:
        return len(self.samples)

    def continuation_sign(self) -> float:
        return 1.0 if self.parity == "periodic" else -1.0

    def value(self, k: int, t: int) -> float:
        """Profile value at residue t, k whole steps past the base period."""
        return self.samples[t] * self.continuation_sign() ** k


@dataclass(frozen=True)
class SolverProblem:
    """Equation parameters plus the sampling grid they act on."""

    lam: float
    m: int
    x0: float = 0.0
    q: int = 1
    horizon: int | None = None

    def __post_init__(self):
        lam = float(self.lam)
        if lam == 0 or not math.isfinite(lam):
            raise ArgumentError("lambda must be nonzero and finite")
        if self.m < 1:
            raise ArgumentError("order m must be at least 1")
        if self.q < 1:
            raise ArgumentError("mesh count q must be at least 1")
        horizon = self.m if self.horizon is None else self.horizon
        if horizon < self.m:
            raise ArgumentError("horizon must cover at least m unit steps")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "horizon", horizon)

    @property
    def parity(self) -> str:
        return "periodic" if self.lam > 0 else "antiperiodic"

    def grid(self) -> list:
        """All sample abscissas x0 + n/q for n = 0 .. horizon*q - 1."""
        return [self.x0 + n / self.q for n in range(self.horizon * self.q)]


def _difference_tables(problem: SolverProblem, values) -> tuple:
    """Delta^k v_0 (k < m) per residue class, the largest |v| and the residual.

    The residual is the largest |Delta^m v_r| divided by the largest |v|,
    both over every class: a class holding only rounding noise would fail
    against a scale of its own.
    """
    lam, m, q = problem.lam, problem.m, problem.q
    heads, size, worst = [], 0.0, 0.0
    for t in range(q):
        scale = abs(lam) ** (problem.x0 + t / q)
        row = [y / (scale * lam**r) for r, y in enumerate(values[t::q])]
        size = max(size, max(map(abs, row)))
        head = []
        for _ in range(m):
            head.append(row[0])
            row = [b - a for a, b in zip(row, row[1:])]
        heads.append(head)
        worst = max(worst, max(map(abs, row), default=0.0))
    return heads, size, worst / size if size else 0.0


def _binomial_to_power(x: float, m: int) -> list:
    """Rows i of T with C(u - x, k) = sum_i T[i][k] u^i for k < m."""
    cols, poly = [], [1.0]
    for k in range(m):
        cols.append(poly + [0.0] * (m - len(poly)))
        shifted = [0.0] + poly
        poly = [(a - (x + k) * b) / (k + 1) for a, b in zip(shifted, poly + [0.0])]
    return [list(row) for row in zip(*cols)]


def recover_profiles(problem: SolverProblem, samples,
                     parity_tol: float = PARITY_TOL) -> list:
    """Recover the m coefficient profiles from solution samples.

    ``samples`` holds y on the grid x0 + n/q, n = 0..K*q-1, with K >= m.
    A relative residual of (E - lambda)^m y above ``parity_tol`` means the
    samples do not solve the equation and is an error.  Profiles whose
    change of basis could amplify rounding past ``parity_tol`` come with
    a NumericalWarning.
    """
    vals = [float(v) for v in samples]
    for n, v in enumerate(vals):
        if not math.isfinite(v):
            raise NumericError(f"sample {n} is {v!r}; samples must be finite")
    q, m = problem.q, problem.m
    if len(vals) % q != 0:
        raise ArgumentError("sample count must be a multiple of q")
    if len(vals) // q < m:
        raise ArgumentError(f"need at least m = {m} unit steps of samples")
    heads, size, residual = _difference_tables(problem, vals)
    if residual > parity_tol:
        raise InconsistentInputError(
            f"relative residual {residual:.3e} of (E - lambda)^m y exceeds "
            f"{parity_tol:g}; samples do not solve the equation"
        )
    # Columns of D, which maps v_0..v_{m-1} to their differences; T D is
    # the whole recovery, and its norm is how much it amplifies rounding.
    diff_cols = [[(-1) ** (k - r) * comb(k, r) for k in range(m)] for r in range(m)]
    per_residue, gain = [], 0.0
    for t, head in enumerate(heads):
        basis = _binomial_to_power(problem.x0 + t / q, m)
        per_residue.append([sum(map(mul, row, head)) for row in basis])
        gain = max(gain, max(
            sum(abs(sum(map(mul, row, col))) for col in diff_cols) for row in basis
        ))
    top = max(1.0, max(abs(c) for coeffs in per_residue for c in coeffs))
    error = gain * size / top * sys.float_info.epsilon
    if error > parity_tol:
        warnings.warn(f"profiles are poorly conditioned: rounding in the samples may "
                      f"reach {error:.1e} relative after the change of basis",
                      NumericalWarning)
    return [
        PeriodicProfile(tuple(coeffs[i] for coeffs in per_residue), problem.parity)
        for i in range(m)
    ]


@dataclass(frozen=True)
class SolverSolution:
    """A synthesized solution with its relative residual under (E - lambda)^m."""

    problem: SolverProblem
    profiles: tuple
    grid: tuple
    values: tuple
    max_residual: float


def synthesize(problem: SolverProblem, profiles) -> SolverSolution:
    """Build y from profiles and measure its relative (E - lambda)^m residual."""
    profiles = tuple(profiles)
    if len(profiles) != problem.m:
        raise ArgumentError(f"need exactly m = {problem.m} profiles")
    for p in profiles:
        if p.q != problem.q:
            raise ArgumentError("profile period does not match the problem mesh")
        if p.parity != problem.parity:
            raise ArgumentError(
                f"profile parity {p.parity!r} contradicts lambda = {problem.lam}"
            )
    q, abs_l = problem.q, abs(problem.lam)
    xs = problem.grid()
    ys = []
    for n, x in enumerate(xs):
        t, k = n % q, n // q
        poly = sum(p.value(k, t) * x**i for i, p in enumerate(profiles))
        ys.append(abs_l**x * poly)
    residual = _difference_tables(problem, ys)[2]
    return SolverSolution(problem, profiles, tuple(xs), tuple(ys), residual)


@dataclass(frozen=True)
class FundamentalCheck:
    """Whether a family's Casoratian stays clear of zero on a grid."""

    ok: bool
    min_abs: float
    witness_x: object

    def __bool__(self) -> bool:
        return self.ok


def is_fundamental_set(family: FunctionFamily, grid,
                       floor_scale: float = 1e-12) -> FundamentalCheck:
    """Test that the Casoratian is nonzero at every grid point.

    The witness is the first point with the smallest Casoratian magnitude;
    for float families "smallest" means within ``CONSTANCY_TOL`` relative
    of the minimum, so that rounding noise on a constant |C| does not pick
    it, and "nonzero" means above ``floor_scale`` times the row-norm
    product of the matrix at that point.
    """
    grid = list(grid)
    if not grid:
        raise ArgumentError("need a non-empty grid")
    ok = True
    mags = []
    for x in grid:
        matrix = casoratian_matrix(family, x)
        c = matrix.det()
        if family.field == EXACT:
            good = c != 0
            mag = float(abs(c))
        else:
            floor = floor_scale * row_norm_product(matrix)
            mag = abs(c)
            good = mag > floor
        mags.append(mag)
        ok = ok and good
    min_abs = min(mags)
    slack = 0.0 if family.field == EXACT else CONSTANCY_TOL * min_abs
    witness = next(x for x, mag in zip(grid, mags) if mag <= min_abs + slack)
    return FundamentalCheck(ok, min_abs, witness)
