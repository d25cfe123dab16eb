"""Reference implementations the tests trust instead of the package.

Everything here is deliberately naive: cofactor expansion instead of
elimination, minor enumeration instead of row reduction.  Slow but short
enough to audit by eye, and sharing no code with the kernels under test.
"""
import cmath
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

from casowron.polynomial import Polynomial


def cofactor_det(rows):
    """Determinant by first-row cofactor expansion, over any commutative ring."""
    n = len(rows)
    assert n > 0 and all(len(r) == n for r in rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        lead = rows[0][j]
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = lead * cofactor_det(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def poly_wronskian(polys) -> Polynomial:
    """Symbolic Wronskian of exact polynomials: rows of successive derivatives."""
    n = len(polys)
    rows = []
    current = [p for p in polys]
    for _ in range(n):
        rows.append(list(current))
        current = [p.derivative() for p in current]
    return cofactor_det(rows)


def exp_poly_derivative(p: Polynomial, mu, n: int, x) -> complex:
    """n-th derivative of p(x) * exp(mu x) at x, by the Leibniz rule."""
    total, dp = 0, p
    for j in range(n + 1):
        total += comb(n, j) * complex(dp(x)) * mu ** (n - j)
        dp = dp.derivative()
    return total * cmath.exp(mu * x)


def shift(p: Polynomial, h) -> Polynomial:
    """p(x + h) for rational h, by binomial expansion of every power."""
    h = Fraction(h)
    if p.is_zero or h == 0:
        return p
    out = [Fraction(0)] * len(p.coeffs)
    for i, c in enumerate(p.coeffs):
        for j in range(i + 1):
            out[j] += c * comb(i, j) * h ** (i - j)
    return Polynomial(out)


def to_binomial_basis(p: Polynomial) -> tuple:
    """Coefficients c_j with p(x) = sum_j c_j * falling(x, j) / j!.

    Computed as forward differences of p at 0, 1, ..., deg(p).
    """
    vals = [p(Fraction(r)) for r in range(p.degree + 1)]
    return tuple(
        sum((-1) ** (j - r) * comb(j, r) * vals[r] for r in range(j + 1))
        for j in range(p.degree + 1)
    )


def poly_casoratian(polys) -> Polynomial:
    """Symbolic Casoratian of exact polynomials: rows of successive unit shifts."""
    n = len(polys)
    rows = [[shift(p, i) for p in polys] for i in range(n)]
    return cofactor_det(rows)


def rank_by_minors(rows) -> int:
    """Largest size of a nonzero minor; exact entries only."""
    if not rows:
        return 0
    n_rows, n_cols = len(rows), len(rows[0])
    rank = 0
    for size in range(1, min(n_rows, n_cols) + 1):
        found = False
        for ris in combinations(range(n_rows), size):
            for cis in combinations(range(n_cols), size):
                sub = [[rows[i][j] for j in cis] for i in ris]
                if cofactor_det(sub) != 0:
                    found = True
                    break
            if found:
                break
        if not found:
            return rank
        rank = size
    return rank


def build_M(lam: float, m: int, x: float) -> list:
    """Moment rows with entry (i, j) = |lam|^x lam^(i-1) (x+i-1)^(j-1)."""
    a = abs(lam) ** x
    return [[a * lam**i * (x + i) ** j for j in range(m)] for i in range(m)]


def predicted_det(lam: float, m: int, x: float) -> float:
    """Closed form |lam|^(mx) lam^(m(m-1)/2) prod_{k=0}^{m-1} k! of det build_M."""
    return abs(lam) ** (m * x) * lam ** (m * (m - 1) // 2) * prod(map(factorial, range(m)))


def rand_fraction(rng, lo=-20, hi=20, max_den=10) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
