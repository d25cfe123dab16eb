"""Determinant and linear-solve kernels over both scalar fields.

The exact path clears denominators row by row and then runs one
fraction-free (Bareiss) echelon elimination on big integers, which bounds
intermediate growth without gcd churn; det, rank and solve all read their
answer off that one elimination.  The float path is classic Gaussian elimination with
partial pivoting on complex doubles; a tiny pivot triggers a warning so a
caller can treat the result with suspicion.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArgumentError, NumericalWarning, NumericError
from .scalars import EXACT, FLOAT, as_rational, ensure_finite, is_exact

# Pivots smaller than this multiple of the largest entry get a warning.
PIVOT_WARN_RATIO = 1e-13


@dataclass(frozen=True)
class ScalarMatrix:
    """A square matrix over one scalar field, entries stored row-major."""

    entries: tuple
    field: str

    def __post_init__(self):
        if self.field not in (EXACT, FLOAT):
            raise ArgumentError(f"unknown field tag {self.field!r}")
        rows = tuple(tuple(r) for r in self.entries)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ArgumentError("matrix must be square and non-empty")
        if self.field == EXACT:
            # as_rational rejects binary floats instead of reinterpreting them
            rows = tuple(
                tuple(v if isinstance(v, Fraction) else as_rational(v) for v in r)
                for r in rows
            )
        else:
            rows = tuple(tuple(ensure_finite(v) for v in r) for r in rows)
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, rows, field: str | None = None) -> "ScalarMatrix":
        rows = [list(r) for r in rows]
        if field is None:
            flat = [v for r in rows for v in r]
            field = EXACT if all(is_exact(v) for v in flat) else FLOAT
        return cls(tuple(tuple(r) for r in rows), field)

    @property
    def order(self) -> int:
        return len(self.entries)

    def rows(self) -> list:
        return [list(r) for r in self.entries]

    def det(self):
        if self.field == EXACT:
            return det_exact(self.entries)
        return det_float(self.entries)


def _rows_of(matrix) -> list:
    if isinstance(matrix, ScalarMatrix):
        return matrix.rows()
    return [list(r) for r in matrix]


def _integer_rows(rows) -> tuple:
    """Each row times the lcm of its denominators, and the product of those lcms."""
    scale = 1
    out = []
    for row in rows:
        frs = [v if isinstance(v, Fraction) else Fraction(v) for v in row]
        den = math.lcm(*(f.denominator for f in frs))
        out.append([f.numerator * (den // f.denominator) for f in frs])
        scale *= den
    return out, scale


def _echelon(m: list) -> tuple:
    """Fraction-free row echelon form of an integer matrix, in place.

    Rectangular and rank-deficient input is fine: a column with no nonzero
    entry left below the current row gets no pivot and is skipped.  Every
    division is exact, because after r pivots entry (i, j) of a lower row is
    the minor of the row-swapped input on rows 0..r-1, i and on the pivot
    columns plus j; so the r-th pivot is the leading r x r minor on the
    pivot columns.  Returns (pivot columns, sign of the row permutation).
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        top = m[r]
        pv = top[c]
        for row in m[r + 1:]:
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = (pv * row[j] - f * top[j]) // prev
            row[c] = 0
        prev = pv
        pivots.append(c)
    return pivots, sign


def det_exact(matrix) -> Fraction:
    """Exact determinant of a matrix with rational entries."""
    rows = _rows_of(matrix)
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ArgumentError("matrix must be square")
    work, scale = _integer_rows(rows)
    pivots, sign = _echelon(work)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * work[n - 1][n - 1], scale)


def det_float(matrix) -> complex:
    """Determinant over complex doubles via row-pivoted elimination."""
    rows = _rows_of(matrix)
    n = len(rows)
    if n == 0:
        return 1.0 + 0.0j
    if any(len(r) != n for r in rows):
        raise ArgumentError("matrix must be square")
    a = [[ensure_finite(v) for v in r] for r in rows]
    biggest = max((abs(v) for r in a for v in r), default=0.0)
    det = 1.0 + 0.0j
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[p][k] == 0:
            if biggest > 0:
                warnings.warn(
                    "exactly zero pivot; the matrix is numerically singular",
                    NumericalWarning,
                    stacklevel=2,
                )
            return 0.0 + 0.0j
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        pivot = a[k][k]
        if biggest > 0 and abs(pivot) < PIVOT_WARN_RATIO * biggest:
            warnings.warn(
                f"pivot magnitude {abs(pivot):.3e} is tiny relative to the "
                f"largest entry {biggest:.3e}; determinant may be unreliable",
                NumericalWarning,
                stacklevel=2,
            )
        det *= pivot
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return ensure_finite(det)


def vandermonde_product(nodes):
    """prod_{j < i} (x_i - x_j); the closed form of the moment determinant."""
    nodes = list(nodes)
    out = Fraction(1) if all(is_exact(x) for x in nodes) else 1.0 + 0.0j
    for i in range(len(nodes)):
        for j in range(i):
            out = out * (nodes[i] - nodes[j])
    return out


def solve_exact(a_rows, b) -> list | None:
    """Solve A x = b exactly; returns None when the system is inconsistent.

    A may be rectangular (tall systems are common here).  With free columns
    a particular solution is returned with zeros in the free positions.
    """
    a = _rows_of(a_rows)
    rhs = list(b)
    if len(a) != len(rhs):
        raise ArgumentError("right-hand side length mismatch")
    ncols = len(a[0]) if a else 0
    aug, _ = _integer_rows([row + [v] for row, v in zip(a, rhs)])
    pivots, _ = _echelon(aug)
    if pivots and pivots[-1] == ncols:
        return None
    # Back-substitute over the pivot columns in integers: by Cramer's rule
    # d * x_c is integral, where d is the last pivot, the determinant of
    # the pivot block.  Free columns stay zero.
    d = aug[len(pivots) - 1][pivots[-1]] if pivots else 1
    y = [0] * ncols
    for r in range(len(pivots) - 1, -1, -1):
        row = aug[r]
        c = pivots[r]
        acc = d * row[ncols] - sum(row[j] * y[j] for j in pivots[r + 1:])
        y[c] = acc // row[c]
    return [Fraction(v, d) for v in y]


def rank_exact(a_rows) -> int:
    """Rank of a rational matrix (rectangular allowed)."""
    work, _ = _integer_rows(_rows_of(a_rows))
    pivots, _ = _echelon(work)
    return len(pivots)


# No caller in the package; bench/tracing.py looks it up by name to trace it.
def solve_float(a_rows, b) -> list:
    """Solve a square complex system with partial pivoting."""
    a = [[ensure_finite(v) for v in row] for row in _rows_of(a_rows)]
    rhs = [ensure_finite(v) for v in b]
    n = len(a)
    if n == 0 or any(len(r) != n for r in a) or len(rhs) != n:
        raise ArgumentError("need a square system with matching right-hand side")
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[p][k] == 0:
            raise NumericError("singular system in float solve")
        if p != k:
            a[k], a[p] = a[p], a[k]
            rhs[k], rhs[p] = rhs[p], rhs[k]
        pivot = a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            if f == 0:
                continue
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
            rhs[i] -= f * rhs[k]
    x = [0.0 + 0.0j] * n
    for i in range(n - 1, -1, -1):
        acc = rhs[i]
        for j in range(i + 1, n):
            acc -= a[i][j] * x[j]
        x[i] = acc / a[i][i]
    return [ensure_finite(v) for v in x]


def lstsq_float(a_rows, b) -> tuple:
    """Least squares over complex doubles via modified Gram-Schmidt QR.

    Returns (solution, residual_inf_norm).  Columns whose remaining norm is
    negligible are treated as dependent and get coefficient zero.
    """
    a = [[ensure_finite(v) for v in row] for row in _rows_of(a_rows)]
    rhs = [ensure_finite(v) for v in b]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if len(rhs) != nrows:
        raise ArgumentError("right-hand side length mismatch")
    cols = [[a[i][j] for i in range(nrows)] for j in range(ncols)]
    col_scale = max((abs(v) for col in cols for v in col), default=1.0) or 1.0
    q: list = []
    r_mat = [[0.0 + 0.0j] * ncols for _ in range(ncols)]
    kept = []
    for j in range(ncols):
        v = cols[j][:]
        for _ in range(2):  # one reorthogonalization pass
            for t, qi in enumerate(q):
                coef = sum(x.conjugate() * y for x, y in zip(qi, v))
                r_mat[kept[t]][j] += coef
                v = [y - coef * x for x, y in zip(qi, v)]
        norm = math.sqrt(sum(abs(x) ** 2 for x in v))
        if norm <= 1e-14 * col_scale * math.sqrt(nrows):
            continue
        r_mat[j][j] = norm
        q.append([x / norm for x in v])
        kept.append(j)
    proj = [sum(x.conjugate() * y for x, y in zip(qi, rhs)) for qi in q]
    coeffs = [0.0 + 0.0j] * ncols
    for t in range(len(kept) - 1, -1, -1):
        j = kept[t]
        acc = proj[t]
        for t2 in range(t + 1, len(kept)):
            acc -= r_mat[j][kept[t2]] * coeffs[kept[t2]]
        coeffs[j] = acc / r_mat[j][j]
    resid = 0.0
    for i in range(nrows):
        fit = sum(a[i][j] * coeffs[j] for j in range(ncols))
        resid = max(resid, abs(fit - rhs[i]))
    return coeffs, resid
