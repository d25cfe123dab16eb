"""Scalar arithmetic helpers and the combinatorial quantities used throughout.

Two scalar fields run through the package: exact rationals (``fractions.
Fraction`` with arbitrary-precision integers) and complex double floats.
Exact values are never silently demoted; float values are checked finite on
entry to any kernel.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import ArgumentError, NumericError
from .polynomial import Polynomial

EXACT = "exact"
FLOAT = "float"


def is_exact(value) -> bool:
    """True for scalars that belong to the exact rational field."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def as_rational(value) -> Fraction:
    """Coerce to an exact rational; binary floats are rejected as ambiguous."""
    if isinstance(value, float):
        raise ArgumentError(
            f"refusing to reinterpret float {value!r} as an exact rational; "
            "pass a Fraction, an int, or a 'p/q' string"
        )
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ArgumentError(f"not a rational value: {value!r}") from exc


def ensure_finite(z: complex) -> complex:
    """Validate a float-field scalar; NaN or infinity is a NumericError."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NumericError(f"non-finite value {z!r} in float computation")
    return z


def superfactorial(n: int) -> int:
    """Product of k! for k = 0..n; the common value of the power-family determinants."""
    if n < 0:
        raise ArgumentError("superfactorial needs n >= 0")
    out = 1
    fact = 1
    for k in range(1, n + 1):
        fact *= k
        out *= fact
    return out


def falling_factorial(x, r: int):
    """x (x-1) ... (x-r+1); exact for rational x, complex otherwise."""
    if r < 0:
        raise ArgumentError("falling_factorial needs r >= 0")
    out = Fraction(1) if is_exact(x) else 1.0 + 0.0j
    for i in range(r):
        out = out * (x - i)
    return out


def binomial_poly(k: int) -> Polynomial:
    """The degree-k polynomial x(x-1)...(x-k+1) / k! with exact coefficients."""
    if k < 0:
        raise ArgumentError("binomial_poly needs k >= 0")
    p = Polynomial.one()
    for i in range(k):
        p = p * Polynomial((-i, 1))
    return p.scale(Fraction(1, math.factorial(k)))


def binomial_value(x, k: int):
    """Evaluate the binomial-coefficient polynomial at any scalar x."""
    return falling_factorial(x, k) / math.factorial(k)
