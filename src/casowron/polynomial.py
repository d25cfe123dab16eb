"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored low power first, so ``coeffs[i]`` multiplies ``x**i``.
The zero polynomial is the empty tuple and reports degree -1.  Evaluation
accepts rational or complex points; everything else stays exact.
"""
from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .errors import ArgumentError


def rational_text(v) -> str:
    """An int or Fraction as ``p`` or ``p/q``, exact at any size.

    ``str()`` of an int refuses more than 4,300 digits; the digits of a
    Decimal built from the int are the same and have no such limit.
    """
    text = str(Decimal(v.numerator))
    return text if v.denominator == 1 else f"{text}/{Decimal(v.denominator)}"


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, k: int, c=1) -> "Polynomial":
        if k < 0:
            raise ArgumentError("monomial power must be non-negative")
        return cls((0,) * k + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, j: int) -> Fraction:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return Fraction(0)

    def __call__(self, x):
        result = Fraction(0)
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs))[1:])

    def scale(self, s) -> "Polynomial":
        return Polynomial(tuple(Fraction(s) * c for c in self.coeffs))

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Polynomial", self.coeffs))

    def __repr__(self):
        return f"Polynomial({self.coeffs!r})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = rational_text(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{rational_text(mag)}*{var}"
            parts.append((sign, body))
        sign0, body0 = parts[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text
