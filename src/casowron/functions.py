"""Basis functions: evaluation and exact differentiation.

All families handed to the determinant builders are assembled from the kinds
below.  Differentiation returns a finite linear combination that stays inside
the originating kind, so iterated row construction never leaves a family's
own span:

* powers and polynomials close under the derivative;
* binomial-coefficient exponentials close via D = log(1 + Delta);
* exponential-polynomial, exponential-trigonometric and hyperbolic kinds
  close under the usual product and addition rules;
* tabulated functions only evaluate; they have no exact derivative.

Casoratian rows evaluate each member at x + i*h, so no kind needs a shift.
Only powers and polynomials support the exact rational field.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ArgumentError, DomainError, UnsupportedOperationError
from .polynomial import Polynomial
from .scalars import EXACT, FLOAT, binomial_value, is_exact

PHASES_TRIG = ("cos", "sin")
PHASES_HYP = ("cosh", "sinh")


class BasisFunction:
    """Shared surface of every function kind."""

    exact_compatible = False

    def evaluate(self, x):
        raise NotImplementedError

    def derivative(self) -> "LinearCombo":
        raise UnsupportedOperationError(f"{self} has no exact derivative")

    def combo(self) -> "LinearCombo":
        return LinearCombo(((1, self),))


def _check_power(k) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ArgumentError("power index must be a non-negative integer")


@dataclass(frozen=True)
class Monomial(BasisFunction):
    """x**k."""

    k: int
    exact_compatible = True

    def __post_init__(self):
        _check_power(self.k)

    def evaluate(self, x):
        return x**self.k

    def derivative(self):
        if self.k == 0:
            return LinearCombo(())
        return LinearCombo(((self.k, Monomial(self.k - 1)),))

    def __str__(self):
        return "1" if self.k == 0 else ("x" if self.k == 1 else f"x^{self.k}")


@dataclass(frozen=True)
class PolyFunction(BasisFunction):
    """A fixed polynomial with exact rational coefficients."""

    poly: Polynomial
    exact_compatible = True

    def __post_init__(self):
        if not isinstance(self.poly, Polynomial):
            object.__setattr__(self, "poly", Polynomial(self.poly))

    def evaluate(self, x):
        return self.poly(x)

    def derivative(self):
        d = self.poly.derivative()
        if d.is_zero:
            return LinearCombo(())
        return LinearCombo(((1, PolyFunction(d)),))

    def __str__(self):
        return str(self.poly)


@dataclass(frozen=True)
class BinomExp(BasisFunction):
    """binom(x, k) * a**x for a nonzero base a."""

    k: int
    a: complex

    def __post_init__(self):
        _check_power(self.k)
        a = complex(self.a)
        if a == 0:
            raise ArgumentError("exponential base must be nonzero")
        object.__setattr__(self, "a", a)

    def evaluate(self, x):
        return binomial_value(x, self.k) * self.a**x

    def derivative(self):
        # d/dx binom(x,k) = sum_{j<k} (-1)^(k-1-j)/(k-j) * binom(x,j), from
        # D = log(1 + Delta) and Delta binom(x,k) = binom(x,k-1).
        k = self.k
        terms = [(cmath.log(self.a), self)]
        terms.extend(
            (Fraction((-1) ** (k - 1 - j), k - j), BinomExp(j, self.a))
            for j in range(k)
        )
        return _merge(terms)

    def __str__(self):
        return f"binom(x,{self.k})*{_fmt_param(self.a)}^x"


@dataclass(frozen=True)
class ExpPoly(BasisFunction):
    """x**k * exp(m*x)."""

    k: int
    m: complex

    def __post_init__(self):
        _check_power(self.k)
        object.__setattr__(self, "m", complex(self.m))

    def evaluate(self, x):
        return x**self.k * cmath.exp(self.m * x)

    def derivative(self):
        terms = [(self.m, self)]
        if self.k > 0:
            terms.append((self.k, ExpPoly(self.k - 1, self.m)))
        return _merge(terms)

    def __str__(self):
        head = "" if self.k == 0 else ("x*" if self.k == 1 else f"x^{self.k}*")
        return f"{head}exp({_fmt_param(self.m)}*x)"


@dataclass(frozen=True)
class ExpTrig(BasisFunction):
    """x**k * exp(m*x) * cos(omega*x) or the sine companion."""

    k: int
    m: complex
    omega: float
    phase: str

    def __post_init__(self):
        _check_power(self.k)
        if self.phase not in PHASES_TRIG:
            raise ArgumentError(f"phase must be one of {PHASES_TRIG}")
        object.__setattr__(self, "m", complex(self.m))
        object.__setattr__(self, "omega", float(self.omega))

    def evaluate(self, x):
        trig = cmath.cos if self.phase == "cos" else cmath.sin
        return x**self.k * cmath.exp(self.m * x) * trig(self.omega * x)

    def _partner(self, phase, k=None):
        return ExpTrig(self.k if k is None else k, self.m, self.omega, phase)

    def derivative(self):
        terms = [(self.m, self)]
        if self.k > 0:
            terms.append((self.k, self._partner(self.phase, self.k - 1)))
        if self.phase == "cos":
            terms.append((-self.omega, self._partner("sin")))
        else:
            terms.append((self.omega, self._partner("cos")))
        return _merge(terms)

    def __str__(self):
        head = "" if self.k == 0 else ("x*" if self.k == 1 else f"x^{self.k}*")
        env = "" if self.m == 0 else f"exp({_fmt_param(self.m)}*x)*"
        return f"{head}{env}{self.phase}({_fmt_param(self.omega)}*x)"


@dataclass(frozen=True)
class Hyperbolic(BasisFunction):
    """x**k * cosh(m*x) or x**k * sinh(m*x)."""

    k: int
    m: complex
    phase: str

    def __post_init__(self):
        _check_power(self.k)
        if self.phase not in PHASES_HYP:
            raise ArgumentError(f"phase must be one of {PHASES_HYP}")
        object.__setattr__(self, "m", complex(self.m))

    def evaluate(self, x):
        fn = cmath.cosh if self.phase == "cosh" else cmath.sinh
        return x**self.k * fn(self.m * x)

    def _partner(self, phase, k=None):
        return Hyperbolic(self.k if k is None else k, self.m, phase)

    def derivative(self):
        other = "sinh" if self.phase == "cosh" else "cosh"
        terms = [(self.m, self._partner(other))]
        if self.k > 0:
            terms.append((self.k, self._partner(self.phase, self.k - 1)))
        return _merge(terms)

    def __str__(self):
        head = "" if self.k == 0 else ("x*" if self.k == 1 else f"x^{self.k}*")
        return f"{head}{self.phase}({_fmt_param(self.m)}*x)"


@dataclass(frozen=True)
class Tabulated(BasisFunction):
    """A function known only through an evaluator on an open real interval."""

    name: str
    evaluator: object
    domain: tuple = (-math.inf, math.inf)

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise ArgumentError("domain must be a non-empty open interval")

    def evaluate(self, x):
        z = complex(x)
        if z.imag != 0:
            raise DomainError(f"{self.name} accepts real arguments only")
        t = z.real
        lo, hi = self.domain
        if not (lo < t < hi):
            raise DomainError(f"{self.name} evaluated at {t} outside ({lo}, {hi})")
        return complex(self.evaluator(t))

    def __str__(self):
        return self.name


def natural_log() -> Tabulated:
    """ln(x) on (0, inf); the standard tabulated counterexample member."""
    return Tabulated("ln", math.log, (0.0, math.inf))


@dataclass(frozen=True)
class LinearCombo:
    """A finite linear combination of basis functions."""

    terms: tuple

    def evaluate(self, x):
        total = 0
        for c, f in self.terms:
            total = total + c * f.evaluate(x)
        return total

    def derivative(self) -> "LinearCombo":
        out = []
        for c, f in self.terms:
            for c2, g in f.derivative().terms:
                out.append((c * c2, g))
        return _merge(out)

    def scaled(self, s) -> "LinearCombo":
        return _merge((s * c, f) for c, f in self.terms)

    def plus(self, other: "LinearCombo") -> "LinearCombo":
        return _merge(self.terms + other.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{f}" for c, f in self.terms)


def _merge(terms) -> LinearCombo:
    acc: dict = {}
    order = []
    for c, f in terms:
        if f in acc:
            acc[f] = acc[f] + c
        else:
            acc[f] = c
            order.append(f)
    return LinearCombo(tuple((acc[f], f) for f in order if acc[f] != 0))


def as_combo(member) -> LinearCombo:
    if isinstance(member, LinearCombo):
        return member
    if isinstance(member, BasisFunction):
        return member.combo()
    raise ArgumentError(f"not a basis function or combination: {member!r}")


def derivative_chain(member, count: int) -> tuple:
    """(f, f', f'', ...) of one member as combinations, ``count`` long.

    The member itself is always the first entry, even when ``count`` < 1.
    """
    chain = [as_combo(member)]
    while len(chain) < count:
        chain.append(chain[-1].derivative())
    return tuple(chain)


def _member_exact_ok(member) -> bool:
    if isinstance(member, LinearCombo):
        return all(
            is_exact(c) and getattr(f, "exact_compatible", False)
            for c, f in member.terms
        )
    return getattr(member, "exact_compatible", False)


def _fmt_param(v) -> str:
    z = complex(v)
    if z.imag == 0:
        r = z.real
        return str(int(r)) if r == int(r) else repr(r)
    return repr(z)


@dataclass(frozen=True)
class FunctionFamily:
    """An ordered, non-empty collection of members over one scalar field."""

    members: tuple
    field: str = FLOAT

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ArgumentError("a family needs at least one member")
        if self.field not in (EXACT, FLOAT):
            raise ArgumentError(f"unknown field tag {self.field!r}")
        for m in members:
            if not isinstance(m, (BasisFunction, LinearCombo)):
                raise ArgumentError(f"not a basis function or combination: {m!r}")
            if self.field == EXACT and not _member_exact_ok(m):
                raise ArgumentError(
                    f"member {m} does not support the exact rational field"
                )
        object.__setattr__(self, "members", members)

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def derivative_rows(self) -> tuple:
        """Row i holds the i-th derivative of every member, for i < size.

        Built on first use and kept for the life of the family, so every
        Wronskian of the family reuses one derivative tower.  Raises
        UnsupportedOperationError when a member has no exact derivative.
        """
        chains = [derivative_chain(m, self.size) for m in self.members]
        return tuple(zip(*chains))


def transformed_family(family: FunctionFamily, matrix_rows) -> FunctionFamily:
    """Apply an invertible(-looking) square coefficient matrix to the members."""
    rows = [list(r) for r in matrix_rows]
    n = family.size
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ArgumentError("change-of-basis matrix must match the family size")
    base = [as_combo(m) for m in family.members]
    new_members = []
    for row in rows:
        combined = LinearCombo(())
        for c, col in zip(row, base):
            if c != 0:
                combined = combined.plus(col.scaled(c))
        new_members.append(combined)
    return FunctionFamily(tuple(new_members), family.field)


# ---------------------------------------------------------------------------
# Stock family builders
# ---------------------------------------------------------------------------

def power_family(n: int, field: str = EXACT) -> FunctionFamily:
    """{1, x, ..., x**n}."""
    if n < 0:
        raise ArgumentError("need n >= 0")
    return FunctionFamily(tuple(Monomial(k) for k in range(n + 1)), field)


def binom_exp_family(n: int, a) -> FunctionFamily:
    """{binom(x,k) a**x : k = 0..n}."""
    if n < 0:
        raise ArgumentError("need n >= 0")
    return FunctionFamily(tuple(BinomExp(k, a) for k in range(n + 1)), FLOAT)


def exp_trig_family(n: int, m, omega) -> FunctionFamily:
    """{x^k exp(mx) cos(wx), x^k exp(mx) sin(wx) : k = 0..n}."""
    if n < 0:
        raise ArgumentError("need n >= 0")
    omega = float(omega)
    if omega == 0:
        raise ArgumentError("omega = 0 makes every sine member vanish")
    members = []
    for k in range(n + 1):
        members.append(ExpTrig(k, m, omega, "cos"))
        members.append(ExpTrig(k, m, omega, "sin"))
    return FunctionFamily(tuple(members), FLOAT)


def hyperbolic_family(n: int, m) -> FunctionFamily:
    """{x^k cosh(mx), x^k sinh(mx) : k = 0..n}."""
    if n < 0:
        raise ArgumentError("need n >= 0")
    if complex(m) == 0:
        raise ArgumentError("m = 0 makes every sinh member vanish")
    members = []
    for k in range(n + 1):
        members.append(Hyperbolic(k, m, "cosh"))
        members.append(Hyperbolic(k, m, "sinh"))
    return FunctionFamily(tuple(members), FLOAT)


def gen_exp_poly_family(terms) -> FunctionFamily:
    """Union of {x^k exp(m_j x) : k = 0..n_j} blocks with distinct bases m_j."""
    blocks = [(complex(m), int(top)) for m, top in terms]
    if not blocks:
        raise ArgumentError("need at least one (m, n) block")
    if len({m for m, _ in blocks}) != len(blocks):
        raise ArgumentError("exponential bases must be pairwise distinct")
    members = []
    for m, top in blocks:
        if top < 0:
            raise ArgumentError("need n >= 0 in every block")
        members.extend(ExpPoly(k, m) for k in range(top + 1))
    return FunctionFamily(tuple(members), FLOAT)


# ---------------------------------------------------------------------------
# Polynomial views
# ---------------------------------------------------------------------------

def member_polynomial(member) -> Polynomial:
    """The Polynomial a power/polynomial member (or exact combination) denotes."""
    if isinstance(member, Monomial):
        return Polynomial.monomial(member.k)
    if isinstance(member, PolyFunction):
        return member.poly
    if isinstance(member, LinearCombo):
        total = Polynomial.zero()
        for c, f in member.terms:
            if not is_exact(c):
                raise UnsupportedOperationError(
                    "combination has non-rational coefficients"
                )
            total = total + member_polynomial(f).scale(c)
        return total
    raise UnsupportedOperationError(f"{member} is not a polynomial member")
