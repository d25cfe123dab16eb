"""Family members: one exponential-polynomial form, evaluation and exact D.

Every analytic member is a finite sum ``sum_mu p_mu(x) exp(mu x)``, held by
``LinearCombo`` as ``(mu, coeffs)`` pairs, coefficients low power first.  D
maps that form to itself, ``(mu, p) -> (mu, mu*p + p')``, so iterated row
construction never leaves a family's own span.  The named kinds are
constructors of the form: ``Monomial`` and ``PolyFunction`` (mu = 0, exact
rational coefficients, the only members of the exact field), ``ExpPoly``
(``x^k e^{mx}``), ``BinomExp`` (``binom(x,k) e^{x ln a}``), ``ExpTrig``
(exponents ``m +- i*omega``) and ``Hyperbolic`` (exponents ``+-m``).
``Tabulated`` is the only other leaf: it evaluates and has no exact
derivative.  Casoratian rows evaluate members at x + i*h; no shift exists.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import zip_longest

from .errors import ArgumentError, DomainError, UnsupportedOperationError
from .polynomial import Polynomial
from .scalars import EXACT, FLOAT, binomial_poly, is_exact

PHASES_TRIG = ("cos", "sin")
PHASES_HYP = ("cosh", "sinh")


@dataclass(frozen=True)
class LinearCombo:
    """sum over mu of p_mu(x) exp(mu x), as ``(mu, coeffs)`` pairs.

    The constructor merges equal exponents, trims trailing zero
    coefficients and drops zero polynomials.  ``label``, set by the named
    kinds, is the text ``str()`` shows; it takes no part in equality.
    """

    terms: tuple
    label: str = field(default="", compare=False)
    #: Every mu is 0 and every given coefficient is rational.
    exact_compatible: bool = field(init=False, repr=False, compare=False)
    #: Closed under conjugation with some complex mu: real-valued on reals.
    _real: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        merged: dict = {}
        # decided before zeros are dropped, so that a float member which
        # vanishes identically stays out of the exact field
        exact = True
        for mu, cs in self.terms:
            cs = tuple(cs)
            if mu in merged:
                cs = tuple(u + v for u, v in zip_longest(merged[mu], cs, fillvalue=0))
            merged[mu] = cs
            exact = exact and mu == 0 and all(map(is_exact, cs))
        terms = []
        for mu, cs in merged.items():
            while cs and not cs[-1]:
                cs = cs[:-1]
            if cs:
                terms.append((mu, cs))
        real = any(mu.imag for mu, _ in terms) and set(terms) == {
            (mu.conjugate(), tuple(c.conjugate() for c in cs)) for mu, cs in terms
        }
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "exact_compatible", exact)
        object.__setattr__(self, "_real", real)

    def evaluate(self, x):
        """Horner on each polynomial, times exp(mu*x) when mu is nonzero."""
        total = None
        for mu, cs in self.terms:
            acc = cs[-1]
            for c in cs[-2::-1]:
                acc = acc * x + c
            if mu:
                acc = acc * cmath.exp(mu * x)
            total = acc if total is None else total + acc
        if total is None:
            return 0
        return complex(total.real) if self._real and x.imag == 0 else total

    def derivative(self) -> "LinearCombo":
        """D term by term: (mu, p) -> (mu, mu*p + p')."""
        out = []
        for mu, cs in self.terms:
            dp = [j * cs[j] for j in range(1, len(cs))]
            if mu:
                dp = [mu * c + d for c, d in zip(cs, dp + [0])]
            out.append((mu, tuple(dp)))
        return LinearCombo(tuple(out))

    def scaled(self, s) -> "LinearCombo":
        return LinearCombo(tuple((mu, tuple(s * c for c in cs)) for mu, cs in self.terms))

    def __str__(self):
        parts = (f"({', '.join(map(str, cs))})*exp({_fmt_param(mu)}*x)" for mu, cs in self.terms)
        return self.label or " + ".join(parts) or "0"


@dataclass(frozen=True)
class Tabulated:
    """A function known only through an evaluator on an open real interval."""

    name: str
    evaluator: object
    domain: tuple = (-math.inf, math.inf)
    exact_compatible = False

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

    def derivative(self):
        raise UnsupportedOperationError(f"{self} has no exact derivative")

    def __str__(self):
        return self.name


def natural_log() -> Tabulated:
    """ln(x) on (0, inf); the standard tabulated counterexample member."""
    return Tabulated("ln", math.log, (0.0, math.inf))


def _check_power(k) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ArgumentError("power index must be a non-negative integer")


def _xk(k: int, c) -> tuple:
    """Coefficients of c * x**k."""
    return (0.0,) * k + (c,)


def _head(k: int) -> str:
    return "" if k == 0 else ("x*" if k == 1 else f"x^{k}*")


def _fmt_param(v) -> str:
    z = complex(v)
    if z.imag == 0:
        r = z.real
        return str(int(r)) if r == int(r) else repr(r)
    return repr(z)


def PolyFunction(poly) -> LinearCombo:
    """A fixed polynomial with exact rational coefficients."""
    if not isinstance(poly, Polynomial):
        poly = Polynomial(poly)
    return LinearCombo(((0, poly.coeffs),), str(poly))


def Monomial(k: int) -> LinearCombo:
    """x**k."""
    _check_power(k)
    return PolyFunction(Polynomial.monomial(k))


def BinomExp(k: int, a) -> LinearCombo:
    """binom(x, k) * a**x for a nonzero base a."""
    _check_power(k)
    a = complex(a)
    if a == 0:
        raise ArgumentError("exponential base must be nonzero")
    cs = tuple(float(c) for c in binomial_poly(k).coeffs)
    return LinearCombo(((cmath.log(a), cs),), f"binom(x,{k})*{_fmt_param(a)}^x")


def ExpPoly(k: int, m) -> LinearCombo:
    """x**k * exp(m*x)."""
    _check_power(k)
    m = complex(m)
    return LinearCombo(((m, _xk(k, 1.0)),), f"{_head(k)}exp({_fmt_param(m)}*x)")


def ExpTrig(k: int, m, omega, phase: str) -> LinearCombo:
    """x**k * exp(m*x) * cos(omega*x) or the sine companion."""
    _check_power(k)
    if phase not in PHASES_TRIG:
        raise ArgumentError(f"phase must be one of {PHASES_TRIG}")
    m, omega = complex(m), float(omega)
    c = 0.5 if phase == "cos" else -0.5j
    env = "" if m == 0 else f"exp({_fmt_param(m)}*x)*"
    return LinearCombo(
        ((m + 1j * omega, _xk(k, c)), (m - 1j * omega, _xk(k, c.conjugate()))),
        f"{_head(k)}{env}{phase}({_fmt_param(omega)}*x)",
    )


def Hyperbolic(k: int, m, phase: str) -> LinearCombo:
    """x**k * cosh(m*x) or x**k * sinh(m*x)."""
    _check_power(k)
    if phase not in PHASES_HYP:
        raise ArgumentError(f"phase must be one of {PHASES_HYP}")
    m = complex(m)
    odd = 0.5 if phase == "cosh" else -0.5
    return LinearCombo(((m, _xk(k, 0.5)), (-m, _xk(k, odd))),
                       f"{_head(k)}{phase}({_fmt_param(m)}*x)")


def derivative_chain(member, count: int) -> tuple:
    """(f, f', f'', ...) of one member, ``count`` long.

    The member itself is always the first entry, even when ``count`` < 1.
    """
    chain = [member]
    while len(chain) < count:
        chain.append(chain[-1].derivative())
    return tuple(chain)


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
            if not isinstance(m, (LinearCombo, Tabulated)):
                raise ArgumentError(f"not a basis function or combination: {m!r}")
            if self.field == EXACT and not m.exact_compatible:
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
    if any(isinstance(m, Tabulated) for m in family.members):
        raise UnsupportedOperationError("tabulated members cannot be combined")
    new_members = []
    for row in rows:
        terms = [m.scaled(c).terms for c, m in zip(row, family.members) if c != 0]
        new_members.append(LinearCombo(sum(terms, ())))
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
    members = (ExpTrig(k, m, omega, phase) for k in range(n + 1) for phase in PHASES_TRIG)
    return FunctionFamily(tuple(members), FLOAT)


def hyperbolic_family(n: int, m) -> FunctionFamily:
    """{x^k cosh(mx), x^k sinh(mx) : k = 0..n}."""
    if n < 0:
        raise ArgumentError("need n >= 0")
    if complex(m) == 0:
        raise ArgumentError("m = 0 makes every sinh member vanish")
    members = (Hyperbolic(k, m, phase) for k in range(n + 1) for phase in PHASES_HYP)
    return FunctionFamily(tuple(members), FLOAT)


def gen_exp_poly_family(terms) -> FunctionFamily:
    """Union of {x^k exp(m_j x) : k = 0..n_j} blocks with distinct bases m_j."""
    blocks = [(complex(m), int(top)) for m, top in terms]
    if not blocks:
        raise ArgumentError("need at least one (m, n) block")
    if len({m for m, _ in blocks}) != len(blocks):
        raise ArgumentError("exponential bases must be pairwise distinct")
    if any(top < 0 for _, top in blocks):
        raise ArgumentError("need n >= 0 in every block")
    members = (ExpPoly(k, m) for m, top in blocks for k in range(top + 1))
    return FunctionFamily(tuple(members), FLOAT)


def member_polynomial(member) -> Polynomial:
    """The Polynomial an exact (mu = 0, rational) member denotes."""
    if getattr(member, "exact_compatible", False):
        return Polynomial(member.terms[0][1] if member.terms else ())
    raise UnsupportedOperationError(f"{member} is not a polynomial member")
