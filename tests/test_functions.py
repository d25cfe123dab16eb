import cmath
import math
from fractions import Fraction

import mpmath
import pytest

from casowron.errors import ArgumentError, DomainError, UnsupportedOperationError
from casowron.functions import (
    BinomExp,
    ExpPoly,
    ExpTrig,
    FunctionFamily,
    Hyperbolic,
    LinearCombo,
    Monomial,
    PolyFunction,
    binom_exp_family,
    derivative_chain,
    exp_trig_family,
    gen_exp_poly_family,
    hyperbolic_family,
    member_polynomial,
    natural_log,
    power_family,
    transformed_family,
)
from casowron.polynomial import Polynomial
from casowron.scalars import EXACT, FLOAT, binomial_poly, binomial_value

from _oracles import to_binomial_basis

# one representative of every analytic member kind; all real-valued on reals
ANALYTIC_MEMBERS = [
    Monomial(0),
    Monomial(3),
    PolyFunction(Polynomial((1, 0, Fraction(-2, 3)))),
    BinomExp(2, 2.0),
    BinomExp(1, 0.5),
    ExpPoly(1, 2.0),
    ExpTrig(1, 0.4, 1.3, "cos"),
    ExpTrig(0, 0.0, 1.0, "sin"),
    Hyperbolic(1, 0.7, "sinh"),
    Hyperbolic(2, 1.0, "cosh"),
]
# the same members as closed expressions in mpmath, in the same order
CLOSED_FORMS = [
    lambda x: mpmath.mpf(1),
    lambda x: x**3,
    lambda x: 1 - 2 * x**2 / 3,
    lambda x: mpmath.binomial(x, 2) * mpmath.mpf(2.0) ** x,
    lambda x: mpmath.binomial(x, 1) * mpmath.mpf(0.5) ** x,
    lambda x: x * mpmath.exp(2.0 * x),
    lambda x: x * mpmath.exp(0.4 * x) * mpmath.cos(1.3 * x),
    lambda x: mpmath.sin(x),
    lambda x: x * mpmath.sinh(0.7 * x),
    lambda x: x**2 * mpmath.cosh(x),
]

POINTS = [0.3, 1.7, -0.9]


@pytest.mark.parametrize(
    "member, closed", list(zip(ANALYTIC_MEMBERS, CLOSED_FORMS)),
    ids=[str(m) for m in ANALYTIC_MEMBERS],
)
@pytest.mark.parametrize("x", POINTS)
def test_derivative_matches_complex_step(member, closed, x):
    # oracle: mpmath's numerical derivative of the closed form at 50 digits
    with mpmath.workdps(50):
        want = float(mpmath.diff(closed, mpmath.mpf(x)))
    got = member.derivative().evaluate(x)
    assert got.real == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_derivative_with_complex_rate():
    f = ExpPoly(1, complex(0.3, 1.1))
    x, h = 0.7, 1e-6
    central = (f.evaluate(x + h) - f.evaluate(x - h)) / (2 * h)
    assert f.derivative().evaluate(x) == pytest.approx(central, rel=1e-8)


@pytest.mark.parametrize("member", ANALYTIC_MEMBERS, ids=str)
@pytest.mark.parametrize("x", POINTS)
@pytest.mark.parametrize("h", [1.0, -0.5, 0.25])
def test_shift_agrees_with_displaced_evaluation(member, x, h):
    # the shift operator is exp(hD): the Taylor series of the derivative
    # tower at x must reproduce the displaced evaluation f(x + h)
    chain = derivative_chain(member, 40)
    got = math.fsum(
        complex(d.evaluate(x)).real * h**k / math.factorial(k)
        for k, d in enumerate(chain)
    )
    want = complex(member.evaluate(x + h)).real
    assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_monomial_exact_paths():
    m = Monomial(2)
    assert m.evaluate(Fraction(1, 2)) == Fraction(1, 4)
    d = m.derivative().evaluate(Fraction(3))
    assert d == 6
    with pytest.raises(ArgumentError):
        Monomial(-1)


def test_binom_exp_evaluate():
    f = BinomExp(2, 2.0)
    x = 1.5
    want = binomial_value(complex(x), 2) * 2.0**x
    assert f.evaluate(x) == pytest.approx(want)
    with pytest.raises(ArgumentError):
        BinomExp(1, 0)


def test_binom_exp_derivative_matches_binomial_basis():
    # D(binom(x,k) a^x) = (ln a * binom(x,k) + sum_j c_j binom(x,j)) a^x, where
    # c holds the binomial-basis coefficients of d/dx binom(x,k)
    a = 1.7
    for k in range(21):
        basis = to_binomial_basis(binomial_poly(k).derivative())
        for x in POINTS:
            inner = cmath.log(a) * binomial_value(x, k)
            inner += sum(float(c) * binomial_value(x, j) for j, c in enumerate(basis))
            scale = sum(abs(float(c) * binomial_value(x, j)) for j, c in enumerate(basis))
            got = BinomExp(k, a).derivative().evaluate(x)
            assert abs(got - inner * a**x) <= 1e-12 * max(scale, 1.0) * a**x


def test_trig_and_hyperbolic_phase_validation():
    # omega = 0 / m = 0 are legal members; only the family builders reject them
    with pytest.raises(ArgumentError):
        ExpTrig(0, 1.0, 1.0, "tan")
    with pytest.raises(ArgumentError):
        Hyperbolic(0, 1.0, "cos")


def test_tabulated_ln():
    ln = natural_log()
    assert ln.evaluate(math.e) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        ln.evaluate(0.0)
    with pytest.raises(DomainError):
        ln.evaluate(-2.0)
    with pytest.raises(UnsupportedOperationError):
        ln.derivative()


def test_linear_combo_merges_and_drops_zeros():
    a, b = Monomial(1), Monomial(2)
    combo = LinearCombo(a.scaled(2).terms + b.terms + a.scaled(-2).terms)
    assert combo.terms == ((0, (0, 0, 1)),)
    assert combo == b
    assert combo.evaluate(3.0) == pytest.approx(9.0)
    # equal exponents merge, trailing zeros go, a vanishing polynomial drops
    mixed = LinearCombo(((1.5, (2.0, 1.0)), (2j, (0.0,)), (1.5, (0.0, -1.0))))
    assert mixed.terms == ((1.5, (2.0,)),)


@pytest.mark.parametrize("x", POINTS + [complex(2.5, 0.0), 0])
def test_conjugate_symmetric_members_are_real_on_reals(x):
    # exp(m +- i omega) pairs with real m and omega, and cosh(i theta x),
    # are real-valued: at real x every entry of their derivative towers
    # must come back with an imaginary part of exactly zero
    members = list(exp_trig_family(2, 0.3, 1.1).members)
    members += [ExpTrig(1, -0.5, 2.0, "sin"), Hyperbolic(1, 1.5j, "cosh")]
    # conjugate partners need not be adjacent terms; summed in this order
    # the imaginary parts leave rounding behind
    members.append(LinearCombo((
        (0.3 + 1j, (1.0, 0.25)), (0.1 + 2.5j, (0.3,)),
        (0.3 - 1j, (1.0, 0.25)), (0.1 - 2.5j, (0.3,)),
    )))
    for member in members:
        for d in derivative_chain(member, 6):
            assert complex(d.evaluate(x)).imag == 0
    # a genuinely complex member keeps its imaginary part
    assert complex(Hyperbolic(0, 1.5j, "sinh").evaluate(1.0)).imag != 0


def test_vanishing_float_member_stays_out_of_the_exact_field():
    zero = ExpTrig(0, 0.0, 0.0, "sin")
    assert zero.terms == ()
    assert zero.evaluate(0.7) == 0
    assert not zero.exact_compatible
    with pytest.raises(ArgumentError):
        FunctionFamily((zero,), EXACT)
    assert PolyFunction(Polynomial(())).exact_compatible


def test_family_validation():
    with pytest.raises(ArgumentError):
        FunctionFamily((), EXACT)
    with pytest.raises(ArgumentError):
        FunctionFamily((ExpPoly(0, 1.0),), EXACT)  # not exact-compatible
    with pytest.raises(ArgumentError):
        FunctionFamily((Monomial(0),), "decimal")


def test_power_family():
    fam = power_family(3)
    assert fam.size == 4
    assert fam.field == EXACT
    assert tuple(str(m) for m in fam.members) == ("1", "x", "x^2", "x^3")


def test_transformed_family_members():
    fam = power_family(1)
    mixed = transformed_family(fam, [[1, 1], [0, 2]])
    assert mixed.size == 2
    assert mixed.members[0].evaluate(Fraction(3)) == 4  # 1 + x
    assert mixed.members[1].evaluate(Fraction(3)) == 6  # 2x


def test_builders_validate():
    with pytest.raises(ArgumentError):
        exp_trig_family(0, 0.0, 0.0)
    with pytest.raises(ArgumentError):
        hyperbolic_family(0, 0.0)
    with pytest.raises(ArgumentError):
        gen_exp_poly_family([(2.0, 0), (2.0, 1)])
    with pytest.raises(ArgumentError):
        binom_exp_family(2, 0.0)


def test_exp_trig_family_size_and_order():
    fam = exp_trig_family(1, 0.5, 2.0)
    # k = 0..n, cos and sin for each k
    assert fam.size == 4


def test_member_polynomial():
    assert member_polynomial(Monomial(2)) == Polynomial.monomial(2)
    combo = Monomial(1).scaled(3)
    assert member_polynomial(combo) == Polynomial((0, 3))
    with pytest.raises(UnsupportedOperationError):
        member_polynomial(ExpPoly(0, 1.0))


def test_binom_exp_family_members():
    fam = binom_exp_family(2, 2.0)
    assert fam.size == 3
    x = 1.25
    for k, member in enumerate(fam.members):
        want = binomial_value(complex(x), k) * 2.0**x
        assert member.evaluate(x) == pytest.approx(want)
