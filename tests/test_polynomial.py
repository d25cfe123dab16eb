from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from casowron.errors import ArgumentError
from casowron.polynomial import Polynomial
from casowron.scalars import binomial_poly

from _oracles import shift, to_binomial_basis

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)
polys = st.lists(rationals, max_size=7).map(Polynomial)


def test_construction_strips_trailing_zeros():
    assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert Polynomial(()).is_zero
    assert Polynomial((0,)).degree == -1


def test_immutability():
    p = Polynomial((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)


def test_monomial_and_degree():
    assert Polynomial.monomial(3).coeffs == (0, 0, 0, 1)
    assert Polynomial.monomial(0, 5).coeffs == (5,)
    with pytest.raises(ArgumentError):
        Polynomial.monomial(-1)


def test_evaluation_horner():
    p = Polynomial((1, -2, 3))  # 3x^2 - 2x + 1
    assert p(Fraction(1, 2)) == Fraction(3, 4)
    assert p(2 + 0j) == 9 + 0j


def test_derivative():
    p = Polynomial((5, 0, 1, 2))  # 2x^3 + x^2 + 5
    assert p.derivative().coeffs == (0, 2, 6)
    assert Polynomial.one().derivative().is_zero


def test_shift_explicit():
    p = Polynomial.monomial(2)  # (x+1)^2 = x^2 + 2x + 1
    assert shift(p, 1).coeffs == (1, 2, 1)
    assert shift(p, 0) is p


@given(polys, rationals, rationals)
def test_shift_is_evaluation_composition(p, h, x):
    assert shift(p, h)(x) == p(x + h)


@given(polys, rationals, rationals)
def test_shift_homomorphism(p, h1, h2):
    assert shift(shift(p, h1), h2) == shift(p, h1 + h2)


@given(polys, polys, rationals)
def test_ring_operations_pointwise(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p - q)(x) == p(x) - q(x)
    assert (p * q)(x) == p(x) * q(x)


@given(polys, polys)
def test_product_degree(p, q):
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert (p * q).degree == p.degree + q.degree


@given(polys, polys)
def test_derivative_is_linear_and_leibniz(p, q):
    assert (p + q).derivative() == p.derivative() + q.derivative()
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def test_to_binomial_basis_roundtrip():
    p = Polynomial((3, Fraction(-1, 2), 0, 7))
    coeffs = to_binomial_basis(p)
    rebuilt = Polynomial.zero()
    for j, c in enumerate(coeffs):
        rebuilt = rebuilt + binomial_poly(j).scale(c)
    assert rebuilt == p


def test_str_rendering():
    assert str(Polynomial((0, -1, 1))) == "x^2 - x"
    assert str(Polynomial.zero()) == "0"
    assert str(Polynomial((Fraction(1, 2),))) == "1/2"
