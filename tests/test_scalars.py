import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from casowron.errors import ArgumentError, NumericError
from casowron.scalars import (
    as_rational,
    binomial_poly,
    binomial_value,
    ensure_finite,
    falling_factorial,
    is_exact,
    superfactorial,
)


def test_superfactorial_small_values():
    assert [superfactorial(n) for n in range(6)] == [1, 1, 2, 12, 288, 34560]


def test_superfactorial_recurrence():
    for n in range(1, 12):
        assert superfactorial(n) == superfactorial(n - 1) * math.factorial(n)


def test_superfactorial_rejects_negative():
    with pytest.raises(ArgumentError):
        superfactorial(-1)


def test_is_exact():
    assert is_exact(3)
    assert is_exact(Fraction(1, 3))
    assert not is_exact(True)
    assert not is_exact(0.5)
    assert not is_exact(1 + 0j)


def test_as_rational():
    assert as_rational("3/7") == Fraction(3, 7)
    assert as_rational(4) == Fraction(4)
    with pytest.raises(ArgumentError):
        as_rational(0.5)
    with pytest.raises(ArgumentError):
        as_rational("not-a-number")


def test_ensure_finite():
    assert ensure_finite(1.5) == 1.5 + 0j
    with pytest.raises(NumericError):
        ensure_finite(float("nan"))
    with pytest.raises(NumericError):
        ensure_finite(complex(0, float("inf")))


def test_falling_factorial_exact_and_float():
    assert falling_factorial(Fraction(7, 2), 3) == Fraction(7, 2) * Fraction(5, 2) * Fraction(3, 2)
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(2.0, 2) == pytest.approx(2.0)
    with pytest.raises(ArgumentError):
        falling_factorial(1, -1)


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=-30, max_value=30),
       st.integers(min_value=1, max_value=9))
def test_binomial_poly_matches_comb_at_integers(k, num, den):
    x = Fraction(num, den)
    assert binomial_poly(k)(x) == binomial_value(x, k)
    if den == 1 and num >= 0:
        assert binomial_value(num, k) == math.comb(num, k)


def test_binomial_value_pascal_rule():
    for k in range(1, 6):
        x = Fraction(9, 4)
        assert binomial_value(x, k - 1) + binomial_value(x, k) == binomial_value(x + 1, k)
