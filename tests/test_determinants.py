import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from casowron.determinants import (
    ScalarMatrix,
    det_exact,
    det_float,
    lstsq_float,
    rank_exact,
    solve_exact,
    solve_float,
    vandermonde_product,
)
from casowron.errors import ArgumentError, NumericalWarning, NumericError
from casowron.scalars import EXACT, FLOAT

from _oracles import cofactor_det, rank_by_minors

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=8)


def square(entries_strategy, n):
    return st.lists(st.lists(entries_strategy, min_size=n, max_size=n),
                    min_size=n, max_size=n)


def test_matrix_validation():
    with pytest.raises(ArgumentError):
        ScalarMatrix.from_rows([], EXACT)
    with pytest.raises(ArgumentError):
        ScalarMatrix.from_rows([[1, 2], [3]], EXACT)
    with pytest.raises(ArgumentError):
        ScalarMatrix.from_rows([[0.5]], EXACT)  # float entry in exact field


def test_field_autodetection():
    assert ScalarMatrix.from_rows([[1, 2], [3, 4]]).field == EXACT
    assert ScalarMatrix.from_rows([[1.0, 2], [3, 4]]).field == FLOAT


@given(square(rationals, 3))
@settings(max_examples=60)
def test_det_exact_matches_cofactor_oracle(rows):
    assert det_exact(rows) == cofactor_det(rows)


@given(square(rationals, 4))
@settings(max_examples=30)
def test_det_exact_order_four(rows):
    assert det_exact(rows) == cofactor_det(rows)


@given(square(rationals, 3), square(rationals, 3))
@settings(max_examples=30)
def test_det_exact_multiplicative(a, b):
    product = [
        [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    assert det_exact(product) == det_exact(a) * det_exact(b)


@given(square(rationals, 3))
def test_det_exact_row_swap_flips_sign(rows):
    swapped = [rows[1], rows[0], rows[2]]
    assert det_exact(swapped) == -det_exact(rows)


@given(square(rationals, 3), rationals)
def test_det_exact_row_operation_invariance(rows, c):
    added = [rows[0], [b + c * a for a, b in zip(rows[0], rows[1])], rows[2]]
    assert det_exact(added) == det_exact(rows)


def test_det_exact_repeated_row_is_zero():
    rows = [[1, 2, 3], [1, 2, 3], [4, 5, 6]]
    assert det_exact(rows) == 0


def test_det_float_matches_oracle():
    rng = random.Random(11)
    for _ in range(20):
        rows = [[rng.uniform(-3, 3) for _ in range(4)] for _ in range(4)]
        want = cofactor_det(rows)
        got = det_float(ScalarMatrix.from_rows(rows, FLOAT))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-12)


def test_det_float_complex_entries():
    rows = [[1 + 1j, 2], [3, 4 - 2j]]
    want = (1 + 1j) * (4 - 2j) - 6
    assert det_float(ScalarMatrix.from_rows(rows, FLOAT)) == pytest.approx(want)


def test_det_float_singular_is_zero():
    rows = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.warns(NumericalWarning):
        value = det_float(ScalarMatrix.from_rows(rows, FLOAT))
    assert abs(value) < 1e-12


def test_det_float_rejects_nonfinite():
    with pytest.raises(NumericError):
        ScalarMatrix.from_rows([[float("nan")]], FLOAT)


def test_vandermonde_product_matches_determinant():
    nodes = [Fraction(1, 2), Fraction(3), Fraction(-2), Fraction(7, 3)]
    rows = [[x**j for j in range(len(nodes))] for x in nodes]
    assert det_exact(rows) == vandermonde_product(nodes)


def test_vandermonde_product_empty_and_single():
    assert vandermonde_product([Fraction(5)]) == 1


def test_solve_exact_unique():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    b = [Fraction(5), Fraction(10)]
    x = solve_exact(a, b)
    assert x == [Fraction(1), Fraction(3)]


def test_solve_exact_inconsistent_returns_none():
    a = [[1, 1], [2, 2]]
    assert solve_exact(a, [1, 3]) is None


def test_solve_exact_underdetermined_picks_a_solution():
    a = [[1, 1], [2, 2]]
    x = solve_exact(a, [3, 6])
    assert x is not None
    assert x[0] + x[1] == 3


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=2, max_size=4))
@settings(max_examples=40)
def test_rank_exact_matches_minor_oracle(rows):
    assert rank_exact(rows) == rank_by_minors(rows)


@st.composite
def linear_systems(draw):
    """(A, b) with zero rows, dependent rows, and consistent or arbitrary b."""
    nrows = draw(st.integers(1, 5))
    ncols = nrows if draw(st.booleans()) else draw(st.integers(1, 5))
    # frequent zero entries force row swaps and pivot-free columns
    entry = st.one_of(st.just(Fraction(0)), rationals)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    a = [draw(row)]
    for _ in range(nrows - 1):
        kind = draw(st.sampled_from(("free", "zero", "dependent")))
        if kind == "free":
            a.append(draw(row))
        elif kind == "zero":
            a.append([Fraction(0)] * ncols)
        else:
            i, j = draw(st.integers(0, len(a) - 1)), draw(st.integers(0, len(a) - 1))
            c, d = draw(rationals), draw(rationals)
            a.append([c * u + d * v for u, v in zip(a[i], a[j])])
    if draw(st.booleans()):
        x = draw(row)
        b = [sum(u * v for u, v in zip(r, x)) for r in a]
    else:
        b = draw(st.lists(rationals, min_size=nrows, max_size=nrows))
    return a, b


@given(linear_systems())
@settings(max_examples=200, deadline=None)
def test_exact_kernel_matches_minor_oracles(system):
    a, b = system
    rank = rank_by_minors(a)
    assert rank_exact(a) == rank
    x = solve_exact(a, b)
    if x is None:
        assert rank_by_minors([r + [v] for r, v in zip(a, b)]) > rank
    else:
        assert [sum(u * v for u, v in zip(r, x)) for r in a] == b
        for j in range(len(x)):
            left = rank_by_minors([r[:j] for r in a])
            if rank_by_minors([r[:j + 1] for r in a]) == left:
                assert x[j] == 0
    if len(a) == len(a[0]):
        assert det_exact(a) == cofactor_det(a)


def test_solve_float_and_singular():
    x = solve_float([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
    assert x[0] == pytest.approx(1.0)
    assert x[1] == pytest.approx(2.0)
    with pytest.raises(NumericError):
        solve_float([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])


def test_lstsq_float_exact_system():
    a = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    b = [1.0, 2.0, 3.0]
    coeffs, residual = lstsq_float(a, b)
    assert coeffs[0] == pytest.approx(1.0)
    assert coeffs[1] == pytest.approx(2.0)
    assert residual < 1e-12


def test_lstsq_float_overdetermined_residual():
    # no exact solution: residual must report the gap
    a = [[1.0], [1.0]]
    b = [0.0, 1.0]
    coeffs, residual = lstsq_float(a, b)
    assert coeffs[0] == pytest.approx(0.5)
    assert residual == pytest.approx(0.5)


def test_lstsq_float_dependent_column():
    a = [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]
    coeffs, residual = lstsq_float(a, [2.0, 2.0, 2.0])
    assert residual < 1e-12
    total = coeffs[0] + coeffs[1]
    assert total == pytest.approx(2.0)
