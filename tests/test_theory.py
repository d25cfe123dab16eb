import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from casowron.errors import ArgumentError, UnsupportedOperationError
from casowron.functions import (
    ExpPoly,
    FunctionFamily,
    LinearCombo,
    Monomial,
    PolyFunction,
    exp_trig_family,
    gen_exp_poly_family,
    natural_log,
    power_family,
    transformed_family,
)
from casowron.polynomial import Polynomial
from casowron.scalars import EXACT, superfactorial
from casowron.theory import (
    DEFAULT_SEED,
    check_invariance,
    classify_subset,
    proportionality_constant,
    verify_basis_equality,
    verify_binom_matrix_lemmas,
    verify_power_equality,
)

from _oracles import cofactor_det


# ---------------------------------------------------------------------------
# Equality theorems
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(0, 7))
def test_power_equality_orders(n):
    check = verify_power_equality(n, trials=4, seed=11)
    assert check.ok and bool(check)
    assert check.value == superfactorial(n)
    for _, w, c in check.details:
        assert w == c == check.value


def test_power_equality_rejects_negative_order():
    with pytest.raises(ArgumentError):
        verify_power_equality(-1)


def test_basis_equality_identity_matrix():
    check = verify_basis_equality([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert check.ok
    assert check.value == superfactorial(2)


def test_basis_equality_diagonal():
    check = verify_basis_equality([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    assert check.ok
    assert check.value == 30 * superfactorial(2)


@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=30)
def test_basis_equality_random_matrices(rows):
    frac_rows = [[Fraction(v) for v in row] for row in rows]
    det_a = cofactor_det(frac_rows)
    if det_a == 0:
        with pytest.raises(ArgumentError):
            verify_basis_equality(rows)
    else:
        check = verify_basis_equality(rows, trials=2, seed=5)
        assert check.ok
        assert check.value == det_a * superfactorial(2)


def test_basis_equality_rejects_wrong_order_hint():
    with pytest.raises(ArgumentError):
        verify_basis_equality([[1, 0], [0, 1]], n=3)


def test_basis_equality_rejects_ragged_matrix():
    with pytest.raises(ArgumentError):
        verify_basis_equality([[1, 0], [0]])


# ---------------------------------------------------------------------------
# Subset classification
# ---------------------------------------------------------------------------

def test_classify_full_span_pair():
    verdict = classify_subset([Polynomial([1]), Polynomial([0, 1])])
    assert verdict.case_tag == "equal_nonzero"
    assert verdict.span_is_full_pm
    assert verdict.w_value == verdict.c_value
    assert verdict.rank == 2


def test_classify_shear_basis_still_full_span():
    # {1 + x, x} spans the same space as {1, x}
    verdict = classify_subset([Polynomial([1, 1]), Polynomial([0, 1])])
    assert verdict.case_tag == "equal_nonzero"


def test_classify_x_and_x_squared_unequal():
    verdict = classify_subset([Polynomial([0, 1]), Polynomial([0, 0, 1])])
    assert verdict.case_tag == "unequal"
    assert verdict.w_value == Polynomial([0, 0, 1])       # x^2
    assert verdict.c_value == Polynomial([0, 1, 1])       # x^2 + x
    assert not verdict.span_is_full_pm


def test_classify_dependent_set():
    verdict = classify_subset([Polynomial([0, 1]), Polynomial([0, 2])])
    assert verdict.case_tag == "both_zero_dependent"
    assert verdict.w_value.is_zero and verdict.c_value.is_zero
    assert verdict.rank == 1


def test_classify_singleton_high_degree_not_covered():
    # W and C of one function are both that function; equal but not full span
    verdict = classify_subset([Polynomial([0, 0, 1])])
    assert verdict.case_tag == "not_covered"
    assert verdict.w_value == verdict.c_value == Polynomial([0, 0, 1])


def test_classify_accepts_coefficient_lists():
    verdict = classify_subset([[1], [0, 1], [0, 0, 1]])
    assert verdict.case_tag == "equal_nonzero"
    assert verdict.w_value == Polynomial([superfactorial(2)])


def test_classify_empty_rejected():
    with pytest.raises(ArgumentError):
        classify_subset([])


def test_classify_samples_record_integer_grid():
    verdict = classify_subset([Polynomial([0, 1]), Polynomial([0, 0, 1])])
    xs = [s[0] for s in verdict.samples]
    assert xs == [Fraction(t) for t in range(len(xs))]
    for x, w, c in verdict.samples:
        assert verdict.w_value(x) == w
        assert verdict.c_value(x) == c


def test_classify_all_two_member_power_subsets():
    tags = {}
    for i in range(4):
        for j in range(i + 1, 4):
            verdict = classify_subset(
                [Polynomial.monomial(i), Polynomial.monomial(j)]
            )
            tags[(i, j)] = verdict.case_tag
    assert tags[(0, 1)] == "equal_nonzero"
    assert tags[(1, 2)] == "unequal"
    assert tags[(0, 2)] == "unequal"
    assert tags[(2, 3)] == "unequal"


# ---------------------------------------------------------------------------
# Invariance / kappa
# ---------------------------------------------------------------------------

def test_invariance_of_power_family():
    report = check_invariance(power_family(3), seed=9)
    assert report.d_invariant and report.shift_invariant
    assert report.kappa_is_constant
    assert report.kappa == 1


def test_invariance_of_pure_exponentials():
    fam = gen_exp_poly_family([(2, 0), (3, 0)])
    report = check_invariance(fam, seed=9)
    assert report.d_invariant and report.shift_invariant
    assert report.kappa_is_constant
    want = 1.0 / (math.e**3 - math.e**2)
    assert abs(report.kappa - want) <= 1e-12 * want


def test_invariance_fails_for_gapped_powers():
    fam = FunctionFamily((Monomial(0), Monomial(2)), EXACT)
    report = check_invariance(fam, seed=9)
    assert not report.d_invariant
    assert not report.shift_invariant
    assert report.kappa is None and not report.kappa_is_constant


def test_shift_invariant_but_not_d_invariant():
    # {2^x} alone: shifting scales it, but D gives ln2 * 2^x which IS in span.
    # Use {x * 2^x} instead: D gives 2^x(1 + x ln 2), outside the span.
    fam = FunctionFamily((ExpPoly(1, math.log(2.0)),))
    report = check_invariance(fam, seed=9)
    assert report.shift_invariant is False  # (x+1)2^{x+1} needs a 2^x term too
    assert report.d_invariant is False


def test_invariance_derives_each_member_once(monkeypatch):
    # one derivative per member for the closure test, whatever the number
    # of sample points, plus the size * (size - 1) of the sweep's tower
    calls = []
    original = LinearCombo.derivative

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(LinearCombo, "derivative", counted)
    fam = exp_trig_family(2, 0.3, 1.1)
    report = check_invariance(fam, seed=9)
    assert report.d_invariant and report.sweep is not None
    assert len(calls) == fam.size + fam.size * (fam.size - 1)


def test_invariance_rejects_tabulated_members():
    fam = FunctionFamily((Monomial(0), natural_log()))
    with pytest.raises(UnsupportedOperationError):
        check_invariance(fam)


def test_kappa_survives_change_of_basis():
    fam = gen_exp_poly_family([(2, 0), (3, 0)])
    base = check_invariance(fam, seed=9)
    rng = random.Random(13)
    for _ in range(3):
        while True:
            rows = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
            if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] != 0:
                break
        moved = check_invariance(transformed_family(fam, rows), seed=9)
        assert moved.kappa_is_constant
        assert abs(moved.kappa - base.kappa) <= 1e-9 * abs(base.kappa)


def test_kappa_basis_independence_exact():
    base = check_invariance(power_family(2), seed=3)
    shear = transformed_family(power_family(2), [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    moved = check_invariance(shear, seed=3)
    assert base.kappa == moved.kappa == 1


# ---------------------------------------------------------------------------
# Proportionality constants
# ---------------------------------------------------------------------------

def test_proportionality_binom_exp():
    report = proportionality_constant("binom-exp", n=3, a=2)
    assert report.predicted == 2.0**-6
    assert report.agreement is True
    assert abs(report.measured - report.predicted) <= 1e-9 * abs(report.predicted)
    assert not report.warnings


def test_proportionality_binom_exp_fractional_base():
    report = proportionality_constant("binom-exp", n=2, a=0.5)
    assert report.predicted == 0.5**-3
    assert report.agreement is True


def test_proportionality_exp_trig_order_zero():
    report = proportionality_constant("exp-trig", n=0, m=0, omega=1)
    want = 1.0 / math.sin(1.0)
    assert abs(report.measured - want) <= 1e-9 * want
    assert report.agreement is True
    assert any("prefactor" in a for a in report.annotations)


def test_proportionality_exp_trig_higher_order_measures_only():
    report = proportionality_constant("exp-trig", n=1, m=0.3, omega=1.1)
    assert report.predicted is None and report.agreement is None
    assert report.sweep.constant_verdict


def test_proportionality_hyperbolic_states_disputed_value():
    report = proportionality_constant("hyperbolic", n=0, m=1)
    want = 1.0 / math.sinh(1.0)
    assert abs(report.measured - want) <= 1e-9 * want
    assert report.agreement is True
    assert report.stated_value == pytest.approx(math.exp(-1) / math.sinh(1))
    assert any("disagrees with the stated value" in w for w in report.warnings)


def test_proportionality_hyperbolic_rejects_degenerate_m():
    with pytest.raises(ArgumentError):
        proportionality_constant("hyperbolic", n=0, m=0)


def test_proportionality_gen_exp_poly_pure_blocks():
    report = proportionality_constant("gen-exp-poly", terms=[(2, 0), (3, 0)])
    want = 1.0 / (math.e**3 - math.e**2)
    assert abs(report.measured - want) <= 1e-9 * want
    assert report.agreement is True


def test_proportionality_gen_exp_poly_with_polynomials():
    report = proportionality_constant("gen-exp-poly", terms=[(1, 1), (2, 0)])
    assert report.predicted is None
    assert report.sweep.constant_verdict
    assert any("prefactor" in a for a in report.annotations)


def test_proportionality_argument_validation():
    with pytest.raises(ArgumentError):
        proportionality_constant("nonsense")
    with pytest.raises(ArgumentError):
        proportionality_constant("binom-exp", n=2)  # missing a
    with pytest.raises(ArgumentError):
        proportionality_constant("exp-trig", n=0, m=0)  # missing omega
    with pytest.raises(ArgumentError):
        proportionality_constant("gen-exp-poly")


# ---------------------------------------------------------------------------
# Binomial-exponential lemmas
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(0, 5))
def test_binom_matrix_lemmas(n):
    check = verify_binom_matrix_lemmas(n, math.e, trials=3, seed=7)
    assert check.ok
    assert check.value == 1


def test_binom_matrix_lemmas_validation():
    with pytest.raises(ArgumentError):
        verify_binom_matrix_lemmas(-1, 2)
    with pytest.raises(ArgumentError):
        verify_binom_matrix_lemmas(2, -3)
    with pytest.raises(ArgumentError):
        verify_binom_matrix_lemmas(2, complex(1, 1))


def test_default_seed_is_stable():
    a = verify_power_equality(3)
    b = verify_power_equality(3)
    assert a.details == b.details
    assert DEFAULT_SEED == 20240601
