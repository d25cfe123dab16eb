import math
import random
import warnings
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, seed, settings, strategies as st

from casowron.determinants import det_float
from casowron.errors import ArgumentError, InconsistentInputError, NumericalWarning
from casowron.functions import ExpPoly, FunctionFamily, Monomial, power_family
from casowron.scalars import EXACT
from casowron.solver import (
    FundamentalCheck,
    PeriodicProfile,
    PARITY_TOL,
    SolverProblem,
    is_fundamental_set,
    recover_profiles,
    synthesize,
)

from _oracles import build_M, predicted_det


# ---------------------------------------------------------------------------
# Profiles and problems
# ---------------------------------------------------------------------------

def test_profile_basics():
    p = PeriodicProfile((1, 2.5), "periodic")
    assert p.q == 2
    assert p.samples == (1.0, 2.5)
    assert p.continuation_sign() == 1.0
    assert p.value(5, 1) == 2.5


def test_profile_antiperiodic_alternates():
    p = PeriodicProfile((3.0,), "antiperiodic")
    assert [p.value(k, 0) for k in range(4)] == [3.0, -3.0, 3.0, -3.0]


def test_profile_validation():
    with pytest.raises(ArgumentError):
        PeriodicProfile((1.0,), "sideways")
    with pytest.raises(ArgumentError):
        PeriodicProfile((), "periodic")


def test_problem_validation():
    with pytest.raises(ArgumentError):
        SolverProblem(lam=0, m=1)
    with pytest.raises(ArgumentError):
        SolverProblem(lam=math.inf, m=1)
    with pytest.raises(ArgumentError):
        SolverProblem(lam=2, m=0)
    with pytest.raises(ArgumentError):
        SolverProblem(lam=2, m=1, q=0)
    with pytest.raises(ArgumentError):
        SolverProblem(lam=2, m=3, horizon=2)


def test_problem_parity_and_grid():
    pos = SolverProblem(lam=2, m=2)
    neg = SolverProblem(lam=-1, m=1)
    assert pos.parity == "periodic"
    assert neg.parity == "antiperiodic"
    prob = SolverProblem(lam=2, m=2, x0=0.5, q=4, horizon=3)
    grid = prob.grid()
    assert len(grid) == 12
    assert grid[0] == 0.5
    assert grid[1] == pytest.approx(0.75)
    assert grid[-1] == pytest.approx(0.5 + 11 / 4)


def test_problem_default_horizon_is_m():
    prob = SolverProblem(lam=3, m=4)
    assert prob.horizon == 4
    assert len(prob.grid()) == 4


# ---------------------------------------------------------------------------
# Moment matrix and its determinant
# ---------------------------------------------------------------------------

def test_moment_matrix_order_two_unit_rate():
    rows = build_M(1.0, 2, 0.0)
    assert rows == [[1.0, 0.0], [1.0, 1.0]]
    assert det_float(build_M(1.0, 2, 0.0)) == pytest.approx(1.0)


def test_moment_matrix_order_one():
    rows = build_M(3.0, 1, 2.0)
    assert rows == [[9.0]]


def test_moment_matrix_negative_rate_signs():
    rows = build_M(-2.0, 2, 0.0)
    assert rows == [[1.0, 0.0], [-2.0, -2.0]]
    assert det_float(build_M(-2.0, 2, 0.0)) == pytest.approx(-2.0)
    assert predicted_det(-2.0, 2, 0.0) == -2.0


@pytest.mark.parametrize("lam", [0.5, -0.5, 2.0, -2.0, 3.0])
@pytest.mark.parametrize("m", range(1, 7))
def test_moment_determinant_matches_closed_form(lam, m):
    for x in (-2.0, -0.75, 0.0, 1.3, 2.0):
        got = det_float(build_M(lam, m, x))
        want = predicted_det(lam, m, x)
        assert abs(got - want) <= 1e-9 * abs(want)


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------

def test_recover_plain_exponential():
    prob = SolverProblem(lam=2, m=1, horizon=3)
    samples = [2.0**x for x in prob.grid()]
    (profile,) = recover_profiles(prob, samples)
    assert profile.parity == "periodic"
    assert profile.samples == (1.0,)


def test_recover_antiperiodic_cosine():
    # cos(pi x) solves (E + 1) y = 0; its profile is cos over one period
    prob = SolverProblem(lam=-1, m=1, q=4, horizon=3)
    samples = [math.cos(math.pi * x) for x in prob.grid()]
    (profile,) = recover_profiles(prob, samples)
    assert profile.parity == "antiperiodic"
    for t in range(4):
        assert profile.samples[t] == pytest.approx(
            math.cos(math.pi * t / 4), abs=1e-12
        )


def test_recover_polynomial_times_power():
    prob = SolverProblem(lam=2, m=2, horizon=5)
    samples = [(3.0 + x) * 2.0**x for x in prob.grid()]
    first, second = recover_profiles(prob, samples)
    assert first.samples == pytest.approx((3.0,))
    assert second.samples == pytest.approx((1.0,))


def test_recover_rejects_wrong_dynamics():
    prob = SolverProblem(lam=2, m=1, horizon=2)
    with pytest.raises(InconsistentInputError):
        recover_profiles(prob, [3.0**x for x in prob.grid()])


def test_recover_sample_count_validation():
    prob = SolverProblem(lam=2, m=2, q=3, horizon=4)
    with pytest.raises(ArgumentError):
        recover_profiles(prob, [1.0] * 7)  # not a multiple of q
    with pytest.raises(ArgumentError):
        recover_profiles(prob, [1.0] * 3)  # only one unit step


def test_round_trip_random_profiles():
    rng = random.Random(41)
    for lam in (2.0, -2.0, 0.5, -0.5, 3.0):
        prob = SolverProblem(lam=lam, m=3, q=2, horizon=8)
        made = [
            PeriodicProfile(
                tuple(rng.uniform(-2, 2) for _ in range(2)), prob.parity
            )
            for _ in range(3)
        ]
        sol = synthesize(prob, made)
        scale = max(1.0, max(abs(v) for v in sol.values))
        assert sol.max_residual <= 1e-9 * scale
        got = recover_profiles(prob, sol.values)
        for want, have in zip(made, got):
            assert have.parity == want.parity
            for a, b in zip(want.samples, have.samples):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


@given(
    lam=st.floats(0.5, 2.0).flatmap(lambda a: st.sampled_from((a, -a))),
    m=st.integers(1, 6),
    q=st.integers(1, 8),
    x0=st.floats(-3.0, 8.0),
    extra=st.integers(0, 6),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
@seed(613)
def test_synthesize_then_recover_round_trip(lam, m, q, x0, extra, rng):
    prob = SolverProblem(lam=lam, m=m, q=q, x0=x0, horizon=m + min(extra, m))
    made = [
        PeriodicProfile(tuple(rng.uniform(-2, 2) for _ in range(q)), prob.parity)
        for _ in range(m)
    ]
    sol = synthesize(prob, made)
    assert sol.max_residual <= 1e-12  # relative, whatever |lam|^x does
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = recover_profiles(prob, sol.values)
    # Without a warning the change of basis kept rounding below the tolerance.
    if not caught:
        top = max(1.0, max(abs(a) for p in made for a in p.samples))
        for want, have in zip(made, got):
            assert have.parity == want.parity
            for a, b in zip(want.samples, have.samples):
                assert abs(a - b) <= PARITY_TOL * top


def _cosine_profile_samples(m: int, x0: int, lam: float = 1.1, q: int = 4):
    """Samples of y = sum_i (cos(2 pi x + i) + i/2) x^i lam^x at horizon 2m,
    correctly rounded from 50-digit values, with the profiles they carry."""
    with mpmath.workdps(50):
        xs = [mpmath.mpf(x0) + mpmath.mpf(n) / q for n in range(2 * m * q)]

        def mu(i, x):
            return mpmath.cos(2 * mpmath.pi * x + i) + mpmath.mpf(i) / 2

        ys = [float(sum(mu(i, x) * x**i for i in range(m)) * mpmath.mpf(lam) ** x)
              for x in xs]
        want = [[float(mu(i, xs[t])) for t in range(q)] for i in range(m)]
    return SolverProblem(lam=lam, m=m, q=q, x0=x0, horizon=2 * m), ys, want


def test_recover_order_seven_at_the_origin():
    prob, ys, want = _cosine_profile_samples(7, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NumericalWarning)
        got = recover_profiles(prob, ys)
    for ref, have in zip(want, got):
        assert have.samples == pytest.approx(ref, rel=0, abs=1e-9)


@pytest.mark.parametrize("m, x0", [(5, 30), (3, 300)])
def test_recover_far_from_the_origin_accepts_and_warns(m, x0):
    # The samples solve the equation, but the change of basis to powers of
    # x ~ x0 amplifies their rounding past the tolerance; that is warned.
    prob, ys, _ = _cosine_profile_samples(m, x0)
    with pytest.warns(NumericalWarning, match="poorly conditioned"):
        got = recover_profiles(prob, ys)
    assert len(got) == m


def test_recover_rejects_any_perturbed_sample_past_the_first_steps():
    prob = SolverProblem(lam=-1.5, m=3, q=2, x0=0.25, horizon=6)
    made = [PeriodicProfile(v, prob.parity) for v in ((1.0, 1.5), (0.5, 1.0), (2.0, 1.0))]
    values = list(synthesize(prob, made).values)
    for n in range(prob.m * prob.q, len(values)):
        bad = values[:n] + [values[n] * (1 + 1e-4)] + values[n + 1:]
        with pytest.raises(InconsistentInputError, match="do not solve the equation"):
            recover_profiles(prob, bad)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def test_synthesize_exact_residual_for_integer_data():
    prob = SolverProblem(lam=2, m=2, horizon=6)
    sol = synthesize(
        prob,
        [PeriodicProfile((3.0,), "periodic"), PeriodicProfile((1.0,), "periodic")],
    )
    assert sol.max_residual == 0.0
    assert sol.grid == tuple(prob.grid())
    assert sol.values[0] == 3.0  # (3 + 0) * 2^0
    assert sol.values[1] == 8.0  # (3 + 1) * 2^1


def test_synthesize_validates_profiles():
    prob = SolverProblem(lam=2, m=2, q=2, horizon=4)
    good = PeriodicProfile((1.0, 2.0), "periodic")
    with pytest.raises(ArgumentError):
        synthesize(prob, [good])  # wrong count
    with pytest.raises(ArgumentError):
        synthesize(prob, [good, PeriodicProfile((1.0,), "periodic")])  # q mismatch
    with pytest.raises(ArgumentError):
        synthesize(prob, [good, PeriodicProfile((1.0, 2.0), "antiperiodic")])


# ---------------------------------------------------------------------------
# Fundamental-set check
# ---------------------------------------------------------------------------

def test_power_family_is_fundamental():
    check = is_fundamental_set(power_family(2), [Fraction(t, 2) for t in range(5)])
    assert check.ok and bool(check)
    assert check.min_abs == 2.0


def test_dependent_family_is_not_fundamental():
    fam = FunctionFamily((Monomial(1), Monomial(1)), EXACT)
    check = is_fundamental_set(fam, [Fraction(1), Fraction(2)])
    assert not check.ok and not bool(check)
    assert check.min_abs == 0.0


def test_exponential_pair_is_fundamental():
    ln2 = math.log(2.0)
    fam = FunctionFamily((ExpPoly(0, ln2), ExpPoly(1, ln2)))
    check = is_fundamental_set(fam, [0.0, 0.5, 1.0, 2.0])
    assert check.ok
    # Casoratian is 2^(2x+1); smallest at the left end of the grid
    assert check.witness_x == 0.0
    assert check.min_abs == pytest.approx(2.0)


def test_fundamental_check_needs_grid():
    with pytest.raises(ArgumentError):
        is_fundamental_set(power_family(1), [])


def test_fundamental_witness_is_smallest_point():
    # C of {x, x^2} is x^2 + x: smallest magnitude on this grid at x = 1
    fam = FunctionFamily((Monomial(1), Monomial(2)), EXACT)
    check = is_fundamental_set(fam, [Fraction(1), Fraction(2), Fraction(3)])
    assert check.ok
    assert check.witness_x == Fraction(1)
    assert check.min_abs == 2.0
