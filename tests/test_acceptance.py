"""Release-gate checks: every contract item runs here, at its stated tolerance.

Each test prints one ``ACCEPTANCE <name>: PASS|FAIL`` line (visible even
under capture) so a reviewer can read the gate status straight off the
pytest output.  Oracles are independent of the library paths they judge:
determinants come from cofactor expansion, ranks from minors, derivatives
from closed forms.
"""
import contextlib
import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from casowron.casowronsk import (
    casoratian,
    casoratian_delta_form,
    casoratian_matrix,
    fit_convergence_order,
    difference_quotient,
    ratio_sweep,
    scaled_casoratian,
    sign_agreement_step,
    wronskian,
)
from casowron.determinants import det_exact, vandermonde_product
from casowron.functions import (
    ExpTrig,
    FunctionFamily,
    Monomial,
    exp_trig_family,
    gen_exp_poly_family,
    hyperbolic_family,
    natural_log,
    power_family,
    transformed_family,
)
from casowron.polynomial import Polynomial
from casowron.scalars import EXACT, binomial_value, superfactorial
from casowron.solver import (
    PeriodicProfile,
    SolverProblem,
    recover_profiles,
    synthesize,
)
from casowron.theory import (
    classify_subset,
    proportionality_constant,
    verify_binom_matrix_lemmas,
)

from _oracles import (
    build_M,
    cofactor_det,
    poly_casoratian,
    poly_wronskian,
    predicted_det,
    rank_by_minors,
)

from casowron.determinants import det_float


@pytest.fixture
def criterion(capsys):
    @contextlib.contextmanager
    def judge(name):
        outcome = {"ok": False}
        try:
            yield outcome
            outcome["ok"] = True
        finally:
            with capsys.disabled():
                verdict = "PASS" if outcome["ok"] else "FAIL"
                print(f"ACCEPTANCE {name}: {verdict}")

    return judge


def rand_x(rng, lo=-40, hi=40, max_den=12) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def cos_sin_family() -> FunctionFamily:
    return FunctionFamily((ExpTrig(0, 0.0, 1.0, "cos"), ExpTrig(0, 0.0, 1.0, "sin")))


def test_01_power_basis_equality(criterion):
    with criterion("power-basis-equality"):
        started = time.perf_counter()
        rng = random.Random(101)
        for n in range(13):
            fam = power_family(n)
            expected = superfactorial(n)
            for _ in range(20):
                x = rand_x(rng)
                assert wronskian(fam, x) == expected
                assert casoratian(fam, x) == expected
        assert time.perf_counter() - started < 5.0


def test_02_casoratian_is_vandermonde(criterion):
    with criterion("casoratian-vandermonde"):
        rng = random.Random(102)
        for n in range(11):
            fam = power_family(n)
            for _ in range(3):
                x = rand_x(rng)
                det = det_exact(casoratian_matrix(fam, x))
                nodes = [x + j for j in range(n + 1)]
                assert det == vandermonde_product(nodes)
                assert det == superfactorial(n)


def test_03_basis_change_theorem(criterion):
    with criterion("basis-change-theorem"):
        rng = random.Random(103)
        checked = 0
        while checked < 50:
            n = checked % 6  # basis orders 0..5
            size = n + 1
            rows = [
                [Fraction(rng.randint(-6, 6)) for _ in range(size)]
                for _ in range(size)
            ]
            det_a = cofactor_det(rows)
            if det_a == 0:
                continue
            fam = transformed_family(power_family(n), rows)
            expected = det_a * superfactorial(n)
            x = rand_x(rng)
            assert wronskian(fam, x) == expected
            assert casoratian(fam, x) == expected
            checked += 1


def oracle_classification(polys):
    """Brute-force verdict: symbolic W, C, and rank, assembled independently."""
    size = len(polys)
    w = poly_wronskian(polys)
    c = poly_casoratian(polys)
    width = max(max(p.degree for p in polys) + 1, 1)
    rank = rank_by_minors([[p.coefficient(j) for j in range(width)] for p in polys])
    if rank < size:
        tag = "both_zero_dependent"
    elif max(p.degree for p in polys) <= size - 1:
        tag = "equal_nonzero"
    elif w != c:
        tag = "unequal"
    else:
        tag = "not_covered"
    return tag, w, c


def test_04_subset_classification(criterion):
    with criterion("subset-classification"):
        monomials = [Polynomial.monomial(k) for k in range(5)]
        seen = 0
        for size in range(1, 6):
            for picks in combinations(range(5), size):
                polys = [monomials[k] for k in picks]
                verdict = classify_subset(polys)
                tag, w, c = oracle_classification(polys)
                assert verdict.case_tag == tag, (picks, verdict.case_tag, tag)
                assert verdict.w_value == w
                assert verdict.c_value == c
                seen += 1
        assert seen == 31
        special = classify_subset([Polynomial.monomial(1), Polynomial.monomial(2)])
        assert special.case_tag == "unequal"
        assert special.w_value == Polynomial([0, 0, 1])  # x^2
        assert special.c_value == Polynomial([0, 1, 1])  # x^2 + x


def test_05_delta_form_equivalence(criterion):
    with criterion("delta-form-equivalence"):
        rng = random.Random(105)
        # exact polynomial families, orders up to 8
        for n in range(9):
            fam = power_family(n)
            for _ in range(2):
                x = rand_x(rng, lo=-12, hi=12, max_den=6)
                assert casoratian_delta_form(fam, x).det() == casoratian(fam, x)
        shear = transformed_family(
            power_family(3),
            [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
        )
        x = Fraction(5, 3)
        assert casoratian_delta_form(shear, x).det() == casoratian(shear, x)
        # float families up to size 6
        for fam in (
            cos_sin_family(),                   # size 2
            exp_trig_family(1, 0.3, 1.1),       # size 4
            hyperbolic_family(1, 0.8),          # size 4
            exp_trig_family(2, 0.2, 0.9),       # size 6
            gen_exp_poly_family([(0.5, 2), (-1.0, 2)]),  # size 6
        ):
            for x in (0.0, 0.6, -1.1):
                delta = casoratian_delta_form(fam, x).det()
                shift = casoratian(fam, x)
                assert abs(delta - shift) <= 1e-10 * abs(shift)


def test_06_derivative_limit(criterion):
    with criterion("derivative-limit"):
        sin = ExpTrig(0, 0.0, 1.0, "sin")
        x = 0.3
        closed = [
            math.cos(x),        # first derivative
            -math.sin(x),
            -math.cos(x),
            math.sin(x),
        ]
        hs = [2.0**-k for k in range(2, 13)]
        for n in range(1, 5):
            errors = [
                abs(difference_quotient(sin, x, h, n) - closed[n - 1]) for h in hs
            ]
            assert fit_convergence_order(hs, errors) >= 0.9, n
        # exact path: the n-th quotient of x^n is n! for every rational h
        for n in range(7):
            for h in (Fraction(1, 3), Fraction(-2, 7), Fraction(5)):
                got = difference_quotient(Monomial(n), Fraction(1, 2), h, n)
                assert got == math.factorial(n)


def test_07_scaled_casoratian_limit(criterion):
    with criterion("scaled-casoratian-limit"):
        powers = power_family(2)
        for h in (
            Fraction(1), Fraction(-1), Fraction(1, 7), Fraction(-3, 2),
            Fraction(1, 1024), Fraction(50),
        ):
            assert scaled_casoratian(powers, Fraction(2, 5), h) == 2
        pair = cos_sin_family()
        w = wronskian(pair, 0.0)
        assert abs(w - 1.0) <= 1e-12
        assert abs(scaled_casoratian(pair, 0.0, 2.0**-10) - 1.0) <= 1e-3
        # sign corollary: a stable step exists whose Casoratian sign equals
        # the Wronskian's, and it keeps that sign under further halving
        for fam, w_sign in ((pair, 1.0), (
            FunctionFamily(tuple(reversed(pair.members))), -1.0,
        )):
            h = sign_agreement_step(fam, 0.0, start_h=4.0)
            for extra in range(4):
                c = complex(casoratian(fam, 0.0, h / 2**extra)).real
                assert (c > 0) == (w_sign > 0)


def test_08_cos_sin_example(criterion):
    with criterion("cos-sin-example"):
        fam = cos_sin_family()
        grid = [t / 3 for t in range(10)]
        w_vals = [complex(wronskian(fam, x)).real for x in grid]
        c_vals = [complex(casoratian(fam, x)).real for x in grid]
        for w, c in zip(w_vals, c_vals):
            assert abs(w - 1.0) <= 1e-12
            assert abs(c - math.sin(1.0)) <= 1e-12
        assert max(w_vals) - min(w_vals) <= 1e-12
        assert max(c_vals) - min(c_vals) <= 1e-12
        assert abs(math.sin(1.0) - 0.8414709848) <= 1e-9


def test_09_proportional_not_equal_example(criterion):
    with criterion("proportional-not-equal-example"):
        pair = gen_exp_poly_family([(2, 0), (3, 0)])
        sweep = ratio_sweep(pair, [t / 4 for t in range(17)])  # [0, 4]
        want = 1.0 / (math.e**3 - math.e**2)
        assert sweep.constant_verdict
        assert abs(sweep.ratio_mean - want) <= 1e-12 * want
        # {1, x, ln x}: Wronskian known analytically, Casoratian measured
        trio = FunctionFamily(
            (Monomial(0), Monomial(1), natural_log())
        )
        grid = [float(t) for t in range(1, 11)]
        report = ratio_sweep(trio, grid, analytic_w=lambda x: -1.0 / (x * x))
        assert not report.constant_verdict
        assert report.ratio_relative_spread > 0.1
        for x, c in zip(report.grid, report.c_values):
            closed = math.log(x * (x + 2) / (x + 1) ** 2)
            assert abs(complex(c).real - closed) <= 1e-9


def test_10_binom_exp_constant(criterion):
    with criterion("binom-exp-constant"):
        for a in (2.0, 0.5, math.e):
            for n in range(7):
                report = proportionality_constant("binom-exp", n=n, a=a)
                predicted = a ** (-n * (n + 1) / 2)
                assert abs(report.measured - predicted) <= 1e-9 * abs(predicted)
                assert report.agreement is True


def test_11_trig_hyperbolic_families(criterion):
    with criterion("trig-hyperbolic-families"):
        for n in range(4):
            trig = proportionality_constant("exp-trig", n=n, m=0.3, omega=1.1)
            assert trig.sweep.ratio_relative_spread <= 1e-9, n
            assert trig.sweep.constant_verdict
            hyper = proportionality_constant("hyperbolic", n=n, m=1)
            assert hyper.sweep.ratio_relative_spread <= 1e-9, n
            assert hyper.sweep.constant_verdict
        # order-zero constants from direct 2x2 expansion
        trig0 = proportionality_constant("exp-trig", n=0, m=0, omega=1)
        want = 1.0 / math.sin(1.0)
        assert abs(trig0.measured - want) <= 1e-9 * want
        assert trig0.agreement is True
        hyper0 = proportionality_constant("hyperbolic", n=0, m=1)
        want = 1.0 / math.sinh(1.0)
        assert abs(hyper0.measured - want) <= 1e-9 * want
        assert hyper0.agreement is True
        # the previously published constant disagrees: warned, not failed
        assert any("disagrees with the stated value" in w for w in hyper0.warnings)


def test_12_periodic_profile_solver(criterion):
    with criterion("periodic-profile-solver"):
        started = time.perf_counter()
        rates = (0.5, -0.5, 2.0, -2.0, 3.0)
        for lam in rates:
            for m in range(1, 7):
                for x in (-2.0, -0.75, 0.0, 1.3, 2.0):
                    got = det_float(build_M(lam, m, x))
                    want = predicted_det(lam, m, x)
                    assert abs(got - want) <= 1e-9 * abs(want)
        rng = random.Random(112)
        for lam in rates:
            for m in range(1, 5):
                for q in (1, 4, 8):
                    prob = SolverProblem(lam=lam, m=m, q=q, horizon=10)
                    made = [
                        PeriodicProfile(
                            tuple(rng.uniform(-2, 2) for _ in range(q)),
                            prob.parity,
                        )
                        for _ in range(m)
                    ]
                    sol = synthesize(prob, made)
                    scale = max(1.0, max(abs(v) for v in sol.values))
                    assert sol.max_residual <= 1e-9 * scale
                    back = recover_profiles(prob, sol.values)
                    for want_p, got_p in zip(made, back):
                        assert got_p.parity == want_p.parity
                        for a, b in zip(want_p.samples, got_p.samples):
                            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
        assert time.perf_counter() - started < 10.0


def test_13_unit_determinant_lemmas(criterion):
    with criterion("unit-determinant-lemmas"):
        for n in range(6):
            check = verify_binom_matrix_lemmas(n, math.e, trials=5, seed=113)
            assert check.ok
        # shifted-binomial matrix keeps determinant 1 exactly, one order up
        rng = random.Random(113)
        n = 6
        for _ in range(5):
            x = rand_x(rng, lo=-20, hi=20, max_den=9)
            rows = [
                [binomial_value(x + i, j) for j in range(n + 1)]
                for i in range(n + 1)
            ]
            assert det_exact(rows) == 1
