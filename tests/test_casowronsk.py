import cmath
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from casowron.casowronsk import (
    casoratian,
    casoratian_delta_form,
    casoratian_matrix,
    delta_power,
    difference_quotient,
    fit_convergence_order,
    ratio_sweep,
    scaled_casoratian,
    sign_agreement_step,
    wronskian,
    wronskian_matrix,
)
from casowron.errors import (
    ArgumentError,
    DegenerateSweepError,
    UnsupportedOperationError,
)
from casowron.functions import (
    ExpTrig,
    FunctionFamily,
    LinearCombo,
    Monomial,
    PolyFunction,
    binom_exp_family,
    exp_trig_family,
    hyperbolic_family,
    natural_log,
    power_family,
)
from casowron.polynomial import Polynomial
from casowron.scalars import EXACT, binomial_poly, superfactorial

from _oracles import (
    cofactor_det,
    exp_poly_derivative,
    poly_casoratian,
    poly_wronskian,
    rand_fraction,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=8)


def cos_sin_family() -> FunctionFamily:
    return FunctionFamily((ExpTrig(0, 0.0, 1.0, "cos"), ExpTrig(0, 0.0, 1.0, "sin")))


def test_wronskian_matrix_structure_for_powers():
    fam = power_family(2)
    x = Fraction(5, 3)
    rows = wronskian_matrix(fam, x).rows()
    assert rows == [
        [1, x, x * x],
        [0, 1, 2 * x],
        [0, 0, 2],
    ]


def test_wronskian_matrix_rejects_tabulated():
    fam = FunctionFamily((Monomial(0), natural_log()))
    with pytest.raises(UnsupportedOperationError):
        wronskian_matrix(fam, 2.0)


def test_wronskian_matrix_exact_against_polynomial_derivatives():
    polys = [
        Polynomial((3, 0, Fraction(-1, 2), 0, 2)),
        Polynomial((0, 5, 1)),
        Polynomial((Fraction(2, 7), -1, 0, 1)),
    ]
    families = [
        (power_family(4), [Polynomial.monomial(k) for k in range(5)]),
        (FunctionFamily(tuple(PolyFunction(p) for p in polys), EXACT), polys),
    ]
    for fam, plain in families:
        for x in (Fraction(-3, 2), Fraction(0), Fraction(7, 5)):
            rows = wronskian_matrix(fam, x).rows()
            current = list(plain)
            for row in rows:
                assert row == [p(x) for p in current]
                current = [p.derivative() for p in current]


#: builder and parameters of each float family the Leibniz oracle checks
LEIBNIZ_FAMILIES = {
    "binom-exp": (binom_exp_family, 4, 1.7),
    "exp-trig": (exp_trig_family, 2, 0.3, 1.1),
    "hyperbolic": (hyperbolic_family, 2, 0.8),
}


def _exp_poly_parts(kind: str, n: int, *params) -> list:
    """Per member, (weight, p, mu) with member(x) = sum of weight * p(x) * exp(mu x)."""
    if kind == "binom-exp":
        (a,) = params
        return [[(1, binomial_poly(k), cmath.log(a))] for k in range(n + 1)]
    parts = []
    for k in range(n + 1):
        xk = Polynomial.monomial(k)
        if kind == "exp-trig":
            m, omega = params
            up, down = complex(m, omega), complex(m, -omega)
            parts.append([(0.5, xk, up), (0.5, xk, down)])  # cos
            parts.append([(-0.5j, xk, up), (0.5j, xk, down)])  # sin
        else:
            (m,) = params
            parts.append([(0.5, xk, m), (0.5, xk, -m)])  # cosh
            parts.append([(0.5, xk, m), (-0.5, xk, -m)])  # sinh
    return parts


@pytest.mark.parametrize("kind", list(LEIBNIZ_FAMILIES))
def test_wronskian_matrix_float_against_leibniz_derivatives(kind):
    build, n, *params = LEIBNIZ_FAMILIES[kind]
    fam = build(n, *params)
    parts = _exp_poly_parts(kind, n, *params)
    assert len(parts) == fam.size
    for x in (-0.7, 0.45, 1.3):
        rows = wronskian_matrix(fam, x).rows()
        for i, row in enumerate(rows):
            want = [
                sum(w * exp_poly_derivative(p, mu, i, x) for w, p, mu in member_parts)
                for member_parts in parts
            ]
            scale = max(abs(v) for v in want)
            for got, ref in zip(row, want):
                assert abs(got - ref) <= 1e-13 * scale


def test_derivative_tower_built_once_per_family(monkeypatch):
    calls = []
    original = LinearCombo.derivative

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(LinearCombo, "derivative", counted)
    counts = []
    for grid in ([0.5], [t / 8 for t in range(9)]):
        calls.clear()
        ratio_sweep(exp_trig_family(2, 0.3, 1.1), grid)
        counts.append(len(calls))
    assert counts[0] == counts[1] == 6 * 5


def test_casoratian_matrix_structure():
    fam = FunctionFamily((Monomial(1), Monomial(2)), EXACT)
    x = Fraction(7, 2)
    rows = casoratian_matrix(fam, x).rows()
    assert rows == [[x, x * x], [x + 1, (x + 1) ** 2]]


@given(rationals, st.integers(min_value=0, max_value=6))
@settings(max_examples=40)
def test_power_equality_at_random_points(x, n):
    fam = power_family(n)
    sf = superfactorial(n)
    assert wronskian(fam, x) == sf
    assert casoratian(fam, x) == sf


def test_wronskian_point_coercion_rules():
    fam = power_family(1)
    with pytest.raises(ArgumentError):
        wronskian(fam, 0.5)  # float point against an exact family


@given(rationals, rationals)
@settings(max_examples=30)
def test_casoratian_h_step_is_vandermonde(x, h):
    fam = power_family(2)
    nodes = [x + i * h for i in range(3)]
    want = cofactor_det([[node**j for j in range(3)] for node in nodes])
    assert casoratian(fam, x, h) == want


def test_delta_form_equals_shift_form_exact():
    rng = random.Random(3)
    for n in range(0, 6):
        fam = power_family(n)
        for _ in range(3):
            x = rand_fraction(rng)
            assert casoratian_delta_form(fam, x).det() == casoratian(fam, x)


def test_delta_form_equals_shift_form_float():
    fam = exp_trig_family(1, 0.3, 1.1)  # size 4
    for x in (0.0, 0.7, -1.2):
        delta = casoratian_delta_form(fam, x).det()
        shift = casoratian(fam, x)
        assert abs(delta - shift) <= 1e-10 * abs(shift)


def test_member_permutation_alternates_both_determinants():
    base = [Monomial(0), Monomial(1), Monomial(2)]
    x = Fraction(4, 3)
    w0 = wronskian(FunctionFamily(tuple(base), EXACT), x)
    c0 = casoratian(FunctionFamily(tuple(base), EXACT), x)
    for perm in permutations(range(3)):
        sign = 1
        seen = list(perm)
        # count inversions for the permutation sign
        inv = sum(
            1 for i in range(3) for j in range(i + 1, 3) if seen[i] > seen[j]
        )
        sign = -1 if inv % 2 else 1
        fam = FunctionFamily(tuple(base[i] for i in perm), EXACT)
        assert wronskian(fam, x) == sign * w0
        assert casoratian(fam, x) == sign * c0


def test_scaled_casoratian_polynomials_h_independent():
    fam = power_family(2)
    for h in (Fraction(1), Fraction(-1, 3), Fraction(7, 5), Fraction(1, 64)):
        assert scaled_casoratian(fam, Fraction(2, 7), h) == 2


def test_scaled_casoratian_rejects_zero_step():
    with pytest.raises(ArgumentError):
        scaled_casoratian(power_family(1), Fraction(0), 0)


def test_scaled_casoratian_single_member():
    fam = FunctionFamily((Monomial(2),), EXACT)
    assert scaled_casoratian(fam, Fraction(3), Fraction(1, 2)) == 9


def test_scaled_casoratian_converges_to_wronskian():
    fam = cos_sin_family()
    w = wronskian(fam, 0.0)
    errors = []
    hs = [2.0**-k for k in range(2, 13)]
    for h in hs:
        errors.append(abs(scaled_casoratian(fam, 0.0, h) - w))
    assert fit_convergence_order(hs, errors) >= 0.9


def test_scaled_casoratian_limit_larger_family():
    fam = hyperbolic_family(1, 0.8)  # size 4
    x = 0.4
    w = wronskian(fam, x)
    hs = [2.0**-k for k in range(2, 13)]
    errors = [abs(scaled_casoratian(fam, x, h) - w) for h in hs]
    assert fit_convergence_order(hs, errors) >= 0.9


def test_delta_power_exact_polynomials():
    # Delta_h^n applied to x^n leaves exactly n! h^n
    for n in range(0, 6):
        h = Fraction(3, 7)
        x = Fraction(-2, 5)
        assert delta_power(Monomial(n), x, h, n) == math.factorial(n) * h**n


def test_delta_power_accepts_plain_callables():
    value = delta_power(lambda t: t * t, 1.0, 0.5, 1)
    assert value == pytest.approx((1.5**2 - 1.0**2))


def test_difference_quotient_first_order():
    f = ExpTrig(0, 0.0, 1.0, "sin")
    x = 0.3
    got = difference_quotient(f, x, 1e-6, 1)
    assert got.real == pytest.approx(math.cos(x), abs=1e-5)


def test_fit_convergence_order_clean_data():
    hs = [2.0**-k for k in range(2, 10)]
    errors = [7.0 * h**3 for h in hs]
    assert fit_convergence_order(hs, errors) == pytest.approx(3.0, abs=1e-9)


def test_fit_convergence_order_truncates_roundoff_tail():
    # error model: h^2 descent that bottoms out on a 1e-14 noise floor
    hs = [2.0**-k for k in range(2, 20)]
    errors = [max(h**2, 1e-14 / h) for h in hs]
    assert fit_convergence_order(hs, errors) >= 1.9


def test_fit_convergence_order_all_zero_errors():
    assert fit_convergence_order([0.5, 0.25], [0, 0]) == math.inf


def test_sign_agreement_protocol():
    fam = cos_sin_family()
    h = sign_agreement_step(fam, 0.0, start_h=4.0)
    # sin(4) < 0 while W = 1 > 0, so the protocol must have halved at least once
    assert h < 4.0
    assert math.sin(h) > 0


def test_sign_agreement_negative_wronskian():
    fam = FunctionFamily((ExpTrig(0, 0.0, 1.0, "sin"), ExpTrig(0, 0.0, 1.0, "cos")))
    h = sign_agreement_step(fam, 0.0, start_h=1.0)
    assert -math.sin(h) < 0  # casoratian of the swapped pair is -sin h


def test_ratio_sweep_power_family_exact():
    fam = power_family(2)
    report = ratio_sweep(fam, [Fraction(t, 3) for t in range(6)])
    assert report.constant_verdict
    assert report.ratio_mean == 1
    assert report.ratio_relative_spread == 0
    assert report.excluded == ()


def test_ratio_sweep_excludes_casoratian_zeros():
    fam = FunctionFamily((Monomial(1), Monomial(2)), EXACT)
    # C = x^2 + x vanishes at 0 and -1
    report = ratio_sweep(fam, [Fraction(-1), Fraction(0), Fraction(1), Fraction(2)])
    assert set(report.excluded) == {Fraction(-1), Fraction(0)}
    assert report.ratios[0] is None and report.ratios[1] is None
    assert not report.constant_verdict  # W/C = x/(x+1) moves with x


def test_ratio_sweep_all_degenerate_raises():
    fam = FunctionFamily((Monomial(1), Monomial(2)), EXACT)
    with pytest.raises(DegenerateSweepError):
        ratio_sweep(fam, [Fraction(0), Fraction(-1)])


def test_ratio_sweep_analytic_wronskian_for_tabulated():
    fam = FunctionFamily((Monomial(0), Monomial(1), natural_log()))
    report = ratio_sweep(
        fam, [float(t) for t in range(1, 8)],
        analytic_w=lambda x: -1.0 / (x * x),
    )
    assert not report.constant_verdict
    assert report.ratio_relative_spread > 0.1


def test_ratio_sweep_empty_grid_rejected():
    with pytest.raises(ArgumentError):
        ratio_sweep(power_family(1), [])


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=6))
@settings(max_examples=25)
def test_symbolic_oracle_agreement_on_power_subsets(ks):
    # W and C of monomial lists, against the naive symbolic oracle
    polys = [Monomial(abs(k) % 5) for k in ks]
    from casowron.functions import member_polynomial

    plain = [member_polynomial(m) for m in polys]
    fam = FunctionFamily(tuple(Monomial(abs(k) % 5) for k in ks), EXACT)
    x = Fraction(3, 2)
    assert wronskian(fam, x) == poly_wronskian(plain)(x)
    assert casoratian(fam, x) == poly_casoratian(plain)(x)
