import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import casowron
from casowron.cli import fmt_scalar, main
from casowron.polynomial import Polynomial
from casowron.scalars import superfactorial
from casowron.theory import DEFAULT_SEED

POWERS = "field exact\nmember monomial k=0\nmember monomial k=1\nmember monomial k=2\n"
X_XSQ = "member monomial k=1\nmember monomial k=2\n"
EXP_PAIR = "member exppoly k=0 m=2\nmember exppoly k=0 m=3\n"
LN_FAMILY = (
    "member monomial k=0\nmember monomial k=1\nmember tabulated name=ln\n"
    "grid 1 10 10\n"
)


@pytest.fixture
def manifest(tmp_path):
    def write(text, name="family.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Scalar formatting
# ---------------------------------------------------------------------------

def test_fmt_scalar_units():
    assert fmt_scalar(True) == "true"
    assert fmt_scalar(False) == "false"
    assert fmt_scalar(7) == "7"
    assert fmt_scalar(Fraction(3, 4)) == "3/4"
    assert fmt_scalar(Fraction(6, 3)) == "2"
    assert fmt_scalar(complex(2, 0)) == "2"
    assert fmt_scalar(complex(1, -2)) == "1-2j"
    assert fmt_scalar(0.1) == "0.10000000000000001"
    assert fmt_scalar(1.0) == "1"


# ---------------------------------------------------------------------------
# Core commands and exit code 0
# ---------------------------------------------------------------------------

def test_wronskian_of_powers(capsys, manifest):
    code, out, _ = run_main(
        capsys, ["wronskian", manifest(POWERS), "--at", "1/2"]
    )
    assert code == 0
    assert "command: wronskian" in out
    assert "field: exact" in out
    assert "x[0]: 1/2" in out
    assert "wronskian[0]: 2" in out


def test_casoratian_with_step(capsys, manifest):
    code, out, _ = run_main(
        capsys,
        ["casoratian", manifest(X_XSQ), "--at", "2", "--step", "1/2"],
    )
    assert code == 0
    # nodes 2 and 5/2: det [[2, 4], [5/2, 25/4]] = 5/2
    assert "casoratian[0]: 5/2" in out


def test_delta_casoratian_matches_plain(capsys, manifest):
    path = manifest(POWERS)
    code_a, out_a, _ = run_main(capsys, ["delta-casoratian", path, "--at", "3"])
    code_b, out_b, _ = run_main(capsys, ["casoratian", path, "--at", "3"])
    assert code_a == code_b == 0
    assert "delta_casoratian[0]: 2" in out_a
    assert "casoratian[0]: 2" in out_b


def test_verify_powers_reports_ok(capsys):
    code, out, _ = run_main(capsys, ["verify-powers", "4"])
    assert code == 0
    assert "expected: 288" in out
    assert "ok: true" in out
    assert f"seed: {DEFAULT_SEED}" in out


def test_verify_powers_prints_values_past_the_int_digit_limit(capsys):
    # superfactorial(82) has more than 4,300 digits, past str(int)'s limit;
    # seed 12 draws x = 0, which keeps the exact determinants small
    code, out, err = run_main(capsys, ["verify-powers", "82", "--trials", "1", "--seed", "12"])
    assert code == 0, err
    want = superfactorial(82)
    assert want > 10**4300
    assert f"expected: {Decimal(want)}\n" in out
    assert "ok: true" in out


def test_fmt_scalar_huge_rationals():
    big = 7**6000
    assert fmt_scalar(big) == str(Decimal(big))
    assert fmt_scalar(Fraction(-big, 3)) == f"-{Decimal(big)}/3"
    assert fmt_scalar(Polynomial((1, Fraction(big, 5)))) == f"{Decimal(big)}/5*x + 1"


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_verify_powers_needs_a_trial(capsys, trials):
    code, out, err = run_main(capsys, ["verify-powers", "3", "--trials", trials])
    assert code == 1
    assert out == ""
    assert "need trials >= 1" in err


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_verify_basis_needs_a_trial(capsys, tmp_path, trials):
    path = tmp_path / "matrix.txt"
    path.write_text("2 0\n0 3\n")
    code, out, err = run_main(capsys, ["verify-basis", str(path), "--trials", trials])
    assert code == 1
    assert out == ""
    assert "need trials >= 1" in err


def test_verify_basis_from_file(capsys, tmp_path):
    path = tmp_path / "matrix.txt"
    path.write_text("2 0 0\n0 3 0\n0 0 5\n")
    code, out, _ = run_main(capsys, ["verify-basis", str(path)])
    assert code == 0
    assert "expected: 60" in out
    assert "ok: true" in out


def test_classify_reports_case(capsys, manifest):
    code, out, _ = run_main(capsys, ["classify", manifest(X_XSQ)])
    assert code == 0
    assert "case: unequal" in out
    assert "rank: 2" in out
    assert "span-full: false" in out


def test_invariance_of_powers(capsys, manifest):
    code, out, _ = run_main(capsys, ["invariance", manifest(POWERS)])
    assert code == 0
    assert "derivative-invariant: true" in out
    assert "shift-invariant: true" in out
    assert "kappa: 1" in out


def test_ratio_constant_family(capsys, manifest):
    code, out, _ = run_main(capsys, ["ratio", manifest(EXP_PAIR)])
    assert code == 0
    assert "constant: true" in out
    assert "ratio-mean: 0.078761982461271" in out


def test_ratio_reports_excluded_points(capsys, manifest):
    code, out, _ = run_main(
        capsys, ["ratio", manifest(X_XSQ), "--grid", "0", "2", "3"]
    )
    assert code == 0
    assert "ratio[0]: excluded" in out
    assert "excluded-points: 1" in out
    assert "warning[0]: grid point 0 excluded" in out
    assert "constant: false" in out


def test_ratio_analytic_wronskian(capsys, manifest):
    code, out, _ = run_main(
        capsys,
        ["ratio", manifest(LN_FAMILY), "--analytic-w=-1/x**2"],
    )
    assert code == 0
    assert "constant: false" in out


def test_proportionality_binom_exp(capsys):
    code, out, _ = run_main(
        capsys, ["proportionality", "--kind", "binom-exp", "--n", "3", "--a", "2"]
    )
    assert code == 0
    assert "predicted: 0.015625" in out
    assert "agreement: true" in out


def test_proportionality_hyperbolic_warns_on_stated_value(capsys):
    code, out, _ = run_main(
        capsys, ["proportionality", "--kind", "hyperbolic", "--n", "0", "--m", "1"]
    )
    assert code == 0
    assert "agreement: true" in out
    assert "disagrees with the stated value" in out


def test_proportionality_terms_blocks(capsys):
    code, out, _ = run_main(
        capsys, ["proportionality", "--kind", "gen-exp-poly", "--terms", "2,3"]
    )
    assert code == 0
    assert "param-terms: 2:0,3:0" in out
    assert "agreement: true" in out


def test_limit_check_derivative(capsys, manifest):
    sin = "member exptrig k=0 m=0 omega=1 phase=sin\n"
    code, out, _ = run_main(
        capsys, ["limit-check", "derivative", manifest(sin), "--order", "2"]
    )
    assert code == 0
    assert "ok: true" in out


def test_limit_check_derivative_underflowed_step_exits_one(capsys, manifest):
    # 1e-300 * 1e-30 underflows to a zero step
    path = manifest("member exppoly k=1 m=0.5\n")
    code, _, err = run_main(capsys, [
        "limit-check", "derivative", path,
        "--h-start", "1e-300", "--h-factor", "1e-30", "--h-count", "3",
    ])
    assert code == 1
    assert "step h must be nonzero" in err


def test_limit_check_casoratian_mode(capsys, manifest):
    pair = (
        "member exptrig k=0 m=0 omega=1 phase=cos\n"
        "member exptrig k=0 m=0 omega=1 phase=sin\n"
    )
    code, out, _ = run_main(
        capsys, ["limit-check", "casoratian", manifest(pair)]
    )
    assert code == 0
    assert "ok: true" in out


def test_fundamental_command(capsys, manifest):
    code, out, _ = run_main(
        capsys, ["fundamental", manifest(POWERS), "--grid", "0", "4", "5"]
    )
    assert code == 0
    assert "fundamental: true" in out
    assert "min-abs-casoratian: 2" in out


def test_fundamental_witness_is_first_point_of_constant_casoratian(capsys, manifest):
    # |C| of {e^{ix}, e^{-ix}} is 2 sin 1 at every x; rounding noise must
    # not move the witness off the first grid point
    pair = "member exppoly k=0 m=1j\nmember exppoly k=0 m=-1j\n"
    code, out, _ = run_main(capsys, ["fundamental", manifest(pair)])
    assert code == 0
    assert "fundamental: true" in out
    assert "witness-x: 0\n" in out


def test_solve_round_trip(capsys, tmp_path):
    samples = tmp_path / "samples.txt"
    samples.write_text(
        "\n".join(str((3.0 + x) * 2.0**x) for x in range(6)) + "\n"
    )
    code, out, _ = run_main(
        capsys, ["solve", str(samples), "--lam", "2", "--m", "2"]
    )
    assert code == 0
    assert "parity: periodic" in out
    assert "profile[0]: 3" in out
    assert "profile[1]: 1" in out
    assert "max-residual: 0" in out


# ---------------------------------------------------------------------------
# Exit codes 1 / 2 / 3
# ---------------------------------------------------------------------------

def test_missing_manifest_file_exits_one(capsys):
    code, _, err = run_main(capsys, ["wronskian", "/nonexistent/f.txt", "--at", "0"])
    assert code == 1
    assert "cannot read" in err


def test_bad_manifest_line_is_line_precise(capsys, manifest):
    path = manifest("member monomial k=0\nmember mystery k=1\n")
    code, _, err = run_main(capsys, ["wronskian", path, "--at", "0"])
    assert code == 1
    assert "line 2" in err
    assert "mystery" in err


@pytest.mark.parametrize("coeffs", [5, None, {"c0": 1}, True])
def test_json_manifest_coeffs_must_be_a_list(capsys, manifest, coeffs):
    path = manifest(json.dumps({"members": [{"kind": "poly", "coeffs": coeffs}]}), "m.json")
    code, out, err = run_main(capsys, ["classify", path])
    assert code == 1
    assert out == ""
    assert err == (
        "casowron: manifest error: members[0]: coeffs must be a list or a "
        "comma-separated string\n"
    )


def test_unknown_subcommand_exits_one(capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_no_evaluation_points_exits_one(capsys, manifest):
    code, _, err = run_main(capsys, ["wronskian", manifest(X_XSQ)])
    assert code == 1
    assert "no evaluation points" in err


def test_wronskian_of_tabulated_exits_two(capsys, manifest):
    # a second member forces a derivative row, which tabulated data lacks
    path = manifest("member monomial k=0\nmember tabulated name=ln\n")
    code, _, err = run_main(capsys, ["wronskian", path, "--at", "2"])
    assert code == 2


def test_wronskian_of_tabulated_names_missing_derivative_first(capsys, manifest):
    # the derivative tower is built before any row is evaluated, so the
    # missing derivative is reported even where ln is outside its domain
    path = manifest("member monomial k=1\nmember tabulated name=ln\n")
    code, _, err = run_main(capsys, ["wronskian", path, "--at", "-1"])
    assert code == 2
    assert "ln has no exact derivative" in err


def test_tabulated_outside_domain_exits_two(capsys, manifest):
    path = manifest("member tabulated name=ln\n")
    code, _, err = run_main(capsys, ["casoratian", path, "--at", "-3"])
    assert code == 2


def test_solve_wrong_dynamics_exits_two(capsys, tmp_path):
    samples = tmp_path / "bad.txt"
    samples.write_text("1\n3\n9\n")
    code, _, err = run_main(
        capsys, ["solve", str(samples), "--lam", "2", "--m", "1"]
    )
    assert code == 2
    assert "do not solve the equation" in err


def test_solve_sample_count_exits_one(capsys, tmp_path):
    samples = tmp_path / "short.txt"
    samples.write_text("1\n2\n3\n")
    code, _, err = run_main(
        capsys, ["solve", str(samples), "--lam", "2", "--m", "2", "--q", "2"]
    )
    assert code == 1


@pytest.mark.parametrize("q", ["0", "-3"])
def test_solve_mesh_count_below_one_exits_one(capsys, tmp_path, q):
    samples = tmp_path / "samples.txt"
    samples.write_text("1\n2\n4\n")
    code, out, err = run_main(
        capsys, ["solve", str(samples), "--lam", "2", "--m", "1", "--q", q]
    )
    assert code == 1
    assert out == ""
    assert err == "casowron: argument error: mesh count q must be at least 1\n"


def test_solve_nonfinite_sample_exits_two_naming_it(capsys, tmp_path):
    samples = tmp_path / "samples.txt"
    samples.write_text("1\nnan\n4\n")
    code, out, err = run_main(
        capsys, ["solve", str(samples), "--lam", "2", "--m", "1"]
    )
    assert code == 2
    assert out == ""
    assert err == "casowron: sample 1 is nan; samples must be finite\n"


def test_unattainable_min_order_exits_three(capsys, manifest):
    sin = "member exptrig k=0 m=0 omega=1 phase=sin\n"
    code, out, _ = run_main(
        capsys,
        ["limit-check", "derivative", manifest(sin), "--min-order", "5"],
    )
    assert code == 3
    assert "ok: false" in out


def test_ratio_analytic_w_on_exact_manifest_exits_one(capsys, manifest):
    code, out, err = run_main(
        capsys, ["ratio", manifest(POWERS), "--analytic-w", "1"]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("casowron: argument error: --analytic-w needs a float manifest")


@pytest.mark.parametrize("kind_args", [
    ["--kind", "hyperbolic", "--n", "0", "--m", "1000"],
    ["--kind", "gen-exp-poly", "--terms", "800,801"],
])
def test_proportionality_overflow_exits_two(capsys, kind_args):
    code, out, err = run_main(capsys, ["proportionality", *kind_args])
    assert code == 2
    assert out == ""
    assert err == "casowron: numeric overflow: math range error\n"


def test_ratio_analytic_w_accepts_listed_names(capsys, manifest):
    expr = "-exp(-2*ln(x)) + 0*sqrt(abs(+sin(pi*x) - cos(e)))"
    code, out, _ = run_main(
        capsys, ["ratio", manifest(LN_FAMILY), f"--analytic-w={expr}"]
    )
    assert code == 0
    assert "constant: false" in out


@pytest.mark.parametrize("expr", [
    "().__class__.__base__",
    "x.real",
    "__import__('os')",
    "sin(x=1)",
    "x ^ 2",
    "True",
    "[x][0]",
])
def test_ratio_analytic_w_refuses_other_syntax(capsys, manifest, expr):
    code, out, err = run_main(
        capsys, ["ratio", manifest(LN_FAMILY), f"--analytic-w={expr}"]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("casowron: argument error: bad analytic expression:")
    assert err.rstrip().endswith("is not allowed")


# ---------------------------------------------------------------------------
# Determinism, CSV, timing, seeds
# ---------------------------------------------------------------------------

def test_reports_are_byte_identical(capsys, manifest):
    path = manifest(EXP_PAIR)
    argv = ["ratio", path, "--grid", "0", "2", "9"]
    _, first, _ = run_main(capsys, argv)
    _, second, _ = run_main(capsys, argv)
    assert first == second


def test_timing_line_only_when_asked(capsys, manifest):
    path = manifest(POWERS)
    _, plain, _ = run_main(capsys, ["wronskian", path, "--at", "0"])
    assert "elapsed-seconds" not in plain
    _, timed, _ = run_main(capsys, ["wronskian", path, "--at", "0", "--timing"])
    assert "elapsed-seconds: " in timed


def test_csv_table_mode(capsys, manifest):
    code, out, _ = run_main(
        capsys, ["wronskian", manifest(POWERS), "--at", "0", "--at", "1", "--csv"]
    )
    assert code == 0
    assert "table:" in out
    assert "x,wronskian" in out
    assert "0,2" in out
    assert "1,2" in out


def test_seed_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("CASOWRON_SEED", "777")
    _, out, _ = run_main(capsys, ["verify-powers", "3"])
    assert "seed: 777" in out


def test_seed_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("CASOWRON_SEED", "777")
    _, out, _ = run_main(capsys, ["verify-powers", "3", "--seed", "42"])
    assert "seed: 42" in out


def test_seed_default_when_unset(capsys, monkeypatch):
    monkeypatch.delenv("CASOWRON_SEED", raising=False)
    _, out, _ = run_main(capsys, ["verify-powers", "3"])
    assert f"seed: {DEFAULT_SEED}" in out


def test_bad_seed_env_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("CASOWRON_SEED", "not-a-number")
    code, _, err = run_main(capsys, ["verify-powers", "3"])
    assert code == 1
    assert "CASOWRON_SEED" in err


# ---------------------------------------------------------------------------
# Entry point and stdin manifests
# ---------------------------------------------------------------------------

# The package directory the tests import, so ``python -m casowron`` runs the
# same code whether or not the package is installed.
SRC_DIR = str(Path(casowron.__file__).resolve().parents[1])
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_module(args, stdin):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "casowron", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )


def test_console_script_declared():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["casowron"] == "casowron.cli:main"


def test_console_script_json_on_stdin():
    doc = json.dumps(
        {"members": [{"kind": "monomial", "k": 0}, {"kind": "monomial", "k": 1}]}
    )
    proc = run_module(["wronskian", "-", "--at", "5"], doc)
    assert proc.returncode == 0
    assert "wronskian[0]: 1" in proc.stdout


def test_console_script_bad_json_exits_one():
    proc = run_module(["classify", "-"], "{not json")
    assert proc.returncode == 1
    assert "bad JSON manifest" in proc.stderr


def test_console_script_determinism():
    doc = json.dumps(
        {
            "field": "float",
            "members": [
                {"kind": "exppoly", "k": 0, "m": 2},
                {"kind": "exppoly", "k": 0, "m": 3},
            ],
            "grid": [0, 2, 9],
        }
    )
    runs = [run_module(["ratio", "-"], doc) for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
