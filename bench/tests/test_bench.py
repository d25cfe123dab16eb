"""Tests of the benchmark itself: determinism, oracles, and its checker.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""
import contextlib
import io
import json
import math
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402
from casowron import cli  # noqa: E402
from casowron.casowronsk import (  # noqa: E402
    casoratian, fit_convergence_order, scaled_casoratian, wronskian)
from casowron.determinants import det_exact  # noqa: E402
from casowron.functions import FunctionFamily, PolyFunction, gen_exp_poly_family  # noqa: E402
from casowron.polynomial import Polynomial  # noqa: E402
from casowron.scalars import EXACT  # noqa: E402


def listing(workload, seed, rounds=2):
    stream = W.OpStream(workload, seed)
    return [(op.stratum, op.argv, op.text) for _ in range(rounds) for op in stream.next_round()]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_gives_identical_ops_and_inputs(workload):
    assert listing(workload, 7) == listing(workload, 7)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_other_seed_changes_ops_but_not_the_mix(workload):
    a, b = listing(workload, 7), listing(workload, 8)
    assert a != b
    assert sorted(s for s, _, _ in a) == sorted(s for s, _, _ in b)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_no_two_ops_of_a_stream_are_identical(workload):
    stream = W.OpStream(workload, 3)
    keys = [op.key() for _ in range(4) for op in stream.next_round()]
    assert len(keys) == len(set(keys))


def _members(blocks):
    return gen_exp_poly_family([(mu, r - 1) for mu, r in blocks])


@pytest.mark.parametrize("blocks", [[(0.5, 2), (-0.3, 1)], [(0.4, 1), (-0.7, 2), (1.1, 1)],
                                    [(0.3 + 1.1j, 2), (0.3 - 1.1j, 2)], [(0.9, 3)]])
def test_block_closed_forms_agree_with_the_library(blocks):
    fam = _members(blocks)
    for x in (-0.4, 0.0, 0.7):
        w, c = wronskian(fam, x), casoratian(fam, x)
        assert O.close(w, O.wronskian_blocks(blocks, x), 1e-10)
        assert O.close(c, O.casoratian_blocks(blocks, x), 1e-10)
        assert O.close(w / c, O.kappa_blocks(blocks), 1e-10)
        for h in (0.5, 0.1):
            assert O.close(scaled_casoratian(fam, x, h),
                           O.scaled_casoratian_blocks(blocks, x, h), 1e-9)


def test_kappa_reduces_to_the_stated_family_constants():
    a, n = 1.7, 5
    assert O.close(O.kappa_blocks([(math.log(a), n + 1)]), a ** (-n * (n + 1) / 2), 1e-12)
    m, w = 0.3, 1.3
    trig = (w / math.sin(w)) ** ((n + 1) ** 2) * math.exp(-m * (n + 1) * (2 * n + 1))
    assert O.close(O.kappa_blocks([(complex(m, w), n + 1), (complex(m, -w), n + 1)]), trig, 1e-9)
    hyp = (m / math.sinh(m)) ** ((n + 1) ** 2)
    assert O.close(O.kappa_blocks([(m, n + 1), (-m, n + 1)]), hyp, 1e-9)


def test_exact_oracles_agree_with_the_library():
    rng = random.Random(5)
    for size in (2, 4, 6):
        rows = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
        assert O.fraction_det(rows) == det_exact(rows)
        polys = [[rng.randint(-4, 4) for _ in range(rng.randint(1, 7))] for _ in range(size)]
        fam = FunctionFamily(tuple(PolyFunction(Polynomial(p)) for p in polys), EXACT)
        x, h = Fraction(rng.randint(-9, 9), 7), Fraction(2, 3)
        assert O.poly_wronskian_at(polys, x) == wronskian(fam, x)
        assert O.poly_casoratian_at(polys, x, h) == casoratian(fam, x, h)
    for coeffs in ([0, 0, 1], [Fraction(-7, 2), 1, 0, Fraction(3, 5)], [-1], [0, -1, 0, 0, 12]):
        assert O.parse_poly(str(Polynomial(coeffs))) == O.poly_trim(coeffs)


def test_fit_matches_the_library_on_exact_errors():
    hs = [0.1 * 0.5**i for i in range(8)]
    for errors in ([3 * h + h * h for h in hs], [abs(2 * h - 30 * h * h) for h in hs]):
        assert O.fitted_order(hs, errors) == pytest.approx(fit_convergence_order(hs, errors))


def run_op(op, tmp_path):
    path = None
    if op.text is not None:
        path = tmp_path / "input.txt"
        path.write_text(op.text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(op.argv_for(None if path is None else str(path)))
    return code, out.getvalue()


def bump(text: str) -> str:
    """Change the leading significant digit of a printed number."""
    i = next(k for k, ch in enumerate(text) if ch in "123456789")
    return text[:i] + str((int(text[i]) + 4) % 9 + 1) + text[i + 1:]


def tamper(report: str, key: str) -> str:
    lines = report.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(key + ": "):
            lines[i] = key + ": " + bump(line[len(key) + 2:])
            return "\n".join(lines) + "\n"
    raise AssertionError(f"{key} not in report")


@pytest.mark.parametrize("workload,stratum,key", [
    ("kappa-float", "prop-hyperbolic-n1", "measured"),
    ("kappa-float", "ratio-3", "ratio-mean"),
    ("classify-exact", "classify-monomial-3", "wronskian-poly"),
    ("classify-exact", "verify-basis-4", "expected"),
    ("solve-profiles", "solve-m2-q8", "profile[1]"),
    ("casoratian-scan", "fundamental-float-2", "min-abs-casoratian"),
])
def test_a_tampered_report_is_a_failure(workload, stratum, key, tmp_path):
    op = next(o for o in W.OpStream(workload, 11).next_round() if o.stratum == stratum)
    code, report = run_op(op, tmp_path)
    op.check(code, report)
    with pytest.raises(W.Mismatch, match=re.escape(key)):
        op.check(code, tamper(report, key))


@pytest.mark.parametrize("stratum", ["casoratian-exact-3", "delta-casoratian-float-2"])
def test_a_tampered_table_row_is_a_failure(stratum, tmp_path):
    op = next(o for o in W.OpStream("casoratian-scan", 11).next_round() if o.stratum == stratum)
    code, report = run_op(op, tmp_path)
    op.check(code, report)
    lines = report.splitlines()
    x, value = lines[-1].split(",")
    lines[-1] = f"{x},{bump(value)}"
    with pytest.raises(W.Mismatch, match="table"):
        op.check(code, "\n".join(lines))


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)
    return proc


def test_seed_solver_rejections_show_at_their_drawn_share():
    proc = run_bench("--workload", "solve-profiles", "--seed", "4", "--seconds", "0.3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    rejected_per_round = len(W.REJECTED_CASES)
    round_size = len(W.OpStream("solve-profiles", 4).next_round())
    assert result["attempted"] % round_size == 0
    assert result["failed"] == result["attempted"] // round_size * rejected_per_round
    assert result["metrics"]["pass_rate"]["value"] == 1 - rejected_per_round / round_size
    assert result["correct"] is True
    failed_lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("failed op")]
    assert len(failed_lines) == result["failed"]
    assert all("seed-rejected region" in ln for ln in failed_lines)


def test_traced_run_reports_every_per_layer_metric():
    proc = run_bench("--workload", "casoratian-scan", "--seed", "2", "--seconds", "0.2",
                     "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["casowronsk.casoratian_matrix.calls"]["value"] > 0
    assert result["metrics"]["determinants.det_exact.calls"]["value"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "kappa-float", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
