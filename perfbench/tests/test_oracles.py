import math

import mpmath
import pytest

import oracles


def eval_evidence(n, omega, zs, perturb=None):
    norm = float(oracles._norm_const(n, omega))
    rows = []
    for i, z in enumerate(zs):
        d = float(mpmath.pcfd(n, z))
        row = [z / math.sqrt(2 * omega), z, d, norm * d]
        if i == perturb:
            row[2] *= 1 + 1e-6
        rows.append(row)
    return {"returncode": 0, "stderr": "", "header": f"# n={n} mu=1 omega={omega}", "rows": rows}


def test_eval_oracle_accepts_exact_rows():
    op = {"kind": "eval", "n": 7, "omega": 1.5}
    assert oracles.check(op, eval_evidence(7, 1.5, [-4.0, -1.0, 0.3, 2.5])).ok


def test_eval_oracle_flags_a_perturbed_row():
    op = {"kind": "eval", "n": 7, "omega": 1.5}
    verdict = oracles.check(op, eval_evidence(7, 1.5, [-4.0, -1.0, 0.3, 2.5], perturb=2))
    assert not verdict.ok and verdict.rel_err > oracles.EVAL_REL_TOL


def test_eval_oracle_flags_nan_and_exit_status():
    op = {"kind": "eval", "n": 2, "omega": 1.0}
    ev = eval_evidence(2, 1.0, [0.0, 1.0])
    ev["rows"][1][3] = math.nan
    assert not oracles.check(op, ev).ok
    ev = eval_evidence(2, 1.0, [0.0, 1.0])
    ev["returncode"] = 1
    assert not oracles.check(op, ev).ok


def test_eval_oracle_flags_empty_output():
    op = {"kind": "eval", "n": 2, "omega": 1.0}
    ev = {"returncode": 0, "stderr": "", "header": None, "rows": []}
    assert not oracles.check(op, ev).ok
    assert not oracles.check({"kind": "figure1"}, ev).ok


def test_figure1_oracle():
    rows = [[z] + [float(mpmath.pcfd(k, z)) for k in range(4)] for z in (-3.0, 0.5, 2.0)]
    ev = {"returncode": 0, "stderr": "", "header": "z,D0,D1,D2,D3", "rows": rows}
    assert oracles.check({"kind": "figure1"}, ev).ok
    rows[1][3] += 1e-6
    assert not oracles.check({"kind": "figure1"}, ev).ok


VERIFY_OK = (
    "PASS  [free] orthonormality: max |<i|j> - delta_ij| 2.442e-15 (tol 1e-10)\n"
    "PASS  [lj] fit-identity: |hbar omega gamma^2 - epsilon| 0.000e+00\n"
    "verify: 2/2 checks passed\n"
)


def test_verify_oracle():
    ev = {"returncode": 0, "stderr": "", "stdout": VERIFY_OK}
    verdict = oracles.check({"kind": "verify"}, ev)
    assert verdict.ok and verdict.gram_err == pytest.approx(2.442e-15)
    ev["stdout"] = VERIFY_OK.replace("PASS  [lj]", "FAIL  [lj]")
    assert not oracles.check({"kind": "verify"}, ev).ok
    ev["stdout"] = VERIFY_OK.replace("2/2", "3/3")
    assert not oracles.check({"kind": "verify"}, ev).ok
    ev = {"returncode": 1, "stderr": "", "stdout": VERIFY_OK}
    assert not oracles.check({"kind": "verify"}, ev).ok


def library_result(start, gamma, w=3, gram_delta=0.0):
    gram = [1.0 if a == b else 0.0 for a in range(w) for b in range(a, w)]
    gram[1] += gram_delta
    return {"gram": gram, "residuals": [1e-6] * w, "xbar": -gamma * math.sqrt(2.0)}


def test_library_oracle():
    op = {"kind": "library", "start": 2, "window": 3, "k": 64, "gamma": 0.4, "h": 1e-3, "half_span": 6.0}
    assert oracles.check(op, library_result(2, 0.4)).ok
    assert not oracles.check(op, library_result(2, 0.4, gram_delta=1e-8)).ok
    bad = library_result(2, 0.4)
    bad["residuals"][0] = math.nan
    assert not oracles.check(op, bad).ok
    assert not oracles.check(op, {"error": "ValueError: non-finite integrand"}).ok


def test_residual_bound_grows_with_n_and_h():
    assert oracles.residual_bound(10, 1e-3, 6.0) > oracles.residual_bound(0, 1e-3, 6.0)
    assert oracles.residual_bound(0, 2e-3, 6.0) == pytest.approx(4 * oracles.residual_bound(0, 1e-3, 6.0))


def test_sample_rows_is_deterministic():
    lines = [f"{i},{i * 2}" for i in range(100)]
    assert oracles.sample_rows(lines, [0.0, 0.505, 0.999]) == [[0.0, 0.0], [50.0, 100.0], [99.0, 198.0]]


def test_only_errors_and_paper_range_misses_fail():
    high = {"kind": "eval", "n": 60, "omega": 1.0, "max_n": 60}
    miss = oracles.check(high, eval_evidence(60, 1.0, [0.5, 2.0], perturb=0))
    assert not miss.ok and not miss.error and not oracles.fails(high, miss)
    low = {"kind": "eval", "n": 7, "omega": 1.0, "max_n": 7}
    assert oracles.fails(low, oracles.check(low, eval_evidence(7, 1.0, [0.5, 2.0], perturb=0)))
    crashed = eval_evidence(60, 1.0, [0.5, 2.0])
    crashed["stderr"] = "Traceback (most recent call last):\n"
    verdict = oracles.check(high, crashed)
    assert verdict.error and oracles.fails(high, verdict)
    lib = {"kind": "library", "start": 90, "window": 3, "k": 128, "gamma": 0.4, "h": 1e-3,
           "half_span": 6.0, "max_n": 92}
    assert oracles.fails(lib, oracles.check(lib, {"error": "OverflowError: too large"}))
    assert not oracles.fails(lib, oracles.check(lib, library_result(90, 0.4, gram_delta=1.0)))
