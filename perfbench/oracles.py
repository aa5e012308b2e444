"""Correctness oracles for every benchmark operation.

The runner collects evidence for each operation while the clock runs (exit
status, stderr, a few sampled output rows, or the raw library results) and
the checks here run after the timed window.  A verdict is an error when
the program gave no checkable result (a wrong exit status, a traceback,
malformed output, an exception), and a miss when its result lies outside the
oracle tolerance.  No operation is ever dropped or retried.

``fails`` decides which verdicts fail their operation.  Errors always do.
Misses do within the orders the paper and the repository's acceptance gates
cover (0..PAPER_MAX_N).  Above that, the float evaluation of D_n loses
accuracy from about n = 35 on.  That known defect is measured (``rel_err``,
``gram_err`` and the traced ``fail_ratio``) rather than counted in failed
operations, whose number would otherwise follow how many operations a run
happened to complete.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import mpmath

#: ``eval``/``figure1`` values print with 12 significant digits (rounding
#: error 5e-13); 1e-9 of the largest sampled |value| leaves 2000x room for
#: the float rounding of a stable evaluator.
EVAL_REL_TOL = 1e-9
#: The orthonormality gate ``paracyl verify`` applies to its own Gram block.
GRAM_TOL = 1e-10
#: The displacement-identity gate ``paracyl verify`` applies to <x>.
XBAR_TOL = 1e-9
#: The orders the paper and the repository's acceptance gates cover.
PAPER_MAX_N = 10

_VERIFY_SUMMARY = re.compile(r"^verify: (\d+)/(\d+) checks passed$")
_VERIFY_GRAM = re.compile(r"max \|<i\|j> - delta_ij\| (\S+)")


@dataclass
class Verdict:
    ok: bool
    detail: str
    rel_err: float = 0.0
    gram_err: float = 0.0
    error: bool = False


def _error(detail: str) -> Verdict:
    return Verdict(False, detail, error=True)


def fails(op: dict, verdict: Verdict) -> bool:
    """Whether ``verdict`` fails ``op``: an error, or a miss within 0..PAPER_MAX_N."""
    return not verdict.ok and (verdict.error or op["max_n"] <= PAPER_MAX_N)


def residual_bound(n: int, h: float, half_span: float) -> float:
    """Bound on max |(H - E_n) psi_n| from the central stencil on |x| <= half_span.

    In units mu = omega = hbar = 1, psi'' = (x^2 - (2n+1)) psi, so the
    stencil's leading error (h^2/24)|psi''''| is below
    (h^2/24)(2n + 1 + x^2)^2 max|psi|, and max|psi_n| < 1 (Cramer's bound).
    """
    return h * h * (2 * n + 1 + half_span * half_span) ** 2 / 24.0


def check(op: dict, evidence: dict) -> Verdict:
    """Check one operation's evidence against its oracle."""
    if op["kind"] == "library":
        return check_library(op, evidence)
    if evidence.get("returncode") != 0:
        return _error(f"exit status {evidence.get('returncode')}")
    if "Traceback (most recent call last)" in evidence.get("stderr", ""):
        return _error("traceback on stderr")
    if op["kind"] == "verify":
        return check_verify(evidence["stdout"])
    if op["kind"] == "eval":
        return check_eval_rows(op, evidence)
    return check_figure1_rows(evidence)


def check_verify(stdout: str) -> Verdict:
    """Every check line reads PASS and the summary says k/k with k of them."""
    lines = stdout.splitlines()
    if not lines:
        return _error("no output")
    m = _VERIFY_SUMMARY.match(lines[-1])
    checks = lines[:-1]
    if not m or m.group(1) != m.group(2) or int(m.group(2)) != len(checks) or not checks:
        return _error(f"bad summary line {lines[-1]!r}")
    failed = [line for line in checks if not line.startswith("PASS")]
    if failed:
        return Verdict(False, f"{failed[0]!r}")
    gram = _VERIFY_GRAM.search(stdout)
    return Verdict(True, lines[-1], gram_err=float(gram.group(1)) if gram else 0.0)


def sample_rows(lines: list[str], fractions: list[float]) -> list[list[float]]:
    """The data rows at the given fractions of ``lines``, parsed as floats."""
    if not lines:
        return []
    picks = sorted({min(int(u * len(lines)), len(lines) - 1) for u in fractions})
    return [[float(v) for v in lines[i].split(",")] for i in picks]


def _worst(values) -> float:
    """The largest value, or inf if any is NaN (``max`` can skip a NaN)."""
    values = list(values)
    return math.inf if any(math.isnan(v) for v in values) else max(values)


def _rel_err(got: list[float], ref: list[float]) -> float:
    """max |got - ref| over the sample, relative to the largest |ref|."""
    scale = max(abs(r) for r in ref)
    worst = _worst(abs(g - r) for g, r in zip(got, ref))
    return worst / scale if scale > 0 else worst


def _norm_const(n: int, omega: float):
    # N_n = (mu omega / (hbar pi))^{1/4} / sqrt(n!) with mu = hbar = 1.
    return mpmath.power(omega / mpmath.pi, 0.25) / mpmath.sqrt(mpmath.factorial(n))


def check_eval_rows(op: dict, evidence: dict) -> Verdict:
    """Rows x,z,D_n,psi_n against mpmath.pcfd(n, z) and N_n pcfd(n, z)."""
    n, rows = op["n"], evidence["rows"]
    if not (evidence.get("header") or "").startswith(f"# n={n} ") or not rows or any(len(r) != 4 for r in rows):
        return _error(f"malformed output (header {evidence.get('header')!r})")
    norm = _norm_const(n, op["omega"])
    d_ref = [mpmath.pcfd(n, r[1]) for r in rows]
    err = max(
        _rel_err([r[2] for r in rows], [float(d) for d in d_ref]),
        _rel_err([r[3] for r in rows], [float(norm * d) for d in d_ref]),
    )
    return Verdict(err <= EVAL_REL_TOL, f"n={n} rel err {err:.3e} (tol {EVAL_REL_TOL:g})", rel_err=err)


def check_figure1_rows(evidence: dict) -> Verdict:
    """Rows z,D0,D1,D2,D3 against mpmath.pcfd(k, z)."""
    rows = evidence["rows"]
    if evidence.get("header") != "z,D0,D1,D2,D3" or not rows or any(len(r) != 5 for r in rows):
        return _error(f"malformed CSV (header {evidence.get('header')!r})")
    err = max(
        _rel_err([r[k + 1] for r in rows], [float(mpmath.pcfd(k, r[0])) for r in rows]) for k in range(4)
    )
    return Verdict(err <= EVAL_REL_TOL, f"figure1 rel err {err:.3e} (tol {EVAL_REL_TOL:g})", rel_err=err)


def check_library(op: dict, result: dict) -> Verdict:
    """Gram block near the identity, <x> = -qE/(mu omega^2), bounded residuals."""
    if "error" in result:
        return _error(result["error"])
    start, w = op["start"], op["window"]
    expected = [1.0 if a == b else 0.0 for a in range(w) for b in range(a, w)]
    if len(result["gram"]) != len(expected) or len(result["residuals"]) != w:
        return _error(f"{len(result['gram'])} Gram entries and {len(result['residuals'])} residuals")
    gram_err = _worst(abs(g - e) for g, e in zip(result["gram"], expected))
    # qE = gamma sqrt(2 mu hbar omega^3), so -qE/(mu omega^2) = -gamma sqrt(2).
    xbar_err = abs(result["xbar"] + op["gamma"] * math.sqrt(2.0))
    over = [
        n
        for n, r in zip(range(start, start + w), result["residuals"])
        if not r <= residual_bound(n, op["h"], op["half_span"])
    ]
    ok = gram_err <= GRAM_TOL and xbar_err <= XBAR_TOL and not over
    detail = (
        f"n={start}..{start + w - 1} k={op['k']}: gram err {gram_err:.3e} (tol {GRAM_TOL:g}), "
        f"<x> err {xbar_err:.3e} (tol {XBAR_TOL:g}), residual over bound at n={over}"
    )
    return Verdict(ok, detail, gram_err=gram_err)
