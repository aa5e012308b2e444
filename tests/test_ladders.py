"""The exact integer ladders and the two exact gates built on them.

The ladders (``polys._hermite_rows``, ``polys._rodrigues_rows``,
``polys._pcf_rows``) stream parity-compressed rows; the public constructors
read one row each, and ``checks.exact_claims`` walks all of them once.  The
reference here is the plain construction on full coefficient lists, so the
compressed steps are checked against arithmetic they do not share.
"""

from itertools import islice

import pytest

from paracyl import checks, polys
from paracyl.checks import exact_claims, free_suite
from paracyl.cli import EXIT_VERIFY_FAIL, main
from paracyl.pcf import _ode_identity, pcf_poly, pcf_rodrigues_poly
from paracyl.polys import (
    DEGREE_CAP,
    _expand,
    _hermite_rows,
    _pcf_rows,
    _rodrigues_rows,
    hermite_recurrence,
    hermite_rodrigues,
)

ORDERS = DEGREE_CAP + 1


def reference_hermite(count):
    """H_0.. by H_{k+1} = 2 t H_k - 2 k H_{k-1} on full coefficient lists."""
    rows = [[1], [0, 2]]
    for k in range(1, count - 1):
        nxt = [0] * (k + 2)
        for i, c in enumerate(rows[k]):
            nxt[i + 1] += 2 * c
        for i, c in enumerate(rows[k - 1]):
            nxt[i] -= 2 * k * c
        rows.append(nxt)
    return [tuple(r) for r in rows[:count]]


def reference_rodrigues(count, s):
    """(-1)^n times the cofactor ladder q -> q' - s t q from q = 1, on full lists."""
    rows, q = [], [1]
    for n in range(count):
        rows.append(tuple(c if n % 2 == 0 else -c for c in q))
        nxt = [0] * (len(q) + 1)
        for i, c in enumerate(q):
            if i:
                nxt[i - 1] += i * c
            nxt[i + 1] -= s * c
        q = nxt
    return rows


def reference_pcf(hermite):
    """P_n from H_n: coefficient k of H_n over 2^{(n+k)/2}, which must divide it."""
    rows = []
    for n, h in enumerate(hermite):
        row = []
        for k, c in enumerate(h):
            q, r = divmod(c, 2 ** ((n + k) // 2)) if c else (0, 0)
            assert r == 0
            row.append(q)
        rows.append(tuple(row))
    return rows


@pytest.fixture(scope="module")
def reference():
    hermite = reference_hermite(ORDERS)
    return {
        "hermite": hermite,
        "hermite_rodrigues": reference_rodrigues(ORDERS, 2),
        "pcf": reference_pcf(hermite),
        "pcf_rodrigues": reference_rodrigues(ORDERS, 1),
    }


def streamed(rows):
    return [_expand(n, row) for n, row in enumerate(islice(rows, ORDERS))]


class TestLadders:
    def test_streamed_rows_match_the_full_reference(self, reference):
        assert streamed(_hermite_rows()) == reference["hermite"]
        assert streamed(_rodrigues_rows(2)) == reference["hermite_rodrigues"]
        assert streamed(_pcf_rows(_hermite_rows())) == reference["pcf"]
        assert streamed(_rodrigues_rows(1)) == reference["pcf_rodrigues"]

    def test_public_constructors_read_the_ladders(self, reference):
        for n in range(ORDERS):
            assert hermite_recurrence(n).coeffs == reference["hermite"][n]
            assert hermite_rodrigues(n).coeffs == reference["hermite_rodrigues"][n]
            assert pcf_poly(n).poly.coeffs == reference["pcf"][n]
            assert pcf_rodrigues_poly(n).poly.coeffs == reference["pcf_rodrigues"][n]

    def test_rows_hold_only_the_coefficients_of_their_parity(self):
        for n, row in enumerate(islice(_hermite_rows(), 12)):
            assert len(row) == n // 2 + 1
            assert all(row)

    def test_substitution_rejects_an_odd_coefficient(self):
        with pytest.raises(AssertionError):
            polys._substitute(2, (-2, 5))


def bump(row):
    """``row`` with its second coefficient moved by one."""
    return row[:1] + (row[1] + 1,) + row[2:]


class TestExactGates:
    def test_both_claims_hold_up_to_the_cap(self):
        assert exact_claims() == (True, True)

    def test_free_suite_covers_every_accepted_order(self):
        records = {r.name: r for r in free_suite()}
        for name in ("route-equivalence", "ode-identity"):
            assert records[name].ok
            assert records[name].detail.endswith(f"n <= {DEGREE_CAP}")
            assert records[name].tol == ()

    def test_ode_identity_holds_for_he_rows_and_fails_on_a_changed_one(self):
        rows = list(islice(_pcf_rows(_hermite_rows()), 12))
        assert all(_ode_identity(n, row) for n, row in enumerate(rows))
        assert not _ode_identity(5, (15, -9, 1))
        assert not _ode_identity(4, (3, -6, 2))

    def test_changed_rodrigues_step_fails_route_equivalence(self, monkeypatch, capsys):
        step = polys._rodrigues_step  # step n builds the row of order n + 1
        monkeypatch.setattr(
            polys, "_rodrigues_step", lambda n, row, s: bump(step(n, row, s)) if n + 1 == 137 else step(n, row, s)
        )
        assert exact_claims() == (False, True)
        assert main(["verify", "--suite", "free"]) == EXIT_VERIFY_FAIL
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert failed == ["FAIL  [free] route-equivalence: both construction routes identical for n <= 200"]

    def test_changed_substitution_fails_both_gates(self, monkeypatch, capsys):
        substitute = polys._substitute
        monkeypatch.setattr(polys, "_substitute", lambda n, h: bump(substitute(n, h)) if n == 137 else substitute(n, h))
        assert exact_claims() == (False, False)
        assert main(["verify", "--suite", "free"]) == EXIT_VERIFY_FAIL
        failed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert failed == ["FAIL  [free] route-equivalence", "FAIL  [free] ode-identity"]

    def test_broken_hermite_ladder_fails_both_gates_without_a_traceback(self, monkeypatch, capsys):
        def hermite_rows():
            for n, row in enumerate(_hermite_rows()):
                yield bump(row) if n == 138 else row

        monkeypatch.setattr(checks, "_hermite_rows", hermite_rows)
        assert exact_claims() == (False, False)
        assert main(["verify", "--suite", "free"]) == EXIT_VERIFY_FAIL
        failed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert failed == ["FAIL  [free] route-equivalence", "FAIL  [free] ode-identity"]
