"""Acceptance suite.

The release gates are the records of ``paracyl.checks``, the registry that
``paracyl verify`` prints.  Each numbered test asserts on the records of one
claim and prints a PASS/FAIL line per gate (visible with ``pytest -s``).
``TOLERANCES`` pins every bound the registry compares against, so no gate
can be loosened without this file changing too.  Only what no registry check
covers is computed here: the convergence order of the eigen-residual and
the rational-exact L-J ladders.  The figure files are checked in
``tests/test_cli.py``.
"""

import math
from fractions import Fraction

import pytest

from paracyl.checks import field_suite, free_suite, lj_suite, minimum_correction
from paracyl.field import FieldSpec
from paracyl.grids import Grid1D
from paracyl.ljmodel import LJSpec, bound_levels, estimate_gamma_sq
from paracyl.oscillator import OscillatorSpec, hamiltonian_residual

ONES = OscillatorSpec()

TOLERANCES = {
    ("free", "table-fixture"): (),
    ("free", "route-equivalence"): (),
    ("free", "ode-identity"): (),
    ("free", "ode-residual"): (1e-08,),
    ("free", "orthonormality"): (1e-10,),
    ("free", "eigen-residual"): (1e-05,),
    ("free", "position-expectation"): (1e-10,),
    ("field", "branch-consistency"): (1e-12,),
    ("field", "field-eigen-residual"): (1e-05,),
    ("field", "displacement-identity"): (1e-09,),
    ("field", "minimum-correction"): (1e-08, 1e-14),
    ("lj", "ladder-shape"): (4e-16,),
    ("lj", "ladder-branch-equivalence"): (1e-12,),
    ("lj", "fit-identity"): (1e-14,),
    ("lj", "minimum-search"): (1e-08, 1e-10),
    ("lj", "spacing-inversion"): (),
}


@pytest.fixture(scope="module")
def registry():
    """The records of a default ``paracyl verify``, keyed by (suite, name)."""
    return {(r.suite, r.name): r for r in free_suite() + field_suite() + lj_suite()}


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def gate(record):
    report(f"[{record.suite}] {record.name}", record.ok, record.detail)


def gates(*keys):
    """A test whose claim the registry checks in full: it asserts the records ``keys``."""

    def test(registry):
        for key in keys:
            gate(registry[key])

    return test


test_01_closed_form_table_reproduction = gates(("free", "table-fixture"))
test_02_triple_route_equivalence = gates(("free", "route-equivalence"))
test_03_defining_equation_residual = gates(("free", "ode-identity"), ("free", "ode-residual"))
test_04_orthonormality = gates(("free", "orthonormality"))


def test_05_eigen_relation_residual_and_order(registry):
    gate(registry["free", "eigen-residual"])
    coarse, fine = Grid1D(-6.0, 6.0, 4e-3), Grid1D(-6.0, 6.0, 2e-3)
    orders = [math.log2(hamiltonian_residual(n, ONES, coarse) / hamiltonian_residual(n, ONES, fine)) for n in range(7)]
    ok = all(1.9 <= p <= 2.1 for p in orders)
    report("05 eigen-residual order", ok, f"orders {min(orders):.3f}..{max(orders):.3f} (window 1.9..2.1)")


test_06_position_expectation_vanishes = gates(("free", "position-expectation"))
test_07_field_branch_consistency = gates(("field", "branch-consistency"), ("field", "field-eigen-residual"))
test_08_displacement_identity = gates(("field", "displacement-identity"))


def test_09_corrected_potential_minimum():
    for fld, spec in [
        (FieldSpec(1.0, 1.0), ONES),
        (FieldSpec(1.3, 0.7), OscillatorSpec(mu=2.0, omega=1.5)),
        (FieldSpec(-1.0, 2.0), OscillatorSpec(mu=1.0, omega=3.0)),
    ]:
        gate(minimum_correction(fld, spec))


def test_10_lj_ladder(registry):
    for (suite, _), record in registry.items():
        if suite == "lj":
            gate(record)
    ok = True
    for g in range(1, 101):
        # the ladder is the exact rational ladder with spacing 1/g, rounded once
        energies = [e for _, e in bound_levels(LJSpec(1.0, 1.0, g))]
        ok = ok and energies == [float(Fraction(2 * m + 1, 2 * g)) for m in range(-g, 0)]
        ok = ok and estimate_gamma_sq(1.0, 1.0 / g)[1] == abs(1.0 / (1.0 / g) - g)
    report("10 lj-ladder", ok, "ladders for gamma^2 = 1..100 rational-exact, inversion residuals exact")


def test_12_gate_tolerances_are_pinned(registry):
    assert {key: record.tol for key, record in registry.items()} == TOLERANCES
