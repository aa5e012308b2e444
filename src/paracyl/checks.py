"""Check registry: one numerical check per claim of the paper.

``paracyl verify`` prints these records and ``tests/test_acceptance.py``
asserts on them.  Each record carries ``tol``, the pinned bounds its check
compares against (``()`` for an exact check), so a bound is written once:
where the detail text names a bound, it is formatted from that tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import tee

import numpy as np

from .field import (
    FieldSpec,
    ShiftedState,
    energy_shifted,
    expectation_x_shifted,
    field_hamiltonian_residual,
    gamma_of,
    integer_branch_spectrum,
    potential_minimum,
)
from .ljmodel import LJSpec, bound_levels, estimate_gamma_sq, fit_oscillator, lj_minimum, lj_potential
from .grids import Grid1D
from .numerics import gauss_hermite_rule, golden_section_minimize, overlap
from .oscillator import Eigenstate, OscillatorSpec, expectation_x, hamiltonian_residual
from .pcf import _ode_identity, _ode_residual, pcf_poly
from .polys import DEGREE_CAP, _hermite_rows, _pcf_rows, _rodrigues_rows

#: Closed forms of the first six polynomial factors, in monic form.
TABLE_POLYS = {
    0: (1,),
    1: (0, 1),
    2: (-1, 0, 1),
    3: (0, -3, 0, 1),
    4: (3, 0, -6, 0, 1),
    5: (0, 15, 0, -10, 0, 1),
}


@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str
    tol: tuple[float, ...]


def _bounded(suite: str, name: str, ok: bool, label: str, worst: float, tol: float) -> CheckResult:
    """A check of one worst-case deviation against its one bound."""
    return CheckResult(suite, name, ok, f"{label} {worst:.3e} (tol {tol:g})", (tol,))


def exact_claims() -> tuple[bool, bool]:
    """Walk the library's exact ladders once for n = 0..DEGREE_CAP.

    Returns whether both routes agree (H_n by recurrence and by Rodrigues,
    P_n by substitution and by Rodrigues), and whether every P_n satisfies
    the He_n equation exactly.
    """
    hermite, substituted = tee(_hermite_rows())
    ladders = zip(range(DEGREE_CAP + 1), hermite, _rodrigues_rows(2), _pcf_rows(substituted), _rodrigues_rows(1))
    routes = ode = True
    try:
        for n, h, h_rodrigues, p, p_rodrigues in ladders:
            routes = routes and h == h_rodrigues and p == p_rodrigues
            ode = ode and _ode_identity(n, p)
    except AssertionError:  # the substitution met a row that is not H_n: P_n was not built
        return False, False
    return routes, ode


def free_suite() -> list[CheckResult]:
    spec = OscillatorSpec()
    checks = []

    ok = all(pcf_poly(n).poly.coeffs == TABLE_POLYS[n] for n in range(6))
    checks.append(CheckResult("free", "table-fixture", ok, "P_0..P_5 match the closed forms exactly", ()))

    routes, ode = exact_claims()
    detail = f"both construction routes identical for n <= {DEGREE_CAP}"
    checks.append(CheckResult("free", "route-equivalence", routes, detail, ()))
    detail = f"P_n'' - z P_n' + n P_n == 0 exactly for n <= {DEGREE_CAP}"
    checks.append(CheckResult("free", "ode-identity", ode, detail, ()))

    tol = 1e-8
    zs = Grid1D(-6.0, 6.0, 0.05).points()
    worst = max(float(np.max(np.abs(_ode_residual(n, zs)))) for n in range(11))
    checks.append(_bounded("free", "ode-residual", worst < tol, "max residual", worst, tol))

    tol = 1e-10
    rule = gauss_hermite_rule(64)
    states = [Eigenstate(n, spec) for n in range(11)]
    worst = 0.0
    for i in range(11):
        for j in range(i, 11):
            val = overlap(states[i], states[j], spec.gaussian_scale, rule)
            worst = max(worst, abs(val - (1.0 if i == j else 0.0)))
    checks.append(_bounded("free", "orthonormality", worst < tol, "max |<i|j> - delta_ij|", worst, tol))

    tol = 1e-5
    grid = Grid1D(-6.0, 6.0, 1e-3)
    worst = max(hamiltonian_residual(n, spec, grid) for n in range(7))
    checks.append(_bounded("free", "eigen-residual", worst < tol, "max residual at h=1e-3", worst, tol))

    tol = 1e-10
    worst = max(abs(expectation_x(n, spec)) for n in range(11))
    checks.append(_bounded("free", "position-expectation", worst < tol, "max |<x>|", worst, tol))
    return checks


def field_suite(gamma_sq_values=(1, 2, 3, 4)) -> list[CheckResult]:
    spec = OscillatorSpec()
    checks = []

    # Relative to hbar omega times the largest level compared: gamma^2 = fl(sqrt(g))^2 is g to one ulp of g.
    tol = 1e-12
    worst = scale = 0.0
    for g in gamma_sq_values:
        gamma = math.sqrt(g)
        for _, e, idx in integer_branch_spectrum(g, g + 2, spec):
            worst = max(worst, abs(e - energy_shifted(idx, gamma, spec)))
            scale = max(scale, abs(e))
    checks.append(_bounded("field", "branch-consistency", worst <= tol * scale, "max ladder mismatch", worst, tol))

    tol = 1e-5
    worst = 0.0
    for g in gamma_sq_values:
        for m, e, _ in integer_branch_spectrum(g, -g + 2, spec):
            state = ShiftedState.integer_branch(m, g, spec)
            grid = Grid1D(state.x_center - 6.5, state.x_center + 6.5, 1e-3)
            worst = max(worst, field_hamiltonian_residual(state, e, grid))
    checks.append(_bounded("field", "field-eigen-residual", worst < tol, "max residual at h=1e-3", worst, tol))

    tol = 1e-9
    fld = FieldSpec(q=1.0, efield=1.0)
    gamma = gamma_of(fld, spec)
    target = -fld.q * fld.efield / (spec.mu * spec.omega**2)
    worst = max(
        abs(expectation_x_shifted(ShiftedState.continuous(n, gamma, spec)) - target) for n in range(6)
    )
    checks.append(
        _bounded("field", "displacement-identity", worst < tol, "max |<x> + qE/(mu omega^2)|", worst, tol)
    )

    checks.append(minimum_correction(fld, spec))
    return checks


def minimum_correction(fld: FieldSpec, spec: OscillatorSpec) -> CheckResult:
    """The analytic minimum of the field-shifted well against a numeric search."""
    tol = (1e-8, 1e-14)
    offset_tol, identity_tol = tol
    x_min, e_min = potential_minimum(fld, spec)
    qe = fld.q * fld.efield
    xg, eg = golden_section_minimize(
        lambda x: 0.5 * spec.mu * spec.omega**2 * x * x + qe * x, x_min - 2.0, x_min + 2.0
    )
    gamma = gamma_of(fld, spec)
    identity = abs(e_min + spec.hbar * spec.omega * gamma * gamma)
    dx, de = abs(xg - x_min), abs(eg - e_min)
    ok = dx < offset_tol and de < offset_tol and identity <= identity_tol * abs(e_min)
    detail = f"search offset {dx:.3e}/{de:.3e}, |e_min + hbar omega gamma^2| {identity:.3e}"
    return CheckResult("field", "minimum-correction", ok, detail, tol)


def lj_spec(epsilon: float = 1.0, sigma: float = 1.0, gamma_sq: int = 2) -> LJSpec:
    """The L-J suite's well; a ValueError if it is invalid or its minimum search would overflow."""
    spec = LJSpec(epsilon=epsilon, sigma=sigma, gamma_sq=gamma_sq)
    if not math.isfinite(2.0 * sigma):
        raise ValueError(f"the minimum search runs to r = 2 sigma, which overflows for sigma = {sigma!r}")
    return spec


def lj_suite(epsilon: float = 1.0, sigma: float = 1.0, gamma_sq: int = 2) -> list[CheckResult]:
    spec = lj_spec(epsilon, sigma, gamma_sq)
    checks = []

    tol = 4e-16
    levels = bound_levels(spec)
    spacing = epsilon / gamma_sq
    ok = len(levels) == gamma_sq and all(-epsilon < e < 0 for _, e in levels)
    if gamma_sq > 1:
        gaps = [b - a for (_, a), (_, b) in zip(levels, levels[1:])]
        ok = ok and max(abs(g - spacing) for g in gaps) <= tol * epsilon
    detail = f"{len(levels)} negative levels, spacing {format(spacing, '.12g')}"
    checks.append(CheckResult("lj", "ladder-shape", ok, detail, (tol,)))

    # Relative to epsilon, as above: both ladders round levels of up to epsilon in size.
    tol = 1e-12
    osc = fit_oscillator(spec)
    branch = integer_branch_spectrum(gamma_sq, -1, osc)
    worst = max(abs(e_lj - e_br) for (_, e_lj), (_, e_br, _) in zip(levels, branch))
    checks.append(_bounded("lj", "ladder-branch-equivalence", worst <= tol * epsilon, "max mismatch", worst, tol))

    # In integers: hbar omega gamma^2 may round past the largest double where epsilon does not.
    tol = 1e-14
    (a, b), (c, d), (p, q) = (v.as_integer_ratio() for v in (osc.hbar, osc.omega, epsilon))
    identity = abs(a * c * gamma_sq * q - p * b * d) / (b * d * q)
    detail = f"|hbar omega gamma^2 - epsilon| {identity:.3e}"
    checks.append(CheckResult("lj", "fit-identity", identity <= tol * epsilon, detail, (tol,)))

    # The search runs in reduced units x = r / sigma, u = U / epsilon, so its
    # absolute bracket and bounds measure the library at any sigma and epsilon.
    tol = (1e-8, 1e-10)
    x_tol, u_tol = tol
    r_min, u_min = lj_minimum(spec)
    xg, ug = golden_section_minimize(lambda x: lj_potential(x * sigma, spec) / epsilon, 0.8, 2.0)
    dx, du = abs(xg - r_min / sigma), abs(ug - u_min / epsilon)
    checks.append(CheckResult("lj", "minimum-search", dx < x_tol and du < u_tol, f"offsets {dx:.3e} / {du:.3e}", tol))

    ok = all(estimate_gamma_sq(epsilon, epsilon / g)[0] == g for g in range(1, 1001))
    checks.append(CheckResult("lj", "spacing-inversion", ok, "round trip exact for gamma_sq = 1..1000", ()))
    return checks
