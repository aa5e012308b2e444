"""The traced surface: the names the benchmark's tracer wraps.

``perfbench/tracer.py`` wraps every function in ``paracyl.__all__`` and the
``__call__`` of ``Eigenstate`` and ``ShiftedState``.  Pinning both here makes
any change to what a traced benchmark run sees show up as a test failure.
"""

import pytest

import paracyl

PUBLIC = [
    "DEGREE_CAP",
    "Eigenstate",
    "FieldSpec",
    "Grid1D",
    "LJSpec",
    "OscillatorSpec",
    "PcfPolyPart",
    "PolyZ",
    "QuadratureRule",
    "R_MIN_FACTOR",
    "ShiftedState",
    "bound_levels",
    "curvature_matched_k",
    "energy",
    "energy_shifted",
    "estimate_gamma_sq",
    "eval_D",
    "eval_psi",
    "eval_psi_shifted",
    "expectation_x",
    "expectation_x_shifted",
    "fd_second_derivative",
    "field_hamiltonian_residual",
    "fit_oscillator",
    "gamma_of",
    "gauss_hermite_rule",
    "golden_section_minimize",
    "hamiltonian_residual",
    "harmonic_curve",
    "hermite_recurrence",
    "hermite_rodrigues",
    "integer_branch_spectrum",
    "lj_minimum",
    "lj_potential",
    "norm_const",
    "ode_residual",
    "overlap",
    "pcf_poly",
    "pcf_rodrigues_poly",
    "poly_derivative",
    "poly_eval",
    "potential_minimum",
    "weighted_inner_product",
]


def test_all_is_pinned():
    assert sorted(paracyl.__all__) == PUBLIC


@pytest.mark.parametrize("cls", [paracyl.Eigenstate, paracyl.ShiftedState])
def test_state_types_define_their_own_call(cls):
    assert "__call__" in vars(cls)
