"""Harmonic-oscillator eigensystems built from parabolic cylinder functions.

The package constructs D_n(z) = P_n(z) e^{-z^2/4} with exact integer
polynomial factors, assembles the normalized oscillator eigenstates (free
and in a uniform electric field), verifies the analytic claims numerically,
and applies the field-shifted ladder to approximate the bound states of a
Lennard-Jones well.
"""

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
from .ljmodel import (
    LJSpec,
    R_MIN_FACTOR,
    bound_levels,
    curvature_matched_k,
    estimate_gamma_sq,
    fit_oscillator,
    harmonic_curve,
    lj_minimum,
    lj_potential,
)
from .numerics import (
    Grid1D,
    QuadratureRule,
    gauss_hermite_rule,
    golden_section_minimize,
    overlap,
    weighted_inner_product,
)
from .oscillator import (
    Eigenstate,
    OscillatorSpec,
    energy,
    eval_psi,
    expectation_x,
    hamiltonian_residual,
    norm_const,
)
from .pcf import PcfPolyPart, eval_D, pcf_poly, pcf_rodrigues_poly
from .polys import (
    DEGREE_CAP,
    PolyZ,
    hermite_recurrence,
    hermite_rodrigues,
    poly_derivative,
    poly_eval,
)

__version__ = "0.1.0"

__all__ = [
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
    "expectation_x",
    "expectation_x_shifted",
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
    "overlap",
    "pcf_poly",
    "pcf_rodrigues_poly",
    "poly_derivative",
    "poly_eval",
    "potential_minimum",
    "weighted_inner_product",
]
