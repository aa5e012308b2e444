"""Harmonic-oscillator eigensystems built from parabolic cylinder functions.

The package constructs D_n(z) = P_n(z) e^{-z^2/4} with exact integer
polynomial factors, assembles the normalized oscillator eigenstates (free
and in a uniform electric field), verifies the analytic claims numerically,
and applies the field-shifted ladder to approximate the bound states of a
Lennard-Jones well.

The public names are imported on first use (PEP 562): ``import paracyl``
loads no submodule, and ``paracyl.eval_D`` loads ``pcf`` and what it needs,
not ``field`` or ``ljmodel``.  A name, once read, is kept in the package
namespace, so later reads are plain attribute lookups.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name under the module that defines it.
_HOMES = {
    "field": (
        "FieldSpec",
        "ShiftedState",
        "energy_shifted",
        "expectation_x_shifted",
        "field_hamiltonian_residual",
        "gamma_of",
        "integer_branch_spectrum",
        "potential_minimum",
    ),
    "ljmodel": (
        "LJSpec",
        "R_MIN_FACTOR",
        "bound_levels",
        "curvature_matched_k",
        "estimate_gamma_sq",
        "fit_oscillator",
        "harmonic_curve",
        "lj_minimum",
        "lj_potential",
    ),
    "grids": ("Grid1D",),
    "numerics": ("QuadratureRule", "gauss_hermite_rule", "golden_section_minimize", "overlap"),
    "oscillator": ("Eigenstate", "OscillatorSpec", "energy", "expectation_x", "hamiltonian_residual", "norm_const"),
    "pcf": ("PcfPolyPart", "eval_D", "pcf_poly", "pcf_rodrigues_poly"),
    "polys": ("DEGREE_CAP", "PolyZ", "hermite_recurrence", "hermite_rodrigues", "poly_derivative", "poly_eval"),
}

_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    """Import the home module of a public name, or a bare submodule, on first use."""
    home = _HOME_OF.get(name)
    if home is not None:
        value = getattr(import_module(f".{home}", __name__), name)
        globals()[name] = value
        return value
    if name in _HOMES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME_OF.keys())
