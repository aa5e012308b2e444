"""The oscillator in a uniform electric field.

Adding the linear term q E x to the harmonic potential shifts the argument
of the parabolic cylinder functions by 2 gamma, where
gamma = q E / sqrt(2 mu hbar omega^3).  Two solution families follow:

* a continuous-gamma^2 branch, E_n = hbar omega (n + 1/2 - gamma^2), with
  states N_n D_n(z + 2 gamma);
* an integer branch valid when gamma^2 = 1, 2, 3, ..., where the spectrum
  keeps the free-oscillator form E_m = hbar omega (m + 1/2) for every
  integer m >= -gamma^2, realized by the same states with index
  m + gamma^2.

For integer gamma^2 the two families describe the same ladder, re-indexed
by m = n - gamma^2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .oscillator import OscillatorSpec, _grid_residual, _x_mean, norm_const
from .pcf import eval_D
from .polys import _check_int, _check_order, _check_quantum_number

if TYPE_CHECKING:
    from .grids import Grid1D
    from .numerics import QuadratureRule


@dataclass(frozen=True)
class FieldSpec:
    """Charge q and uniform field magnitude; either sign is allowed."""

    q: float
    efield: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.q) and math.isfinite(self.efield)):
            raise ValueError("charge and field must be finite")
        if not math.isfinite(self.q * self.efield):
            raise ValueError("the product q E of charge and field overflows")


def _field_unit(spec: OscillatorSpec) -> float:
    """sqrt(2 mu hbar omega^3), the q E at which gamma = 1.

    A ValueError if it overflows or underflows to 0, or if the radicand or
    either of its factors 2 mu hbar and omega^3 is subnormal, where the
    result would silently lose digits.
    """
    scale = 2.0 * spec.mu * spec.hbar
    try:
        cube = spec.omega**3
    except OverflowError:
        cube = math.inf
    unit = math.sqrt(scale * cube)
    message = f"derived field unit sqrt(2 mu hbar omega^3) = {unit!r}"
    if not (math.isfinite(unit) and unit > 0):
        raise ValueError(f"{message} is out of the double range")
    if min(scale, cube, scale * cube) < sys.float_info.min:
        raise ValueError(f"{message} loses digits: 2 mu hbar omega^3 or a factor of it is subnormal")
    return unit


def _check_gamma_sq(gamma_sq) -> None:
    """A ValueError unless ``gamma_sq`` is a positive int (a bool is not one)."""
    if not isinstance(gamma_sq, int) or isinstance(gamma_sq, bool) or gamma_sq < 1:
        raise ValueError("gamma_sq must be a positive integer")


def gamma_of(field: FieldSpec, spec: OscillatorSpec) -> float:
    """Dimensionless coupling gamma = q E / sqrt(2 mu hbar omega^3)."""
    gamma = field.q * field.efield / _field_unit(spec)
    if not math.isfinite(gamma * gamma):
        raise ValueError("the coupling gamma^2 overflows for this field and oscillator")
    return gamma


def energy_shifted(n: int, gamma: float, spec: OscillatorSpec) -> float:
    """Continuous-branch energy E_n = hbar omega (n + 1/2 - gamma^2).

    A TypeError for a non-int n, a ValueError if it overflows.
    """
    _check_quantum_number(n)
    e = spec.hbar * spec.omega * (n + 0.5 - gamma * gamma)
    if not math.isfinite(e):
        raise ValueError(f"energy E_{n} = hbar omega (n + 1/2 - gamma^2) overflows")
    return e


@dataclass(frozen=True)
class ShiftedState:
    """A displaced eigenstate N_k D_k(z + 2 gamma), k = pcf_index.

    ``m`` is the spectral label: equal to pcf_index on the continuous
    branch, and m = pcf_index - gamma^2 (possibly negative) on the integer
    branch.  pcf_index is checked against ``DEGREE_CAP`` when the state is
    built, as an ``Eigenstate`` checks its n, so ``overlap`` never sizes a
    rule for an order above it.
    """

    m: int
    gamma: float
    spec: OscillatorSpec
    pcf_index: int

    def __post_init__(self) -> None:
        _check_int(self.m)
        _check_int(self.pcf_index)
        if self.pcf_index < 0:
            raise ValueError("pcf_index must be non-negative")
        _check_order(self.pcf_index)
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")

    @classmethod
    def continuous(cls, n: int, gamma: float, spec: OscillatorSpec) -> "ShiftedState":
        return cls(m=n, gamma=gamma, spec=spec, pcf_index=n)

    @classmethod
    def integer_branch(cls, m: int, gamma_sq: int, spec: OscillatorSpec) -> "ShiftedState":
        _check_gamma_sq(gamma_sq)
        if m + gamma_sq < 0:
            raise ValueError("integer branch requires m + gamma_sq >= 0")
        return cls(m=m, gamma=math.sqrt(gamma_sq), spec=spec, pcf_index=m + gamma_sq)

    def __call__(self, x: float) -> float:
        """N_k D_k(sqrt(2 mu omega / hbar) x + 2 gamma) with k = pcf_index."""
        s, k = self.spec, self.pcf_index
        return norm_const(k, s) * eval_D(k, s.z_scale * x + 2.0 * self.gamma)

    @property
    def charge_field_product(self) -> float:
        """q E consistent with this state's gamma."""
        return self.gamma * _field_unit(self.spec)

    @property
    def x_center(self) -> float:
        """Displaced well center, -q E / (mu omega^2)."""
        s = self.spec
        return -self.charge_field_product / (s.mu * s.omega**2)


def expectation_x_shifted(state: ShiftedState, rule: QuadratureRule | None = None) -> float:
    """<x> by quadrature; equals -q E / (mu omega^2) for every index.

    The integral runs over u = x - x_center, where the state is a polynomial
    times the Gaussian of the rule, so a rule of pcf_index + 1 points or
    more is exact: ``rule=None`` picks the 64-, 128- or 256-point rule, the
    smallest that holds that many, and a smaller rule is a ``ValueError``.
    """
    return _x_mean(state, state.x_center, state.pcf_index, rule)


def integer_branch_spectrum(
    gamma_sq: int, m_max: int, spec: OscillatorSpec
) -> list[tuple[int, float, int]]:
    """Ladder (m, E_m, pcf_index) for m = -gamma_sq .. m_max.

    E_m = hbar omega (m + 1/2) and pcf_index = m + gamma_sq runs 0, 1, 2...
    A ValueError if a level overflows.
    """
    _check_gamma_sq(gamma_sq)
    if m_max < -gamma_sq:
        raise ValueError("empty range: m_max must be at least -gamma_sq")
    levels = [
        (m, spec.hbar * spec.omega * (m + 0.5), m + gamma_sq)
        for m in range(-gamma_sq, m_max + 1)
    ]
    for m, e, _ in (levels[0], levels[-1]):  # E_m is monotone in m
        if not math.isfinite(e):
            raise ValueError(f"energy E_{m} = hbar omega (m + 1/2) overflows")
    return levels


def potential_minimum(field: FieldSpec, spec: OscillatorSpec) -> tuple[float, float]:
    """Minimum of V(x) = mu omega^2 x^2 / 2 + q E x.

    x_min = -q E / (mu omega^2).  Substituting back gives
    e_min = -(q E)^2 / (2 mu omega^2); note the factor 2 in the
    denominator, which is what makes e_min = -hbar omega gamma^2 hold.
    """
    qe = field.q * field.efield
    x_min = -qe / (spec.mu * spec.omega**2)
    if qe * qe < sys.float_info.min:  # (q E)^2 is subnormal or 0: e_min = q E x_min / 2 keeps its digits
        e_min = 0.5 * qe * x_min
    else:
        e_min = -(qe * qe) / (2.0 * spec.mu * spec.omega**2)
    if not (math.isfinite(x_min) and math.isfinite(e_min)):
        raise ValueError("the potential minimum overflows for this field and oscillator")
    return x_min, e_min


def field_hamiltonian_residual(state: ShiftedState, e: float, grid: Grid1D) -> float:
    """Max-norm residual of (H_field - E) Psi over the grid interior.

    H_field carries the potential mu omega^2 x^2 / 2 + q E x with q E
    reconstructed from the state's gamma.  The grid must cover the
    displaced well center to +/- 6 oscillator lengths.  The stencil, its
    operation order and its pinned rounding bound are those of
    ``hamiltonian_residual``, on the row D_k(z + 2 gamma), and the grid keeps
    its argument of D_k as that function does.
    """
    coverage = "grid must cover the displaced center to +/- 6 oscillator lengths"
    qe, center = state.charge_field_product, state.x_center
    return _grid_residual(state.pcf_index, 2.0 * state.gamma, state.spec, e, qe, center, grid, coverage)
