"""The free 1D quantum harmonic oscillator in parabolic-cylinder form.

Energies E_n = hbar omega (n + 1/2); normalized eigenstates
psi_n(x) = N_n D_n(z) with z = sqrt(2 mu omega / hbar) x and
N_n = (mu omega / (hbar pi))^{1/4} / sqrt(n!).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Grid1D, QuadratureRule, overlap
from .pcf import eval_D


@dataclass(frozen=True)
class OscillatorSpec:
    """Physical parameters: reduced mass, angular frequency, hbar."""

    mu: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("mu", "omega", "hbar"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite")
        # gaussian_scale first: it is 0.0 whenever length_scale would divide by zero.
        for name in ("gaussian_scale", "z_scale", "length_scale"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"derived {name} = {v!r} is out of the double range")
        spacing = self.hbar * self.omega
        if not (math.isfinite(spacing) and spacing > 0):
            raise ValueError(f"level spacing hbar omega = {spacing!r} is out of the double range")

    @property
    def z_scale(self) -> float:
        """Map x -> z: z = sqrt(2 mu omega / hbar) x."""
        return math.sqrt(2.0 * self.mu * self.omega / self.hbar)

    @property
    def length_scale(self) -> float:
        """Characteristic length sqrt(hbar / (mu omega))."""
        return math.sqrt(self.hbar / (self.mu * self.omega))

    @property
    def gaussian_scale(self) -> float:
        """Decay rate c of the eigenstates, |psi_n| ~ e^{-c x^2 / 2}."""
        return self.mu * self.omega / self.hbar


def energy(n: int, spec: OscillatorSpec) -> float:
    """E_n = hbar omega (n + 1/2)."""
    if n < 0:
        raise ValueError("quantum number must be non-negative")
    return spec.hbar * spec.omega * (n + 0.5)


def norm_const(n: int, spec: OscillatorSpec) -> float:
    """N_n = (mu omega / (hbar pi))^{1/4} / sqrt(n!).

    Above n = 20 the factorial goes through lgamma to avoid building huge
    integers just to take a root.
    """
    if n < 0:
        raise ValueError("quantum number must be non-negative")
    base = (spec.mu * spec.omega / (spec.hbar * math.pi)) ** 0.25
    if n <= 20:
        return base / math.sqrt(math.factorial(n))
    return base * math.exp(-0.5 * math.lgamma(n + 1.0))


def eval_psi(n: int, spec: OscillatorSpec, x: float) -> float:
    """psi_n(x) = N_n D_n(sqrt(2 mu omega / hbar) x)."""
    return norm_const(n, spec) * eval_D(n, spec.z_scale * x)


@dataclass(frozen=True)
class Eigenstate:
    """Callable eigenstate psi_n; takes a float or an ndarray of x values."""

    n: int
    spec: OscillatorSpec

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("quantum number must be non-negative")

    def __call__(self, x: float) -> float:
        return eval_psi(self.n, self.spec, x)


def expectation_x(n: int, spec: OscillatorSpec, rule: QuadratureRule | None = None) -> float:
    """<psi_n | x | psi_n> by quadrature; zero by parity."""
    psi = Eigenstate(n, spec)
    return overlap(psi, lambda x: x * psi(x), spec.gaussian_scale, rule)


def _grid_residual(state, e: float, qe: float, center: float, grid: Grid1D, coverage: str) -> float:
    """Max |(H - e) psi| on the grid interior for V = mu omega^2 x^2 / 2 + qe x, well at ``center``."""
    spec = state.spec
    if grid.npoints < 50:
        raise ValueError("grid too coarse: at least 50 points required")
    x, h = grid.points(), grid.h
    span = 6.0 * spec.length_scale
    slack = 1e-9 * spec.length_scale
    if x[0] > center - span + slack or x[-1] < center + span - slack:
        raise ValueError(coverage)
    psi = state(x)
    potential = 0.5 * spec.mu * spec.omega**2 * x * x + qe * x
    kinetic = -(spec.hbar**2 / (2.0 * spec.mu)) * (psi[:-2] - 2.0 * psi[1:-1] + psi[2:]) / (h * h)
    return float(np.max(np.abs(kinetic + (potential[1:-1] - e) * psi[1:-1])))


def hamiltonian_residual(n: int, spec: OscillatorSpec, grid: Grid1D) -> float:
    """Max-norm eigen-residual of (H - E_n) psi_n on the grid interior.

    The kinetic term uses the central second difference, so the residual
    decays as O(h^2).  The grid must span [-6 l, 6 l] with l the oscillator
    length and carry at least 50 points.
    """
    coverage = "grid must cover [-6, 6] oscillator lengths"
    return _grid_residual(Eigenstate(n, spec), energy(n, spec), 0.0, 0.0, grid, coverage)
