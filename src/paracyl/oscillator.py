"""The free 1D quantum harmonic oscillator in parabolic-cylinder form.

Energies E_n = hbar omega (n + 1/2); normalized eigenstates
psi_n(x) = N_n D_n(z) with z = sqrt(2 mu omega / hbar) x and
N_n = (mu omega / (hbar pi))^{1/4} / sqrt(n!).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .numerics import Grid1D, QuadratureRule, _check_finite, _mirror_sum, _sized_rule
from .pcf import _held_row, eval_D
from .polys import _check_order, _check_quantum_number


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
        # A subnormal value has fewer digits than a double: the energies would lose them silently.
        values = (("mu", self.mu), ("omega", self.omega), ("hbar", self.hbar), ("level spacing hbar omega", spacing))
        for name, v in values:
            if v < sys.float_info.min:
                raise ValueError(f"{name} = {v!r} is subnormal (below {sys.float_info.min!r})")

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
    """E_n = hbar omega (n + 1/2); a TypeError for a non-int n, a ValueError if it overflows."""
    _check_quantum_number(n)
    e = spec.hbar * spec.omega * (n + 0.5)
    if not math.isfinite(e):
        raise ValueError(f"energy E_{n} = hbar omega (n + 1/2) overflows")
    return e


def norm_const(n: int, spec: OscillatorSpec) -> float:
    """N_n = (mu omega / (hbar pi))^{1/4} / sqrt(n!), with 1/sqrt(n!) correctly rounded.

    A non-int n is a TypeError, and an n above ``DEGREE_CAP`` a ValueError.
    """
    _check_quantum_number(n)
    _check_order(n)
    return (spec.mu * spec.omega / (spec.hbar * math.pi)) ** 0.25 * _inv_sqrt_factorial(n)


@lru_cache(maxsize=None)
def _inv_sqrt_factorial(n: int) -> float:
    """1/sqrt(n!), correctly rounded: the int floor(2^1300 / sqrt(n!)), 677+ bits for n <= 200, over 2^1300."""
    return math.isqrt((1 << 2600) // math.factorial(n)) / (1 << 1300)


@dataclass(frozen=True)
class Eigenstate:
    """Callable eigenstate psi_n; takes a float or an ndarray of x values.

    Equal states hash equal, to ``hash((n, spec))``.  The overlap store
    keys a state's columns by ``_column_key``, computed once: the state's
    type, n, and the spec's type, mu, omega and hbar.  It holds no object
    with a Python-level ``__hash__`` or ``__eq__`` (for float parameters),
    and two keys are equal exactly when the states are, so a read from the
    store hashes and compares only plain numbers.  ``n`` is checked as
    ``norm_const`` checks it, when the state is built, so ``overlap`` never
    sizes a rule for an order above ``DEGREE_CAP``.
    """

    n: int
    spec: OscillatorSpec
    _column_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_quantum_number(self.n)
        _check_order(self.n)
        spec = self.spec
        key = (type(self), self.n, type(spec), spec.mu, spec.omega, spec.hbar)
        object.__setattr__(self, "_column_key", key)

    def __call__(self, x: float) -> float:
        """psi_n(x) = N_n D_n(sqrt(2 mu omega / hbar) x)."""
        return norm_const(self.n, self.spec) * eval_D(self.n, self.spec.z_scale * x)


def expectation_x(n: int, spec: OscillatorSpec, rule: QuadratureRule | None = None) -> float:
    """<psi_n | x | psi_n> by quadrature; exactly 0.0 by parity.

    The rule must hold at least n + 1 points; ``rule=None`` picks the 64-,
    128- or 256-point rule, the smallest that does, and a smaller rule is a
    ``ValueError``.
    """
    return _x_mean(Eigenstate(n, spec), 0.0, n, rule)


@lru_cache(maxsize=2)
def _grid_arrays(grid: Grid1D, stiffness: float, qe: float, z_scale: float, shift: float):
    """Read-only grid points x, (x stiffness) x + qe x on the grid interior, and the clipped z.

    z = z_scale x + shift, clipped to [-100, 100] as ``eval_D`` clips, is the
    argument of D_n on the grid and of the ladder kept for it.  Keyed by what
    the arrays depend on, so equal keys give equal bits.
    """
    x = grid.points()
    xi = x[1:-1]
    v = np.multiply(xi, stiffness)
    v *= xi
    v += qe * xi
    z = np.multiply(x, z_scale)
    z += shift
    np.clip(z, -100.0, 100.0, out=z)
    x.flags.writeable = v.flags.writeable = z.flags.writeable = False
    return x, v, z


def _grid_residual(
    k: int, shift: float, spec: OscillatorSpec, e: float, qe: float, center: float, grid: Grid1D, coverage: str
) -> float:
    """Max |(H - e) psi| on the grid interior for V = mu omega^2 x^2 / 2 + qe x, well at ``center``.

    psi = N_k D_k(z_scale x + shift) is N_k times the row the grid's ladder
    holds, read in place (``_held_row``).
    """
    if grid.npoints < 50:
        raise ValueError("grid too coarse: at least 50 points required")
    x, vx, z = _grid_arrays(grid, 0.5 * spec.mu * spec.omega**2, qe, spec.z_scale, shift)
    h = grid.h
    span = 6.0 * spec.length_scale
    slack = 1e-9 * spec.length_scale
    if x[0] > center - span + slack or x[-1] < center + span - slack:
        raise ValueError(coverage)
    psi = norm_const(k, spec) * _held_row(k, z)  # norm_const checks k first
    inner = psi[1:-1]
    # In place, in the operation order of
    #   -(hbar^2 / 2 mu) (psi[:-2] - 2 psi[1:-1] + psi[2:]) / h^2
    #   + (0.5 mu omega^2 x x + qe x - e) psi[1:-1]
    # so the values are those of that expression bit for bit.
    r = np.multiply(inner, 2.0)
    np.subtract(psi[:-2], r, out=r)
    r += psi[2:]
    r *= -(spec.hbar**2 / (2.0 * spec.mu))
    r /= h * h
    v = np.subtract(vx, e)
    v *= inner
    r += v
    return float(np.abs(r, out=r).max())


def _x_mean(state, center: float, k: int, rule: QuadratureRule | None) -> float:
    """<x> over u = x - ``center``, where ``state`` is a degree-k polynomial times the rule's Gaussian.

    The state is called once, at x = center + u with u the rule's nodes over
    sqrt(mu omega / hbar); psi and x psi are folded and summed as ``overlap``
    does for two plain callables, with the same operations in the same order.
    """
    _check_order(k)
    rule = _sized_rule(k + 1, rule)
    s = math.sqrt(state.spec.gaussian_scale)
    x = center + rule.node_array / s
    psi = state(x)
    fv = psi * rule.fold_array
    gv = (x * psi) * rule.fold_array
    _check_finite(fv, gv, rule)
    return _mirror_sum(fv, gv, rule) / s


def hamiltonian_residual(n: int, spec: OscillatorSpec, grid: Grid1D) -> float:
    """Max-norm eigen-residual of (H - E_n) psi_n on the grid interior.

    The kinetic term uses the central second difference, so the residual
    decays as O(h^2).  The grid must span [-6 l, 6 l] with l the oscillator
    length and carry at least 50 points.  The grid points, the x part of
    the potential and the clipped z argument of D_n are kept, read-only, for
    the two most recent grids.  The argument's ladder of D_n rows stays in
    ``pcf._LADDERS`` under its 4 MiB budget, with a checkpoint pair every
    12 orders, and each call reads its row there in place: on a warm grid
    no argument is built or compared, no row is copied, and a climb from a
    kept checkpoint runs at most 11 steps.
    """
    coverage = "grid must cover [-6, 6] oscillator lengths"
    return _grid_residual(n, 0.0, spec, energy(n, spec), 0.0, 0.0, grid, coverage)
