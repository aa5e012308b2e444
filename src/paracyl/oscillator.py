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
from typing import TYPE_CHECKING

import numpy as np

from .pcf import _Ladder, _walk_orders, eval_D
from .polys import DEGREE_CAP, _check_order, _check_quantum_number

if TYPE_CHECKING:
    from .grids import Grid1D
    from .numerics import QuadratureRule


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
    """1/sqrt(n!), correctly rounded, from integers sized to n!.

    With k = 64 + ceil(bits(n!) / 2), r = isqrt(floor(2^{2k} / n!)) is
    floor(2^k / sqrt(n!)) >= 2^64, so every rounding boundary of a double
    near 1/sqrt(n!) is a multiple of 2^-k.  For n >= 2, n! is not a square,
    and 1/sqrt(n!) and (2r + 1) / 2^{k+1} both lie strictly inside
    (r, r + 1) / 2^k, so they round alike; for n <= 1 both round to 1.0.
    The int true division rounds once, correctly.
    """
    f = math.factorial(n)
    k = 64 + (f.bit_length() + 1) // 2
    r = math.isqrt((1 << 2 * k) // f)
    return (2 * r + 1) / (1 << k + 1)


@dataclass(frozen=True)
class Eigenstate:
    """Callable eigenstate psi_n; takes a float or an ndarray of x values.

    Equal states hash equal, to ``hash((n, spec))``.  ``overlap`` of two
    states of one ``_table_key`` about centre 0 reads one entry of a Gram
    row, kept beside the table of every order that ``numerics._table``
    caches per rule, scale and key, one row per order, built on the first
    read of that order; every other overlap calls the state.  The key,
    computed once, is the state's type, and the spec's type, mu, omega and
    hbar.  It holds no object with a Python-level ``__hash__`` or ``__eq__``
    (for float parameters), and two keys are equal exactly when the specs
    are, so a lookup hashes and compares only plain numbers, and a missing
    table is built from the key.
    ``n`` is checked as ``norm_const`` checks it, when the state is built,
    so ``overlap`` never sizes a rule for an order above ``DEGREE_CAP``.
    """

    n: int
    spec: OscillatorSpec
    _table_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_quantum_number(self.n)
        _check_order(self.n)
        spec = self.spec
        object.__setattr__(self, "_table_key", (type(self), type(spec), spec.mu, spec.omega, spec.hbar))

    def __call__(self, x: float) -> float:
        """psi_n(x) = N_n D_n(sqrt(2 mu omega / hbar) x)."""
        return norm_const(self.n, self.spec) * eval_D(self.n, self.spec.z_scale * x)

    def _table(self, x: np.ndarray) -> np.ndarray:
        """psi_0..psi_``DEGREE_CAP`` of this state's spec at the ndarray x, one row per order.

        Row k is ``Eigenstate(k, spec)(x)`` bit for bit: the same N_k times
        the row ``eval_D`` gives, from one walk over every order.
        """
        spec = self.spec
        rows = _walk_orders(spec.z_scale * x)
        rows *= np.array([norm_const(k, spec) for k in range(DEGREE_CAP + 1)])[:, None]
        return rows


def expectation_x(n: int, spec: OscillatorSpec, rule: QuadratureRule | None = None) -> float:
    """<psi_n | x | psi_n> by quadrature; exactly 0.0 by parity.

    The rule must hold at least n + 1 points; ``rule=None`` picks the 64-,
    128- or 256-point rule, the smallest that does, and a smaller rule is a
    ``ValueError``.
    """
    return _x_mean(Eigenstate(n, spec), 0.0, n, rule)


@lru_cache(maxsize=2)
def _grid_arrays(grid: Grid1D, stiffness: float, qe: float, z_scale: float, shift: float):
    """Read-only grid points x, (x stiffness) x + qe x on the grid interior, and the ladder of D_n on the grid.

    The ladder's argument is z = z_scale x + shift, clipped to [-100, 100]
    as ``eval_D`` clips.  Keyed by what the arrays depend on, so equal keys
    give equal bits; the two most recent grids are kept, each with its own
    ``pcf._Ladder`` of at most ``pcf._CHECKPOINT_BYTES`` (6 MiB, counting
    the two interior rows a residual makes).
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
    return x, v, _Ladder(z)


def _grid_residual(
    k: int, shift: float, spec: OscillatorSpec, e: float, qe: float, center: float, grid: Grid1D, coverage: str
) -> float:
    """Max |(H - e) psi| on the grid interior for V = mu omega^2 x^2 / 2 + qe x, well at ``center``.

    psi = N_k d with d = D_k(z_scale x + shift), the row the grid's ladder
    holds, read in place (``_Ladder.row``).  With a = -(hbar^2 / 2 mu) / h^2,
    the -2 psi_i of the second difference is folded into the potential:

        r = a (d[:-2] + d[2:]) + (v_x - (e + 2 a)) d[1:-1]

    in that operation order (seven array passes, no division, no psi row),
    and the result is N_k max(max r, -min r).  Against the same stencil
    evaluated exactly on the same doubles, the error stays within the pinned
    8 u (|a| + max |v_x - e|) max |psi|, u = 2^-53 (measured up to 5.4 u).
    """
    if grid.npoints < 50:
        raise ValueError("grid too coarse: at least 50 points required")
    x, vx, ladder = _grid_arrays(grid, 0.5 * spec.mu * spec.omega**2, qe, spec.z_scale, shift)
    h = grid.h
    span = 6.0 * spec.length_scale
    slack = 1e-9 * spec.length_scale
    if x[0] > center - span + slack or x[-1] < center + span - slack:
        raise ValueError(coverage)
    nk = norm_const(k, spec)  # checks k before the ladder climbs
    d = ladder.row(k)
    a = -(spec.hbar**2 / (2.0 * spec.mu)) / (h * h)
    r = np.add(d[:-2], d[2:])
    r *= a
    w = np.subtract(vx, e + 2.0 * a)
    w *= d[1:-1]
    r += w
    return nk * float(max(r.max(), -r.min()))


def _x_mean(state, center: float, k: int, rule: QuadratureRule | None) -> float:
    """<x> over u = x - ``center``, where ``state`` is a degree-k polynomial times the rule's Gaussian.

    The state is called once, at x = center + u with u the rule's nodes over
    sqrt(mu omega / hbar); psi and x psi are folded and summed as ``overlap``
    does for two plain callables, with the same operations in the same order.
    ``numerics`` is imported here, by its one user in this module, so that
    loading ``oscillator`` does not load it.
    """
    from .numerics import _check_finite, _mirror_sum, _nodes, _sized_rule

    rule = _sized_rule(k + 1, rule)
    s = math.sqrt(state.spec.gaussian_scale)
    x = _nodes(rule, s, center)
    psi = state(x)
    fv = psi * rule.fold_array
    gv = (x * psi) * rule.fold_array
    _check_finite(fv, gv, rule)
    return _mirror_sum(fv, gv, rule) / s


def hamiltonian_residual(n: int, spec: OscillatorSpec, grid: Grid1D) -> float:
    """Max-norm eigen-residual of (H - E_n) psi_n on the grid interior.

    The kinetic term uses the central second difference, so the residual
    decays as O(h^2); its -2 psi_i is folded into the potential and N_k is
    applied to the max, with the pinned rounding bound ``_grid_residual``
    states.  The grid must span [-6 l, 6 l] with l the oscillator length and
    carry at least 50 points.  The grid points, the x part of the potential
    and the ladder of D_n on the grid are kept, read-only, for the two most
    recent grids.  The ladder keeps its cursor pair and a checkpoint pair
    every ``stride`` orders, the smallest stride that keeps it within 6 MiB:
    7 on a 12 001-point grid, 15 on 24 001 points, and no checkpoint on a
    grid of more than 112 334 points.  Each call reads its row there in
    place: on a warm grid no argument is built, no row is copied, and a
    climb from a kept checkpoint runs at most ``stride`` - 1 steps.
    """
    coverage = "grid must cover [-6, 6] oscillator lengths"
    return _grid_residual(n, 0.0, spec, energy(n, spec), 0.0, 0.0, grid, coverage)
