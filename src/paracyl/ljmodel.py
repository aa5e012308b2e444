"""Harmonic bound-state model of a Lennard-Jones well.

Matching the L-J well depth to the displaced-oscillator energy shift gives
hbar omega = epsilon / gamma^2 with gamma^2 the (integer) number of bound
states; the levels are then E_m = (epsilon / gamma^2)(m + 1/2) for
m = -gamma^2 .. -1, and the level spacing epsilon / gamma^2 inverts to an
estimate of gamma^2 from an observed vibrational spacing.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

from .field import _check_gamma_sq
from .oscillator import OscillatorSpec

#: Position of the L-J minimum in units of sigma.
R_MIN_FACTOR = 2.0 ** (1.0 / 6.0)


@dataclass(frozen=True)
class LJSpec:
    """Well depth epsilon, length sigma, and bound-state count gamma_sq."""

    epsilon: float
    sigma: float
    gamma_sq: int

    def __post_init__(self) -> None:
        for name in ("epsilon", "sigma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite")
            # A subnormal value has fewer digits than a double: r_min and the levels would lose them silently.
            if v < sys.float_info.min:
                raise ValueError(f"{name} = {v!r} is subnormal (below {sys.float_info.min!r})")
        if not math.isfinite(R_MIN_FACTOR * self.sigma):
            raise ValueError(f"well minimum r_min = 2^(1/6) sigma overflows for sigma = {self.sigma!r}")
        _check_gamma_sq(self.gamma_sq)
        # The top level, -epsilon / (2 gamma_sq), is the smallest in size; compared exactly, in integers,
        # so a gamma_sq past the double range is no OverflowError.
        p, q = self.epsilon.as_integer_ratio()
        tiny_p, tiny_q = sys.float_info.min.as_integer_ratio()
        if p * tiny_q < tiny_p * 2 * self.gamma_sq * q:
            level = p / (2 * self.gamma_sq * q)
            raise ValueError(
                f"smallest level epsilon / (2 gamma_sq) = {level!r} is below the smallest normal double "
                f"{sys.float_info.min!r}: the levels would lose digits"
            )


def lj_potential(r: float, spec: LJSpec) -> float:
    """U(r) = 4 epsilon [(sigma/r)^12 - (sigma/r)^6].

    For epsilon above a quarter of the largest double, where 4 epsilon
    overflows, the bracket is scaled by epsilon first: both orders round the
    same exact product once, so U is finite wherever it is a double.
    """
    if not r > 0:
        raise ValueError("separation r must be positive")
    sr6 = (spec.sigma / r) ** 6
    if spec.epsilon > sys.float_info.max / 4.0:
        return 4.0 * (spec.epsilon * (sr6 * sr6 - sr6))
    return 4.0 * spec.epsilon * (sr6 * sr6 - sr6)


def lj_minimum(spec: LJSpec) -> tuple[float, float]:
    """The well minimum: (2^{1/6} sigma, -epsilon)."""
    return R_MIN_FACTOR * spec.sigma, -spec.epsilon


def fit_oscillator(spec: LJSpec, mu: float = 1.0, hbar: float = 1.0) -> OscillatorSpec:
    """Oscillator whose ladder matches the well: omega = epsilon / (gamma_sq hbar).

    The approximating well is centered at 2^{1/6} sigma; states map through
    x = r - 2^{1/6} sigma at the reporting layer.
    """
    if not mu > 0 or not hbar > 0:
        raise ValueError("mu and hbar must be positive")
    return OscillatorSpec(mu=mu, omega=spec.epsilon / (spec.gamma_sq * hbar), hbar=hbar)


def bound_levels(spec: LJSpec) -> list[tuple[int, float]]:
    """The gamma_sq bound levels (m, E_m), E_m = (epsilon/gamma^2)(m + 1/2).

    Each level is the exact ratio of two integers, epsilon = p / q times
    (2m + 1) over 2 gamma_sq, rounded once by int true division, which is
    correctly rounded: the ladder is the correctly-rounded image of an
    exactly even ladder with spacing epsilon / gamma_sq.
    """
    p, q = spec.epsilon.as_integer_ratio()
    g = spec.gamma_sq
    return [(m, p * (2 * m + 1) / (2 * g * q)) for m in range(-g, 0)]


def estimate_gamma_sq(epsilon: float, delta_e: float) -> tuple[int, float]:
    """Invert the spacing relation: gamma_sq ~ epsilon / delta_e.

    Returns the nearest positive integer and the rounding residual
    |epsilon/delta_e - gamma_sq|.  A spacing larger than the well depth is
    unphysical for this model; it clamps to gamma_sq = 1 with a warning.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive and finite")
    if not (math.isfinite(delta_e) and delta_e > 0):
        raise ValueError("delta_e must be positive and finite")
    ratio = epsilon / delta_e
    if not math.isfinite(ratio):
        raise ValueError(f"epsilon / delta_e overflows: {epsilon!r} / {delta_e!r}")
    if delta_e > epsilon:
        warnings.warn(
            f"level spacing {delta_e!r} exceeds well depth {epsilon!r}; clamping gamma_sq to 1",
            stacklevel=2,
        )
        return 1, abs(ratio - 1.0)
    g = max(1, round(ratio))
    return g, abs(ratio - g)


def harmonic_curve(r: float, spec: LJSpec, k: float) -> float:
    """Parabola -epsilon + k (r - 2^{1/6} sigma)^2 / 2 approximating the well."""
    if not (math.isfinite(k) and k > 0):
        raise ValueError("force constant k must be positive and finite")
    d = r - R_MIN_FACTOR * spec.sigma
    return -spec.epsilon + 0.5 * k * d * d


def curvature_matched_k(spec: LJSpec) -> float:
    """U''(r_min) = 72 epsilon / (2^{1/3} sigma^2), for comparison plots."""
    return 72.0 * spec.epsilon / (2.0 ** (1.0 / 3.0) * spec.sigma**2)
