"""Uniform grids: the point count of lo, lo + step, ... <= hi, and ``Grid1D``.

The CLI's tables and the eigen-residual stencils share these grids.  They
need no quadrature, so a process that only prints a grid never loads
``numerics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def grid_count(lo: float, hi: float, step: float) -> int:
    """Points in lo, lo + step, ... <= hi (within 1e-6 of a step), step > 0."""
    ratio = (hi - lo) / step
    if not math.isfinite(ratio):
        raise ValueError("grid range and step must give a finite point count")
    nearest = round(ratio)
    if abs(ratio - nearest) <= 1e-6 * max(1.0, abs(ratio)):
        return int(nearest) + 1
    return int(math.floor(ratio)) + 1


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid lo, lo + h, ..., covering [lo, hi]."""

    lo: float
    hi: float
    h: float

    def __post_init__(self) -> None:
        if not (self.hi > self.lo):
            raise ValueError("grid needs hi > lo")
        if not (self.h > 0):
            raise ValueError("grid step must be positive")
        if self.npoints < 5:
            raise ValueError("grid needs at least 5 points for a central stencil")

    @property
    def npoints(self) -> int:
        return grid_count(self.lo, self.hi, self.h)

    def points(self) -> np.ndarray:
        return self.lo + self.h * np.arange(self.npoints, dtype=float)
