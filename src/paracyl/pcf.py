"""Parabolic cylinder functions D_n(z) = P_n(z) e^{-z^2/4}, integer n >= 0.

P_n is monic with exact integer coefficients, so D_n evaluates stably for
any n and z without floating-point recurrences.  Two independent
constructions are provided and must agree coefficient-for-coefficient:

* substitution through the Hermite polynomials,
  P_n(z) = 2^{-n/2} H_n(z / sqrt(2)), carried out exactly (the power of
  sqrt(2) cancels against the Hermite coefficients, leaving integers);
* a Rodrigues-style route, D_n(z) = (-1)^n e^{+z^2/4} d^n/dz^n e^{-z^2/2}.

Note the sign in the Rodrigues prefactor: it must be e^{+z^2/4}.  With
e^{-z^2/4} the n = 1 case would come out as z e^{-3 z^2/4}, which does not
solve the defining equation y'' + (n + 1/2 - z^2/4) y = 0.  The tests pin
this down against the n = 0..5 closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polys import (
    DEGREE_CAP,
    ONE,
    PolyZ,
    _check_order,
    _hermite_coeffs,
    _poly_mul_t,
    _poly_scale,
    _poly_sub,
    poly_derivative,
    poly_eval,
)


@dataclass(frozen=True)
class PcfPolyPart:
    """The monic polynomial factor P_n of D_n(z) = P_n(z) e^{-z^2/4}."""

    poly: PolyZ
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("index must be non-negative")
        if self.poly.degree != self.index or self.poly.leading_coefficient != 1:
            raise ValueError("polynomial factor must be monic of degree equal to the index")
        for k, c in enumerate(self.poly.coeffs):
            if (self.index - k) % 2 and c:
                raise ValueError("polynomial factor must have parity (-1)^index")


@lru_cache(maxsize=None)
def _pcf_part(n: int) -> PcfPolyPart:
    coeffs = []
    for k, c in enumerate(_hermite_coeffs(n)):
        if c == 0:
            coeffs.append(0)
            continue
        q, r = divmod(c, 2 ** ((n + k) // 2))
        if r:
            raise AssertionError("Hermite-to-cylinder substitution produced a non-integer coefficient")
        coeffs.append(q)
    return PcfPolyPart(PolyZ(tuple(coeffs)), n)


def pcf_poly(n: int, cap: int = DEGREE_CAP) -> PcfPolyPart:
    """P_n obtained from H_n through the exact z/sqrt(2) substitution.

    The order is checked against ``cap`` on every call; the factor itself is
    built and validated once per n.
    """
    _check_order(n, cap)
    return _pcf_part(n)


def pcf_rodrigues_poly(n: int, cap: int = DEGREE_CAP) -> PcfPolyPart:
    """P_n from repeated differentiation of e^{-z^2/2}.

    The cofactor of e^{-z^2/2} evolves as r -> r' - z r from r = 1, and
    e^{+z^2/4} d^n/dz^n e^{-z^2/2} = r_n(z) e^{-z^2/4}, so P_n = (-1)^n r_n.
    """
    _check_order(n, cap)
    r = ONE
    for _ in range(n):
        r = _poly_sub(poly_derivative(r), _poly_mul_t(r))
    return PcfPolyPart(r if n % 2 == 0 else _poly_scale(r, -1), n)


def eval_D(n: int, z, cap: int = DEGREE_CAP):
    """Evaluate D_n(z) = P_n(z) e^{-z^2/4} at a float or an ndarray of floats.

    Underflows gracefully to 0.0 once the Gaussian factor is below the
    smallest positive double, so huge |z| never overflows through P_n.
    """
    part = pcf_poly(n, cap)
    if isinstance(z, np.ndarray):
        z = np.asarray(z, dtype=float)
        # Where the Gaussian underflows, P_n may overflow and the product be
        # nan; those points are set to 0.0 as in the scalar branch below.
        with np.errstate(over="ignore", invalid="ignore"):
            gauss = np.exp(-(z * z) / 4.0)
            values = poly_eval(part.poly, z) * gauss
        values[gauss == 0.0] = 0.0
        return values
    gauss = math.exp(-(z * z) / 4.0)
    if gauss == 0.0:
        return 0.0
    return poly_eval(part.poly, z) * gauss


def ode_residual(n: int, z: float, cap: int = DEGREE_CAP) -> float:
    """Residual D_n'' + (n + 1/2 - z^2/4) D_n at z, derivatives analytic.

    For D = P e^{-z^2/4} the second derivative is
    D'' = (P'' - z P' + (z^2/4 - 1/2) P) e^{-z^2/4}; evaluating that bracket
    from the exact polynomial factor keeps the check independent of any
    finite-difference stencil.
    """
    p = pcf_poly(n, cap).poly
    p1 = poly_derivative(p)
    p2 = poly_derivative(p1)
    quarter = z * z / 4.0
    bracket = poly_eval(p2, z) - z * poly_eval(p1, z) + (quarter - 0.5) * poly_eval(p, z)
    return (bracket + (n + 0.5 - quarter) * poly_eval(p, z)) * math.exp(-quarter)
