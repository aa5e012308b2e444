"""Parabolic cylinder functions D_n(z) = P_n(z) e^{-z^2/4}, integer n >= 0.

P_n is monic with exact integer coefficients, built by two independent
routes that must agree coefficient-for-coefficient (``eval_D`` does not use
them; it runs the three-term recurrence of D_n in floats):

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
    """Evaluate D_n(z) at a float or an ndarray of floats.

    Runs D_{k+1} = z D_k - k D_{k-1} (DLMF 12.8.2) up from D_0 = e^{-z^2/4},
    giving 0.0 where that Gaussian underflows.  Orders above about 340, past
    a raised ``cap``, overflow doubles and raise FloatingPointError.
    """
    _check_order(n, cap)
    # e^{-z^2/4} is 0.0 in doubles past |z| = 54.6; clipping keeps inf * 0 out.
    t = np.clip(np.asarray(z, dtype=float), -100.0, 100.0)
    prev, cur = 0.0, np.exp(-(t * t) / 4.0)
    with np.errstate(over="raise"):
        for k in range(n):
            nxt = t * cur
            prev *= k  # D_{k-1} is not needed after this step: scale it in place
            nxt -= prev
            prev, cur = cur, nxt
    return cur + 0.0 if isinstance(z, np.ndarray) else float(cur) + 0.0  # + 0.0 turns -0.0 into 0.0


@lru_cache(maxsize=None)
def _pcf_derivatives(n: int) -> tuple[PolyZ, PolyZ, PolyZ]:
    p = _pcf_part(n).poly
    return p, poly_derivative(p), poly_derivative(poly_derivative(p))


def ode_residual(n: int, z: float, cap: int = DEGREE_CAP) -> float:
    """Residual D_n'' + (n + 1/2 - z^2/4) D_n at z, derivatives analytic.

    For D = P e^{-z^2/4} the second derivative is
    D'' = (P'' - z P' + (z^2/4 - 1/2) P) e^{-z^2/4}; evaluating that bracket
    from the exact polynomial factor keeps the check independent of any
    finite-difference stencil.
    """
    _check_order(n, cap)
    p, p1, p2 = _pcf_derivatives(n)
    quarter = z * z / 4.0
    bracket = poly_eval(p2, z) - z * poly_eval(p1, z) + (quarter - 0.5) * poly_eval(p, z)
    return (bracket + (n + 0.5 - quarter) * poly_eval(p, z)) * math.exp(-quarter)
