"""Quadrature against the Gaussian weight and finite-difference machinery.

This is the verification engine for the analytic claims made elsewhere in
the package: Gauss-Hermite rules evaluate the weighted inner products, a
central stencil applies the kinetic operator on grids, and a golden-section
search provides an independent minimizer for potential curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

SQRT_PI = math.sqrt(math.pi)

#: Largest supported rule size.  A resource guard: the dense Jacobi
#: eigensolve costs O(n^3) and every built rule stays cached.
MAX_RULE_POINTS = 256


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integrals against the weight e^{-t^2}."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    #: Read-only ndarray copies of ``nodes`` and ``weights``, built once.
    node_array: np.ndarray = field(init=False, repr=False, compare=False)
    weight_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.weights) or not self.nodes:
            raise ValueError("nodes and weights must be non-empty and of equal length")
        if any(b <= a for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValueError("nodes must be strictly increasing")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        mass = math.fsum(self.weights)
        if abs(mass - SQRT_PI) > 1e-12 * SQRT_PI:
            raise ValueError(f"total weight {mass!r} does not match sqrt(pi)")
        for name, values in (("node_array", self.nodes), ("weight_array", self.weights)):
            array = np.array(values, dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.nodes)


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
        return self.lo + self.h * np.arange(self.npoints)


def _orthonormal_hermite(k: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of the orthonormal Hermite polynomials (h_k, h_{k-1}) at t.

    The orthonormal recurrence keeps intermediate values bounded far better
    than the raw 2^n-leading-coefficient polynomials, which overflow doubles
    near n ~ 190.
    """
    below = np.zeros_like(t)
    cur = np.full_like(t, math.pi ** -0.25)
    for j in range(k):
        cur, below = (
            t * math.sqrt(2.0 / (j + 1)) * cur - math.sqrt(j / (j + 1)) * below,
            cur,
        )
    return cur, below


def _refine_roots(k: int, guesses: np.ndarray) -> np.ndarray:
    """Newton-polish sorted guesses into the k roots of H_k."""
    dcoef = math.sqrt(2.0 * k)
    x = guesses.astype(float)
    for _ in range(100):
        val, below = _orthonormal_hermite(k, x)
        step = val / (dcoef * below)
        x = x - step
        if np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(x))):
            val, below = _orthonormal_hermite(k, x)
            x = x - val / (dcoef * below)
            break
    else:
        raise RuntimeError(
            f"Newton refinement for the {k}-point rule did not converge in 100 iterations"
        )
    # Enforce the exact +/- symmetry of the root set (middle root -> 0).
    x = 0.5 * (x - x[::-1])
    if np.any(np.diff(x) <= 0):
        raise RuntimeError(f"root refinement for the {k}-point rule lost the interlacing order")
    return x


def gauss_hermite_rule(n: int) -> QuadratureRule:
    """N-point Gauss-Hermite rule, exact for polynomial degree <= 2N - 1.

    Nodes are the roots of H_n, found as in Golub & Welsch (Math. Comp. 23,
    1969): they are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix of the orthonormal recurrence (zero diagonal, off-diagonal
    sqrt(k / 2) for k = 1..n-1), then Newton-polished on that recurrence and
    symmetrized.  Weights come from the standard derivative formula,
    w_i = 1 / (n * h_{n-1}(x_i)^2) in orthonormal form.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("rule size must be an int")
    if not 1 <= n <= MAX_RULE_POINTS:
        raise ValueError(f"rule size must be in 1..{MAX_RULE_POINTS}")
    return _build_rule(n)


@lru_cache(maxsize=None)
def _build_rule(n: int) -> QuadratureRule:
    # eigvalsh reads only the lower triangle of the symmetric Jacobi matrix.
    jacobi_lower = np.diag(np.sqrt(0.5 * np.arange(1, n)), -1)
    roots = _refine_roots(n, np.linalg.eigvalsh(jacobi_lower))
    values, _ = _orthonormal_hermite(n - 1, roots)
    weights = 1.0 / (n * values**2)
    return QuadratureRule(tuple(float(x) for x in roots), tuple(float(w) for w in weights))


def weighted_inner_product(f, g, rule: QuadratureRule) -> float:
    """Sum_i w_i f(t_i) g(t_i); the e^{-t^2} weight is the rule's.

    ``f`` and ``g`` are each called once, with the rule's read-only
    ndarray of nodes, and return an array of values at them (a scalar is
    broadcast to every node).  The caller must already have folded the
    Gaussian weight out of the product f*g.  Summation uses fsum, so
    integrands that are exactly odd across the symmetric node set cancel to
    exactly zero.
    """
    fv, gv = f(rule.node_array), g(rule.node_array)
    bad = ~(np.isfinite(fv) & np.isfinite(gv))
    if bad.any():
        raise ValueError(f"non-finite integrand value at node {rule.nodes[int(np.argmax(bad))]!r}")
    return math.fsum((rule.weight_array * fv * gv).tolist())


def fd_second_derivative(f, x: float, h: float) -> float:
    """Central second-difference (f(x-h) - 2 f(x) + f(x+h)) / h^2, O(h^2)."""
    if not h > 0:
        raise ValueError("step h must be positive")
    return (f(x - h) - 2.0 * f(x) + f(x + h)) / (h * h)


def overlap(a, b, scale: float, rule: QuadratureRule | None = None) -> float:
    """Integral of a(x) b(x) dx for states decaying like e^{-scale x^2 / 2}.

    Substitutes t = sqrt(scale) x and folds one half of the quadrature
    weight into each factor, so each mapped factor stays O(1) over the node
    range.  ``scale`` is mu*omega/hbar for oscillator eigenstates.  ``a`` and
    ``b`` are each called once, with the ndarray of mapped nodes x = t /
    sqrt(scale), and must return their values there.
    """
    if not scale > 0:
        raise ValueError("scale must be positive")
    if rule is None:
        rule = gauss_hermite_rule(64)
    s = math.sqrt(scale)

    def fold(state):
        return lambda t: state(t / s) * np.exp(0.5 * t * t)

    return weighted_inner_product(fold(a), fold(b), rule) / s


def golden_section_minimize(f, lo: float, hi: float, xtol: float = 1e-6, polish: bool = True):
    """Minimize a unimodal f on [lo, hi]; returns (x_min, f(x_min)).

    Golden-section narrows the bracket to width ``xtol``; by default a final
    parabolic interpolation through the bracket triple then refines the
    minimizer well below the noise-flattened region that limits pure
    section search in double precision.
    """
    if not hi > lo:
        raise ValueError("needs hi > lo")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    if fc < fd:
        x0, x1, x2 = a, c, d
        f1 = fc
    else:
        x0, x1, x2 = c, d, b
        f1 = fd
    if not polish:
        return x1, f1
    f0, f2 = f(x0), f(x2)
    num = (x1 - x0) ** 2 * (f1 - f2) - (x1 - x2) ** 2 * (f1 - f0)
    den = (x1 - x0) * (f1 - f2) - (x1 - x2) * (f1 - f0)
    if den == 0.0:
        return x1, f1
    xv = x1 - 0.5 * num / den
    if not (x0 <= xv <= x2):
        return x1, f1
    return xv, f(xv)
