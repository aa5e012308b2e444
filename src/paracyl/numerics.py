"""Quadrature against the Gaussian weight, uniform grids and a minimizer.

This is the verification engine for the analytic claims made elsewhere in
the package: Gauss-Hermite rules evaluate the weighted inner products,
``Grid1D`` spans the grids on which the kinetic operator is applied by a
central stencil, and a golden-section search provides an independent
minimizer for potential curves.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

SQRT_PI = math.sqrt(math.pi)

#: Largest supported rule size.  A resource guard: ``hermgauss`` runs a dense
#: O(n^3) eigensolve and every built rule stays cached.  numpy documents the
#: rules as tested to 100 points; the tests check every size up to this one
#: against scipy.
MAX_RULE_POINTS = 256


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integrals against the weight e^{-t^2}.

    ``_id`` names the rule in the keys of ``_COLUMNS``, the store of the
    folded ``Eigenstate`` columns ``overlap`` evaluates on the rule (see
    ``_column``); a pickled or copied rule gets a new id.
    """

    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    #: Read-only ndarray copies of ``nodes`` and ``weights``, and e^{t^2/2} at
    #: the nodes (the factor ``overlap`` folds into each state), built once.
    node_array: np.ndarray = field(init=False, repr=False, compare=False)
    weight_array: np.ndarray = field(init=False, repr=False, compare=False)
    fold_array: np.ndarray = field(init=False, repr=False, compare=False)
    _id: int = field(init=False, repr=False, compare=False)

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
        t = np.array(self.nodes, dtype=float)
        for name, array in (
            ("node_array", t),
            ("weight_array", np.array(self.weights, dtype=float)),
            ("fold_array", np.exp(0.5 * t * t)),
        ):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "_id", next(_RULE_IDS))

    def __len__(self) -> int:
        return len(self.nodes)

    def __reduce__(self):
        # Pickle and copy the nodes and weights; the arrays and the id are new.
        return type(self), (self.nodes, self.weights)


class _BudgetLRU:
    """Least recently used values within a budget of charges (bytes).

    ``put`` keeps a value with the charge the caller gives it and drops the
    least recent values while the charges exceed the budget; a value charged
    more than the whole budget is not kept.  ``nbytes`` is the sum of the
    charges kept.  Callers hold ``lock`` around every call.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nbytes = 0
        self.lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        """The value kept under ``key``, now the most recent, or None."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key, value, charge: int) -> None:
        """Keep ``value`` under ``key`` as the most recent, in place of what the key held.

        Nothing changes if ``charge`` alone exceeds the budget.
        """
        if charge > self.budget:
            return
        old = self._entries.pop(key, None)
        self.nbytes += charge - (old[1] if old else 0)
        self._entries[key] = (value, charge)
        while self.nbytes > self.budget:
            self.nbytes -= self._entries.popitem(last=False)[1][1]


#: Bytes of stored overlap columns, all rules together: the 201 columns of a
#: pairwise Gram block of psi_0..psi_200 on the 256-point rule fit.
_COLUMN_BUDGET = 2**19
_COLUMNS = _BudgetLRU(_COLUMN_BUDGET)
_RULE_IDS = itertools.count()


def _column(rule: QuadratureRule, state, s: float) -> np.ndarray:
    """The folded column state(node_array / s) * fold_array of an ``Eigenstate``, read-only exactly when it is finite.

    Columns are kept in ``_COLUMNS`` under (rule id, s, the state's
    ``_column_key``), charged ``sys.getsizeof`` each, so equal states share
    one and a hit hashes and compares only plain numbers.  A column is
    checked finite once, when it is made, and a non-finite one is returned
    writeable and never kept, so a hit needs no check.  The state is
    evaluated outside the lock, so two threads that miss on one key may both
    evaluate it, with equal results.
    """
    key = (rule._id, s, state._column_key)
    with _COLUMNS.lock:
        values = _COLUMNS.get(key)
    if values is not None:
        return values
    values = state(rule.node_array / s) * rule.fold_array
    if np.isfinite(values).all():
        values.flags.writeable = False
        with _COLUMNS.lock:
            _COLUMNS.put(key, values, sys.getsizeof(values))
    return values


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


def gauss_hermite_rule(n: int) -> QuadratureRule:
    """N-point Gauss-Hermite rule, exact for polynomial degree <= 2N - 1.

    The rule is numpy's ``hermgauss``, which follows Golub & Welsch (Math.
    Comp. 23, 1969): the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the Hermite recurrence, polished by one Newton step on the
    normalized recurrence; nodes and weights are then symmetrized and the
    weights rescaled to sum to sqrt(pi).  Every rule is validated once as a
    ``QuadratureRule`` and cached.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("rule size must be an int")
    if not 1 <= n <= MAX_RULE_POINTS:
        raise ValueError(f"rule size must be in 1..{MAX_RULE_POINTS}")
    return _build_rule(n)


@lru_cache(maxsize=None)
def _build_rule(n: int) -> QuadratureRule:
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    return QuadratureRule(tuple(nodes.tolist()), tuple(weights.tolist()))


def _check_finite(fv, gv, rule: QuadratureRule) -> None:
    """A ``ValueError`` naming the first node where ``fv`` or ``gv`` is not finite."""
    bad = ~(np.isfinite(fv) & np.isfinite(gv))
    if bad.any():
        raise ValueError(f"non-finite integrand value at node {rule.nodes[int(np.argmax(bad))]!r}")


def _mirror_sum(fv, gv, rule: QuadratureRule) -> float:
    """Sum_i w_i fv_i gv_i over the rule's nodes; a scalar factor is broadcast.

    The terms v_i are summed in mirror pairs: numpy's pairwise sum of
    v_i + v_{n-1-i}, halved.  On a symmetric rule every pair of an exactly
    odd integrand is exactly 0.0, and so is the middle node, so odd
    integrands (``<x>``, overlaps of opposite parity) give exactly 0.0.  On
    any rule it is the same sum in another order, at O(n) numpy cost and
    within a few times (n/8 + log2 n) eps sum |v_i| of the exact sum, the
    bound of numpy's blocked pairwise summation (Higham, SIAM J. Sci.
    Comput. 14, 1993).  ``np.add.reduce`` with ``axis=None`` is the
    reduction ``np.sum`` runs, in the same pairwise order, without its
    Python-level argument handling.  The values are not checked here (see
    ``_check_finite``).
    """
    v = rule.weight_array * fv * gv
    return float(np.add.reduce(v + v[::-1], axis=None)) / 2.0


def _order(state) -> int | None:
    """The integer ``n`` of an eigenstate-like argument, else None."""
    n = getattr(state, "n", None)
    return n if isinstance(n, int) and not isinstance(n, bool) else None


def _sized_rule(k_min: int, rule: QuadratureRule | None) -> QuadratureRule:
    """``rule``, checked to hold at least ``k_min`` points, or the smallest 64-, 128- or 256-point rule that does.

    A k-point rule integrates psi_i psi_j exactly while i + j <= 2k - 1, so
    three default rules serve every order (``gauss_hermite_rule`` rejects more).
    """
    if rule is None:
        return gauss_hermite_rule(max(64, 1 << (k_min - 1).bit_length()))
    if len(rule) < k_min:
        raise ValueError(f"a {len(rule)}-point rule is not exact here: at least {k_min} points are needed")
    return rule


def overlap(a, b, scale: float, rule: QuadratureRule | None = None) -> float:
    """Integral of a(x) b(x) dx for states decaying like e^{-scale x^2 / 2}.

    Substitutes t = sqrt(scale) x and folds one half of the quadrature
    weight into each factor (the rule's ``fold_array``, e^{t^2/2} at its
    nodes), so each mapped factor stays O(1) over the node range.  ``scale``
    is mu*omega/hbar for oscillator eigenstates.  ``a`` and ``b`` are each
    called at most once, with the ndarray of mapped nodes x = t /
    sqrt(scale), and must return their values there.  ``scale`` must be
    positive and finite: a ``ValueError`` otherwise.

    When both arguments carry an integer order ``n`` (as ``Eigenstate``
    does), the rule must hold at least (i + j)//2 + 1 points, which makes the
    result exact: ``rule=None`` picks the 64-, 128- or 256-point rule, the
    smallest that holds them (see ``_sized_rule``), and a smaller explicit
    rule is a ``ValueError``.  For any other callable, ``ShiftedState``
    included, the order is unknown, ``rule=None`` means the 64-point rule,
    and the result is exact only if that rule integrates the product
    exactly.  Mirror-pair summation (see ``_mirror_sum``, which also gives
    its error bound) makes overlaps of opposite parity exactly 0.0 on a
    symmetric rule.

    An ``Eigenstate`` is evaluated once per rule and scale while its folded
    column stays in ``_COLUMNS``: a later overlap of an equal state on the
    same rule reads it, so a Gram block of M eigenstates costs M
    evaluations, not M(M + 1).  The store, a ``_BudgetLRU`` filled by
    ``_column``, charges each column its ``sys.getsizeof`` within
    ``_COLUMN_BUDGET`` bytes over all rules (512 KiB: 242 columns of a
    256-point rule), least recent dropped first.  A column is looked up by
    the state's plain-number key (its type, n and the spec's type, mu,
    omega and hbar), so a read runs no Python-level ``__hash__`` or
    ``__eq__`` even when the states are fresh but equal objects.  Every
    other argument (plain callables, ``ShiftedState``, user classes with an
    ``n``) is called once per overlap.  The values are the same either way,
    bit for bit.

    A stored column was checked finite when it was made, so an overlap of
    two stored columns runs no check and only forms and sums the products.
    When a factor did not come from the store, both are checked, and a
    non-finite value is a ``ValueError`` naming the first node where either
    factor has one.
    """
    if not 0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    i, j = _order(a), _order(b)
    if i is not None and j is not None:
        rule = _sized_rule((i + j) // 2 + 1, rule)
    elif rule is None:
        rule = gauss_hermite_rule(64)
    s = math.sqrt(scale)
    fv, f_finite = _folded(a, rule, s)
    gv, g_finite = _folded(b, rule, s)
    if not (f_finite and g_finite):
        _check_finite(fv, gv, rule)
    return _mirror_sum(fv, gv, rule) / s


def _folded(state, rule: QuadratureRule, s: float) -> tuple[np.ndarray, bool]:
    """state(node_array / s) * fold_array, and whether it is known to be finite.

    The column of an ``Eigenstate`` (the one argument that carries a
    ``_column_key``) comes from ``_COLUMNS``; any other argument is called
    once, and its finiteness is left to the caller to check.
    """
    if hasattr(state, "_column_key"):
        values = _column(rule, state, s)
        return values, not values.flags.writeable
    return state(rule.node_array / s) * rule.fold_array, False


def golden_section_minimize(f, lo: float, hi: float):
    """Minimize a unimodal f on the finite bracket [lo, hi]; returns (x_min, f(x_min)).

    Golden-section narrows the bracket to width 1e-6, or until its state
    (a, b, c, d) repeats, from which it would cycle without narrowing (near
    1e11 adjacent doubles are 1.5e-5 apart); a final parabolic
    interpolation through the bracket triple then refines the minimizer
    well below the noise-flattened region that limits pure section search
    in double precision.
    """
    if not math.isfinite(hi - lo):
        raise ValueError("needs finite lo, hi and hi - lo")
    if not hi > lo:
        raise ValueError("needs hi > lo")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    seen = set()
    while b - a > 1e-6 and (a, b, c, d) not in seen:
        seen.add((a, b, c, d))
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
    f0, f2 = f(x0), f(x2)
    num = (x1 - x0) ** 2 * (f1 - f2) - (x1 - x2) ** 2 * (f1 - f0)
    den = (x1 - x0) * (f1 - f2) - (x1 - x2) * (f1 - f0)
    if den == 0.0:
        return x1, f1
    xv = x1 - 0.5 * num / den
    if not (x0 <= xv <= x2):
        return x1, f1
    return xv, f(xv)
