"""Quadrature against the Gaussian weight, and a minimizer.

This is the verification engine for the analytic claims made elsewhere in
the package: Gauss-Hermite rules evaluate the weighted inner products, and
a golden-section search provides an independent minimizer for potential
curves.  The uniform grids of the residual stencils and of the CLI's
tables live in ``grids``, which loads without this module.
"""

from __future__ import annotations

import math
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

    The hash, that of (nodes, weights), is computed once: a rule is a cheap
    key of ``_table``, and equal rules (copies, pickles) share its tables.
    """

    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    #: Read-only ndarray copies of ``nodes`` and ``weights``, and e^{t^2/2} at
    #: the nodes (the factor ``overlap`` folds into each state), built once.
    node_array: np.ndarray = field(init=False, repr=False, compare=False)
    weight_array: np.ndarray = field(init=False, repr=False, compare=False)
    fold_array: np.ndarray = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.weights) or not self.nodes:
            raise ValueError("nodes and weights must be non-empty and of equal length")
        if any(b <= a for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValueError("nodes must be strictly increasing")
        if not all(w > 0 for w in self.weights):
            raise ValueError("weights must be positive")
        mass = math.fsum(self.weights)
        if abs(mass - SQRT_PI) > 1e-12 * SQRT_PI:
            raise ValueError(f"total weight {mass!r} does not match sqrt(pi)")
        t = np.array(self.nodes, dtype=float)
        with np.errstate(over="ignore"):
            fold = np.exp(0.5 * t * t)
        far = ~np.isfinite(fold)
        if far.any():
            raise ValueError(f"e^{{t^2/2}} is not a finite double at node {self.nodes[int(np.argmax(far))]!r}")
        w = np.array(self.weights, dtype=float)
        for name, array in (("node_array", t), ("weight_array", w), ("fold_array", fold)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "_hash", hash((self.nodes, self.weights)))

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.nodes)

    def __reduce__(self):
        # Pickle and copy the nodes and weights; the arrays and the hash are rebuilt.
        return type(self), (self.nodes, self.weights)


@lru_cache(maxsize=3)
def _table(rule: QuadratureRule, s: float, key: tuple) -> tuple[np.ndarray, bool, list]:
    """The folded table of every order at node_array / s, read-only, whether it is finite, and its Gram rows.

    Row k is N_k (D_k + 0.0) * fold_array, k = 0..``DEGREE_CAP``, from one
    walk (``Eigenstate._table``) of the spec that ``key``, a ``_table_key``
    of plain numbers and types, names: a lookup compares no state or spec.
    A non-finite table is kept with its flag, and ``overlap`` calls its states.
    The list holds one slot per order for the table's Gram rows, None until
    ``_gram_row`` fills it, and is evicted with the table.  ``maxsize`` is
    the number of default rules (64, 128, 256 points): one spec and scale
    keep 720 KB of tables and at most 628 KB of rows, and three 256-point
    entries 1.23 MB of tables and 0.97 MB of rows.
    """
    state_type, spec_type, *params = key
    table = state_type(0, spec_type(*params))._table(rule.node_array / s)
    table *= rule.fold_array
    table.flags.writeable = False
    return table, bool(np.isfinite(table).all()), [None] * len(table)


def _gram_row(rule: QuadratureRule, table: np.ndarray, rows: list, i: int) -> np.ndarray:
    """Row i of a table's Gram rows: 2 sum_t w_t T_it T_jt for every j the rule integrates exactly.

    That is j <= min(2k - 1 - i, ``DEGREE_CAP``) on a k-point rule.  Entry j
    is ``_mirror_sum(table[i], table[j], rule)`` before its halving, bit for
    bit: the same products (w T_i) T_j, and an axis-1 ``np.add.reduce`` that
    sums each row of mirror pairs in the pairwise order of the 1-D sum.  The
    row is built once, into a fresh read-only array, and published by one
    list-slot assignment, so threads may share ``rows``: a racing build
    makes the same bits.
    """
    row = rows[i]
    if row is None:
        v = (rule.weight_array * table[i]) * table[: min(2 * len(rule) - i, len(table))]
        row = np.add.reduce(v + v[:, ::-1], axis=1)
        row.flags.writeable = False
        rows[i] = row
    return row


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
    """The polynomial degree of a state: a ``ShiftedState``'s ``pcf_index``, else an integer ``n``, else None."""
    n = getattr(state, "pcf_index", getattr(state, "n", None))
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
    """Integral of a(x) b(x) dx for states decaying like e^{-scale (x - x_c)^2 / 2}.

    Substitutes t = sqrt(scale) (x - c) and folds one half of the quadrature
    weight into each factor (the rule's ``fold_array``, e^{t^2/2} at its
    nodes), so each mapped factor stays O(1) over the node range.  ``scale``
    is mu*omega/hbar for oscillator eigenstates.  The centre c is the
    midpoint of the two arguments' well centres, their ``x_center`` (0 for
    an ``Eigenstate`` or a plain callable), where the product of two states
    of one spec is a polynomial times the rule's Gaussian.  ``a`` and ``b``
    are each called at most once, with the ndarray of mapped nodes
    x = c + t / sqrt(scale), and must return their values there.  ``scale``
    must be positive and finite: a ``ValueError`` otherwise.

    When both arguments carry an integer order (an ``Eigenstate``'s ``n``,
    a ``ShiftedState``'s ``pcf_index``), the rule must hold at least
    (i + j)//2 + 1 points, which makes the result exact: ``rule=None`` picks
    the 64-, 128- or 256-point rule, the smallest that holds them (see
    ``_sized_rule``), and a smaller explicit rule is a ``ValueError``.  For
    any other callable the order is unknown, ``rule=None`` means the
    64-point rule, and the result is exact only if that rule integrates the
    product exactly.  Mirror-pair summation (see ``_mirror_sum``, which also
    gives its error bound) makes overlaps of opposite parity about c = 0
    exactly 0.0 on a symmetric rule.

    About c = 0, two ``Eigenstate``s of one ``_table_key`` (one state type
    and spec) of orders i and j on a finite table read entry j of Gram row i
    (``_gram_row``) of the table ``_table`` keeps per rule, scale and spec,
    halved and divided by sqrt(scale): one lookup, once the row is built,
    which the first read of order i on that table does for every j the rule
    integrates exactly.  A Gram block of eigenstates of one spec costs one
    walk per rule and one row per order, not one evaluation per state or
    one sum per pair.  Every other pair is called: each factor once at the
    mapped nodes, folded, checked and summed, as ``_x_mean`` does.  A table
    row is that folded call bit for bit, so both paths give the same values.

    A table is checked finite once, when it is built, and a Gram-row read
    runs no check.  Called factors are both checked, on every call, and a
    non-finite value is a ``ValueError`` naming the first node where either
    factor has one; two states of one key on a non-finite table are called.
    """
    if not 0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    i, j = _order(a), _order(b)
    if i is not None and j is not None:
        rule = _sized_rule((i + j) // 2 + 1, rule)
    elif rule is None:
        rule = gauss_hermite_rule(64)
    s = math.sqrt(scale)
    center = (getattr(a, "x_center", 0.0) + getattr(b, "x_center", 0.0)) / 2.0
    key = getattr(a, "_table_key", None)
    if center == 0.0 and key is not None and key == getattr(b, "_table_key", None):
        table, finite, rows = _table(rule, s, key)
        if finite:
            return float(_gram_row(rule, table, rows, a.n)[b.n]) / 2.0 / s
    x = rule.node_array / s if center == 0.0 else center + rule.node_array / s
    fv = a(x) * rule.fold_array
    gv = b(x) * rule.fold_array
    _check_finite(fv, gv, rule)
    return _mirror_sum(fv, gv, rule) / s


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
