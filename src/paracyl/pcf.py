"""Parabolic cylinder functions D_n(z) = P_n(z) e^{-z^2/4}, integer n >= 0.

P_n is monic with exact integer coefficients (it is the probabilists'
Hermite polynomial He_n).  It is built by two independent routes that must
agree coefficient for coefficient; ``eval_D`` uses neither, it runs the
three-term recurrence of D_n in floats:

* substitution through the Hermite polynomials,
  P_n(z) = 2^{-n/2} H_n(z / sqrt(2)), carried out exactly on each row of the
  H_n recurrence (the power of sqrt(2) cancels against the Hermite
  coefficients, leaving integers);
* a Rodrigues-style route, D_n(z) = (-1)^n e^{+z^2/4} d^n/dz^n e^{-z^2/2},
  whose cofactor ladder is ``polys._rodrigues_rows(1)``.

Both are exact integer ladders (see ``polys``): streams of parity-compressed
rows, one per order, each step O(n) integer work from the rows before it.
``pcf_poly`` and ``pcf_rodrigues_poly`` read row n of their ladder and
validate it once as a ``PcfPolyPart``; ``paracyl.checks`` walks the same
ladders once up to ``DEGREE_CAP`` to prove the routes equal and
P_n'' - z P_n' + n P_n = 0 (DLMF 18.8.1) exactly for every order.

Note the sign in the Rodrigues prefactor: it must be e^{+z^2/4}.  With
e^{-z^2/4} the n = 1 case would come out as z e^{-3 z^2/4}, which does not
solve the defining equation y'' + (n + 1/2 - z^2/4) y = 0.  The tests pin
this down against the n = 0..5 closed forms.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polys import (
    DEGREE_CAP,
    PolyZ,
    _check_order,
    _expand,
    _hermite_rows,
    _nth,
    _rodrigues_rows,
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


def _substitute(n: int, h: tuple[int, ...]) -> tuple[int, ...]:
    """The row of P_n from the row of H_n: coefficient k divided by 2^{(n+k)/2}."""
    shifts = range((n + 1) // 2, (n + 1) // 2 + len(h))
    row = tuple(c >> e for c, e in zip(h, shifts))
    if [c << e for c, e in zip(row, shifts)] != list(h):
        raise AssertionError("Hermite-to-cylinder substitution produced a non-integer coefficient")
    return row


def _pcf_rows(hermite: Iterator[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """Rows of P_0, P_1, ... substituted from a stream of H_0, H_1, ... rows."""
    for n, h in enumerate(hermite):
        yield _substitute(n, h)


def _ode_identity(n: int, row: tuple[int, ...]) -> bool:
    """Whether P'' - z P' + n P is exactly 0, for the row of P of order n.

    Coefficient i of the left side is (i+2)(i+1) p_{i+2} + (n - i) p_i.
    """
    return all((i + 2) * (i + 1) * y == (i - n) * x for x, y, i in zip(row, row[1:], range(n % 2, n, 2)))


@lru_cache(maxsize=None)
def _pcf_part(n: int) -> PcfPolyPart:
    return PcfPolyPart(PolyZ(_expand(n, _nth(_pcf_rows(_hermite_rows()), n))), n)


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
    return PcfPolyPart(PolyZ(_expand(n, _nth(_rodrigues_rows(1), n))), n)


#: Bytes (``sys.getsizeof``) that the ladders ``eval_D`` keeps may hold in all.
#: The 12 001-point residual grid needs its argument plus 9 pairs, about 1.8 MB.
_LADDER_BUDGET = 2**21

#: Orders between the checkpoint pairs of a kept argument.
_STRIDE = 25


@dataclass
class _Ladder:
    """Pairs (D_{m-1}, D_m) of the recurrence at one clipped argument, owned privately.

    ``pairs`` maps each order m to its pair: the cursor at order ``cursor``,
    the order of the last climb, and checkpoints at positive multiples of
    ``_STRIDE``.  ``size`` is ``sys.getsizeof`` of the argument and of each
    row but one: the rows of an ndarray argument are ndarrays of its shape,
    those of a 0-d argument numpy scalars like the clipped argument, and only
    the pair at order 0 holds another, the float 0.0.
    """

    arg: np.ndarray
    pairs: dict
    cursor: int
    size: int
    nbytes: int


class _LadderCache:
    """LRU of recurrence ladders keyed by the exact bits of the clipped argument.

    A prefilter on shape and end values finds the one candidate ladder, and
    a bitwise comparison confirms it.  The argument is looked up on its own
    bits first: a hit proves it equal, bit for bit, to a kept clipped
    argument, which clipping leaves unchanged, so only a miss clips (making
    the private copy a new ladder keeps) and looks up again.  A hit on a kept
    row takes a few dict lookups; a climb adds the steps and updates the
    ladder in place.  Byte counts are kept by arithmetic on ``_Ladder.size``,
    equal to ``sys.getsizeof`` of the argument and of each distinct row held.
    Calls are serialized by one lock.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nbytes = 0
        self.lock = threading.Lock()
        self._ladders: OrderedDict[tuple, _Ladder] = OrderedDict()

    def _find(self, t) -> tuple[tuple, _Ladder | None]:
        """The key of ``t``, and the ladder kept under it if its argument has t's bits."""
        bits = t.view(np.uint64)
        key = (t.shape, int(bits.flat[0]), int(bits.flat[-1])) if t.size else (t.shape,)
        ladder = self._ladders.get(key)
        if ladder is not None and (ladder.arg.view(np.uint64) == bits).all():
            return key, ladder
        return key, None

    def row(self, n: int, z: np.ndarray) -> np.ndarray:
        """D_n at the float argument ``z``, which is not kept; the result is shared, not copied."""
        key, ladder = self._find(z)
        if ladder is None:
            # e^{-z^2/4} is 0.0 in doubles past |z| = 54.6; clipping keeps inf * 0 out.
            t = np.clip(z, -100.0, 100.0)
            key, ladder = self._find(t)
        if ladder is None:
            pairs, cursor, size, room, k = {}, None, sys.getsizeof(t), 0, 0
        else:
            self._ladders.move_to_end(key)
            t, pairs, cursor, size = ladder.arg, ladder.pairs, ladder.cursor, ladder.size
            for m in (n, n + 1):
                if m in pairs:
                    return pairs[m][n + 1 - m]
            # A repeat: record checkpoints while the whole ladder fits the budget.
            room = (self.budget // size - 3) // 2 - len(pairs)
            # Start from the highest kept pair at or below n: the cursor, or a
            # checkpoint above it, probed one stride at a time down from n.
            k = cursor if cursor <= n else 0
            m = n - n % _STRIDE
            while m > k and m not in pairs:
                m -= _STRIDE
            k = max(k, m)
        prev, cur = pairs[k] if k in pairs else (0.0, np.exp(-(t * t) / 4.0))
        prev, cur, marks = _climb(t, prev, cur, k, n, room)
        marks[n] = (prev, cur)
        # The new cursor and marks come in; the old cursor stays only as a
        # checkpoint.  Checkpoints sit _STRIDE orders apart, so two kept pairs
        # share a row only when a pair at n - 1 is kept beside the new cursor:
        # both hold the climb's D_{n-1}.
        drop = cursor is not None and (cursor == 0 or cursor % _STRIDE != 0)
        held = len(pairs) + len(marks) - drop
        shared = n - 1 in marks or (n - 1 in pairs and not (drop and cursor == n - 1))
        nbytes = size * (1 + 2 * held - shared)
        if n == 0:
            nbytes += sys.getsizeof(prev) - size
        if nbytes <= self.budget:  # update or add the ladder, dropping the least recent others
            if ladder is None:
                old = self._ladders.pop(key, None)
                self.nbytes -= old.nbytes if old else 0
                ladder = self._ladders[key] = _Ladder(t, marks, n, size, 0)
            else:
                if drop:
                    del pairs[cursor]
                pairs.update(marks)
                ladder.cursor = n
            self.nbytes += nbytes - ladder.nbytes
            ladder.nbytes = nbytes
            while self.nbytes > self.budget:
                self.nbytes -= self._ladders.popitem(last=False)[1].nbytes
        return cur


def _climb(t, prev, cur, k: int, n: int, room: int):
    """Run D_{j+1} = t D_j - j D_{j-1} from (D_{k-1}, D_k) up to D_n.

    Returns (D_{n-1}, D_n, marks), where marks maps the lowest ``room``
    multiples m of ``_STRIDE`` in (k, n] to their pairs (D_{m-1}, D_m).  The
    step is the same, in the same order, whichever pair it starts from, so
    resumed ladders are bit-identical.
    """
    marks = {}
    with np.errstate(over="raise"):
        for j in range(k, n):
            nxt = t * cur
            if j < k + 2 or j in marks or j - 1 in marks:  # D_{j-1} is the caller's, or in a pair
                nxt -= j * prev
            else:  # D_{j-1} is not needed after this step: scale it in place
                prev *= j
                nxt -= prev
            prev, cur = cur, nxt
            if (j + 1) % _STRIDE == 0 and len(marks) < room:
                marks[j + 1] = (prev, cur)
    return prev, cur, marks


_LADDERS = _LadderCache(_LADDER_BUDGET)


def eval_D(n: int, z, cap: int = DEGREE_CAP):
    """Evaluate D_n(z) at a float or an ndarray of floats.

    Runs D_{k+1} = z D_k - k D_{k-1} (DLMF 12.8.2) up from D_0 = e^{-z^2/4},
    giving 0.0 where that Gaussian underflows.  Orders above about 340, past
    a raised ``cap``, overflow doubles and raise FloatingPointError.

    Within ``_LADDER_BUDGET`` bytes, each recent argument keeps its cursor
    pair (D_{n-1}, D_n), and a repeated one also the checkpoint pair at each
    multiple of 25 its climbs pass.  A call on an equal argument returns a
    kept row or climbs from the highest kept pair at or below n.  The argument
    is clipped to [-100, 100] only when its own bits match no kept argument,
    and the bytes held are counted by arithmetic, not summed again on each
    call (see ``_LadderCache``).  Values are bit-identical to a fresh run,
    and every call returns a new array.
    """
    _check_order(n, cap)
    a = np.asarray(z, dtype=float)
    with _LADDERS.lock:
        d = _LADDERS.row(n, a)
    return d + 0.0 if isinstance(z, np.ndarray) else float(d) + 0.0  # + 0.0 turns -0.0 into 0.0


@lru_cache(maxsize=None)
def _pcf_derivatives(n: int) -> tuple[PolyZ, PolyZ, PolyZ]:
    p = _pcf_part(n).poly
    return p, poly_derivative(p), poly_derivative(poly_derivative(p))


def _ode_residual(n: int, z: np.ndarray) -> np.ndarray:
    """Residual D_n'' + (n + 1/2 - z^2/4) D_n at an ndarray of floats.

    For D = P e^{-z^2/4} the second derivative is
    D'' = (P'' - z P' + (z^2/4 - 1/2) P) e^{-z^2/4}; evaluating that bracket
    from the exact polynomial factor keeps the check independent of any
    finite-difference stencil.  The bracket is summed in floats on the
    monomial form, so past n ~ 40 the value is rounding noise that grows
    with n; the exact identity behind it is the ``ode-identity`` gate.
    """
    p, p1, p2 = _pcf_derivatives(n)
    quarter = z * z / 4.0
    pz = poly_eval(p, z)
    bracket = poly_eval(p2, z) - z * poly_eval(p1, z) + (quarter - 0.5) * pz
    return (bracket + (n + 0.5 - quarter) * pz) * np.exp(-quarter)
