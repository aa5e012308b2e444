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
_LADDER_BUDGET = 2**19


@dataclass
class _Ladder:
    """Recurrence rows D_lo..D_top at one clipped argument, owned privately."""

    arg: np.ndarray
    lo: int  # 0 while every row fits the budget, else top - 1 (only a pair is kept)
    rows: list
    nbytes: int

    @property
    def top(self) -> int:
        return self.lo + len(self.rows) - 1


class _LadderCache:
    """LRU of recurrence ladders keyed by the exact bits of the argument.

    A prefilter on shape and end values finds the one candidate ladder, and
    a bitwise comparison confirms it, so a miss costs no more than the clip
    that already copied the argument.  Calls are serialized by one lock.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nbytes = 0
        self.lock = threading.Lock()
        self._ladders: OrderedDict[tuple, _Ladder] = OrderedDict()

    def row(self, n: int, t) -> np.ndarray:
        """D_n at the clipped argument ``t``; the result is shared, not copied."""
        bits = t.view(np.uint64)
        key = (t.shape, int(bits.flat[0]), int(bits.flat[-1])) if t.size else (t.shape,)
        ladder = self._ladders.get(key)
        if ladder is not None and ladder.arg.tobytes() != t.tobytes():
            ladder = None
        if ladder is not None:
            self._ladders.move_to_end(key)
            if ladder.lo <= n <= ladder.top:
                return ladder.rows[n - ladder.lo]
        if ladder is not None and n > ladder.top:
            t, lo, rows = ladder.arg, ladder.lo, ladder.rows
        else:  # no stored pair at or below n: start again from D_0
            lo, rows = 0, [np.exp(-(t * t) / 4.0)]
        # The whole ladder while it fits the budget, else the top pair only
        # (n >= 2 then, so the pair is D_{n-1}, D_n), else nothing.
        size = sys.getsizeof(t)
        keep_all = lo == 0 and (n + 2) * size <= self.budget
        nbytes = (n + 2) * size if keep_all else 3 * size
        store = nbytes <= self.budget
        if store:
            self._evict(key, nbytes)
        prev = rows[-2] if len(rows) > 1 else 0.0
        prev, cur, new = _climb(t, prev, rows[-1], lo + len(rows) - 1, n, keep_all)
        if store:
            kept = (0, rows + new) if keep_all else (n - 1, [prev, cur])
            self._ladders[key] = _Ladder(t, *kept, nbytes)
            self.nbytes += nbytes
        return cur

    def _evict(self, key: tuple, nbytes: int) -> None:
        """Drop the ladder under ``key``, then the least recent, until ``nbytes`` more fit."""
        if key in self._ladders:
            self.nbytes -= self._ladders.pop(key).nbytes
        while self._ladders and self.nbytes + nbytes > self.budget:
            self.nbytes -= self._ladders.popitem(last=False)[1].nbytes


def _climb(t, prev, cur, k: int, n: int, keep: bool):
    """Run D_{j+1} = t D_j - j D_{j-1} from (D_{k-1}, D_k) up to D_n.

    Returns (D_{n-1}, D_n, rows), where rows lists D_{k+1}..D_n when ``keep``
    is set and is empty otherwise.  The step is the same, in the same order,
    whichever pair it starts from, so resumed ladders are bit-identical.
    """
    new = []
    with np.errstate(over="raise"):
        for j in range(k, n):
            nxt = t * cur
            if keep or j < k + 2:  # D_{j-1} is kept, or is the caller's
                nxt -= j * prev
            else:  # D_{j-1} is not needed after this step: scale it in place
                prev *= j
                nxt -= prev
            prev, cur = cur, nxt
            if keep:
                new.append(nxt)
    return prev, cur, new


_LADDERS = _LadderCache(_LADDER_BUDGET)


def eval_D(n: int, z, cap: int = DEGREE_CAP):
    """Evaluate D_n(z) at a float or an ndarray of floats.

    Runs D_{k+1} = z D_k - k D_{k-1} (DLMF 12.8.2) up from D_0 = e^{-z^2/4},
    giving 0.0 where that Gaussian underflows.  Orders above about 340, past
    a raised ``cap``, overflow doubles and raise FloatingPointError.

    The rows of the recurrence are kept for a few recent arguments, within
    ``_LADDER_BUDGET`` bytes, so a later call on an equal argument returns a
    stored row or resumes from the highest stored pair below n.  Values are
    bit-identical to a fresh run, and every call returns a new array.
    """
    _check_order(n, cap)
    # e^{-z^2/4} is 0.0 in doubles past |z| = 54.6; clipping keeps inf * 0 out.
    t = np.clip(np.asarray(z, dtype=float), -100.0, 100.0)
    with _LADDERS.lock:
        d = _LADDERS.row(n, t)
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
