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
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import _BudgetLRU
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


def pcf_poly(n: int) -> PcfPolyPart:
    """P_n obtained from H_n through the exact z/sqrt(2) substitution.

    The order is checked on every call, the factor built and validated once per n.
    """
    _check_order(n)
    return _pcf_part(n)


def pcf_rodrigues_poly(n: int) -> PcfPolyPart:
    """P_n from repeated differentiation of e^{-z^2/2}.

    The cofactor of e^{-z^2/2} evolves as r -> r' - z r from r = 1, and
    e^{+z^2/4} d^n/dz^n e^{-z^2/2} = r_n(z) e^{-z^2/4}, so P_n = (-1)^n r_n.
    """
    _check_order(n)
    return PcfPolyPart(PolyZ(_expand(n, _nth(_rodrigues_rows(1), n))), n)


#: Bytes (``sys.getsizeof``) that the ladders ``eval_D`` keeps are charged in all.
#: The 12 001-point residual grid is charged 36 rows of 96 120 bytes, 3 460 320
#: bytes, and a 13 001-point field grid 3 748 320; an argument of more than
#: 14 549 points is charged more than the budget and is not kept.
_LADDER_BUDGET = 2**22

#: Orders between the checkpoint pairs of a kept argument.
_STRIDE = 12

#: Rows a new ladder is charged for, once: its argument, its cursor pair and a
#: checkpoint pair at each multiple of ``_STRIDE`` up to ``DEGREE_CAP`` (35
#: rows at most), and the copy of a row that each call returns: 36 rows.
_LADDER_ROWS = 4 + 2 * (DEGREE_CAP // _STRIDE)


class _Ladder:
    """Pairs (D_{m-1}, D_m) of the recurrence at one clipped argument.

    The argument is a copy that ``eval_D`` clipped, or the read-only
    argument a residual grid keeps (see ``oscillator._grid_arrays``); no
    caller writes to it.

    ``pairs`` maps the cursor, the order of the last call, to its pair.  From
    the second call on it also keeps the pair at each positive multiple of
    ``_STRIDE`` that a climb passes or the cursor leaves, ``DEGREE_CAP //
    _STRIDE`` at most: once the checkpoint at or below n is kept, a climb to
    n runs at most ``_STRIDE`` - 1 = 11 steps.  A row is never changed.
    """

    def __init__(self, arg) -> None:
        self.arg = arg
        self.pairs: dict = {}
        self.cursor: int | None = None

    def row(self, n: int):
        """D_n: a held row, or the top of a climb from the highest pair at or below n."""
        pairs, cursor = self.pairs, self.cursor
        for m in (n, n + 1):
            if m in pairs:
                return pairs[m][n + 1 - m]
        # Start from the cursor, or from a checkpoint above it, probed one
        # stride at a time down from n.
        k = cursor if cursor is not None and cursor <= n else 0
        m = n - n % _STRIDE
        while m > k and m not in pairs:
            m -= _STRIDE
        k = max(k, m)
        t = self.arg
        prev, cur = pairs[k] if k in pairs else (0.0, np.exp(-(t * t) / 4.0))
        prev, cur, marks = _climb(t, prev, cur, k, n, cursor is not None)
        if cursor is not None and (cursor % _STRIDE or cursor == 0):
            del pairs[cursor]
        pairs.update(marks)
        pairs[n] = (prev, cur)
        self.cursor = n
        return cur


def _climb(t, prev, cur, k: int, n: int, record: bool):
    """Run D_{j+1} = t D_j - j D_{j-1} from (D_{k-1}, D_k) up to D_n.

    Returns (D_{n-1}, D_n, marks); if ``record``, marks maps each multiple m
    of ``_STRIDE`` in (k, n] to its pair (D_{m-1}, D_m).  Each step writes
    only into the new row it makes, in the same operations whichever pair it
    starts from, so resumed ladders are bit-identical.  An overflow raises
    FloatingPointError; no order up to ``DEGREE_CAP`` overflows.
    """
    marks = {}
    with np.errstate(over="raise"):
        for j in range(k, n):
            nxt = t * cur
            nxt -= j * prev
            prev, cur = cur, nxt
            if record and (j + 1) % _STRIDE == 0:
                marks[j + 1] = (prev, cur)
    return prev, cur, marks


_LADDERS = _BudgetLRU(_LADDER_BUDGET)


def _find(t) -> tuple[tuple, _Ladder | None]:
    """The key of ``t`` (its shape and end bits), and the ladder kept under it if its argument has t's bits.

    A ladder whose argument is ``t`` itself (a residual grid's) needs no comparison.
    """
    bits = t.view(np.uint64)
    key = (t.shape, int(bits.flat[0]), int(bits.flat[-1])) if t.size else (t.shape,)
    ladder = _LADDERS.get(key)
    if ladder is not None and (ladder.arg is t or (ladder.arg.view(np.uint64) == bits).all()):
        return key, ladder
    return key, None


def _held_row(n: int, t):
    """D_n at the clipped argument ``t``: the row its ladder holds, not a copy.

    The ladder is the one kept under t's bits, or a new ``_Ladder(t)``
    charged ``_LADDER_ROWS`` times ``sys.getsizeof(t)``.  The row may be -0.0
    where D_n is zero, and must not be written to.
    """
    with _LADDERS.lock:
        key, ladder = _find(t)
        if ladder is None:
            ladder = _Ladder(t)
            _LADDERS.put(key, ladder, _LADDER_ROWS * sys.getsizeof(t))
        return ladder.row(n)


def eval_D(n: int, z):
    """Evaluate D_n(z), n = 0..``DEGREE_CAP``, at a float or an array of floats.

    Runs D_{k+1} = z D_k - k D_{k-1} (DLMF 12.8.2) up from D_0 = e^{-z^2/4},
    giving 0.0 where that Gaussian underflows.  Orders stop at
    ``DEGREE_CAP``, the range the tests check against mpmath; a higher order
    is a ``ValueError``.  An argument with a dimension (an ndarray, list or
    tuple) gives an ndarray, a 0-d ndarray a numpy float, any other a float.

    Each call clips its argument to [-100, 100] and makes one lookup,
    ``_held_row``, for the ``_Ladder`` kept under the clipped copy's bits,
    which returns a held row or climbs from its highest pair at or below n.
    A new ladder is charged ``_LADDER_ROWS`` times the size of its argument
    once, and the ladders share ``_LADDER_BUDGET``, least recent dropped
    first; one charged more than the budget serves its call and is not
    kept.  The residual grids of ``oscillator`` read rows of the same
    ladders in place through ``_held_row``.  Values are bit-identical to a
    fresh run, and every call returns a new array.
    """
    _check_order(n)
    a = np.asarray(z, dtype=float)
    # e^{-z^2/4} is 0.0 in doubles past |z| = 54.6; clipping keeps inf * 0 out.
    d = _held_row(n, np.clip(a, -100.0, 100.0))
    return d + 0.0 if a.ndim or isinstance(z, np.ndarray) else float(d) + 0.0  # + 0.0 turns -0.0 into 0.0


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
