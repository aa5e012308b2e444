"""Parabolic cylinder functions D_n(z) = P_n(z) e^{-z^2/4}, integer n >= 0.

P_n is monic with exact integer coefficients (it is the probabilists'
Hermite polynomial He_n).  It is built by two independent routes that must
agree coefficient for coefficient; ``eval_D`` uses neither, it runs the
three-term recurrence of D_n in floats:

* substitution through the Hermite polynomials,
  P_n(z) = 2^{-n/2} H_n(z / sqrt(2)), carried out exactly on each row of the
  H_n recurrence (the power of sqrt(2) cancels against the Hermite
  coefficients, leaving integers), whose ladder is
  ``polys._pcf_rows(polys._hermite_rows())``;
* a Rodrigues-style route, D_n(z) = (-1)^n e^{+z^2/4} d^n/dz^n e^{-z^2/2},
  whose cofactor ladder is ``polys._rodrigues_rows(1)``.

Both are exact integer ladders (see ``polys``): streams of parity-compressed
rows, one per order, each step O(n) integer work from the rows before it.
``pcf_poly`` and ``pcf_rodrigues_poly`` read row n of their ladder and
validate it once as a ``PcfPolyPart``; ``paracyl.checks`` walks the same
ladders once up to ``DEGREE_CAP`` to prove the routes equal and
P_n'' - z P_n' + n P_n = 0 (DLMF 18.8.1) exactly for every order.

A residual grid keeps rows of the float recurrence in a ``_Ladder``: its
cursor pair and checkpoint pairs at a stride each ladder derives from its
argument's size, so that it holds at most ``_CHECKPOINT_BYTES``.

Note the sign in the Rodrigues prefactor: it must be e^{+z^2/4}.  With
e^{-z^2/4} the n = 1 case would come out as z e^{-3 z^2/4}, which does not
solve the defining equation y'' + (n + 1/2 - z^2/4) y = 0.  The tests pin
this down against the n = 0..5 closed forms.
"""

from __future__ import annotations

import sys
import threading
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
    _pcf_rows,
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


#: The most bytes a ladder holds, with the two interior rows a residual makes
#: from the row it reads, counted as ``sys.getsizeof`` counts arrays that own
#: their data: the argument, the cursor pair and every checkpoint pair.
_CHECKPOINT_BYTES = 6 * 2**20


def _stride(points: int) -> int:
    """The smallest stride whose checkpoint pairs, on an argument of ``points`` doubles, fit ``_CHECKPOINT_BYTES``.

    A stride s keeps ``DEGREE_CAP // s`` checkpoint pairs.  0 when not even
    one fits: 12 001 points give 7, 14 549 give 9, 24 001 give 15, and
    past 112 334 points not one checkpoint fits.
    """
    header = sys.getsizeof(np.empty(0))
    row, interior = header + 8 * points, header + 8 * max(points - 2, 0)
    pairs = (_CHECKPOINT_BYTES - 3 * row - 2 * interior) // (2 * row)
    return DEGREE_CAP // (pairs + 1) + 1 if pairs > 0 else 0


class _Ladder:
    """Pairs (D_{m-1}, D_m) of the recurrence at one clipped argument.

    A residual grid owns one (see ``oscillator._grid_arrays``); its argument
    is the grid's read-only z, which no caller writes to.

    ``pairs`` maps the cursor, the order of the last call, to its pair, and
    keeps the pair at each positive multiple of ``stride`` that a climb
    passes, ``DEGREE_CAP // stride`` at most: every multiple up to ``top``,
    the highest.  ``stride`` is the smallest that keeps the ladder within
    ``_CHECKPOINT_BYTES`` (``_stride``), 0 where only the cursor pair fits,
    so once the checkpoint at or below n is kept, a climb to n runs at most
    ``stride`` - 1 steps.  A row is never changed, and ``row`` holds the
    ladder's lock, so threads may share it.
    """

    def __init__(self, arg) -> None:
        self.arg = arg
        self.pairs: dict = {}
        self.cursor: int | None = None
        self.stride = _stride(arg.size)
        self.top = 0
        self.lock = threading.Lock()

    def row(self, n: int):
        """D_n, not a copy: a held row, or the top of a climb from the highest pair at or below n.

        That pair is the checkpoint ``n - n % stride`` (``top`` if that one
        is not kept yet), or the cursor where it lies between it and n.  The
        row may be -0.0 where D_n is zero, and must not be written to.
        """
        with self.lock:
            pairs, cursor, stride = self.pairs, self.cursor, self.stride
            for m in (n, n + 1):
                if m in pairs:
                    return pairs[m][n + 1 - m]
            k = min(n - n % stride, self.top) if stride else 0
            if cursor is not None and k < cursor < n:
                k = cursor
            t = self.arg
            prev, cur = pairs[k] if k in pairs else (0.0, np.exp(-(t * t) / 4.0))
            prev, cur, marks = _climb(t, prev, cur, k, n, stride)
            if cursor is not None and (not stride or cursor % stride or cursor == 0):
                del pairs[cursor]
            if stride:
                pairs.update(marks)
                self.top = max(self.top, n - n % stride)
            pairs[n] = (prev, cur)
            self.cursor = n
            return cur


def _climb(t, prev, cur, k: int, n: int, stride: int):
    """Run D_{j+1} = t D_j - j D_{j-1} from (D_{k-1}, D_k) up to D_n.

    Returns (D_{n-1}, D_n, marks); if ``stride`` is positive, marks maps
    each multiple m of it in (k, n] to its pair (D_{m-1}, D_m).  Each step
    writes only into the new row it makes, in the same operations whichever
    pair it starts from, so resumed ladders are bit-identical.  An overflow
    raises FloatingPointError; no order up to ``DEGREE_CAP`` overflows.
    """
    marks = {}
    with np.errstate(over="raise"):
        for j in range(k, n):
            nxt = t * cur
            nxt -= j * prev
            prev, cur = cur, nxt
            if stride and (j + 1) % stride == 0:
                marks[j + 1] = (prev, cur)
    return prev, cur, marks


def eval_D(n: int, z):
    """Evaluate D_n(z), n = 0..``DEGREE_CAP``, at a float or an array of floats.

    Runs D_{k+1} = z D_k - k D_{k-1} (DLMF 12.8.2) up from D_0 = e^{-z^2/4},
    giving 0.0 where that Gaussian underflows.  Orders stop at
    ``DEGREE_CAP``, the range the tests check against mpmath; a higher order
    is a ``ValueError``.  An argument with a dimension (an ndarray, list or
    tuple) gives an ndarray, a 0-d ndarray a numpy float, any other a float.

    A pure function: each call clips its argument to [-100, 100], climbs
    from D_0 and returns a new array.  Callers that reuse rows keep their
    own: a residual grid owns a ``_Ladder``, and ``overlap`` reads a table
    of every order (``_walk_orders``).
    """
    _check_order(n)
    a = np.asarray(z, dtype=float)
    # e^{-z^2/4} is 0.0 in doubles past |z| = 54.6; clipping keeps inf * 0 out.
    t = np.clip(a, -100.0, 100.0)
    d = _climb(t, 0.0, np.exp(-(t * t) / 4.0), 0, n, 0)[1]
    return d + 0.0 if a.ndim or isinstance(z, np.ndarray) else float(d) + 0.0  # + 0.0 turns -0.0 into 0.0


def _walk_orders(z) -> np.ndarray:
    """D_0..D_``DEGREE_CAP`` at a float ndarray z, one row per order, each the array ``eval_D`` gives.

    One climb records every order, in the operations of ``eval_D``'s on
    the argument it clips alike, so row n equals ``eval_D(n, z)`` bit for bit.
    """
    t = np.clip(z, -100.0, 100.0)
    d0 = np.exp(-(t * t) / 4.0)
    marks = _climb(t, 0.0, d0, 0, DEGREE_CAP, 1)[2]
    rows = np.stack([d0, *(marks[m][1] for m in range(1, DEGREE_CAP + 1))])
    rows += 0.0
    return rows


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
