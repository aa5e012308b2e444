"""Exact integer polynomial algebra, physicists' Hermite polynomials and the factors P_n of D_n.

A polynomial is a tuple of Python ints, index i holding the coefficient of
t**i; the empty tuple is the zero polynomial.  All arithmetic here is exact,
which is what makes the high-order constructions trustworthy: H_50 already
has coefficients far beyond 64-bit range.

The Hermite convention is the physicists' one (weight e^{-t^2}, leading
coefficient 2^n, squared norm 2^n n! sqrt(pi)).  The factor P_n of the
parabolic cylinder function D_n = P_n e^{-z^2/4} is the H_n ladder
substituted row by row (``_pcf_rows``); ``pcf`` builds and checks it, and
the ``table`` subcommand prints it with no module but this one.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count, islice

#: The one order range of the package, n = 0..DEGREE_CAP: of the exact
#: polynomial constructors, of float D_n (``pcf.eval_D``, checked against
#: mpmath) and of the normalisation constants (``oscillator.norm_const``).
DEGREE_CAP = 200


@dataclass(frozen=True)
class PolyZ:
    """Univariate polynomial with exact arbitrary-precision integer coefficients."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for c in self.coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coefficients must be ints, got {type(c).__name__}")
        trimmed = tuple(self.coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed = trimmed[:-1]
        object.__setattr__(self, "coeffs", trimmed)

    @property
    def degree(self) -> int:
        """Polynomial degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs


ZERO = PolyZ()


def poly_eval(p: PolyZ, t):
    """Evaluate ``p`` at ``t`` by Horner's scheme.

    ``t`` may be an int (the result is then exact), a float, or a numpy
    array; the return type follows the argument.
    """
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * t + c
    return acc


def poly_derivative(p: PolyZ) -> PolyZ:
    """Exact derivative d/dt of ``p``."""
    return PolyZ(tuple(i * c for i, c in enumerate(p.coeffs))[1:])


def _check_int(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("order must be an int")


def _check_quantum_number(n) -> None:
    _check_int(n)
    if n < 0:
        raise ValueError("quantum number must be non-negative")


def _check_order(n: int) -> None:
    _check_int(n)
    if n < 0:
        raise ValueError("order must be non-negative")
    if n > DEGREE_CAP:
        raise ValueError(f"order {n} exceeds the configured cap {DEGREE_CAP}")


# The exact ladders.  A row is the parity-compressed coefficient tuple of
# one polynomial of degree n and parity (-1)^n: its entry j is the
# coefficient of t**(n % 2 + 2 j), so the zero coefficients between them are
# never stored or multiplied.  Each ladder yields rows n = 0, 1, 2, ... with
# O(n) integer work per step and keeps only the rows its step reads, so a
# caller that walks one to order N does O(N^2) work in O(N) memory.


def _hermite_rows() -> Iterator[tuple[int, ...]]:
    """Rows of H_0, H_1, ... by H_{k+1} = 2 t H_k - 2 k H_{k-1} (DLMF 18.9.1)."""
    prev, cur = (1,), (2,)
    yield prev
    for k in count(1):
        yield cur
        # t H_k has the parity of H_{k+1}; its row gains a leading 0 when k is odd.
        shifted = (0,) + cur if k % 2 else cur
        prev, cur = cur, tuple(2 * (x - k * y) for x, y in zip(shifted, prev + (0,)))


def _rodrigues_step(n: int, row: tuple[int, ...], s: int) -> tuple[int, ...]:
    """The row of s t p - p' for the row of p = (-1)^n q_n, q_n the Rodrigues cofactor.

    Differentiating q e^{-s t^2 / 2} gives (q' - s t q) e^{-s t^2 / 2}; with the
    sign (-1)^n folded into the row, the step is p -> s t p - p'.
    """
    if n % 2:  # p odd: coefficient 2j of the result reads p_{2j-1} and p_{2j+1}
        below, above = (0,) + row, row + (0,)
    else:  # p even: coefficient 2j+1 reads p_{2j} and p_{2j+2}
        below, above = row, row[1:] + (0,)
    return tuple(s * x - m * y for x, y, m in zip(below, above, range(2 - n % 2, n + 3, 2)))


def _rodrigues_rows(s: int) -> Iterator[tuple[int, ...]]:
    """Rows of (-1)^n e^{s t^2 / 2} d^n/dt^n e^{-s t^2 / 2} for n = 0, 1, ...

    ``s = 2`` gives H_n(t), ``s = 1`` the factor P_n(z) of D_n.
    """
    row = (1,)
    for n in count():
        yield row
        row = _rodrigues_step(n, row, s)


def _substitute(n: int, h: tuple[int, ...]) -> tuple[int, ...]:
    """The row of P_n from the row of H_n: coefficient k divided by 2^{(n+k)/2}.

    P_n(z) = 2^{-n/2} H_n(z / sqrt(2)) is the factor of the parabolic
    cylinder function D_n (``pcf``).
    """
    shifts = range((n + 1) // 2, (n + 1) // 2 + len(h))
    row = tuple(c >> e for c, e in zip(h, shifts))
    if [c << e for c, e in zip(row, shifts)] != list(h):
        raise AssertionError("Hermite-to-cylinder substitution produced a non-integer coefficient")
    return row


def _pcf_rows(hermite: Iterator[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """Rows of P_0, P_1, ... substituted from a stream of H_0, H_1, ... rows."""
    for n, h in enumerate(hermite):
        yield _substitute(n, h)


def _nth(rows: Iterator[tuple[int, ...]], n: int) -> tuple[int, ...]:
    """Row n of a ladder."""
    return next(islice(rows, n, None))


def _expand(n: int, row: tuple[int, ...]) -> tuple[int, ...]:
    """The full coefficient tuple, zeros included, of row ``n``."""
    coeffs = [0] * (n + 1)
    coeffs[n % 2 :: 2] = row
    return tuple(coeffs)


def hermite_recurrence(n: int) -> PolyZ:
    """H_n built by the three-term recurrence, with exact coefficients."""
    _check_order(n)
    return PolyZ(_expand(n, _nth(_hermite_rows(), n)))


def hermite_rodrigues(n: int) -> PolyZ:
    """H_n(t) = (-1)^n e^{t^2} d^n/dt^n e^{-t^2}, via exact cofactor algebra.

    Differentiating q(t) e^{-t^2} gives (q' - 2 t q) e^{-t^2}, so the
    cofactor of e^{-t^2} evolves as q -> q' - 2 t q starting from q = 1;
    the (-1)^n sign then yields H_n.
    """
    _check_order(n)
    return PolyZ(_expand(n, _nth(_rodrigues_rows(2), n)))
