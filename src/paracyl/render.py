"""CSV rows rendered with numpy, byte for byte as ``'%.12g' % v`` renders each value.

``csv_rows(columns)`` returns the rows of equal-length columns as one string,
values joined by ``,`` and rows ended by ``\\n``.  Each value is converted to
a double first, as ``'%.12g'`` converts an integer, and then rendered in
array passes:

* **Scaling.**  With e = floor(log10 |v|), the 12-digit mantissa is
  m* = |v| 10^(11 - e) < 10^12 < 2^40, formed as one product
  p = |v| ``_POW[e]``.  ``_POW[e]`` is the double nearest 10^(11 - e),
  read from the decimal string as Python's correctly rounded ``float``.
  The table and the product each round once, so in the standard model of
  float arithmetic (Higham, *Accuracy and Stability of Numerical
  Algorithms*, 2nd ed., 2.2) |p - m*| <= (2u + u^2) m* < 2^-12, with
  u = 2^-53.
* **Rounding.**  When |p - rint(p)| < 1/2 - 2^-11, p and m* lie on the
  same side of every half-integer, so rint(p) is m* correctly rounded.
  Any other value, every exact tie among them, takes the fallback below.
  An e from ``log10`` that is one too large or too small puts p outside
  [10^11, 10^12); those values are scaled again with e corrected, so no
  digit depends on ``log10``'s accuracy.  A mantissa that rounds up to
  10^12 carries: it becomes 10^11 and e grows by one.
* **Layout.**  Each value fills a 40-byte cell: the sign, the prefix
  ``0.000``, the 12 digits with a dot slot after each, ``e``, the
  exponent's sign and three digits, and the separator.  One table row per
  form (fixed point with its exponent, or scientific with its exponent's
  sign and width; the count of significant digits; the sign; the
  separator) keeps the bytes that form prints and zeroes the rest.  The
  digits come from a table of the 10^4 four-digit groups, and one mask
  drops the zeroed bytes.  As ``%.12g``, a value prints in fixed point when
  -4 <= e < 12, with trailing zeros and a bare dot dropped.
* **Fallback.**  Whatever the passes cannot certify is rendered by
  ``'%.12g' % v`` itself: +-0, inf, nan, subnormals, |v| outside
  [1e-280, 1e281) (where the scaled products could leave the normal
  range), a p within 2^-11 of a half (about 0.1 % of the values of
  ``eval`` tables), and a mantissa outside [10^11, 10^12) after the
  correction.

Whole rows are rendered in blocks of at most ``_BLOCK_VALUES`` values, so
that the working set of a chunk of 4096 rows of four values stays below
that of the ``%`` path it replaced (a list of floats, their tuple and the
text): about 0.71 against 0.95 MB.

Correctly rounded conversion follows Steele & White and Gay, "Correctly
rounded binary-decimal and decimal-binary conversions" (1990).
"""

from __future__ import annotations

import numpy as np

#: Values rendered by one pass of the arrays: few enough that the working
#: arrays (about 270 bytes a value, with ``np.compress``'s index) stay small
#: next to the chunk's text, many enough that each pass's per-call cost
#: stays small next to its work.
_BLOCK_VALUES = 2048

_E_MAX = 282
#: The e of each table entry, 0.._E_MAX then -_E_MAX..-1: an e indexes its own entry.
_E = [*range(_E_MAX + 1), *range(-_E_MAX, 0)]

_W = 40  # bytes per cell: 5 words of 8
_PREFIX, _DIGITS, _EXP, _SEP = 1, 8, 32, 37  # the first byte of each part
_FIXED = 16  # forms 0..15 print fixed point with e = form - 4; forms 16..19 are scientific
_FORMS = 20

# The tables are built with Python numbers and numpy fills, and with the float
# arithmetic and gathers that rendering runs anyway: each other numpy loop a
# process runs maps more of numpy's code into its resident set.

#: The double nearest 10^(11 - e) at each table e.
_POW = np.array([float(f"1e{11 - e}") for e in _E])


def _form(e: int) -> int:
    if -4 <= e < 12:
        return e + 4
    return _FIXED + (abs(e) >= 100) + 2 * (e < 0)


#: 26 times the form of each table e: cells are coded 26 form + 2 digits + sign.
_FORM26 = np.array([26 * _form(e) for e in _E], dtype=np.intp)
#: The exponent word ``e`` sign, three digits, separator, at each table e, 0xFF where the form decides.
_EXP_WORD = np.frombuffer(b"".join(b"\xff\xff%03d\xff\0\0" % abs(e) for e in _E), dtype=np.uint64)


def _digit_words() -> np.ndarray:
    """Each four-digit group as the word ``d.d.d.d.``, 0xFF in each dot slot."""
    w = np.full((10, 10, 10, 10, 8), 0xFF, np.uint8)
    d = np.arange(48, 58, dtype=np.uint8)  # the digit characters
    w[..., 0], w[..., 2], w[..., 4], w[..., 6] = d[:, None, None, None], d[:, None, None], d[:, None], d
    return w.view(np.uint64).ravel()


_DIGIT_WORD = _digit_words()


def _digit_counts() -> np.ndarray:
    """Twice the significant-digit count of the mantissa at each four-digit group, by its place.

    Row 0 is for the first group, row 1 the second and row 2 the third,
    when the groups after it are zero; a zero group gives 0.
    """
    nd = np.empty((3, 10, 10, 10, 10), np.uint8)
    for place, width in enumerate((4, 8, 12)):
        nd[place] = 2 * width
        nd[place, ..., 0] = 2 * width - 2
        nd[place, ..., 0, 0] = 2 * width - 4
        nd[place, :, 0, 0, 0] = 2 * width - 6
        nd[place, 0, 0, 0, 0] = 0
    return nd.reshape(3, -1)


_ND_1, _ND_2, _ND_3 = _digit_counts()


def _cell_masks() -> np.ndarray:
    """The kept bytes of each cell code, 0xFF where a digit is kept, as 5 words a row.

    A code is 520 last + 26 form + 2 digits + sign: codes 0..519 end with
    ``,`` and 520..1039 with ``\\n``.
    """
    m = np.zeros((2, _FORMS, 13, 2, _W), np.uint8)
    m[:, :, :, 1, 0] = ord("-")
    digits, slots = m[..., _DIGITS : _DIGITS + 24 : 2], m[..., _DIGITS + 1 : _DIGITS + 24 : 2]
    for nd in range(1, 13):
        digits[:, :, nd, :, :nd] = 0xFF
    for e in range(-4, 0):  # "0." and -e - 1 zeros before the digits
        m[:, e + 4, :, :, _PREFIX : _PREFIX + 1 - e] = np.frombuffer(b"0.000"[: 1 - e], np.uint8)
    for e in range(12):  # the integer part whole, and a dot when a fraction follows
        digits[:, e + 4, :, :, : e + 1] = 0xFF
        slots[:, e + 4, e + 2 :, :, e] = ord(".")
    slots[:, _FIXED:, 2:, :, 0] = ord(".")
    m[:, _FIXED:, :, :, _EXP] = ord("e")
    m[:, _FIXED : _FIXED + 2, :, :, _EXP + 1] = ord("+")
    m[:, _FIXED + 2 :, :, :, _EXP + 1] = ord("-")
    m[:, _FIXED + 1 :: 2, :, :, _EXP + 2] = 0xFF  # forms 17 and 19: |e| >= 100
    m[:, _FIXED:, :, :, _EXP + 3 : _EXP + 5] = 0xFF
    m[0, ..., _SEP] = ord(",")
    m[1, ..., _SEP] = ord("\n")
    return m.reshape(-1, _W).view(np.uint64)


_CELL_MASK = _cell_masks()
#: Code offset of each column: the last one ends its row.
_LAST = 26 * _FORMS


def _block(v: np.ndarray, width: int) -> str:
    """The text of ``v``, the row-major values of whole rows of ``width`` columns."""
    a = np.abs(v)
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(a))
    ok = np.abs(e) <= 280  # False for +-0, subnormals, inf, nan and the far ends
    a = np.where(ok, a, 1.0)
    e = np.where(ok, e, 0.0).astype(np.intp)
    p = a * _POW[e]
    redo = np.flatnonzero(np.abs(p - 5.5e11) >= 4.5e11)  # p outside [1e11, 1e12): log10 was one off
    if redo.size:
        e[redo] += np.where(p[redo] < 1e11, -1, 1)
        p[redo] = a[redo] * _POW[e[redo]]
        off = redo[np.abs(p[redo] - 5.5e11) > 4.5e11]  # two off: left to the fallback
        ok[off], p[off] = False, 1e11
    m = np.rint(p)
    ok &= np.abs(p - m) < 0.5 - 2.0**-11  # within 2^-11 of a half: too near to certify
    carry = np.flatnonzero(m >= 1e12)
    if carry.size:
        m[carry] = 1e11
        e[carry] += 1
    # The four-digit groups.  floor(m 1e-4) is the quotient by 10^4: fl(1e-4) exceeds
    # 10^-4, so a multiple of 10^4 never rounds below its quotient, and m < 2^40 keeps
    # any other below the next integer.
    q2 = np.floor(m * 1e-4)
    q3 = (m - q2 * 1e4).astype(np.intp)
    q1 = np.floor(q2 * 1e-4)
    q2 = (q2 - q1 * 1e4).astype(np.intp)
    q1 = q1.astype(np.intp)
    code = _FORM26[e] + np.maximum(np.maximum(_ND_3[q3], _ND_2[q2]), _ND_1[q1]) + np.signbit(v)
    code.reshape(-1, width)[:, -1] += _LAST
    cells = np.take(_CELL_MASK, code, axis=0)
    cells[:, 1] &= _DIGIT_WORD[q1]
    cells[:, 2] &= _DIGIT_WORD[q2]
    cells[:, 3] &= _DIGIT_WORD[q3]
    cells[:, 4] &= _EXP_WORD[e]
    slow = np.flatnonzero(~ok)
    if slow.size:
        text = ["%.12g%s" % (x, ",\n"[i % width == width - 1]) for x, i in zip(v[slow].tolist(), slow.tolist())]
        cells[slow] = np.array(text, dtype=f"S{_W}").view(np.uint64).reshape(-1, 5)
    raw = cells.view(np.uint8).ravel()
    return str(np.compress(raw != 0, raw), "ascii")


def csv_rows(columns) -> str:
    """The CSV lines of equal-length ``columns`` (arrays of numbers), one ``'%.12g'`` per value."""
    width = len(columns)
    count = len(columns[0])
    step = max(1, _BLOCK_VALUES // width)
    parts = []
    for i in range(0, count, step):
        v = np.empty((min(step, count - i), width))
        for j, c in enumerate(columns):
            v[:, j] = c[i : i + step]
        parts.append(_block(v.ravel(), width))
    return "".join(parts)
