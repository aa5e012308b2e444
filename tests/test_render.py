"""The array renderer against ``'%.12g' % v``, byte for byte.

Every expected string is made here by ``%`` itself, one value at a time, so
the comparison holds on any platform whose ``%`` is correctly rounded.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import paracyl.render as render
from paracyl.pcf import eval_D
from paracyl.render import csv_rows


def by_percent(columns) -> str:
    """The reference: each row of ``columns`` as ``'%.12g'`` values joined by commas."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return "".join(",".join("%.12g" % v for v in row) + "\n" for row in rows)


def assert_renders_like_percent(columns) -> None:
    got, want = csv_rows(columns).splitlines(), by_percent(columns).splitlines()
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, f"{len(bad)} rows differ, first {bad[:3]}"
    assert len(got) == len(want)


def column(values) -> np.ndarray:
    return np.array(values, dtype=float)


def ulps_around(x: float) -> list[float]:
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


def thirteen_digit_ties() -> list[float]:
    """Exact doubles with 13 significant digits, the last a 5: 12-digit ties at many exponents."""
    ties = [123456789012.5, 10**12 + 5, 999999999999.5, 9999999999995.0, 0.5]
    # q 2^-t = q 5^t 10^-t is a tie when q 5^t has 13 digits once its trailing zeros go.
    for t in range(19):
        for q in range(1, 4000, 2):
            digits = str(q * 5**t).rstrip("0")
            if len(digits) == 13:
                ties.append(q / 2**t)
    # 13-digit integers ending in 5, times powers of ten while the double is exact.
    rng = np.random.default_rng(13)
    for d in rng.integers(10**11, 10**12, 200).tolist():
        base = 10 * d + 5
        for j in range(0, 6):
            if float(base * 10**j) == base * 10**j:
                ties.append(float(base * 10**j))
    return ties


def near_ties() -> list[float]:
    """The doubles nearest 13-digit decimals ending in 5, at every exponent the fast path takes.

    Each lies within about 1e-4 of a 12-digit tie, in units of the last
    printed digit: within the 2^-11 window round a half where one scaled
    product cannot decide the rounding, so each takes the ``%`` fallback.
    """
    rng = np.random.default_rng(5)
    values = []
    for e in range(-300, 300):
        for d in rng.integers(10**11, 10**12, 4).tolist():
            values.append(float(f"{d}5e{e - 12}"))
    return values


class TestExactness:
    def test_every_decimal_exponent(self):
        rng = np.random.default_rng(2024)
        values = []
        for e in range(-324, 309):  # 17 random digits at each exponent; past the largest double, inf
            for sign, d in zip(rng.choice(["", "-"], 48), rng.integers(10**16, 10**17, 48).tolist()):
                values.append(float(f"{sign}{d}e{e - 16}"))
        v = column(values)
        assert np.isfinite(v).sum() > 30000
        assert_renders_like_percent([v])
        assert_renders_like_percent([v[0::3], v[1::3], v[2::3]])

    def test_twelve_digit_ties(self):
        ties = thirteen_digit_ties()
        assert len(ties) > 1000
        assert "%.12g" % 123456789012.5 == "123456789012"
        v = column(ties)
        assert_renders_like_percent([v])
        assert_renders_like_percent([-v])

    def test_near_ties_at_every_exponent(self):
        v = column(near_ties())
        assert_renders_like_percent([v])
        assert_renders_like_percent([-v])

    def test_carry_to_the_next_power(self):
        assert csv_rows([column([999999999999.5, 9.9999999999996, 99999999999.99999])]) == "1e+12\n10\n100000000000\n"
        assert_renders_like_percent([column([10.0**e * (1 - 2.0**-50) for e in range(-300, 300)])])

    @pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e11, 1e12])
    def test_one_ulp_around_the_notation_edges(self, edge):
        values = ulps_around(edge) + [v * 10**j for v in ulps_around(edge) for j in (-3, 3)]
        assert_renders_like_percent([column(values)])
        assert_renders_like_percent([-column(values)])

    def test_one_ulp_around_every_power_of_ten(self):
        values = [u for e in range(-300, 301) for u in ulps_around(float(f"1e{e}"))]
        assert_renders_like_percent([column(values)])

    def test_special_values(self):
        tiny = sys.float_info.min
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, math.nextafter(tiny, 0.0)]
        values += [tiny, -tiny, 1e-280, 1e-281, 1e280, 1e281, 1e300, sys.float_info.max, -sys.float_info.max]
        v = column(values)
        assert csv_rows([v[:5]]) == "0\n-0\ninf\n-inf\nnan\n"
        assert_renders_like_percent([v])
        assert_renders_like_percent([v, v[::-1], np.roll(v, 3)])

    def test_integer_columns_render_as_their_doubles(self):
        n = np.arange(-5, 5000)
        big = np.array([2**53 + 1, 10**12 - 1, 10**12, -(10**15) - 3, 10**18 + 7])
        assert_renders_like_percent([n, n / 8.0])
        assert csv_rows([big]) == "".join("%.12g\n" % v for v in big.tolist())
        assert csv_rows([big]).startswith("9.00719925474e+15\n999999999999\n1e+12\n")

    def test_an_exponent_one_off_is_corrected(self, monkeypatch):
        # The exponents come from floor(log10 |v|): shifted by -0.6 or +0.6, about
        # half of them are one too small or one too large, and no digit changes.
        values = column(near_ties() + thirteen_digit_ties() + [10.0**e for e in range(-280, 280)])
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + np.resize([-0.6, 0.6, 0.0], len(a)))
        assert_renders_like_percent([values, -values[::-1]])

    @pytest.mark.parametrize("n", [0, 7, 131, 200])
    def test_an_eval_table(self, n):
        x = -9.0 + 0.00123 * np.arange(14000)
        z = 1.3 * x
        d = eval_D(n, z)
        assert_renders_like_percent([x, z, d, 0.37 * d])

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_blocks_join_into_whole_rows(self, width):
        rng = np.random.default_rng(width)
        count = 3 * render._BLOCK_VALUES // width + 7
        columns = [rng.standard_normal(count) * 10.0 ** rng.integers(-20, 20, count) for _ in range(width)]
        columns[0][::97] = 0.0  # the fallback, in every block
        text = csv_rows(columns)
        assert text.count("\n") == count
        assert_renders_like_percent(columns)

    def test_no_rows(self):
        assert csv_rows([column([]), column([])]) == ""


def scaled(v: float) -> tuple[float, Fraction]:
    """p = |v| ``_POW[e]`` and the true mantissa |v| 10^(11 - e), at e = floor(log10 |v|) found exactly."""
    a = Fraction(abs(v))
    e = math.floor(math.log10(abs(v)))
    e += (a >= Fraction(10) ** (e + 1)) - (a < Fraction(10) ** e)
    return abs(v) * render._POW[render._E.index(e)].item(), a * Fraction(10) ** (11 - e)


#: Doubles whose one scaled product p lies 2^-13 from a half, on the other side of
#: it from the true mantissa: rint(p) misrounds them, and a window round the half
#: of 2^-14 would print them wrong.  Found by an exact search of the doubles
#: nearest 13-digit decimals ending in 5, over e = -280..280.
MISROUNDED_BY_RINT = [
    9.817198376585e-276, 9.321515622205e-263, 9.090311907115e-241, 9.834972884635e-154,
    8.442319825955e-95, 7.818530643235e-33, 9.884543973285e-12, 9.118900698625e26,
    9.508754632805e42, 8.426216295635e107, 9.500794890035e203, 9.149707057095e265,
]


class TestScaling:
    def test_each_power_is_the_double_nearest_it(self):
        assert len(render._POW) == len(render._E)
        for e, power in zip(render._E, render._POW.tolist()):
            exact = Fraction(10) ** (11 - e)
            error = abs(Fraction(power) - exact)
            assert error <= abs(Fraction(math.nextafter(power, 0.0)) - exact), e
            assert error <= abs(Fraction(math.nextafter(power, math.inf)) - exact), e

    def test_one_product_is_within_2_to_the_minus_12_of_the_mantissa(self):
        # The bound the fallback window rests on: the table and the product round once each.
        values = [v for v in thirteen_digit_ties() + near_ties() + MISROUNDED_BY_RINT if 1e-280 <= v < 1e281]
        assert len(values) > 3000
        for v in values:
            p, mantissa = scaled(v)
            assert abs(Fraction(p) - mantissa) < Fraction(1, 2**12), v

    def test_values_rint_misrounds_take_the_fallback(self):
        for v in MISROUNDED_BY_RINT:
            p, mantissa = scaled(v)
            m = round(p)
            assert 0.5 - 2.0**-11 <= abs(p - m) < 0.5 - 2.0**-14, v
            assert abs(mantissa - m) > Fraction(1, 2), v  # the half lies between p and the mantissa
        v = column(MISROUNDED_BY_RINT)
        assert_renders_like_percent([v])
        assert_renders_like_percent([-v, v[::-1]])
