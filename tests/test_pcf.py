import math

import mpmath
import numpy as np
import pytest
import sympy
from scipy.special import pbdv

from paracyl.pcf import PcfPolyPart, eval_D, ode_residual, pcf_poly, pcf_rodrigues_poly
from paracyl.polys import DEGREE_CAP, PolyZ

# The first six polynomial factors in monic form (the closed-form table rows
# for n = 2 and 4 carry a distributed leading minus sign).
TABLE = {
    0: (1,),
    1: (0, 1),
    2: (-1, 0, 1),
    3: (0, -3, 0, 1),
    4: (3, 0, -6, 0, 1),
    5: (0, 15, 0, -10, 0, 1),
}


def pcf_by_repeated_differentiation(n):
    """Independent oracle: P_n = (-1)^n e^{z^2/2} d^n/dz^n e^{-z^2/2} via sympy."""
    z = sympy.symbols("z")
    expr = sympy.expand((-1) ** n * sympy.exp(z**2 / 2) * sympy.diff(sympy.exp(-(z**2) / 2), z, n))
    poly = sympy.Poly(expr, z)
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


class TestPcfPolyPart:
    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            PcfPolyPart(PolyZ((0, 2)), 1)

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ValueError):
            PcfPolyPart(PolyZ((0, 1)), 2)

    def test_rejects_parity_violation(self):
        with pytest.raises(ValueError):
            PcfPolyPart(PolyZ((1, 1, 0, 1)), 3)


class TestHermiteRoute:
    @pytest.mark.parametrize("n,expected", list(TABLE.items()))
    def test_closed_form_table(self, n, expected):
        assert pcf_poly(n).poly.coeffs == expected

    @pytest.mark.parametrize("n", range(0, 51))
    def test_monic_degree_parity(self, n):
        part = pcf_poly(n)
        assert part.index == n
        assert part.poly.degree == n
        assert part.poly.leading_coefficient == 1

    def test_rejects_order_beyond_cap(self):
        with pytest.raises(ValueError):
            pcf_poly(DEGREE_CAP + 1)

    def test_repeated_calls_share_one_validated_part(self):
        first = pcf_poly(17)
        assert isinstance(first, PcfPolyPart)
        assert pcf_poly(17) is first

    def test_cap_is_checked_after_caching(self):
        pcf_poly(23)
        with pytest.raises(ValueError):
            pcf_poly(23, cap=22)
        with pytest.raises(ValueError):
            eval_D(23, 0.5, cap=22)
        ode_residual(23, 0.5)
        with pytest.raises(ValueError):
            ode_residual(23, 0.5, cap=22)


class TestRodriguesRoute:
    def test_n1(self):
        assert pcf_rodrigues_poly(1).poly.coeffs == (0, 1)

    def test_n2(self):
        assert pcf_rodrigues_poly(2).poly.coeffs == (-1, 0, 1)

    def test_n3(self):
        assert pcf_rodrigues_poly(3).poly.coeffs == (0, -3, 0, 1)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_against_symbolic_differentiation(self, n):
        assert pcf_rodrigues_poly(n).poly.coeffs == pcf_by_repeated_differentiation(n)

    @pytest.mark.parametrize("n", range(0, 51))
    def test_identical_to_hermite_route(self, n):
        assert pcf_rodrigues_poly(n).poly == pcf_poly(n).poly


class TestEvalD:
    def test_d0_at_origin(self):
        assert eval_D(0, 0.0) == 1.0

    def test_d2_at_origin(self):
        assert eval_D(2, 0.0) == -1.0

    def test_d0_decay(self):
        assert eval_D(0, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_underflows_to_zero(self):
        assert eval_D(3, 80.0) == 0.0
        assert eval_D(3, 1e200) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 10])
    def test_array_matches_scalar(self, n):
        z = np.linspace(-6.0, 6.0, 97)
        values = eval_D(n, z)
        assert values.shape == z.shape
        for zi, vi in zip(z.tolist(), values.tolist()):
            assert vi == pytest.approx(eval_D(n, zi), abs=1e-15, rel=1e-14)

    def test_array_underflows_to_zero(self):
        values = eval_D(2, np.array([0.0, 80.0, -1e200, 1e200]))
        assert values.tolist() == [-1.0, 0.0, 0.0, 0.0]

    def test_infinite_argument_gives_zero(self):
        assert eval_D(4, math.inf) == 0.0
        assert eval_D(5, np.array([-math.inf, math.inf])).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_odd_order_at_negative_zero_is_positive_zero(self, n):
        assert math.copysign(1.0, eval_D(n, -0.0)) == 1.0
        assert math.copysign(1.0, eval_D(n, np.array([-0.0]))[0]) == 1.0

    def test_raised_cap_overflow_is_an_error(self):
        # D_400 peaks near sqrt(400!) ~ 1e434, beyond the double range.
        with pytest.raises(FloatingPointError):
            eval_D(400, 1.0, cap=400)

    def test_integer_array_is_evaluated_in_floats(self):
        z = np.arange(-3, 4)
        assert eval_D(40, z).tolist() == eval_D(40, z.astype(float)).tolist()

    @pytest.mark.parametrize("n", range(0, 8))
    def test_parity_is_exact(self, n):
        for z in (0.3, 1.7, 4.9):
            left, right = eval_D(n, -z), eval_D(n, z)
            assert left == (right if n % 2 == 0 else -right)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_against_scipy(self, n):
        for i in range(49):
            z = -6.0 + 0.25 * i
            ref = pbdv(n, z)[0]
            assert eval_D(n, z) == pytest.approx(ref, abs=1e-13, rel=1e-12)


    @pytest.mark.parametrize("n", [20, 40, 60, 100, 150, 200])
    def test_against_mpmath_at_high_order(self, n):
        # The oscillatory region |z| < 2 sqrt(n + 1/2) and three units of the
        # decay beyond it, relative to the largest sampled |D_n|.
        edge = 2.0 * math.sqrt(n + 1) + 3.0
        z = np.linspace(-edge, edge, 81)
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.pcfd(n, zi)) for zi in z.tolist()])
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(eval_D(n, z) - ref)) <= 1e-12 * scale
        scalar = np.array([eval_D(n, zi) for zi in z.tolist()])
        assert np.max(np.abs(scalar - ref)) <= 1e-12 * scale


class TestDefiningEquation:
    @pytest.mark.parametrize("n", range(0, 11))
    def test_residual_below_tolerance(self, n):
        zs = [-6.0 + 0.05 * i for i in range(241)]
        worst = max(abs(ode_residual(n, z)) for z in zs)
        assert worst < 1e-8
