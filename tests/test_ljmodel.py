import math
import re
import sys
from fractions import Fraction

import pytest

from paracyl.field import integer_branch_spectrum
from paracyl.ljmodel import (
    LJSpec,
    R_MIN_FACTOR,
    bound_levels,
    curvature_matched_k,
    estimate_gamma_sq,
    fit_oscillator,
    harmonic_curve,
    lj_minimum,
    lj_potential,
)
from paracyl.numerics import golden_section_minimize

UNIT = LJSpec(epsilon=1.0, sigma=1.0, gamma_sq=2)


class TestSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LJSpec(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            LJSpec(1.0, -1.0, 1)
        with pytest.raises(ValueError):
            LJSpec(1.0, 1.0, 0)

    @pytest.mark.parametrize(
        "epsilon,sigma,name", [(1e-320, 1.0, "epsilon"), (1.0, 1e-320, "sigma"), (1.0, 5e-324, "sigma")]
    )
    def test_rejects_subnormal_parameters(self, epsilon, sigma, name):
        with pytest.raises(ValueError, match=f"^{name} = .* is subnormal"):
            LJSpec(epsilon, sigma, 3)

    def test_rejects_a_sigma_whose_minimum_overflows(self):
        # The largest sigma whose minimum R_MIN_FACTOR sigma is finite is allowed, the next double up is not.
        sigma = sys.float_info.max / R_MIN_FACTOR
        while not math.isfinite(R_MIN_FACTOR * sigma):
            sigma = math.nextafter(sigma, 0.0)
        while math.isfinite(R_MIN_FACTOR * math.nextafter(sigma, math.inf)):
            sigma = math.nextafter(sigma, math.inf)
        assert math.isfinite(lj_minimum(LJSpec(1.0, sigma, 3))[0])
        for bad in (math.nextafter(sigma, math.inf), sys.float_info.max):
            with pytest.raises(ValueError, match=r"^well minimum r_min = 2\^\(1/6\) sigma overflows for sigma = "):
                LJSpec(1.0, bad, 3)

    def test_smallest_normal_parameters_are_allowed(self):
        tiny = sys.float_info.min
        # epsilon = tiny would make the level -epsilon / 2 subnormal; 2 tiny is the least depth for gamma_sq = 1.
        assert lj_minimum(LJSpec(2 * tiny, tiny, 1)) == (R_MIN_FACTOR * tiny, -2 * tiny)
        assert bound_levels(LJSpec(2 * tiny, 1.0, 1)) == [(-1, -tiny)]

    @pytest.mark.parametrize(
        "epsilon,gamma_sq",
        [(2.3e-308, 100000), (sys.float_info.min, 1), (math.nextafter(2 * sys.float_info.min, 0.0), 1), (1.0, 10**400)],
    )
    def test_rejects_a_subnormal_smallest_level(self, epsilon, gamma_sq):
        with pytest.raises(ValueError, match=r"^smallest level epsilon / \(2 gamma_sq\) = .* is below"):
            LJSpec(epsilon, 1.0, gamma_sq)

    def test_the_smallest_level_is_compared_exactly(self):
        # 2 gamma_sq tiny is exact in doubles, so the least allowed depth is that product, for any gamma_sq.
        tiny = sys.float_info.min
        for g in (3, 7, 100000, 2**40 + 1):
            LJSpec(2 * g * tiny, 1.0, g)
            with pytest.raises(ValueError):
                LJSpec(math.nextafter(2 * g * tiny, 0.0), 1.0, g)

    @pytest.mark.parametrize("g", [1, 3, 7, 10**6, 2**40 + 1, 10**400])
    def test_the_rejection_and_its_level_match_a_fraction_reference(self, g):
        # Depths on both sides of the edge 2 g tiny, as close as a double gets, and far from it.
        tiny = sys.float_info.min
        edge = 2 * g * tiny if g < 2**60 else 1.0
        depths = [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf), 2.3e-308, 1e-300, 1.0, 1e300]
        depths += [2 * tiny, math.nextafter(2 * tiny, 0.0)]  # the edge of gamma_sq = 1
        for epsilon in depths:
            level = Fraction(epsilon) / (2 * g)
            if level < Fraction(tiny):
                message = f"smallest level epsilon / (2 gamma_sq) = {float(level)!r} is below"
                with pytest.raises(ValueError, match="^" + re.escape(message)):
                    LJSpec(epsilon, 1.0, g)
            else:
                LJSpec(epsilon, 1.0, g)


class TestPotential:
    def test_zero_at_sigma(self):
        assert lj_potential(1.0, UNIT) == 0.0

    def test_depth_at_minimum(self):
        assert lj_potential(R_MIN_FACTOR, UNIT) == pytest.approx(-1.0, rel=1e-14, abs=0.0)

    def test_at_twice_sigma(self):
        assert lj_potential(2.0, UNIT) == pytest.approx(4.0 * (2.0**-12 - 2.0**-6), rel=1e-15, abs=0.0)

    def test_rejects_nonpositive_separation(self):
        with pytest.raises(ValueError):
            lj_potential(0.0, UNIT)
        with pytest.raises(ValueError):
            lj_potential(-1.0, UNIT)

    def test_limits(self):
        assert -1e-6 < lj_potential(1e3, UNIT) < 0.0
        assert lj_potential(0.05, UNIT) > 1e10

    @pytest.mark.parametrize("r", [1e-60, 1e-52, 1 / 1.5e51, 5e-308, sys.float_info.min, 5e-324])
    @pytest.mark.parametrize("epsilon", [1.0, sys.float_info.max])
    def test_past_the_double_range_is_inf(self, r, epsilon):
        # (sigma / r)^12 and U are past the largest double: U is inf, not an OverflowError or nan.
        assert lj_potential(r, LJSpec(epsilon=epsilon, sigma=1.0, gamma_sq=2)) == math.inf

    @pytest.mark.parametrize("epsilon", [1.0, 2e307, sys.float_info.max / 4, 4.5e307, 1e308, sys.float_info.max])
    def test_every_value_is_the_exact_product_rounded_once(self, epsilon):
        # 4 epsilon overflows above a quarter of the largest double; the well depth U = -epsilon does not.
        spec = LJSpec(epsilon=epsilon, sigma=1.0, gamma_sq=2)
        for r in [0.95 + 0.005 * i for i in range(211)] + [1.0, R_MIN_FACTOR]:
            sr6 = (1.0 / r) ** 6
            exact = 4 * Fraction(epsilon) * Fraction(sr6 * sr6 - sr6)
            try:
                want = float(exact)
            except OverflowError:
                want = math.inf if exact > 0 else -math.inf
            assert lj_potential(r, spec) == want, r
        assert lj_potential(1.0, spec) == 0.0
        assert lj_potential(R_MIN_FACTOR, spec) == pytest.approx(-epsilon, rel=1e-14, abs=0.0)


class TestMinimum:
    def test_position(self):
        r_min, _ = lj_minimum(LJSpec(2.0, 1.0, 3))
        assert r_min == pytest.approx(1.122462048309373, rel=1e-15, abs=0.0)

    def test_depth(self):
        assert lj_minimum(LJSpec(3.5, 0.8, 2))[1] == -3.5

    def test_stationary_by_central_difference(self):
        r_min, _ = lj_minimum(UNIT)
        h = 1e-6
        slope = (lj_potential(r_min + h, UNIT) - lj_potential(r_min - h, UNIT)) / (2 * h)
        assert abs(slope) < 1e-9

    def test_golden_section_lands_on_it(self):
        spec = LJSpec(1.0, 1.0, 4)
        r_num, u_num = golden_section_minimize(lambda r: lj_potential(r, spec), 0.8, 2.0)
        r_min, u_min = lj_minimum(spec)
        assert r_num == pytest.approx(r_min, abs=1e-8)
        assert u_num == pytest.approx(u_min, abs=1e-10)


class TestFitOscillator:
    def test_quarter_omega(self):
        assert fit_oscillator(LJSpec(1.0, 1.0, 4)).omega == 0.25

    def test_direct_inversion(self):
        assert fit_oscillator(LJSpec(2.0, 1.0, 1)).omega == 2.0

    def test_defining_identity(self):
        import random

        rng = random.Random(3)
        for _ in range(8):
            spec = LJSpec(rng.uniform(0.1, 5.0), rng.uniform(0.1, 3.0), rng.randint(1, 50))
            osc = fit_oscillator(spec, hbar=rng.uniform(0.5, 2.0))
            assert osc.hbar * osc.omega * spec.gamma_sq == pytest.approx(spec.epsilon, rel=1e-14, abs=0.0)


class TestBoundLevels:
    def test_two_state_well(self):
        assert bound_levels(UNIT) == [(-2, -0.75), (-1, -0.25)]

    def test_single_state_well(self):
        assert bound_levels(LJSpec(1.0, 1.0, 1)) == [(-1, -0.5)]

    @pytest.mark.parametrize("g", [1, 2, 3, 7, 25, 100])
    def test_count_range_and_exact_rational_values(self, g):
        spec = LJSpec(1.0, 1.0, g)
        levels = bound_levels(spec)
        assert len(levels) == g
        assert [m for m, _ in levels] == list(range(-g, 0))
        energies = [e for _, e in levels]
        assert all(-1.0 < e < 0.0 for e in energies)
        assert energies == sorted(energies)
        # levels are the correctly-rounded image of the exact rational ladder
        assert energies == [float(Fraction(2 * m + 1, 2 * g)) for m in range(-g, 0)]
        if g > 1:
            spacing = 1.0 / g
            for a, b in zip(energies, energies[1:]):
                assert b - a == pytest.approx(spacing, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("g", [1, 2, 7, 10**6])
    def test_levels_equal_a_fraction_reference(self, g):
        # A normal depth, depths at the normal/subnormal edge of the top level, and depths near the top of the range.
        tiny = sys.float_info.min
        depths = [1.0, 0.1, 3.7, 2 * g * tiny, math.nextafter(2 * g * tiny, math.inf), 1e300, sys.float_info.max]
        every = 1 if g < 100 else 997  # for 10**6 levels, every 997th, the first and the last
        for epsilon in depths:
            levels = bound_levels(LJSpec(epsilon, 1.0, g))
            assert len(levels) == g
            picked = sorted({0, g - 1, *range(0, g, every)})
            for i in picked:
                m, e = levels[i]
                assert m == i - g
                assert e.hex() == float(Fraction(epsilon) * (2 * m + 1) / (2 * g)).hex()
        assert bound_levels(LJSpec(2 * g * tiny, 1.0, g))[-1] == (-1, -tiny)

    def test_edges(self):
        levels = bound_levels(LJSpec(2.0, 1.0, 4))
        assert levels[0][1] == pytest.approx(-2.0 + 2.0 / 8.0, rel=1e-15, abs=0.0)
        assert levels[-1][1] == pytest.approx(-2.0 / 8.0, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 9])
    def test_matches_integer_branch_negative_subset(self, g):
        spec = LJSpec(1.0, 1.0, g)
        osc = fit_oscillator(spec)
        branch = integer_branch_spectrum(g, -1, osc)
        levels = bound_levels(spec)
        assert len(branch) == len(levels)
        for (m_lj, e_lj), (m_br, e_br, _) in zip(levels, branch):
            assert m_lj == m_br
            assert e_lj == pytest.approx(e_br, abs=1e-12)


class TestEstimateGammaSq:
    def test_exact_quarter_spacing(self):
        assert estimate_gamma_sq(1.0, 0.25) == (4, 0.0)

    def test_single_state(self):
        assert estimate_gamma_sq(1.0, 1.0) == (1, 0.0)

    def test_nearest_integer_rounding(self):
        g, residual = estimate_gamma_sq(1.0, 0.3)
        assert g == 3
        assert residual == pytest.approx(abs(10.0 / 3.0 - 3.0), rel=1e-12, abs=0.0)

    def test_round_trip_recovers_all_counts(self):
        assert all(estimate_gamma_sq(1.0, 1.0 / g)[0] == g for g in range(1, 1001))

    def test_spacing_above_depth_warns_and_clamps(self):
        with pytest.warns(UserWarning):
            g, residual = estimate_gamma_sq(1.0, 1.5)
        assert g == 1
        assert residual == pytest.approx(1.0 / 3.0, rel=1e-12, abs=0.0)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            estimate_gamma_sq(1.0, 0.0)
        with pytest.raises(ValueError):
            estimate_gamma_sq(-1.0, 0.5)

    @pytest.mark.parametrize("epsilon,delta_e", [(1.0, 1e-320), (1e308, 1e-300)])
    def test_rejects_an_overflowing_ratio(self, epsilon, delta_e):
        with pytest.raises(ValueError, match="overflows"):
            estimate_gamma_sq(epsilon, delta_e)


class TestHarmonicCurve:
    def test_vertex(self):
        spec = LJSpec(1.0, 1.0, 4)
        assert harmonic_curve(R_MIN_FACTOR, spec, 70.0) == -1.0

    def test_reference_offset(self):
        spec = LJSpec(1.0, 1.0, 4)
        assert harmonic_curve(R_MIN_FACTOR + 0.1, spec, 70.0) == pytest.approx(-0.65, abs=1e-12)

    def test_even_about_vertex(self):
        spec = LJSpec(1.0, 1.0, 4)
        for d in (0.01, 0.1, 0.3):
            assert harmonic_curve(R_MIN_FACTOR + d, spec, 70.0) == pytest.approx(
                harmonic_curve(R_MIN_FACTOR - d, spec, 70.0), rel=1e-12, abs=0.0
            )

    def test_rejects_nonpositive_force_constant(self):
        with pytest.raises(ValueError):
            harmonic_curve(1.0, UNIT, 0.0)

    def test_rejects_infinite_force_constant(self):
        # inf * 0 at the vertex would otherwise give nan
        with pytest.raises(ValueError):
            harmonic_curve(R_MIN_FACTOR, UNIT, math.inf)


class TestCurvatureMatchedK:
    def test_value(self):
        assert curvature_matched_k(LJSpec(1.0, 1.0, 4)) == pytest.approx(
            72.0 / 2.0 ** (1.0 / 3.0), rel=1e-15, abs=0.0
        )

    def test_matches_numeric_second_derivative(self):
        spec = LJSpec(1.3, 0.9, 4)
        r_min, _ = lj_minimum(spec)
        h = 1e-4
        num = (
            lj_potential(r_min + h, spec) - 2.0 * lj_potential(r_min, spec) + lj_potential(r_min - h, spec)
        ) / h**2
        assert curvature_matched_k(spec) == pytest.approx(num, rel=1e-5, abs=0.0)
