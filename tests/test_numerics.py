import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_hermite

from paracyl.numerics import (
    Grid1D,
    MAX_RULE_POINTS,
    QuadratureRule,
    SQRT_PI,
    gauss_hermite_rule,
    golden_section_minimize,
    overlap,
    weighted_inner_product,
)
from paracyl.field import ShiftedState, expectation_x_shifted
from paracyl.oscillator import Eigenstate, OscillatorSpec, expectation_x
from paracyl.polys import hermite_recurrence, poly_eval


def even_moment(k):
    """Closed form of the integral of t^{2k} e^{-t^2}: (2k-1)!! sqrt(pi) / 2^k."""
    value = SQRT_PI
    for j in range(1, k + 1):
        value *= (2 * j - 1) / 2.0
    return value


class TestQuadratureRuleType:
    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ValueError):
            QuadratureRule((1.0, -1.0), (SQRT_PI / 2, SQRT_PI / 2))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            QuadratureRule((-1.0, 1.0), (SQRT_PI, -0.1))

    def test_rejects_wrong_total_mass(self):
        with pytest.raises(ValueError):
            QuadratureRule((-1.0, 1.0), (1.0, 1.0))

    @pytest.mark.parametrize("n", [1, 16, 256])
    def test_arrays_equal_the_tuples_and_are_read_only(self, n):
        rule = gauss_hermite_rule(n)
        for array, values in ((rule.node_array, rule.nodes), (rule.weight_array, rule.weights)):
            assert array.dtype == np.float64
            assert tuple(array.tolist()) == values
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_fold_array_is_read_only_and_bit_identical_to_the_per_call_factor(self):
        for n in range(1, MAX_RULE_POINTS + 1):
            rule = gauss_hermite_rule(n)
            t = rule.node_array
            assert rule.fold_array.dtype == np.float64
            assert rule.fold_array.tobytes() == np.exp(0.5 * t * t).tobytes()
            with pytest.raises(ValueError):
                rule.fold_array[0] = 1.0
        assert gauss_hermite_rule(8).fold_array is gauss_hermite_rule(8).fold_array

    def test_arrays_are_built_once(self):
        rule = gauss_hermite_rule(8)
        assert rule.node_array is gauss_hermite_rule(8).node_array
        assert rule == QuadratureRule(rule.nodes, rule.weights)


class TestGaussHermiteRule:
    def test_one_point_rule(self):
        rule = gauss_hermite_rule(1)
        assert rule.nodes == (0.0,)
        assert rule.weights[0] == pytest.approx(SQRT_PI, rel=1e-15)

    def test_two_point_rule(self):
        rule = gauss_hermite_rule(2)
        assert rule.nodes[0] == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-15)
        assert rule.nodes[1] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert rule.weights[0] == pytest.approx(SQRT_PI / 2.0, rel=1e-15)
        assert rule.weights[1] == rule.weights[0]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
    def test_moment_exactness(self, n):
        rule = gauss_hermite_rule(n)
        for k in range(n):  # even moments t^{2k} with 2k <= 2n - 1
            approx = math.fsum(w * t ** (2 * k) for t, w in zip(rule.nodes, rule.weights))
            assert approx == pytest.approx(even_moment(k), rel=1e-12)

    @pytest.mark.parametrize("n", range(1, MAX_RULE_POINTS + 1))
    def test_node_symmetry_and_pairwise_weights(self, n):
        rule = gauss_hermite_rule(n)
        nodes, weights = rule.nodes, rule.weights
        for i in range(n // 2):
            assert nodes[i] == -nodes[n - 1 - i]
            assert weights[i] == weights[n - 1 - i]
        if n % 2:
            assert nodes[n // 2] == 0.0

    @pytest.mark.parametrize("n", range(1, MAX_RULE_POINTS + 1))
    def test_against_scipy(self, n):
        x_ref, w_ref = roots_hermite(n)
        rule = gauss_hermite_rule(n)
        assert np.max(np.abs(np.asarray(rule.nodes) - x_ref)) < 1e-13
        assert np.max(np.abs(np.asarray(rule.weights) - w_ref) / w_ref) < 1e-11

    def test_rejects_out_of_range_sizes(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(0)
        with pytest.raises(ValueError):
            gauss_hermite_rule(MAX_RULE_POINTS + 1)
        with pytest.raises(TypeError):
            gauss_hermite_rule(2.0)


class TestWeightedInnerProduct:
    def test_constant_gives_total_mass(self):
        for n in (1, 4, 9):
            rule = gauss_hermite_rule(n)
            assert weighted_inner_product(lambda t: 1.0, lambda t: 1.0, rule) == pytest.approx(
                SQRT_PI, rel=1e-14
            )

    def test_h1_squared_norm(self):
        rule = gauss_hermite_rule(8)
        h1 = lambda t: poly_eval(hermite_recurrence(1), t)
        assert weighted_inner_product(h1, h1, rule) == pytest.approx(2.0 * SQRT_PI, rel=1e-13)

    def test_h2_squared_norm(self):
        rule = gauss_hermite_rule(8)
        h2 = lambda t: poly_eval(hermite_recurrence(2), t)
        assert weighted_inner_product(h2, h2, rule) == pytest.approx(8.0 * SQRT_PI, rel=1e-13)

    def test_rejects_non_finite_values(self):
        rule = gauss_hermite_rule(4)
        with pytest.raises(ValueError):
            weighted_inner_product(lambda t: math.inf, lambda t: 1.0, rule)

    def test_factors_receive_the_node_array(self):
        rule = gauss_hermite_rule(6)
        seen = []
        weighted_inner_product(lambda t: seen.append(t) or t, lambda t: t, rule)
        assert len(seen) == 1
        assert isinstance(seen[0], np.ndarray)
        assert tuple(seen[0]) == rule.nodes

    def test_scalar_factor_broadcasts(self):
        # 2 * integral of t^2 e^{-t^2} = sqrt(pi)
        rule = gauss_hermite_rule(5)
        assert weighted_inner_product(lambda t: 2.0, lambda t: t * t, rule) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_non_finite_value_at_one_node_is_named(self):
        rule = gauss_hermite_rule(5)
        bad = rule.nodes[3]
        f = lambda t: np.where(t == bad, math.nan, 1.0)
        with pytest.raises(ValueError, match=repr(bad)):
            weighted_inner_product(f, lambda t: 1.0, rule)
        with pytest.raises(ValueError, match=repr(bad)):
            weighted_inner_product(lambda t: 1.0, f, rule)


#: Mirror-pair sum against math.fsum: |error| <= len(rule) * 2**-52 * sum|v|.
FSUM_BOUND_PER_POINT = 2.0**-52

UNIT = OscillatorSpec()


def folded(state, rule):
    """state(t) e^{t^2/2} at the nodes: one factor of ``overlap`` at scale 1."""
    return lambda t: state(t) * rule.fold_array


class TestMirrorPairSum:
    @pytest.mark.parametrize("k", range(1, MAX_RULE_POINTS + 1))
    def test_odd_integrands_are_exactly_zero(self, k):
        rule = gauss_hermite_rule(k)
        n = min(k - 1, 200)
        psi = folded(Eigenstate(n, UNIT), rule)
        assert weighted_inner_product(lambda t: t * psi(t), psi, rule) == 0.0
        for i in {0, n // 2, n}:
            j = i + 1 if i < 200 else i - 1
            a, b = folded(Eigenstate(i, UNIT), rule), folded(Eigenstate(j, UNIT), rule)
            assert weighted_inner_product(a, b, rule) == 0.0

    @given(st.data())
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_matches_fsum_within_the_pairwise_bound(self, data):
        k = data.draw(st.integers(1, MAX_RULE_POINTS))
        rule = gauss_hermite_rule(k)
        finite = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)
        fv = np.array(data.draw(st.lists(finite, min_size=k, max_size=k)))
        gv = np.array(data.draw(st.lists(finite, min_size=k, max_size=k)))
        v = (rule.weight_array * fv * gv).tolist()
        value = weighted_inner_product(lambda t: fv, lambda t: gv, rule)
        assert abs(value - math.fsum(v)) <= k * FSUM_BOUND_PER_POINT * math.fsum(map(abs, v))

    def test_non_symmetric_rule(self):
        half = SQRT_PI / 2
        rule = QuadratureRule((-1.0, 2.0), (half, half))
        assert weighted_inner_product(lambda t: 1.0, lambda t: 1.0, rule) == math.fsum([half, half])
        assert weighted_inner_product(lambda t: t, lambda t: 1.0, rule) == math.fsum([-half, 2.0 * half])
        assert weighted_inner_product(lambda t: t, lambda t: t, rule) == math.fsum([half, 4.0 * half])
        third = SQRT_PI / 3
        rule = QuadratureRule((-1.0, 0.5, 3.0), (third, third, third))
        assert weighted_inner_product(lambda t: t, lambda t: t * t, rule) == pytest.approx(
            third * (-1.0 + 0.125 + 27.0), rel=1e-15
        )


class TestOverlap:
    def test_ground_state_normalization(self):
        spec = OscillatorSpec()
        psi0 = Eigenstate(0, spec)
        rule = gauss_hermite_rule(32)
        assert overlap(psi0, psi0, 1.0, rule) == pytest.approx(1.0, abs=1e-10)

    def test_opposite_parity_vanishes(self):
        spec = OscillatorSpec()
        value = overlap(Eigenstate(0, spec), Eigenstate(1, spec), 1.0, gauss_hermite_rule(32))
        assert abs(value) < 1e-12

    def test_same_parity_orthogonality(self):
        spec = OscillatorSpec()
        value = overlap(Eigenstate(1, spec), Eigenstate(3, spec), 1.0, gauss_hermite_rule(32))
        assert abs(value) < 1e-10

    def test_each_state_is_called_once(self):
        spec = OscillatorSpec()
        calls = {"a": 0, "b": 0}

        def counting(name, state):
            def call(x):
                calls[name] += 1
                return state(x)

            return call

        overlap(counting("a", Eigenstate(2, spec)), counting("b", Eigenstate(4, spec)), 1.0, gauss_hermite_rule(64))
        assert calls == {"a": 1, "b": 1}

    @pytest.mark.parametrize("scale", [0.37, 1.0, 2.5])
    def test_matches_per_node_scalar_loop(self, scale):
        spec = OscillatorSpec(mu=scale)
        rule = gauss_hermite_rule(32)
        a, b = Eigenstate(3, spec), Eigenstate(5, spec)
        s = math.sqrt(scale)
        reference = math.fsum(
            w * a(t / s) * math.exp(0.5 * t * t) * b(t / s) * math.exp(0.5 * t * t)
            for t, w in zip(rule.nodes, rule.weights)
        ) / s
        assert overlap(a, b, scale, rule) == pytest.approx(reference, abs=1e-14)

    def test_rejects_nonpositive_scale(self):
        spec = OscillatorSpec()
        with pytest.raises(ValueError):
            overlap(Eigenstate(0, spec), Eigenstate(0, spec), 0.0)


class TestRuleSizedByOrder:
    @pytest.mark.parametrize("n", [64, 80, 150, 200])
    def test_default_rule_is_exact_past_64_points(self, n):
        psi = Eigenstate(n, UNIT)
        assert overlap(psi, psi, UNIT.gaussian_scale) == pytest.approx(1.0, abs=1e-10)

    def test_default_rule_is_sized_from_both_orders(self):
        a, b = Eigenstate(120, UNIT), Eigenstate(140, UNIT)
        assert overlap(a, b, 1.0) == overlap(a, b, 1.0, gauss_hermite_rule(131))

    @pytest.mark.parametrize("i,j", [(0, 0), (3, 5), (10, 10), (60, 67)])
    def test_orders_within_64_points_keep_the_64_point_rule(self, i, j):
        a, b = Eigenstate(i, UNIT), Eigenstate(j, UNIT)
        assert overlap(a, b, 1.0) == overlap(a, b, 1.0, gauss_hermite_rule(64))

    def test_too_small_explicit_rule_is_rejected(self):
        psi = Eigenstate(80, UNIT)
        with pytest.raises(ValueError, match="at least 81 points"):
            overlap(psi, psi, 1.0, gauss_hermite_rule(64))
        assert overlap(psi, psi, 1.0, gauss_hermite_rule(81)) == pytest.approx(1.0, abs=1e-10)

    def test_callables_without_an_order_keep_the_64_point_rule(self):
        psi = Eigenstate(80, UNIT)
        plain = lambda x: psi(x)
        rule = gauss_hermite_rule(64)
        assert overlap(plain, psi, 1.0) == overlap(plain, psi, 1.0, rule)
        shifted = ShiftedState.continuous(80, 0.5, UNIT)
        assert overlap(shifted, shifted, 1.0) == overlap(shifted, shifted, 1.0, rule)
        # An explicit rule is taken as given when the orders are unknown.
        assert math.isfinite(overlap(plain, plain, 1.0, gauss_hermite_rule(2)))

    def test_expectation_x_sizes_its_rule(self):
        assert expectation_x(80, UNIT) == 0.0
        assert expectation_x(10, UNIT) == expectation_x(10, UNIT, gauss_hermite_rule(64))
        with pytest.raises(ValueError, match="at least 81 points"):
            expectation_x(80, UNIT, gauss_hermite_rule(80))

    @pytest.mark.parametrize("gamma", [-0.9, 0.5])
    def test_expectation_x_shifted_sizes_its_rule(self, gamma):
        state = ShiftedState.continuous(80, gamma, UNIT)
        assert expectation_x_shifted(state) == pytest.approx(-gamma * math.sqrt(2.0), abs=1e-9)
        with pytest.raises(ValueError, match="at least 81 points"):
            expectation_x_shifted(state, gauss_hermite_rule(64))
        low = ShiftedState.continuous(5, gamma, UNIT)
        assert expectation_x_shifted(low) == expectation_x_shifted(low, gauss_hermite_rule(64))


class TestGrid1D:
    def test_point_count_and_endpoints(self):
        grid = Grid1D(-6.0, 6.0, 1e-3)
        pts = grid.points()
        assert grid.npoints == 12001
        assert pts[0] == -6.0
        assert pts[-1] == pytest.approx(6.0, abs=1e-12)

    @pytest.mark.parametrize("lo,hi,h", [(-6.0, 6.0, 1e-3), (-7.3, 2.9, 0.0137), (1e3, 1e3 + 1.0, 1e-4)])
    def test_points_equal_the_integer_arange_expression(self, lo, hi, h):
        grid = Grid1D(lo, hi, h)
        assert grid.points().tobytes() == (lo + h * np.arange(grid.npoints)).tobytes()

    def test_non_divisible_span_truncates_inside(self):
        grid = Grid1D(0.0, 1.0, 0.15)
        # the last step lands inside the interval, not beyond hi
        assert grid.npoints == 7
        assert grid.points()[-1] <= 1.0 + 1e-12

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 0.5)  # only 3 points
        with pytest.raises(ValueError):
            Grid1D(0.0, math.inf, 0.1)


class TestGoldenSection:
    def test_parabola(self):
        x, fx = golden_section_minimize(lambda t: (t - 1.25) ** 2 + 3.0, -4.0, 4.0)
        assert x == pytest.approx(1.25, abs=1e-9)
        assert fx == pytest.approx(3.0, abs=1e-12)

    def test_without_polish_still_brackets(self):
        x, _ = golden_section_minimize(lambda t: (t - 1.25) ** 2, -4.0, 4.0, polish=False)
        assert x == pytest.approx(1.25, abs=1e-5)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            golden_section_minimize(lambda t: t * t, 1.0, 1.0)
