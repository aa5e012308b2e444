import copy
import functools
import itertools
import math
import pickle
import random
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_hermite

from paracyl import numerics, oscillator
from paracyl.grids import Grid1D
from paracyl.numerics import (
    MAX_RULE_POINTS,
    QuadratureRule,
    SQRT_PI,
    gauss_hermite_rule,
    golden_section_minimize,
    overlap,
)
from paracyl.field import ShiftedState, expectation_x_shifted
from paracyl.oscillator import Eigenstate, OscillatorSpec, expectation_x
from paracyl.polys import DEGREE_CAP, hermite_recurrence, poly_eval


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

    def test_rejects_a_nan_weight(self):
        with pytest.raises(ValueError, match="^weights must be positive$"):
            QuadratureRule((-1.0, 0.0, 1.0), (1.0, math.nan, 1.0))

    @pytest.mark.parametrize(
        "nodes,bad",
        [
            ((-40.0, 0.0, 40.0), -40.0),
            ((-37.6, 0.0, 37.7), 37.7),
            ((-math.inf, 0.0, math.inf), -math.inf),
            ((-1.0, 0.0, math.nan), math.nan),
        ],
    )
    def test_rejects_a_node_where_the_fold_factor_is_not_a_finite_double(self, nodes, bad):
        # e^{t^2/2} overflows a double for |t| above sqrt(2 ln DBL_MAX) = 37.68; no RuntimeWarning is raised.
        with pytest.raises(ValueError, match=rf"^e\^\{{t\^2/2\}} is not a finite double at node {bad!r}$"):
            QuadratureRule(nodes, (1e-3, SQRT_PI - 2e-3, 1e-3))

    def test_the_largest_default_node_folds_to_a_finite_double(self):
        rule = gauss_hermite_rule(MAX_RULE_POINTS)
        assert 21.99 < rule.nodes[-1] < 22.0
        assert np.isfinite(rule.fold_array).all()
        assert math.isfinite(QuadratureRule((-37.6, 0.0, 37.6), (1e-3, SQRT_PI - 2e-3, 1e-3)).fold_array[0])

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

    def test_pickle_and_copy_rebuild_the_rule(self):
        rule = gauss_hermite_rule(8)
        psi = Eigenstate(3, OscillatorSpec())
        for twin in (pickle.loads(pickle.dumps(rule)), copy.copy(rule), copy.deepcopy(rule)):
            assert twin == rule and twin is not rule
            assert twin.fold_array.tobytes() == rule.fold_array.tobytes()
            assert overlap(psi, psi, 1.0, twin) == overlap(psi, psi, 1.0, rule)
            assert hash(twin) == hash(rule)


class TestGaussHermiteRule:
    def test_one_point_rule(self):
        rule = gauss_hermite_rule(1)
        assert rule.nodes == (0.0,)
        assert rule.weights[0] == pytest.approx(SQRT_PI, rel=1e-15, abs=0.0)

    def test_two_point_rule(self):
        rule = gauss_hermite_rule(2)
        assert rule.nodes[0] == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-15, abs=0.0)
        assert rule.nodes[1] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15, abs=0.0)
        assert rule.weights[0] == pytest.approx(SQRT_PI / 2.0, rel=1e-15, abs=0.0)
        assert rule.weights[1] == rule.weights[0]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
    def test_moment_exactness(self, n):
        rule = gauss_hermite_rule(n)
        for k in range(n):  # even moments t^{2k} with 2k <= 2n - 1
            approx = math.fsum(w * t ** (2 * k) for t, w in zip(rule.nodes, rule.weights))
            assert approx == pytest.approx(even_moment(k), rel=1e-12, abs=0.0)

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


class TestMirrorSumAndFiniteCheck:
    def test_constant_gives_total_mass(self):
        for n in (1, 4, 9):
            rule = gauss_hermite_rule(n)
            assert numerics._mirror_sum(1.0, 1.0, rule) == pytest.approx(SQRT_PI, rel=1e-14, abs=0.0)

    def test_h1_squared_norm(self):
        rule = gauss_hermite_rule(8)
        h1 = poly_eval(hermite_recurrence(1), rule.node_array)
        assert numerics._mirror_sum(h1, h1, rule) == pytest.approx(2.0 * SQRT_PI, rel=1e-13, abs=0.0)

    def test_h2_squared_norm(self):
        rule = gauss_hermite_rule(8)
        h2 = poly_eval(hermite_recurrence(2), rule.node_array)
        assert numerics._mirror_sum(h2, h2, rule) == pytest.approx(8.0 * SQRT_PI, rel=1e-13, abs=0.0)

    def test_rejects_non_finite_values(self):
        rule = gauss_hermite_rule(4)
        with pytest.raises(ValueError):
            numerics._check_finite(math.inf, 1.0, rule)
        numerics._check_finite(1.0, rule.node_array, rule)

    def test_overlap_calls_each_factor_with_the_node_array(self):
        rule = gauss_hermite_rule(6)
        seen = []
        overlap(lambda t: seen.append(t) or t, lambda t: t, 1.0, rule)
        assert len(seen) == 1
        assert isinstance(seen[0], np.ndarray)
        assert tuple(seen[0]) == rule.nodes

    def test_scalar_factor_broadcasts(self):
        # 2 * integral of t^2 e^{-t^2} = sqrt(pi)
        rule = gauss_hermite_rule(5)
        t = rule.node_array
        assert numerics._mirror_sum(2.0, t * t, rule) == pytest.approx(SQRT_PI, rel=1e-14, abs=0.0)

    def test_non_finite_value_at_one_node_is_named(self):
        rule = gauss_hermite_rule(5)
        bad = rule.nodes[3]
        fv = np.where(rule.node_array == bad, math.nan, 1.0)
        with pytest.raises(ValueError, match=repr(bad)):
            numerics._check_finite(fv, 1.0, rule)
        with pytest.raises(ValueError, match=repr(bad)):
            numerics._check_finite(1.0, fv, rule)


#: Mirror-pair sum against math.fsum: |error| <= len(rule) * 2**-52 * sum|v|.
FSUM_BOUND_PER_POINT = 2.0**-52

UNIT = OscillatorSpec()


def folded(state, rule):
    """state(t) e^{t^2/2} at the nodes: one factor of ``overlap`` at scale 1."""
    return state(rule.node_array) * rule.fold_array


class TestMirrorPairSum:
    @pytest.mark.parametrize("k", range(1, MAX_RULE_POINTS + 1))
    def test_odd_integrands_are_exactly_zero(self, k):
        rule = gauss_hermite_rule(k)
        n = min(k - 1, 200)
        psi = folded(Eigenstate(n, UNIT), rule)
        assert numerics._mirror_sum(rule.node_array * psi, psi, rule) == 0.0
        for i in {0, n // 2, n}:
            j = i + 1 if i < 200 else i - 1
            a, b = folded(Eigenstate(i, UNIT), rule), folded(Eigenstate(j, UNIT), rule)
            assert numerics._mirror_sum(a, b, rule) == 0.0

    @given(st.data())
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_matches_fsum_within_the_pairwise_bound(self, data):
        k = data.draw(st.integers(1, MAX_RULE_POINTS))
        rule = gauss_hermite_rule(k)
        finite = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)
        fv = np.array(data.draw(st.lists(finite, min_size=k, max_size=k)))
        gv = np.array(data.draw(st.lists(finite, min_size=k, max_size=k)))
        v = (rule.weight_array * fv * gv).tolist()
        value = numerics._mirror_sum(fv, gv, rule)
        assert abs(value - math.fsum(v)) <= k * FSUM_BOUND_PER_POINT * math.fsum(map(abs, v))

    def test_non_symmetric_rule(self):
        half = SQRT_PI / 2
        rule = QuadratureRule((-1.0, 2.0), (half, half))
        t = rule.node_array
        assert numerics._mirror_sum(1.0, 1.0, rule) == math.fsum([half, half])
        assert numerics._mirror_sum(t, 1.0, rule) == math.fsum([-half, 2.0 * half])
        assert numerics._mirror_sum(t, t, rule) == math.fsum([half, 4.0 * half])
        third = SQRT_PI / 3
        rule = QuadratureRule((-1.0, 0.5, 3.0), (third, third, third))
        t = rule.node_array
        assert numerics._mirror_sum(t, t * t, rule) == pytest.approx(
            third * (-1.0 + 0.125 + 27.0), rel=1e-15, abs=0.0
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

    @pytest.mark.parametrize("scale", [math.inf, math.nan, -math.inf])
    def test_rejects_a_non_finite_scale(self, scale):
        # An infinite scale maps every node to x = 0 and divides the sum by inf: 0.0, not 1.
        spec = OscillatorSpec()
        with pytest.raises(ValueError, match="^scale must be positive and finite$"):
            overlap(Eigenstate(0, spec), Eigenstate(0, spec), scale)


class UserState:
    """A user's state: an integer order n and values from a callable."""

    def __init__(self, n, f):
        self.n, self.f = n, f

    def __call__(self, x):
        return self.f(x)


class TestRuleSizedByOrder:
    @pytest.mark.parametrize("n", [64, 80, 150, 200])
    def test_default_rule_is_exact_past_64_points(self, n):
        psi = Eigenstate(n, UNIT)
        assert overlap(psi, psi, UNIT.gaussian_scale) == pytest.approx(1.0, abs=1e-10)

    def test_default_rule_is_sized_from_both_orders(self):
        a, b = Eigenstate(120, UNIT), Eigenstate(140, UNIT)
        assert overlap(a, b, 1.0) == overlap(a, b, 1.0, gauss_hermite_rule(256))

    @pytest.mark.parametrize("i,j", [(0, 0), (3, 5), (10, 10), (60, 67)])
    def test_orders_within_64_points_keep_the_64_point_rule(self, i, j):
        a, b = Eigenstate(i, UNIT), Eigenstate(j, UNIT)
        assert overlap(a, b, 1.0) == overlap(a, b, 1.0, gauss_hermite_rule(64))

    def test_too_small_explicit_rule_is_rejected(self):
        psi = Eigenstate(80, UNIT)
        with pytest.raises(ValueError, match="at least 81 points"):
            overlap(psi, psi, 1.0, gauss_hermite_rule(64))
        assert overlap(psi, psi, 1.0, gauss_hermite_rule(81)) == pytest.approx(1.0, abs=1e-10)

    def test_a_user_state_past_the_cap_gets_the_rule_its_order_needs(self):
        # Only an Eigenstate's order is capped, since only its column runs eval_D.
        # Orders 250 and 0 need 126 points, which the 128-point rule holds.
        psi = Eigenstate(0, UNIT)
        high, low = UserState(DEGREE_CAP + 50, psi), UserState(0, psi)
        for other in (low, psi):
            value = overlap(high, other, 1.0)
            assert value == overlap(high, other, 1.0, gauss_hermite_rule(128))
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_a_user_state_past_256_points_is_refused_by_the_rule(self):
        high = UserState(300, Eigenstate(0, UNIT))
        with pytest.raises(ValueError, match=r"^rule size must be in 1\.\.256$"):
            overlap(high, high, 1.0)

    def test_a_default_sweep_over_every_order_builds_three_rules(self, monkeypatch):
        build = functools.lru_cache(maxsize=None)(numerics._build_rule.__wrapped__)
        monkeypatch.setattr(numerics, "_build_rule", build)  # an empty cache of its own
        for n in range(DEGREE_CAP + 1):
            psi = Eigenstate(n, UNIT)
            overlap(psi, psi, 1.0)
            expectation_x(n, UNIT)
            expectation_x_shifted(ShiftedState.continuous(n, 1.0, UNIT))
        assert build.cache_info().currsize == 3
        assert [len(build(k)) for k in (64, 128, 256)] == [64, 128, 256]
        assert build.cache_info().currsize == 3  # the three were the sizes cached

    def test_callables_without_an_order_keep_the_64_point_rule(self):
        psi = Eigenstate(80, UNIT)
        plain = lambda x: psi(x)
        rule = gauss_hermite_rule(64)
        assert overlap(plain, psi, 1.0) == overlap(plain, psi, 1.0, rule)
        # An explicit rule is taken as given when the orders are unknown.
        assert math.isfinite(overlap(plain, plain, 1.0, gauss_hermite_rule(2)))

    def test_a_shifted_state_sizes_the_rule_by_its_pcf_index(self):
        shifted = ShiftedState.continuous(80, 0.5, UNIT)
        assert overlap(shifted, shifted, 1.0) == overlap(shifted, shifted, 1.0, gauss_hermite_rule(128))
        with pytest.raises(ValueError, match="at least 81 points"):
            overlap(shifted, shifted, 1.0, gauss_hermite_rule(64))
        with pytest.raises(ValueError, match="at least 66 points"):
            overlap(Eigenstate(50, UNIT), shifted, 1.0, gauss_hermite_rule(64))

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


class TestAccuracyOverTheOrderRange:
    """Literal bounds over n = 0..DEGREE_CAP, about twice the worst error measured."""

    def test_pairwise_gram_block_on_the_256_point_rule(self):
        # Measured: max |G - I| = 9.8e-15.
        rule = gauss_hermite_rule(256)
        states = [Eigenstate(n, UNIT) for n in range(DEGREE_CAP + 1)]
        worst = max(
            abs(overlap(states[i], states[j], 1.0, rule) - (i == j))
            for i in range(DEGREE_CAP + 1)
            for j in range(i, DEGREE_CAP + 1)
        )
        assert worst <= 2e-14

    def test_default_rule_displacement_sweep(self):
        # Measured: 9.7e-14 at gamma = 1, where <x> = -sqrt(2).
        states = [ShiftedState.continuous(n, 1.0, UNIT) for n in range(DEGREE_CAP + 1)]
        worst = max(abs(expectation_x_shifted(state) - state.x_center) for state in states)
        assert worst <= 2e-13


def uncached_overlap(a, b, scale, rule):
    """``overlap`` as the plain per-call fold: each factor evaluated afresh, checked, then summed."""
    s = math.sqrt(scale)
    fv, gv = a(rule.node_array / s) * rule.fold_array, b(rule.node_array / s) * rule.fold_array
    numerics._check_finite(fv, gv, rule)
    return numerics._mirror_sum(fv, gv, rule) / s


class Counting:
    """A user state with an order, hashed by value on (n, tag), that counts its calls; never kept in a table."""

    def __init__(self, n, tag=0, spec=UNIT):
        self.n, self.tag, self.psi, self.calls = n, tag, Eigenstate(n, spec), 0

    def __call__(self, x):
        self.calls += 1
        return self.psi(x)

    def __eq__(self, other):
        return isinstance(other, Counting) and (self.n, self.tag) == (other.n, other.tag)

    def __hash__(self):
        return hash((self.n, self.tag))


#: Specs for the table tests; the first two are equal but built from an int and a float.
SPECS = (
    OscillatorSpec(mu=2),
    OscillatorSpec(mu=2.0),
    OscillatorSpec(),
    OscillatorSpec(mu=0.37, omega=2.5, hbar=0.3),
)


def table_builds(monkeypatch):
    """Record the spec of every table built."""
    builds = []
    build = Eigenstate._table

    def recording(self, x):
        builds.append(self.spec)
        return build(self, x)

    monkeypatch.setattr(Eigenstate, "_table", recording)
    return builds


def spiked_states(monkeypatch, spikes):
    """Make psi_n NaN at node index spikes[n], in its calls and in its table rows alike."""
    spikes = {n: node for n, node in spikes.items() if node is not None}
    call, walk = oscillator.eval_D, oscillator._walk_orders

    def eval_D(n, z):
        d = call(n, z)
        if n in spikes:
            d[spikes[n]] = math.nan
        return d

    def walk_orders(z):
        rows = walk(z)
        for n, node in spikes.items():
            rows[n, node] = math.nan
        return rows

    monkeypatch.setattr(oscillator, "eval_D", eval_D)
    monkeypatch.setattr(oscillator, "_walk_orders", walk_orders)


def table_info():
    """(misses, hits, tables kept) of the table cache."""
    info = numerics._table.cache_info()
    return info.misses, info.hits, info.currsize


class TestStoredColumns:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        """An empty table cache for each test, and none of its tables left behind."""
        numerics._table.cache_clear()
        yield
        numerics._table.cache_clear()

    def test_the_tables_live_in_one_lru_cache_of_three(self):
        assert numerics._table.cache_parameters() == {"maxsize": 3, "typed": False}

    @given(st.data())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_sequences_of_overlaps_equal_the_uncached_reference(self, data):
        # Four rules and three specs make more keys than the cache keeps, so sequences run through evictions.
        rules = [gauss_hermite_rule(k) for k in (3, 8, 20, 64)]
        numerics._table.cache_clear()
        for _ in range(data.draw(st.integers(1, 40))):
            rule = data.draw(st.sampled_from(rules))
            k = len(rule)
            i = data.draw(st.integers(0, min(2 * k - 2, 200)))
            j = data.draw(st.integers(0, min(2 * k - 2 - i, 200)))
            si = data.draw(st.sampled_from(SPECS))
            # Half the pairs share a spec, and read a Gram row; the others read two columns.
            sj = si if data.draw(st.booleans()) else data.draw(st.sampled_from(SPECS))
            scale = data.draw(st.sampled_from([si.gaussian_scale, 0.5, 2.0]))
            # New objects per call: equal states share a column by equality, not identity.
            a, b = Eigenstate(i, replace(si)), Eigenstate(j, replace(sj))
            assert overlap(a, b, scale, rule).hex() == uncached_overlap(a, b, scale, rule).hex()
            assert table_info()[2] <= 3
            # The entry just read is the most recent, so this lookup leaves the eviction order alone.
            _, finite, rows = numerics._table(rule, math.sqrt(scale), a._table_key)
            if finite and si == sj:
                assert rows[i] is not None  # the pair took the fast path

    def test_three_tables_are_kept_and_the_least_recent_is_dropped(self, monkeypatch):
        small, large = gauss_hermite_rule(4), gauss_hermite_rule(16)
        builds = table_builds(monkeypatch)
        for n, spec in ((0, SPECS[0]), (3, SPECS[2]), (2, SPECS[0]), (1, SPECS[3])):
            psi = Eigenstate(n, spec)
            overlap(psi, psi, 1.0, small)
        # SPECS[0] and SPECS[1] are equal: one table serves both.
        assert builds == [SPECS[0], SPECS[2], SPECS[3]]
        overlap(Eigenstate(2, SPECS[1]), Eigenstate(2, SPECS[1]), 1.0, small)  # a hit: now the most recent
        wide = Eigenstate(7, UNIT)
        overlap(wide, wide, 1.0, large)  # a fourth table drops the least recent, SPECS[2] on the small rule
        assert table_info()[2] == 3
        for spec in (SPECS[3], SPECS[1]):
            overlap(Eigenstate(1, spec), Eigenstate(1, spec), 1.0, small)  # still kept
        assert builds == [SPECS[0], SPECS[2], SPECS[3], UNIT]
        psi = Eigenstate(3, SPECS[2])
        overlap(psi, psi, 1.0, small)  # built again
        assert builds == [SPECS[0], SPECS[2], SPECS[3], UNIT, SPECS[2]]

    def test_a_warm_library_block_builds_one_table_per_default_rule(self):
        spec = OscillatorSpec()

        def op(start, k):
            """The Gram block of new states and the shifted <x> of one window, as a warm library op runs them."""
            rule = gauss_hermite_rule(k)
            states = [Eigenstate(n, OscillatorSpec()) for n in range(start, start + 6)]
            gram = [overlap(a, b, spec.gaussian_scale, rule) for i, a in enumerate(states) for b in states[i:]]
            shifted = ShiftedState.continuous(start, 0.3, spec)
            return gram + [expectation_x_shifted(shifted, rule)]

        windows = [(0, 64), (5, 128), (3, 256), (40, 64), (100, 128), (195, 256)]
        want = [op(start, k) for start, k in windows]
        assert table_info() == (3, 6 * 21 - 3, 3)  # one lookup per overlap
        assert [op(start, k) for start, k in windows] == want
        assert table_info() == (3, 2 * 6 * 21 - 3, 3)  # every later lookup is a hit
        # Each table holds the Gram rows of the orders its windows read, built once.
        for k in (64, 128, 256):
            rows = numerics._table(gauss_hermite_rule(k), 1.0, Eigenstate(0, spec)._table_key)[2]
            starts = [start for start, size in windows if size == k]
            assert [i for i, row in enumerate(rows) if row is not None] == [n for a in starts for n in range(a, a + 6)]

    @pytest.mark.parametrize("spec", [UNIT, SPECS[3]])
    @pytest.mark.parametrize("k", [64, 128, 256])
    def test_each_row_of_a_default_table_is_the_folded_state(self, spec, k):
        rule = gauss_hermite_rule(k)
        for scale in (spec.gaussian_scale, 0.5):
            s = math.sqrt(scale)
            table, finite, rows = numerics._table(rule, s, Eigenstate(0, spec)._table_key)
            assert table.shape == (DEGREE_CAP + 1, k) and not table.flags.writeable and finite
            assert len(rows) == DEGREE_CAP + 1 and all(row is None for row in rows)  # filled on first read
            for n in range(DEGREE_CAP + 1):
                want = Eigenstate(n, spec)(rule.node_array / s) * rule.fold_array
                assert table[n].tobytes() == want.tobytes(), n

    def test_a_stored_column_is_a_read_only_row_of_a_shared_table(self):
        rule = gauss_hermite_rule(8)
        psi = Eigenstate(5, UNIT)
        overlap(psi, psi, 1.0, rule)
        table = numerics._table(rule, 1.0, Eigenstate(5, OscillatorSpec())._table_key)[0]
        assert table is numerics._table(rule, 1.0, Eigenstate(2, UNIT)._table_key)[0]
        assert table[5].tobytes() == (psi(rule.node_array) * rule.fold_array).tobytes()
        with pytest.raises(ValueError):
            table[5][0] = 0.0
        assert table_info()[::2] == (1, 1)

    @pytest.mark.parametrize("k", [64, 128, 256])
    def test_two_stored_columns_give_the_inner_product_of_the_columns(self, monkeypatch, k):
        rule = gauss_hermite_rule(k)
        spec = SPECS[3]
        s = math.sqrt(spec.gaussian_scale)
        top = min(k - 1, 200)  # the highest order the rule and the order cap allow
        states = [Eigenstate(n, spec) for n in (0, 1, top - 1, top)]
        checks = []
        check = numerics._check_finite
        monkeypatch.setattr(numerics, "_check_finite", lambda *args: checks.append(1) or check(*args))
        pairs = [(a, b) for a in states for b in states]  # the rule is exact for all of them
        for a, b in pairs:
            fv, gv = (state(rule.node_array / s) * rule.fold_array for state in (a, b))
            check(fv, gv, rule)  # the reference's own check, not counted
            want = numerics._mirror_sum(fv, gv, rule) / s
            assert overlap(a, b, spec.gaussian_scale, rule).hex() == want.hex()
        assert checks == []  # overlap checked no column of a finite table
        overlap(states[1], lambda x: x * states[1](x), spec.gaussian_scale, rule)
        assert len(checks) == 1  # a factor from a direct call is checked
        overlap(states[1], Eigenstate(1, UNIT), spec.gaussian_scale, rule)
        assert len(checks) == 2  # so are the factors of two specs, each called

    @pytest.mark.parametrize("bad_a,bad_b", [(5, None), (None, 2), (5, 2), (2, 5)])
    def test_a_non_finite_factor_names_its_first_node_on_every_call(self, monkeypatch, bad_a, bad_b):
        rule = gauss_hermite_rule(16)
        builds = table_builds(monkeypatch)
        spiked_states(monkeypatch, {3: bad_a, 5: bad_b})
        a, b = Eigenstate(3, UNIT), Eigenstate(5, UNIT)
        first = min(i for i in (bad_a, bad_b) if i is not None)
        for _ in range(3):
            with pytest.raises(ValueError, match=f"at node {rule.nodes[first]!r}$"):
                overlap(a, b, 1.0, rule)
        # The table agrees with its states and is kept with its flag: one build, and no Gram row.
        table, finite, rows = numerics._table(rule, 1.0, a._table_key)
        assert builds == [UNIT] and finite is False
        assert table[3].tobytes() == (a(rule.node_array) * rule.fold_array).tobytes()
        # Its finite states are called and give the uncached values, summed pairwise: still no Gram row.
        c, d = Eigenstate(0, UNIT), Eigenstate(2, UNIT)
        assert overlap(c, d, 1.0, rule).hex() == uncached_overlap(c, d, 1.0, rule).hex()
        assert builds == [UNIT] and all(row is None for row in rows)

    def test_plain_callables_and_shifted_states_are_never_stored(self):
        rule = gauss_hermite_rule(16)
        psi = Eigenstate(3, UNIT)
        calls = []

        def plain(x):
            calls.append(1)
            return psi(x)

        shifted = ShiftedState.continuous(3, 0.5, UNIT)
        for _ in range(3):
            overlap(plain, plain, 1.0, rule)
            overlap(shifted, shifted, 1.0, rule)
            expectation_x_shifted(shifted, rule)
        assert len(calls) == 6
        assert table_info() == (0, 0, 0)
        # expectation_x stores nothing: it evaluates its state once, directly.
        assert expectation_x(3, UNIT, rule) == 0.0
        assert table_info() == (0, 0, 0)

    def test_an_identity_hashed_state_is_evaluated_afresh_after_a_mutation(self):
        class Trial:
            """A mutable variational state with an order, hashed by identity."""

            def __init__(self, n):
                self.n, self.width = n, 1.0

            def __call__(self, x):
                return np.exp(-0.5 * (x / self.width) ** 2) * x**self.n

        def plain(x):
            return np.exp(-0.5 * x * x)

        plain.n = 0
        rule, trial = gauss_hermite_rule(32), Trial(2)
        values = []
        for width in (1.0, 1.7, 0.6):
            trial.width = width
            values.append(overlap(trial, plain, 1.0, rule))
            assert values[-1] == uncached_overlap(trial, plain, 1.0, rule)
        assert len(set(values)) == 3
        assert table_info() == (0, 0, 0)

    def test_a_warm_gram_block_of_fresh_equal_states_hashes_and_compares_no_state(self, monkeypatch):
        rule, window = gauss_hermite_rule(64), range(40, 46)

        def block():
            """A Gram block of new, equal objects, as each op of a long-lived library process builds its own."""
            spec = OscillatorSpec()
            states = [Eigenstate(n, spec) for n in window]
            return [(a, b) for i, a in enumerate(states) for b in states[i:]]

        want = [uncached_overlap(a, b, 1.0, rule) for a, b in block()]
        assert [overlap(a, b, 1.0, rule) for a, b in block()] == want  # builds the table
        pairs = block()
        calls = []
        for cls in (Eigenstate, OscillatorSpec):
            for name in ("__eq__", "__hash__"):
                method = getattr(cls, name)

                def counting(*args, _method=method, _name=f"{cls.__name__}.{name}"):
                    calls.append(_name)
                    return _method(*args)

                monkeypatch.setattr(cls, name, counting)
        assert [overlap(a, b, 1.0, rule) for a, b in pairs] == want
        assert calls == []
        # Equal specs share one table, read once per overlap.
        assert table_info() == (1, 2 * len(want) - 1, 1)
        # A user class with an order and its own __hash__ is called once per overlap and stores nothing.
        psi, other = Counting(3), Counting(5)
        for _ in range(2):
            assert overlap(psi, other, 1.0, rule) == uncached_overlap(psi.psi, other.psi, 1.0, rule)
        assert (psi.calls, other.calls) == (2, 2)
        assert table_info()[::2] == (1, 1)

    def test_the_rule_hash_is_that_of_its_values_computed_once(self):
        class CountingTuple(tuple):
            """Nodes that count how often they are hashed."""

            hashes = 0

            def __hash__(self):
                CountingTuple.hashes += 1
                return super().__hash__()

        base = gauss_hermite_rule(256)
        assert hash(base) == hash((base.nodes, base.weights))
        rule = QuadratureRule(CountingTuple(base.nodes), base.weights)
        assert CountingTuple.hashes == 1  # at construction
        psi = Eigenstate(100, UNIT)
        for _ in range(3):
            assert hash(rule) == hash(base)
            overlap(psi, psi, 1.0, rule)
        assert CountingTuple.hashes == 1

    def test_equal_rules_read_the_same_table(self):
        rule = gauss_hermite_rule(32)
        key = Eigenstate(0, UNIT)._table_key
        table = numerics._table(rule, 1.0, key)[0]
        twins = (pickle.loads(pickle.dumps(rule)), copy.copy(rule), copy.deepcopy(rule))
        for twin in twins + (QuadratureRule(rule.nodes, rule.weights),):
            assert twin == rule and twin is not rule and hash(twin) == hash(rule)
            assert numerics._table(twin, 1.0, key)[0] is table
        assert table_info()[::2] == (1, 1)

    def test_an_unhashable_state_with_an_order_is_evaluated_per_call(self):
        class Unhashable(Counting):
            __hash__ = None

        rule = gauss_hermite_rule(16)
        a, b = Unhashable(4), Unhashable(6)
        for _ in range(2):
            assert overlap(a, b, 1.0, rule) == uncached_overlap(a.psi, b.psi, 1.0, rule)
        assert (a.calls, b.calls) == (2, 2)
        assert overlap(a, a, 1.0, rule) == pytest.approx(1.0, abs=1e-13)
        assert table_info() == (0, 0, 0)

    def test_threads_sharing_rules_agree_with_a_serial_run(self):
        # Two rules and three distinct specs make six keys for three tables: the threads also race on evictions.
        rules = [gauss_hermite_rule(12), gauss_hermite_rule(32)]
        tasks = [
            (r, i, j, s)
            for r, rule in enumerate(rules)
            for i in range(0, len(rule), 3)
            for j in range(i % 2, len(rule), 4)
            for s in range(len(SPECS))
        ]
        want = {
            (r, i, j, s): uncached_overlap(Eigenstate(i, SPECS[s]), Eigenstate(j, SPECS[s]), 1.0, rules[r])
            for r, i, j, s in tasks
        }
        barrier = threading.Barrier(4)
        bad = []

        def worker(seed):
            order = random.Random(seed).sample(tasks, len(tasks))
            barrier.wait(timeout=60)
            for r, i, j, s in order:
                got = overlap(Eigenstate(i, SPECS[s]), Eigenstate(j, SPECS[s]), 1.0, rules[r])
                if got != want[r, i, j, s]:
                    bad.append((seed, r, i, j, s))

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert bad == []
        assert table_info()[2] == 3


def gram_row_lengths(k):
    """The length of each Gram row of a k-point rule's table: j runs to min(2k - 1 - i, DEGREE_CAP)."""
    return [min(2 * k - i, DEGREE_CAP + 1) for i in range(min(2 * k, DEGREE_CAP + 1))]


class TestGramRows:
    """An overlap of two eigenstates of one spec about centre 0 is one entry of a Gram row kept beside the table."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        numerics._table.cache_clear()
        yield
        numerics._table.cache_clear()

    @staticmethod
    def reference(rule, s, table, i, j):
        """The pairwise mirror sum of two table rows, as ``overlap`` formed it before the rows were kept."""
        return numerics._mirror_sum(table[i], table[j], rule) / s

    @pytest.mark.parametrize("spec", [UNIT, SPECS[3]])
    @pytest.mark.parametrize("k", [64, 128, 256])
    def test_every_exact_pair_on_a_default_rule_equals_the_pairwise_sum(self, spec, k):
        rule = gauss_hermite_rule(k)
        states = [Eigenstate(n, spec) for n in range(DEGREE_CAP + 1)]
        lengths = gram_row_lengths(k)
        for scale in (spec.gaussian_scale, 0.5):
            s = math.sqrt(scale)
            table, finite, rows = numerics._table(rule, s, states[0]._table_key)
            assert finite
            bad = [
                (i, j)
                for i, length in enumerate(lengths)
                for j in range(length)
                if overlap(states[i], states[j], scale, rule).hex() != self.reference(rule, s, table, i, j).hex()
            ]
            assert bad == []
            assert [row.size for row in rows if row is not None] == lengths
            assert not any(row.flags.writeable for row in rows if row is not None)
            # At most 201 x 201 doubles beside each table.
            assert sum(lengths) <= (DEGREE_CAP + 1) ** 2

    def test_sampled_rows_on_every_rule_size(self):
        bad = []
        for k in range(1, MAX_RULE_POINTS + 1):
            rule = gauss_hermite_rule(k)
            table = numerics._table(rule, 1.0, Eigenstate(0, UNIT)._table_key)[0]
            top = min(2 * k - 1, DEGREE_CAP)
            for i in sorted({0, top, (37 * k) % (top + 1)}):
                a = Eigenstate(i, UNIT)
                for j in range(min(2 * k - 1 - i, DEGREE_CAP) + 1):
                    if overlap(a, Eigenstate(j, UNIT), 1.0, rule).hex() != self.reference(rule, 1.0, table, i, j).hex():
                        bad.append((k, i, j))
        assert bad == []

    def test_other_arguments_build_no_row_and_are_called(self, monkeypatch):
        rule = gauss_hermite_rule(16)
        calls = []
        call = ShiftedState.__call__
        monkeypatch.setattr(ShiftedState, "__call__", lambda self, x: calls.append(self.gamma) or call(self, x))
        psi, other = Eigenstate(3, UNIT), Eigenstate(5, SPECS[3])
        centred, shifted = ShiftedState.continuous(5, 0.0, UNIT), ShiftedState.continuous(5, 0.4, UNIT)

        def plain(x):
            calls.append("plain")
            return psi(x)

        def direct(b):
            """The pairwise sum of both factors, each evaluated at the nodes about the midpoint of the centres."""
            x = numerics._nodes(rule, 1.0, getattr(b, "x_center", 0.0) / 2.0)
            return numerics._mirror_sum(psi(x) * rule.fold_array, b(x) * rule.fold_array, rule)

        for _ in range(2):
            for b in (other, plain, centred, shifted):
                assert overlap(psi, b, 1.0, rule).hex() == direct(b).hex()
        # The reference calls each state too: two calls per pair and round.
        assert calls == ["plain", "plain", 0.0, 0.0, 0.4, 0.4] * 2
        for spec in (UNIT, SPECS[3]):
            assert all(row is None for row in numerics._table(rule, 1.0, Eigenstate(0, spec)._table_key)[2])

    def test_rows_are_dropped_with_their_table(self):
        rule = gauss_hermite_rule(8)
        psi = Eigenstate(4, UNIT)
        overlap(psi, psi, 1.0, rule)
        rows = numerics._table(rule, 1.0, psi._table_key)[2]
        assert [i for i, row in enumerate(rows) if row is not None] == [4]
        for spec in (SPECS[0], SPECS[3], OscillatorSpec(omega=3.0)):  # three other keys evict it
            overlap(Eigenstate(4, spec), Eigenstate(4, spec), 1.0, rule)
        assert numerics._table.cache_info().currsize == 3
        fresh = numerics._table(rule, 1.0, psi._table_key)[2]
        assert fresh is not rows and all(row is None for row in fresh)

    def test_threads_reading_one_fresh_row_agree(self):
        # More threads than the two cores CI gives, all racing to build the same row.
        rule, spec = gauss_hermite_rule(128), SPECS[3]
        scale = spec.gaussian_scale
        s = math.sqrt(scale)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            for i in (0, 1, 57, 130, DEGREE_CAP):
                numerics._table.cache_clear()
                table, _, rows = numerics._table(rule, s, Eigenstate(0, spec)._table_key)
                assert rows[i] is None
                orders = range(min(2 * len(rule) - i, DEGREE_CAP + 1))
                want = [self.reference(rule, s, table, i, j).hex() for j in orders]
                barrier = threading.Barrier(4)
                got = [None] * 4

                def worker(slot, i=i, orders=orders, barrier=barrier, got=got):
                    barrier.wait(timeout=60)
                    got[slot] = [overlap(Eigenstate(i, spec), Eigenstate(j, spec), scale, rule).hex() for j in orders]

                threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert got == [want] * 4
                assert not rows[i].flags.writeable and [(float(v) / 2.0 / s).hex() for v in rows[i]] == want
        finally:
            sys.setswitchinterval(interval)


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

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            golden_section_minimize(lambda t: t * t, 1.0, 1.0)

    @pytest.mark.parametrize(
        "lo,hi", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan), (-1e308, 1e308)]
    )
    def test_rejects_non_finite_bounds_and_widths(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            golden_section_minimize(lambda t: t * t, lo, hi)

    @staticmethod
    def capped(f):
        """``f``, raising after 10 000 calls, so a search that cannot end fails fast."""
        calls = itertools.count(1)

        def g(x):
            if next(calls) > 10_000:
                raise RuntimeError("golden_section_minimize did not terminate")
            return f(x)

        return g

    def test_ends_where_adjacent_doubles_are_wider_than_the_tolerance(self):
        # Near 1e11 adjacent doubles are 1.5e-5 apart: the bracket never gets below 1e-6.
        x, fx = golden_section_minimize(self.capped(lambda t: (t - 1e11 - 3.3) ** 2), 1e11, 1e11 + 100)
        assert x == pytest.approx(1e11 + 3.3, rel=0.0, abs=2e-5)
        assert fx <= 1e-9

    def test_a_bracket_that_stalls_then_narrows_keeps_its_result(self):
        # One step here leaves the bracket width unchanged before later steps narrow it,
        # so the search must not end at the first step that fails to narrow.
        x0 = -39808062506.65094
        f = self.capped(lambda t: abs(t - x0))
        assert golden_section_minimize(f, -39808062608.459015, -39808062520.67001) == (
            -39808062520.67001,
            14.019073486328125,
        )
