import math
import random
import sys
import threading

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import pbdv

from paracyl import numerics, oscillator, pcf
from paracyl.field import ShiftedState, energy_shifted, expectation_x_shifted, field_hamiltonian_residual
from paracyl.numerics import Grid1D, _BudgetLRU, gauss_hermite_rule, overlap
from paracyl.oscillator import Eigenstate, OscillatorSpec, energy, hamiltonian_residual, norm_const
from paracyl.pcf import PcfPolyPart, _ode_residual, eval_D, pcf_poly, pcf_rodrigues_poly
from paracyl.polys import DEGREE_CAP, PolyZ, hermite_recurrence, hermite_rodrigues

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
        # Every order range is fixed at 0..DEGREE_CAP: no constructor takes a cap.
        for build in (hermite_recurrence, hermite_rodrigues, pcf_poly, pcf_rodrigues_poly):
            build(23)
            with pytest.raises(TypeError):
                build(23, cap=22)
            with pytest.raises(ValueError, match=f"^order {DEGREE_CAP + 1} exceeds the configured cap {DEGREE_CAP}$"):
                build(DEGREE_CAP + 1)
        eval_D(23, 0.5)
        with pytest.raises(TypeError):
            eval_D(23, 0.5, cap=22)


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
        assert eval_D(0, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-14, abs=0.0)

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

    def test_orders_stop_at_the_degree_cap(self):
        assert eval_D(DEGREE_CAP, 1.0) == uncached_D(DEGREE_CAP, 1.0)
        for z in (1.0, np.array([1.0])):
            with pytest.raises(ValueError, match=f"^order {DEGREE_CAP + 1} exceeds the configured cap {DEGREE_CAP}$"):
                eval_D(DEGREE_CAP + 1, z)
        # Past the cap the recurrence leaves the double range: D_400 peaks near
        # sqrt(400!) ~ 1e434.  The climb itself still raises on overflow.
        t = np.array([1.0])
        with pytest.raises(FloatingPointError):
            pcf._climb(t, 0.0, np.exp(-(t * t) / 4.0), 0, 400, False)

    @pytest.mark.parametrize("z", [[0.0, 1.0], (-2.5, 0.5, 3.0), [[0.25, -0.0], [1.5, 80.0]]])
    def test_a_list_or_tuple_gives_the_ndarray_result(self, z):
        for n in (0, 3, 40):
            assert_bit_equal(eval_D(n, z), eval_D(n, np.array(z)))

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
        zs = np.array([-6.0 + 0.05 * i for i in range(241)])
        worst = np.max(np.abs(_ode_residual(n, zs)))
        assert worst < 1e-8


def uncached_D(n, z):
    """The forward recurrence run afresh from D_0, as eval_D defines it."""
    t = np.clip(np.asarray(z, dtype=float), -100.0, 100.0)
    prev, cur = 0.0, np.exp(-(t * t) / 4.0)
    with np.errstate(over="raise"):
        for k in range(n):
            prev, cur = cur, t * cur - k * prev
    return cur + 0.0 if isinstance(z, np.ndarray) else float(cur) + 0.0


def assert_bit_equal(got, want):
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def kept(store):
    """The ladders a store keeps, least recent first."""
    return [ladder for ladder, _ in store._entries.values()]


def held_bytes(ladder):
    """sys.getsizeof of a ladder's argument and of each distinct row its pairs hold."""
    rows = {id(d): d for pair in ladder.pairs.values() for d in pair}
    return sys.getsizeof(ladder.arg) + sum(sys.getsizeof(d) for d in rows.values())


def check_charges(store):
    """nbytes is the sum of the charges, within the budget; no ladder holds more than its charge."""
    assert store.nbytes == sum(charge for _, charge in store._entries.values()) <= store.budget
    for ladder, charge in store._entries.values():
        assert charge == pcf._LADDER_ROWS * sys.getsizeof(ladder.arg)
        assert held_bytes(ladder) <= charge


@pytest.fixture
def fresh_ladders(monkeypatch):
    """An empty ladder store with the default budget, for tests that read its contents."""
    store = _BudgetLRU(pcf._LADDER_BUDGET)
    monkeypatch.setattr(pcf, "_LADDERS", store)
    return store


def counting_climbs(monkeypatch):
    """Record (k, n) of every climb from D_k up to D_n."""
    climbs = []
    climb = pcf._climb

    def recording(t, prev, cur, k, n, record):
        climbs.append((k, n))
        return climb(t, prev, cur, k, n, record)

    monkeypatch.setattr(pcf, "_climb", recording)
    return climbs


class TestLadderCache:
    """eval_D keeps recurrence rows between calls; none of that may show in its values."""

    @staticmethod
    def pool():
        nodes = np.linspace(-7.0, 7.0, 257)
        return [
            nodes,
            nodes.copy(),  # an equal-valued copy
            np.linspace(-30.0, 30.0, 5000),
            np.linspace(-40.0, 40.0, 22000),  # charged more than the budget: never kept
            math.sqrt(2.0) * Grid1D(-6.0, 6.0, 1e-3).points(),  # the residual grid's argument
            np.array(1.25),
            np.array([-0.0, 0.0, 1e300, -math.inf, math.nan]),
            0.75,
            np.linspace(-250.0, 250.0, 101),  # clipped at both ends
            np.array(-0.0),
            np.array(300.0),
            -0.0,
            math.nan,
        ]

    @given(
        st.lists(
            st.tuples(st.integers(0, 200), st.integers(0, 12), st.booleans()),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_call_sequences_match_the_uncached_recurrence(self, calls):
        pool = self.pool()
        for n, i, mutate in calls:
            z = pool[i]
            if mutate and isinstance(z, np.ndarray) and z.ndim:
                z[z.size // 3] += 0.5  # the same array, new contents
            assert_bit_equal(eval_D(n, z), uncached_D(n, z))

    def test_mutating_the_argument_after_a_call(self):
        z = np.linspace(-5.0, 5.0, 101)
        eval_D(12, z)
        z *= 1.5
        assert_bit_equal(eval_D(12, z), uncached_D(12, z))
        assert_bit_equal(eval_D(9, z), uncached_D(9, z))

    def test_mutating_the_result_after_a_call(self):
        z = np.linspace(-5.0, 5.0, 101)
        first = eval_D(7, z)
        first[:] = 99.0
        again = eval_D(7, z)
        assert_bit_equal(again, uncached_D(7, z))
        assert not np.shares_memory(again, eval_D(7, z))

    def test_consecutive_orders_resume_instead_of_restarting(self, monkeypatch):
        z = np.linspace(-3.0, 3.0, 64) + 1e-3  # an argument no other test uses
        climbs = counting_climbs(monkeypatch)
        for n in (40, 41, 42, 41, 30, 39, 26, 24):
            assert_bit_equal(eval_D(n, z.copy()), uncached_D(n, z))
        # 41 and 24 are rows of kept pairs; 30 restarts from D_0 (no pair at or
        # below it) and passes the checkpoints below it, from the highest of
        # which 26 climbs.
        below = 26 - 26 % pcf._STRIDE
        assert climbs == [(0, 40), (40, 41), (41, 42), (0, 30), (30, 39), (below, 26)]

    def test_a_one_shot_call_records_no_checkpoint(self, fresh_ladders):
        z = np.linspace(-6.0, 6.0, 12001)
        eval_D(120, z)
        (ladder,) = kept(fresh_ladders)
        assert list(ladder.pairs) == [120]
        eval_D(160, z)  # a repeat records the checkpoints its cursor leaves or its climb passes
        assert kept(fresh_ladders) == [ladder]
        assert sorted(ladder.pairs) == [*(m for m in range(120, 160) if m % pcf._STRIDE == 0), 160]

    def test_a_window_sweep_on_a_kept_grid_climbs_less_than_a_stride(self, fresh_ladders, monkeypatch):
        spec, grid = OscillatorSpec(), Grid1D(-6.0, 6.0, 1e-3)
        hamiltonian_residual(0, spec, grid)  # the grid's argument is kept from here on
        hamiltonian_residual(200, spec, grid)  # and this climb records every checkpoint
        climbs = counting_climbs(monkeypatch)
        for i in range(40):
            start = round(195 * (0.6180339887 * i % 1.0))  # windows in golden-ratio order
            climbs.clear()
            for n in range(start, start + 6):
                hamiltonian_residual(n, spec, grid)
            assert sum(n - k for k, n in climbs) <= pcf._STRIDE - 1 + 5, start

    def test_charges_bound_the_rows_held_and_the_budget(self, fresh_ladders):
        grid = np.linspace(-6.0, 6.0, 12001)
        for i in range(30):
            eval_D(20 + 6 * i, grid + 1e-3 * (i % 3))  # three repeated arguments
            eval_D(3, grid - 1e-3 * i)  # and a new one-shot argument each time
            check_charges(fresh_ladders)
        low = eval_D(150, grid)
        for n in (DEGREE_CAP, DEGREE_CAP - 1, DEGREE_CAP):
            assert_bit_equal(eval_D(n, grid), uncached_D(n, grid))
            check_charges(fresh_ladders)
        assert_bit_equal(eval_D(150, grid), low)
        assert_bit_equal(low, uncached_D(150, grid))

    @given(
        st.lists(st.tuples(st.integers(0, DEGREE_CAP), st.integers(0, 12)), min_size=1, max_size=10),
        st.sampled_from(["order 0", "0-d argument", "top order"]),
        st.sampled_from([pcf._LADDER_BUDGET, 2**16, 0]),  # small budgets also run through evictions
    )
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_charges_bound_the_rows_held_after_any_sequence(self, calls, ending, budget):
        pool = self.pool()
        last = {"order 0": (0, 2), "0-d argument": (33, 9), "top order": (DEGREE_CAP, 4)}[ending]
        with pytest.MonkeyPatch.context() as patch:
            store = _BudgetLRU(budget)
            patch.setattr(pcf, "_LADDERS", store)
            for n, i in [*calls, last]:
                z = pool[i]
                assert_bit_equal(eval_D(n, z), uncached_D(n, z))
                check_charges(store)

    def test_charges_bound_the_rows_held_along_consecutive_orders(self, fresh_ladders):
        # Steps from a kept pair, the old cursor dropped or kept as a
        # checkpoint, and restarts at order 0.
        s = pcf._STRIDE
        orders = (5, 6, 7, s - 1, s, s + 1, s + 2, 2 * s, 2 * s - 1, 2 * s + 1, 0, 1, 2, 3 * s, 3 * s + 1, 3 * s - 1, 0)
        for z in (np.linspace(-6.0, 6.0, 12001), np.array(0.3), 0.3, np.linspace(-300.0, 300.0, 61)):
            for n in orders:
                assert_bit_equal(eval_D(n, z), uncached_D(n, z))
                check_charges(fresh_ladders)

    def test_each_call_clips_once_and_makes_one_lookup(self, fresh_ladders, monkeypatch):
        z = np.linspace(-5.0, 5.0, 101)
        wide = np.linspace(-300.0, 300.0, 61)  # clipped at both ends
        calls = [(n, z) for n in (7, 8, 7, 30, 2)] + [(n, wide) for n in (7, 8, 7)]
        want = [uncached_D(n, arg) for n, arg in calls]
        clips, finds = [], []
        clip, find = np.clip, pcf._find

        def counting_clip(*args, **kwargs):
            clips.append(args[0].shape)
            return clip(*args, **kwargs)

        def counting_find(t):
            finds.append(t.shape)
            return find(t)

        monkeypatch.setattr(np, "clip", counting_clip)
        monkeypatch.setattr(pcf, "_find", counting_find)
        for (n, arg), values in zip(calls, want):
            assert_bit_equal(eval_D(n, arg.copy()), values)
        assert clips == finds == [z.shape] * 5 + [wide.shape] * 3
        assert len(kept(fresh_ladders)) == 2

    def test_an_argument_over_the_budget_is_not_kept(self, fresh_ladders):
        # 36 rows of 14 549 points are charged 4 194 144 bytes, within 4 MiB; one more point is not.
        assert pcf._LADDER_ROWS == 36 and pcf._LADDER_BUDGET == 2**22
        z = np.linspace(-40.0, 40.0, 14550)
        for n in (30, 31):
            assert_bit_equal(eval_D(n, z), uncached_D(n, z))
        assert fresh_ladders.nbytes == 0 and not kept(fresh_ladders)
        fits = z[:-1].copy()
        for n in (30, 31):
            assert_bit_equal(eval_D(n, fits), uncached_D(n, fits))
        assert fresh_ladders.nbytes == 4_194_144
        check_charges(fresh_ladders)

    @pytest.mark.parametrize("points", [12001, 13001])
    def test_the_residual_and_field_grids_are_kept(self, fresh_ladders, points):
        z = np.linspace(-6.0, 6.0, points)
        eval_D(5, z)
        assert fresh_ladders.nbytes == {12001: 3_460_320, 13001: 3_748_320}[points]

    def test_held_rows_are_never_changed(self, fresh_ladders):
        z = np.linspace(-6.0, 6.0, 301)
        eval_D(60, z)
        eval_D(130, z)  # records the checkpoints from 60 up to 130
        (ladder,) = kept(fresh_ladders)
        held = {m: (pair, [np.asarray(d).tobytes() for d in pair]) for m, pair in ladder.pairs.items()}
        assert sorted(held) == [*(m for m in range(60, 130) if m % pcf._STRIDE == 0), 130]
        for n in (140, 30, 101, 200, 76, 3, 129):
            assert_bit_equal(eval_D(n, z), uncached_D(n, z))
        for pair, before in held.values():
            assert [np.asarray(d).tobytes() for d in pair] == before

    def test_a_climb_to_the_degree_cap_records_every_checkpoint(self, fresh_ladders, monkeypatch):
        z = np.linspace(-1.0, 1.0, 9)
        climbs = counting_climbs(monkeypatch)
        checkpoints = list(range(pcf._STRIDE, DEGREE_CAP + 1, pcf._STRIDE))
        assert len(checkpoints) == DEGREE_CAP // pcf._STRIDE
        for n in (0, 10, DEGREE_CAP, DEGREE_CAP - 5, DEGREE_CAP - 2):
            assert_bit_equal(eval_D(n, z), uncached_D(n, z))
        (ladder,) = kept(fresh_ladders)
        # The cursors at 0 and at the cap, which are no checkpoints, are dropped when they move.
        assert sorted(ladder.pairs) == [*checkpoints, DEGREE_CAP - 2]
        top = checkpoints[-1]
        assert climbs == [(0, 0), (0, 10), (10, DEGREE_CAP), (top, DEGREE_CAP - 5), (DEGREE_CAP - 5, DEGREE_CAP - 2)]
        check_charges(fresh_ladders)

    def test_an_order_above_the_cap_is_an_error_on_a_hit(self):
        z = np.linspace(-1.0, 1.0, 9)
        top = eval_D(DEGREE_CAP, z)
        for _ in range(2):
            for arg in (z, 1.0):
                with pytest.raises(ValueError, match=f"^order {DEGREE_CAP + 1} exceeds"):
                    eval_D(DEGREE_CAP + 1, arg)
        assert_bit_equal(eval_D(DEGREE_CAP, z), top)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_negative_zero_gives_positive_zero_on_a_hit(self, n):
        z = np.array([-0.0, 0.0, 0.5])
        for _ in range(2):
            for m in (n, n + 2, n):
                values = eval_D(m, z.copy())
                assert math.copysign(1.0, values[0]) == 1.0
                assert math.copysign(1.0, eval_D(m, -0.0)) == 1.0

    def test_threads_with_interleaved_calls_agree(self):
        args = [np.linspace(-8.0, 8.0, 200), np.linspace(-6.0, 6.0, 12001), np.array(0.3)]
        tasks = [(n, i) for n in range(0, 201, 7) for i in range(len(args))]
        want = {task: uncached_D(task[0], args[task[1]]) for task in tasks}
        barrier = threading.Barrier(4)
        bad = []

        def worker(seed):
            order = random.Random(seed).sample(tasks, len(tasks))
            barrier.wait(timeout=60)
            for n, i in order:
                got = eval_D(n, args[i].copy())
                if np.asarray(got).tobytes() != np.asarray(want[n, i]).tobytes():
                    bad.append((seed, n, i))

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
        check_charges(pcf._LADDERS)


class TestWarmTraffic:
    """The op shape of a warm library session, replayed: the charges must keep its residual grid."""

    RULES = (64, 128, 256)

    def replay(self, climbs=None, ladders=None):
        """Values of 40 windows of Gram blocks, residuals and a shifted <x>, as bytes.

        With ``climbs``, the steps climbed on the residual grid's argument are
        appended per window after it is warm; with ``ladders``, the grid's
        ladder must stay the one kept object after every window.
        """
        spec, grid = OscillatorSpec(), Grid1D(-6.0, 6.0, 1e-3)
        values = [hamiltonian_residual(0, spec, grid), hamiltonian_residual(200, spec, grid)]
        grid_ladder = kept(ladders)[-1] if ladders is not None else None
        gammas = iter(np.linspace(-0.95, 0.95, 40))
        for i in range(40):
            start = round(195 * (0.6180339887 * i % 1.0))  # windows in golden-ratio order
            indices = range(start, start + 6)
            states = [Eigenstate(n, spec) for n in indices]
            exact = [gauss_hermite_rule(k) for k in self.RULES if k >= start + 6]
            if climbs is not None:
                climbs.clear()
            for rule in exact:
                pairs = [(a, b) for j, a in enumerate(states) for b in states[j:]]
                values += [overlap(a, b, spec.gaussian_scale, rule) for a, b in pairs]
            values += [hamiltonian_residual(n, spec, grid) for n in indices]
            shifted = ShiftedState.continuous(start, float(next(gammas)), spec)
            values.append(expectation_x_shifted(shifted, exact[0]))
            if climbs is not None:
                # At most 11 steps up from the checkpoint below the window, and 5 within it.
                assert sum(n - k for t, k, n in climbs if t is grid_ladder.arg) <= 16, start
            if ladders is not None:
                assert any(ladder is grid_ladder for ladder in kept(ladders)), start
                check_charges(ladders)
        return [np.asarray(v).tobytes() for v in values]

    def test_the_grid_ladder_survives_the_admissions_around_it(self, monkeypatch):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pcf, "_LADDERS", _BudgetLRU(0))
            patch.setattr(numerics, "_COLUMNS", _BudgetLRU(0))
            want = self.replay()
        ladders = _BudgetLRU(pcf._LADDER_BUDGET)
        monkeypatch.setattr(pcf, "_LADDERS", ladders)
        monkeypatch.setattr(numerics, "_COLUMNS", _BudgetLRU(numerics._COLUMN_BUDGET))
        climbs = []
        climb = pcf._climb

        def recording(t, prev, cur, k, n, top):
            climbs.append((t, k, n))
            return climb(t, prev, cur, k, n, top)

        monkeypatch.setattr(pcf, "_climb", recording)
        assert self.replay(climbs, ladders) == want


def plain_residual(psi, x, h, e, qe, spec):
    """Max |(H - e) psi| on the interior, as one plain stencil expression."""
    kinetic = -(spec.hbar**2 / (2.0 * spec.mu)) * (psi[:-2] - 2.0 * psi[1:-1] + psi[2:]) / (h * h)
    xi = x[1:-1]
    potential = (xi * (0.5 * spec.mu * spec.omega**2) * xi + qe * xi - e) * psi[1:-1]
    return float(np.max(np.abs(kinetic + potential)))


class TestResidualBits:
    """Both residuals equal the plain stencil on uncached_D bit for bit, with kept grids and ladders."""

    @pytest.mark.parametrize("spec", [OscillatorSpec(), OscillatorSpec(mu=1.3, omega=0.7, hbar=1.1)])
    def test_hamiltonian_residual(self, spec):
        grid = Grid1D(-6.5 * spec.length_scale, 6.5 * spec.length_scale, 1e-3)
        x = grid.points()
        s = pcf._STRIDE
        for n in (0, 1, s - 1, s, s + 1, 60, 3, 199, 200, 61):  # crosses checkpoints, up and down
            psi = norm_const(n, spec) * uncached_D(n, spec.z_scale * x)
            want = plain_residual(psi, x, grid.h, energy(n, spec), 0.0, spec)
            assert_bit_equal(hamiltonian_residual(n, spec, grid), want)

    def test_field_hamiltonian_residual(self):
        spec = OscillatorSpec(mu=1.3, omega=0.7, hbar=1.1)
        for state in (
            ShiftedState.continuous(0, 0.4, spec),
            ShiftedState.continuous(30, -0.9, spec),
            ShiftedState.integer_branch(-2, 3, spec),
            ShiftedState.continuous(0, 0.4, spec),
        ):
            span = 6.5 * spec.length_scale
            grid = Grid1D(state.x_center - span, state.x_center + span, 2e-3)
            x = grid.points()
            k = state.pcf_index
            psi = norm_const(k, spec) * uncached_D(k, spec.z_scale * x + 2.0 * state.gamma)
            e = energy_shifted(k, state.gamma, spec)
            want = plain_residual(psi, x, grid.h, e, state.charge_field_product, spec)
            assert_bit_equal(field_hamiltonian_residual(state, e, grid), want)


def free_want(n, spec, grid):
    """The plain stencil residual of psi_n on uncached_D."""
    x = grid.points()
    psi = norm_const(n, spec) * uncached_D(n, spec.z_scale * x)
    return plain_residual(psi, x, grid.h, energy(n, spec), 0.0, spec)


def shifted_want(state, e, grid):
    x = grid.points()
    k, spec = state.pcf_index, state.spec
    psi = norm_const(k, spec) * uncached_D(k, spec.z_scale * x + 2.0 * state.gamma)
    return plain_residual(psi, x, grid.h, e, state.charge_field_product, spec)


class TestResidualInPlace:
    """A residual reads its row from the grid's ladder in place; none of that may show in its value."""

    ORDERS = (0, 1, pcf._STRIDE - 1, pcf._STRIDE, pcf._STRIDE + 1, 60, 3, 199, 200, 61)

    def test_a_warm_grid_needs_no_bitwise_comparison(self, fresh_ladders, monkeypatch):
        spec, grid = OscillatorSpec(mu=1.3, omega=0.7, hbar=1.1), Grid1D(-8.0, 8.0, 2e-3)
        want = [free_want(n, spec, grid) for n in self.ORDERS]
        hamiltonian_residual(0, spec, grid)
        (ladder,) = kept(fresh_ladders)
        x, _, z = oscillator._grid_arrays(grid, 0.5 * spec.mu * spec.omega**2, 0.0, spec.z_scale, 0.0)
        assert ladder.arg is z and not z.flags.writeable
        assert z.tobytes() == np.clip(spec.z_scale * x, -100.0, 100.0).tobytes()
        found = []
        find = pcf._find

        def recording(t):
            key, hit = find(t)
            found.append(hit is not None and hit.arg is t)  # True: the identity skipped the comparison
            return key, hit

        def no_copy(*args, **kwargs):
            raise AssertionError("a warm residual built or copied its argument")

        monkeypatch.setattr(pcf, "_find", recording)
        monkeypatch.setattr(pcf, "eval_D", no_copy)
        monkeypatch.setattr(oscillator, "eval_D", no_copy)
        monkeypatch.setattr(np, "clip", no_copy)
        for n, values in zip(self.ORDERS, want):
            assert_bit_equal(hamiltonian_residual(n, spec, grid), values)
        assert found == [True] * len(self.ORDERS)
        assert kept(fresh_ladders) == [ladder]

    def test_residuals_match_the_plain_stencil_without_a_kept_ladder(self, monkeypatch):
        monkeypatch.setattr(pcf, "_LADDERS", _BudgetLRU(0))
        spec, grid = OscillatorSpec(), Grid1D(-6.0, 6.0, 1e-3)
        for n in self.ORDERS:
            assert_bit_equal(hamiltonian_residual(n, spec, grid), free_want(n, spec, grid))
        state = ShiftedState.integer_branch(-2, 3, spec)
        grid = Grid1D(state.x_center - 6.5, state.x_center + 6.5, 2e-3)
        e = spec.hbar * spec.omega * (state.m + 0.5)
        assert_bit_equal(field_hamiltonian_residual(state, e, grid), shifted_want(state, e, grid))
        assert pcf._LADDERS.nbytes == 0

    def test_a_ladder_made_by_eval_D_on_an_equal_array_serves_the_grid(self, fresh_ladders):
        spec, grid = OscillatorSpec(mu=0.9), Grid1D(-7.0, 7.0, 2e-3)
        oscillator._grid_arrays.cache_clear()
        eval_D(30, spec.z_scale * grid.points())  # makes the ladder of a private clipped copy
        (ladder,) = kept(fresh_ladders)
        for n in self.ORDERS:
            assert_bit_equal(hamiltonian_residual(n, spec, grid), free_want(n, spec, grid))
        *_, z = oscillator._grid_arrays(grid, 0.5 * spec.mu * spec.omega**2, 0.0, spec.z_scale, 0.0)
        assert kept(fresh_ladders) == [ladder] and ladder.arg is not z
        check_charges(fresh_ladders)

    def test_threads_over_two_grids_agree(self):
        spec = OscillatorSpec()
        grids = [Grid1D(-6.0, 6.0, 1e-3), Grid1D(-8.0, 8.0, 2e-3)]  # charged 5.8 MB together: they evict each other
        tasks = [(n, i) for n in range(0, 201, 13) for i in range(len(grids))]
        want = {(n, i): free_want(n, spec, grids[i]) for n, i in tasks}
        barrier = threading.Barrier(4)
        bad = []

        def worker(seed):
            order = random.Random(seed).sample(tasks, len(tasks))
            barrier.wait(timeout=60)
            for n, i in order:
                if hamiltonian_residual(n, spec, grids[i]) != want[n, i]:
                    bad.append((seed, n, i))

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert bad == []
        check_charges(pcf._LADDERS)

    def test_held_rows_and_the_argument_are_unchanged_by_a_residual_window(self, fresh_ladders):
        spec, grid = OscillatorSpec(), Grid1D(-6.0, 6.0, 1e-3)
        hamiltonian_residual(60, spec, grid)
        hamiltonian_residual(130, spec, grid)  # records the checkpoints from 60 up to 130
        (ladder,) = kept(fresh_ladders)
        held = {m: (pair, [np.asarray(d).tobytes() for d in pair]) for m, pair in ladder.pairs.items()}
        arg = ladder.arg.tobytes()
        for n in (140, 141, 142, 143, 144, 145, 30, 101, 200, 76, 3, 129):
            assert_bit_equal(hamiltonian_residual(n, spec, grid), free_want(n, spec, grid))
        for pair, before in held.values():
            assert [np.asarray(d).tobytes() for d in pair] == before
        assert ladder.arg.tobytes() == arg
