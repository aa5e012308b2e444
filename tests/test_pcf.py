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
from paracyl.grids import Grid1D
from paracyl.numerics import gauss_hermite_rule, overlap
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
            pcf._climb(t, 0.0, np.exp(-(t * t) / 4.0), 0, 400, 0)

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


def grid_ladder(spec, grid):
    """The ladder the residual grid of ``spec`` on ``grid`` owns (made now if the grid is not kept)."""
    return oscillator._grid_arrays(grid, 0.5 * spec.mu * spec.omega**2, spec.z_scale, 0.0)[2]


@pytest.fixture
def fresh_grids():
    """No residual grid kept before the test."""
    oscillator._grid_arrays.cache_clear()


def counting_climbs(monkeypatch):
    """Record (k, n) of every climb from D_k up to D_n."""
    climbs = []
    climb = pcf._climb

    def recording(t, prev, cur, k, n, stride):
        climbs.append((k, n))
        return climb(t, prev, cur, k, n, stride)

    monkeypatch.setattr(pcf, "_climb", recording)
    return climbs


class TestEvalDIsPure:
    """eval_D keeps nothing between calls: each one clips, climbs from D_0 and returns a new array."""

    @staticmethod
    def pool():
        nodes = np.linspace(-7.0, 7.0, 257)
        return [
            nodes,
            nodes.copy(),  # an equal-valued copy
            np.linspace(-30.0, 30.0, 5000),
            np.linspace(-40.0, 40.0, 22000),
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

    def test_each_call_clips_once_and_climbs_from_d0(self, monkeypatch):
        z = np.linspace(-5.0, 5.0, 101)
        wide = np.linspace(-300.0, 300.0, 61)  # clipped at both ends
        calls = [(n, z) for n in (7, 8, 7, 30, 2)] + [(n, wide) for n in (7, 8, 7)] + [(5, 0.3)]
        want = [uncached_D(n, arg) for n, arg in calls]
        clips = []
        clip = np.clip

        def counting_clip(*args, **kwargs):
            clips.append(np.shape(args[0]))
            return clip(*args, **kwargs)

        monkeypatch.setattr(np, "clip", counting_clip)
        climbs = counting_climbs(monkeypatch)
        for (n, arg), values in zip(calls, want):
            assert_bit_equal(eval_D(n, arg.copy() if isinstance(arg, np.ndarray) else arg), values)
        assert clips == [z.shape] * 5 + [wide.shape] * 3 + [()]
        assert climbs == [(0, n) for n, _ in calls]

    def test_the_module_keeps_no_store(self):
        for n in (3, 200, 3):
            eval_D(n, np.linspace(-6.0, 6.0, 12001))
        lock = type(threading.Lock())
        held = {
            name
            for name, value in vars(pcf).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set, np.ndarray, lock))
        }
        assert held == set()
        for name in ("_LADDERS", "_find", "_held_row", "_LADDER_ROWS", "_LADDER_BUDGET"):
            assert not hasattr(pcf, name)

    def test_an_order_above_the_cap_is_an_error_after_a_top_order_call(self):
        z = np.linspace(-1.0, 1.0, 9)
        top = eval_D(DEGREE_CAP, z)
        for _ in range(2):
            for arg in (z, 1.0):
                with pytest.raises(ValueError, match=f"^order {DEGREE_CAP + 1} exceeds"):
                    eval_D(DEGREE_CAP + 1, arg)
        assert_bit_equal(eval_D(DEGREE_CAP, z), top)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_negative_zero_gives_positive_zero_on_repeated_calls(self, n):
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


class TestLadder:
    """A grid's ladder keeps recurrence rows between residuals; none of that may show in its values."""

    @staticmethod
    def ladder(z):
        z = np.clip(z, -100.0, 100.0)
        z.flags.writeable = False
        return pcf._Ladder(z)

    def test_consecutive_orders_resume_instead_of_restarting(self, monkeypatch):
        z = np.linspace(-6.0, 6.0, 12001) + 1e-3
        ladder = self.ladder(z)
        assert ladder.stride == 7
        climbs = counting_climbs(monkeypatch)
        for n in (40, 41, 42, 41, 30, 33, 26, 28):
            assert_bit_equal(ladder.row(n) + 0.0, uncached_D(n, z))
        # 41 and 28 are rows of kept pairs; every other order climbs from the
        # highest kept pair below it: the cursor or a checkpoint.
        assert climbs == [(0, 40), (40, 41), (41, 42), (28, 30), (30, 33), (21, 26)]

    def test_a_climb_to_the_degree_cap_records_every_checkpoint(self, monkeypatch):
        z = np.linspace(-1.0, 1.0, 12001)
        ladder = self.ladder(z)
        assert ladder.stride == 7
        climbs = counting_climbs(monkeypatch)
        checkpoints = list(range(7, DEGREE_CAP + 1, 7))
        for n in (0, 10, DEGREE_CAP, DEGREE_CAP - 5, DEGREE_CAP - 2):
            assert_bit_equal(ladder.row(n) + 0.0, uncached_D(n, z))
        # The cursors at 0 and at the cap, which are no checkpoints, are dropped when they move.
        # D_195 is the first row of the kept pair at 196 = 28 * 7.
        assert sorted(ladder.pairs) == [*checkpoints, DEGREE_CAP - 2]
        assert ladder.top == checkpoints[-1] == 196
        assert climbs == [(0, 0), (0, 10), (10, DEGREE_CAP), (196, DEGREE_CAP - 2)]

    def test_held_rows_are_never_changed(self):
        z = np.linspace(-6.0, 6.0, 301)
        ladder = self.ladder(z)
        ladder.row(60)
        ladder.row(130)
        held = {m: (pair, [np.asarray(d).tobytes() for d in pair]) for m, pair in ladder.pairs.items()}
        assert sorted(held) == sorted({*range(ladder.stride, 130, ladder.stride), 130})
        for n in (140, 30, 101, 200, 76, 3, 129):
            assert_bit_equal(ladder.row(n) + 0.0, uncached_D(n, z))
        for pair, before in held.values():
            assert [np.asarray(d).tobytes() for d in pair] == before

    @staticmethod
    def held_bytes(ladder):
        """``sys.getsizeof`` of the argument, of every row of a kept pair and of the two interior rows of a residual."""
        rows = {id(d): d for pair in ladder.pairs.values() for d in pair if isinstance(d, np.ndarray)}
        rows[id(ladder.arg)] = ladder.arg
        interior = sys.getsizeof(np.empty(ladder.arg.size - 2))
        return sum(map(sys.getsizeof, rows.values())) + 2 * interior

    @pytest.mark.parametrize(
        "points,stride", [(9, 1), (12001, 7), (13001, 8), (14549, 9), (14550, 9), (24001, 15), (100001, 101)]
    )
    def test_every_argument_up_to_112334_points_keeps_checkpoints_within_the_byte_budget(
        self, monkeypatch, points, stride
    ):
        z = np.linspace(-6.0, 6.0, points)
        ladder = self.ladder(z)
        assert ladder.stride == stride
        assert_bit_equal(ladder.row(DEGREE_CAP) + 0.0, uncached_D(DEGREE_CAP, z))
        assert ladder.top == DEGREE_CAP - DEGREE_CAP % stride
        assert self.held_bytes(ladder) <= pcf._CHECKPOINT_BYTES
        climbs = counting_climbs(monkeypatch)
        for i in range(1, 6):
            start = round(195 * (0.6180339887 * i % 1.0))  # back down, windows in golden-ratio order
            climbs.clear()
            for n in range(start, start + 6):
                assert_bit_equal(ladder.row(n) + 0.0, uncached_D(n, z))
            assert sum(n - k for k, n in climbs) <= stride - 1 + 5, start
            assert self.held_bytes(ladder) <= pcf._CHECKPOINT_BYTES, start

    def test_an_argument_past_112334_points_keeps_only_its_cursor_pair(self, monkeypatch):
        assert pcf._stride(112334) == 101
        z = np.linspace(-6.0, 6.0, 112335)
        ladder = self.ladder(z)
        assert ladder.stride == 0
        climbs = counting_climbs(monkeypatch)
        for n in (DEGREE_CAP, 30, 31):
            assert_bit_equal(ladder.row(n) + 0.0, uncached_D(n, z))
            assert list(ladder.pairs) == [n]
        assert climbs == [(0, DEGREE_CAP), (0, 30), (30, 31)]
        assert self.held_bytes(ladder) <= pcf._CHECKPOINT_BYTES

    @staticmethod
    def sweep_windows(grid, monkeypatch):
        """40 windows of six residuals on ``grid``, kept after a residual at the cap; returns the grid's ladder."""
        spec = OscillatorSpec()
        hamiltonian_residual(200, spec, grid)  # this climb records every checkpoint
        ladder = grid_ladder(spec, grid)
        assert ladder.top == DEGREE_CAP - DEGREE_CAP % ladder.stride
        climbs = counting_climbs(monkeypatch)
        for i in range(40):
            start = round(195 * (0.6180339887 * i % 1.0))  # windows in golden-ratio order
            climbs.clear()
            for n in range(start, start + 6):
                hamiltonian_residual(n, spec, grid)
            assert sum(n - k for k, n in climbs) <= ladder.stride - 1 + 5, start
        assert grid_ladder(spec, grid) is ladder
        return ladder

    def test_a_window_sweep_on_a_kept_grid_climbs_less_than_a_stride(self, fresh_grids, monkeypatch):
        assert self.sweep_windows(Grid1D(-6.0, 6.0, 1e-3), monkeypatch).stride == 7

    def test_a_kept_24001_point_grid_keeps_checkpoints(self, fresh_grids, monkeypatch):
        grid = Grid1D(-12.0, 12.0, 1e-3)
        assert grid.npoints == 24001
        assert self.sweep_windows(grid, monkeypatch).stride == 15


class TestWarmTraffic:
    """The op shape of a warm library session, replayed: the kept grid must serve every window."""

    RULES = (64, 128, 256)

    def replay(self, climbs=None):
        """Values of 40 windows of Gram blocks, residuals and a shifted <x>, as bytes.

        With ``climbs``, the steps climbed on the residual grid's ladder are
        counted per window, and the grid must keep that one ladder.
        """
        spec, grid = OscillatorSpec(), Grid1D(-6.0, 6.0, 1e-3)
        values = [hamiltonian_residual(0, spec, grid), hamiltonian_residual(200, spec, grid)]
        ladder = grid_ladder(spec, grid) if climbs is not None else None
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
                # At most stride - 1 steps up from the checkpoint below the window, and 5 within it.
                assert sum(n - k for t, k, n in climbs if t is ladder.arg) <= ladder.stride - 1 + 5, start
                assert grid_ladder(spec, grid) is ladder, start
        return [np.asarray(v).tobytes() for v in values]

    def test_the_kept_grid_and_tables_give_the_values_of_a_cold_replay(self, fresh_grids, monkeypatch):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oscillator, "_grid_arrays", oscillator._grid_arrays.__wrapped__)  # a new ladder per call
            patch.setattr(numerics, "_table", numerics._table.__wrapped__)  # a new table per column
            want = self.replay()
        numerics._table.cache_clear()
        climbs = []
        climb = pcf._climb

        def recording(t, prev, cur, k, n, stride):
            climbs.append((t, k, n))
            return climb(t, prev, cur, k, n, stride)

        monkeypatch.setattr(pcf, "_climb", recording)
        assert self.replay(climbs) == want


def crossing(stride):
    """Orders that cross the checkpoints of a ladder of ``stride``, up and down."""
    return (0, 1, stride - 1, stride, stride + 1, 60, 3, 199, 200, 61)


def plain_residual(k, d, u, h, e, spec):
    """Max |(H - e) psi| on the interior of the offsets u for psi = N_k d, as one expression.

    With a = -(hbar^2 / 2 mu) / h^2, the -2 psi_i of the second difference
    is folded into the potential mu omega^2 u^2 / 2, and N_k multiplies the max.
    """
    a = -(spec.hbar**2 / (2.0 * spec.mu)) / (h * h)
    ui = u[1:-1]
    r = a * (d[:-2] + d[2:]) + (ui * (0.5 * spec.mu * spec.omega**2) * ui - (e + 2.0 * a)) * d[1:-1]
    return norm_const(k, spec) * float(np.max(np.abs(r)))


class TestResidualBits:
    """Both residuals equal the folded stencil on uncached_D bit for bit, with kept grids and ladders."""

    @pytest.mark.parametrize("spec", [OscillatorSpec(), OscillatorSpec(mu=1.3, omega=0.7, hbar=1.1)])
    def test_hamiltonian_residual(self, spec):
        grid = Grid1D(-6.5 * spec.length_scale, 6.5 * spec.length_scale, 1e-3)
        x = grid.points()
        for n in crossing(grid_ladder(spec, grid).stride):
            want = plain_residual(n, uncached_D(n, spec.z_scale * x), x, grid.h, energy(n, spec), spec)
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
            e = energy_shifted(state.pcf_index, state.gamma, spec)
            assert_bit_equal(field_hamiltonian_residual(state, e, grid), shifted_want(state, e, grid))


def free_want(n, spec, grid):
    """The folded stencil residual of psi_n on uncached_D."""
    x = grid.points()
    return plain_residual(n, uncached_D(n, spec.z_scale * x), x, grid.h, energy(n, spec), spec)


def shifted_want(state, e, grid):
    """The folded stencil residual of psi_k on u = x - x_center, for the level e + hbar omega gamma^2."""
    u = grid.points() - state.x_center
    k, spec = state.pcf_index, state.spec
    level = e + spec.hbar * spec.omega * (state.gamma * state.gamma)
    return plain_residual(k, uncached_D(k, spec.z_scale * u), u, grid.h, level, spec)


class TestResidualInPlace:
    """A residual reads its row from the grid's ladder in place; none of that may show in its value."""

    def test_a_warm_grid_reads_its_own_ladder_in_place(self, fresh_grids, monkeypatch):
        spec, grid = OscillatorSpec(mu=1.3, omega=0.7, hbar=1.1), Grid1D(-8.0, 8.0, 2e-3)
        hamiltonian_residual(0, spec, grid)
        x, _, ladder = oscillator._grid_arrays(grid, 0.5 * spec.mu * spec.omega**2, spec.z_scale, 0.0)
        orders = crossing(ladder.stride)
        want = [free_want(n, spec, grid) for n in orders]
        assert not ladder.arg.flags.writeable
        assert ladder.arg.tobytes() == np.clip(spec.z_scale * x, -100.0, 100.0).tobytes()

        def no_copy(*args, **kwargs):
            raise AssertionError("a warm residual built or copied its argument")

        monkeypatch.setattr(pcf, "eval_D", no_copy)
        monkeypatch.setattr(oscillator, "eval_D", no_copy)
        monkeypatch.setattr(np, "clip", no_copy)
        for n, values in zip(orders, want):
            assert_bit_equal(hamiltonian_residual(n, spec, grid), values)
        assert grid_ladder(spec, grid) is ladder

    def test_residuals_match_the_plain_stencil_without_a_kept_grid(self, monkeypatch):
        monkeypatch.setattr(oscillator, "_grid_arrays", oscillator._grid_arrays.__wrapped__)
        spec, grid = OscillatorSpec(), Grid1D(-6.0, 6.0, 1e-3)
        for n in crossing(pcf._stride(grid.npoints)):
            assert_bit_equal(hamiltonian_residual(n, spec, grid), free_want(n, spec, grid))
        state = ShiftedState.integer_branch(-2, 3, spec)
        grid = Grid1D(state.x_center - 6.5, state.x_center + 6.5, 2e-3)
        e = spec.hbar * spec.omega * (state.m + 0.5)
        assert_bit_equal(field_hamiltonian_residual(state, e, grid), shifted_want(state, e, grid))

    def test_two_grids_each_keep_their_own_ladder(self, fresh_grids):
        spec = OscillatorSpec()
        grids = [Grid1D(-6.0, 6.0, 1e-3), Grid1D(-8.0, 8.0, 2e-3)]
        for n in (200, 3, 200):
            for grid in grids:
                assert_bit_equal(hamiltonian_residual(n, spec, grid), free_want(n, spec, grid))
        first, second = (grid_ladder(spec, grid) for grid in grids)
        assert first is not second
        for ladder in (first, second):
            assert sorted(ladder.pairs) == sorted({*range(ladder.stride, DEGREE_CAP + 1, ladder.stride), ladder.cursor})

    def test_threads_over_two_grids_agree(self):
        spec = OscillatorSpec()
        grids = [Grid1D(-6.0, 6.0, 1e-3), Grid1D(-8.0, 8.0, 2e-3)]  # each keeps its own ladder and lock
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

    def test_held_rows_and_the_argument_are_unchanged_by_a_residual_window(self, fresh_grids):
        spec, grid = OscillatorSpec(), Grid1D(-6.0, 6.0, 1e-3)
        hamiltonian_residual(60, spec, grid)
        hamiltonian_residual(130, spec, grid)
        ladder = grid_ladder(spec, grid)
        held = {m: (pair, [np.asarray(d).tobytes() for d in pair]) for m, pair in ladder.pairs.items()}
        arg = ladder.arg.tobytes()
        for n in (140, 141, 142, 143, 144, 145, 30, 101, 200, 76, 3, 129):
            assert_bit_equal(hamiltonian_residual(n, spec, grid), free_want(n, spec, grid))
        for pair, before in held.values():
            assert [np.asarray(d).tobytes() for d in pair] == before
        assert ladder.arg.tobytes() == arg
