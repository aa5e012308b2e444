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

from paracyl import pcf
from paracyl.pcf import PcfPolyPart, _ode_residual, eval_D, pcf_poly, pcf_rodrigues_poly
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


class TestLadderCache:
    """eval_D keeps recurrence rows between calls; none of that may show in its values."""

    @staticmethod
    def pool():
        nodes = np.linspace(-7.0, 7.0, 257)
        return [
            nodes,
            nodes.copy(),  # an equal-valued copy
            np.linspace(-30.0, 30.0, 5000),  # pair-only above about n = 11
            np.linspace(-40.0, 40.0, 22000),  # over the budget: never kept
            np.array(1.25),
            np.array([-0.0, 0.0, 1e300, -math.inf, math.nan]),
            0.75,
        ]

    @given(
        st.lists(
            st.tuples(st.integers(0, 200), st.integers(0, 6), st.booleans()),
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
        climbs = []
        climb = pcf._climb

        def recording(t, prev, cur, k, n, keep):
            climbs.append((k, n))
            return climb(t, prev, cur, k, n, keep)

        monkeypatch.setattr(pcf, "_climb", recording)
        for n in (40, 41, 42, 40, 39):
            assert_bit_equal(eval_D(n, z.copy()), uncached_D(n, z))
        assert climbs == [(0, 40), (40, 41), (41, 42)]

    def test_byte_total_stays_within_the_budget(self):
        grid = np.linspace(-6.0, 6.0, 12001)
        for i in range(30):
            eval_D(20 + i, grid + 1e-3 * i)
            eval_D(3, grid - 1e-3 * i)
        ladders = list(pcf._LADDERS._ladders.values())
        held = sum(sys.getsizeof(x.arg) + sum(sys.getsizeof(r) for r in x.rows) for x in ladders)
        assert held == pcf._LADDERS.nbytes <= pcf._LADDER_BUDGET

    def test_raised_cap_overflow_is_an_error_on_a_hit(self):
        z = np.linspace(-1.0, 1.0, 9)
        low = eval_D(250, z, cap=400)
        for _ in range(2):
            with pytest.raises(FloatingPointError):
                eval_D(400, z, cap=400)
            with pytest.raises(FloatingPointError):
                eval_D(400, 1.0, cap=400)
        assert_bit_equal(eval_D(250, z, cap=400), low)

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
        ladders = pcf._LADDERS._ladders.values()
        held = sum(sys.getsizeof(x.arg) + sum(sys.getsizeof(r) for r in x.rows) for x in ladders)
        assert held == pcf._LADDERS.nbytes <= pcf._LADDER_BUDGET
