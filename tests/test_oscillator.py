import copy
import dataclasses
import math
import pickle
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from paracyl.field import ShiftedState, energy_shifted, expectation_x_shifted, field_hamiltonian_residual
from paracyl import numerics, oscillator
from paracyl.grids import Grid1D
from paracyl.numerics import gauss_hermite_rule, overlap
from paracyl.pcf import eval_D
from paracyl.oscillator import (
    Eigenstate,
    OscillatorSpec,
    energy,
    expectation_x,
    hamiltonian_residual,
    norm_const,
)
from paracyl.polys import DEGREE_CAP

PI_QUARTER = math.pi ** -0.25
CONVERGENCE_STEPS = (2e-3, 1e-3, 5e-4)

#: The unit roundoff of a double.
U = 2.0**-53
#: 2**SCALE_BITS d is an integer for every finite double d (1074 + 53).
SCALE_BITS = 1127
SPEC_B = OscillatorSpec(mu=1.3, omega=0.7, hbar=1.1)


def field_level(state):
    """The level of a shifted state: hbar omega (m + 1/2) on the integer branch, else ``energy_shifted``."""
    if state.m != state.pcf_index:
        return state.spec.hbar * state.spec.omega * (state.m + 0.5)
    return energy_shifted(state.pcf_index, state.gamma, state.spec)


def state_id(state):
    return f"m{state.m}-k{state.pcf_index}"


def stencil_residual(state, e, qe, grid):
    """max |(H - e) psi| over the grid interior, as one plain array expression.

    psi = N_k d with d = D_k(z + shift); with a = -(hbar^2 / 2 mu) / h^2 the
    -2 psi_i of the second difference is folded into the potential, and N_k
    multiplies the max.
    """
    spec, x, h = state.spec, grid.points(), grid.h
    k, shift = (state.n, 0.0) if isinstance(state, Eigenstate) else (state.pcf_index, 2.0 * state.gamma)
    d = eval_D(k, spec.z_scale * x + shift)
    a = -(spec.hbar**2 / (2.0 * spec.mu)) / (h * h)
    potential = 0.5 * spec.mu * spec.omega**2 * x * x + qe * x
    r = a * (d[:-2] + d[2:]) + (potential[1:-1] - (e + 2.0 * a)) * d[1:-1]
    return norm_const(k, spec) * float(np.max(np.abs(r)))


class TestSpec:
    def test_rejects_nonpositive_parameters(self):
        for bad in (dict(mu=0.0), dict(omega=-1.0), dict(hbar=0.0), dict(mu=math.inf)):
            with pytest.raises(ValueError):
                OscillatorSpec(**bad)

    @pytest.mark.parametrize(
        "params,name",
        [
            (dict(mu=1e308, omega=1e308), "gaussian_scale"),  # mu omega overflows
            (dict(mu=1e-308, omega=1e-308), "gaussian_scale"),  # mu omega underflows to 0
            (dict(mu=1e308, omega=1.0), "z_scale"),  # 2 mu omega overflows
            (dict(mu=1e-320, omega=1.0), "length_scale"),  # hbar / (mu omega) overflows
            (dict(mu=1e200, omega=1e-200, hbar=1e-200), "hbar omega"),  # underflows to 0
            (dict(mu=1e-200, omega=1e200, hbar=1e200), "hbar omega"),  # overflows
        ],
    )
    def test_out_of_range_derived_scales_are_rejected(self, params, name):
        with pytest.raises(ValueError, match=name):
            OscillatorSpec(**params)

    @pytest.mark.parametrize(
        "params,name",
        [
            (dict(omega=1e-320, mu=1e16), "omega"),
            (dict(omega=1e-318, mu=1e14), "omega"),
            (dict(mu=1e-310, omega=1e10), "mu"),
            (dict(hbar=1e-310, mu=1e-10), "hbar"),
            (dict(omega=1e-300, mu=1e14, hbar=1e-10), "level spacing hbar omega"),  # 1e-310
            (dict(omega=3e-154, hbar=5e-155, mu=1e150), "level spacing hbar omega"),  # 1.5e-308
        ],
    )
    def test_subnormal_parameters_and_spacing_are_rejected(self, params, name):
        with pytest.raises(ValueError, match=f"^{name} = .* is subnormal"):
            OscillatorSpec(**params)

    def test_smallest_normal_spacing_is_accepted(self):
        spec = OscillatorSpec(omega=sys.float_info.min, mu=1e300)
        assert energy(0, spec) == 0.5 * sys.float_info.min
        assert energy(1, spec) == 1.5 * sys.float_info.min

    def test_derived_scales(self):
        spec = OscillatorSpec(mu=2.0, omega=8.0, hbar=1.0)
        assert spec.z_scale == pytest.approx(math.sqrt(32.0), rel=1e-15, abs=0.0)
        assert spec.length_scale == pytest.approx(0.25, rel=1e-15, abs=0.0)


class TestEnergy:
    def test_ground_state(self):
        assert energy(0, OscillatorSpec()) == 0.5

    def test_direct_substitution(self):
        assert energy(3, OscillatorSpec(omega=2.0)) == 7.0

    def test_linear_ladder(self):
        spec = OscillatorSpec(mu=1.3, omega=0.7, hbar=2.0)
        for n in range(12):
            assert energy(n + 1, spec) - energy(n, spec) == pytest.approx(
                spec.hbar * spec.omega, rel=1e-14, abs=0.0
            )

    @pytest.mark.parametrize("n", [0, 3, 200])
    def test_overflowing_level_is_an_error(self, n):
        # hbar omega = 1e308 is finite; (n + 1/2) hbar omega is not from n = 1 on.
        spec = OscillatorSpec(omega=1e300, hbar=1e8)
        if n == 0:
            assert energy(0, spec) == 5e307
        else:
            with pytest.raises(ValueError, match=f"^energy E_{n} = .* overflows"):
                energy(n, spec)


class TestNormConst:
    def test_ground_state(self):
        assert norm_const(0, OscillatorSpec()) == pytest.approx(PI_QUARTER, rel=1e-15, abs=0.0)

    def test_n2(self):
        assert norm_const(2, OscillatorSpec()) == pytest.approx(PI_QUARTER / math.sqrt(2.0), rel=1e-15, abs=0.0)

    def test_n1_equals_n0(self):
        spec = OscillatorSpec(mu=3.0, omega=0.2, hbar=1.5)
        assert norm_const(1, spec) == norm_const(0, spec)

    @pytest.mark.parametrize("n", [21, 25, 40])
    def test_matches_exact_factorial(self, n):
        exact = PI_QUARTER / math.sqrt(math.factorial(n))
        assert norm_const(n, OscillatorSpec()) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_inverse_root_factorial_is_correctly_rounded(self):
        with mpmath.workprec(300):
            for n in range(DEGREE_CAP + 1):
                value = oscillator._inv_sqrt_factorial(n)
                assert abs(value - 1 / mpmath.sqrt(mpmath.factorial(n))) <= math.ulp(value) / 2

    def test_inverse_root_factorial_equals_the_fixed_width_formula(self):
        # The former formula: the int floor(2^1300 / sqrt(n!)), 677 or more bits for n <= 200, over 2^1300.
        for n in range(DEGREE_CAP + 1):
            wide = math.isqrt((1 << 2600) // math.factorial(n)) / (1 << 1300)
            assert oscillator._inv_sqrt_factorial(n).hex() == wide.hex()

    @pytest.mark.parametrize("spec", [OscillatorSpec(), OscillatorSpec(mu=1.3, omega=0.7, hbar=1.1)])
    def test_within_four_units_of_roundoff_of_mpmath_at_every_order(self, spec):
        # Measured: 1.67 u on the unit spec, 1.85 u on the other (u = 2^-53).
        with mpmath.workprec(300):
            base = (mpmath.mpf(spec.mu) * spec.omega / (spec.hbar * mpmath.pi)) ** mpmath.mpf(0.25)
            for n in range(DEGREE_CAP + 1):
                exact = base / mpmath.sqrt(mpmath.factorial(n))
                assert abs(norm_const(n, spec) - exact) <= 4 * 2.0**-53 * exact

    @pytest.mark.parametrize("n", [DEGREE_CAP + 1, 301, 350])
    def test_an_order_above_the_cap_is_rejected(self, n):
        # Past the cap 1/sqrt(n!) leaves the normal doubles: 2.47e-309 at 301, 0.0 from 350.
        with pytest.raises(ValueError, match=f"^order {n} exceeds the configured cap {DEGREE_CAP}$"):
            norm_const(n, OscillatorSpec())


class TestEigenstateHash:
    SPECS = (OscillatorSpec(), OscillatorSpec(mu=1.3, omega=0.7, hbar=1.1))

    @pytest.mark.parametrize("n", [0, 7, 200])
    def test_hash_is_that_of_the_fields(self, n):
        for spec in self.SPECS:
            assert hash(Eigenstate(n, spec)) == hash((n, spec))

    def test_equal_states_hash_equal(self):
        a, b = Eigenstate(5, OscillatorSpec(mu=1.0)), Eigenstate(5, OscillatorSpec(mu=1))
        assert a == b and a is not b and hash(a) == hash(b)
        assert Eigenstate(5, OscillatorSpec()) != Eigenstate(6, OscillatorSpec())
        assert len({a, b, Eigenstate(6, OscillatorSpec())}) == 2

    def test_pickle_and_copy_keep_equality_and_hash(self):
        state = Eigenstate(9, self.SPECS[1])
        for other in (pickle.loads(pickle.dumps(state)), copy.copy(state), copy.deepcopy(state)):
            assert other == state and hash(other) == hash(state)
            assert other(0.4) == state(0.4)

    def test_the_hash_field_is_not_part_of_the_value(self):
        state = Eigenstate(2, OscillatorSpec())
        assert repr(state) == "Eigenstate(n=2, spec=OscillatorSpec(mu=1.0, omega=1.0, hbar=1.0))"
        assert dataclasses.astuple(dataclasses.replace(state, n=3))[0] == 3

    def test_a_stored_column_is_read_without_hashing_the_spec(self, monkeypatch):
        spec, rule = OscillatorSpec(mu=1.7), gauss_hermite_rule(64)
        numerics._table.cache_clear()
        a, b = Eigenstate(3, spec), Eigenstate(5, spec)
        want = overlap(a, b, spec.gaussian_scale, rule)  # builds the table of both columns
        calls = []
        spec_hash = OscillatorSpec.__hash__

        def counting(self):
            calls.append(self)
            return spec_hash(self)

        monkeypatch.setattr(OscillatorSpec, "__hash__", counting)
        assert overlap(a, b, spec.gaussian_scale, rule) == want
        assert calls == []


class TestQuantumNumberType:
    @pytest.mark.parametrize("n", [2.5, 2.0, True, False, np.int64(2), "2", None])
    @pytest.mark.parametrize("fn", [energy, norm_const])
    def test_a_non_int_quantum_number_is_rejected(self, fn, n):
        with pytest.raises(TypeError, match="^order must be an int$"):
            fn(n, OscillatorSpec())

    @pytest.mark.parametrize("fn", [energy, norm_const])
    def test_a_negative_quantum_number_is_still_a_value_error(self, fn):
        with pytest.raises(ValueError, match="^quantum number must be non-negative$"):
            fn(-1, OscillatorSpec())


class TestEigenstateOrder:
    @pytest.mark.parametrize("n", [2.0, True, False, np.int64(2), "2", None])
    def test_a_non_int_order_is_rejected_when_built(self, n):
        with pytest.raises(TypeError, match="^order must be an int$"):
            Eigenstate(n, OscillatorSpec())

    def test_a_negative_order_is_still_a_value_error(self):
        with pytest.raises(ValueError, match="^quantum number must be non-negative$"):
            Eigenstate(-1, OscillatorSpec())

    @pytest.mark.parametrize("n", [DEGREE_CAP + 1, 300])
    def test_an_order_above_the_cap_is_rejected_when_built(self, n):
        with pytest.raises(ValueError, match=f"^order {n} exceeds the configured cap {DEGREE_CAP}$"):
            Eigenstate(n, OscillatorSpec())
        assert Eigenstate(DEGREE_CAP, OscillatorSpec()).n == DEGREE_CAP


class TestEigenstateValues:
    def test_odd_state_vanishes_at_origin(self):
        assert Eigenstate(1, OscillatorSpec(mu=2.0, omega=3.0))(0.0) == 0.0

    def test_ground_state_at_origin(self):
        assert Eigenstate(0, OscillatorSpec())(0.0) == pytest.approx(PI_QUARTER, rel=1e-15, abs=0.0)

    def test_n2_at_origin(self):
        assert Eigenstate(2, OscillatorSpec())(0.0) == pytest.approx(
            -PI_QUARTER / math.sqrt(2.0), rel=1e-15, abs=0.0
        )

    def test_scale_covariance(self):
        # Quadrupling mu*omega halves the length scale and scales amplitudes
        # by (mu' omega' / mu omega)^{1/4} = sqrt(2).
        spec = OscillatorSpec()
        spec4 = OscillatorSpec(mu=2.0, omega=2.0)
        for n in range(6):
            for x in (-2.3, -0.7, 0.4, 1.9):
                assert Eigenstate(n, spec4)(x / 2.0) == pytest.approx(
                    math.sqrt(2.0) * Eigenstate(n, spec)(x), rel=1e-12, abs=1e-15
                )

    @pytest.mark.parametrize("n", range(0, 9))
    def test_node_count(self, n):
        spec = OscillatorSpec()
        ell = spec.length_scale
        xs = np.arange(-8.0 * ell, 8.0 * ell + 1e-12, 0.01 * ell)
        vals = np.array([Eigenstate(n, spec)(x) for x in xs])
        assert int(np.sum(vals[:-1] * vals[1:] < 0)) == n


class TestOrthonormality:
    def test_eleven_by_eleven_matrix(self):
        spec = OscillatorSpec()
        rule = gauss_hermite_rule(64)
        states = [Eigenstate(n, spec) for n in range(11)]
        for i in range(11):
            for j in range(i, 11):
                value = overlap(states[i], states[j], spec.gaussian_scale, rule)
                assert value == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)

    def test_six_by_six_block_at_the_order_cap(self):
        spec = OscillatorSpec()
        rule = gauss_hermite_rule(256)
        states = [Eigenstate(n, spec) for n in range(195, 201)]
        for i in range(6):
            for j in range(i, 6):
                value = overlap(states[i], states[j], spec.gaussian_scale, rule)
                assert value == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


class TestExpectationX:
    def test_ground_state(self):
        assert abs(expectation_x(0, OscillatorSpec())) < 1e-12

    def test_n5(self):
        assert abs(expectation_x(5, OscillatorSpec())) < 1e-10

    def test_symmetric_rule_annihilates_odd_integrand(self):
        # psi_n^2 x is odd, and the node set is exactly symmetric, so the
        # quadrature sum cancels pairwise to exactly zero.
        assert expectation_x(3, OscillatorSpec()) == 0.0


class TestOrderCheckedBeforeTheRule:
    @staticmethod
    def no_rule_built(monkeypatch):
        def refuse(n):
            raise AssertionError(f"a {n}-point rule was built")

        monkeypatch.setattr(numerics, "_build_rule", refuse)

    @pytest.mark.parametrize("n", [DEGREE_CAP + 1, 300])
    def test_expectation_x_names_the_order(self, monkeypatch, n):
        self.no_rule_built(monkeypatch)
        with pytest.raises(ValueError, match=f"^order {n} exceeds the configured cap {DEGREE_CAP}$"):
            expectation_x(n, OscillatorSpec())

    @pytest.mark.parametrize(
        "i,j,bad", [(DEGREE_CAP + 1, DEGREE_CAP + 1, DEGREE_CAP + 1), (0, 300, 300), (300, 5, 300)]
    )
    def test_overlap_names_the_order(self, monkeypatch, i, j, bad):
        self.no_rule_built(monkeypatch)
        spec = OscillatorSpec()
        with pytest.raises(ValueError, match=f"^order {bad} exceeds the configured cap {DEGREE_CAP}$"):
            overlap(Eigenstate(i, spec), Eigenstate(j, spec), spec.gaussian_scale)

    def test_expectation_x_shifted_names_the_order(self, monkeypatch):
        self.no_rule_built(monkeypatch)
        with pytest.raises(ValueError, match=f"^order 230 exceeds the configured cap {DEGREE_CAP}$"):
            ShiftedState.continuous(230, 0.2, OscillatorSpec())


def two_evaluation_x_mean(state, center, rule):
    """<x> as one ``overlap`` of psi and x psi over u = x - center: the state is called twice."""

    def centred(u):
        return state(center + u)

    return overlap(centred, lambda u: (center + u) * centred(u), state.spec.gaussian_scale, rule)


class CountingState:
    """A state that delegates to ``state`` and counts its calls."""

    def __init__(self, state):
        self.state, self.spec, self.calls = state, state.spec, 0

    def __call__(self, x):
        self.calls += 1
        return self.state(x)


class TestSingleEvaluationMean:
    """<x> calls its state once, with the value bits of the two-evaluation overlap."""

    ORDERS = (0, 5, 63, 127, 200)
    SPECS = (OscillatorSpec(), OscillatorSpec(mu=1.3, omega=0.7, hbar=1.1))

    @staticmethod
    def exact_rules(n):
        return [gauss_hermite_rule(k) for k in (64, 128, 256) if k >= n + 1]

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("n", ORDERS)
    def test_free_states(self, spec, n):
        for rule in self.exact_rules(n):
            want = two_evaluation_x_mean(Eigenstate(n, spec), 0.0, rule)
            assert expectation_x(n, spec, rule).hex() == want.hex()
            counting = CountingState(Eigenstate(n, spec))
            assert oscillator._x_mean(counting, 0.0, n, rule).hex() == want.hex()
            assert counting.calls == 1

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("n", ORDERS)
    def test_shifted_states(self, spec, n):
        states = [ShiftedState.continuous(n, gamma, spec) for gamma in (-0.8, 0.0, 0.3)]
        states += [ShiftedState.integer_branch(n - g, g, spec) for g in (1, 5)]  # gamma^2 = 1 and 5
        for state in states:
            for rule in self.exact_rules(n):
                want = two_evaluation_x_mean(state, state.x_center, rule)
                assert expectation_x_shifted(state, rule).hex() == want.hex()
                counting = CountingState(state)
                assert oscillator._x_mean(counting, state.x_center, n, rule).hex() == want.hex()
                assert counting.calls == 1


class TestHamiltonianResidual:
    def test_ground_state_small_residual(self):
        grid = Grid1D(-6.0, 6.0, 1e-3)
        assert hamiltonian_residual(0, OscillatorSpec(), grid) < 1e-5

    def test_n4_residual(self):
        grid = Grid1D(-6.0, 6.0, 1e-3)
        assert hamiltonian_residual(4, OscillatorSpec(), grid) < 1e-4

    @pytest.mark.parametrize("n", [*range(0, 7), 10, 50, 100, 200])
    def test_second_order_convergence(self, n):
        # Each halving of h divides the residual by 4: rounding, which grows
        # as 1/h^2, stays far below the O(h^2) truncation error at every order.
        spec = OscillatorSpec()
        half = max(6.0, (math.sqrt(2 * n + 1) + 6.0) / spec.z_scale)
        r = [hamiltonian_residual(n, spec, Grid1D(-half, half, h)) for h in CONVERGENCE_STEPS]
        for coarse, fine in zip(r, r[1:]):
            assert 1.9 <= math.log2(coarse / fine) <= 2.1

    @pytest.mark.parametrize(
        "state", [ShiftedState.integer_branch(-2, 3, SPEC_B), ShiftedState.continuous(100, -0.7, SPEC_B)], ids=state_id
    )
    def test_second_order_convergence_of_a_field_state(self, state):
        spec = state.spec
        half = max(6.0, (math.sqrt(2 * state.pcf_index + 1) + 6.0) / spec.z_scale) * spec.length_scale
        grids = [Grid1D(state.x_center - half, state.x_center + half, h) for h in CONVERGENCE_STEPS]
        r = [field_hamiltonian_residual(state, field_level(state), grid) for grid in grids]
        for coarse, fine in zip(r, r[1:]):
            assert 1.9 <= math.log2(coarse / fine) <= 2.1

    def test_wrong_energy_is_detected(self):
        # A shifted state with gamma = 0 is the free eigenstate, and the
        # field residual accepts an arbitrary energy candidate.
        spec = OscillatorSpec()
        state = ShiftedState(m=0, gamma=0.0, spec=spec, pcf_index=0)
        grid = Grid1D(-6.0, 6.0, 1e-3)
        residual = field_hamiltonian_residual(state, energy(0, spec) + 0.1, grid)
        assert residual >= 0.09 * PI_QUARTER
        assert residual <= 0.11 * PI_QUARTER

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            hamiltonian_residual(0, OscillatorSpec(), Grid1D(-6.0, 6.0, 0.5))

    @pytest.mark.parametrize("n", range(0, 201, 7))
    def test_free_residual_is_bit_identical_to_the_plain_expression(self, n):
        spec = OscillatorSpec()
        grid = Grid1D(-6.0, 6.0, 1e-3)
        expected = stencil_residual(Eigenstate(n, spec), energy(n, spec), 0.0, grid)
        assert hamiltonian_residual(n, spec, grid) == expected

    @pytest.mark.parametrize("spec", [OscillatorSpec(), OscillatorSpec(mu=0.7, omega=1.3, hbar=0.9)])
    def test_field_residual_is_bit_identical_to_the_plain_expression(self, spec):
        cases = [
            (ShiftedState.integer_branch(m, g2, spec), spec.hbar * spec.omega * (m + 0.5))
            for g2 in (1, 2, 5)
            for m in (-g2, 0, 3)
        ]
        cases += [
            (ShiftedState.continuous(4, gamma, spec), energy_shifted(4, gamma, spec))
            for gamma in (-0.8, 0.0, 0.3)
        ]
        for state, e in cases:
            length = spec.length_scale
            grid = Grid1D(state.x_center - 7 * length, state.x_center + 7 * length, 2e-3 * length)
            expected = stencil_residual(state, e, state.charge_field_product, grid)
            assert field_hamiltonian_residual(state, e, grid) == expected

    def test_rejects_short_grid(self):
        with pytest.raises(ValueError):
            hamiltonian_residual(0, OscillatorSpec(), Grid1D(-4.0, 6.0, 1e-3))


def scaled_ints(values):
    """Each double of ``values`` times 2**SCALE_BITS, exactly, as a Python int."""
    one = 1 << SCALE_BITS
    return [p * (one // q) for p, q in map(float.as_integer_ratio, values.tolist())]


def exact_residual(k, d, v, e, h, spec):
    """N_k max |a (d[:-2] - 2 d[1:-1] + d[2:]) + (v - e) d[1:-1]| with no rounding.

    a = -(hbar^2 / 2 mu) / h^2 is exact, from the doubles hbar, mu and h.
    Times a's and e's denominators and 2**(2 SCALE_BITS), every interior
    value is an integer, so the max is taken in integers.
    """
    a, e = -Fraction(spec.hbar) ** 2 / (2 * Fraction(spec.mu) * Fraction(h) ** 2), Fraction(e)
    dd, vv = scaled_ints(d), scaled_ints(v)
    kinetic = a.numerator * e.denominator << SCALE_BITS
    level = e.numerator << SCALE_BITS
    worst = max(
        abs(kinetic * (dd[i - 1] - 2 * dd[i] + dd[i + 1]) + a.denominator * (e.denominator * vv[i - 1] - level) * dd[i])
        for i in range(1, len(dd) - 1)
    )
    return Fraction(norm_const(k, spec)) * Fraction(worst, a.denominator * e.denominator << 2 * SCALE_BITS)


class TestResidualRounding:
    """The folded float stencil against the same stencil evaluated exactly on the same doubles.

    Its rounding error must stay within C u (|a| + max |v - e|) max |psi|,
    with C pinned: the largest ratio measured over orders 0..200 on three
    specs and two steps is 5.41 (the earlier unfolded stencil: 2.54).
    """

    C = 8.0

    def assert_within_bound(self, k, shift, spec, e, qe, grid, got):
        x = grid.points()
        d = eval_D(k, spec.z_scale * x + shift)  # the ladder's row, bit for bit
        xi = x[1:-1]
        v = xi * (0.5 * spec.mu * spec.omega**2) * xi + qe * xi  # the grid's potential, bit for bit
        a = -(spec.hbar**2 / (2.0 * spec.mu)) / (grid.h * grid.h)
        psi_max = norm_const(k, spec) * float(np.max(np.abs(d)))
        bound = self.C * U * (abs(a) + float(np.max(np.abs(v - e)))) * psi_max
        assert abs(Fraction(got) - exact_residual(k, d, v, e, grid.h, spec)) <= bound

    @pytest.mark.parametrize("n", [0, 1, 2, 6, 12, 30, 50, 75, 100, 132, 160, 200])
    @pytest.mark.parametrize("spec", [OscillatorSpec(), SPEC_B])
    def test_free_states(self, spec, n):
        length = spec.length_scale
        grid = Grid1D(-6.5 * length, 6.5 * length, 1e-3)
        got = hamiltonian_residual(n, spec, grid)
        self.assert_within_bound(n, 0.0, spec, energy(n, spec), 0.0, grid, got)

    @pytest.mark.parametrize(
        "state",
        [
            ShiftedState.integer_branch(-2, 3, SPEC_B),
            ShiftedState.integer_branch(4, 2, SPEC_B),
            ShiftedState.integer_branch(40, 5, OscillatorSpec()),
            ShiftedState.continuous(0, 0.4, SPEC_B),
            ShiftedState.continuous(30, -0.9, SPEC_B),
            ShiftedState.continuous(150, 0.7, OscillatorSpec()),
        ],
        ids=state_id,
    )
    def test_field_states(self, state):
        spec, k, e = state.spec, state.pcf_index, field_level(state)
        span = 6.5 * spec.length_scale
        grid = Grid1D(state.x_center - span, state.x_center + span, 2e-3)
        got = field_hamiltonian_residual(state, e, grid)
        self.assert_within_bound(k, 2.0 * state.gamma, spec, e, state.charge_field_product, grid, got)
