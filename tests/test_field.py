import math
import random

import pytest

from paracyl.field import (
    FieldSpec,
    ShiftedState,
    energy_shifted,
    expectation_x_shifted,
    field_hamiltonian_residual,
    gamma_of,
    integer_branch_spectrum,
    potential_minimum,
)
from paracyl.numerics import Grid1D, gauss_hermite_rule, golden_section_minimize, overlap
from paracyl.oscillator import OscillatorSpec, energy, eval_psi, hamiltonian_residual

PI_QUARTER = math.pi ** -0.25
ONES = OscillatorSpec()


class TestGamma:
    def test_all_ones(self):
        assert gamma_of(FieldSpec(1.0, 1.0), ONES) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    def test_zero_charge(self):
        assert gamma_of(FieldSpec(0.0, 5.0), ONES) == 0.0

    def test_linear_in_field(self):
        assert gamma_of(FieldSpec(1.0, 2.0), ONES) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_sign_follows_charge(self):
        assert gamma_of(FieldSpec(-1.0, 1.0), ONES) < 0

    def test_overflowing_product_is_rejected(self):
        with pytest.raises(ValueError, match="q E"):
            FieldSpec(1e308, 1e308)
        with pytest.raises(ValueError, match="q E"):
            FieldSpec(-1e200, 1e200)

    def test_overflowing_gamma_sq_is_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            gamma_of(FieldSpec(1e200, 1e100), ONES)


class TestEnergyShifted:
    def test_zero_field_reduces_to_free_ladder(self):
        for n in range(8):
            assert energy_shifted(n, 0.0, ONES) == energy(n, ONES)

    def test_unit_shift(self):
        assert energy_shifted(0, 1.0, ONES) == -0.5

    def test_half_shift(self):
        assert energy_shifted(2, 1.0 / math.sqrt(2.0), ONES) == pytest.approx(2.0, rel=1e-15)


class TestShiftedStateType:
    def test_rejects_negative_pcf_index(self):
        with pytest.raises(ValueError):
            ShiftedState(m=-1, gamma=1.0, spec=ONES, pcf_index=-1)

    def test_integer_branch_constructor(self):
        state = ShiftedState.integer_branch(-2, 2, ONES)
        assert state.pcf_index == 0
        assert state.gamma == math.sqrt(2.0)

    def test_integer_branch_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            ShiftedState.integer_branch(-3, 2, ONES)
        with pytest.raises(ValueError):
            ShiftedState.integer_branch(0, 0, ONES)


class TestEvalPsiShifted:
    def test_zero_shift_matches_free_state(self):
        for n in range(5):
            state = ShiftedState.continuous(n, 0.0, ONES)
            for x in (-2.1, -0.3, 0.0, 1.7):
                assert state(x) == eval_psi(n, ONES, x)

    def test_displaced_ground_state_peak(self):
        # z = sqrt(2) x + 2 vanishes at x = -sqrt(2)
        state = ShiftedState.continuous(0, 1.0, ONES)
        assert state(-math.sqrt(2.0)) == pytest.approx(PI_QUARTER, rel=1e-12)

    def test_displaced_node(self):
        state = ShiftedState.continuous(1, 1.0, ONES)
        assert state(-math.sqrt(2.0)) == pytest.approx(0.0, abs=1e-12)


class TestExpectationXShifted:
    def test_zero_field(self):
        state = ShiftedState.continuous(0, 0.0, ONES)
        assert expectation_x_shifted(state) == 0.0

    def test_ground_state_displacement(self):
        gamma = gamma_of(FieldSpec(1.0, 1.0), ONES)
        state = ShiftedState.continuous(0, gamma, ONES)
        assert expectation_x_shifted(state) == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("n", range(0, 6))
    def test_displacement_is_index_independent(self, n):
        gamma = gamma_of(FieldSpec(1.0, 1.0), ONES)
        state = ShiftedState.continuous(n, gamma, ONES)
        assert expectation_x_shifted(state) == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("gamma", [-0.9, 0.5])
    @pytest.mark.parametrize(
        "points,n", [(64, n) for n in range(44, 61)] + [(128, n) for n in range(111, 117)]
    )
    def test_displacement_with_a_rule_sized_for_the_order(self, points, n, gamma):
        # Centred on x_center, the integrand is a polynomial of degree
        # 2n + 1 times the rule's Gaussian: exact for n + 1 points or more.
        state = ShiftedState.continuous(n, gamma, ONES)
        xbar = expectation_x_shifted(state, gauss_hermite_rule(points))
        assert abs(xbar + gamma * math.sqrt(2.0)) <= 1e-9

    @pytest.mark.parametrize("n", range(195, 201))
    def test_displacement_at_the_order_cap(self, n):
        gamma = gamma_of(FieldSpec(1.0, 1.0), ONES)
        state = ShiftedState.continuous(n, gamma, ONES)
        assert expectation_x_shifted(state, gauss_hermite_rule(256)) == pytest.approx(-1.0, abs=1e-9)


class TestIntegerBranchSpectrum:
    def test_gamma_sq_one(self):
        assert integer_branch_spectrum(1, 1, ONES) == [(-1, -0.5, 0), (0, 0.5, 1), (1, 1.5, 2)]

    def test_lowest_entry(self):
        assert integer_branch_spectrum(2, -2, ONES) == [(-2, -1.5, 0)]

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_matches_continuous_branch(self, g):
        gamma = math.sqrt(g)
        for _, e, idx in integer_branch_spectrum(g, g + 3, ONES):
            assert e == pytest.approx(energy_shifted(idx, gamma, ONES), abs=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            integer_branch_spectrum(0, 1, ONES)
        with pytest.raises(ValueError):
            integer_branch_spectrum(2, -3, ONES)


class TestShiftedOrthonormality:
    @pytest.mark.parametrize("gamma", [1.0 / math.sqrt(2.0), 2.0])
    def test_common_shift_preserves_inner_products(self, gamma):
        states = [ShiftedState.continuous(n, gamma, ONES) for n in range(6)]
        for i in range(6):
            for j in range(i, 6):
                value = overlap(states[i], states[j], ONES.gaussian_scale)
                assert value == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


class TestPotentialMinimum:
    def test_all_ones(self):
        x_min, e_min = potential_minimum(FieldSpec(1.0, 1.0), ONES)
        assert x_min == -1.0
        assert e_min == -0.5

    def test_zero_charge(self):
        assert potential_minimum(FieldSpec(0.0, 1.0), ONES) == (0.0, 0.0)

    def test_overflowing_depth_is_rejected(self):
        with pytest.raises(ValueError, match="minimum"):
            potential_minimum(FieldSpec(1e160, 1.0), ONES)

    def test_agrees_with_numeric_search(self):
        rng = random.Random(7)
        for _ in range(5):
            fld = FieldSpec(rng.uniform(-2, 2), rng.uniform(0.2, 2.0))
            spec = OscillatorSpec(mu=rng.uniform(0.5, 3.0), omega=rng.uniform(0.5, 3.0))
            x_min, e_min = potential_minimum(fld, spec)
            qe = fld.q * fld.efield
            x_num, e_num = golden_section_minimize(
                lambda x: 0.5 * spec.mu * spec.omega**2 * x * x + qe * x,
                x_min - 2.0,
                x_min + 2.0,
            )
            assert x_num == pytest.approx(x_min, abs=1e-8)
            assert e_num == pytest.approx(e_min, abs=1e-8)

    def test_depth_identity(self):
        rng = random.Random(11)
        for _ in range(6):
            fld = FieldSpec(rng.uniform(-2, 2), rng.uniform(0.2, 2.0))
            spec = OscillatorSpec(
                mu=rng.uniform(0.5, 3.0), omega=rng.uniform(0.5, 3.0), hbar=rng.uniform(0.5, 2.0)
            )
            gamma = gamma_of(fld, spec)
            _, e_min = potential_minimum(fld, spec)
            assert e_min == pytest.approx(-spec.hbar * spec.omega * gamma * gamma, rel=1e-13, abs=1e-15)


class TestConsistencyTriangle:
    def test_shift_equals_depth_for_every_level(self):
        fld = FieldSpec(1.0, 1.0)
        gamma = gamma_of(fld, ONES)
        _, e_min = potential_minimum(fld, ONES)
        for n in range(7):
            assert energy_shifted(n, gamma, ONES) - energy(n, ONES) == pytest.approx(
                e_min, abs=1e-14
            )


class TestFieldHamiltonianResidual:
    def test_continuous_branch_ground_state(self):
        gamma = gamma_of(FieldSpec(1.0, 1.0), ONES)
        state = ShiftedState.continuous(0, gamma, ONES)
        grid = Grid1D(state.x_center - 6.5, state.x_center + 6.5, 1e-3)
        residual = field_hamiltonian_residual(state, energy_shifted(0, gamma, ONES), grid)
        assert residual < 1e-5

    def test_integer_branch_negative_level(self):
        state = ShiftedState.integer_branch(-1, 1, ONES)
        grid = Grid1D(state.x_center - 6.5, state.x_center + 6.5, 1e-3)
        residual = field_hamiltonian_residual(state, -0.5, grid)
        assert residual < 1e-5

    def test_zero_field_reproduces_free_residual(self):
        grid = Grid1D(-6.0, 6.0, 1e-3)
        for n in range(4):
            state = ShiftedState.continuous(n, 0.0, ONES)
            assert field_hamiltonian_residual(state, energy(n, ONES), grid) == hamiltonian_residual(
                n, ONES, grid
            )

    def test_rejects_grid_missing_displaced_center(self):
        state = ShiftedState.integer_branch(-4, 4, ONES)  # center near -2.83
        with pytest.raises(ValueError):
            field_hamiltonian_residual(state, -3.5, Grid1D(-6.0, 6.0, 1e-3))
