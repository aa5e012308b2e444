import math
import random

import mpmath
import numpy as np
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
from paracyl import numerics
from paracyl.grids import Grid1D
from paracyl.numerics import gauss_hermite_rule, golden_section_minimize, overlap
from paracyl.oscillator import Eigenstate, OscillatorSpec, energy, expectation_x, hamiltonian_residual
from paracyl.polys import DEGREE_CAP

PI_QUARTER = math.pi ** -0.25
ONES = OscillatorSpec()


class TestGamma:
    def test_all_ones(self):
        assert gamma_of(FieldSpec(1.0, 1.0), ONES) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15, abs=0.0)

    def test_zero_charge(self):
        assert gamma_of(FieldSpec(0.0, 5.0), ONES) == 0.0

    def test_linear_in_field(self):
        assert gamma_of(FieldSpec(1.0, 2.0), ONES) == pytest.approx(math.sqrt(2.0), rel=1e-15, abs=0.0)

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

    @pytest.mark.parametrize(
        "spec",
        [
            OscillatorSpec(omega=1e120),  # omega^3 overflows
            OscillatorSpec(omega=1e-120),  # omega^3 underflows to 0
            OscillatorSpec(mu=1e300, hbar=1e10, omega=1e-2),  # the product overflows
            OscillatorSpec(omega=1e-105),  # omega^3 and the radicand are subnormal
            OscillatorSpec(mu=1e-160, hbar=1e-160, omega=1e100),  # 2 mu hbar is subnormal
        ],
    )
    def test_field_unit_out_of_range_is_rejected(self, spec):
        with pytest.raises(ValueError, match=r"sqrt\(2 mu hbar omega\^3\)"):
            gamma_of(FieldSpec(1.0, 1.0), spec)
        state = ShiftedState.continuous(0, 0.5, spec)
        with pytest.raises(ValueError, match=r"sqrt\(2 mu hbar omega\^3\)"):
            state.charge_field_product
        with pytest.raises(ValueError, match=r"sqrt\(2 mu hbar omega\^3\)"):
            state.x_center

    @pytest.mark.parametrize("omega", [1e100, 1e-100, 0.37, 2.5])
    def test_in_range_coupling_keeps_its_bits(self, omega):
        spec = OscillatorSpec(mu=1.3, omega=omega, hbar=0.7)
        unit = math.sqrt(2.0 * spec.mu * spec.hbar * spec.omega**3)
        assert gamma_of(FieldSpec(0.4, 1.1), spec) == 0.4 * 1.1 / unit
        assert ShiftedState.continuous(2, 0.8, spec).charge_field_product == 0.8 * unit


class TestEnergyShifted:
    def test_zero_field_reduces_to_free_ladder(self):
        for n in range(8):
            assert energy_shifted(n, 0.0, ONES) == energy(n, ONES)

    def test_unit_shift(self):
        assert energy_shifted(0, 1.0, ONES) == -0.5

    def test_half_shift(self):
        assert energy_shifted(2, 1.0 / math.sqrt(2.0), ONES) == pytest.approx(2.0, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n,gamma", [(3, 0.0), (0, 1e154)])
    def test_overflowing_level_is_an_error(self, n, gamma):
        spec = OscillatorSpec(omega=1e300, hbar=1e8)  # hbar omega = 1e308
        with pytest.raises(ValueError, match=f"^energy E_{n} = .* overflows"):
            energy_shifted(n, gamma, spec)


class TestEnergyShiftedType:
    @pytest.mark.parametrize("n", [2.5, 2.0, True, np.int64(2)])
    def test_a_non_int_quantum_number_is_rejected(self, n):
        with pytest.raises(TypeError, match="^order must be an int$"):
            energy_shifted(n, 0.5, ONES)


class TestShiftedStateType:
    def test_rejects_negative_pcf_index(self):
        with pytest.raises(ValueError):
            ShiftedState(m=-1, gamma=1.0, spec=ONES, pcf_index=-1)

    @pytest.mark.parametrize("field", ["m", "pcf_index"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.int64(2)])
    def test_rejects_a_non_int_label(self, field, value):
        labels = {"m": 1, "pcf_index": 1, field: value}
        with pytest.raises(TypeError, match="^order must be an int$"):
            ShiftedState(gamma=0.1, spec=ONES, **labels)

    def test_rejects_an_order_above_the_cap(self):
        message = f"^order {DEGREE_CAP + 1} exceeds the configured cap {DEGREE_CAP}$"
        with pytest.raises(ValueError, match=message):
            ShiftedState.continuous(DEGREE_CAP + 1, 0.5, ONES)
        with pytest.raises(ValueError, match=message):
            ShiftedState.integer_branch(DEGREE_CAP - 2, 3, ONES)
        with pytest.raises(ValueError, match="^order 250 exceeds"):
            ShiftedState(m=3, gamma=0.5, spec=ONES, pcf_index=250)
        assert ShiftedState.integer_branch(DEGREE_CAP - 3, 3, ONES).pcf_index == DEGREE_CAP

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
        xs = np.array([-2.1, -0.3, -0.0, 0.0, 1.7])
        for n in range(5):
            state, free = ShiftedState.continuous(n, 0.0, ONES), Eigenstate(n, ONES)
            for x in xs.tolist():
                assert state(x) == free(x)
            assert state(xs).tobytes() == free(xs).tobytes()

    def test_displaced_ground_state_peak(self):
        # z = sqrt(2) x + 2 vanishes at x = -sqrt(2)
        state = ShiftedState.continuous(0, 1.0, ONES)
        assert state(-math.sqrt(2.0)) == pytest.approx(PI_QUARTER, rel=1e-12, abs=0.0)

    def test_displaced_node(self):
        state = ShiftedState.continuous(1, 1.0, ONES)
        assert state(-math.sqrt(2.0)) == pytest.approx(0.0, abs=1e-12)


class TestExpectationXShifted:
    def test_zero_field(self):
        state = ShiftedState.continuous(0, 0.0, ONES)
        assert expectation_x_shifted(state) == 0.0

    @pytest.mark.parametrize("points", [64, 128, 256])
    @pytest.mark.parametrize("n", [0, 5, 63])
    def test_zero_shift_matches_the_free_expectation_bit_for_bit(self, n, points):
        rule = gauss_hermite_rule(points)
        shifted = expectation_x_shifted(ShiftedState.continuous(n, 0.0, ONES), rule)
        assert expectation_x(n, ONES, rule).hex() == shifted.hex()

    def test_free_expectation_needs_no_field_unit(self):
        # 2 mu hbar omega^3 underflows, so the field unit, and with it a zero-shift
        # state's x_center, is a ValueError; the free <x> never asks for it.
        spec = OscillatorSpec(1, 1e-110, 1)
        with pytest.raises(ValueError, match="field unit"):
            ShiftedState.continuous(3, 0.0, spec).x_center
        assert expectation_x(3, spec) == 0.0

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

    @pytest.mark.parametrize("g,m_max,m", [(1, 10000, 10000), (2, -2, -2)])
    def test_overflowing_level_is_an_error(self, g, m_max, m):
        # E_m = (m + 1/2) hbar omega overflows at the top (hbar omega = 1e306) or the bottom (1.5e308)
        spec = OscillatorSpec(hbar=1e306) if m > 0 else OscillatorSpec(hbar=1.5e308)
        with pytest.raises(ValueError, match=f"^energy E_{m} = .* overflows"):
            integer_branch_spectrum(g, m_max, spec)


class TestShiftedOrthonormality:
    @pytest.mark.parametrize("gamma", [1.0 / math.sqrt(2.0), 2.0])
    def test_common_shift_preserves_inner_products(self, gamma):
        states = [ShiftedState.continuous(n, gamma, ONES) for n in range(6)]
        for i in range(6):
            for j in range(i, 6):
                value = overlap(states[i], states[j], ONES.gaussian_scale)
                assert value == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def displaced_overlap(m, n, gamma):
    """<m|D(alpha)|n> with alpha = -gamma (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), in mpmath.

    For m >= n it is sqrt(n!/m!) alpha^{m-n} e^{-alpha^2/2} L_n^{(m-n)}(alpha^2);
    for m < n, <n|D(-alpha)|m>.
    """
    with mpmath.workdps(60):
        a = mpmath.mpf(-gamma)
        if m < n:
            m, n, a = n, m, -a
        ratio = mpmath.factorial(n) / mpmath.factorial(m)
        return float(mpmath.sqrt(ratio) * a ** (m - n) * mpmath.exp(-a * a / 2) * mpmath.laguerre(n, m - n, a * a))


class TestShiftedOverlapClosedForm:
    """<psi_m | psi_n^gamma> is the displacement matrix element <m|D(-gamma)|n> at every order."""

    GAMMAS = (0.5, 1.0, 2.0)

    @staticmethod
    def pairs():
        rng = random.Random(24)
        corners = [(0, 0), (0, DEGREE_CAP), (DEGREE_CAP, 0), (DEGREE_CAP, DEGREE_CAP), (120, 100), (45, 45)]
        return corners + [(rng.randint(0, DEGREE_CAP), rng.randint(0, DEGREE_CAP)) for _ in range(40)]

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_eigenstate_against_shifted_state(self, gamma):
        # Measured: 8.8e-15 over (m, n) in 0..200 by fives at these gammas.
        worst = max(
            abs(overlap(Eigenstate(m, ONES), ShiftedState.continuous(n, gamma, ONES), 1.0) - displaced_overlap(m, n, gamma))
            for m, n in self.pairs()
        )
        assert worst <= 2e-14

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_two_shifted_states_depend_only_on_their_relative_shift(self, gamma):
        worst = max(
            abs(
                overlap(ShiftedState.continuous(m, -0.5, ONES), ShiftedState.continuous(n, gamma - 0.5, ONES), 1.0)
                - displaced_overlap(m, n, gamma)
            )
            for m, n in self.pairs()[:20]
        )
        assert worst <= 2e-14

    def test_a_shifted_state_is_normalised_on_the_default_rule(self):
        state = ShiftedState.continuous(100, 0.0, ONES)
        assert overlap(state, state, 1.0) == pytest.approx(1.0, abs=2e-14)
        got = overlap(Eigenstate(120, ONES), ShiftedState.continuous(100, 1.0, ONES), 1.0)
        assert got == pytest.approx(0.21467106483554219, abs=2e-14)

    def test_an_off_centre_overlap_reads_no_stored_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a table was read about a centre other than 0")

        monkeypatch.setattr(numerics, "_table", refuse)
        value = overlap(Eigenstate(7, ONES), ShiftedState.continuous(7, 0.3, ONES), 1.0)
        assert value == pytest.approx(displaced_overlap(7, 7, 0.3), abs=2e-14)


class TestPotentialMinimum:
    def test_all_ones(self):
        x_min, e_min = potential_minimum(FieldSpec(1.0, 1.0), ONES)
        assert x_min == -1.0
        assert e_min == -0.5

    def test_zero_charge(self):
        assert potential_minimum(FieldSpec(0.0, 1.0), ONES) == (0.0, 0.0)

    @pytest.mark.parametrize("q", [1e-170, 1e-160])
    def test_subnormal_square_of_the_coupling_keeps_the_depth_digits(self, q):
        # (q E)^2 underflows to 0 (1e-170) or to a subnormal (1e-160).
        spec = OscillatorSpec(omega=1e-100)
        _, e_min = potential_minimum(FieldSpec(q, 1.0), spec)
        with mpmath.workdps(40):
            want = -(mpmath.mpf(q) ** 2) / (2 * mpmath.mpf(spec.omega) ** 2)
        assert e_min == pytest.approx(float(want), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("q, efield, omega", [(1.0, 1.0, 1.0), (-0.3, 1.7, 2.9), (1e-150, 1.0, 1e-100)])
    def test_normal_depth_keeps_its_bits(self, q, efield, omega):
        spec = OscillatorSpec(mu=1.3, omega=omega, hbar=0.7)
        qe = q * efield
        assert potential_minimum(FieldSpec(q, efield), spec)[1] == -(qe * qe) / (2.0 * spec.mu * spec.omega**2)

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
