import math
import random

import pytest
import sympy

from paracyl.polys import (
    DEGREE_CAP,
    PolyZ,
    ZERO,
    hermite_recurrence,
    hermite_rodrigues,
    poly_derivative,
    poly_eval,
)
from paracyl.pcf import pcf_poly, pcf_rodrigues_poly


def hermite_by_repeated_differentiation(n):
    """Independent oracle: (-1)^n e^{t^2} d^n/dt^n e^{-t^2} via sympy."""
    t = sympy.symbols("t")
    expr = sympy.expand((-1) ** n * sympy.exp(t**2) * sympy.diff(sympy.exp(-(t**2)), t, n))
    poly = sympy.Poly(expr, t)
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


class TestPolyZ:
    def test_trailing_zeros_stripped(self):
        assert PolyZ((1, 2, 0, 0)).coeffs == (1, 2)

    def test_zero_polynomial(self):
        assert PolyZ((0, 0)).is_zero()
        assert PolyZ(()).degree == -1

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(TypeError):
            PolyZ((1.5, 2))

    def test_degree_and_leading(self):
        p = PolyZ((-2, 0, 4))
        assert p.degree == 2
        assert p.leading_coefficient == 4


class TestPolyEval:
    def test_zero_polynomial_is_empty_sum(self):
        assert poly_eval(ZERO, 7.0) == 0.0

    def test_h2_at_origin(self):
        assert poly_eval(PolyZ((-2, 0, 4)), 0) == -2

    def test_h1_at_three(self):
        assert poly_eval(PolyZ((0, 2)), 3) == 6

    def test_exact_for_integer_arguments(self):
        p = PolyZ((1, -3, 0, 5))
        assert poly_eval(p, 10) == 1 - 30 + 5000


class TestPolyDerivative:
    def test_square(self):
        assert poly_derivative(PolyZ((0, 0, 1))).coeffs == (0, 2)

    def test_constant(self):
        assert poly_derivative(PolyZ((5,))).is_zero()

    def test_h3(self):
        assert poly_derivative(PolyZ((0, -12, 0, 8))).coeffs == (-12, 0, 24)

    def test_matches_central_difference(self):
        # Sampled integer polynomials; tolerance is relative to the size of
        # the derivative over the window, since p' passes through zeros.
        rng = random.Random(20240817)
        ts = [(-3.0 + 0.25 * i) for i in range(25)]
        h = 1e-5
        for _ in range(20):
            deg = rng.randint(1, 10)
            p = PolyZ(tuple(rng.randint(-9, 9) for _ in range(deg)) + (rng.randint(1, 9),))
            dp = poly_derivative(p)
            scale = max(1.0, max(abs(poly_eval(dp, t)) for t in ts))
            for t in ts:
                fd = (poly_eval(p, t + h) - poly_eval(p, t - h)) / (2 * h)
                assert abs(fd - poly_eval(dp, t)) <= 1e-6 * scale


class TestHermiteRecurrence:
    def test_base_case(self):
        assert hermite_recurrence(0).coeffs == (1,)

    def test_h2(self):
        assert hermite_recurrence(2).coeffs == (-2, 0, 4)

    def test_h3(self):
        assert hermite_recurrence(3).coeffs == (0, -12, 0, 8)

    @pytest.mark.parametrize("n", range(0, 51))
    def test_degree_leading_parity(self, n):
        h = hermite_recurrence(n)
        assert h.degree == n
        assert h.leading_coefficient == 2**n
        assert all(c == 0 for k, c in enumerate(h.coeffs) if (n - k) % 2)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            hermite_recurrence(-1)

    def test_rejects_order_beyond_cap(self):
        # The cap is DEGREE_CAP for every constructor, with no knob to raise it.
        for build in (hermite_recurrence, hermite_rodrigues, pcf_poly, pcf_rodrigues_poly):
            with pytest.raises(TypeError):
                build(3, cap=DEGREE_CAP + 1)
            with pytest.raises(ValueError, match=f"^order {DEGREE_CAP + 1} exceeds the configured cap {DEGREE_CAP}$"):
                build(DEGREE_CAP + 1)


class TestHermiteRodrigues:
    def test_base_case(self):
        assert hermite_rodrigues(0).coeffs == (1,)

    def test_h1(self):
        assert hermite_rodrigues(1).coeffs == (0, 2)

    def test_h4(self):
        assert hermite_rodrigues(4).coeffs == (12, 0, -48, 0, 16)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_against_symbolic_differentiation(self, n):
        assert hermite_rodrigues(n).coeffs == hermite_by_repeated_differentiation(n)

    @pytest.mark.parametrize("n", range(0, 51))
    def test_identical_to_recurrence(self, n):
        assert hermite_rodrigues(n) == hermite_recurrence(n)

    def test_rejects_order_beyond_cap(self):
        with pytest.raises(ValueError):
            hermite_rodrigues(DEGREE_CAP + 1)
