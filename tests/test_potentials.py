import math

import numpy as np
import pytest

from wigprop.oracle import GaussianBasis, potential_matrix
from wigprop.potentials import (Constant, GaussianWell, Harmonic, Linear,
                                SeparableSum, parse_potential)

ALL_VARIANTS = [Constant(c=0.7), Linear(g=-1.3), Harmonic(k=2.0),
                GaussianWell(depth=1.0, sigma=3.0),
                GaussianWell(depth=0.5, sigma=1.2)]


def fd_grad(pot, x, h=1e-3):
    return (pot.value(x + h) - pot.value(x - h)) / (2 * h)


def fd_d3(pot, x, h=1e-3):
    return (pot.value(x + 2 * h) - 2 * pot.value(x + h)
            + 2 * pot.value(x - h) - pot.value(x - 2 * h)) / (2 * h**3)


class TestValues:
    def test_gaussian_well_center_and_tail(self):
        w = GaussianWell(depth=1.0, sigma=3.0)
        assert w.value(0.0) == pytest.approx(-1.0, abs=0)
        assert abs(w.value(1e3)) < 1e-300 or w.value(1e3) == 0.0

    def test_harmonic(self):
        assert Harmonic(k=1.0).value(2.0) == pytest.approx(2.0, abs=0)

    def test_constant_and_linear(self):
        assert Constant(c=0.25).value(123.0) == 0.25
        assert Linear(g=2.0).value(-1.5) == -3.0


class TestGrad:
    def test_gaussian_well_symmetry_point(self):
        assert GaussianWell(depth=1.0, sigma=3.0).grad(0.0) == 0.0

    def test_harmonic_linear_force(self):
        k = 1.7
        xs = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(Harmonic(k=k).grad(xs), k * xs, rtol=1e-15)

    def test_gaussian_well_spot_value(self):
        # d/dx of -exp(-x^2/18) at x=3: (1/3) exp(-1/2)
        w = GaussianWell(depth=1.0, sigma=3.0)
        assert w.grad(3.0) == pytest.approx(np.exp(-0.5) / 3.0, rel=1e-14)
        assert w.grad(3.0) == pytest.approx(0.20217689, abs=1e-8)


class TestThirdDerivative:
    def test_zero_for_polynomial_variants(self):
        xs = np.linspace(-5, 5, 11)
        for pot in (Constant(c=1.0), Linear(g=2.0), Harmonic(k=3.0)):
            assert np.all(pot.d3(xs) == 0.0)

    def test_gaussian_well_odd_at_origin(self):
        assert GaussianWell(depth=1.0, sigma=3.0).d3(0.0) == 0.0

    def test_gaussian_well_vs_finite_difference_of_grad(self):
        w = GaussianWell(depth=1.0, sigma=3.0)
        h = 1e-3
        # 5-point second derivative of grad gives the third derivative of V
        x = 1.0
        fd = (-w.grad(x + 2 * h) + 16 * w.grad(x + h) - 30 * w.grad(x)
              + 16 * w.grad(x - h) - w.grad(x - 2 * h)) / (12 * h**2)
        assert w.d3(x) == pytest.approx(fd, abs=1e-6)


class TestDerivativeConsistency:
    """Centered differences of value must reproduce grad and d3."""

    @pytest.mark.parametrize("pot", ALL_VARIANTS, ids=lambda p: type(p).__name__)
    def test_grad_consistent(self, pot):
        rng = np.random.default_rng(2)
        for x in rng.uniform(-4, 4, size=12):
            want = pot.grad(x)
            assert fd_grad(pot, x) == pytest.approx(
                want, rel=1e-5, abs=1e-5 * max(1.0, abs(want)))

    @pytest.mark.parametrize("pot", ALL_VARIANTS, ids=lambda p: type(p).__name__)
    def test_d3_consistent(self, pot):
        rng = np.random.default_rng(4)
        for x in rng.uniform(-4, 4, size=12):
            want = pot.d3(x)
            assert fd_d3(pot, x) == pytest.approx(
                want, rel=1e-5, abs=1e-5 * max(1.0, abs(want)))


class TestParity:
    def test_gaussian_well_even_odd_structure(self):
        w = GaussianWell(depth=0.8, sigma=2.0)
        xs = np.linspace(0.1, 6.0, 25)
        np.testing.assert_allclose(w.value(-xs), w.value(xs), rtol=1e-15)
        np.testing.assert_allclose(w.grad(-xs), -w.grad(xs), rtol=1e-15)
        np.testing.assert_allclose(w.d3(-xs), -w.d3(xs), rtol=1e-15)


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            GaussianWell(depth=1.0, sigma=0.0)
        with pytest.raises(ValueError):
            Harmonic(k=-1.0)

    @pytest.mark.parametrize("sigma", [1e52, 1e60, 1e200, 1e-52, 1e-200,
                                       5e-324, -3.0, math.nan, math.inf])
    def test_sigma_needs_finite_normal_powers(self, sigma):
        # sigma^2, sigma^4 and sigma^6 are divided by; as Python floats
        # they raise OverflowError past 1e308 and underflow to 0 below
        for build in (lambda: GaussianWell(sigma=sigma),
                      lambda: potential_matrix(GaussianBasis(), sigma)):
            with pytest.raises(ValueError, match="sigma"):
                build()

    @pytest.mark.parametrize("sigma", [2e51, 1e-51])
    def test_sigma_with_normal_powers_accepted(self, sigma):
        GaussianWell(sigma=sigma)
        assert np.isfinite(potential_matrix(GaussianBasis(), sigma)).all()


class TestParse:
    def test_variants(self):
        assert parse_potential("gaussian_well depth=1.0 sigma=3.0") == \
            GaussianWell(depth=1.0, sigma=3.0)
        assert parse_potential("harmonic k=2.5") == Harmonic(k=2.5)
        assert parse_potential("linear g=0.5") == Linear(g=0.5)
        assert parse_potential("constant c=-1") == Constant(c=-1.0)

    def test_defaults_fill_in(self):
        assert parse_potential("gaussian_well") == GaussianWell(depth=1.0, sigma=3.0)

    @pytest.mark.parametrize("text", [
        "", "mystery", "harmonic k", "harmonic q=1", "harmonic k=abc",
    ])
    def test_errors(self, text):
        with pytest.raises(ValueError):
            parse_potential(text)

    @pytest.mark.parametrize("text,name", [
        ("harmonic k=nan", "k"), ("linear g=inf", "g"),
        ("gaussian_well depth=-inf", "depth"), ("constant c=NaN", "c"),
    ])
    def test_non_finite_parameter_named(self, text, name):
        with pytest.raises(ValueError, match=f"parameter '{name}' must be finite"):
            parse_potential(text)


class TestMultiDimensional:
    def test_separable_sum(self):
        pot = SeparableSum(terms=(Harmonic(k=1.0), Harmonic(k=1.0)))
        x1 = np.array([1.0, 2.0])[:, None]
        x2 = np.array([0.0, 3.0])[None, :]
        got = pot.value_nd([x1, x2])
        want = 0.5 * x1**2 + 0.5 * x2**2
        np.testing.assert_allclose(got, want, rtol=1e-15)
