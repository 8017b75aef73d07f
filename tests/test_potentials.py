import inspect
import math

import numpy as np
import pytest

from wigprop.oracle import GaussianBasis, potential_matrix
from wigprop.potentials import (Constant, GaussianWell, Harmonic, Linear,
                                Potential, SeparableSum, parse_potential)

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


class TestSignature:
    @pytest.mark.parametrize("pot", [Potential(), *ALL_VARIANTS] + [
        parse_potential(text) for text in ("constant", "linear", "harmonic",
                                           "gaussian_well")],
                             ids=lambda pot: type(pot).__name__)
    def test_methods_take_x_alone(self, pot):
        # a potential is a function of x: time lives on the field
        for name in ("value", "grad", "d3"):
            assert list(inspect.signature(getattr(pot, name)).parameters) == ["x"]


class TestValidation:
    def test_base_class_has_no_values(self):
        for method in (Potential().value, Potential().grad, Potential().d3):
            with pytest.raises(NotImplementedError):
                method(0.0)

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

    ERRORS = {"": "empty potential", "mystery": "unknown potential 'mystery'",
              "harmonic k": "malformed potential parameter 'k'",
              "harmonic q=1": "unknown parameter 'q'",
              "harmonic k=abc": "parameter 'k' must be a number"}

    @pytest.mark.parametrize("text", list(ERRORS))
    def test_errors(self, text):
        with pytest.raises(ValueError, match=self.ERRORS[text]):
            parse_potential(text)

    @pytest.mark.parametrize("text,name", [
        ("harmonic k=nan", "k"), ("linear g=inf", "g"),
        ("gaussian_well depth=-inf", "depth"), ("constant c=NaN", "c"),
    ])
    def test_non_finite_parameter_named(self, text, name):
        with pytest.raises(ValueError, match=f"parameter '{name}' must be finite"):
            parse_potential(text)


class TestHashedByValue:
    """The propagators' memo keys hold the potential itself, so the memo is
    right only if every potential hashes, equal ones hashing equal."""

    SPECS = ["constant c=0.7", "linear g=-1.3", "harmonic k=2.0",
             "gaussian_well depth=1.0 sigma=3.0", "gaussian_well depth=0.5 sigma=1.2"]

    def test_equal_potentials_hash_equal(self):
        parsed = [parse_potential(text) for text in self.SPECS]
        pairs = list(zip(ALL_VARIANTS, parsed))
        pairs += [(cls(), parse_potential(name)) for name, cls in (
            ("constant", Constant), ("linear", Linear), ("harmonic", Harmonic),
            ("gaussian_well", GaussianWell))]
        pairs.append((SeparableSum(tuple(ALL_VARIANTS)), SeparableSum(tuple(parsed))))
        for pot, twin in pairs:
            assert twin is not pot and twin == pot and hash(twin) == hash(pot)

    def test_distinct_potentials_are_distinct_keys(self):
        # the same parameter values under another class are another key
        pots = ALL_VARIANTS + [Constant(c=-1.3), Linear(g=0.7), Harmonic(k=1.2),
                               SeparableSum(tuple(ALL_VARIANTS[:2])),
                               SeparableSum(tuple(ALL_VARIANTS[1::-1]))]
        assert len(set(pots)) == len(pots)
