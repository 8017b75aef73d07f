import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wigprop import make_grid, spectral
from wigprop.phasespace import (PhaseSpaceGridND, StepDiagnostics, WignerField,
                                WignerFieldND, diff_metrics, evolve, norm,
                                norm_nd, step_size)
from wigprop.potentials import (Constant, GaussianWell, Harmonic, Linear,
                                SeparableSum)
from wigprop.spectral import (SpectralStepConfig, _drift_values, _kick_values,
                              drift, kick_full, step_first_order, step_full,
                              step_separable)

GRID = make_grid(-8, 8, 256, -8, 8, 256)
STEPS = {"full": step_full, "first_order": step_first_order}


def run(stepper, f, pot, cfg, nsteps):
    """``phasespace.evolve`` of nsteps steps of ``stepper``."""
    return evolve(lambda f: stepper(f, pot, cfg), f, nsteps)


def blob(grid, x0=0.0, p0=0.0, width_sq=2.0):
    x = grid.x_lattice[:, None]
    p = grid.p_lattice[None, :]
    values = 2.0 * np.exp(-((x - x0) ** 2) / width_sq - ((p - p0) ** 2) * width_sq)
    return WignerField(grid=grid, values=values)


class TestDrift:
    def test_zero_dt_is_identity(self):
        f = blob(GRID, x0=1.0)
        out = drift(f, 0.0)
        np.testing.assert_allclose(out.values, f.values, atol=1e-14)

    def test_zero_momentum_row_unchanged(self):
        f = blob(GRID, x0=1.0)
        j0 = int(np.argmin(np.abs(GRID.p_lattice)))
        assert GRID.p_lattice[j0] == 0.0
        out = drift(f, 0.7)
        np.testing.assert_allclose(out.values[:, j0], f.values[:, j0], atol=1e-13)

    def test_blob_shifts_by_row_momentum(self):
        f = blob(GRID, x0=0.0, p0=1.0)
        out = drift(f, 0.5)
        # x-marginal peak of the p0 = 1 blob moves to p0 * dt
        density = out.values.sum(axis=1)
        assert abs(GRID.x_lattice[int(np.argmax(density))] - 0.5) <= GRID.dx

    def test_matches_analytic_shear(self):
        # centered blob so the periodic wrap stays below the tolerance
        f = blob(GRID, x0=0.0)
        out = drift(f, 0.5)
        x = GRID.x_lattice[:, None]
        p = GRID.p_lattice[None, :]
        want = 2.0 * np.exp(-((x - p * 0.5) ** 2) / 2.0 - p**2 * 2.0)
        assert np.abs(out.values - want).max() < 1e-10


class TestKick:
    def test_constant_potential_is_identity(self):
        f = blob(GRID)
        out = kick_full(f, Constant(c=5.0), 0.3)
        np.testing.assert_allclose(out.values, f.values, atol=1e-13)

    def test_linear_potential_is_momentum_shift(self):
        # dV(x, s) = g s exactly, so the kick translates p by -g dt
        g, dt = 0.8, 0.25
        f = blob(GRID)
        out = kick_full(f, Linear(g=g), dt)
        x = GRID.x_lattice[:, None]
        p = GRID.p_lattice[None, :]
        want = 2.0 * np.exp(-x**2 / 2.0 - ((p + g * dt) ** 2) * 2.0)
        assert np.abs(out.values - want).max() < 1e-10

    def test_momentum_marginal_invariant(self, bench):
        kicked = kick_full(bench.f0, bench.pot, 0.1)
        before = bench.f0.values.sum(axis=1)
        after = kicked.values.sum(axis=1)
        scale = np.abs(before).max()
        assert np.abs(after - before).max() < 1e-12 * scale

    def test_output_is_real_array(self, bench):
        out = kick_full(bench.f0, bench.pot, 0.1)
        assert out.values.dtype == np.float64


class TestStepFull:
    def test_free_particle_matches_analytic_shear(self):
        # 10 steps against the closed-form sheared Gaussian
        f = blob(GRID, x0=1.0)
        cfg = SpectralStepConfig(dt=0.05)
        current = f
        for _ in range(10):
            current = step_full(current, Constant(c=0.0), cfg)
        x = GRID.x_lattice[:, None]
        p = GRID.p_lattice[None, :]
        want = 2.0 * np.exp(-((x - p * 0.5 - 1.0) ** 2) / 2.0 - p**2 * 2.0)
        assert np.abs(current.values - want).max() < 1e-8
        assert current.time == pytest.approx(0.5, rel=1e-12)

    def test_harmonic_period_returns_initial(self):
        # rigid rotation: one full period at k = m = 1 restores the field
        f = blob(GRID, x0=1.0)
        cfg = SpectralStepConfig(dt=2 * np.pi / 200)
        current = f
        for _ in range(200):
            current = step_full(current, Harmonic(k=1.0), cfg)
        assert np.abs(current.values - f.values).max() < 1e-3

    def test_norm_conserved_each_step(self, bench):
        norm0 = norm(bench.f0)
        for d in bench.spectral30.diagnostics:
            assert abs(d.norm - norm0) <= 1e-10 * abs(norm0)


class TestStepFirstOrder:
    def test_constant_potential_equals_pure_drift(self):
        f = blob(GRID, x0=0.5)
        cfg = SpectralStepConfig(dt=0.1)
        out = step_first_order(f, Constant(c=2.0), cfg)
        want = drift(f, 0.1)
        np.testing.assert_allclose(out.values, want.values, atol=1e-13)

    def test_one_step_truncation_is_second_order(self, bench):
        # halving dt must quarter the gap to the full kernel
        gaps = []
        for dt in (0.1, 0.05):
            cfg = SpectralStepConfig(dt=dt)
            full = step_full(bench.f0, bench.pot, cfg)
            fo = step_first_order(bench.f0, bench.pot, cfg)
            gaps.append(np.abs(full.values - fo.values).max())
        ratio = gaps[0] / gaps[1]
        assert 3.5 < ratio < 4.5

    def test_long_run_stays_close_to_full_variant(self, bench):
        # 300 first-order steps must land within 1.5x of the 30-step full
        # variant's distance from the reference solution
        res = run(step_first_order, bench.f0, bench.pot, SpectralStepConfig(dt=0.01), 300)
        gap_fo = diff_metrics(res.field, bench.oracle_t3).linf
        gap_full = diff_metrics(bench.spectral30.field, bench.oracle_t3).linf
        assert gap_fo <= 1.5 * gap_full


class TestKernelEquivalence:
    def test_fft_kick_matches_direct_cosine_sine_quadrature(self):
        # independent route: build the dense momentum kernel from explicit
        # cosine and sine sums over the same s-lattice and apply it per row
        grid = make_grid(-6, 6, 32, -4, 4, 32)
        pot = GaussianWell(depth=1.0, sigma=2.0)
        dt = 0.15
        rng = np.random.default_rng(12)
        f = WignerField(grid=grid, values=rng.standard_normal(grid.shape()))

        got = kick_full(f, pot, dt).values

        s = grid.s_lattice
        p = grid.p_lattice
        dp_mat = p[:, None] - p[None, :]
        want = np.empty(grid.shape())
        for i, xv in enumerate(grid.x_lattice):
            delta_v = pot.value(xv - s / 2.0) - pot.value(xv + s / 2.0)
            kernel = (np.cos(np.outer(dp_mat.ravel(), s)) @ np.cos(delta_v * dt)
                      + np.sin(np.outer(dp_mat.ravel(), s)) @ np.sin(delta_v * dt))
            kernel = kernel.reshape(dp_mat.shape) / grid.np
            want[i] = kernel @ f.values[i]
        assert np.abs(got - want).max() < 1e-10


class TestEvolve:
    def test_single_step_matches_step_full(self, bench):
        cfg = SpectralStepConfig(dt=0.1)
        res = run(step_full, bench.f0, bench.pot, cfg, 1)
        direct = step_full(bench.f0, bench.pot, cfg)
        np.testing.assert_array_equal(res.field.values, direct.values)

    def test_diagnostics_rows(self, bench):
        assert len(bench.spectral30.diagnostics) == 30
        d = bench.spectral30.diagnostics[-1]
        assert isinstance(d, StepDiagnostics)
        assert d.time == pytest.approx(3.0, rel=1e-12)
        assert d.min < 0 < d.max

    def test_no_warnings_for_contained_field(self, bench):
        assert bench.spectral30.warnings == []

    def test_invalid_arguments(self):
        # a run's step is checked before it starts
        with pytest.raises(ValueError):
            step_size(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            step_size(1.0, 0.5, 5)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(dt=0.0), dict(dt=-0.1), dict(dt=0.1, mass=0.0),
        dict(dt=float("nan")), dict(dt=0.1, mass=float("nan")),
        dict(dt=math.inf), dict(dt=0.1, mass=math.inf), dict(dt=0.1, mass=1e-310),
    ])
    def test_rejected(self, kwargs):
        # the message names the field at fault; an infinite one would
        # otherwise fail only at the step, as a non-finite field
        name = "mass" if "mass" in kwargs else "dt"
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            SpectralStepConfig(**kwargs)


def grid_nd_square(n=32, half=8.0):
    axis = make_grid(-half, half, n, -half, half, n)
    return PhaseSpaceGridND(axes=(axis, axis))


def blob_nd(grid_nd, x0=(1.0, 0.0), width_sq=1.62):
    # equal x and p widths above the joint resolution limit of the coarse
    # lattice (a minimum-uncertainty Gaussian cannot be band-limited in
    # both axes at 32 points over (-8, 8))
    g1, g2 = grid_nd.axes
    x1 = g1.x_lattice[:, None, None, None]
    x2 = g2.x_lattice[None, :, None, None]
    p1 = g1.p_lattice[None, None, :, None]
    p2 = g2.p_lattice[None, None, None, :]
    values = 4.0 * np.exp(-((x1 - x0[0]) ** 2 + (x2 - x0[1]) ** 2
                            + p1**2 + p2**2) / width_sq)
    return WignerFieldND(grid=grid_nd, values=values)


@dataclass(frozen=True)
class RadialWell:
    """A potential given on all axes at once (``value_nd``), whose terms
    couple the axes; not a ``SeparableSum``."""

    def value_nd(self, coords):
        return -np.exp(-sum(np.asarray(c) ** 2 for c in coords) / 8.0)


class TestStepSeparable:
    def test_constant_potential_is_identity(self):
        f = blob_nd(grid_nd_square())
        pot = SeparableSum(terms=(Constant(c=1.0), Constant(c=1.0)))
        out = step_separable(f, pot, 0.0, SpectralStepConfig(dt=1e-9))
        np.testing.assert_allclose(out.values, f.values, atol=1e-9)

    def test_2d_harmonic_period_returns_initial(self):
        f = blob_nd(grid_nd_square())
        pot = SeparableSum(terms=(Harmonic(k=1.0), Harmonic(k=1.0)))
        cfg = SpectralStepConfig(dt=2 * np.pi / 100)
        current = f
        for k in range(100):
            current = step_separable(current, pot, k * cfg.dt, cfg)
        assert np.abs(current.values - f.values).max() < 1e-2

    def test_time_argument_is_ignored(self, monkeypatch):
        # t stays in the signature for positional callers; each call
        # builds its kick afresh, and every t gives step_full's bits
        f = blob_nd(grid_nd_square())
        pot = SeparableSum(terms=(Harmonic(k=1.0), GaussianWell(depth=1.0, sigma=2.0)))
        cfg = SpectralStepConfig(dt=0.1)
        outs = []
        for t in (0.0, 7.5):
            monkeypatch.setattr(spectral, "_MEMO", {})
            outs.append(step_separable(f, pot, t, cfg))
        want = step_full(f, pot, cfg)
        for out in outs:
            assert out.values.tobytes() == want.values.tobytes()
            assert out.time == want.time

    def test_one_dimension_rejected(self):
        axis = make_grid(-8, 8, 32, -8, 8, 32)
        grid_1d = PhaseSpaceGridND(axes=(axis,))
        values = np.zeros(grid_1d.shape())
        f = WignerFieldND(grid=grid_1d, values=values)
        pot = SeparableSum(terms=(Constant(c=0.0),))
        with pytest.raises(ValueError):
            step_separable(f, pot, 0.0, SpectralStepConfig(dt=0.1))

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_dimensional_sub_steps_reject_nd_fields(self, d):
        # the kick of a 1-d potential would push along p_1 only, so on an
        # N-d field kick_full refuses it rather than drop the other forces
        axis = make_grid(-6, 6, 8, -6, 6, 8)
        grid = PhaseSpaceGridND(axes=(axis,) * d)
        f = WignerFieldND(grid=grid, values=np.ones(grid.shape()))
        with pytest.raises(ValueError, match=f"{d}-d lattice .* SeparableSum"):
            kick_full(f, GaussianWell(), 0.1)
        # the step itself leaves a p-constant field of a static sum unchanged
        pot = SeparableSum(terms=(Harmonic(k=1.0), GaussianWell(),
                                  Linear(g=0.5))[:d])
        kicked = step_full(f, pot, SpectralStepConfig(dt=0.1))
        np.testing.assert_allclose(kicked.values, f.values, atol=1e-12)

    def test_term_count_must_match_axes(self):
        # a spare term would be ignored, and a missing one would leave
        # its axis without a force
        axis = make_grid(-6, 6, 4, -6, 6, 4)
        cfg = SpectralStepConfig(dt=0.1)
        for d, nterms in ((2, 3), (3, 1)):
            grid = PhaseSpaceGridND(axes=(axis,) * d)
            f = WignerFieldND(grid=grid, values=np.ones(grid.shape()))
            pot = SeparableSum(terms=(Harmonic(k=1.0),) * nterms)
            with pytest.raises(ValueError, match=f"{nterms} terms .* {d}-d"):
                step_separable(f, pot, 0.0, cfg)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("pot", [GaussianWell(depth=1.0, sigma=2.0),
                                     RadialWell()], ids=["1-d", "value_nd"])
    def test_only_a_separable_sum_acts_on_nd_lattices(self, d, pot):
        # on-axis kicks would drop the cross terms of any other potential
        axis = make_grid(-6, 6, 4, -6, 6, 4)
        grid = PhaseSpaceGridND(axes=(axis,) * d)
        f = WignerFieldND(grid=grid, values=np.ones(grid.shape()))
        cfg = SpectralStepConfig(dt=0.1)
        for stepper in (step_full, step_first_order,
                        lambda f, pot, cfg: step_separable(f, pot, 0.0, cfg)):
            with pytest.raises(ValueError, match=f"{d}-d lattice .* SeparableSum"):
                stepper(f, pot, cfg)

    def test_a_potential_that_cannot_kick_raises_before_the_drift(self, monkeypatch):
        drifts = []

        def recording(*args):
            drifts.append(args)
            return _drift_values(*args)

        monkeypatch.setattr(spectral, "_drift_values", recording)
        axis = make_grid(-6, 6, 4, -6, 6, 4)
        grid = PhaseSpaceGridND(axes=(axis, axis))
        f = WignerFieldND(grid=grid, values=np.ones(grid.shape()))
        with pytest.raises(ValueError, match="2-d lattice .* SeparableSum"):
            step_full(f, GaussianWell(depth=1.0, sigma=2.0),
                      SpectralStepConfig(dt=0.1))
        assert drifts == []
        step_full(f, SeparableSum((Harmonic(k=1.0),) * 2), SpectralStepConfig(dt=0.1))
        assert len(drifts) == 1

    def test_one_term_sum_on_one_axis_steps_as_its_term(self):
        f = blob(make_grid(-6, 6, 32, -5, 5, 32), x0=0.5)
        well = GaussianWell(depth=1.0, sigma=2.0)
        pot = SeparableSum(terms=(well,))
        cfg = SpectralStepConfig(dt=0.1)
        for stepper in (step_full, step_first_order):
            assert np.array_equal(stepper(f, pot, cfg).values,
                                  stepper(f, well, cfg).values)
        assert np.array_equal(kick_full(f, pot, 0.1).values,
                              kick_full(f, well, 0.1).values)


class TestStepSeparable3D:
    @pytest.mark.parametrize("variant", ["full", "first_order"])
    def test_3d_factorizes_into_1d_steps(self, variant):
        # separable potential + product initial data: the 3-d sweep must
        # equal the outer product of 1-d steps of the same variant exactly,
        # which pins the axis indexing without any resolution requirement
        axis = make_grid(-6, 6, 8, -6, 6, 8)
        grid_3d = PhaseSpaceGridND(axes=(axis, axis, axis))
        rng = np.random.default_rng(21)
        parts = [WignerField(grid=axis, values=rng.standard_normal(axis.shape()))
                 for _ in range(3)]
        pots = (Harmonic(k=1.0), Linear(g=0.5), GaussianWell(depth=1.0, sigma=2.0))

        values = np.einsum("ad,be,cf->abcdef", *(p.values for p in parts))
        f3 = WignerFieldND(grid=grid_3d, values=values)
        pot3 = SeparableSum(terms=pots)
        cfg = SpectralStepConfig(dt=0.07)
        stepper = STEPS[variant]
        norm0 = norm_nd(f3)
        for _ in range(3):
            f3 = stepper(f3, pot3, cfg)
            parts = [stepper(p, pots[j], cfg)
                     for j, p in enumerate(parts)]
        want = np.einsum("ad,be,cf->abcdef", *(p.values for p in parts))
        np.testing.assert_allclose(f3.values, want, atol=1e-12)
        assert norm_nd(f3) == pytest.approx(norm0, rel=1e-10)


def random_field_nd(d, n, seed=5):
    axis = make_grid(-6, 6, n, -5, 5, n)
    grid = PhaseSpaceGridND(axes=(axis,) * d)
    values = np.random.default_rng(seed).random(grid.shape())
    return WignerFieldND(grid=grid, values=values)


# the second sum has one well on every axis, as the benchmark steps it;
# its kick phase is bounded, unlike that of a harmonic or linear term
ND_POTENTIALS = {
    2: [SeparableSum((Harmonic(k=1.0), GaussianWell(depth=1.0, sigma=2.0))),
        SeparableSum((GaussianWell(depth=1.0, sigma=2.0),) * 2)],
    3: [SeparableSum((Linear(g=0.5), Harmonic(k=1.0), GaussianWell(depth=1.0, sigma=2.0))),
        SeparableSum((GaussianWell(depth=1.0, sigma=2.0),) * 3)],
}


class TestStepAnyDimension:
    """``step_full`` and ``step_first_order`` take 2-d/3-d fields through
    the body of ``step_separable``, the drift and then the kick of their
    variant, and ``phasespace.evolve`` runs them."""

    @pytest.mark.parametrize("variant", ["full", "first_order"])
    @pytest.mark.parametrize("d, n, which", [(2, 16, 0), (2, 16, 1), (3, 8, 0), (3, 8, 1)])
    def test_step_and_evolve_equal_step_separable(self, d, n, which, variant):
        f = random_field_nd(d, n)
        pot = ND_POTENTIALS[d][which]
        cfg = SpectralStepConfig(dt=0.1)

        def body(values):
            drifted = _drift_values(values, f.grid, cfg.dt, cfg.mass)
            return _kick_values(drifted, f.grid, pot, cfg.dt, variant)

        got = STEPS[variant](f, pot, cfg)
        assert np.array_equal(got.values, body(f.values))
        assert got.time == f.time + cfg.dt
        if variant == "full":
            assert np.array_equal(step_separable(f, pot, 0.3, cfg).values, got.values)

        res = run(STEPS[variant], f, pot, cfg, 3)
        want = f.values
        for _ in range(3):
            want = body(want)
        assert np.array_equal(res.field.values, want)
        assert len(res.diagnostics) == 3

    def test_one_axis_product_grid_steps_as_its_axis(self):
        axis = make_grid(-6, 6, 32, -5, 5, 32)
        f = random_field_nd(1, 32)
        pot, cfg = GaussianWell(depth=1.0, sigma=2.0), SpectralStepConfig(dt=0.1)
        for stepper in (step_full, step_first_order):
            got = stepper(f, pot, cfg)
            want = stepper(WignerField(grid=axis, values=f.values), pot, cfg)
            assert got.grid == f.grid and np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_variants_differ_by_the_kick_truncation(self, d, n):
        f = random_field_nd(d, n)
        pot = ND_POTENTIALS[d][1]

        def gap(dt):
            cfg = SpectralStepConfig(dt=dt)
            full = step_full(f, pot, cfg).values
            first = step_first_order(f, pot, cfg).values
            return np.abs(full - first).max() / np.abs(full).max()
        # the first-order kernel drops terms of order (dt dV)^2, so halving
        # dt quarters the gap
        assert 0 < gap(0.05) < 1e-3
        assert gap(0.025) / gap(0.05) == pytest.approx(0.25, rel=0.2)


# ---------------------------------------------------------------------------
# time reversal: the inverse sub-steps in reverse order undo a full step
# ---------------------------------------------------------------------------

POTENTIALS_1D = st.one_of(
    st.builds(Constant, c=st.floats(-5.0, 5.0)),
    st.builds(Linear, g=st.floats(-3.0, 3.0)),
    st.builds(Harmonic, k=st.floats(0.0, 4.0)),
    st.builds(GaussianWell, depth=st.floats(-2.0, 2.0), sigma=st.floats(0.5, 5.0)))


@st.composite
def reversible_cases(draw):
    """A sum of Gaussians contained in the grid with no content at either
    Nyquist bin (3 to 6 cells wide, at least 9 widths from every edge),
    and a dt small enough that the drifted field has none along p either:
    the Nyquist multipliers are kept at their real parts, so they are not
    unimodular and would not invert."""
    half_x, half_p = draw(st.floats(4.0, 12.0)), draw(st.floats(2.0, 8.0))
    grid = make_grid(-half_x, half_x, draw(st.sampled_from([128, 256])),
                     -half_p, half_p, draw(st.sampled_from([128, 256])))
    x = grid.x_lattice[:, None]
    p = grid.p_lattice[None, :]
    values = np.zeros(grid.shape())
    widths = []
    for _ in range(draw(st.integers(1, 3))):
        sx = draw(st.floats(3.0, 6.0)) * grid.dx
        sp = draw(st.floats(4.0, 6.0)) * grid.dp
        x0 = draw(st.floats(-1.0, 1.0)) * (half_x - 9 * sx)
        p0 = draw(st.floats(-1.0, 1.0)) * (half_p - 9 * sp)
        amp = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 2.0))
        values += amp * np.exp(
            -(x - x0) ** 2 / (2 * sx**2) - (p - p0) ** 2 / (2 * sp**2))
        widths.append(sx)
    mass = draw(st.floats(0.2, 5.0))
    # with dt / m <= sx / (4 dp), each drifted Gaussian is at least about
    # 2.8 cells wide along p at every x
    dt = draw(st.floats(0.01, 1.0)) * min(0.5, mass * min(widths) / (4 * grid.dp))
    cfg = SpectralStepConfig(dt=dt, mass=mass)
    return WignerField(grid=grid, values=values), draw(POTENTIALS_1D), cfg


@settings(max_examples=60, deadline=None, database=None)
@given(reversible_cases())
def test_step_full_is_time_reversible(case):
    f, pot, cfg = case
    forward = step_full(f, pot, cfg)
    back = drift(kick_full(forward, pot, -cfg.dt), -cfg.dt, cfg.mass)
    scale = np.abs(f.values).max()
    assert np.abs(back.values - f.values).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# a step is its drift sub-step followed by its kick sub-step
# ---------------------------------------------------------------------------

@st.composite
def composition_cases(draw):
    """A random field on a 1-, 2- or 3-d lattice of 4 or 8 points per axis,
    the 1-d potential or a separable sum of one term per axis, and a step
    config."""
    d = draw(st.integers(1, 3))
    axes = tuple(make_grid(-draw(st.floats(2.0, 8.0)), draw(st.floats(2.0, 8.0)),
                           draw(st.sampled_from([4, 8])),
                           -draw(st.floats(1.0, 6.0)), draw(st.floats(1.0, 6.0)),
                           draw(st.sampled_from([4, 8])))
                 for _ in range(d))
    grid = axes[0] if d == 1 else PhaseSpaceGridND(axes)
    seed = draw(st.integers(0, 2**32 - 1))
    f = WignerField(grid=grid, values=np.random.default_rng(seed).standard_normal(
        grid.shape()))
    terms = tuple(draw(POTENTIALS_1D) for _ in range(d))
    pot = terms[0] if d == 1 else SeparableSum(terms)
    cfg = SpectralStepConfig(dt=draw(st.floats(0.01, 0.5)),
                             mass=draw(st.floats(0.2, 5.0)))
    return f, pot, cfg


@settings(max_examples=60, deadline=None, database=None)
@given(composition_cases())
def test_sub_steps_compose_to_the_step_on_every_dimension(case):
    f, pot, cfg = case
    before = f.values.copy()
    # the kicks of the compositions read read-only drifted values, and
    # those of the steps reuse the writable array their drift returns
    composed = kick_full(drift(f, cfg.dt, cfg.mass), pot, cfg.dt)
    assert np.array_equal(composed.values, step_full(f, pot, cfg).values)
    drifted = _drift_values(f.values, f.grid, cfg.dt, cfg.mass)
    drifted.setflags(write=False)
    composed = _kick_values(drifted, f.grid, pot, cfg.dt, "first_order")
    assert np.array_equal(composed, step_first_order(f, pot, cfg).values)
    assert np.array_equal(f.values, before)
