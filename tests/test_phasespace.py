import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wigprop import (diff_metrics, interpolate, load_field, make_grid,
                     marginal_x, norm, save_field)
from wigprop.oracle import (GaussianBasis, eigen_wavefunction, sample_field,
                            solve, superposition, wavefunction)
from wigprop.phasespace import (DEFAULT_GRID_SPEC, PhaseSpaceGridND, WignerField,
                                WignerFieldND)

DEFAULT_GRID = make_grid(*DEFAULT_GRID_SPEC)


def gaussian_field(grid, x0=0.0, p0=0.0, x_width_sq=4.0, p_width_sq=1.0, amp=1.0):
    x = grid.x_lattice[:, None]
    p = grid.p_lattice[None, :]
    values = amp * np.exp(-((x - x0) ** 2) / x_width_sq - ((p - p0) ** 2) / p_width_sq)
    return WignerField(grid=grid, values=values, time=0.0)


class TestMakeGrid:
    def test_spacings(self):
        g = make_grid(-8, 8, 256, -4, 4, 256)
        assert g.dx == pytest.approx(0.0625, abs=0)
        assert g.dp == pytest.approx(0.03125, abs=0)

    def test_conjugate_lattice(self):
        g = make_grid(-8, 8, 256, -4, 4, 256)
        assert g.ds == pytest.approx(2 * np.pi / 8, rel=1e-15)
        assert g.s_max == pytest.approx(np.pi / 0.03125 * (1 - 2 / 256), rel=1e-15)
        assert g.s_lattice.max() == pytest.approx(g.s_max, rel=1e-15)
        # FFT ordering: k = 0 first, Nyquist at index np/2
        assert g.s_lattice[0] == 0.0
        assert g.s_lattice[128] == pytest.approx(-np.pi / 0.03125, rel=1e-15)

    @pytest.mark.parametrize("args", [
        (0, 1, 3, 0, 1, 4),       # nx not a power of two
        (0, 1, 4, 0, 1, 6),       # np not a power of two
        (0, 1, 2, 0, 1, 4),       # nx below minimum
        (1, 0, 4, 0, 1, 4),       # reversed x bounds
        (0, 1, 4, 1, 1, 4),       # degenerate p bounds
        (0, np.inf, 4, 0, 1, 4),  # non-finite bound
    ])
    def test_rejects_bad_input(self, args):
        with pytest.raises(ValueError):
            make_grid(*args)


class TestNorm:
    def test_zero_field(self):
        f = WignerField(grid=DEFAULT_GRID, values=np.zeros(DEFAULT_GRID.shape()))
        assert norm(f) == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(DEFAULT_GRID.shape())
        f = WignerField(grid=DEFAULT_GRID, values=values)
        for alpha in (2.0, -0.37, 1e3):
            scaled = WignerField(grid=DEFAULT_GRID, values=alpha * values)
            assert norm(scaled) == pytest.approx(alpha * norm(f), rel=1e-12)

    def test_ground_state_norm_is_2pi(self):
        solution = solve(GaussianBasis(), 3.0)
        state = superposition(solution, 1.0)
        f = sample_field(state, 0.0, DEFAULT_GRID)
        assert norm(f) == pytest.approx(2 * np.pi, abs=1e-4)


class TestMarginal:
    def test_zero_field(self):
        f = WignerField(grid=DEFAULT_GRID, values=np.zeros(DEFAULT_GRID.shape()))
        assert np.all(marginal_x(f) == 0.0)

    def test_ground_state_density(self):
        solution = solve(GaussianBasis(), 3.0)
        state = superposition(solution, 1.0)
        f = sample_field(state, 0.0, DEFAULT_GRID)
        rho = marginal_x(f)
        psi0 = eigen_wavefunction(solution, 0, DEFAULT_GRID.x_lattice)
        np.testing.assert_allclose(rho, psi0**2, atol=1e-4)
        # even state; the lattice includes -x_max but not +x_max, so the
        # mirror of node k is node nx - k
        np.testing.assert_allclose(rho[1:], rho[:0:-1], atol=1e-12)

    def test_superposition_density_matches_wavefunction(self):
        solution = solve(GaussianBasis(), 3.0)
        state = superposition(solution, 1.0, 1.0)
        f = sample_field(state, 0.0, DEFAULT_GRID)
        phi = wavefunction(state, 0.0, DEFAULT_GRID.x_lattice)
        assert np.abs(marginal_x(f) - np.abs(phi) ** 2).max() < 1e-4


class TestInterpolate:
    def test_reproduces_nodes(self):
        rng = np.random.default_rng(3)
        g = make_grid(-2, 2, 16, -2, 2, 16)
        f = WignerField(grid=g, values=rng.standard_normal(g.shape()))
        for i, j in ((0, 0), (5, 11), (15, 15), (8, 3)):
            got = interpolate(f, g.x_lattice[i], g.p_lattice[j])
            assert got == pytest.approx(f.values[i, j], rel=1e-12, abs=1e-12)

    def test_out_of_bounds_is_zero(self):
        f = gaussian_field(DEFAULT_GRID)
        assert interpolate(f, 9.5, 0.0) == 0.0
        assert interpolate(f, 0.0, -5.0) == 0.0

    def test_midpoint_accuracy_on_gaussian(self):
        f = gaussian_field(DEFAULT_GRID, x_width_sq=4.0, p_width_sq=1.0, amp=2.0)
        g = DEFAULT_GRID
        xm = g.x_lattice[60:190] + g.dx / 2
        pm = g.p_lattice[100:150] + g.dp / 2
        got = interpolate(f, xm[:, None], pm[None, :])
        want = 2.0 * np.exp(-xm[:, None] ** 2 / 4.0 - pm[None, :] ** 2)
        assert np.abs(got - want).max() < 1e-6


class TestDiffMetrics:
    def test_identical_fields(self):
        f = gaussian_field(DEFAULT_GRID)
        m = diff_metrics(f, f)
        assert m.l2 == 0.0 and m.linf == 0.0

    def test_constant_offset(self):
        f = gaussian_field(DEFAULT_GRID)
        g = WignerField(grid=DEFAULT_GRID, values=f.values + 1.0)
        m = diff_metrics(f, g)
        assert m.linf == pytest.approx(1.0, rel=1e-12)
        area = (DEFAULT_GRID.x_max - DEFAULT_GRID.x_min) * \
               (DEFAULT_GRID.p_max - DEFAULT_GRID.p_min)
        assert m.l2 == pytest.approx(np.sqrt(area), rel=1e-12)

    def test_linf_location(self):
        f = gaussian_field(DEFAULT_GRID)
        bumped = f.values.copy()
        bumped[100, 37] += 5.0
        m = diff_metrics(f, WignerField(grid=DEFAULT_GRID, values=bumped))
        assert m.linf_location == (DEFAULT_GRID.x_lattice[100],
                                   DEFAULT_GRID.p_lattice[37])

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        g = make_grid(-1, 1, 16, -1, 1, 16)
        for _ in range(20):
            a, b, c = (WignerField(grid=g, values=rng.standard_normal(g.shape()))
                       for _ in range(3))
            ab, bc, ac = diff_metrics(a, b), diff_metrics(b, c), diff_metrics(a, c)
            assert ac.l2 <= ab.l2 + bc.l2 + 1e-12
            assert ac.linf <= ab.linf + bc.linf + 1e-12

    def test_grid_mismatch_rejected(self):
        f = gaussian_field(DEFAULT_GRID)
        other = gaussian_field(make_grid(-8, 8, 128, -4, 4, 128))
        with pytest.raises(ValueError):
            diff_metrics(f, other)


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        g = make_grid(-3, 5, 32, -2, 2, 16)
        f = WignerField(grid=g, values=rng.standard_normal(g.shape()), time=1.25)
        path = tmp_path / "field.txt"
        save_field(f, path)
        back = load_field(path)
        assert back.grid == g
        assert back.time == f.time
        np.testing.assert_array_equal(back.values, f.values)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), nx=st.sampled_from([4, 32, 64, 128]),
           n_p=st.sampled_from([4, 16]),
           time=st.floats(allow_nan=False, allow_infinity=False))
    def test_bytes_equal_per_value_formatting(self, tmp_path_factory, data,
                                              nx, n_p, time):
        values = data.draw(arrays(np.float64, (nx, n_p), elements=st.floats(
            allow_nan=False, allow_infinity=False)))
        # the extremes of the format, wherever the draw put its values
        values.ravel()[:6] = [-0.0, 5e-324, -2.2250738585072014e-308,
                              1.7976931348623157e308, 0.1, -1e-300]
        g = make_grid(-3, 5, nx, -2, 2, n_p)
        f = WignerField(grid=g, values=values, time=time)
        path = tmp_path_factory.mktemp("field") / "field.txt"
        save_field(f, path)
        # the one-value-at-a-time writer is the reference
        want = (f"# wignerfield {nx} {n_p} {g.x_min:.17g} {g.x_max:.17g} "
                f"{g.p_min:.17g} {g.p_max:.17g} {time:.17g}\n"
                + "".join(" ".join(f"{v:.17g}" for v in row) + "\n"
                          for row in f.values))
        assert path.read_text() == want
        assert load_field(path).values.tobytes() == f.values.tobytes()

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a field\n")
        with pytest.raises(ValueError):
            load_field(path)


class TestWignerFieldValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            WignerField(grid=DEFAULT_GRID, values=np.zeros((4, 4)))

    def test_non_finite(self):
        values = np.zeros(DEFAULT_GRID.shape())
        values[0, 0] = np.nan
        with pytest.raises(ValueError):
            WignerField(grid=DEFAULT_GRID, values=values)

    @pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf])
    def test_non_finite_time(self, time):
        axis = make_grid(-1, 1, 4, -1, 1, 4)
        grid_nd = PhaseSpaceGridND(axes=(axis, axis))
        with pytest.raises(ValueError, match="time must be finite"):
            WignerField(grid=axis, values=np.zeros(axis.shape()), time=time)
        with pytest.raises(ValueError, match="time must be finite"):
            WignerFieldND(grid=grid_nd, values=np.zeros(grid_nd.shape()), time=time)
