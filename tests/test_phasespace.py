import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wigprop import (diff_metrics, interpolate, load_field, make_grid,
                     marginal_x, norm, save_field)
from wigprop import _format17, phasespace
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
        (-1e308, 1e308, 4, 0, 1, 4),  # finite bounds, dx overflows
        (0, 1, 4, -1e308, 1e308, 4),  # finite bounds, dp overflows
        (0, 1, 4, 0, 5e-324, 4),  # dp underflows to 0
        (0, 1, 4, 0, 1e-310, 4),  # dp subnormal, ds overflows
        (0, 1, 2**1100, 0, 1, 4),  # a power of two no double holds
        (0, 1, 2**62, 0, 1, 4),   # 2^64 values, more than one array holds
    ])
    def test_rejects_bad_input(self, args):
        with pytest.raises(ValueError):
            make_grid(*args)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["x_min", "x_max", "p_min", "p_max"])
    def test_non_finite_bound_is_named(self, name, bad):
        bounds = {"x_min": -1.0, "x_max": 1.0, "p_min": -1.0, "p_max": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make_grid(bounds["x_min"], bounds["x_max"], 4,
                      bounds["p_min"], bounds["p_max"], 4)

    @pytest.mark.parametrize("d", [0, 4])
    def test_product_grid_takes_one_to_three_axes(self, d):
        with pytest.raises(ValueError, match="only 1, 2 or 3 spatial dimensions"):
            PhaseSpaceGridND((make_grid(0, 1, 4, 0, 1, 4),) * d)

    def test_rejects_a_product_lattice_too_big_for_one_array(self):
        # the grids allocate nothing: their lattices are built on first use
        axis = make_grid(0, 1, 2**20, 0, 1, 2**20)
        assert PhaseSpaceGridND((axis,)).shape() == (2**20, 2**20)
        with pytest.raises(ValueError, match="float64 array can hold"):
            PhaseSpaceGridND((axis, axis))

    def test_one_axis_interface(self):
        # a 1-d grid is the one-axis case of PhaseSpaceGridND
        g = make_grid(-8, 8, 16, -4, 4, 8)
        assert g.ndim == PhaseSpaceGridND((g,)).ndim == 1
        assert g.axes == PhaseSpaceGridND((g,)).axes == (g,)
        assert g.shape() == PhaseSpaceGridND((g,)).shape()


class TestNorm:
    def test_one_norm_for_every_dimension(self):
        assert WignerFieldND is WignerField and phasespace.norm_nd is norm
        axis = make_grid(-8, 8, 16, -4, 4, 8)
        rng = np.random.default_rng(3)
        a, b = rng.random(axis.shape()), rng.random(axis.shape())
        field_2d = WignerField(grid=PhaseSpaceGridND((axis, axis)),
                               values=np.einsum("ac,bd->abcd", a, b))
        want = norm(WignerField(grid=axis, values=a)) * norm(WignerField(grid=axis, values=b))
        assert norm(field_2d) == pytest.approx(want, rel=1e-13)
        # on one axis it is (sum * dx) * dp, in that order
        assert norm(WignerField(grid=axis, values=a)) == float(a.sum() * axis.dx * axis.dp)

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
        # a lattice of the same shape over other bounds is another grid too
        f = gaussian_field(DEFAULT_GRID)
        for grid in (make_grid(-8, 8, 128, -4, 4, 128),
                     make_grid(-7, 7, DEFAULT_GRID.nx, -4, 4, DEFAULT_GRID.np)):
            with pytest.raises(ValueError, match="different grids"):
                diff_metrics(f, gaussian_field(grid))


class TestOneDimensionalHelpers:
    """diff_metrics, marginal_x and save_field read one (x, p) axis."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_nd_fields_rejected(self, d, tmp_path):
        axis = make_grid(-2, 2, 4, -2, 2, 4)
        f = WignerFieldND(grid=PhaseSpaceGridND((axis,) * d),
                          values=np.ones((4,) * (2 * d)))
        path = tmp_path / "f.txt"
        for name, call in (("diff_metrics", lambda: diff_metrics(f, f)),
                           ("marginal_x", lambda: marginal_x(f)),
                           ("save_field", lambda: save_field(f, path))):
            with pytest.raises(ValueError, match=f"{name} .* {d}-d"):
                call()
        assert not path.exists()

    def test_one_axis_product_grid_is_its_axis(self, tmp_path):
        f = gaussian_field(make_grid(-3, 3, 16, -2, 2, 8), x0=0.5)
        f1 = WignerFieldND(grid=PhaseSpaceGridND((f.grid,)), values=f.values)
        assert diff_metrics(f1, f1) == diff_metrics(f, f)
        np.testing.assert_array_equal(marginal_x(f1), marginal_x(f))
        save_field(f1, tmp_path / "a.txt")
        save_field(f, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


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
        for header in ("not a field", "# ensemble 4 0 1 0 1 0 0", "# wignerfield 4 4"):
            path.write_text(header + "\n")
            with pytest.raises(ValueError, match="not a wignerfield file"):
                load_field(path)

    def test_rejects_a_value_count_the_header_does_not_give(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("# wignerfield 4 4 -1 1 -1 1 0\n" + "0 0 0 0\n" * 3)
        with pytest.raises(ValueError, match="expected 4x4 values, got"):
            load_field(path)

    @pytest.mark.filterwarnings("error")
    def test_a_header_without_rows_is_refused_without_a_numpy_warning(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# wignerfield 4 4 0 1 0 1 0\n")
        with pytest.raises(ValueError, match=r"expected 4x4 values, got \(0, 1\)$"):
            load_field(path)


def per_value(table):
    """The reference bytes of ``write_rows``: each value through
    ``f"{v:.17g}"``, one at a time."""
    return "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in table)


def written(table):
    out = io.StringIO()
    phasespace.write_rows(out, table)
    return out.getvalue()


def powers_of_ten_and_neighbours(lo, hi):
    """10**k (correctly rounded) and the doubles on either side of it."""
    return [v for k in range(lo, hi + 1) for v in (
        np.nextafter(float(f"1e{k}"), 0.0), float(f"1e{k}"),
        np.nextafter(float(f"1e{k}"), np.inf))]


class TestWriteRows:
    """The vectorized ``%.17g`` kernel against per-value formatting."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 600))
    def test_equals_per_value_formatting(self, data, rows, cols):
        table = data.draw(arrays(np.float64, (rows, cols), elements=st.floats()))
        assert written(table) == per_value(table)

    def test_random_bit_patterns_across_kernel_calls(self):
        # 60,000 values: several kernel calls, every class of double
        bits = np.random.default_rng(11).integers(
            0, 2**64, size=(100, 600), dtype=np.uint64, endpoint=False)
        table = bits.view(np.float64)
        assert table.size > 3 * _format17.BLOCK
        assert written(table) == per_value(table)

    @pytest.mark.parametrize("values", [
        # signed zeros, subnormals, the smallest normal, the largest double
        [0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
         1.7976931348623157e308],
        # the switches between fixed and scientific notation
        [1e-5, 1e-4, 1e16, 1e17, 99999999999999984.0, 9.9999999999999995e-5],
        # rounding ties at the 17th digit
        [1000000000000000.25, 4503599627370495.5],
        # integers, and values with their point inside the digits
        [10.0, 123456.0, 100.5, 12345678901234567.0, 0.5, 9.5, 0.1],
    ])
    def test_fixed_cases(self, values):
        table = np.array([values, [-v for v in values]])
        assert written(table) == per_value(table)

    def test_powers_of_ten_and_their_neighbours(self):
        values = powers_of_ten_and_neighbours(-300, 300)
        table = np.array([values, [-v for v in values]]).reshape(-1, 6)
        assert written(table) == per_value(table)

    def test_each_fallback_route_fires(self, monkeypatch):
        ties = [1000000000000000.25, -1000000000000000.25]
        out_of_range = [1e-300, -1e300, 5e-324, 2.2250738585072014e-308,
                        np.nan, np.inf, -np.inf]
        decided = [0.0, -0.0, 1.0, 0.1, 1e-280, 1e280, 123.25, -1e-16,
                   4503599627370495.5]
        x = np.array(decided + ties + out_of_range)
        _, slow = _format17.format_records(x)
        assert slow.tolist() == list(range(len(decided), len(x)))
        assert written(x[None]) == per_value(x[None])
        # a decade guess two off is not settled by the one correction the
        # kernel makes: those values go to % as well
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + 2.0)
        values = np.array([0.5, 3.0, 1e-16, 2e200])
        _, slow = _format17.format_records(values)
        assert slow.tolist() == [0, 1, 2, 3]
        assert written(values[None]) == per_value(values[None])


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
