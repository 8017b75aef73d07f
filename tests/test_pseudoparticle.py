import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wigprop import make_grid
from wigprop.phasespace import (NumericalError, WignerField,
                                diff_metrics, norm, save_field)
from wigprop.potentials import Constant, GaussianWell, Harmonic, Linear
from wigprop.pseudoparticle import (DFunctionParams, Ensemble, auto_alpha,
                                    d_function, d_p3, deposit, load_ensemble,
                                    nlo_correction, save_ensemble,
                                    stable_p3_cutoff, step_lo, stepper,
                                    to_ensemble)
from wigprop.spectral import SpectralStepConfig, step_full

GRID = make_grid(-8, 8, 256, -8, 8, 256)


def blob(grid, x0=0.0, p0=0.0, width_sq=2.0):
    x = grid.x_lattice[:, None]
    p = grid.p_lattice[None, :]
    values = 2.0 * np.exp(-((x - x0) ** 2) / width_sq - ((p - p0) ** 2) * width_sq)
    return WignerField(grid=grid, values=values)


class TestStepLo:
    def test_zero_dt_is_identity(self):
        f = blob(GRID, x0=1.0)
        out = step_lo(f, GaussianWell(), 0.0)
        np.testing.assert_allclose(out.values, f.values, atol=1e-12)

    def test_free_particle_matches_shear(self):
        f = blob(GRID, x0=1.0)
        current = f
        for _ in range(20):
            current = step_lo(current, Constant(c=0.0), 0.05)
        x = GRID.x_lattice[:, None]
        p = GRID.p_lattice[None, :]
        want = 2.0 * np.exp(-((x - p - 1.0) ** 2) / 2.0 - p**2 * 2.0)
        assert np.abs(current.values - want).max() < 1e-4

    def test_harmonic_period_returns_initial(self):
        # transport along classical trajectories is exact for the harmonic
        # well, so one period leaves only interpolation and closure error
        f = blob(GRID, x0=1.0)
        dt = 2 * np.pi / 400
        current = f
        for _ in range(400):
            current = step_lo(current, Harmonic(k=1.0), dt)
        assert np.abs(current.values - f.values).max() < 5e-3

    def test_benchmark_deviation_exceeds_spectral(self, bench):
        lo_gap = diff_metrics(bench.lo30, bench.oracle_t3).linf
        spectral_gap = diff_metrics(bench.spectral30.field, bench.oracle_t3).linf
        assert lo_gap > spectral_gap

    def test_equals_direct_spline_backtrack(self):
        # step_lo evaluates the spline through
        # phasespace.at_lattice_coordinates; the direct map_coordinates
        # call on the backtracked nodes is the reference
        from scipy.ndimage import map_coordinates
        f, pot, dt = blob(GRID, x0=1.0), GaussianWell(), 0.05
        x0 = GRID.x_lattice[:, None] - GRID.p_lattice[None, :] * dt
        p0 = GRID.p_lattice[None, :] + pot.grad(x0) * dt
        want = map_coordinates(f.values, [(x0 - GRID.x_min) / GRID.dx,
                                          (p0 - GRID.p_min) / GRID.dp],
                               order=3, mode="constant", cval=0.0)
        np.testing.assert_array_equal(step_lo(f, pot, dt).values, want)

    def test_points_off_the_grid_save_as_zero_not_minus_zero(self, tmp_path):
        # %.17g writes -0.0 as "-0"; the spline sum starts from +0.0, so no
        # node gives -0.0, not even one whose terms all round to -0.0, as
        # they do on a field of the smallest negative subnormal
        grid = make_grid(-8, 8, 32, -4, 4, 32)
        x = grid.x_lattice[:, None]
        p = grid.p_lattice[None, :]
        f = WignerField(grid=grid, values=np.full(grid.shape(), -5e-324))
        pot, dt = Linear(g=-5.0), 0.5
        out = step_lo(f, pot, dt).values
        x0 = x - p * dt
        p0 = p + pot.grad(x0) * dt
        off_x = (x0 < grid.x_min) | (x0 > grid.x_lattice[-1])
        off_p = (p0 < grid.p_min) | (p0 > grid.p_lattice[-1])
        assert (off_x & ~off_p).any() and (off_p & ~off_x).any()
        assert (out[off_x | off_p] == 0).all()
        save_field(WignerField(grid=grid, values=out), tmp_path / "f.txt")
        tokens = (tmp_path / "f.txt").read_bytes().split()
        assert b"-0" not in tokens and b"0" in tokens


class TestNloCorrection:
    def test_harmonic_correction_vanishes(self):
        f = blob(GRID, x0=0.5)
        out = nlo_correction(f, Harmonic(k=2.0), 0.1)
        np.testing.assert_array_equal(out.values, f.values)

    def test_odd_in_potential(self):
        f = blob(GRID, x0=1.0)
        plus = nlo_correction(f, GaussianWell(depth=1.0, sigma=3.0), 0.1)
        minus = nlo_correction(f, GaussianWell(depth=-1.0, sigma=3.0), 0.1)
        np.testing.assert_allclose(plus.values - f.values,
                                   -(minus.values - f.values), rtol=1e-12)

    def test_one_step_correction_tracks_spectral_residual(self, bench):
        # the correction field must point the same way as the gap between
        # the full kernel and plain transport
        dt = 0.05
        f_lo = step_lo(bench.f0, bench.pot, dt)
        corrected = nlo_correction(f_lo, bench.pot, dt)
        f_full = step_full(bench.f0, bench.pot, SpectralStepConfig(dt=dt))
        a = (corrected.values - f_lo.values).ravel()
        b = (f_full.values - f_lo.values).ravel()
        corr = a @ b / np.sqrt((a @ a) * (b @ b))
        assert corr > 0.9


class TestDp3:
    def test_gaussian_spectral_matches_analytic(self):
        p = GRID.p_lattice[None, :]
        w = 2.0  # momentum Gaussian width parameter
        f = WignerField(grid=GRID,
                        values=np.broadcast_to(np.exp(-p**2 / w), GRID.shape()))
        out = d_p3(f)
        u = 2.0 * p / w
        want = (-u**3 + 6.0 * u / w) * np.exp(-p**2 / w)
        assert np.abs(out.values - np.broadcast_to(want, GRID.shape())).max() < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(0.5, 2.0), b=st.floats(0.25, 1.0), c=st.floats(-0.5, 0.5),
           x0=st.floats(-1.5, 1.5), p0=st.floats(-1.0, 1.0))
    def test_correlated_gaussian_matches_closed_form(self, a, b, c, x0, p0):
        # f = exp(-(x - x0)^2 / a - u^2) with u = (p - p0 - c x) / sqrt(b)
        # couples x and p; d^3/dp^3 exp(-u^2) = -H_3(u) exp(-u^2) / b^(3/2),
        # H_3(u) = 8 u^3 - 12 u.  In these ranges f is below 5e-12 at the
        # p edges and its p-spectrum below 1e-68 at the Nyquist mode
        x = GRID.x_lattice[:, None]
        p = GRID.p_lattice[None, :]
        u = (p - p0 - c * x) / np.sqrt(b)
        f = np.exp(-(x - x0) ** 2 / a - u**2)
        want = -(8.0 * u**3 - 12.0 * u) * b**-1.5 * f
        got = d_p3(WignerField(grid=GRID, values=f))
        assert np.abs(got.values - want).max() < 1e-6 * np.abs(want).max()

    def test_constant_field_gives_zero(self):
        f = WignerField(grid=GRID, values=np.ones(GRID.shape()))
        assert np.abs(d_p3(f).values).max() < 1e-12

    def test_cutoff_removes_high_bands(self):
        rng = np.random.default_rng(8)
        f = WignerField(grid=GRID, values=rng.standard_normal(GRID.shape()))
        out = d_p3(f, s_cutoff=5.0)
        spec = np.fft.fft(out.values, axis=1)
        high = np.abs(GRID.s_lattice) > 5.0
        assert np.abs(spec[:, high]).max() < 1e-9 * np.abs(spec).max()


class TestDFunction:
    @pytest.mark.parametrize("alpha", [0.7, 2.0, 31.0])
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 6])
    def test_unit_integral(self, alpha, order):
        params = DFunctionParams(alpha=alpha, order=order)
        reach = 40.0 * max(1.0, np.sqrt(2 * order + 1)) / alpha
        u = np.linspace(-reach, reach, 40001)
        integral = np.trapezoid(d_function(u, params), u)
        assert integral == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.7, 2.0, 31.0])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_moments_vanish_up_to_order(self, alpha, order):
        # an order-M delta approximant: int u^k D du = 0 for 1 <= k <= 2M+1
        # (odd k by symmetry, even k by the Hermite series), which the
        # unit integral alone does not show
        params = DFunctionParams(alpha=alpha, order=order)
        reach = 40.0 * max(1.0, np.sqrt(2 * order + 1)) / alpha
        x = np.linspace(-reach, reach, 40001)
        d = d_function(x, params)
        for k in range(1, 2 * order + 2):
            moment = np.trapezoid((alpha * x) ** k * d, x)
            assert moment == pytest.approx(0.0, abs=1e-10), k

    @pytest.mark.parametrize("alpha", [0.7, 2.0, 31.0])
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 6])
    def test_matches_scipy_hermite_series(self, alpha, order):
        # the recurrence against scipy's He_n term by term: equal at order
        # 0, within a few ulps of the peak above (3.0e-16 measured)
        from scipy.special import eval_hermitenorm, factorial
        params = DFunctionParams(alpha=alpha, order=order)
        x = np.linspace(-(9 + 2 * order) / alpha, (9 + 2 * order) / alpha, 2001)
        u = alpha * x
        series = sum(eval_hermitenorm(2 * m, u) * (-1.0) ** m / (2.0 ** m * factorial(m))
                     for m in range(order + 1))
        want = alpha / np.sqrt(2.0 * np.pi) * np.exp(-u**2 / 2.0) * series
        got = d_function(x, params)
        if order == 0:
            np.testing.assert_array_equal(got, want)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_order_zero_is_unit_gaussian(self):
        alpha = 1.7
        params = DFunctionParams(alpha=alpha, order=0)
        xs = np.linspace(-3, 3, 41)
        want = (alpha / np.sqrt(2 * np.pi)) * np.exp(-(alpha * xs) ** 2 / 2.0)
        np.testing.assert_allclose(d_function(xs, params), want, rtol=1e-13)

    def test_even_in_x(self):
        params = DFunctionParams(alpha=2.0, order=3)
        xs = np.linspace(0.01, 4.0, 57)
        np.testing.assert_allclose(d_function(-xs, params), d_function(xs, params),
                                   rtol=1e-13)

    def test_peak_grows_with_order_within_parity(self):
        # D(0) = alpha / sqrt(2 pi) * sum_m C(2m, m) / 4^m: every added term
        # is positive, so the peak sharpens with each order, and in
        # particular along the even and odd subsequences
        alpha = 1.0
        peaks = [float(d_function(0.0, DFunctionParams(alpha=alpha, order=m)))
                 for m in range(9)]
        assert np.all(np.diff(peaks[0::2]) > 0)
        assert np.all(np.diff(peaks[1::2]) > 0)
        assert all(p > peaks[0] for p in peaks[1:])
        assert np.all(np.diff(peaks) > 0)

    def test_validation(self):
        for alpha in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                DFunctionParams(alpha=alpha)
        with pytest.raises(ValueError):
            DFunctionParams(alpha=1.0, order=-1)
        # sqrt((2M)!) must be a finite double: 170! is, 172! is not
        assert np.isfinite(d_function(0.5, DFunctionParams(alpha=1.0, order=85)))
        with pytest.raises(ValueError, match="0..85"):
            DFunctionParams(alpha=1.0, order=86)


class TestEnsemble:
    def test_roundtrip_weighted_volume(self, bench):
        ens = to_ensemble(bench.f0)
        assert len(ens) == bench.grid.nx * bench.grid.np
        volume = (ens.f_l * ens.dr * ens.dp).sum()
        assert volume == pytest.approx(norm(bench.f0), rel=1e-12)

    def test_zero_field(self):
        f = WignerField(grid=GRID, values=np.zeros(GRID.shape()))
        ens = to_ensemble(f)
        assert np.all(ens.f_l == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Ensemble(r=np.zeros(3), p=np.zeros(3), f_l=np.zeros(3),
                     dr=np.zeros(3), dp=np.ones(3))   # dr must be positive
        with pytest.raises(ValueError):
            Ensemble(r=np.zeros(3), p=np.zeros(2), f_l=np.zeros(3),
                     dr=np.ones(3), dp=np.ones(3))    # length mismatch

    @pytest.mark.parametrize("name", ["r", "p", "f_l", "dr", "dp"])
    def test_columns_must_be_finite_vectors(self, name):
        columns = {k: np.ones(3) for k in ("r", "p", "f_l", "dr", "dp")}
        with pytest.raises(ValueError, match=f"^{name} must be one-dimensional$"):
            Ensemble(**{**columns, name: np.ones((3, 1))})
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                Ensemble(**{**columns, name: np.array([1.0, bad, 1.0])})

    @pytest.mark.parametrize("header", ["", "ensemble 3", "# ensemble", "# field 3",
                                        "ensemble # 3", "# ensemble 3 extra"])
    def test_load_rejects_a_file_without_the_ensemble_header(self, tmp_path, header):
        path = tmp_path / "ens.txt"
        path.write_text(header + "\n1 2 3 4 5\n")
        with pytest.raises(ValueError, match="not an ensemble file$"):
            load_ensemble(path)

    @pytest.mark.parametrize("count, rows", [(2, "1 2 3 4 5\n"),
                                             (1, "1 2 3 4 5\n1 2 3 4 5\n"),
                                             (1, "1 2 3 4\n")])
    def test_load_rejects_a_row_count_the_header_does_not_give(self, tmp_path,
                                                               count, rows):
        path = tmp_path / "ens.txt"
        path.write_text(f"# ensemble {count}\n{rows}")
        with pytest.raises(ValueError, match=f"expected {count} rows of 5 columns, got"):
            load_ensemble(path)

    def test_load_reads_the_rows_of_a_zero_count(self, tmp_path):
        # the rows are read first and then compared with the count, so an
        # ensemble of particles under "# ensemble 0" is not read as empty
        path = tmp_path / "ens.txt"
        path.write_text("# ensemble 0\n1 2 3 4 5\n1 2 3 4 5\n")
        with pytest.raises(ValueError, match=r"expected 0 rows of 5 columns, "
                           r"got \(2, 5\)$"):
            load_ensemble(path)

    @pytest.mark.filterwarnings("error")
    def test_a_header_without_rows_is_refused_without_a_numpy_warning(self, tmp_path):
        path = tmp_path / "ens.txt"
        path.write_text("# ensemble 3\n")
        with pytest.raises(ValueError, match=r"expected 3 rows of 5 columns, "
                           r"got \(0, 5\)$"):
            load_ensemble(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows", ["", "1 2 3 4 5\n"])
    def test_load_refuses_a_negative_count(self, tmp_path, rows):
        path = tmp_path / "ens.txt"
        path.write_text(f"# ensemble -1\n{rows}")
        with pytest.raises(ValueError) as info:
            load_ensemble(path)
        assert str(info.value) == f"{path}: the particle count must not be negative, got -1"

    @pytest.mark.parametrize("text, message", [
        ("# ensemble two\n1 2 3 4 5\n", "invalid literal for int() with base 10: 'two'"),
        ("# ensemble 1\n1 2 x 4 5\n", "could not convert string 'x' to float64"),
    ])
    def test_load_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "ens.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_ensemble(path)
        assert str(info.value).startswith(f"{path}: {message}")

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        ens = Ensemble(r=rng.uniform(-1, 1, 9), p=rng.uniform(-1, 1, 9),
                       f_l=rng.standard_normal(9), dr=np.full(9, 0.25),
                       dp=np.full(9, 0.125))
        path = tmp_path / "ens.txt"
        save_ensemble(ens, path)
        back = load_ensemble(path)
        for name in ("r", "p", "f_l", "dr", "dp"):
            np.testing.assert_array_equal(getattr(back, name), getattr(ens, name))

    @settings(max_examples=15, deadline=None)
    @given(n=st.sampled_from([0, 1, 8191, 8192, 8193]),
           seed=st.integers(0, 2**32 - 1),
           drawn=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          max_size=16))
    def test_save_load_returns_every_bit(self, tmp_path_factory, n, seed, drawn):
        # both sides of the 8192-particle formatting block; random bit
        # patterns reach every exponent, and the format's extremes and the
        # drawn values are planted at random places in every column
        extremes = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                    -2.2250738585072014e-308, 1.7976931348623157e308,
                    -1.7976931348623157e308]
        rng = np.random.default_rng(seed)

        def column(positive):
            values = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
            values[~np.isfinite(values)] = 1.0
            planted = rng.permutation(np.array(extremes + drawn))[:n]
            values[rng.permutation(n)[:len(planted)]] = planted
            if positive:
                values = np.abs(values)
                values[values == 0.0] = 5e-324
            return values

        ens = Ensemble(r=column(False), p=column(False), f_l=column(False),
                       dr=column(True), dp=column(True))
        path = tmp_path_factory.mktemp("ensemble") / "ens.txt"
        save_ensemble(ens, path)
        back = load_ensemble(path)
        assert len(back) == n
        for name in ("r", "p", "f_l", "dr", "dp"):
            assert getattr(back, name).tobytes() == getattr(ens, name).tobytes()

    def test_save_bytes_equal_per_particle_formatting(self, tmp_path):
        # more particles than one formatting block, and the format's extremes
        rng = np.random.default_rng(8)
        n = 2 * 8192 + 5
        f_l = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        f_l[:4] = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]
        ens = Ensemble(r=rng.uniform(-9, 9, n), p=rng.uniform(-5, 5, n),
                       f_l=f_l, dr=np.full(n, 0.0625), dp=np.full(n, 1 / 3))
        path = tmp_path / "ens.txt"
        save_ensemble(ens, path)
        want = f"# ensemble {n}\n" + "".join(
            f"{ens.r[k]:.17g} {ens.p[k]:.17g} {ens.f_l[k]:.17g} "
            f"{ens.dr[k]:.17g} {ens.dp[k]:.17g}\n" for k in range(n))
        assert path.read_text() == want
        empty = Ensemble(r=np.empty(0), p=np.empty(0), f_l=np.empty(0),
                         dr=np.empty(0), dp=np.empty(0))
        save_ensemble(empty, path)
        assert path.read_text() == "# ensemble 0\n"


class TestDeposit:
    def test_single_particle_integral(self):
        # kernel wide enough (alpha * dx = 0.5) that the lattice sum equals
        # the continuum unit integral; weight w then deposits w * dr * dp
        grid = make_grid(-8, 8, 128, -8, 8, 128)
        w = 1.7
        ens = Ensemble(r=np.array([grid.x_lattice[64]]),
                       p=np.array([grid.p_lattice[64]]),
                       f_l=np.array([w]), dr=np.array([grid.dx]),
                       dp=np.array([grid.dp]))
        for order in (0, 3):
            params_r = DFunctionParams(alpha=0.5 / grid.dx, order=order)
            params_p = DFunctionParams(alpha=0.5 / grid.dp, order=order)
            f = deposit(ens, grid, params_r, params_p)
            assert norm(f) == pytest.approx(w * grid.dx * grid.dp, rel=1e-6)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_off_node_particle_keeps_moments(self, order):
        # at the default width the lattice does not resolve the kernel; the
        # deposited weights must still have unit lattice sum and vanishing
        # discrete moments 1 .. 2M+1 about a particle between nodes
        grid = make_grid(-8, 8, 64, -4, 4, 64)
        params_r = DFunctionParams(alpha=auto_alpha(grid.dx), order=order)
        params_p = DFunctionParams(alpha=auto_alpha(grid.dp), order=order)
        rng = np.random.default_rng(17)
        for r, p in zip(rng.uniform(-4, 4, 5), rng.uniform(-2, 2, 5)):
            ens = Ensemble(r=np.array([r]), p=np.array([p]), f_l=np.ones(1),
                           dr=np.array([grid.dx]), dp=np.array([grid.dp]))
            w = deposit(ens, grid, params_r, params_p).values
            tx = (grid.x_lattice[:, None] - r) / grid.dx
            tp = (grid.p_lattice[None, :] - p) / grid.dp
            assert min(np.abs(tx).min(), np.abs(tp).min()) > 1e-6
            assert w.sum() == pytest.approx(1.0, abs=1e-10)
            for k in range(1, 2 * order + 2):
                assert abs((w * tx**k).sum()) < 1e-10, ("x", k)
                assert abs((w * tp**k).sum()) < 1e-10, ("p", k)

    @pytest.mark.parametrize("alpha_cell, order", [(40.0, 1), (3.0, 3)])
    def test_too_narrow_kernel_is_a_numerical_error(self, alpha_cell, order):
        # a kernel narrower than the lattice resolves leaves too little on
        # the neighbouring nodes to carry its moments: the moment system
        # is singular (40, 1) or solves with a residual far above the
        # tolerance (3, 3)
        grid = make_grid(-8, 8, 64, -4, 4, 64)
        ens = Ensemble(r=np.array([0.1]), p=np.array([0.05]), f_l=np.ones(1),
                       dr=np.array([grid.dx]), dp=np.array([grid.dp]))
        params = DFunctionParams(alpha=alpha_cell / grid.dx, order=order)
        with pytest.raises(NumericalError, match="too narrow"):
            deposit(ens, grid, params, params)

    def test_empty_ensemble(self):
        ens = Ensemble(r=np.empty(0), p=np.empty(0), f_l=np.empty(0),
                       dr=np.empty(0), dp=np.empty(0))
        f = deposit(ens, GRID, DFunctionParams(alpha=1.0),
                    DFunctionParams(alpha=1.0))
        assert np.all(f.values == 0.0)

    def test_roundtrip_order0_smooth_field(self, bench):
        # plain Gaussian kernel at the default width: a few-percent blur
        ens = to_ensemble(bench.f0)
        params_r = DFunctionParams(alpha=auto_alpha(bench.grid.dx), order=0)
        params_p = DFunctionParams(alpha=auto_alpha(bench.grid.dp), order=0)
        f = deposit(ens, bench.grid, params_r, params_p)
        peak = np.abs(bench.f0.values).max()
        assert np.abs(f.values - bench.f0.values).max() < 0.03 * peak

    def test_deterministic(self):
        grid = make_grid(-4, 4, 32, -4, 4, 32)
        f = blob(grid, width_sq=1.0)
        ens = to_ensemble(f)
        params = DFunctionParams(alpha=auto_alpha(grid.dx), order=1)
        a = deposit(ens, grid, params, params)
        b = deposit(ens, grid, params, params)
        np.testing.assert_array_equal(a.values, b.values)


class TestEvolveNlo:
    def test_correction_improves_on_benchmark(self, bench):
        gap_lo = diff_metrics(bench.lo30, bench.oracle_t3)
        gap_nlo = diff_metrics(bench.nlo30, bench.oracle_t3)
        assert gap_nlo.l2 < gap_lo.l2
        assert gap_nlo.linf < gap_lo.linf

    def test_stability_cutoff_value(self, bench):
        cutoff = stable_p3_cutoff(bench.grid, bench.pot, 0.1)
        assert 5.0 < cutoff < np.abs(bench.grid.s_lattice).max()

    def test_harmonic_cutoff_is_full_band(self):
        cutoff = stable_p3_cutoff(GRID, Harmonic(k=1.0), 0.1)
        assert cutoff == np.abs(GRID.s_lattice).max()

    @settings(max_examples=60, deadline=None)
    @given(dt=st.one_of(st.just(0.0), st.just(-0.0), st.floats(-2.0, 2.0)))
    def test_cutoff_depends_on_the_step_size_alone(self, dt):
        # step_lo and nlo_correction take steps of either sign, and so does
        # the nlo stepper: the cutoff is finite, at most the band's edge
        # and the same for dt and -dt
        grid = make_grid(-8, 8, 64, -8, 8, 64)
        well = GaussianWell()
        s_max = float(np.abs(grid.s_lattice).max())
        cutoff = stable_p3_cutoff(grid, well, dt)
        assert math.isfinite(cutoff) and 0.0 < cutoff <= s_max
        assert cutoff == stable_p3_cutoff(grid, well, abs(dt))
        if dt == 0.0:
            assert cutoff == s_max
        f = blob(grid)
        stepped = stepper(grid, well, dt, order=1)(f)
        assert stepped.values.shape == f.values.shape
        assert np.isfinite(stepped.values).all()

    def test_invalid_order(self, bench):
        with pytest.raises(ValueError):
            stepper(bench.grid, bench.pot, 0.1, order=2)

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("mass", [0.0, -1.0, math.nan, math.inf, 1e-310])
    def test_invalid_mass_names_the_mass(self, order, mass):
        # at 1e-310, dt / mass overflows and no point can be backtracked
        with pytest.raises(ValueError, match="^mass must be positive and finite, "
                           "with dt / mass finite"):
            stepper(GRID, GaussianWell(), 0.1, order=order, mass=mass)


class TestLinearPotentialExactness:
    def test_transport_matches_uniformly_accelerated_flow(self):
        # constant force: both propagators carry values along the exact
        # characteristics up to the O(g T dt / 2) splitting offset, which
        # must halve when dt does
        from wigprop.potentials import Linear
        from wigprop.spectral import SpectralStepConfig, step_full

        g = GRID
        x = g.x_lattice[:, None]
        p = g.p_lattice[None, :]
        f0 = blob(g, x0=0.0)
        grav, horizon = 0.5, 1.0
        want = 2.0 * np.exp(-((x - p * horizon - grav * horizon**2 / 2) ** 2) / 2.0
                            - ((p + grav * horizon) ** 2) * 2.0)
        gaps = {}
        for nsteps in (100, 200):
            dt = horizon / nsteps
            cfg = SpectralStepConfig(dt=dt)
            cur_s, cur_l = f0, f0
            for _ in range(nsteps):
                cur_s = step_full(cur_s, Linear(g=grav), cfg)
                cur_l = step_lo(cur_l, Linear(g=grav), dt)
            gaps[nsteps] = (np.abs(cur_s.values - want).max(),
                            np.abs(cur_l.values - want).max())
        assert gaps[200][0] < 2.5e-3 and gaps[200][1] < 2.5e-3
        for idx in (0, 1):
            ratio = gaps[100][idx] / gaps[200][idx]
            assert 1.8 < ratio < 2.2


class TestDepositRefinement:
    def test_roundtrip_error_shrinks_with_cell_size(self):
        # fixed smooth field, plain Gaussian one cell wide (alpha = 1/cell):
        # the blur of an order-0 kernel is O(sigma^2) = O(cell^2), so
        # refining the lattice shrinks the error ~4x.  The narrower default
        # alpha = 2/cell (sigma = half a cell) is not resolved by the
        # lattice, but deposit keeps its unit lattice sum and first moment
        # there too, so it refines the same way without an aliasing floor.
        errors = []
        for n in (64, 128, 256):
            grid = make_grid(-8, 8, n, -8, 8, n)
            f = blob(grid, x0=0.5, width_sq=3.0)
            ens = to_ensemble(f)
            params_r = DFunctionParams(alpha=1.0 / grid.dx, order=0)
            params_p = DFunctionParams(alpha=1.0 / grid.dp, order=0)
            back = deposit(ens, grid, params_r, params_p)
            errors.append(float(np.abs(back.values - f.values).max()) / 2.0)
        assert errors[0] > errors[1] > errors[2]
        assert errors[1] / errors[2] > 3.0
        assert errors[2] < 0.02
