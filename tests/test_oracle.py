import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from wigprop import make_grid
from wigprop.oracle import (N_MAX_SOLVABLE, ConditioningError, GaussianBasis,
                            SuperpositionState,
                            basis_coefficients, eigen_wavefunction,
                            kinetic_matrix, numeric_wigner, overlap_matrix,
                            potential_matrix, sample_field, solve,
                            superposition, wavefunction, wigner_at,
                            wigner_basis, wigner_dp3_at)
from wigprop.phasespace import diff_metrics, norm

SIGMA = 3.0


def psi(basis, n, x):
    b2 = basis.betas_sq[n - 1]
    return np.exp(-x**2 / (2 * b2)) / np.sqrt(np.sqrt(np.pi) * basis.betas[n - 1])


def quad_overlap(basis, n, m):
    return quad(lambda x: psi(basis, n, x) * psi(basis, m, x), -80, 80,
                epsabs=1e-13, epsrel=1e-13, limit=200)[0]


def quad_kinetic(basis, n, m):
    # -psi_m''/2 = psi_m (1/b - x^2/b^2)/2 with b = beta_m^2
    b = basis.betas_sq[m - 1]
    return quad(lambda x: psi(basis, n, x) * 0.5 * (1.0 / b - x**2 / b**2)
                * psi(basis, m, x), -80, 80, epsabs=1e-13, epsrel=1e-13,
                limit=200)[0]


def quad_potential(basis, n, m, sigma):
    return quad(lambda x: -psi(basis, n, x) * psi(basis, m, x)
                * np.exp(-x**2 / (2 * sigma**2)), -80, 80,
                epsabs=1e-13, epsrel=1e-13, limit=200)[0]


class TestMatrixElements:
    def test_overlap_diagonal_is_one(self):
        b = overlap_matrix(GaussianBasis())
        np.testing.assert_allclose(np.diag(b), 1.0, rtol=1e-15)

    def test_overlap_12(self):
        b = overlap_matrix(GaussianBasis(beta0_sq=1.0))
        assert b[0, 1] == pytest.approx(np.sqrt(2 * np.sqrt(2) / 3), rel=1e-14)
        assert b[0, 1] == pytest.approx(0.97098, abs=5e-6)

    def test_kinetic_diagonal(self):
        basis = GaussianBasis()
        t = kinetic_matrix(basis)
        np.testing.assert_allclose(np.diag(t), 1.0 / (4.0 * basis.betas_sq),
                                   rtol=1e-15)

    def test_kinetic_12(self):
        t = kinetic_matrix(GaussianBasis(beta0_sq=1.0))
        assert t[0, 1] == pytest.approx(0.97098 / 6.0, abs=1e-5)

    def test_kinetic_all_positive(self):
        assert (kinetic_matrix(GaussianBasis(n_max=10)) > 0).all()

    def test_potential_diagonal_value(self):
        v = potential_matrix(GaussianBasis(beta0_sq=1.0), SIGMA)
        assert v[0, 0] == pytest.approx(-np.sqrt(9.0 / 9.5), rel=1e-14)

    def test_potential_flat_well_limit(self):
        basis = GaussianBasis(n_max=6)
        v = potential_matrix(basis, 1e8)
        np.testing.assert_allclose(v, -overlap_matrix(basis), rtol=1e-8)

    def test_all_negative_and_symmetric(self):
        basis = GaussianBasis(n_max=12)
        v = potential_matrix(basis, SIGMA)
        assert (v < 0).all()
        np.testing.assert_allclose(v, v.T, rtol=1e-15)

    def test_elements_match_quadrature_to_1e8(self):
        # matrix formulas vs direct integrals, full 20x20 set
        basis = GaussianBasis(n_max=20)
        b = overlap_matrix(basis)
        t = kinetic_matrix(basis)
        v = potential_matrix(basis, SIGMA)
        worst = 0.0
        for n in range(1, basis.n_max + 1):
            for m in range(n, basis.n_max + 1):
                for got, ref in ((b[n - 1, m - 1], quad_overlap(basis, n, m)),
                                 (t[n - 1, m - 1], quad_kinetic(basis, n, m)),
                                 (v[n - 1, m - 1], quad_potential(basis, n, m, SIGMA))):
                    worst = max(worst, abs(got - ref) / abs(ref))
        assert worst < 1e-8


class TestSolve:
    def test_benchmark_energies(self):
        solution = solve(GaussianBasis(), SIGMA)
        assert solution.energies[0] == pytest.approx(-0.844, abs=0.002)
        assert solution.energies[1] == pytest.approx(-0.312, abs=0.002)

    def test_energies_ascending_and_residuals_small(self):
        solution = solve(GaussianBasis(), SIGMA)
        assert np.all(np.diff(solution.energies) > 0)
        assert solution.residuals.max() < 1e-8

    def test_normalization(self):
        # a^T B a involves cancellations of order |a|^2 ~ 1/min_pivot for the
        # top states, so the quadratic form itself is only reproducible to
        # eps/min_pivot there; the physical low states are exact
        solution = solve(GaussianBasis(), SIGMA)
        for lam in (0, 1):
            a = solution.coeffs[lam]
            assert a @ solution.overlap @ a == pytest.approx(1.0, abs=1e-10)
        for lam in range(2, solution.n_states):
            a = solution.coeffs[lam]
            assert a @ solution.overlap @ a == pytest.approx(1.0, abs=1e-3)

    def test_against_lapack(self):
        # the low-lying states are well conditioned and must agree tightly;
        # the top of the spectrum is limited by the overlap conditioning in
        # any algorithm, so it is covered by the residual check instead
        basis = GaussianBasis()
        solution = solve(basis, SIGMA)
        h = kinetic_matrix(basis) + potential_matrix(basis, SIGMA)
        ref = scipy.linalg.eigh(h, overlap_matrix(basis), eigvals_only=True)
        np.testing.assert_allclose(solution.energies[:2], ref[:2], atol=1e-9)
        np.testing.assert_allclose(solution.energies[2:], ref[2:], atol=2e-3)

    def test_variational_bound_and_wide_well_limit(self):
        assert solve(GaussianBasis(), SIGMA).energies[0] > -1.0
        e0 = solve(GaussianBasis(beta0_sq=10.0), 50.0).energies[0]
        assert -1.0 < e0 < -0.97  # deep wide well: E0 -> -1 + O(1/sigma)

    def test_ground_energy_monotone_in_basis_size(self):
        energies = [solve(GaussianBasis(n_max=n), SIGMA).energies[0]
                    for n in range(2, 11)]
        assert np.all(np.diff(energies) <= 1e-13)

    def test_overconditioned_basis_fails_loudly(self):
        with pytest.raises(ConditioningError, match="pivot"):
            solve(GaussianBasis(n_max=20), SIGMA)

    @pytest.mark.parametrize("beta0_sq", [0.1, 1.0, 7.0])
    def test_largest_solvable_basis(self, beta0_sq):
        # the bound a scenario's n_max is checked against: the overlap
        # matrix depends only on index ratios, so it holds for any beta0_sq
        solution = solve(GaussianBasis(beta0_sq=beta0_sq, n_max=N_MAX_SOLVABLE), SIGMA)
        assert solution.min_pivot >= 1e-12
        with pytest.raises(ConditioningError, match="pivot"):
            solve(GaussianBasis(beta0_sq=beta0_sq, n_max=N_MAX_SOLVABLE + 1), SIGMA)

    @pytest.mark.parametrize("beta0_sq", [0.0, -1.0, float("nan"), float("inf")])
    def test_width_must_be_positive_and_finite(self, beta0_sq):
        # a NaN width passes a `<= 0` test and stalls the eigensolver
        with pytest.raises(ValueError, match="beta0_sq"):
            GaussianBasis(beta0_sq=beta0_sq)

    @pytest.mark.parametrize("beta0_sq", [1e154, 1e200, 1e308, 1e-320])
    def test_widths_must_be_normal_with_finite_products(self, beta0_sq):
        # the matrix elements multiply two widths n * beta0_sq, which
        # overflows past about 1.3e153 at n_max 10; below 2.2e-308 the
        # widths are subnormal
        with pytest.raises(ValueError, match="beta0_sq must be at least"):
            GaussianBasis(beta0_sq=beta0_sq)

    @pytest.mark.parametrize("beta0_sq", [1e150, 1e-300])
    def test_extreme_widths_inside_the_range_solve(self, beta0_sq):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = solve(GaussianBasis(beta0_sq=beta0_sq), SIGMA)
        assert np.isfinite(solution.energies).all()

    def test_min_pivot_reported(self):
        solution = solve(GaussianBasis(), SIGMA)
        assert 0 < solution.min_pivot < 1e-9

    def test_sign_convention_positive_at_origin(self):
        solution = solve(GaussianBasis(), SIGMA)
        for lam in (0, 1):
            assert eigen_wavefunction(solution, lam, 0.0) > 0

    def test_eigenfunction_unit_norm_by_quadrature(self):
        solution = solve(GaussianBasis(), SIGMA)
        total = quad(lambda x: eigen_wavefunction(solution, 0, x) ** 2,
                     -60, 60, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        assert total == pytest.approx(1.0, abs=1e-9)


class TestWignerBasis:
    def test_diagonal_closed_form(self):
        basis = GaussianBasis()
        rng = np.random.default_rng(9)
        for n in (1, 3, 7):
            b2 = basis.betas_sq[n - 1]
            for _ in range(5):
                x, p = rng.uniform(-2, 2, size=2)
                want = 2.0 * np.exp(-x**2 / b2 - p**2 * b2)
                assert wigner_basis(basis, n, n, x, p) == pytest.approx(want, rel=1e-13)

    def test_diagonal_peak_is_two(self):
        assert wigner_basis(GaussianBasis(), 4, 4, 0.0, 0.0) == pytest.approx(2.0)

    def test_hermiticity(self):
        basis = GaussianBasis()
        f12 = wigner_basis(basis, 1, 2, 0.5, 0.3)
        f21 = wigner_basis(basis, 2, 1, 0.5, 0.3)
        assert f21 == pytest.approx(np.conj(f12), rel=1e-14)

    def test_off_diagonal_matches_direct_transform(self):
        # independent oracle: s-quadrature of psi_1(x-s/2) psi_2(x+s/2) e^{ips}
        basis = GaussianBasis()
        x0, p0 = 0.5, 0.3
        re = quad(lambda s: np.cos(p0 * s) * psi(basis, 1, x0 - s / 2)
                  * psi(basis, 2, x0 + s / 2), -80, 80,
                  epsabs=1e-12, epsrel=1e-12, limit=400)[0]
        im = quad(lambda s: np.sin(p0 * s) * psi(basis, 1, x0 - s / 2)
                  * psi(basis, 2, x0 + s / 2), -80, 80,
                  epsabs=1e-12, epsrel=1e-12, limit=400)[0]
        got = wigner_basis(basis, 1, 2, x0, p0)
        assert got.real == pytest.approx(re, abs=1e-8)
        assert got.imag == pytest.approx(im, abs=1e-8)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            wigner_basis(GaussianBasis(n_max=4), 1, 5, 0.0, 0.0)


class TestSuperpositionState:
    def test_normalization_enforced(self):
        solution = solve(GaussianBasis(), SIGMA)
        with pytest.raises(ValueError):
            SuperpositionState(solution=solution, amplitudes=np.array([1.0, 1.0]))
        # a NaN norm fails the check too
        with pytest.raises(ValueError, match="sum"):
            SuperpositionState(solution=solution, amplitudes=np.array([np.nan]))
        state = superposition(solution, 1.0, 1.0)
        np.testing.assert_allclose(np.abs(state.amplitudes) ** 2, [0.5, 0.5],
                                   rtol=1e-14)

    def test_basis_coefficients_at_t0(self):
        solution = solve(GaussianBasis(), SIGMA)
        state = superposition(solution, 1.0, 1.0)
        want = (solution.coeffs[0] + solution.coeffs[1]) / np.sqrt(2)
        np.testing.assert_allclose(basis_coefficients(state, 0.0), want, rtol=1e-13)


class TestWignerAt:
    def test_stationary_state_is_time_independent(self, bench):
        state = superposition(bench.solution, 1.0)
        for t in (0.0, 1.7, 12.3):
            assert wigner_at(state, t, 0.8, -0.4) == \
                pytest.approx(wigner_at(state, 0.0, 0.8, -0.4), rel=1e-12)

    def test_periodicity(self, bench):
        period = 2 * np.pi / (bench.solution.energies[1] - bench.solution.energies[0])
        assert period == pytest.approx(11.83, abs=0.02)
        a = sample_field(bench.state, 0.7, bench.grid)
        b = sample_field(bench.state, 0.7 + period, bench.grid)
        assert diff_metrics(a, b).linf < 1e-6

    def test_folded_sum_matches_full_complex_sum(self, bench):
        # hermiticity: the unfolded double sum has negligible imaginary part
        basis = bench.solution.basis
        c = basis_coefficients(bench.state, 3.0)
        for x0, p0 in ((1.7, 0.6), (-1.2, 0.6), (0.0, 0.0), (2.5, -1.0)):
            full = 0.0 + 0.0j
            for n in range(1, basis.n_max + 1):
                for m in range(1, basis.n_max + 1):
                    full += (c[n - 1] * np.conj(c[m - 1])
                             * wigner_basis(basis, n, m, x0, p0))
            assert abs(full.imag) < 1e-10
            # summation order differs, so allow accumulation roundoff
            assert wigner_at(bench.state, 3.0, x0, p0) == \
                pytest.approx(full.real, rel=1e-10, abs=1e-10)

    def test_benchmark_slice_extrema(self, bench):
        row = bench.oracle_t3.values[:, bench.slice_index]
        x = bench.grid.x_lattice
        imax, imin = int(np.argmax(row)), int(np.argmin(row))
        assert row[imax] == pytest.approx(0.9313, abs=0.003)
        assert abs(x[imax] - 1.692) <= bench.grid.dx
        assert row[imin] == pytest.approx(-0.3888, abs=0.003)
        assert abs(x[imin] - (-1.1667)) <= bench.grid.dx

    def test_third_momentum_derivative_vs_finite_difference(self, bench):
        # h is chosen above the roundoff floor of the third-difference
        # (values ~1 cancel down to ~2 h^3 f'''); truncation there is O(h^2)
        h = 4e-3
        for x0, p0 in ((0.5, 0.2), (-1.5, 0.8)):
            fd = (wigner_at(bench.state, 3.0, x0, p0 + 2 * h)
                  - 2 * wigner_at(bench.state, 3.0, x0, p0 + h)
                  + 2 * wigner_at(bench.state, 3.0, x0, p0 - h)
                  - wigner_at(bench.state, 3.0, x0, p0 - 2 * h)) / (2 * h**3)
            got = wigner_dp3_at(bench.state, 3.0, np.asarray(x0), np.asarray(p0))
            assert got == pytest.approx(fd, rel=1e-3, abs=1e-3)


class TestSampleField:
    def test_norm_close_to_2pi(self, bench):
        assert norm(bench.f0) == pytest.approx(2 * np.pi, abs=5e-4)

    def test_matches_pointwise_evaluation(self, bench):
        g = bench.grid
        i, j = 150, 200
        assert bench.f0.values[i, j] == pytest.approx(
            wigner_at(bench.state, 0.0, g.x_lattice[i], g.p_lattice[j]), rel=1e-13)


class TestNumericWigner:
    def test_recovers_gaussian_transform(self):
        # psi a plain Gaussian of width beta: known closed form
        grid = make_grid(-8, 8, 128, -4, 4, 128)
        beta_sq = 2.0
        x_fine = np.linspace(-40, 40, 8001)
        psi_g = np.exp(-x_fine**2 / (2 * beta_sq)) \
            / np.sqrt(np.sqrt(np.pi * beta_sq))
        f = numeric_wigner(psi_g, x_fine, grid)
        want = 2.0 * np.exp(-grid.x_lattice[:, None] ** 2 / beta_sq
                            - grid.p_lattice[None, :] ** 2 * beta_sq)
        assert np.abs(f.values - want).max() < 1e-8

    def test_cross_validates_closed_form_field(self, bench):
        x_fine = np.linspace(-40, 40, 16001)
        f = numeric_wigner(wavefunction(bench.state, 0.0, x_fine), x_fine,
                           bench.grid)
        assert np.abs(f.values - bench.f0.values).max() < 1e-6

    def test_real_even_wavefunction_gives_p_symmetry(self):
        grid = make_grid(-8, 8, 64, -4, 4, 64)
        x_fine = np.linspace(-30, 30, 6001)
        psi_g = np.exp(-x_fine**2 / 3.0) + 0.2 * np.exp(-x_fine**2 / 7.0)
        f = numeric_wigner(psi_g, x_fine, grid)
        # p-lattice excludes +p_max, so compare rows 1..n-1 against reversal
        np.testing.assert_allclose(f.values[:, 1:], f.values[:, :0:-1], atol=1e-10)
