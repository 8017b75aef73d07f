"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with the measured numbers (run with -s to see them all).

The benchmark scenario is the two-state superposition in the sigma = 3
Gaussian well on a 256 x 256 grid, evolved from t = 0 to t = 3 in 30
steps; field extrema are probed on the momentum slice p = 0.6.
"""

import time

import numpy as np
from scipy.integrate import quad

from wigprop import make_grid
from wigprop.oracle import (GaussianBasis, kinetic_matrix, overlap_matrix,
                            potential_matrix, solve, wavefunction)
from wigprop.phasespace import REALNESS_TOL, WignerField, diff_metrics, norm
from wigprop.potentials import Constant, Harmonic
from wigprop.pseudoparticle import (DFunctionParams, auto_alpha, d_function,
                                    deposit, step_lo, to_ensemble)
from wigprop.spectral import (SpectralStepConfig, _apply_kick, _kick_phase,
                              _spectral_shift_rows, kick_full,
                              step_first_order, step_full)
from wigner_reference import numeric_wigner

EXACTNESS_GRID = make_grid(-8, 8, 256, -8, 8, 256)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def rotation_blob(grid, x0=1.0):
    x = grid.x_lattice[:, None]
    p = grid.p_lattice[None, :]
    values = 2.0 * np.exp(-((x - x0) ** 2) / 2.0 - p**2 * 2.0)
    return WignerField(grid=grid, values=values)


def test_criterion_1_eigenvalues():
    start = time.perf_counter()
    solution = solve(GaussianBasis(), 3.0)
    elapsed = time.perf_counter() - start
    e0, e1 = solution.energies[:2]
    ok = (abs(e0 - (-0.844)) <= 0.002 and abs(e1 - (-0.312)) <= 0.002
          and elapsed < 1.0)
    assert report(1, ok, f"E0={e0:.6f} (want -0.844+-0.002), "
                         f"E1={e1:.6f} (want -0.312+-0.002), {elapsed:.3f}s")


def test_criterion_2_oracle_field_extrema(bench):
    g = bench.grid
    row = bench.oracle_t3.values[:, bench.slice_index]
    x = g.x_lattice
    imax, imin = int(np.argmax(row)), int(np.argmin(row))
    checks = [
        abs(row[imax] - 0.9313) <= 0.003,
        abs(x[imax] - 1.692) <= g.dx,
        abs(row[imin] - (-0.3888)) <= 0.003,
        abs(x[imin] - (-1.1667)) <= g.dx,
    ]
    assert report(2, all(checks),
                  f"max {row[imax]:.4f}@{x[imax]:+.5f} (want 0.9313+-0.003 "
                  f"@1.692+-dx), min {row[imin]:.4f}@{x[imin]:+.5f} "
                  f"(want -0.3888+-0.003 @-1.1667+-dx)")


def test_criterion_3_explicit_propagation_extrema(bench):
    g = bench.grid
    srow = bench.spectral30.field.values[:, bench.slice_index]
    orow = bench.oracle_t3.values[:, bench.slice_index]
    x = g.x_lattice
    si, sj = int(np.argmax(srow)), int(np.argmin(srow))
    oi, oj = int(np.argmax(orow)), int(np.argmin(orow))
    checks = [
        abs(srow[si] - 0.9206) <= 0.005,
        abs(x[si] - 1.692) <= g.dx,
        abs(srow[sj] - (-0.3735)) <= 0.005,
        abs(x[sj] - (-1.1667)) <= g.dx,
        si == oi,
        sj == oj,
    ]
    assert report(3, all(checks),
                  f"max {srow[si]:.4f}@{x[si]:+.5f} (want 0.9206+-0.005), "
                  f"min {srow[sj]:.4f}@{x[sj]:+.5f} (want -0.3735+-0.005), "
                  f"locations {'match' if si == oi and sj == oj else 'differ'}")


def test_criterion_4_global_agreement(bench):
    linf = diff_metrics(bench.spectral30.field, bench.oracle_t3).linf
    assert report(4, linf <= 0.02, f"linf(spectral, oracle) = {linf:.4f} "
                                   f"(want <= 0.02)")


def test_criterion_5_conservation(bench):
    norm0 = norm(bench.f0)
    norm_ok = all(abs(d.norm - norm0) <= 1e-10 * abs(norm0)
                  for d in bench.spectral30.diagnostics)

    kicked = kick_full(bench.f0, bench.pot, 0.1)
    before = bench.f0.values.sum(axis=1)
    after = kicked.values.sum(axis=1)
    marginal_err = float(np.abs(after - before).max() / np.abs(before).max())

    cfg = SpectralStepConfig(dt=0.1)
    _, drift_resid = _spectral_shift_rows(bench.f0.values, bench.grid,
                                          cfg.dt, cfg.mass)
    _, kick_resid = _apply_kick(bench.f0.values,
                                _kick_phase(bench.grid, bench.pot, cfg.dt))
    resid = max(drift_resid, kick_resid)

    ok = norm_ok and marginal_err < 1e-12 and resid < REALNESS_TOL
    assert report(5, ok, f"norm drift <=1e-10: {norm_ok}, marginal invariance "
                         f"{marginal_err:.2e} (want <1e-12), imag residue "
                         f"{resid:.2e} (want <1e-10)")


def test_criterion_6_exactness_classes():
    # (a) free particle: spectral vs analytic shear; transported step within
    # its interpolation tolerance (1e-3 pinned for 20 cubic resamplings)
    g = EXACTNESS_GRID
    f = rotation_blob(g, x0=1.0)
    x = g.x_lattice[:, None]
    p = g.p_lattice[None, :]
    want = 2.0 * np.exp(-((x - p - 1.0) ** 2) / 2.0 - p**2 * 2.0)

    cfg = SpectralStepConfig(dt=0.05)
    cur_s, cur_l = f, f
    for _ in range(20):
        cur_s = step_full(cur_s, Constant(c=0.0), cfg)
        cur_l = step_lo(cur_l, Constant(c=0.0), 0.05)
    free_s = float(np.abs(cur_s.values - want).max())
    free_l = float(np.abs(cur_l.values - want).max())

    # (b) harmonic oscillator over one full period
    f = rotation_blob(g, x0=1.0)
    cfg = SpectralStepConfig(dt=2 * np.pi / 200)
    cur_s = f
    for _ in range(200):
        cur_s = step_full(cur_s, Harmonic(k=1.0), cfg)
    harm_s = float(np.abs(cur_s.values - f.values).max())
    dt = 2 * np.pi / 400
    cur_l = f
    for _ in range(400):
        cur_l = step_lo(cur_l, Harmonic(k=1.0), dt)
    harm_l = float(np.abs(cur_l.values - f.values).max())

    ok = free_s < 1e-6 and free_l < 1e-3 and harm_s < 1e-3 and harm_l < 5e-3
    assert report(6, ok, f"free: spectral {free_s:.2e} (<1e-6), transported "
                         f"{free_l:.2e} (<1e-3); harmonic period: spectral "
                         f"{harm_s:.2e} (<1e-3), transported {harm_l:.2e} (<5e-3)")


def test_criterion_7_pseudoparticle_hierarchy(bench):
    l2_lo = diff_metrics(bench.lo30, bench.oracle_t3).l2
    l2_nlo = diff_metrics(bench.nlo30, bench.oracle_t3).l2

    sign_ok = True
    for p_want in (0.0, 0.6):
        j = int(np.argmin(np.abs(bench.grid.p_lattice - p_want)))
        for field in (bench.lo30,):
            o_row = bench.oracle_t3.values[:, j]
            f_row = field.values[:, j]
            sign_ok &= np.sign(o_row.max()) == np.sign(f_row.max())
            # a genuinely negative oracle trough must stay negative
            if o_row.min() < -0.05:
                sign_ok &= f_row.min() < 0

    ok = l2_nlo < l2_lo and sign_ok
    assert report(7, ok, f"l2: corrected {l2_nlo:.4f} < transported {l2_lo:.4f}: "
                         f"{l2_nlo < l2_lo}; slice sign pattern: {sign_ok}")


def test_criterion_8_oracle_cross_validation(bench):
    x_fine = np.linspace(-40, 40, 16001)
    f_num = numeric_wigner(wavefunction(bench.state, 0.0, x_fine), x_fine,
                           bench.grid)
    field_gap = float(np.abs(f_num.values - bench.f0.values).max())

    basis = GaussianBasis(n_max=20)
    b_mat = overlap_matrix(basis)
    t_mat = kinetic_matrix(basis)
    v_mat = potential_matrix(basis, 3.0)

    def psi(n, x):
        b2 = basis.betas_sq[n - 1]
        return np.exp(-x**2 / (2 * b2)) / np.sqrt(np.sqrt(np.pi) * basis.betas[n - 1])

    worst = 0.0
    for n in range(1, 21):
        for m in range(n, 21):
            b2 = basis.betas_sq[m - 1]
            ref_b = quad(lambda x: psi(n, x) * psi(m, x), -80, 80,
                         epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            ref_t = quad(lambda x: psi(n, x) * 0.5 * (1 / b2 - x**2 / b2**2)
                         * psi(m, x), -80, 80, epsabs=1e-13, epsrel=1e-13,
                         limit=200)[0]
            ref_v = quad(lambda x: -psi(n, x) * psi(m, x)
                         * np.exp(-x**2 / 18.0), -80, 80,
                         epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            worst = max(worst,
                        abs(b_mat[n - 1, m - 1] - ref_b) / abs(ref_b),
                        abs(t_mat[n - 1, m - 1] - ref_t) / abs(ref_t),
                        abs(v_mat[n - 1, m - 1] - ref_v) / abs(ref_v))

    ok = field_gap < 1e-6 and worst < 1e-8
    assert report(8, ok, f"analytic vs direct transform: {field_gap:.2e} "
                         f"(<1e-6); matrix elements vs quadrature: {worst:.2e} "
                         f"(<1e-8)")


def test_criterion_9_dfunction_and_deposition(bench):
    norm_worst = 0.0
    for alpha in (0.7, 2.0, 31.0):
        for order in range(4):
            params = DFunctionParams(alpha=alpha, order=order)
            reach = 40.0 * max(1.0, np.sqrt(2 * order + 1)) / alpha
            u = np.linspace(-reach, reach, 40001)
            norm_worst = max(norm_worst,
                             abs(np.trapezoid(d_function(u, params), u) - 1.0))

    ens = to_ensemble(bench.f0)
    peak = float(np.abs(bench.f0.values).max())
    errors = []
    for order in range(4):
        params_r = DFunctionParams(alpha=auto_alpha(bench.grid.dx), order=order)
        params_p = DFunctionParams(alpha=auto_alpha(bench.grid.dp), order=order)
        back = deposit(ens, bench.grid, params_r, params_p)
        errors.append(float(np.abs(back.values - bench.f0.values).max()) / peak)

    ok = (norm_worst < 1e-10 and errors[3] < 0.02
          and all(b < a for a, b in zip(errors, errors[1:])))
    assert report(9, ok, f"unit integral err {norm_worst:.2e} (<1e-10); "
                         f"round-trip errors over orders 0..3: "
                         + ", ".join(f"{e:.2%}" for e in errors)
                         + " (want <2% at order 3, decreasing)")


def test_criterion_10_convergence(bench):
    step_change = diff_metrics(bench.spectral30.field, bench.spectral60).linf
    oracle_gap = diff_metrics(bench.spectral30.field, bench.oracle_t3).linf

    gaps = []
    for dt in (0.1, 0.05):
        cfg = SpectralStepConfig(dt=dt)
        full = step_full(bench.f0, bench.pot, cfg)
        fo = step_first_order(bench.f0, bench.pot, cfg)
        gaps.append(float(np.abs(full.values - fo.values).max()))
    ratio = gaps[0] / gaps[1]

    ok = step_change < oracle_gap and 3.5 < ratio < 4.5
    assert report(10, ok, f"doubling steps moves field by {step_change:.4f} < "
                          f"oracle gap {oracle_gap:.4f}: {step_change < oracle_gap}; "
                          f"kernel truncation ratio {ratio:.2f} (want ~4)")
