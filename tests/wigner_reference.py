"""Direct quadrature Wigner transform: the tests' independent cross-check
of the closed-form oracle field.

It interpolates with scipy, which only the tests import, so it lives with
the tests it serves and the package itself needs numpy and click alone.
"""

import numpy as np
from scipy.interpolate import CubicSpline

from wigprop.phasespace import (PhaseSpaceGrid, WignerField, _one_dimensional,
                                truncate_real)


def numeric_wigner(psi: np.ndarray, x_fine: np.ndarray,
                   grid: PhaseSpaceGrid) -> WignerField:
    """Direct quadrature Wigner transform of a sampled wavefunction.

    psi is sampled on the uniform lattice x_fine (fine enough that cubic
    interpolation of psi(x +/- s/2) is converged); the s-integral runs over
    the grid's conjugate lattice so the momentum synthesis is a single FFT
    per x-node.  Completely independent of the closed-form route, which is
    exactly why it exists.
    """
    psi = np.asarray(psi, dtype=complex)
    x_fine = np.asarray(x_fine, dtype=float)
    if psi.shape != x_fine.shape or psi.ndim != 1:
        raise ValueError("psi and x_fine must be matching 1-d arrays")
    spline_re = CubicSpline(x_fine, psi.real)
    spline_im = CubicSpline(x_fine, psi.imag)
    lo, hi = x_fine[0], x_fine[-1]

    def psi_at(points):
        out = spline_re(points) + 1j * spline_im(points)
        out[(points < lo) | (points > hi)] = 0.0
        return out

    axis = _one_dimensional(grid, "numeric_wigner")
    s = axis.s_lattice
    # f(x, p_j) = ds * sum_k exp(i s_k p_j) psi(x - s_k/2) conj(psi(x + s_k/2))
    # with exp(i s_k p_j) = exp(i s_k p_min) * (inverse-DFT kernel at j)
    values = np.empty(axis.shape())
    base_phase = np.exp(1j * s * axis.p_min)
    for i, xi in enumerate(axis.x_lattice):
        integrand = psi_at(xi - s / 2.0) * np.conj(psi_at(xi + s / 2.0))
        row = axis.np * np.fft.ifft(integrand * base_phase) * axis.ds
        values[i] = truncate_real(row, context="numeric wigner transform")
    return WignerField(grid=grid, values=values, time=0.0)
