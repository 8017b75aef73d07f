"""Exactness classes over generated inputs.

Under a potential of degree <= 2, V''' vanishes, so the NLO correction adds
nothing to the transported field, and the transported step is the exact
kick followed by the exact drift; under a constant potential the spectral
step is free streaming, the shear f(x - p dt/m, p), with no kick.  Each
holds exactly in the continuum and, on a lattice, for smooth fields that
stay inside the box (the transported step up to its bicubic spline).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wigprop import make_grid
from wigprop.phasespace import WignerField
from wigprop.potentials import Constant, Harmonic, Linear
from wigprop.pseudoparticle import nlo_correction, stable_p3_cutoff, step_lo
from wigprop.spectral import SpectralStepConfig, drift, kick_full, step_full

PROPERTY = settings(max_examples=60, deadline=None, database=None)

QUADRATIC = st.one_of(
    st.builds(Constant, c=st.floats(-5.0, 5.0)),
    st.builds(Linear, g=st.floats(-3.0, 3.0)),
    st.builds(Harmonic, k=st.floats(0.0, 4.0)))


def gaussians(grid, blobs, shear=0.0):
    """Sum of amp exp(-(x - shear p - x0)^2 / 2 sx^2 - (p - p0)^2 / 2 sp^2)
    on the lattice."""
    x = grid.x_lattice[:, None]
    p = grid.p_lattice[None, :]
    values = np.zeros(grid.shape())
    for amp, x0, p0, sx, sp in blobs:
        values += amp * np.exp(-(x - shear * p - x0) ** 2 / (2 * sx**2)
                               - (p - p0) ** 2 / (2 * sp**2))
    return values


@st.composite
def smooth_fields(draw):
    """One to three Gaussians of either sign, 3 to 4 cells wide along x and
    2 to 3 along p, at least nine widths inside every edge."""
    half_x, half_p = draw(st.floats(4.0, 10.0)), draw(st.floats(3.0, 8.0))
    grid = make_grid(-half_x, half_x, draw(st.sampled_from([128, 256])),
                     -half_p, half_p, draw(st.sampled_from([64, 128])))
    blobs = []
    for _ in range(draw(st.integers(1, 3))):
        sx = draw(st.floats(3.0, 4.0)) * grid.dx
        sp = draw(st.floats(2.0, 3.0)) * grid.dp
        blobs.append((draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 2.0)),
                      draw(st.floats(-1.0, 1.0)) * (half_x - 9 * sx),
                      draw(st.floats(-1.0, 1.0)) * (half_p - 9 * sp), sx, sp))
    return WignerField(grid=grid, values=gaussians(grid, blobs))


@PROPERTY
@given(smooth_fields(), QUADRATIC, st.floats(0.01, 0.5), st.floats(0.2, 5.0))
def test_nlo_correction_adds_nothing_when_the_third_derivative_vanishes(
        f, pot, dt, mass):
    lo = step_lo(f, pot, dt, mass=mass)
    cutoff = stable_p3_cutoff(f.grid, pot, dt)
    nlo = nlo_correction(lo, pot, dt, s_cutoff=cutoff)
    assert np.array_equal(nlo.values, lo.values)
    assert nlo.time == lo.time


@st.composite
def free_streaming_cases(draw):
    """Gaussians as ``smooth_fields`` draws them, a mass, and a dt small
    enough that every row a Gaussian reaches (|p - p0| up to nine widths)
    stays nine x-widths inside the box once sheared by p dt/m: the
    periodic drift then wraps nothing the analytic shear lacks."""
    half_x, half_p = draw(st.floats(4.0, 10.0)), draw(st.floats(3.0, 8.0))
    grid = make_grid(-half_x, half_x, draw(st.sampled_from([128, 256])),
                     -half_p, half_p, draw(st.sampled_from([64, 128])))
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        sx = draw(st.floats(3.0, 4.0)) * grid.dx
        sp = draw(st.floats(2.0, 3.0)) * grid.dp
        shapes.append((sx, sp, draw(st.floats(-1.0, 1.0)) * (half_p - 9 * sp)))
    mass = draw(st.floats(0.2, 5.0))
    dt = draw(st.floats(0.01, 1.0)) * 0.5 * mass * min(
        (half_x - 9 * sx) / (abs(p0) + 9 * sp) for sx, sp, p0 in shapes)
    blobs = []
    for sx, sp, p0 in shapes:
        room = half_x - 9 * sx - (abs(p0) + 9 * sp) * dt / mass
        blobs.append((draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 2.0)),
                      draw(st.floats(-1.0, 1.0)) * room, p0, sx, sp))
    return grid, blobs, mass, dt


@PROPERTY
@given(free_streaming_cases(), st.floats(-5.0, 5.0), st.floats(0.0, 2.0))
def test_step_full_under_a_constant_potential_is_the_analytic_shear(case, c, t):
    grid, blobs, mass, dt = case
    f = WignerField(grid=grid, values=gaussians(grid, blobs), time=t)
    got = step_full(f, Constant(c=c), SpectralStepConfig(dt=dt, mass=mass))
    want = gaussians(grid, blobs, shear=dt / mass)
    assert np.abs(got.values - want).max() <= 1e-10
    assert got.time == t + dt


#: |step_lo(f) - drift(kick_full(f))| / max|f| allowed: the bicubic
#: spline's interpolation error.  Over 2000 draws of these cases, and at
#: the corners of the draw, it was at most 3.0e-5, and the drift-first
#: step_full lay at least 3.8e-4 from the kick-first reference for Linear
#: and Harmonic V at dt >= 0.05 (at |g| = 0.5, m = 2, dt = 0.05 and unit
#: widths; 4.4e-4 in the draws).
KICK_DRIFT_BOUND = 1e-4


@st.composite
def kick_drift_cases(draw):
    """A 128^2 field on (-8, 8)^2 of one to three Gaussians of one sign,
    0.6 to 1.0 wide (five to eight cells) and centred within 1.5 of the
    origin, so what a step moves stays inside the box; a Constant, Linear
    or Harmonic V whose force (|g|, k >= 0.5) moves the field by more
    than the interpolation error; dt and a mass."""
    grid = make_grid(-8.0, 8.0, 128, -8.0, 8.0, 128)
    sign = draw(st.sampled_from([-1.0, 1.0]))
    blobs = [(sign * draw(st.floats(0.1, 2.0)), draw(st.floats(-1.5, 1.5)),
              draw(st.floats(-1.5, 1.5)), draw(st.floats(0.6, 1.0)),
              draw(st.floats(0.6, 1.0)))
             for _ in range(draw(st.integers(1, 3)))]
    pot = draw(st.one_of(
        st.builds(Constant, c=st.floats(-5.0, 5.0)),
        st.builds(Linear, g=st.sampled_from([-1.0, 1.0]).flatmap(
            lambda sg: st.floats(0.5, 3.0).map(lambda g: sg * g))),
        st.builds(Harmonic, k=st.floats(0.5, 3.0))))
    return (WignerField(grid=grid, values=gaussians(grid, blobs)), pot,
            draw(st.floats(0.01, 0.2)), draw(st.floats(0.5, 2.0)))


@settings(max_examples=100, deadline=None, database=None)
@given(kick_drift_cases())
def test_step_lo_under_a_quadratic_potential_is_a_kick_then_a_drift(case):
    f, pot, dt, mass = case
    kick_first = drift(kick_full(f, pot, dt), dt, mass).values
    scale = np.abs(f.values).max()
    lo = step_lo(f, pot, dt, mass=mass).values
    assert np.abs(lo - kick_first).max() <= KICK_DRIFT_BOUND * scale
    if not isinstance(pot, Constant) and dt >= 0.05:
        # the drift-first step is outside the bound, so the bound pins the order
        full = step_full(f, pot, SpectralStepConfig(dt=dt, mass=mass)).values
        assert np.abs(full - kick_first).max() > KICK_DRIFT_BOUND * scale
