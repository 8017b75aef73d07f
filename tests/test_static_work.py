"""Work that does not change with time is done once, with the same bits.

- ``oracle.sample_fields`` evaluates each basis pair once for many times;
  each field must equal the whole-lattice sum at its own time, and each
  pair's exponent, built in one complex buffer, must give the bits of the
  three-temporary expression.
- ``pseudoparticle.nlo_correction`` works through blocks of rows; the
  result must equal the whole-array formula written out below.
- ``pseudoparticle.step_lo`` keeps the backtrack stencil of a potential
  in the memo; a step must equal a freshly built backtrack, no two (grid,
  potential, dt, mass) may share an entry, an unhashable potential is
  rebuilt at every step and the memo stays bounded.  The stencil is
  built in blocks of rows; it must equal the whole-array build written
  out below, peak at little more than its own bytes, and be kept by the
  memo only when every block is finite.
"""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wigprop import make_grid, spectral
from wigprop.oracle import (GaussianBasis, _assemble, _pair_terms,
                            sample_field, sample_fields, solve, superposition,
                            wigner_at)
from wigprop.phasespace import (_BLOCK_ROWS, HBAR, NonFiniteFieldError,
                                WignerField, _spline_stencil, interpolate)
from wigprop.potentials import (Constant, GaussianWell, Harmonic, Linear,
                                Potential)
from wigprop.pseudoparticle import _backtrack_stencil, nlo_correction, step_lo

SOLUTION = solve(GaussianBasis(), 3.0)

sizes = st.sampled_from([8, 16, 32, 64, 128, 256])
row_counts = st.sampled_from([8, 32, 64, 128, 256, 512])


class UnhashableWell(Potential):
    """A well that cannot be hashed, so never a memo key."""

    __hash__ = None

    def __init__(self, depth: float):
        self.well = GaussianWell(depth=depth, sigma=2.0)

    def value(self, x):
        return self.well.value(x)

    def grad(self, x):
        return self.well.grad(x)


@pytest.fixture(autouse=True)
def empty_memo():
    spectral._MEMO.clear()
    yield
    spectral._MEMO.clear()


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def blobs(grid, seed, count=3):
    """A sum of Gaussian blobs of random centre, width and sign."""
    rng = np.random.default_rng(seed)
    x = grid.x_lattice[:, None]
    p = grid.p_lattice[None, :]
    values = np.zeros(grid.shape())
    for _ in range(count):
        x0, p0 = rng.uniform(-3.0, 3.0, 2)
        w = rng.uniform(0.5, 2.0)
        values += rng.uniform(-1.0, 1.0) * np.exp(-((x - x0) ** 2 + (p - p0) ** 2) / w)
    return WignerField(grid=grid, values=values)


# ---------------------------------------------------------------------------
# oracle.sample_fields
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(nx=row_counts, n_p=sizes,
       times=st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=1,
                      max_size=9),
       amps=st.sampled_from([(1.0, 1.0), (1.0, 0.8, 0.3), (0.0, 1.0),
                             (1.0, 0.0, 0.0, 0.5)]))
def test_sample_fields_equal_one_time_samples(nx, n_p, times, amps):
    state = superposition(SOLUTION, *amps)
    grid = make_grid(-10.0, 10.0, nx, -6.4, 6.4, n_p)
    fields = sample_fields(state, times, grid)
    assert [f.time for f in fields] == [float(t) for t in times]
    x = grid.x_lattice[:, None]
    p = grid.p_lattice[None, :]
    for t, f in zip(times, fields):
        assert same_bits(f.values, sample_field(state, t, grid).values)
        # the pair sum over the whole lattice at this one time
        assert same_bits(f.values, wigner_at(state, t, x, p))


def three_temporary_assemble(terms, count, x, p, derivative_p3):
    """The pair sum with each exponent as one expression of complex
    temporaries."""
    out = np.zeros((count,) + np.broadcast(x, p).shape, dtype=float)
    for weight, live, (pref, a, b, d) in terms:
        term = pref * np.exp(-a * x**2 - b * p**2 + 1j * d * x * p)
        if derivative_p3:
            w = -2.0 * b * p + 1j * d * x
            term = term * (w**3 - 6.0 * b * w)
        for k, cc in live:
            out[k] += weight * (cc * term).real
    return out


@settings(max_examples=30, deadline=None)
@given(nx=st.sampled_from([1, 4, 32, 64, 128]), n_p=sizes,
       times=st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=1,
                      max_size=4),
       amps=st.sampled_from([(1.0, 1.0), (1.0, 0.8, 0.3), (0.0, 1.0),
                             (1.0, 0.0, 0.0, 0.5), (0.3, -0.7, 0.2, 0.1, 0.9)]),
       extent=st.floats(1.0, 40.0), derivative_p3=st.booleans())
def test_pair_exponent_buffer_equals_three_temporaries(nx, n_p, times, amps,
                                                       extent, derivative_p3):
    state = superposition(SOLUTION, *amps)
    grid = make_grid(-extent, extent, max(nx, 4), -extent / 2, extent / 2, n_p)
    terms = _pair_terms(state, times)
    # a block of rows, and one point as ``wigner_at`` passes a scalar
    for x, p in ((grid.x_lattice[:nx, None], grid.p_lattice[None, :]),
                 (np.asarray(grid.x_lattice[-1]), np.asarray(grid.p_lattice[0]))):
        assert same_bits(_assemble(terms, len(times), x, p, derivative_p3),
                         three_temporary_assemble(terms, len(times), x, p,
                                                  derivative_p3))


# ---------------------------------------------------------------------------
# pseudoparticle.nlo_correction
# ---------------------------------------------------------------------------

def whole_array_nlo(field, pot, dt, s_cutoff):
    """The correction over the whole lattice at once."""
    grid = field.grid
    s = grid.s_lattice
    mult = (1j * s / HBAR) ** 3
    mult[grid.np // 2] = 0.0
    if s_cutoff is not None:
        mult = mult * (np.abs(s) <= s_cutoff)
    out = np.fft.ifft(np.fft.fft(field.values, axis=1) * mult[None, :], axis=1)
    third = np.real(out)
    v3 = pot.d3(grid.x_lattice)[:, None]
    return field.values - (dt * HBAR**2 / 24.0) * v3 * third


@settings(max_examples=25, deadline=None)
@given(nx=row_counts, n_p=st.sampled_from([8, 16, 32, 64, 128]),
       seed=st.integers(0, 2**32 - 1),
       dt=st.floats(-0.5, 0.5), depth=st.floats(-2.0, 2.0),
       sigma=st.floats(0.5, 4.0),
       s_cutoff=st.none() | st.floats(0.0, 30.0))
def test_blocked_nlo_correction_equals_whole_array(nx, n_p, seed, dt, depth,
                                                   sigma, s_cutoff):
    grid = make_grid(-8.0, 8.0, nx, -8.0, 8.0, n_p)
    field = blobs(grid, seed)
    pot = GaussianWell(depth=depth, sigma=sigma)
    got = nlo_correction(field, pot, dt, s_cutoff=s_cutoff)
    assert same_bits(got.values, whole_array_nlo(field, pot, dt, s_cutoff))
    assert got.time == field.time


# ---------------------------------------------------------------------------
# pseudoparticle.step_lo and the backtrack memo
# ---------------------------------------------------------------------------

def fresh_step(field, pot, dt, mass=1.0):
    """step_lo's values with the backtrack built here."""
    grid = field.grid
    x = grid.x_lattice[:, None]
    p = grid.p_lattice[None, :]
    x0 = x - p * (dt / mass)
    p0 = p + pot.grad(x0) * dt
    return interpolate(field, x0, p0)


def whole_array_stencil(grid, pot, dt, mass):
    """The backtrack stencil built over the whole lattice at once."""
    x = grid.x_lattice[:, None]
    p = grid.p_lattice[None, :]
    x0 = x - p * (dt / mass)
    p0 = p + pot.grad(x0) * dt
    return _spline_stencil(grid.shape(), (x0 - grid.x_min) / grid.dx,
                           (p0 - grid.p_min) / grid.dp)


def backtrack_keys():
    return [key for key in spectral._MEMO if key[0] == "backtrack"]


potentials = st.one_of(
    st.builds(GaussianWell, depth=st.floats(-2.0, 2.0), sigma=st.floats(0.5, 4.0)),
    st.builds(Harmonic, k=st.floats(0.0, 3.0)),
    st.builds(Linear, g=st.floats(-2.0, 2.0)))


@settings(max_examples=40, deadline=None)
@given(nx=st.sampled_from([4, 8, 32, 64, 128]), n_p=sizes,
       pot=potentials | st.builds(Constant, c=st.floats(-2.0, 2.0)),
       dt=st.floats(-2.0, 2.0), mass=st.floats(0.2, 5.0))
def test_blocked_stencil_equals_whole_array(nx, n_p, pot, dt, mass):
    # lattices of fewer rows than one block, exactly one block, and several
    grid = make_grid(-8.0, 8.0, nx, -4.0, 4.0, n_p)
    assert same_bits(_backtrack_stencil(grid, pot, dt, mass),
                     whole_array_stencil(grid, pot, dt, mass))


def test_stencil_build_peaks_near_its_own_bytes():
    grid = make_grid(-10.0, 10.0, 512, -8.0, 8.0, 512)
    pot = GaussianWell(depth=1.0, sigma=2.0)
    _backtrack_stencil(grid, pot, 0.05, 1.0)     # lattices cached
    tracemalloc.start()
    try:
        stencil = _backtrack_stencil(grid, pot, 0.05, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * stencil.nbytes


@settings(max_examples=20, deadline=None)
@given(nx=sizes, n_p=sizes, seed=st.integers(0, 2**32 - 1), pot=potentials,
       dt=st.floats(-0.5, 0.5), mass=st.floats(0.2, 5.0))
def test_memoized_step_equals_fresh_backtrack(nx, n_p, seed, pot, dt, mass):
    spectral._MEMO.clear()
    field = blobs(make_grid(-8.0, 8.0, nx, -4.0, 4.0, n_p), seed)
    want = fresh_step(field, pot, dt, mass)
    first = step_lo(field, pot, dt, mass=mass)
    assert len(backtrack_keys()) == 1
    # the second step is served from the memo
    again = step_lo(field, pot, dt, mass=mass)
    assert same_bits(first.values, want)
    assert same_bits(again.values, want)
    assert len(backtrack_keys()) == 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dt=st.floats(0.01, 0.5),
       mass=st.floats(0.2, 5.0), depth=st.floats(0.1, 2.0),
       change=st.sampled_from(["grid", "dt", "mass", "potential", "kind"]))
def test_distinct_keys_never_share_an_entry(seed, dt, mass, depth, change):
    spectral._MEMO.clear()
    grid = make_grid(-8.0, 8.0, 32, -4.0, 4.0, 32)
    pot = GaussianWell(depth=depth, sigma=2.0)
    step_lo(blobs(grid, seed), pot, dt, mass=mass)
    grid_b, pot_b, dt_b, mass_b = grid, pot, dt, mass
    if change == "grid":
        grid_b = make_grid(-8.0, 8.0, 32, -4.5, 4.5, 32)
    elif change == "dt":
        dt_b = dt * 1.25
    elif change == "mass":
        mass_b = mass * 1.25
    elif change == "potential":
        pot_b = GaussianWell(depth=depth * 1.25, sigma=2.0)
    else:
        pot_b = Linear(g=depth)
    field_b = blobs(grid_b, seed)
    got = step_lo(field_b, pot_b, dt_b, mass=mass_b)
    assert same_bits(got.values, fresh_step(field_b, pot_b, dt_b, mass_b))
    assert len(backtrack_keys()) == 2


def test_unhashable_potential_is_rebuilt_each_step():
    field = blobs(make_grid(-8.0, 8.0, 64, -4.0, 4.0, 64), 3)
    pot = UnhashableWell(depth=1.0)
    for _ in range(4):
        got = step_lo(field, pot, 0.1)
        assert same_bits(got.values, fresh_step(field, pot, 0.1))
    assert not backtrack_keys()
    # a change made in place to an unhashable potential is seen at once
    pot = UnhashableWell(depth=1.0)
    step_lo(field, pot, 0.1)
    pot.well = GaussianWell(depth=-1.0, sigma=2.0)
    assert same_bits(step_lo(field, pot, 0.1).values,
                     fresh_step(field, pot, 0.1))


def test_backtrack_memo_stays_bounded():
    field = blobs(make_grid(-8.0, 8.0, 16, -4.0, 4.0, 16), 5)
    pot = GaussianWell()
    for k in range(2 * spectral._MEMO_SIZE):
        dt = 0.01 * (k + 1)
        got = step_lo(field, pot, dt)
        assert same_bits(got.values, fresh_step(field, pot, dt))
    assert len(spectral._MEMO) <= spectral._MEMO_SIZE
    assert not any(a.flags.writeable for a in spectral._MEMO.values())


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_backtrack_raises_and_is_not_kept():
    from wigprop.phasespace import NonFiniteFieldError
    field = blobs(make_grid(-8.0, 8.0, 16, -4.0, 4.0, 16), 7)
    with pytest.raises(NonFiniteFieldError, match="finite"):
        step_lo(field, Harmonic(k=1e308), 0.1)
    assert not backtrack_keys()


@dataclass(frozen=True)
class EdgeOverflow(Potential):
    """A force that overflows to inf only for x > ``edge``."""

    edge: float

    def grad(self, x):
        with np.errstate(over="ignore"):
            return 1e300 * np.exp(1e3 * (np.asarray(x) - self.edge))


def test_backtrack_overflowing_in_the_last_block_raises_and_is_not_kept():
    nx = 4 * _BLOCK_ROWS
    grid = make_grid(-8.0, 8.0, nx, -4.0, 4.0, 32)
    # rows of the last block start at x = 4; with |p dt| <= 0.4 every
    # backtracked x of an earlier row stays below 4.4
    pot = EdgeOverflow(edge=6.0)
    x0 = grid.x_lattice[:, None] - grid.p_lattice[None, :] * 0.1
    p0 = grid.p_lattice[None, :] + pot.grad(x0) * 0.1
    bad_rows = np.flatnonzero(~np.isfinite(p0).all(axis=1))
    assert bad_rows.size and bad_rows.min() >= nx - _BLOCK_ROWS
    field = blobs(grid, 11)
    with pytest.raises(NonFiniteFieldError, match=r"^backtracked points "
                       r"must be finite \(the force overflows\)$"):
        step_lo(field, pot, 0.1)
    assert not backtrack_keys()
