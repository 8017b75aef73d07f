"""Work that does not change with time is done once, with the same bits.

- ``oracle.sample_fields`` evaluates each basis pair once for many times;
  each field must equal the whole-lattice sum at its own time.
- ``pseudoparticle.nlo_correction`` works through blocks of rows; the
  result must equal the whole-array formula written out below.
- ``pseudoparticle.step_lo`` keeps the backtrack coordinates of a static
  potential in the memo; a step must equal a freshly built backtrack, no
  two (grid, potential, dt, mass) may share an entry, a driven potential
  is rebuilt at every step and the memo stays bounded.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wigprop import make_grid, spectral
from wigprop.oracle import (GaussianBasis, sample_field, sample_fields, solve,
                            superposition, wigner_at)
from wigprop.phasespace import HBAR, WignerField, interpolate
from wigprop.potentials import GaussianWell, Harmonic, Linear, Potential
from wigprop.pseudoparticle import nlo_correction, step_lo

SOLUTION = solve(GaussianBasis(), 3.0)

sizes = st.sampled_from([8, 16, 32, 64, 128, 256])
row_counts = st.sampled_from([8, 32, 64, 128, 256, 512])


@dataclass(frozen=True)
class DrivenLinear(Linear):
    """V(x, t) = g (1 + t) x: a force that grows with time."""

    time_dependent = True

    def value(self, x, t: float = 0.0):
        return self.g * (1.0 + t) * np.asarray(x, dtype=float)

    def grad(self, x, t: float = 0.0):
        return self.g * (1.0 + t) * np.ones_like(np.asarray(x, dtype=float))


class UnhashableWell(Potential):
    """A static well that cannot be hashed, so never a memo key."""

    time_dependent = False
    __hash__ = None

    def __init__(self, depth: float):
        self.well = GaussianWell(depth=depth, sigma=2.0)

    def value(self, x, t: float = 0.0):
        return self.well.value(x, t)

    def grad(self, x, t: float = 0.0):
        return self.well.grad(x, t)


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


# ---------------------------------------------------------------------------
# pseudoparticle.nlo_correction
# ---------------------------------------------------------------------------

def whole_array_nlo(field, pot, t, dt, s_cutoff):
    """The correction over the whole lattice at once."""
    grid = field.grid
    s = grid.s_lattice
    mult = (1j * s / HBAR) ** 3
    mult[grid.np // 2] = 0.0
    if s_cutoff is not None:
        mult = mult * (np.abs(s) <= s_cutoff)
    out = np.fft.ifft(np.fft.fft(field.values, axis=1) * mult[None, :], axis=1)
    third = np.real(out)
    v3 = pot.d3(grid.x_lattice, t)[:, None]
    return field.values - (dt * HBAR**2 / 24.0) * v3 * third


@settings(max_examples=25, deadline=None)
@given(nx=row_counts, n_p=st.sampled_from([8, 16, 32, 64, 128]),
       seed=st.integers(0, 2**32 - 1), t=st.floats(-5.0, 5.0),
       dt=st.floats(-0.5, 0.5), depth=st.floats(-2.0, 2.0),
       sigma=st.floats(0.5, 4.0),
       s_cutoff=st.none() | st.floats(0.0, 30.0))
def test_blocked_nlo_correction_equals_whole_array(nx, n_p, seed, t, dt, depth,
                                                   sigma, s_cutoff):
    grid = make_grid(-8.0, 8.0, nx, -8.0, 8.0, n_p)
    field = blobs(grid, seed)
    pot = GaussianWell(depth=depth, sigma=sigma)
    got = nlo_correction(field, pot, t, dt, s_cutoff=s_cutoff)
    assert same_bits(got.values, whole_array_nlo(field, pot, t, dt, s_cutoff))
    assert got.time == field.time


# ---------------------------------------------------------------------------
# pseudoparticle.step_lo and the backtrack memo
# ---------------------------------------------------------------------------

def fresh_step(field, pot, t, dt, mass=1.0, method="bicubic"):
    """step_lo's values with the backtrack built here, for this t."""
    grid = field.grid
    x = grid.x_lattice[:, None]
    p = grid.p_lattice[None, :]
    x0 = x - p * (dt / mass)
    p0 = p + pot.grad(x0, t) * dt
    return interpolate(field, x0, p0, method)


def backtrack_keys():
    return [key for key in spectral._MEMO if key[0] == "backtrack"]


potentials = st.one_of(
    st.builds(GaussianWell, depth=st.floats(-2.0, 2.0), sigma=st.floats(0.5, 4.0)),
    st.builds(Harmonic, k=st.floats(0.0, 3.0)),
    st.builds(Linear, g=st.floats(-2.0, 2.0)))


@settings(max_examples=20, deadline=None)
@given(nx=sizes, n_p=sizes, seed=st.integers(0, 2**32 - 1), pot=potentials,
       t=st.floats(-5.0, 5.0), dt=st.floats(-0.5, 0.5), mass=st.floats(0.2, 5.0),
       method=st.sampled_from(["bicubic", "bilinear"]))
def test_memoized_step_equals_fresh_backtrack(nx, n_p, seed, pot, t, dt, mass,
                                              method):
    spectral._MEMO.clear()
    field = blobs(make_grid(-8.0, 8.0, nx, -4.0, 4.0, n_p), seed)
    want = fresh_step(field, pot, t, dt, mass, method)
    first = step_lo(field, pot, t, dt, mass=mass, method=method)
    assert len(backtrack_keys()) == 1
    # a static potential's backtrack does not depend on the step time
    again = step_lo(field, pot, t + 1.0, dt, mass=mass, method=method)
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
    step_lo(blobs(grid, seed), pot, 0.0, dt, mass=mass)
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
    got = step_lo(field_b, pot_b, 0.0, dt_b, mass=mass_b)
    assert same_bits(got.values, fresh_step(field_b, pot_b, 0.0, dt_b, mass_b))
    assert len(backtrack_keys()) == 2


def test_driven_and_unhashable_potentials_are_rebuilt_each_step():
    field = blobs(make_grid(-8.0, 8.0, 64, -4.0, 4.0, 64), 3)
    for pot in (DrivenLinear(g=0.7), UnhashableWell(depth=1.0)):
        for k in range(4):
            t = 0.5 * k
            got = step_lo(field, pot, t, 0.1)
            assert same_bits(got.values, fresh_step(field, pot, t, 0.1))
        assert not backtrack_keys()
    # a change made in place to an unhashable potential is seen at once
    pot = UnhashableWell(depth=1.0)
    step_lo(field, pot, 0.0, 0.1)
    pot.well = GaussianWell(depth=-1.0, sigma=2.0)
    assert same_bits(step_lo(field, pot, 0.0, 0.1).values,
                     fresh_step(field, pot, 0.0, 0.1))


def test_backtrack_memo_stays_bounded():
    field = blobs(make_grid(-8.0, 8.0, 16, -4.0, 4.0, 16), 5)
    pot = GaussianWell()
    for k in range(2 * spectral._MEMO_SIZE):
        dt = 0.01 * (k + 1)
        got = step_lo(field, pot, 0.0, dt)
        assert same_bits(got.values, fresh_step(field, pot, 0.0, dt))
    assert len(spectral._MEMO) <= spectral._MEMO_SIZE
    assert not any(a.flags.writeable for a in spectral._MEMO.values())


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_backtrack_raises_and_is_not_kept():
    from wigprop.phasespace import NonFiniteFieldError
    field = blobs(make_grid(-8.0, 8.0, 16, -4.0, 4.0, 16), 7)
    with pytest.raises(NonFiniteFieldError, match="finite"):
        step_lo(field, Harmonic(k=1e308), 0.0, 0.1)
    assert not backtrack_keys()
