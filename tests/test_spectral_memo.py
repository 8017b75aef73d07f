"""The multiplier memo and the half-spectrum (rfft) steps of the spectral
propagator.

The reference here is the full-spectrum form: complex fft/ifft along the
transformed axis, with the multiplier built on the whole conjugate lattice
and its unpaired Nyquist bin kept real.  Distinct and unhashable
potentials check that the memo never serves a kick built for another
potential.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wigprop import make_grid, spectral
from wigprop.phasespace import (PhaseSpaceGridND, WignerField, WignerFieldND,
                                norm)
from wigprop.potentials import (Constant, GaussianWell, Harmonic, Linear,
                                Potential, SeparableSum)
from wigprop.spectral import (SpectralStepConfig, _apply_kick, _kick_phase,
                              _kick_multiplier_first_order, _transfer_matrices,
                              drift, kick_full, step_first_order, step_full,
                              step_separable)

GRID = make_grid(-8, 8, 64, -8, 8, 64)


class UnhashableWell(Potential):
    """A well whose depth can be changed in place; it cannot be
    hashed, so it can never be a memo key."""

    __hash__ = None

    def __init__(self, depth: float):
        self.depth = depth

    def value(self, x):
        return GaussianWell(depth=self.depth, sigma=2.0).value(x)


@pytest.fixture(autouse=True)
def empty_memo():
    spectral._MEMO.clear()
    yield
    spectral._MEMO.clear()


def blob(grid, x0=1.0, p0=0.0):
    x = grid.x_lattice[:, None]
    p = grid.p_lattice[None, :]
    return WignerField(grid=grid,
                       values=2.0 * np.exp(-(x - x0) ** 2 - (p - p0) ** 2))


def _sym_nyquist(phase, axis):
    idx = [slice(None)] * phase.ndim
    idx[axis] = phase.shape[axis] // 2
    phase[tuple(idx)] = phase[tuple(idx)].real
    return phase


def reference_step(field, pot, dt, mass=1.0, variant="full"):
    """Drift then kick through complex transforms of the full spectrum."""
    g = field.grid
    kx = 2.0 * np.pi * np.fft.fftfreq(g.nx, g.dx)
    shift = g.p_lattice * dt / mass
    phase = _sym_nyquist(np.exp(-1j * kx[:, None] * shift[None, :]), axis=0)
    values = np.fft.ifft(np.fft.fft(field.values, axis=0) * phase, axis=0).real
    x = g.x_lattice[:, None]
    s = g.s_lattice[None, :]
    delta_v = pot.value(x - s / 2.0) - pot.value(x + s / 2.0)
    if variant == "full":
        mult = np.exp(-1j * delta_v * dt)
    else:
        mult = 1.0 - 1j * delta_v * dt + 0j
    mult = _sym_nyquist(mult, axis=1)
    return np.fft.ifft(np.fft.fft(values, axis=1) * mult, axis=1).real


def rebuilt_step(field, pot, cfg):
    """step_full with the kick built afresh, bypassing the memo."""
    drifted = drift(field, cfg.dt, cfg.mass)
    values, _ = _apply_kick(drifted.values, _kick_phase(field.grid, pot, cfg.dt))
    return WignerField(grid=field.grid, values=values, time=field.time + cfg.dt)


def max_rel(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def kick_keys():
    return [key for key in spectral._MEMO if key[0].startswith("kick")]


class TestMemoSafety:
    def test_distinct_static_potentials_never_share_an_entry(self):
        pots = [Harmonic(k=1.0), Harmonic(k=2.0), Linear(g=1.0),
                GaussianWell(depth=1.0, sigma=3.0),
                GaussianWell(depth=1.0, sigma=2.0)]
        cfg = SpectralStepConfig(dt=0.1)
        f = blob(GRID)
        for _ in range(2):      # the second pass is served from the memo
            for pot in pots:
                got = step_full(f, pot, cfg)
                want = rebuilt_step(f, pot, cfg)
                assert max_rel(got.values, want.values) <= 1e-14
        entries = [spectral._MEMO[key] for key in kick_keys()]
        assert len(entries) == len(pots)
        assert len({id(e) for e in entries}) == len(pots)

    def test_equal_potentials_share_an_entry(self):
        cfg = SpectralStepConfig(dt=0.1)
        step_full(blob(GRID), Harmonic(k=1.0), cfg)
        step_full(blob(GRID), Harmonic(k=1.0), cfg)
        assert len(kick_keys()) == 1

    def test_variants_and_step_sizes_never_share_an_entry(self):
        pot = Harmonic(k=1.0)
        f = blob(GRID)
        for dt, variant, stepper in ((0.1, "full", step_full), (0.2, "full", step_full),
                                     (0.1, "first_order", step_first_order)):
            got = stepper(f, pot, SpectralStepConfig(dt=dt))
            want = reference_step(f, pot, dt, variant=variant)
            assert max_rel(got.values, want) <= 1e-12
        assert len(kick_keys()) == 3

    # equal terms on both axes still keep one entry per axis
    @pytest.mark.parametrize("pot", [SeparableSum((GaussianWell(depth=1.0, sigma=2.0),) * 2),
                                     SeparableSum((Harmonic(k=1.0), Linear(g=0.5)))])
    def test_separable_variants_never_share_an_entry(self, pot):
        axis = make_grid(-6, 6, 8, -6, 6, 8)
        grid = PhaseSpaceGridND((axis, axis))
        f = WignerFieldND(grid=grid, values=np.random.default_rng(3).random(grid.shape()))
        for _ in range(2):      # the second pass is served from the memo
            for variant, stepper in (("full", step_full),
                                     ("first_order", step_first_order)):
                cfg = SpectralStepConfig(dt=0.1)
                got = stepper(f, pot, cfg)
                want = rfft_step_separable(f, pot, cfg, variant)
                assert max_rel(got.values, want) <= 1e-12
        # one matrix set per axis and variant
        assert len(kick_keys()) == 4

    @pytest.mark.parametrize("d", [2, 3])
    def test_nd_kick_matrices_are_those_of_the_1d_kicks(self, d):
        # the kick along p_j is term j's 1-d multiplier on axis j, as a
        # matrix per x_j (transposed on the last axis), bit for bit
        axes = [make_grid(-6, 6, 8, -5, 5, 16), make_grid(-4, 4, 4, -3, 3, 8),
                make_grid(-5, 5, 16, -4, 4, 4)][:d]
        grid = PhaseSpaceGridND(tuple(axes))
        pot = SeparableSum((Harmonic(k=1.0), GaussianWell(depth=1.0, sigma=2.0),
                            Linear(g=0.5))[:d])
        f = WignerFieldND(grid=grid, values=np.random.default_rng(4).random(grid.shape()))
        cfg = SpectralStepConfig(dt=0.1)
        for variant, stepper, build in (
                ("full", step_full, _kick_phase),
                ("first_order", step_first_order, _kick_multiplier_first_order)):
            stepper(f, pot, cfg)
            for j, (g, term) in enumerate(zip(axes, pot.terms)):
                got = spectral._MEMO[("kick_nd", variant, grid, pot, cfg.dt, j)]
                want = _transfer_matrices(build(g, term, cfg.dt), 1, g.np,
                                          right=j == d - 1)
                assert got.shape == (g.nx, g.np, g.np)
                assert np.array_equal(got, want)

    def test_unhashable_potential_is_rebuilt(self):
        pot = UnhashableWell(depth=1.0)
        cfg = SpectralStepConfig(dt=0.1)
        f = blob(GRID)
        step_full(f, pot, cfg)
        pot.depth = 2.0
        got = step_full(f, pot, cfg)
        want = reference_step(f, GaussianWell(depth=2.0, sigma=2.0), cfg.dt)
        assert max_rel(got.values, want) <= 1e-12
        assert kick_keys() == []

    def test_unhashable_term_makes_separable_kick_rebuilt(self):
        # a sum that holds an unhashable term cannot be a key either, so
        # its kick matrices are rebuilt and a change made in place is seen
        axis = make_grid(-6, 6, 8, -6, 6, 8)
        grid = PhaseSpaceGridND((axis, axis))
        well = UnhashableWell(depth=1.0)
        f = WignerFieldND(grid=grid, values=np.random.default_rng(5).random(grid.shape()))
        cfg = SpectralStepConfig(dt=0.1)
        step_full(f, SeparableSum((well, Harmonic(k=1.0))), cfg)
        well.depth = 2.0
        got = step_full(f, SeparableSum((well, Harmonic(k=1.0))), cfg)
        want = rfft_step_separable(f, SeparableSum((GaussianWell(depth=2.0, sigma=2.0),
                                                    Harmonic(k=1.0))), cfg)
        assert max_rel(got.values, want) <= 1e-12
        assert kick_keys() == []

    def test_memo_is_bounded(self):
        cfg = SpectralStepConfig(dt=0.1)
        f = blob(GRID)
        for c in range(2 * spectral._MEMO_SIZE):
            step_full(f, Harmonic(k=float(c)), cfg)
        assert len(spectral._MEMO) == spectral._MEMO_SIZE

    def test_memo_is_bounded_by_bytes(self, monkeypatch):
        cfg = SpectralStepConfig(dt=0.1)
        f = blob(GRID)
        step_full(f, Harmonic(k=0.0), cfg)
        entry = max(m.nbytes for m in spectral._MEMO.values())
        spectral._MEMO.clear()
        monkeypatch.setattr(spectral, "_MEMO_BYTES", 3 * entry)
        pots = [Harmonic(k=float(c)) for c in range(6)]
        for pot in pots:
            got = step_full(f, pot, cfg)
            want = reference_step(f, pot, cfg.dt)
            assert max_rel(got.values, want) <= 1e-12
            assert sum(m.nbytes for m in spectral._MEMO.values()) <= 3 * entry
        # the oldest entries went first, so the newest kicks are kept
        kept = [key[3] for key in kick_keys()]
        assert len(kept) >= 2 and kept == pots[-len(kept):]

        # an array larger than the whole budget is used but never kept
        spectral._MEMO.clear()
        monkeypatch.setattr(spectral, "_MEMO_BYTES", entry - 1)
        got = step_full(f, pots[1], cfg)
        assert max_rel(got.values, reference_step(f, pots[1], cfg.dt)) <= 1e-12
        assert spectral._MEMO == {}

    def test_cached_multipliers_are_read_only(self):
        step_full(blob(GRID), Harmonic(k=1.0), SpectralStepConfig(dt=0.1))
        assert spectral._MEMO
        assert not any(m.flags.writeable for m in spectral._MEMO.values())


# ---------------------------------------------------------------------------
# properties of the half-spectrum step over generated grids and potentials
# ---------------------------------------------------------------------------

POTENTIALS = st.one_of(
    st.builds(Constant, c=st.floats(-5.0, 5.0)),
    st.builds(Linear, g=st.floats(-3.0, 3.0)),
    st.builds(Harmonic, k=st.floats(0.0, 3.0)),
    st.builds(GaussianWell, depth=st.floats(-2.0, 2.0),
              sigma=st.floats(0.3, 5.0)),
)


@st.composite
def cases(draw):
    sizes = st.sampled_from([8, 16, 32, 64])
    x_half = draw(st.floats(2.0, 12.0))
    p_half = draw(st.floats(2.0, 12.0))
    grid = make_grid(-x_half, x_half, draw(sizes), -p_half, p_half, draw(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # positive samples keep the norm well away from zero
    field = WignerField(grid=grid, values=rng.random(grid.shape()))
    return (field, draw(POTENTIALS), draw(st.floats(1e-3, 0.5)),
            draw(st.floats(0.2, 5.0)))


PROPERTY = settings(max_examples=60, deadline=None, database=None)


class TestHalfSpectrumProperties:
    @PROPERTY
    @given(cases())
    def test_steps_match_complex_reference(self, case):
        field, pot, dt, mass = case
        for variant, stepper in (("full", step_full),
                                 ("first_order", step_first_order)):
            cfg = SpectralStepConfig(dt=dt, mass=mass)
            want = reference_step(field, pot, dt, mass, variant)
            for _ in range(2):      # built, then served from the memo
                got = stepper(field, pot, cfg)
                assert max_rel(got.values, want) <= 1e-12

    @PROPERTY
    @given(cases())
    def test_norm_conserved(self, case):
        field, pot, dt, mass = case
        norm0 = norm(field)
        for stepper in (step_full, step_first_order):
            out = stepper(field, pot, SpectralStepConfig(dt=dt, mass=mass))
            assert abs(norm(out) - norm0) <= 1e-12 * abs(norm0)

    @PROPERTY
    @given(cases())
    def test_kick_keeps_momentum_marginal_at_every_x(self, case):
        field, pot, dt, _ = case
        before = field.values.sum(axis=1)
        full = kick_full(field, pot, dt).values
        first, _ = _apply_kick(field.values, _kick_multiplier_first_order(
            field.grid, pot, dt))
        for after in (full, first):
            err = np.abs(after.sum(axis=1) - before).max()
            assert err <= 1e-12 * np.abs(before).max()


# ---------------------------------------------------------------------------
# the separable step's transfer matrices against its rfft formulation
# ---------------------------------------------------------------------------

def axis_shape(total, axis, n):
    shape = [1] * total
    shape[axis] = n
    return shape


def real_half_nyquist(phase, axis):
    """The Nyquist bin, last on a half spectrum, kept at its real part."""
    idx = [slice(None)] * phase.ndim
    idx[axis] = -1
    phase[tuple(idx)] = phase[tuple(idx)].real
    return phase


def separable_value(pot, coords):
    """sum_i V_i(x_i) of a separable sum, one broadcastable array per axis."""
    return sum(term.value(c) for term, c in zip(pot.terms, coords))


def on_axis_kick_phase(grid, pot, dt, j, variant="full"):
    """exp(-i [V(x - s_j e_j / 2) - V(x + s_j e_j / 2)] dt), or its first-order
    truncation, on the s_j >= 0 half from V = sum_i V_i(x_i) over the whole
    x lattice, Nyquist bin kept real."""
    d = grid.ndim
    coords = [g.x_lattice.reshape(axis_shape(2 * d, i, g.nx))
              for i, g in enumerate(grid.axes)]
    g = grid.axes[j]
    half = g.np // 2 + 1
    s = g.s_lattice[:half].reshape(axis_shape(2 * d, d + j, half))
    minus, plus = list(coords), list(coords)
    minus[j] = coords[j] - s / 2.0
    plus[j] = coords[j] + s / 2.0
    delta_v = separable_value(pot, minus) - separable_value(pot, plus)
    if variant == "full":
        phase = np.exp(-1j * delta_v * dt) + 0j
    else:
        phase = 1.0 - 1j * delta_v * dt + 0j
    return real_half_nyquist(phase, axis=d + j)


def rfft_step_separable(field, pot, cfg, variant="full"):
    """A 2-d/3-d step as one rfft/irfft pair per sub-step and axis: the
    drift multiplies the x_j half spectrum by the 1-d drift phase, the
    kick the p_j half spectrum by the variant's on-axis kick multiplier."""
    grid = field.grid
    d = grid.ndim
    values = field.values
    for j, g in enumerate(grid.axes):
        kx = 2.0 * np.pi * np.fft.rfftfreq(g.nx, g.dx)
        phase = real_half_nyquist(np.exp(-1j * kx[:, None] * g.p_lattice[None, :]
                                         * cfg.dt / cfg.mass), axis=0)
        shape = axis_shape(2 * d, j, phase.shape[0])
        shape[d + j] = g.np
        values = np.fft.irfft(np.fft.rfft(values, axis=j) * phase.reshape(shape),
                              n=g.nx, axis=j)
    for j, g in enumerate(grid.axes):
        phase = on_axis_kick_phase(grid, pot, cfg.dt, j, variant)
        values = np.fft.irfft(np.fft.rfft(values, axis=d + j) * phase,
                              n=g.np, axis=d + j)
    return values


#: Largest lattice (values per field) the separable property draws.
SEPARABLE_CELLS = 2**18


@st.composite
def separable_cases(draw):
    d = draw(st.sampled_from([2, 3]))
    lengths = []
    for k in range(2 * d):
        room = SEPARABLE_CELLS // (math.prod(lengths) * 4 ** (2 * d - k - 1))
        lengths.append(draw(st.sampled_from([n for n in (4, 8, 16, 32) if n <= room])))
    lengths = draw(st.permutations(lengths))
    axes = tuple(make_grid(-draw(st.floats(2.0, 12.0)), draw(st.floats(2.0, 12.0)),
                           lengths[j],
                           -draw(st.floats(2.0, 12.0)), draw(st.floats(2.0, 12.0)),
                           lengths[d + j])
                 for j in range(d))
    grid = PhaseSpaceGridND(axes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    field = WignerFieldND(grid=grid, values=rng.random(grid.shape()))
    pot = SeparableSum(tuple(draw(POTENTIALS) for _ in range(d)))
    cfg = SpectralStepConfig(dt=draw(st.floats(1e-3, 0.5)), mass=draw(st.floats(0.2, 5.0)))
    return field, pot, cfg, draw(st.sampled_from(["full", "first_order"]))


@settings(max_examples=40, deadline=None, database=None)
@given(separable_cases())
def test_separable_step_matches_rfft_formulation(case):
    field, pot, cfg, variant = case
    before = field.values.copy()
    separable = lambda f, pot, cfg: step_separable(f, pot, 0.0, cfg)
    steppers = (step_full, separable) if variant == "full" else (step_first_order,)
    # other step sizes and masses share the memo but never an entry
    for cfg in (cfg, replace(cfg, dt=cfg.dt / 2), replace(cfg, mass=2 * cfg.mass)):
        want = rfft_step_separable(field, pot, cfg, variant)
        for stepper in steppers * 2:    # built, then served from the memo
            got = stepper(field, pot, cfg)
            assert np.abs(got.values - want).max() <= 1e-12 * np.abs(want).max()
            assert got.time == field.time + cfg.dt
    assert np.array_equal(field.values, before)
