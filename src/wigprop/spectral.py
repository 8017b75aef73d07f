"""Explicit spectral propagator: drift-kick split steps through the
conjugate s-lattice, on lattices of 1, 2 or 3 dimensions.

One step advances the field by dt in two exact sub-maps: free streaming
along every x_j (each constant-p line translated by p_j*dt/m) and a
momentum kernel along every p_j (multiply the p_j-spectrum by the
unimodular phase exp(-i [V_j(x_j - s_j/2) - V_j(x_j + s_j/2)] dt / hbar),
or by its first-order truncation in ``step_first_order``).  V_1 is
the potential of a 1-d lattice; a 2-d/3-d lattice steps only under a
``SeparableSum`` of one term V_j per axis, for which these kicks are
exact.  The phase is conjugate-symmetric under s -> -s because the
potential difference is odd in s, and the drift phase exp(-i kx p dt/m)
is conjugate-symmetric under kx -> -kx, so real fields stay real.  Each
sub-map therefore multiplies half spectra: the n//2 + 1 non-negative-
frequency bins of the multiplier, with the unpaired Nyquist bin kept at
the real part of its multiplier for the same reason.  The s = 0 component
is untouched by the kick, which conserves the momentum marginal at every
x exactly.  Each sub-map is one function for every dimension,
``_drift_values`` or ``_kick_values``; a step is the drift followed by the
kick, and ``drift`` and ``kick_full`` apply one sub-map to a field of any
dimension.  The variant is the function called, ``step_full`` or
``step_first_order``, and ``phasespace.evolve`` runs either.

The multipliers depend only on the grid, dt and the mass (drift) or the
potential and variant (kick), so each is built once and kept in a small
module-level memo, bounded in entries and in bytes, that every step
function consults; callers hold no plan object.  Potentials are functions
of x alone, cached by value: equal ones share a kick, an unhashable one
gets its kick rebuilt at every step, and no step takes a time.

The grid's dimension picks how the multipliers are applied.  On a 1-d
lattice a sub-map is numpy.fft.rfft along its axis, the multiply and irfft
back, so the field is real at every stage.  On a 2-d/3-d lattice each 1-d
multiplier m along an axis of n points, a circular convolution with
c = irfft(m), becomes the n x n matrices T[i, k] = c[(i - k) mod n], one
per p_j for the drift of x_j and one per x_j for the kick along p_j.  The
drift copies the field into (p, x) order, multiplies every x_j line by its
drift matrices with batched np.matmul and copies it back into (x, p)
order; the kick multiplies every p_j line by its kick matrices.  The lattice holds
n^(2d) values, so its axes are short, and on lines of 32 points
pocketfft's per-line overhead costs more than the extra arithmetic of a
dense 32 x 32 product: a 32^4 step takes under a third of its rfft/irfft
time.  The matrices are memoized like the multipliers, n^3 values per
axis (256 KiB at n = 32).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.fft import irfft, rfft

from .phasespace import HBAR, PhaseSpaceGrid, WignerField, check_mass
from .potentials import Potential, SeparableSum

#: The kick multiplier builder of each variant.  Each entry looks up the
#: module-level builder when called, so a rebinding of that name (as
#: bench/tracer.py makes) reaches every kick.
_KICK_BUILDERS = {"full": lambda *args: _kick_phase(*args),
                  "first_order": lambda *args: _kick_multiplier_first_order(*args)}


@dataclass(frozen=True)
class SpectralStepConfig:
    dt: float
    mass: float = 1.0

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        check_mass(self.dt, self.mass)


#: Most arrays the memo holds; the oldest entries are dropped beyond it.
_MEMO_SIZE = 16
#: Most bytes the memo holds, likewise: room for five 512^2 backtrack
#: stencils of 6 MiB.
_MEMO_BYTES = 32 * 2**20
_MEMO: dict = {}


def _memoized(key, build) -> np.ndarray:
    """build() stored under key, or built afresh when key cannot be hashed
    or the array alone exceeds _MEMO_BYTES.

    The one memo of lattice arrays: the drift and kick multipliers and
    transfer matrices here, and the pseudoparticle backtrack stencils and
    third-derivative multiplier.  A key starts with the name of what it
    holds and carries everything the array depends on, the potential by
    value; stored arrays are read-only.  Entries are dropped oldest first
    until both _MEMO_SIZE and _MEMO_BYTES hold."""
    try:
        out = _MEMO.get(key)
    except TypeError:
        return build()
    if out is None:
        out = build()
        out.setflags(write=False)
        if out.nbytes > _MEMO_BYTES:
            return out
        while _MEMO and (len(_MEMO) >= _MEMO_SIZE or out.nbytes + sum(
                a.nbytes for a in _MEMO.values()) > _MEMO_BYTES):
            _MEMO.pop(next(iter(_MEMO)))
        _MEMO[key] = out
    return out


def _real_nyquist(multiplier: np.ndarray, axis: int) -> np.ndarray:
    # the Nyquist bin (last of the half spectrum) has no conjugate partner;
    # keeping only the real part of its multiplier keeps real input exactly
    # real, as irfft assumes
    idx = [slice(None)] * multiplier.ndim
    idx[axis] = -1
    multiplier[tuple(idx)] = multiplier[tuple(idx)].real
    return multiplier


def _apply_half(values: np.ndarray, multiplier: np.ndarray, axis: int) -> np.ndarray:
    """Multiply the half spectrum of a real array along axis; real result."""
    spectrum = rfft(values, axis=axis)
    spectrum *= multiplier
    return irfft(spectrum, n=values.shape[axis], axis=axis)


def _drift_phase(grid, dt: float, mass: float) -> np.ndarray:
    """exp(-i kx p dt/m) on the kx >= 0 half, shape (nx//2 + 1, np)."""
    g = grid.axes[0]
    kx = 2.0 * np.pi * np.fft.rfftfreq(g.nx, g.dx)
    shift = g.p_lattice * dt / mass
    return _real_nyquist(np.exp(-1j * kx[:, None] * shift[None, :]), axis=0)


def _spectral_shift_rows(values: np.ndarray, grid: PhaseSpaceGrid,
                         dt: float, mass: float) -> tuple[np.ndarray, float]:
    """values(x - p*dt/m, p) via an x-FFT phase, periodic wrap; irfft
    returns a real array, so its imaginary residue is 0.0."""
    phase = _memoized(("drift", grid, dt, mass), lambda: _drift_phase(grid, dt, mass))
    return _apply_half(values, phase, axis=0), 0.0


def _drift_values(values: np.ndarray, grid, dt: float, mass: float) -> np.ndarray:
    """values drifted by dt: every x_j shifted by p_j dt/m, wrapping
    periodically.  By rfft along x on a 1-d lattice; on a larger one by the
    drift matrices of each x_j, batched over p, in (p, x) order between two
    swaps of the halves."""
    if grid.ndim == 1:
        return _spectral_shift_rows(values, grid, dt, mass)[0]
    # two buffers, each sub-step reading one and writing the other; a fresh
    # array per sub-step costs more in page faults than its GEMMs take
    spare = np.empty(values.size)
    values = _swap_halves(values, np.empty(values.size))
    for j, g in enumerate(grid.axes):
        right = j == grid.ndim - 1
        mats = _memoized(("drift_nd", g, dt, mass, right),
                         lambda: _transfer_matrices(_drift_phase(g, dt, mass), 0, g.nx,
                                                    right))
        values, spare = _apply_matrices(values, mats, j, spare), values
    return _swap_halves(values, spare)


def drift(field_in: WignerField, dt: float, mass: float = 1.0) -> WignerField:
    """Free streaming for one time increment: the field at momentum p_j
    shifts by p_j*dt/m along x_j, through the exact phase in the
    x_j-conjugate domain, wrapping periodically.  Serves every dimension."""
    values = _drift_values(field_in.values, field_in.grid, dt, mass)
    return replace(field_in, values=values)


def _axis_terms(grid, pot) -> tuple[Potential, ...]:
    """The 1-d potential that kicks along each p_j: the terms of a separable
    sum with one term per axis, or pot itself on a 1-d lattice; any other
    pot raises ``ValueError``, since on-axis kicks drop its cross terms."""
    d = grid.ndim
    if isinstance(pot, SeparableSum):
        if len(pot.terms) != d:
            raise ValueError(f"a separable sum of {len(pot.terms)} terms cannot "
                             f"act on a {d}-d lattice")
        return pot.terms
    if d != 1:
        raise ValueError(f"a {d}-d lattice steps under a SeparableSum with one "
                         f"term per axis only, not {type(pot).__name__}")
    return (pot,)


def _delta_v(grid, pot) -> np.ndarray:
    """V(x - s/2) - V(x + s/2) on the s >= 0 half, shape (nx, np//2 + 1),
    for a 1-d potential on the first axis of grid."""
    g = grid.axes[0]
    x = g.x_lattice[:, None]
    s = g.s_lattice[None, :g.np // 2 + 1]
    return pot.value(x - s / 2.0) - pot.value(x + s / 2.0)


def _kick_phase(grid, pot, dt: float) -> np.ndarray:
    """The kick phase exp(-i dV dt / hbar), with dV from ``_delta_v``."""
    return _real_nyquist(np.exp(-1j * _delta_v(grid, pot) * dt / HBAR), axis=1)


def _kick_multiplier_first_order(grid, pot, dt: float) -> np.ndarray:
    # truncating the kernel phase at first order in dt is the convolution
    # of the drifted field with the odd potential-difference transform
    return _real_nyquist(1.0 - 1j * _delta_v(grid, pot) * dt / HBAR + 0j, axis=1)


def _apply_kick(values: np.ndarray, multiplier: np.ndarray) -> tuple[np.ndarray, float]:
    """values with the half-spectrum multiplier applied along p; irfft
    returns a real array, so its imaginary residue is 0.0."""
    return _apply_half(values, multiplier, axis=1), 0.0


def _kick_values(values: np.ndarray, grid, pot, dt: float, variant: str) -> np.ndarray:
    """values kicked by dt: every p_j by the variant's multiplier of term j
    of pot (``_axis_terms``).  By rfft along p on a 1-d lattice; on a
    larger one by the kick matrices of each p_j, batched over x.  The kicks
    of different axes commute, so under a sum of 1-d terms their sequential
    product is the exact kick.  A writable values serves as a buffer of the
    matrix products; a read-only one is never written."""
    terms = _axis_terms(grid, pot)
    build = _KICK_BUILDERS[variant]
    if grid.ndim == 1:
        multiplier = _memoized(("kick", variant, grid, terms[0], dt),
                               lambda: build(grid, terms[0], dt))
        return _apply_kick(values, multiplier)[0]
    spare = np.empty(values.size)
    for j, (g, term) in enumerate(zip(grid.axes, terms)):
        mats = _memoized(("kick_nd", variant, grid, pot, dt, j),
                         lambda: _transfer_matrices(build(g, term, dt), 1, g.np,
                                                    j == grid.ndim - 1))
        values, spare = _apply_matrices(values, mats, j, spare), (
            values if values.flags.writeable else np.empty(values.size))
    return values


def kick_full(field_in: WignerField, pot: Potential, dt: float) -> WignerField:
    """Momentum kernel for one time increment, on a lattice of any
    dimension.

    Per x-column: transform p -> s, multiply exp(-i dV(x, s) dt / hbar)
    with dV(x, s) = V(x - s/2) - V(x + s/2), transform back.  This
    is the complex form of the cosine/sine transform pair; the real part
    of the product reproduces that pair term by term.  A 2-d/3-d lattice
    takes a ``SeparableSum`` with one term per axis, and each p_j gets the
    kernel of its term.
    """
    values = _kick_values(field_in.values, field_in.grid, pot, dt, "full")
    return replace(field_in, values=values)


def _drift_kick(field_in: WignerField, pot, cfg: SpectralStepConfig,
                variant: str) -> WignerField:
    """The drift, then the variant's kick; time advances by cfg.dt.  A
    potential the lattice cannot kick raises before the drift runs."""
    _axis_terms(field_in.grid, pot)
    drifted = _drift_values(field_in.values, field_in.grid, cfg.dt, cfg.mass)
    kicked = _kick_values(drifted, field_in.grid, pot, cfg.dt, variant)
    return replace(field_in, values=kicked, time=field_in.time + cfg.dt)


def step_full(field_in: WignerField, pot: Potential,
              cfg: SpectralStepConfig) -> WignerField:
    """One full explicit step: drift, then kick; time advances by cfg.dt."""
    return _drift_kick(field_in, pot, cfg, "full")


def step_first_order(field_in: WignerField, pot: Potential,
                     cfg: SpectralStepConfig) -> WignerField:
    """First-order-in-dt variant: drift plus the linearized kernel.

    Valid while dt * |V| / hbar stays well below one; the full variant has
    no such restriction.
    """
    return _drift_kick(field_in, pot, cfg, "first_order")


# ---------------------------------------------------------------------------
# transfer matrices of the 2-d/3-d steps
# ---------------------------------------------------------------------------

def _transfer_matrices(multiplier: np.ndarray, axis: int, n: int,
                       right: bool) -> np.ndarray:
    """Real n x n matrices, one per index of the multiplier's other axis
    (shape (m, n, n)): T with T @ v == irfft(multiplier * rfft(v), n) along
    axis, or with right its transpose, which acts on row vectors from the
    right.

    The half-spectrum multiply is a circular convolution with
    c = irfft(multiplier), so T[i, k] = c[(i - k) mod n]."""
    kernel = np.moveaxis(irfft(multiplier, n=n, axis=axis), axis, -1)
    lag = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return np.take(kernel, lag.T if right else lag, axis=-1)


def _apply_matrices(values: np.ndarray, mats: np.ndarray, j: int,
                    out: np.ndarray) -> np.ndarray:
    """values indexed (b_1 ... b_d, a_1 ... a_d), with axis a_j multiplied by
    the matrices mats[b_j] (shape (n_bj, n, n), broadcast over the other b),
    written into the contiguous buffer out and returned in values' shape.

    Every batch index is one small GEMM; the last axis is the row index of
    its GEMMs, so its matrices come transposed and multiply from the right."""
    d = values.ndim // 2
    shape = values.shape
    n = shape[d + j]
    mats = mats.reshape((1,) * j + (-1,) + (1,) * (d - j - 1) + (n, n))
    before = math.prod(shape[d:d + j])
    if j == d - 1:
        core = shape[:d] + (before, n)
        np.matmul(values.reshape(core), mats, out=out.reshape(core))
    else:
        core = shape[:d] + (before, n, math.prod(shape[d + j + 1:]))
        np.matmul(mats[..., None, :, :], values.reshape(core), out=out.reshape(core))
    return out.reshape(shape)


#: Rows per block when _swap_halves transposes: a block's strided writes
#: stay in cache.  A 32^4 swap (2-vCPU x86-64, numpy 2.4.6, medians of 400
#: interleaved calls) took 1.78 ms in 64-row blocks, 2.44 ms in 32-row and
#: 2.47 ms in 128-row ones, and 10.1 ms as one numpy transposing copy.
_SWAP_ROWS = 64


def _swap_halves(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(x_1 ... x_d, p_1 ... p_d) <-> (p_1 ... p_d, x_1 ... x_d), written
    into the contiguous buffer out and returned in the swapped shape."""
    d = values.ndim // 2
    rows = math.prod(values.shape[:d])
    flat = values.reshape(rows, -1)
    swapped = out.reshape(flat.shape[::-1])
    for i in range(0, rows, _SWAP_ROWS):
        swapped[:, i:i + _SWAP_ROWS] = flat[i:i + _SWAP_ROWS].T
    return out.reshape(values.shape[d:] + values.shape[:d])


def step_separable(field_in: WignerField, pot, t: float,
                   cfg: SpectralStepConfig) -> WignerField:
    """``step_full`` on 2-d/3-d lattices only, under a ``SeparableSum``
    with one term per axis; ``t`` is ignored (kept for positional callers)."""
    if field_in.grid.ndim not in (2, 3):
        raise ValueError("separable stepping supports 2 or 3 dimensions only")
    return _drift_kick(field_in, pot, cfg, "full")
