"""Explicit spectral propagator: drift-kick split steps through the
conjugate s-lattice, on lattices of 1, 2 or 3 dimensions.

One step advances the field by dt in two exact sub-maps: free streaming
along every x_j (each constant-p line translated by p_j*dt/m) and a
momentum kernel along every p_j (multiply the p_j-spectrum by the
unimodular phase exp(-i [V(x - s_j e_j/2) - V(x + s_j e_j/2)] dt / hbar),
or by its first-order truncation in the ``first_order`` variant).  The
phase is conjugate-symmetric under s -> -s because the potential
difference is odd in s, and the drift phase exp(-i kx p dt/m) is
conjugate-symmetric under kx -> -kx, so real fields stay real.  Each
sub-map therefore multiplies half spectra: the n//2 + 1 non-negative-
frequency bins of the multiplier, with the unpaired Nyquist bin kept at
the real part of its multiplier for the same reason.  The s = 0 component
is untouched by the kick, which conserves the momentum marginal at every
x exactly.  One step body serves every dimension and both variants.

The multipliers depend only on the grid, dt and the mass (drift) or the
potential and variant (kick), so each is built once and kept in a small
module-level memo, bounded in entries and in bytes, that every step
function consults; callers hold no plan object.  A kick is memoized only
for a potential that declares ``time_dependent = False`` and can be
hashed; any other potential gets its kick rebuilt at every step time, so
the memo never serves a kick built at another time.

The grid's dimension picks how the multipliers are applied.  On a 1-d
lattice a sub-map is numpy.fft.rfft along its axis, the multiply and irfft
back, so the field is real at every stage; on a 2-d/3-d lattice it is a
product of real matrices.  Multiplying the half spectrum along an axis of
n points by m is a circular convolution with c = irfft(m), that is the
n x n matrix T[i, k] = c[(i - k) mod n], one for each index of the axes
m depends on: each momentum p_j for the drift of x_j; for the kick along
p_j, each x_j under a separable sum (whose kick multiplier is the 1-d one
of its term j) and each lattice point x under any other potential.  A step
copies the field into (p, x) order, multiplies every x_j line by its drift
matrices with batched np.matmul, copies it back into (x, p) order and
multiplies every p_j line by its kick matrices.  The axes are short by
necessity, since the lattice holds n^(2d) values, and on lines of 32
points pocketfft's per-line overhead costs more than the extra arithmetic
of a dense 32 x 32 product: a 32^4 step takes under a third of its
rfft/irfft time.  The matrices of a static potential are memoized like the
multipliers.  They hold n^3 values per axis for the drift and for a
separable kick (256 KiB at n = 32), but n^(d+2) for the kick of a
non-separable potential (8 MiB per axis at 32^4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.fft import irfft, rfft

# NORM_DRIFT_WARN and StepDiagnostics are re-exported with EvolveResult
from .phasespace import (HBAR, NORM_DRIFT_WARN, EvolveResult, PhaseSpaceGrid,
                         StepDiagnostics, WignerField, step_size,
                         truncate_real)
from .phasespace import evolve as _drive
from .potentials import Potential, SeparableSum

_VARIANTS = ("full", "first_order")


@dataclass(frozen=True)
class SpectralStepConfig:
    dt: float
    mass: float = 1.0
    variant: str = "full"

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")


#: Most arrays the memo holds; the oldest entries are dropped beyond it.
_MEMO_SIZE = 16
#: Most bytes the memo holds, likewise: room for the two 8 MiB kick
#: matrix sets of a 32^4 step under a non-separable potential, or for
#: five 512^2 backtrack stencils of 6 MiB.
_MEMO_BYTES = 32 * 2**20
_MEMO: dict = {}


def _memoized(key, build, static: bool = True) -> np.ndarray:
    """build() stored under key, or built afresh when the array may change
    with time (static false), key cannot be hashed, or the array alone
    exceeds _MEMO_BYTES.

    The one memo of time-independent lattice arrays: the drift and kick
    multipliers and transfer matrices here, and the pseudoparticle
    backtrack stencils and third-derivative multiplier.  A key starts
    with the name of what it holds and carries everything the array
    depends on; stored arrays are read-only.  Entries are dropped oldest
    first until both _MEMO_SIZE and _MEMO_BYTES hold."""
    if not static:
        return build()
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


def _is_static(pot) -> bool:
    return not getattr(pot, "time_dependent", True)


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
    """values(x - p*dt/m, p) via an x-FFT phase, periodic wrap."""
    phase = _memoized(("drift", grid, dt, mass), lambda: _drift_phase(grid, dt, mass))
    return truncate_real(_apply_half(values, phase, axis=0), context="spectral drift")


def _one_dimensional(field_in: WignerField, name: str) -> None:
    """Raise ``ValueError`` unless the field lives on a 1-d lattice."""
    d = field_in.grid.ndim
    if d != 1:
        raise ValueError(f"{name} steps 1-d lattices only, not a {d}-d one; "
                         f"a {d}-d field steps through spectral.step")


def drift(field_in: WignerField, dt: float, mass: float = 1.0) -> WignerField:
    """Free-streaming substitution: row at momentum p shifts by p*dt/m in x,
    through the exact phase in the x-conjugate domain, wrapping
    periodically.  A 1-d sub-step: an N-d field raises ``ValueError``."""
    _one_dimensional(field_in, "drift")
    values, _ = _spectral_shift_rows(field_in.values, field_in.grid, dt, mass)
    return WignerField(grid=field_in.grid, values=values, time=field_in.time)


def _axis_shape(total: int, axis: int, n: int) -> list[int]:
    shape = [1] * total
    shape[axis] = n
    return shape


def _delta_v(grid, pot, t: float, j: int = 0) -> np.ndarray:
    """V(x - s_j e_j / 2) - V(x + s_j e_j / 2) on the s_j >= 0 half, shaped
    to broadcast against the (x_1 ... x_d, p_1 ... p_d) field: on a 1-d
    grid, (nx, np//2 + 1).

    The terms of a separable sum other than term j cancel in the
    difference, so its difference is the 1-d one of term j on x_j alone."""
    d = grid.ndim
    g = grid.axes[j]
    half = g.np // 2 + 1
    if isinstance(pot, SeparableSum):
        shape = _axis_shape(2 * d, j, g.nx)
        shape[d + j] = half
        return _delta_v(g, pot.terms[j], t).reshape(shape)
    coords = [axis.x_lattice.reshape(_axis_shape(2 * d, i, axis.nx))
              for i, axis in enumerate(grid.axes)]
    s = g.s_lattice[:half].reshape(_axis_shape(2 * d, d + j, half))
    minus = list(coords)
    plus = list(coords)
    minus[j] = coords[j] - s / 2.0
    plus[j] = coords[j] + s / 2.0
    return pot.value_nd(minus, t) - pot.value_nd(plus, t)


def _kick_phase(grid, pot, t: float, dt: float, j: int = 0) -> np.ndarray:
    """The kick phase exp(-i dV dt / hbar) along p_j, with dV from
    ``_delta_v``."""
    return _real_nyquist(np.exp(-1j * _delta_v(grid, pot, t, j) * dt / HBAR),
                         axis=grid.ndim + j)


def _kick_multiplier_first_order(grid, pot, t: float, dt: float,
                                 j: int = 0) -> np.ndarray:
    # truncating the kernel phase at first order in dt is the convolution
    # of the drifted field with the odd potential-difference transform
    return _real_nyquist(1.0 - 1j * _delta_v(grid, pot, t, j) * dt / HBAR + 0j,
                         axis=grid.ndim + j)


def _kick_multiplier(grid, pot, t: float, dt: float, variant: str,
                     j: int = 0) -> np.ndarray:
    """The variant's kick along p_j: its half-spectrum multiplier on a 1-d
    grid, else one np_j x np_j transfer matrix per lattice point x (size 1 on
    the x axes the multiplier does not vary over; transposed for the last)."""
    build = _kick_phase if variant == "full" else _kick_multiplier_first_order
    d = grid.ndim

    def multiplier():
        m = build(grid, pot, t, dt, j)
        return m if d == 1 else _transfer_matrices(m, d + j, grid.axes[j].np,
                                                   m.shape[:d], right=j == d - 1)
    return _memoized(("kick" if d == 1 else "kick_nd", variant, grid, pot, dt, j),
                     multiplier, static=_is_static(pot))


def _apply_kick(values: np.ndarray, multiplier: np.ndarray) -> tuple[np.ndarray, float]:
    return truncate_real(_apply_half(values, multiplier, axis=1),
                         context="momentum kick")


def kick_full(field_in: WignerField, pot: Potential, t: float,
              dt: float) -> WignerField:
    """Momentum kernel for one time increment.

    Per x-column: transform p -> s, multiply exp(-i dV(x, s) dt / hbar)
    with dV(x, s) = V(x - s/2, t) - V(x + s/2, t), transform back.  This
    is the complex form of the cosine/sine transform pair; the real part
    of the product reproduces that pair term by term.  A 1-d sub-step: an
    N-d field raises ``ValueError``.
    """
    _one_dimensional(field_in, "kick_full")
    values, _ = _apply_kick(field_in.values,
                            _kick_multiplier(field_in.grid, pot, t, dt, "full"))
    return WignerField(grid=field_in.grid, values=values, time=field_in.time)


def _drift_kick(field_in: WignerField, pot, t: float, cfg: SpectralStepConfig,
                variant: str) -> WignerField:
    """Drift every x_j by p_j dt/m, then kick every p_j with the variant's
    multiplier, by rfft/irfft on a 1-d lattice and by matrices on a larger one.

    The potential difference along each axis j uses shifts s_j e_j only,
    dropping the cross terms that couple different axes; the per-axis
    kernels commute, so sequential application realizes their product.
    Exact when V is an additive sum of one-dimensional terms, and then a
    ``SeparableSum`` must have one term per axis."""
    grid = field_in.grid
    d = grid.ndim
    if isinstance(pot, SeparableSum) and len(pot.terms) != d:
        raise ValueError(f"a separable sum of {len(pot.terms)} terms cannot "
                         f"act on a {d}-d lattice")
    if d == 1:
        drifted, _ = _spectral_shift_rows(field_in.values, grid, cfg.dt, cfg.mass)
        values, _ = _apply_kick(drifted, _kick_multiplier(grid, pot, t, cfg.dt, variant))
        return WignerField(grid=grid, values=values, time=field_in.time + cfg.dt)

    # two buffers, each sub-step reading one and writing the other; a fresh
    # array per sub-step costs more in page faults than its GEMMs take
    spare = np.empty(field_in.values.size)
    values = _swap_halves(field_in.values, np.empty(field_in.values.size))

    # drift each x_j by its conjugate momentum p_j, batched over p
    for j, g in enumerate(grid.axes):
        right = j == d - 1
        mats = _memoized(("drift_nd", g, cfg.dt, cfg.mass, right),
                         lambda: _transfer_matrices(_drift_phase(g, cfg.dt, cfg.mass),
                                                    0, g.nx, (g.np,), right))
        values, spare = _apply_matrices(
            values, mats.reshape(_axis_shape(d, j, g.np) + [g.nx, g.nx]), j,
            spare), values

    # kick each p_j with the on-axis potential difference, batched over x
    values, spare = _swap_halves(values, spare), values
    for j in range(d):
        values, spare = _apply_matrices(
            values, _kick_multiplier(grid, pot, t, cfg.dt, variant, j), j,
            spare), values
    return WignerField(grid=grid, values=values, time=field_in.time + cfg.dt)


def step_full(field_in: WignerField, pot: Potential, t: float,
              cfg: SpectralStepConfig) -> WignerField:
    """One full explicit step: drift, then kick; time advances by cfg.dt."""
    return _drift_kick(field_in, pot, t, cfg, "full")


def step_first_order(field_in: WignerField, pot: Potential, t: float,
                     cfg: SpectralStepConfig) -> WignerField:
    """First-order-in-dt variant: drift plus the linearized kernel.

    Valid while dt * |V| / hbar stays well below one; the full variant has
    no such restriction.
    """
    return _drift_kick(field_in, pot, t, cfg, "first_order")


def step(field_in: WignerField, pot: Potential, t: float,
         cfg: SpectralStepConfig) -> WignerField:
    """One step of the variant that cfg.variant names."""
    if cfg.variant == "full":
        return step_full(field_in, pot, t, cfg)
    return step_first_order(field_in, pot, t, cfg)


def evolve(field_in: WignerField, pot: Potential, t0: float, t1: float,
           nsteps: int, cfg: SpectralStepConfig) -> EvolveResult:
    """``phasespace.evolve`` of ``step`` from t0 to t1 in nsteps steps of
    (t1 - t0) / nsteps, which overrides cfg.dt."""
    cfg = replace(cfg, dt=step_size(t0, t1, nsteps))
    return _drive(lambda f, t: step(f, pot, t, cfg), field_in, t0, cfg.dt, nsteps)


# ---------------------------------------------------------------------------
# transfer matrices of the 2-d/3-d steps
# ---------------------------------------------------------------------------

def _transfer_matrices(multiplier: np.ndarray, axis: int, n: int,
                       batch: tuple[int, ...], right: bool) -> np.ndarray:
    """Real n x n matrices, shape batch + (n, n), one per batch index: T with
    T @ v == irfft(multiplier * rfft(v), n) along axis, or with right its
    transpose, which acts on row vectors from the right.  Without axis, the
    multiplier's shape is batch with axes of size 1 inserted.

    The half-spectrum multiply is a circular convolution with
    c = irfft(multiplier), so T[i, k] = c[(i - k) mod n]."""
    kernel = np.moveaxis(irfft(multiplier, n=n, axis=axis), axis, -1)
    lag = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return np.take(kernel.reshape(batch + (n,)), lag.T if right else lag, axis=-1)


def _apply_matrices(values: np.ndarray, mats: np.ndarray, j: int,
                    out: np.ndarray) -> np.ndarray:
    """values indexed (b_1 ... b_d, a_1 ... a_d), with axis a_j multiplied by
    the matrices mats[b_1 ... b_d] (shape (..., n, n), broadcast over b),
    written into the contiguous buffer out and returned in values' shape.

    Every batch index is one small GEMM; the last axis is the row index of
    its GEMMs, so its matrices come transposed and multiply from the right."""
    d = values.ndim // 2
    shape = values.shape
    n = shape[d + j]
    before = math.prod(shape[d:d + j])
    if j == d - 1:
        core = shape[:d] + (before, n)
        np.matmul(values.reshape(core), mats, out=out.reshape(core))
    else:
        core = shape[:d] + (before, n, math.prod(shape[d + j + 1:]))
        np.matmul(mats[..., None, :, :], values.reshape(core), out=out.reshape(core))
    return out.reshape(shape)


#: Rows per block when _swap_halves transposes: a block's strided writes
#: stay in cache, so a 32^4 swap takes about 2 ms where numpy's
#: transposing copy takes about 6 ms.
_SWAP_ROWS = 32


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
    """``step`` on 2-d/3-d lattices only; ``pot`` must expose value_nd."""
    if field_in.grid.ndim not in (2, 3):
        raise ValueError("separable stepping supports 2 or 3 dimensions only")
    return _drift_kick(field_in, pot, t, cfg, cfg.variant)
