"""Explicit spectral propagator: drift-kick split steps through the
conjugate s-lattice.

One step advances the field by dt in two exact sub-maps: free streaming
along x (each constant-p row translated by p*dt/m) and a momentum kernel
applied per x-column (multiply the p-spectrum by the unimodular phase
exp(-i [V(x - s/2) - V(x + s/2)] dt / hbar)).  The phase is conjugate-
symmetric under s -> -s because the potential difference is odd in s, and
the drift phase exp(-i kx p dt/m) is conjugate-symmetric under kx -> -kx,
so real fields stay real.  Each sub-map therefore runs on half spectra:
numpy.fft.rfft along the transformed axis, a multiply by the n//2 + 1
non-negative-frequency bins of the multiplier, and irfft back, so the
field is real at every stage.  The unpaired Nyquist bin is kept at the
real part of its multiplier for the same reason.  The s = 0 component is
untouched by the kick, which conserves the momentum marginal at every x
exactly.

The multipliers depend only on the grid, dt and the mass (drift) or the
potential and variant (kick), so each is built once and kept in a small
bounded module-level memo that every step function consults; callers hold
no plan object.  A kick is memoized only for a potential that declares
``time_dependent = False`` and can be hashed; any other potential gets its
kick rebuilt at every step time, so the memo never serves a kick built at
another time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.fft import irfft, rfft

from .phasespace import (HBAR, PhaseSpaceGrid, WignerField, WignerFieldND,
                         interpolate, norm, truncate_real)
from .potentials import Potential

_VARIANTS = ("full", "first_order")
_DRIFT_MODES = ("spectral_shift", "interpolation")


@dataclass(frozen=True)
class SpectralStepConfig:
    dt: float
    mass: float = 1.0
    variant: str = "full"
    drift_mode: str = "spectral_shift"

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")
        if self.drift_mode not in _DRIFT_MODES:
            raise ValueError(f"drift_mode must be one of {_DRIFT_MODES}")


#: Most arrays the memo holds; the oldest entry is dropped beyond it.
_MEMO_SIZE = 16
_MEMO: dict = {}


def _memoized(key, build, static: bool = True) -> np.ndarray:
    """build() stored under key, or built afresh when the array may change
    with time (static false) or key cannot be hashed.

    The one memo of time-independent lattice arrays: the drift and kick
    multipliers here, and the pseudoparticle backtrack coordinates and
    third-derivative multiplier.  A key starts with the name of what it
    holds and carries everything the array depends on; stored arrays are
    read-only."""
    if not static:
        return build()
    try:
        out = _MEMO.get(key)
    except TypeError:
        return build()
    if out is None:
        out = build()
        out.setflags(write=False)
        if len(_MEMO) >= _MEMO_SIZE:
            _MEMO.pop(next(iter(_MEMO)), None)
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


def _drift_phase(grid: PhaseSpaceGrid, dt: float, mass: float) -> np.ndarray:
    """exp(-i kx p dt/m) on the kx >= 0 half, shape (nx//2 + 1, np)."""
    kx = 2.0 * np.pi * np.fft.rfftfreq(grid.nx, grid.dx)
    shift = grid.p_lattice * dt / mass
    return _real_nyquist(np.exp(-1j * kx[:, None] * shift[None, :]), axis=0)


def _drift_multiplier(grid: PhaseSpaceGrid, dt: float, mass: float) -> np.ndarray:
    return _memoized(("drift", grid, dt, mass), lambda: _drift_phase(grid, dt, mass))


def _spectral_shift_rows(values: np.ndarray, grid: PhaseSpaceGrid,
                         dt: float, mass: float) -> tuple[np.ndarray, float]:
    """values(x - p*dt/m, p) via an x-FFT phase, periodic wrap."""
    return truncate_real(_apply_half(values, _drift_multiplier(grid, dt, mass), axis=0),
                         context="spectral drift")


def drift(field_in: WignerField, dt: float, mass: float = 1.0,
          drift_mode: str = "spectral_shift") -> WignerField:
    """Free-streaming substitution: row at momentum p shifts by p*dt/m in x.

    spectral_shift applies the exact phase in the x-conjugate domain and
    wraps periodically; interpolation resamples with out-of-bounds = 0 and
    therefore leaks norm at the edges instead of wrapping.
    """
    grid = field_in.grid
    if drift_mode == "spectral_shift":
        values, _ = _spectral_shift_rows(field_in.values, grid, dt, mass)
    elif drift_mode == "interpolation":
        xq = grid.x_lattice[:, None] - grid.p_lattice[None, :] * (dt / mass)
        pq = np.broadcast_to(grid.p_lattice[None, :], grid.shape())
        values = interpolate(field_in, xq, pq)
    else:
        raise ValueError(f"drift_mode must be one of {_DRIFT_MODES}")
    return WignerField(grid=grid, values=values, time=field_in.time)


def _delta_v(grid: PhaseSpaceGrid, pot: Potential, t: float) -> np.ndarray:
    """V(x - s/2) - V(x + s/2) on the s >= 0 half, shape (nx, np//2 + 1)."""
    x = grid.x_lattice[:, None]
    s = grid.s_lattice[None, :grid.np // 2 + 1]
    return pot.value(x - s / 2.0, t) - pot.value(x + s / 2.0, t)


def _kick_phase(grid: PhaseSpaceGrid, pot: Potential, t: float,
                dt: float) -> np.ndarray:
    return _real_nyquist(np.exp(-1j * _delta_v(grid, pot, t) * dt / HBAR), axis=1)


def _kick_multiplier_first_order(grid: PhaseSpaceGrid, pot: Potential, t: float,
                                 dt: float) -> np.ndarray:
    # truncating the kernel phase at first order in dt is the convolution
    # of the drifted field with the odd potential-difference transform
    return _real_nyquist(1.0 - 1j * _delta_v(grid, pot, t) * dt / HBAR + 0j, axis=1)


def _kick_multiplier(grid: PhaseSpaceGrid, pot: Potential, t: float, dt: float,
                     variant: str) -> np.ndarray:
    build = _kick_phase if variant == "full" else _kick_multiplier_first_order
    return _memoized(("kick", variant, grid, pot, dt),
                     lambda: build(grid, pot, t, dt), static=_is_static(pot))


def _apply_kick(values: np.ndarray, multiplier: np.ndarray) -> tuple[np.ndarray, float]:
    return truncate_real(_apply_half(values, multiplier, axis=1),
                         context="momentum kick")


def kick_full(field_in: WignerField, pot: Potential, t: float,
              dt: float) -> WignerField:
    """Momentum kernel for one time increment.

    Per x-column: transform p -> s, multiply exp(-i dV(x, s) dt / hbar)
    with dV(x, s) = V(x - s/2, t) - V(x + s/2, t), transform back.  This
    is the complex form of the cosine/sine transform pair; the real part
    of the product reproduces that pair term by term.
    """
    values, _ = _apply_kick(field_in.values,
                            _kick_multiplier(field_in.grid, pot, t, dt, "full"))
    return WignerField(grid=field_in.grid, values=values, time=field_in.time)


def step_full(field_in: WignerField, pot: Potential, t: float,
              cfg: SpectralStepConfig) -> WignerField:
    """One full explicit step: drift, then kick; time advances by cfg.dt."""
    drifted = drift(field_in, cfg.dt, cfg.mass, cfg.drift_mode)
    values, _ = _apply_kick(drifted.values,
                            _kick_multiplier(field_in.grid, pot, t, cfg.dt, "full"))
    return WignerField(grid=field_in.grid, values=values,
                       time=field_in.time + cfg.dt)


def step_first_order(field_in: WignerField, pot: Potential, t: float,
                     cfg: SpectralStepConfig) -> WignerField:
    """First-order-in-dt variant: drift plus the linearized kernel.

    Valid while dt * |V| / hbar stays well below one; the full variant has
    no such restriction.
    """
    drifted = drift(field_in, cfg.dt, cfg.mass, cfg.drift_mode)
    values, _ = _apply_kick(drifted.values, _kick_multiplier(
        field_in.grid, pot, t, cfg.dt, "first_order"))
    return WignerField(grid=field_in.grid, values=values,
                       time=field_in.time + cfg.dt)


def step(field_in: WignerField, pot: Potential, t: float,
         cfg: SpectralStepConfig) -> WignerField:
    """One step of the variant that cfg.variant names."""
    if cfg.variant == "full":
        return step_full(field_in, pot, t, cfg)
    return step_first_order(field_in, pot, t, cfg)


@dataclass(frozen=True)
class StepDiagnostics:
    step: int
    time: float
    norm: float
    min: float
    max: float


@dataclass
class EvolveResult:
    field: WignerField
    diagnostics: list[StepDiagnostics] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


#: Relative norm drift above which evolve() records a warning.
NORM_DRIFT_WARN = 1e-6


def evolve(field_in: WignerField, pot: Potential, t0: float, t1: float,
           nsteps: int, cfg: SpectralStepConfig) -> EvolveResult:
    """Repeated stepping from t0 to t1 with per-step diagnostics.

    The step size is (t1 - t0) / nsteps; cfg.dt is overridden accordingly.
    Norm drift beyond NORM_DRIFT_WARN (relative) is recorded as a warning,
    not an error, because the interpolation drift mode loses norm by design
    when the field touches the boundary.
    """
    if nsteps < 1:
        raise ValueError("nsteps must be at least 1")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    dt = (t1 - t0) / nsteps
    cfg = replace(cfg, dt=dt)
    result = EvolveResult(field=field_in)
    norm0 = norm(field_in)
    current = field_in
    for k in range(nsteps):
        t = t0 + k * dt
        current = step(current, pot, t, cfg)
        n = norm(current)
        result.diagnostics.append(StepDiagnostics(
            step=k + 1, time=current.time, norm=n,
            min=float(current.values.min()), max=float(current.values.max())))
        if norm0 != 0.0 and abs(n - norm0) > NORM_DRIFT_WARN * abs(norm0):
            result.warnings.append(
                f"step {k + 1}: relative norm drift {abs(n - norm0) / abs(norm0):.3e}")
    result.field = current
    return result


# ---------------------------------------------------------------------------
# separable multi-dimensional stepping
# ---------------------------------------------------------------------------

def _axis_shape(total: int, axis: int, n: int) -> list[int]:
    shape = [1] * total
    shape[axis] = n
    return shape


def _kick_phase_nd(grid, pot, t: float, dt: float, j: int) -> np.ndarray:
    """On-axis kick phase for axis j on the s_j >= 0 half; the result
    broadcasts against the (x_1 ... x_d, p_1 ... p_d) field."""
    d = grid.ndim
    coords = [g.x_lattice.reshape(_axis_shape(2 * d, i, g.nx))
              for i, g in enumerate(grid.axes)]
    g = grid.axes[j]
    half = g.np // 2 + 1
    s = g.s_lattice[:half].reshape(_axis_shape(2 * d, d + j, half))
    minus = list(coords)
    plus = list(coords)
    minus[j] = coords[j] - s / 2.0
    plus[j] = coords[j] + s / 2.0
    delta_v = pot.value_nd(minus, t) - pot.value_nd(plus, t)
    return _real_nyquist(np.exp(-1j * delta_v * dt / HBAR) + 0j, axis=d + j)


def step_separable(field_in: WignerFieldND, pot, t: float,
                   cfg: SpectralStepConfig) -> WignerFieldND:
    """Axis-by-axis drift and kick for 2-d/3-d lattices.

    The potential difference along each axis j uses shifts s_j e_j only,
    dropping the cross terms that couple different axes; the per-axis
    kernels commute, so sequential application realizes their product.
    Exact when V is an additive sum of one-dimensional terms.  ``pot``
    must expose value_nd(coords, t).
    """
    grid = field_in.grid
    d = grid.ndim
    if d not in (2, 3):
        raise ValueError("separable stepping supports 2 or 3 dimensions only")
    values = field_in.values

    # drift each x-axis by its conjugate momentum, with the 1-d phase
    # placed on axes (j, d + j)
    for j, g in enumerate(grid.axes):
        phase = _drift_multiplier(g, cfg.dt, cfg.mass)
        shape = _axis_shape(2 * d, j, phase.shape[0])
        shape[d + j] = g.np
        values = _apply_half(values, phase.reshape(shape), axis=j)

    # kick per axis with the on-axis potential difference
    for j in range(d):
        phase = _memoized(("kick_nd", j, grid, pot, cfg.dt),
                          lambda: _kick_phase_nd(grid, pot, t, cfg.dt, j),
                          static=_is_static(pot))
        values = _apply_half(values, phase, axis=d + j)

    values, _ = truncate_real(values, context="separable step")
    return WignerFieldND(grid=grid, values=values, time=field_in.time + cfg.dt)
