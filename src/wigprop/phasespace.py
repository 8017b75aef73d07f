"""Phase-space grids and Wigner fields.

Uniform rectangular (x, p) lattices with the conjugate s-lattice derived
from the momentum axis, plus the field container and the shared operations
every propagator needs: norm, marginals, interpolation, difference metrics
and plain-text serialization.  All quantities are dimensionless with
hbar = 1.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

HBAR = 1.0

#: Largest tolerated |imag| left over from an internal complex transform.
REALNESS_TOL = 1e-10


class NumericalError(RuntimeError):
    """A numerical failure (conditioning, realness violation, norm blow-up)."""


class NonFiniteFieldError(NumericalError, ValueError):
    """Field values that are not all finite.

    A ``ValueError`` for callers that validate input (a field file with a
    NaN in it is bad input) and a ``NumericalError`` for those that step
    (a kick that overflows to inf is a numerical failure).
    """


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform lattice in (x, p).

    The lattice excludes the upper edges: x_i = x_min + i*dx for
    i = 0..nx-1 and likewise in p, which is the natural layout for the
    periodic fast transforms used by the spectral propagator.  The
    conjugate lattice s_k = 2*pi*hbar*k / (np*dp), k in [-np/2, np/2),
    is stored in FFT ordering.
    """

    x_min: float
    x_max: float
    nx: int
    p_min: float
    p_max: float
    np: int

    def __post_init__(self):
        for name in ("x_min", "x_max", "p_min", "p_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if not self.p_max > self.p_min:
            raise ValueError("p_max must exceed p_min")
        for name in ("nx", "np"):
            count = getattr(self, name)
            if count < 4 or not _is_power_of_two(count):
                raise ValueError(f"{name} must be a power of two >= 4, got {count}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.np

    @property
    def ds(self) -> float:
        return 2.0 * np.pi * HBAR / (self.np * self.dp)

    @property
    def s_max(self) -> float:
        """Largest s-lattice value, (pi*hbar/dp) * (1 - 2/np)."""
        return self.ds * (self.np // 2 - 1)

    @cached_property
    def x_lattice(self) -> np.ndarray:
        x = self.x_min + self.dx * np.arange(self.nx)
        x.setflags(write=False)
        return x

    @cached_property
    def p_lattice(self) -> np.ndarray:
        p = self.p_min + self.dp * np.arange(self.np)
        p.setflags(write=False)
        return p

    @cached_property
    def s_lattice(self) -> np.ndarray:
        """Conjugate lattice in FFT ordering (0, ds, ..., -np/2*ds, ..., -ds)."""
        s = 2.0 * np.pi * HBAR * np.fft.fftfreq(self.np, self.dp)
        s.setflags(write=False)
        return s

    def shape(self) -> tuple[int, int]:
        return (self.nx, self.np)


def make_grid(x_min: float, x_max: float, nx: int,
              p_min: float, p_max: float, np: int) -> PhaseSpaceGrid:
    """Build a validated phase-space grid."""
    return PhaseSpaceGrid(float(x_min), float(x_max), int(nx),
                          float(p_min), float(p_max), int(np))


#: Grid used by the command-line tools when none is specified.
DEFAULT_GRID_SPEC = (-8.0, 8.0, 256, -4.0, 4.0, 256)


@dataclass(frozen=True)
class WignerField:
    """Real-valued samples f(x_i, p_j) on a grid at one instant."""

    grid: PhaseSpaceGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape != self.grid.shape():
            raise ValueError(
                f"values shape {values.shape} does not match grid {self.grid.shape()}")
        if not np.isfinite(values).all():
            raise NonFiniteFieldError("field values must be finite")
        if not math.isfinite(self.time):
            raise ValueError("time must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def truncate_real(values: np.ndarray, *, tol: float = REALNESS_TOL,
                  context: str = "transform") -> tuple[np.ndarray, float]:
    """Drop the imaginary part of a transform result after checking it.

    Returns (real array, residue).  Raises NumericalError when the residue
    exceeds ``tol``: a large residue means the field is not contained in the
    grid (aliasing), which silently corrupts everything downstream.

    The spectral drift and kick transform real half spectra (rfft/irfft), so
    their output is real and the residue they report is zero by
    construction: on that path this guard cannot detect aliasing, whether
    or not the field is contained.  It still checks the complex results of
    the pseudoparticle third derivative.
    """
    residue = float(np.abs(values.imag).max()) if np.iscomplexobj(values) else 0.0
    if residue > tol:
        raise NumericalError(
            f"imaginary residue {residue:.3e} from {context} exceeds {tol:.1e}; "
            f"field is not contained in the grid")
    return np.real(values) if np.iscomplexobj(values) else values, residue


def norm(field: WignerField) -> float:
    """Phase-space integral dx*dp*sum(f).

    For the Wigner transform convention used throughout (no 1/2*pi*hbar
    prefactor), a unit-normalized wavefunction well contained in the grid
    gives 2*pi*hbar.
    """
    g = field.grid
    return float(field.values.sum() * g.dx * g.dp)


def marginal_x(field: WignerField) -> np.ndarray:
    """Position density rho(x_i) = (dp / 2*pi*hbar) * sum_j f(x_i, p_j)."""
    g = field.grid
    return field.values.sum(axis=1) * g.dp / (2.0 * np.pi * HBAR)


# ---------------------------------------------------------------------------
# row-parallel lattice kernels
# ---------------------------------------------------------------------------

#: Lattice rows per ``by_rows`` task.  Fixed blocks, not one share per
#: core: the temporaries of a block stay small, and so does what glibc's
#: per-thread arenas keep of them once freed.
_BLOCK_ROWS = 32

# number of pool workers (the CPUs this process may run on, so ``taskset``
# limits it) and the pool itself; both are settled on first use
_workers: int | None = None
_pool = None
_pool_lock = threading.Lock()


def _worker_count() -> int:
    global _workers
    if _workers is None:
        try:
            _workers = len(os.sched_getaffinity(0))
        except AttributeError:          # platforms without CPU affinity
            _workers = os.cpu_count() or 1
    return _workers


def _get_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: concurrent.futures loads logging, which no
            # single-threaded command needs at start-up
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max_workers=_worker_count(),
                                       thread_name_prefix="wigprop-rows")
    return _pool


def _forget_pool() -> None:
    # a forked child has none of its parent's pool threads: tasks sent to
    # the inherited pool would wait forever, so the child builds its own
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def by_rows(fn, n: int) -> None:
    """Call ``fn(rows)`` on slices of ``range(n)`` that cover it once.

    The slices are consecutive blocks of ``_BLOCK_ROWS`` rows, run on a
    shared thread pool with one worker per usable CPU.  With one CPU or a
    single block it is one plain call ``fn(slice(0, n))``.  ``fn`` must
    write only its own rows, must not call ``by_rows`` itself (its blocks
    would wait on the pool they run in), and should spend its time in
    code that releases the GIL and keeps no shared state (numpy ufuncs,
    scipy.ndimage kernels).  When every row is computed without reference
    to the others, the result has the same bits for any number of CPUs.
    Returns once every block has finished; the first exception, in block
    order, is raised to the caller.
    """
    if n <= _BLOCK_ROWS or _worker_count() < 2:
        fn(slice(0, n))
        return
    pool = _get_pool()
    futures = [pool.submit(fn, slice(start, min(start + _BLOCK_ROWS, n)))
               for start in range(0, n, _BLOCK_ROWS)]
    errors = [future.exception() for future in futures]   # waits for each
    for error in errors:
        if error is not None:
            raise error


_INTERP_ORDER = {"bicubic": 3, "bilinear": 1}


def _spline_coefficients(values: np.ndarray) -> np.ndarray:
    """Cubic B-spline coefficients of a lattice, as ``map_coordinates``
    computes them with ``prefilter=True, mode="constant"``: filtered along
    x, then along p, one lattice line at a time."""
    from scipy.ndimage import spline_filter1d

    out = np.empty_like(values)
    by_rows(lambda cols: spline_filter1d(values[:, cols], 3, axis=0,
                                         output=out[:, cols], mode="constant"),
            values.shape[1])
    by_rows(lambda rows: spline_filter1d(out[rows], 3, axis=1,
                                         output=out[rows], mode="constant"),
            values.shape[0])
    return out


def _evaluate(field: WignerField, method: str, shape: tuple, coords) -> np.ndarray:
    """The field's spline at the lattice coordinates ``coords(rows)``
    returns for each block of rows of an output of ``shape`` (at least
    2-d); out-of-grid points give 0."""
    # imported here so that commands which never interpolate do not load
    # scipy.ndimage (about 0.3 s at process start)
    from scipy.ndimage import map_coordinates

    if method not in _INTERP_ORDER:
        raise ValueError(f"unknown interpolation method {method!r}")
    order = _INTERP_ORDER[method]
    coeffs = _spline_coefficients(field.values) if order > 1 else field.values
    out = np.empty(shape)
    by_rows(lambda rows: map_coordinates(
        coeffs, coords(rows), output=out[rows], order=order, mode="constant",
        cval=0.0, prefilter=False), shape[0])
    return out


def at_lattice_coordinates(field: WignerField, coords: np.ndarray,
                           method: str = "bicubic") -> np.ndarray:
    """Interpolate the field at lattice coordinates: ``coords[0]`` holds
    (x - x_min) / dx and ``coords[1]`` holds (p - p_min) / dp, each at
    least 2-d.  Gives the bits ``interpolate`` gives at those (x, p)."""
    return _evaluate(field, method, coords.shape[1:], lambda rows: coords[:, rows])


def interpolate(field: WignerField, x, p, method: str = "bicubic"):
    """Interpolate the field at arbitrary (x, p) points.

    Points outside the grid bounds return 0 (fields are treated as
    compactly supported).  ``x`` and ``p`` broadcast against each other;
    scalars in, scalar out.

    The spline prefilter and the evaluation run on all CPUs through
    ``by_rows``, over blocks of the leading axis of the broadcast points
    (a 1-d list of points is one block), and each block's lattice
    coordinates are computed and freed with it.  Each value is computed
    exactly as one ``map_coordinates(..., mode="constant")`` call over all
    points computes it, whatever the number of CPUs.
    """
    g = field.grid
    x_min, dx, p_min, dp = g.x_min, g.dx, g.p_min, g.dp
    xs, ps = np.broadcast_arrays(*np.atleast_1d(x, p))
    flat = xs.ndim == 1
    if flat:
        xs, ps = xs[None], ps[None]
    out = _evaluate(field, method, xs.shape,
                    lambda rows: [(xs[rows] - x_min) / dx, (ps[rows] - p_min) / dp])
    if np.ndim(x) == 0 and np.ndim(p) == 0:
        return float(out[0, 0])
    return out[0] if flat else out


@dataclass(frozen=True)
class DiffMetrics:
    l2: float
    linf: float
    linf_location: tuple[float, float]  # (x, p) of the largest deviation


def diff_metrics(a: WignerField, b: WignerField) -> DiffMetrics:
    """L2 and max-abs difference between two fields on the same grid."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    g = a.grid
    delta = a.values - b.values
    l2 = float(np.sqrt((delta**2).sum() * g.dx * g.dp))
    flat = int(np.argmax(np.abs(delta)))
    i, j = np.unravel_index(flat, delta.shape)
    return DiffMetrics(l2=l2, linf=float(np.abs(delta[i, j])),
                       linf_location=(float(g.x_lattice[i]), float(g.p_lattice[j])))


# ---------------------------------------------------------------------------
# serialization: '# wignerfield nx np x_min x_max p_min p_max time' header,
# then nx rows of np space-separated values (row = fixed x, column = fixed p)
# ---------------------------------------------------------------------------

def write_rows(fh, table: np.ndarray) -> None:
    """Write a 2-d array as lines of space-separated values in ``%.17g``.

    One ``%``-format of the whole table writes the same bytes as
    formatting each value with ``f"{v:.17g}"``, in a fraction of the time.
    """
    line = " ".join(["%.17g"] * table.shape[1]) + "\n"
    fh.write(line * len(table) % tuple(table.ravel().tolist()))


def save_field(field: WignerField, path) -> None:
    g = field.grid
    header = (f"# wignerfield {g.nx} {g.np} {g.x_min:.17g} {g.x_max:.17g} "
              f"{g.p_min:.17g} {g.p_max:.17g} {field.time:.17g}\n")
    with open(path, "w") as fh:
        fh.write(header)
        for start in range(0, g.nx, _BLOCK_ROWS):
            write_rows(fh, field.values[start:start + _BLOCK_ROWS])


def load_field(path) -> WignerField:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 9 or header[0] != "#" or header[1] != "wignerfield":
            raise ValueError(f"{path}: not a wignerfield file")
        nx, n_p = int(header[2]), int(header[3])
        x_min, x_max, p_min, p_max, time = map(float, header[4:9])
        values = np.loadtxt(fh, ndmin=2)
    if values.shape != (nx, n_p):
        raise ValueError(f"{path}: expected {nx}x{n_p} values, got {values.shape}")
    grid = make_grid(x_min, x_max, nx, p_min, p_max, n_p)
    return WignerField(grid=grid, values=values, time=time)


# ---------------------------------------------------------------------------
# multi-dimensional lattices for the separable propagator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseSpaceGridND:
    """Product of per-axis phase-space grids; values are indexed
    (x_1 ... x_d, p_1 ... p_d)."""

    axes: tuple[PhaseSpaceGrid, ...]

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 3:
            raise ValueError("only 1, 2 or 3 spatial dimensions are supported")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def shape(self) -> tuple[int, ...]:
        return tuple(g.nx for g in self.axes) + tuple(g.np for g in self.axes)

    def cell_volume(self) -> float:
        out = 1.0
        for g in self.axes:
            out *= g.dx * g.dp
        return out


@dataclass(frozen=True)
class WignerFieldND:
    grid: PhaseSpaceGridND
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape != self.grid.shape():
            raise ValueError(
                f"values shape {values.shape} does not match grid {self.grid.shape()}")
        if not np.isfinite(values).all():
            raise NonFiniteFieldError("field values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def norm_nd(field: WignerFieldND) -> float:
    return float(field.values.sum() * field.grid.cell_volume())
