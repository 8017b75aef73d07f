"""Phase-space grids and Wigner fields.

Uniform rectangular (x, p) lattices with the conjugate s-lattice derived
from the momentum axis, plus the field container and the shared operations
every propagator needs: norm, the stepping driver, marginals, difference
metrics and plain-text serialization.  All quantities are dimensionless
with hbar = 1.
"""

from __future__ import annotations

import math
import sys
import warnings
from contextlib import contextmanager
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


def _check_lattice_size(shape: tuple[int, ...]) -> None:
    """Raise ``ValueError`` when a lattice of this shape has more values
    than one float64 array can hold: numpy refuses an array of more than
    sys.maxsize bytes."""
    if math.prod(shape) > sys.maxsize // 8:
        raise ValueError(f"a {' x '.join(map(str, shape))} lattice has more "
                         "values than one float64 array can hold")


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

    #: the one-axis case of ``PhaseSpaceGridND``: ``axes`` is the grid itself
    ndim = 1

    def __post_init__(self):
        for name in ("x_min", "x_max", "p_min", "p_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("nx", "np"):
            count = getattr(self, name)
            if not (4 <= count and _is_power_of_two(count)):
                raise ValueError(f"{name} must be a power of two >= 4, got {count}")
        # before the spacings: a count past 1e308 would overflow dx
        _check_lattice_size(self.shape())
        # needs max > min, and finite bounds not so far apart that dx overflows
        # nor so close that dp underflows to 0 or 1/ds overflows
        if not (0 < self.dx < math.inf and 0 < self.dp < math.inf
                and math.isfinite(self.ds)):
            raise ValueError("x_max > x_min and p_max > p_min must give "
                             "spacings dx, dp and ds that are positive and finite")

    @property
    def axes(self) -> tuple[PhaseSpaceGrid]:
        return (self,)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.np

    @property
    def ds(self) -> float:
        return 2.0 * np.pi * HBAR / (self.np * self.dp)

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
    """Real-valued samples f(x_1 ... x_d, p_1 ... p_d) on a grid of any
    dimension (f(x_i, p_j) on a ``PhaseSpaceGrid``) at one instant."""

    grid: PhaseSpaceGrid | PhaseSpaceGridND
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
                  context: str = "transform") -> np.ndarray:
    """Drop the imaginary part of a transform result after checking it.

    Raises NumericalError when the largest imaginary part (the residue)
    exceeds ``tol``: a large residue means the field is not contained in
    the grid (aliasing), which silently corrupts everything downstream.
    """
    residue = float(np.abs(values.imag).max()) if np.iscomplexobj(values) else 0.0
    if residue > tol:
        raise NumericalError(
            f"imaginary residue {residue:.3e} from {context} exceeds {tol:.1e}; "
            f"field is not contained in the grid")
    return np.real(values) if np.iscomplexobj(values) else values


def _one_dimensional(grid: PhaseSpaceGrid | PhaseSpaceGridND,
                     name: str) -> PhaseSpaceGrid:
    """The (x, p) axis of a 1-d lattice, which is the grid itself or the
    one axis of a product grid; a larger lattice raises ``ValueError``
    naming the function ``name`` and the dimension."""
    d = grid.ndim
    if d != 1:
        raise ValueError(f"{name} takes 1-d lattices only, not a {d}-d one")
    return grid.axes[0]


def norm(field: WignerField) -> float:
    """Phase-space integral: sum(f) times dx*dp of each axis in turn, on a
    grid of any dimension.

    For the Wigner transform convention used throughout (no 1/2*pi*hbar
    prefactor), a unit-normalized wavefunction well contained in the grid
    gives (2*pi*hbar)^d.
    """
    out = field.values.sum()
    for g in field.grid.axes:
        out = out * g.dx * g.dp
    return float(out)


@dataclass(frozen=True)
class StepDiagnostics:
    step: int
    time: float
    norm: float
    min: float
    max: float

    @classmethod
    def of(cls, step: int, field: WignerField) -> StepDiagnostics:
        """The row of ``field``, the state after step ``step``."""
        return cls(step=step, time=field.time, norm=norm(field),
                   min=float(field.values.min()), max=float(field.values.max()))


@dataclass
class EvolveResult:
    field: WignerField
    diagnostics: list[StepDiagnostics]
    warnings: list[str]


#: Relative norm drift above which evolve() records a warning.
NORM_DRIFT_WARN = 1e-6


def step_size(t0: float, t1: float, nsteps: int) -> float:
    """dt = (t1 - t0) / nsteps, after checking that nsteps >= 1 and that dt
    is positive, finite and normal, which keeps every (tc - t0) / dt finite."""
    if nsteps < 1:
        raise ValueError("nsteps must be at least 1")
    dt = (t1 - t0) / nsteps
    if not sys.float_info.min <= dt < math.inf:
        raise ValueError(f"the step (t1 - t0) / nsteps = {dt:g} must be "
                         "positive, finite and not subnormal")
    return dt


def check_mass(dt: float, mass: float) -> None:
    """Raise ``ValueError`` naming the mass unless it is positive and
    finite and dt / mass, the drift per unit momentum, is finite."""
    if not (0 < mass < math.inf and math.isfinite(float(dt) / float(mass))):
        raise ValueError(f"mass must be positive and finite, with dt / mass "
                         f"finite, got mass {mass!r} for dt {dt!r}")


def evolve(step, field: WignerField, nsteps: int, on_step=None) -> EvolveResult:
    """Apply ``step(field)`` nsteps times, with one ``StepDiagnostics`` row
    per step; each step advances the field's own time.

    The one stepping loop of every propagator and command.  A relative norm
    drift beyond NORM_DRIFT_WARN is recorded as a warning, not an error (a
    field that leaves the lattice loses norm at its edges).  A norm beyond
    1e6 times max(1, |initial norm|) raises ``NumericalError``, and so does
    a step that raises one (``NonFiniteFieldError`` included); every such
    message names the step.  ``on_step(k, field)`` is called after the
    k-th step's checks.

    Only the latest field is referenced here, so a caller that keeps no
    reference to the initial field has it freed after the first step.
    """
    rows: list[StepDiagnostics] = []
    warnings: list[str] = []
    norm0 = norm(field)
    for k in range(1, nsteps + 1):
        try:
            field = step(field)
        except NumericalError as exc:
            raise NumericalError(f"step {k}: {exc}") from None
        rows.append(StepDiagnostics.of(k, field))
        n = rows[-1].norm
        if abs(n) > 1e6 * max(1.0, abs(norm0)):
            raise NumericalError(f"norm blow-up at step {k}: {n:.3e}")
        if norm0 != 0.0 and abs(n - norm0) > NORM_DRIFT_WARN * abs(norm0):
            warnings.append(
                f"step {k}: relative norm drift {abs(n - norm0) / abs(norm0):.3e}")
        if on_step is not None:
            on_step(k, field)
    return EvolveResult(field=field, diagnostics=rows, warnings=warnings)


def marginal_x(field: WignerField) -> np.ndarray:
    """Position density rho(x_i) = (dp / 2*pi*hbar) * sum_j f(x_i, p_j)."""
    g = _one_dimensional(field.grid, "marginal_x")
    return field.values.sum(axis=1) * g.dp / (2.0 * np.pi * HBAR)


#: Lattice rows per block of the oracle's pair sum, the backtrack stencil
#: and the nlo correction.  Fixed blocks, not one share per core: the
#: temporaries of a block stay small, and so does what glibc's per-thread
#: arenas keep of them once freed.
_BLOCK_ROWS = 32


# ---------------------------------------------------------------------------
# bicubic spline interpolation, with the bits of scipy.ndimage's
# map_coordinates(order=3, mode="constant", cval=0.0) and its prefilter
# ---------------------------------------------------------------------------

#: The pole of the cubic B-spline prefilter (Unser, IEEE Signal Process.
#: Mag. 16(6), 22, 1999), sqrt(3) - 2 as scipy.ndimage spells it; the
#: correctly rounded sqrt(3) - 2 is one ulp away and gives other bits.
_SPLINE_POLE = -0.2679491924311227


def _prefilter(c: np.ndarray) -> None:
    """Cubic B-spline prefilter along axis 0 of ``c``, in place.

    Every column is one line, filtered as ``spline_filter1d(line, 3,
    mode="constant")`` filters it: multiplied by the gain, then the causal
    and the anticausal recursion, each started as for mirror-symmetric
    ends, with the same operations in the same order.  All lines advance
    together, one lattice node at a time.
    """
    z = _SPLINE_POLE
    n = len(c)
    c *= (1.0 - z) * (1.0 - 1.0 / z)
    # causal start: c[0] + z^(n-1) c[n-1], plus z^i (c[i] + z^(n-1) c[n-1-i])
    # for i = 1 ... n-2 in turn, z^i a running product; over 1 - z^(2n-2)
    z_n1 = z ** (n - 1)
    terms = np.multiply(c[n - 2:0:-1], z_n1)
    terms += c[1:n - 1]
    terms *= np.multiply.accumulate(np.full(n - 2, z)).reshape(
        (n - 2,) + (1,) * (c.ndim - 1))
    start = c[n - 1] * z_n1
    start += c[0]
    for term in terms:
        start += term
    np.divide(start, 1.0 - z_n1 * z_n1, out=c[0])
    rows = list(c)
    scratch = start
    for prev, row in zip(rows, rows[1:]):
        np.multiply(prev, z, out=scratch)
        row += scratch
    # anticausal start (z c[n-2] + c[n-1]) z / (z^2 - 1)
    np.multiply(rows[-2], z, out=scratch)
    scratch += rows[-1]
    scratch *= z
    np.divide(scratch, z * z - 1.0, out=rows[-1])
    for after, row in zip(rows[:0:-1], rows[-2::-1]):
        np.subtract(after, row, out=row)
        row *= z


def _spline_coefficients(values: np.ndarray) -> np.ndarray:
    """Cubic B-spline coefficients of an (nx, np) lattice, prefiltered
    along x and then along p, stored transposed in an (np + 7, nx + 3)
    array: coefficient (i, j) at [j + 1, i + 1].  Rows and columns 0,
    n + 1 and n + 2 of each axis mirror lattice indices 1, n - 2 and
    n - 3 (the stencil indices -1, n and n + 1 of ``map_coordinates``),
    and the last four rows are zero: the stencil of a point off the grid.
    """
    nx, n_p = values.shape
    c = values.copy()
    _prefilter(c)
    out = np.zeros((n_p + 7, nx + 3))
    core = out[1:n_p + 1, 1:nx + 1]
    core[...] = c.T
    _prefilter(core)
    for n, lines in ((n_p, out[:n_p + 3]), (nx, out[:n_p + 3].T)):
        lines[0], lines[n + 1], lines[n + 2] = lines[2], lines[n - 1], lines[n - 2]
    return out


def _spline_stencil(shape: tuple[int, int], cx: np.ndarray,
                    cp: np.ndarray) -> np.ndarray:
    """Lattice coordinates ``cx`` = (x - x_min) / dx and ``cp`` = (p - p_min)
    / dp of points on an (nx, np) lattice, in the form the spline
    evaluation reads: [0] is the flat index in ``_spline_coefficients``'s
    array of each point's 4 x 4 stencil corner, [1] and [2] are
    cx - floor(cx) and cp - floor(cp).  A point off [0, nx - 1] x
    [0, np - 1] (NaN included) gets the zero stencil and offsets 0."""
    nx, n_p = shape
    cx, cp = np.broadcast_arrays(cx, cp)
    out = np.zeros((3,) + cx.shape)
    inside = (cx >= 0) & (cx <= nx - 1) & (cp >= 0) & (cp <= n_p - 1)
    corner_x = np.floor(cx, out=np.zeros(cx.shape), where=inside)
    np.floor(cp, out=out[0], where=inside)
    np.subtract(cx, corner_x, out=out[1], where=inside)
    np.subtract(cp, out[0], out=out[2], where=inside)
    out[0] *= nx + 3
    out[0] += corner_x
    out[0][~inside] = (n_p + 3) * (nx + 3)
    return out


#: Most points per call of the spline sum, which keeps its temporaries in
#: cache: on one thread (2-vCPU x86-64, numpy 2.4.6) a 512^2 evaluation
#: took 24.7 ms in 16384-point calls, against 26.2 ms in 8192-point and
#: 33.0 ms in 32768-point calls, and over twice as long in one call.
_SPLINE_BLOCK = 16384


def _spline_sum(coeffs: np.ndarray, stencil: np.ndarray) -> np.ndarray:
    """The spline at the points of a (3, n) ``stencil``: the sum from +0.0
    of (coefficient * x weight) * p weight over the 16 stencil nodes, x
    offset outer and p offset inner, with the weights of offset y and
    z = 1 - y from the next node, z^3/6, (y^2 (y - 2) 3 + 4)/6,
    (z^2 (z - 2) 3 + 4)/6 and 1 minus those three, in the order and
    arithmetic of ``map_coordinates``."""
    y = stencil[1:]
    z = 1.0 - y
    zz = z * z
    w = np.empty((4,) + y.shape)
    np.divide(zz * z, 6.0, out=w[0])
    np.divide(y * y * (y - 2.0) * 3.0 + 4.0, 6.0, out=w[1])
    np.divide(zz * (z - 2.0) * 3.0 + 4.0, 6.0, out=w[2])
    np.subtract(1.0, w[0], out=w[3])
    w[3] -= w[1]
    w[3] -= w[2]
    width = coeffs.shape[1]
    flat = coeffs.reshape(-1)
    corner = stencil[0].astype(np.intp)
    out = np.zeros(len(corner))
    term = np.empty(len(corner))
    for a in range(4):
        for b in range(4):
            # every stencil node lies in the array, so "clip" never clips;
            # it spares the buffered copy that "raise" makes with ``out``
            np.take(flat[a + b * width:], corner, out=term, mode="clip")
            term *= w[a, 0]
            term *= w[b, 1]
            out += term
    return out


def at_lattice_coordinates(field: WignerField, stencil: np.ndarray) -> np.ndarray:
    """The field's cubic spline at points given by their ``_spline_stencil``,
    of any shape (3,) + S; returns shape S, with +0.0 at points off the grid.

    Each value has the bits of one ``scipy.ndimage.map_coordinates(...,
    order=3, mode="constant", cval=0.0)`` call over the field, with no
    scipy involved.  Prefilter and evaluation both run on the calling
    thread, the evaluation in calls of at most ``_SPLINE_BLOCK`` points:
    on a row-block thread pool, numpy calls that short save about a tenth of
    the wall time for half again the CPU, the threads handing the GIL
    back and forth."""
    coeffs = _spline_coefficients(field.values)
    points = stencil.reshape(3, -1)
    out = np.empty(points.shape[1])
    for start in range(0, len(out), _SPLINE_BLOCK):
        block = slice(start, start + _SPLINE_BLOCK)
        out[block] = _spline_sum(coeffs, points[:, block])
    return out.reshape(stencil.shape[1:])


@dataclass(frozen=True)
class DiffMetrics:
    l2: float
    linf: float
    linf_location: tuple[float, float]  # (x, p) of the largest deviation


def diff_metrics(a: WignerField, b: WignerField) -> DiffMetrics:
    """L2 and max-abs difference between two fields on the same grid."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    g = _one_dimensional(a.grid, "diff_metrics")
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
    """Write a 2-d array as lines of space-separated values, each one the
    bytes of ``f"{v:.17g}"``.

    ``_format17.format_records`` writes the correctly rounded 17 digits of
    most values from a double-double product, a block of rows of at most
    ``_format17.BLOCK`` values (or one row) per call, and blanks trailing
    zeros; the values it cannot decide exactly are formatted one at a
    time with ``%``.  One compaction pass drops the blanks.
    """
    # imported here: a process that writes no field or ensemble file
    # neither loads the kernel nor holds its code
    from ._format17 import BLOCK, format_records

    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    step = max(1, BLOCK // cols)
    for start in range(0, rows, step):
        block = table[start:start + step]
        values = block.ravel()
        rec, slow = format_records(values)
        byte = rec.view(np.uint8)
        for i in slow:
            text = ("%.17g" % values[i]).encode()
            byte[i, :31] = 0
            byte[i, :len(text)] = np.frombuffer(text, np.uint8)
        byte.reshape(len(block), cols, 32)[:, -1, 31] = 10
        flat = byte.reshape(-1)
        fh.write(flat[flat != 0].tobytes().decode("ascii"))


def read_rows(fh) -> np.ndarray:
    """The rows left in ``fh`` as ``np.loadtxt(fh, ndmin=2)`` reads them.
    No rows give an empty array without numpy's "no data" warning: the
    caller's shape check reports them."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        return np.loadtxt(fh, ndmin=2)


def save_field(field: WignerField, path) -> None:
    g = _one_dimensional(field.grid, "save_field")
    header = (f"# wignerfield {g.nx} {g.np} {g.x_min:.17g} {g.x_max:.17g} "
              f"{g.p_min:.17g} {g.p_max:.17g} {field.time:.17g}\n")
    with open(path, "w") as fh:
        fh.write(header)
        write_rows(fh, field.values)


@contextmanager
def naming_file(path):
    """Put ``{path}: `` in front of the message of a ``ValueError`` raised
    in the block; a ``NonFiniteFieldError`` keeps its type."""
    try:
        yield
    except ValueError as exc:
        # not type(exc): a UnicodeDecodeError, say, takes other arguments
        kind = NonFiniteFieldError if isinstance(exc, NonFiniteFieldError) else ValueError
        raise kind(f"{path}: {exc}") from None


def load_field(path) -> WignerField:
    with open(path) as fh, naming_file(path):
        header = fh.readline().split()
        if len(header) != 9 or header[0] != "#" or header[1] != "wignerfield":
            raise ValueError("not a wignerfield file")
        nx, n_p = int(header[2]), int(header[3])
        x_min, x_max, p_min, p_max, time = map(float, header[4:9])
        values = read_rows(fh)
        if values.shape != (nx, n_p):
            raise ValueError(f"expected {nx}x{n_p} values, got {values.shape}")
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
        _check_lattice_size(self.shape())

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def shape(self) -> tuple[int, ...]:
        return tuple(g.nx for g in self.axes) + tuple(g.np for g in self.axes)


# one field type and one norm serve every dimension; the N-d names remain
WignerFieldND = WignerField
norm_nd = norm
