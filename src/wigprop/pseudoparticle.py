"""Classical-trajectory (pseudoparticle) propagation of Wigner fields,
its hbar^2-corrected refinement, and the Hermite-Gaussian deposition
kernel that moves data between the fixed-lattice and particle pictures.

The lowest-order step transports each lattice value along a backward
classical trajectory and is exact (up to time discretization and
interpolation) for potentials whose third and higher spatial derivatives
vanish.  The next order adds the leading quantum correction
 -(dt * hbar^2 / 24) V'''(x) d^3 f / dp^3, with the derivative taken from
the uncorrected transported field, which keeps the correction loop from
feeding back on itself.  Backtrack stencils are cached by the potential's
value (see ``potentials``); an unhashable potential is rebuilt at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .phasespace import (_BLOCK_ROWS, HBAR, REALNESS_TOL, NonFiniteFieldError,
                         NumericalError, PhaseSpaceGrid, WignerField,
                         _one_dimensional, _spline_stencil,
                         at_lattice_coordinates, check_mass, read_rows,
                         truncate_real, write_rows)
from .potentials import Potential
from .spectral import _memoized

#: The factor |dt V''' s^3 / 24| at the ``stable_p3_cutoff`` band edge.
P3_SAFETY = 0.25
#: Particles ``deposit`` sums per chunk.  Each chunk's sums are added to
#: the field as one lattice, so the chunk size fixes the result's bits.
_DEPOSIT_CHUNK = 4096
#: Stencil values ``deposit`` forms at a time within a chunk (at least one
#: particle's); a sub-block's values are added to the chunk's sums in order.
_DEPOSIT_VALUES = 1 << 16


def _backtrack_stencil(grid: PhaseSpaceGrid, pot: Potential, dt: float,
                       mass: float) -> np.ndarray:
    """The spline stencil (``phasespace._spline_stencil``) of the
    backtracked points, from their lattice coordinates (x0 - x_min) / dx
    and (p0 - p_min) / dp.

    Raises ``NonFiniteFieldError`` when any coordinate is not finite (a
    force that overflows), which the spline evaluation would otherwise
    turn into silent zeros.  The force is evaluated with numpy's overflow
    warnings off: that check, not a warning, reports the overflow, and a
    force whose intermediates overflow to a finite value (a far-off point
    of a Gaussian well) is no failure.

    The stencil is written ``_BLOCK_ROWS`` x-rows at a time into one
    (3, nx, np) array, so the temporaries of the backtrack are a block's,
    not the lattice's.  Each point gets the same operations as in one
    whole-lattice pass, and the corner index is absolute, so the stencil
    has the same bits.
    """
    p = grid.p_lattice[None, :]
    stencil = np.empty((3,) + grid.shape())
    for start in range(0, grid.nx, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        x0 = grid.x_lattice[rows, None] - p * (dt / mass)
        with np.errstate(over="ignore", invalid="ignore"):
            p0 = p + pot.grad(x0) * dt
        x0 -= grid.x_min
        x0 /= grid.dx
        p0 -= grid.p_min
        p0 /= grid.dp
        if not (np.isfinite(x0).all() and np.isfinite(p0).all()):
            raise NonFiniteFieldError(
                "backtracked points must be finite (the force overflows)")
        stencil[:, rows] = _spline_stencil(grid.shape(), x0, p0)
    return stencil


def step_lo(field_in: WignerField, pot: Potential, dt: float,
            mass: float = 1.0) -> WignerField:
    """Lowest-order step on the fixed lattice.

    Each node (x, p) takes the bicubic-interpolated old value at the
    backtracked point (x - p dt/m, p + V'(x0) dt) with x0 = x - p dt/m.  The force is
    evaluated at the backtracked position, not at the output node: that
    makes the one-step map exactly area-preserving (backward symplectic
    Euler), while the output-node force inflates phase-space volumes by
    O(dt^2) per step and visibly shrinks structures over long runs.

    The spline stencil of the backtracked points (each one's stencil
    corner and its two fractional offsets, one (3, nx, np) array) depends
    only on (grid, potential, dt, mass), so it is kept in the memo of
    ``spectral`` under that key; an unhashable potential gets it rebuilt
    at every step.  Non-finite backtracked points raise
    ``NonFiniteFieldError``.  A step is then one spline prefilter and one
    evaluation over the stencil, all on the calling thread, with the same
    result bits from the memo or not.
    """
    grid = _one_dimensional(field_in.grid, "step_lo")
    stencil = _memoized(("backtrack", grid, pot, dt, mass),
                        lambda: _backtrack_stencil(grid, pot, dt, mass))
    values = at_lattice_coordinates(field_in, stencil)
    return WignerField(grid=field_in.grid, values=values, time=field_in.time + dt)


def _p3_multiplier(grid: PhaseSpaceGrid, s_cutoff: float | None) -> np.ndarray:
    s = grid.s_lattice
    mult = (1j * s / HBAR) ** 3
    mult[grid.np // 2] = 0.0
    if s_cutoff is not None:
        mult = mult * (np.abs(s) <= s_cutoff)
    return mult


def _realness_tol(values: np.ndarray) -> float:
    """``REALNESS_TOL`` times max(1, max|f|): the rounding residue of a
    transform grows with the field's size, and a unit-scale field keeps
    the absolute bound."""
    return REALNESS_TOL * max(1.0, float(values.max()), -float(values.min()))


def _spectral_p3(values: np.ndarray, grid: PhaseSpaceGrid,
                 s_cutoff: float | None, tol: float) -> np.ndarray:
    """Third momentum derivative of lattice rows: the p-spectrum times
    (i s / hbar)^3, with the unpaired Nyquist mode dropped (as for any
    odd-order spectral derivative) and, given ``s_cutoff``, every mode
    with |s| > s_cutoff zeroed.  Raises ``NumericalError`` when the result
    is not real to ``tol``.  Rows are independent, so a block of rows gets
    the bits the whole lattice would give it."""
    spectrum = np.fft.fft(values, axis=1)
    spectrum *= _memoized(("p3", grid, s_cutoff),
                          lambda: _p3_multiplier(grid, s_cutoff))
    third, _ = truncate_real(np.fft.ifft(spectrum, axis=1), tol=tol,
                             context="spectral third derivative")
    return third


def d_p3(field_in: WignerField, s_cutoff: float | None = None) -> WignerField:
    """Third momentum derivative of the field: the p-spectrum times
    (i s / hbar)^3, with every mode of |s| > s_cutoff zeroed when a cutoff
    is given (band limiting).  The unpaired Nyquist mode is always dropped,
    as for any odd-order spectral derivative.
    """
    grid = _one_dimensional(field_in.grid, "d_p3")
    f = field_in.values
    return WignerField(grid=field_in.grid, time=field_in.time,
                       values=_spectral_p3(f, grid, s_cutoff, _realness_tol(f)))


def _third_derivative(pot: Potential, grid: PhaseSpaceGrid) -> np.ndarray:
    """V'''(x) on the x-lattice.  Raises ``NumericalError`` naming V''' and
    the potential where it is not finite (a Gaussian well so narrow that
    x^3 / sigma^6 overflows where its envelope underflows to 0)."""
    with np.errstate(over="ignore", invalid="ignore"):
        v3 = pot.d3(grid.x_lattice)
    if not np.isfinite(v3).all():
        raise NumericalError(f"V''' of {pot!r} is not finite on the x-lattice")
    return v3


def nlo_correction(field_lo: WignerField, pot: Potential, dt: float,
                   s_cutoff: float | None = None) -> WignerField:
    """Add the leading quantum correction to a transported field:
    f - (dt hbar^2 / 24) V'''(x) d^3f/dp^3, with the spectral third
    derivative band-limited at ``s_cutoff`` when one is given.

    The correction is computed a block of rows at a time on the calling
    thread (transform, multiply, transform back, realness check, subtract)
    and written into one output array, so no full-lattice complex array
    is held.  Every row gets the operations of the whole-lattice formula
    in the same order, so the result has the same bits.

    Only the first order exists: the term needs the third derivatives of
    the potential and of the field; going further would require fifth-order
    lattice derivatives that amplify noise faster than they add accuracy.
    """
    grid = _one_dimensional(field_lo.grid, "nlo_correction")
    scale = (dt * HBAR**2 / 24.0) * _third_derivative(pot, grid)[:, None]
    f = field_lo.values
    tol = _realness_tol(f)
    values = np.empty(grid.shape())
    for start in range(0, grid.nx, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        np.subtract(f[rows], scale[rows] * _spectral_p3(f[rows], grid, s_cutoff, tol),
                    out=values[rows])
    return WignerField(grid=field_lo.grid, values=values, time=field_lo.time)


def stable_p3_cutoff(grid: PhaseSpaceGrid, pot: Potential, dt: float) -> float:
    """Largest s-band for which the correction loop cannot self-amplify.

    One corrected step multiplies the p-spectrum at wavenumber s by
    1 + i dt V''' s^3 / 24 (per x); the band where |dt V''' s^3 / 24|
    exceeds one grows without bound under iteration.  The returned cutoff
    caps that factor at ``P3_SAFETY``; it depends on |dt| alone, and a
    step of zero (or one too small to move the factor) keeps every band.
    """
    axis = _one_dimensional(grid, "stable_p3_cutoff")
    v3max = float(np.abs(_third_derivative(pot, axis)).max())
    s_max = float(np.abs(axis.s_lattice).max())
    if abs(dt) * v3max == 0.0:
        return s_max
    return min(s_max, (24.0 * P3_SAFETY / (abs(dt) * v3max)) ** (1.0 / 3.0))


def stepper(grid: PhaseSpaceGrid, pot: Potential, dt: float,
            order: int = 0, mass: float = 1.0):
    """The step ``f -> f one dt later`` that ``phasespace.evolve`` runs:
    the transported step (order 0, ``lo``), or with order 1 (``nlo``) the
    transported field corrected before it seeds the next step, its third
    derivative band-limited at the stability bound.  A mass that
    ``phasespace.check_mass`` rejects raises its ``ValueError``."""
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    axis = _one_dimensional(grid, "stepper")
    check_mass(dt, mass)
    if order == 0:
        return lambda f: step_lo(f, pot, dt, mass=mass)
    cutoff = stable_p3_cutoff(axis, pot, dt)
    return lambda f: nlo_correction(step_lo(f, pot, dt, mass=mass),
                                    pot, dt, s_cutoff=cutoff)


# ---------------------------------------------------------------------------
# Hermite-Gaussian approximate delta (deposition kernel)
# ---------------------------------------------------------------------------

#: Largest ``DFunctionParams.order``: ``d_function`` needs sqrt((2M)!) as a
#: finite double, and 171! overflows.
MAX_DFUNC_ORDER = 85


@dataclass(frozen=True)
class DFunctionParams:
    """Width and truncation order of the Hermite-Gaussian delta approximant."""

    alpha: float
    order: int = 0

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not 0 <= self.order <= MAX_DFUNC_ORDER:
            raise ValueError(f"order must be in 0..{MAX_DFUNC_ORDER}")


def d_function(x, params: DFunctionParams) -> np.ndarray:
    """Truncated Hermite-Gaussian representation of a delta function,

        D(x) = (alpha / sqrt(2 pi)) exp(-u^2 / 2)
               * sum_{m=0}^{M} (-1)^m He_2m(u) / (2^m m!),   u = alpha x,

    the Gauss-Hermite expansion of delta(u) cut after He_2M.  Even in x,
    with unit integral and vanishing moments int u^k D du for
    1 <= k <= 2M + 1 at every (alpha, order): an order-M delta
    approximant.  order = 0 reduces to a pure Gaussian of unit integral.

    The probabilists' Hermite polynomials come from ``_hermite_basis``,
    the three-term recurrence He_{k+1}(u) = u He_k(u) - k He_{k-1}(u)
    written for He_k / sqrt(k!), so He_2m = sqrt((2m)!) * basis[2m].
    """
    u = params.alpha * np.asarray(x, dtype=float)
    coef = np.array([(-1.0) ** m * math.sqrt(math.factorial(2 * m))
                     / (2.0 ** m * math.factorial(m))
                     for m in range(params.order + 1)])
    series = _hermite_basis(u, 2 * params.order + 1)[..., ::2] @ coef
    return params.alpha / np.sqrt(2.0 * np.pi) * np.exp(-u**2 / 2.0) * series


def auto_alpha(delta: float) -> float:
    """Default kernel inverse-width for cell size delta: alpha = 2 / delta,
    so the Gaussian envelope has sigma = delta / 2 (core over ~2 cells).
    The lattice does not resolve that width; ``deposit`` restores the
    kernel's moment conditions on the lattice instead."""
    return 2.0 / delta


# ---------------------------------------------------------------------------
# Lagrangian picture: particle ensembles and transcription
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ensemble:
    """Pseudoparticles: position, momentum, carried Wigner value (may be
    negative) and the cell widths each particle represents."""

    r: np.ndarray
    p: np.ndarray
    f_l: np.ndarray
    dr: np.ndarray
    dp: np.ndarray

    def __post_init__(self):
        arrays = {}
        n = None
        for name in ("r", "p", "f_l", "dr", "dp"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            if n is None:
                n = len(arr)
            elif len(arr) != n:
                raise ValueError("all particle arrays must share one length")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
            arr.setflags(write=False)
            arrays[name] = arr
        if (arrays["dr"] <= 0).any() or (arrays["dp"] <= 0).any():
            raise ValueError("cell widths must be positive")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.r)

    def weighted_volume(self) -> float:
        """sum f_L dr dp; equals the norm of the originating field."""
        return float((self.f_l * self.dr * self.dp).sum())


def to_ensemble(field_in: WignerField) -> Ensemble:
    """One particle per lattice cell, carrying that node's value."""
    grid = _one_dimensional(field_in.grid, "to_ensemble")
    r, p = np.meshgrid(grid.x_lattice, grid.p_lattice, indexing="ij")
    n = grid.nx * grid.np
    return Ensemble(r=r.ravel(), p=p.ravel(), f_l=field_in.values.ravel(),
                    dr=np.full(n, grid.dx), dp=np.full(n, grid.dp))


def kernel_reach(params: DFunctionParams) -> float:
    """Distance from a particle beyond which its kernel is not deposited."""
    # envelope exp(-(alpha u)^2 / 2) times a degree-2M polynomial is far
    # below double precision once |alpha u| > 9 + 2M
    return (9.0 + 2.0 * params.order) / params.alpha


# largest residual of the restored moment conditions (in the normalized
# Hermite basis) that deposit accepts before calling the kernel too
# narrow for the lattice
_MOMENT_TOL = 1e-8


def _hermite_basis(u: np.ndarray, count: int) -> np.ndarray:
    """He_k(u) / sqrt(k!) for k < count, stacked along a new last axis."""
    basis = [np.ones_like(u), u]
    for k in range(1, count - 1):
        basis.append((u * basis[k] - np.sqrt(k) * basis[k - 1]) / np.sqrt(k + 1))
    return np.stack(basis[:count], axis=-1)


def _stencil_weights(frac: np.ndarray, offsets: np.ndarray, delta: float,
                     params: DFunctionParams) -> np.ndarray:
    """Deposit weights on the stencil ``offsets`` (in cells) of a particle
    sitting ``frac`` cells from its nearest node; one row per ``frac``.

    The sampled kernel is multiplied by the polynomial of degree 2M + 1 in
    the offset that gives the weights unit lattice sum (delta * sum = 1)
    and vanishing discrete moments 1 .. 2M + 1 about the particle: the
    conditions D meets in the continuum, kept on the lattice as in
    reproducing-kernel particle methods (Liu, Jun & Zhang 1995).  The
    sums run over the whole stencil, in bounds or not.

    The kernel is evaluated with numpy's overflow warnings off: the moment
    check, not a warning, reports a kernel whose Hermite terms overflow.
    """
    x = (offsets[None, :] - frac[:, None]) * delta        # node - particle
    count = 2 * params.order + 2
    with np.errstate(over="ignore", invalid="ignore"):
        raw = d_function(x, params)
        # Hermite polynomials in the kernel's own scale keep the moment
        # system far better conditioned than monomials in the offset
        basis = _hermite_basis(params.alpha * x, count)
        gram = delta * np.matmul((basis * raw[..., None]).transpose(0, 2, 1), basis)
    target = _hermite_basis(np.zeros(1), count)[0]        # q(0) for each q
    rhs = np.broadcast_to(target[:, None], (len(frac), count, 1))
    narrow = NumericalError(
        f"deposition kernel (alpha {params.alpha:g}, order {params.order}) "
        f"is too narrow for cell {delta:g}: its moments cannot be kept on "
        "the lattice")
    try:
        coef = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise narrow from None
    weights = raw * np.matmul(basis, coef)[..., 0]
    resid = delta * np.matmul(weights[:, None, :], basis)[:, 0] - target
    if not np.abs(resid).max() <= _MOMENT_TOL:
        raise narrow
    return weights


def _axis_stencils(pos: np.ndarray, lo: float, delta: float, n: int,
                   params: DFunctionParams):
    """Nearest node, stencil offsets, and the weight table with each
    particle's row in it, along an axis of ``n`` nodes, for one chunk of
    particles.  Weights depend only on the particle's offset from its
    node, so each distinct offset of the chunk is solved once (a single
    row for particles on lattice nodes).

    A particle whose stencil cannot reach a node of the axis, however far
    out (its node need not fit an integer), gets the node -half - 1 and
    offset 0: its stencil then lies just below the axis, so it deposits
    nothing, like the out-of-grid nodes of any other stencil, and keeps its
    place in the particle order.
    """
    half = int(np.ceil(kernel_reach(params) / delta))
    offsets = np.arange(-half, half + 1)
    with np.errstate(over="ignore"):
        node = np.rint((pos - lo) / delta)
        # form the node as the lattice does, so an on-node particle sits at 0
        frac = (pos - (lo + delta * node)) / delta
    far = (node + half < 0) | (node - half > n - 1)
    node[far] = -half - 1
    frac[far] = 0.0
    fracs, row = np.unique(frac, return_inverse=True)
    table = _stencil_weights(fracs, offsets, delta, params)
    return node.astype(int), offsets, table, row


def deposit(ensemble: Ensemble, grid: PhaseSpaceGrid,
            params_r: DFunctionParams, params_p: DFunctionParams) -> WignerField:
    """Scatter particles onto a lattice through the separable kernel
    D(x - r_i) D(p - p_i) weighted by f_L dr dp.

    Along each axis the sampled kernel is corrected so that, over the
    particle's whole stencil, it keeps the unit integral and the vanishing
    moments 1 .. 2M + 1 of the continuum kernel (see ``_stencil_weights``).
    A particle far enough inside the grid therefore deposits exactly
    f_L dr dp, and an order-M kernel reproduces polynomials of degree
    2M + 1.  Stencil nodes outside the grid are dropped after the
    correction, so edge leakage shows up as norm loss.  Raises
    ``NumericalError`` when the kernel is too narrow for the lattice to
    carry its moments.

    Particles are processed in a fixed order, in chunks of
    ``_DEPOSIT_CHUNK``: each chunk builds its own stencils and weight
    tables, its values are summed into a zeroed lattice in particle order,
    and that lattice is added to the field, so the result is deterministic
    and no array but the ensemble's own columns is as long as it.  Within
    a chunk the values are formed a sub-block of at most
    ``_DEPOSIT_VALUES`` stencil values (and at least one particle) at a
    time and added with ``np.add.at``, in the order and with the bits of
    one ``np.bincount`` over the whole chunk, so the working set is a
    sub-block's, not a chunk's.  Kernel tails are
    truncated where they fall below double precision.  An ensemble carries
    no time, so the field is at time 0.
    """
    axis = _one_dimensional(grid, "deposit")
    flat = np.zeros(axis.nx * axis.np)
    sums = np.empty_like(flat)
    for chunk in range(0, len(ensemble), _DEPOSIT_CHUNK):
        sl = slice(chunk, chunk + _DEPOSIT_CHUNK)
        ci, off_i, table_i, row_i = _axis_stencils(ensemble.r[sl], axis.x_min,
                                                   axis.dx, axis.nx, params_r)
        cj, off_j, table_j, row_j = _axis_stencils(ensemble.p[sl], axis.p_min,
                                                   axis.dp, axis.np, params_p)
        w = ensemble.f_l[sl] * ensemble.dr[sl] * ensemble.dp[sl]
        block = max(1, _DEPOSIT_VALUES // (len(off_i) * len(off_j)))
        sums.fill(0.0)
        for start in range(0, len(w), block):
            b = slice(start, start + block)
            ii = ci[b, None] + off_i[None, :]                     # (n, wi)
            jj = cj[b, None] + off_j[None, :]                     # (n, wj)
            # kernel values are densities; the particle weight already
            # carries the dr * dp cell volume.  Nodes outside the grid get
            # weight zero (on a clipped index), after the correction.
            wi = np.where((ii >= 0) & (ii < axis.nx), table_i[row_i[b]], 0.0)
            wj = np.where((jj >= 0) & (jj < axis.np), table_j[row_j[b]], 0.0)
            contrib = (w[b, None] * wi)[:, :, None] * wj[:, None, :]
            index = (np.clip(ii, 0, axis.nx - 1)[:, :, None] * axis.np
                     + np.clip(jj, 0, axis.np - 1)[:, None, :])
            np.add.at(sums, index.ravel(), contrib.ravel())
        flat += sums
    return WignerField(grid=grid, values=flat.reshape(axis.shape()))


# ---------------------------------------------------------------------------
# ensemble serialization: '# ensemble N' header, rows 'r p f_L dr dp'
# ---------------------------------------------------------------------------

#: Particles formatted per write in ``save_ensemble``; stacking the five
#: columns of the whole ensemble at once would raise the peak memory.
_SAVE_BLOCK = 8192


def save_ensemble(ensemble: Ensemble, path) -> None:
    columns = (ensemble.r, ensemble.p, ensemble.f_l, ensemble.dr, ensemble.dp)
    with open(path, "w") as fh:
        fh.write(f"# ensemble {len(ensemble)}\n")
        for start in range(0, len(ensemble), _SAVE_BLOCK):
            sl = slice(start, start + _SAVE_BLOCK)
            write_rows(fh, np.column_stack([col[sl] for col in columns]))


def load_ensemble(path) -> Ensemble:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "#" or header[1] != "ensemble":
            raise ValueError(f"{path}: not an ensemble file")
        try:
            count = int(header[2])
            data = read_rows(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if count < 0:
        raise ValueError(f"{path}: the particle count must not be negative, got {count}")
    if data.size == 0:
        data = data.reshape(0, 5)
    if data.shape != (count, 5):
        raise ValueError(f"{path}: expected {count} rows of 5 columns, got {data.shape}")
    return Ensemble(r=data[:, 0], p=data[:, 1], f_l=data[:, 2],
                    dr=data[:, 3], dp=data[:, 4])
