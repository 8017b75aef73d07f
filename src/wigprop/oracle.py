"""Ground-truth engine: Gaussian-basis bound states of the attractive
Gaussian well and the closed-form time-dependent Wigner function built
from them.

A non-orthogonal basis of even Gaussians psi_n(x) = exp(-x^2/2 beta_n^2) /
sqrt(sqrt(pi) beta_n) with beta_n^2 = n * beta0^2 turns the Schroedinger
problem H = -d^2/dx^2 / 2 - exp(-x^2/2 sigma^2) of the unit-depth well
into a small dense generalized eigenproblem (T + V) a = E B a with
closed-form matrix elements.  The resulting eigenpairs give an analytic
Wigner function at any time, which every propagator in the package is
checked against.  The Hamiltonian has unit mass and unit depth: a
scenario with an oracle initial state in a well of any other depth, or a
``method = oracle`` run at any other mass, is refused as a configuration
error.

The basis spans even-parity states only; odd states are out of reach by
construction.  Matrix elements are exact for any n_max, but the overlap
matrix becomes numerically singular in double precision near n_max = 12
(its conditioning depends only on the index ratios, not on beta0), so the
solver guards the Cholesky pivots and fails loudly rather than returning
garbage.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .phasespace import (_BLOCK_ROWS, NumericalError, PhaseSpaceGrid,
                         WignerField, _one_dimensional)
from .potentials import check_sigma

#: Cholesky pivots below this abort the solve.
CHOLESKY_PIVOT_MIN = 1e-12

#: Largest n_max that ``solve`` accepts, for every beta0_sq: from n_max = 12
#: on, a pivot of the overlap matrix falls below CHOLESKY_PIVOT_MIN.
N_MAX_SOLVABLE = 11


class ConditioningError(NumericalError):
    """Overlap matrix too ill-conditioned for a reliable solve."""


@dataclass(frozen=True)
class GaussianBasis:
    """Even Gaussian basis with squared widths n * beta0_sq, n = 1..n_max."""

    beta0_sq: float = 1.0
    n_max: int = 10

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError("n_max must be at least 2")
        # the widths n * beta0_sq must be normal doubles, and the matrix
        # elements multiply two of them, so the largest one squared must be
        # finite: for n_max = 10, beta0_sq from 2.2e-308 to 1.3e153
        top = self.n_max * self.beta0_sq
        if not (sys.float_info.min <= self.beta0_sq and top * top < math.inf):
            raise ValueError(
                f"beta0_sq must be at least {sys.float_info.min:.3g}, and at most "
                f"{math.sqrt(sys.float_info.max) / self.n_max:.3g} for n_max = "
                f"{self.n_max}, got {self.beta0_sq!r}")

    @cached_property
    def betas_sq(self) -> np.ndarray:
        b = self.beta0_sq * np.arange(1, self.n_max + 1, dtype=float)
        b.setflags(write=False)
        return b

    @cached_property
    def betas(self) -> np.ndarray:
        b = np.sqrt(self.betas_sq)
        b.setflags(write=False)
        return b


def basis_function(basis: GaussianBasis, n: int, x) -> np.ndarray:
    """Normalized basis Gaussian psi_n(x); n is 1-based."""
    if not 1 <= n <= basis.n_max:
        raise ValueError(f"n must be in 1..{basis.n_max}")
    b2 = basis.betas_sq[n - 1]
    x = np.asarray(x, dtype=float)
    return np.exp(-x**2 / (2.0 * b2)) / np.sqrt(np.sqrt(np.pi) * basis.betas[n - 1])


def overlap_matrix(basis: GaussianBasis) -> np.ndarray:
    """B_nm = sqrt(2 beta_n beta_m / (beta_n^2 + beta_m^2)); unit diagonal."""
    bn = basis.betas[:, None]
    bm = basis.betas[None, :]
    return np.sqrt(2.0 * bn * bm / (bn**2 + bm**2))


def kinetic_matrix(basis: GaussianBasis) -> np.ndarray:
    """T_nm = B_nm / (2 (beta_n^2 + beta_m^2))."""
    bn2 = basis.betas_sq[:, None]
    bm2 = basis.betas_sq[None, :]
    return 0.5 * overlap_matrix(basis) / (bn2 + bm2)


def potential_matrix(basis: GaussianBasis, sigma: float) -> np.ndarray:
    """Matrix elements of -exp(-x^2 / 2 sigma^2) in the Gaussian basis."""
    check_sigma(sigma)
    bn2 = basis.betas_sq[:, None]
    bm2 = basis.betas_sq[None, :]
    bn = basis.betas[:, None]
    bm = basis.betas[None, :]
    reduced = bn2 * bm2 / (bn2 + bm2)
    return -np.sqrt((2.0 * bn * bm / (bn2 + bm2)) * (sigma**2 / (reduced + sigma**2)))


# ---------------------------------------------------------------------------
# dense symmetric generalized eigensolver: Cholesky reduction + cyclic Jacobi
# ---------------------------------------------------------------------------

def _cholesky_lower(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Plain Cholesky; returns (L, smallest pivot).  Raises ConditioningError
    when a pivot falls below CHOLESKY_PIVOT_MIN."""
    n = mat.shape[0]
    lower = np.zeros_like(mat)
    min_pivot = np.inf
    for i in range(n):
        pivot = mat[i, i] - lower[i, :i] @ lower[i, :i]
        min_pivot = min(min_pivot, pivot)
        if pivot < CHOLESKY_PIVOT_MIN:
            raise ConditioningError(
                f"Cholesky pivot {pivot:.3e} at index {i} is below "
                f"{CHOLESKY_PIVOT_MIN:.1e}; basis too ill-conditioned "
                f"(reduce n_max)")
        lower[i, i] = np.sqrt(pivot)
        lower[i + 1:, i] = (mat[i + 1:, i] - lower[i + 1:, :i] @ lower[i, :i]) / lower[i, i]
    return lower, float(min_pivot)


def _jacobi_eigh(mat: np.ndarray, max_sweeps: int = 100
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Slow but bulletproof for the <= 20 x 20 matrices that show up here,
    and accurate on strongly graded matrices: an off-diagonal entry is
    considered negligible relative to its own diagonal pair, not to the
    global scale, so small eigenvalues keep their relative accuracy.
    Returns eigenvalues ascending and eigenvectors as columns.
    """
    a = np.array(mat, dtype=float)
    n = a.shape[0]
    vecs = np.eye(n)
    for _ in range(max_sweeps):
        rotations = 0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-16 * (abs(a[p, p]) + abs(a[q, q])):
                    a[p, q] = a[q, p] = 0.0
                    continue
                rotations += 1
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                if abs(theta) > 1e150:
                    t = 0.5 / theta
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1.0))
                    if theta == 0.0:
                        t = 1.0
                c = 1.0 / np.sqrt(t**2 + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * vecs[:, p] - s * vecs[:, q]
                rot_q = s * vecs[:, p] + c * vecs[:, q]
                vecs[:, p], vecs[:, q] = rot_p, rot_q
        if rotations == 0:
            break
    else:
        raise NumericalError("Jacobi eigensolver failed to converge")
    evals = np.diag(a).copy()
    order = np.argsort(evals)
    return evals[order], vecs[:, order]


@dataclass(frozen=True)
class EigenSolution:
    """Eigenpairs of (T + V) a = E B a for the Gaussian well.

    coeffs[lam] holds the basis coefficients of state lam, normalized to
    a^T B a = 1 and sign-fixed so each eigenfunction is positive at the
    origin.  residuals[lam] is the max-abs generalized residual.
    """

    basis: GaussianBasis
    sigma: float
    energies: np.ndarray        # ascending
    coeffs: np.ndarray          # (n_states, n_max)
    overlap: np.ndarray         # B
    residuals: np.ndarray
    min_pivot: float

    @property
    def n_states(self) -> int:
        return len(self.energies)


def solve(basis: GaussianBasis, sigma: float) -> EigenSolution:
    """Diagonalize the well Hamiltonian in the Gaussian basis.

    Cholesky-reduce B = L L^T, Jacobi-diagonalize L^-1 (T+V) L^-T and
    back-substitute; at these sizes robustness matters more than speed.
    A basis above N_MAX_SOLVABLE + 1 first factors its leading block of
    that size, whose pivots are the first ones of the whole, so a huge
    n_max fails at the same pivot without allocating n_max values.
    """
    if basis.n_max > N_MAX_SOLVABLE + 1:
        _cholesky_lower(overlap_matrix(replace(basis, n_max=N_MAX_SOLVABLE + 1)))
    b_mat = overlap_matrix(basis)
    h_mat = kinetic_matrix(basis) + potential_matrix(basis, sigma)
    lower, min_pivot = _cholesky_lower(b_mat)
    # reduced = L^-1 H L^-T via two triangular solves
    tmp = np.linalg.solve(lower, h_mat)
    reduced = np.linalg.solve(lower, tmp.T).T
    reduced = 0.5 * (reduced + reduced.T)  # kill roundoff asymmetry
    evals, y = _jacobi_eigh(reduced)
    coeffs = np.linalg.solve(lower.T, y).T  # rows are a_lambda

    # back-substitution through an ill-conditioned L loses a^T B a = 1 at
    # the eps/pivot level for the top states; renormalize explicitly
    for a in coeffs:
        a /= np.sqrt(a @ b_mat @ a)

    # sign convention: every eigenfunction positive at the origin
    psi_at_origin = 1.0 / np.sqrt(np.sqrt(np.pi) * basis.betas)
    flip = np.sign(coeffs @ psi_at_origin)
    flip[flip == 0] = 1.0
    coeffs = coeffs * flip[:, None]

    residuals = np.array([
        np.abs(h_mat @ a - e * (b_mat @ a)).max()
        for e, a in zip(evals, coeffs)
    ])
    return EigenSolution(basis=basis, sigma=float(sigma), energies=evals,
                         coeffs=coeffs, overlap=b_mat, residuals=residuals,
                         min_pivot=min_pivot)


@dataclass(frozen=True)
class SuperpositionState:
    """Linear combination of eigenstates with amplitudes b_lam."""

    solution: EigenSolution
    amplitudes: np.ndarray      # complex, sum |b|^2 = 1

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or len(amps) > self.solution.n_states:
            raise ValueError("amplitudes must be a vector over the solved states")
        total = float(np.abs(amps) ** 2 @ np.ones(len(amps)))
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"amplitudes must satisfy sum |b|^2 = 1, got {total}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def normalized(amplitudes) -> np.ndarray:
    """The amplitudes b / sqrt(sum |b|^2), as complex numbers.  Raises
    ``ValueError``, with no numpy warning, unless that sum is a positive
    finite double: not for a NaN or inf, all zeros, or squares that
    overflow or underflow."""
    amps = np.asarray(amplitudes, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        total = (np.abs(amps) ** 2).sum()
    if not 0 < total < math.inf:
        raise ValueError("amplitudes must be numbers whose squares sum to a "
                         f"positive finite double, got sum {float(total)!r}")
    return amps / np.sqrt(total)


def superposition(solution: EigenSolution, *amplitudes) -> SuperpositionState:
    """Build a state from (possibly unnormalized) amplitudes."""
    return SuperpositionState(solution=solution, amplitudes=normalized(amplitudes))


def basis_coefficients(state: SuperpositionState, t: float) -> np.ndarray:
    """c_n(t) = sum_lam b_lam exp(-i E_lam t) a_{lam n}."""
    sol = state.solution
    k = len(state.amplitudes)
    phases = state.amplitudes * np.exp(-1j * sol.energies[:k] * t)
    return phases @ sol.coeffs[:k]


def wavefunction(state: SuperpositionState, t: float, x) -> np.ndarray:
    """Phi(x, t) = sum_n c_n(t) psi_n(x)."""
    x = np.asarray(x, dtype=float)
    c = basis_coefficients(state, t)
    out = np.zeros_like(x, dtype=complex)
    for n in range(1, state.solution.basis.n_max + 1):
        out = out + c[n - 1] * basis_function(state.solution.basis, n, x)
    return out


# ---------------------------------------------------------------------------
# closed-form Wigner transforms of basis-state pairs
# ---------------------------------------------------------------------------

def _pair_coefficients(basis: GaussianBasis, n: int, m: int):
    """Gaussian-pair Wigner transform written as
    2 B_nm exp(-a x^2 - b p^2) exp(i d x p); returns (prefactor, a, b, d)."""
    bn2 = basis.betas_sq[n - 1]
    bm2 = basis.betas_sq[m - 1]
    pref = 2.0 * np.sqrt(2.0 * basis.betas[n - 1] * basis.betas[m - 1] / (bn2 + bm2))
    reduced = bn2 * bm2 / (bn2 + bm2)
    skew = 0.5 / bn2 - 0.5 / bm2
    return pref, 2.0 / (bn2 + bm2), 2.0 * reduced, 4.0 * reduced * skew


def wigner_basis(basis: GaussianBasis, n: int, m: int, x, p) -> np.ndarray:
    """Closed-form Wigner transform of the pair (psi_n, psi_m).

    Satisfies f_mn = conj(f_nm); the diagonal is the familiar
    2 exp(-x^2/beta_n^2 - p^2 beta_n^2).  Indices are 1-based.
    """
    for idx in (n, m):
        if not 1 <= idx <= basis.n_max:
            raise ValueError(f"indices must be in 1..{basis.n_max}")
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    pref, a, b, d = _pair_coefficients(basis, n, m)
    return pref * np.exp(-a * x**2 - b * p**2) * np.exp(1j * d * x * p)


def _pair_terms(state: SuperpositionState, times) -> list[tuple]:
    """(weight, live, (prefactor, a, b, d)) for every basis pair n <= m of
    the folded double sum, where ``live`` lists (k, c_n conj(c_m)) at
    times[k] for each time whose coefficient is non-zero; a pair with no
    such time is left out."""
    basis = state.solution.basis
    coeffs = [basis_coefficients(state, t) for t in times]
    terms = []
    for n in range(1, basis.n_max + 1):
        for m in range(n, basis.n_max + 1):
            live = [(k, cc) for k, cc in enumerate(c[n - 1] * np.conj(c[m - 1])
                                                   for c in coeffs)
                    if abs(cc) != 0.0]
            if live:
                weight = 1.0 if n == m else 2.0
                terms.append((weight, live, _pair_coefficients(basis, n, m)))
    return terms


def _assemble(terms: list[tuple], count: int, x: np.ndarray, p: np.ndarray,
              mirror: slice | None = None) -> np.ndarray:
    """Hermitian double sum over basis pairs, folded to n <= m, at each of
    ``count`` times; stacked along a new first axis.

    Only the coefficients depend on time, so each pair term is evaluated
    once and accumulated into every time it is live at.  Each time gets
    the same operations in the same order as a sum for that time alone.

    Each pair's exponent is written into one complex buffer, real part
    -a x^2 - b p^2 and imaginary part (d x) p, and exponentiated and scaled
    in place; the sums get the bits of pref * exp(-a x^2 - b p^2
    + 1j d x p) with its three full-size complex temporaries.

    ``mirror`` picks rows of x, a column, whose negatives -x are lattice
    rows too; the stack holds their mirror rows after the rows of x, in
    the order of ``mirror``.  At -x the exponent is the exact conjugate of
    the one at x, and cexp(conj z) is conj(cexp z) (C99 Annex G,
    G.6.3.1), so each mirror row's exponential is copied as the conjugate
    of its source row's, not computed.  From the scaling on, every row
    gets the same operations, and a mirror row has the bits it would have
    as a row of x.
    """
    shape = np.broadcast(x, p).shape
    if mirror is None:
        buf = own = np.empty(shape, dtype=complex)
    else:
        rows = shape[0]
        buf = np.empty((rows + len(range(rows)[mirror]),) + shape[1:],
                       dtype=complex)
        own, copies = buf[:rows], buf[rows:]
    out = np.zeros((count,) + buf.shape, dtype=float)
    x2, p2 = x**2, p**2
    for weight, live, (pref, a, b, d) in terms:
        np.subtract(-a * x2, b * p2, out=own.real)
        np.multiply(d * x, p, out=own.imag)
        np.exp(own, out=own)
        if mirror is not None:
            np.conjugate(own[mirror], out=copies)
        buf *= pref
        # a 0-d buffer as a numpy scalar: complex scalar products round
        # differently from the array loop, and a point takes the scalar path
        term = buf[()]
        for k, cc in live:
            out[k] += weight * (cc * term).real
    return out


def _mirrored_rows(x: np.ndarray) -> int:
    """The length m of the run of rows i = 1, 2, ... below n / 2 of the
    lattice x whose row n - i is exactly -x[i]: n / 2 - 1 (every row but 0
    and n / 2) on a box symmetric about 0 with an exact spacing, 0 on an
    asymmetric one and 0 or a few on a symmetric one with an inexact
    spacing."""
    n = len(x)
    pairs = x[n - 1:n // 2:-1] == -x[1:n // 2]
    return len(pairs) if pairs.all() else int(pairs.argmin())


def wigner_at(state: SuperpositionState, t: float, x, p):
    """Time-dependent Wigner function of the superposition at (x, p).

    Real by hermiticity of the double sum; a stationary (single-amplitude)
    state is time-independent.  Broadcasts over x and p.
    """
    x_arr = np.asarray(x, dtype=float)
    p_arr = np.asarray(p, dtype=float)
    out = _assemble(_pair_terms(state, [t]), 1, x_arr, p_arr)[0]
    if np.ndim(x) == 0 and np.ndim(p) == 0:
        return float(out)
    return out


#: Row-block threads: the CPUs this process may run on, settled on first use.
_workers: int | None = None


def sample_fields(state: SuperpositionState, times,
                  grid: PhaseSpaceGrid) -> list[WignerField]:
    """Evaluate the analytic Wigner function on every lattice node at each
    of ``times``; one field per time, in the order given.

    Each basis pair's complex exponential is evaluated once per block of
    ``_BLOCK_ROWS`` x-rows for all the times (see ``_assemble``).  Rows
    n - 1 ... n - m, the exact mirrors -x of rows 1 ... m
    (``_mirrored_rows``), are not evaluated: the block of each source row
    copies the conjugate of its exponential into the mirror row.  With
    ``_workers`` >= 2 and more than one block, the blocks run on a thread
    pool of this call's own; every block finishes and the pool is joined
    before the first error, in block order, is raised.  Else they run in
    turn on the calling thread.  Every node of every field gets the same
    operations in the same order as a single-threaded sum over the whole
    lattice at its own time, so each field has the same bits whatever the
    other times, the number of CPUs and the mirrored rows.  The fields
    share one array of len(times) lattices, which bounds how many times
    one call should take.
    """
    global _workers
    axis = _one_dimensional(grid, "sample_fields")
    times = [float(t) for t in times]
    terms = _pair_terms(state, times)
    x = axis.x_lattice[:, None]
    p = axis.p_lattice[None, :]
    nx = axis.nx
    m = _mirrored_rows(axis.x_lattice)
    values = np.empty((len(times),) + axis.shape())

    def rows(sl):
        # this block's rows among 1 ... m, and their mirrors nx - i
        lo = max(sl.start, 1)
        hi = max(min(sl.stop, m + 1), lo)
        block = _assemble(terms, len(times), x[sl], p,
                          mirror=slice(lo - sl.start, hi - sl.start))
        size = sl.stop - sl.start
        values[:, sl] = block[:, :size]
        values[:, nx - lo:nx - hi:-1] = block[:, size:]

    blocks = [slice(start, min(start + _BLOCK_ROWS, nx - m))
              for start in range(0, nx - m, _BLOCK_ROWS)]
    if _workers is None:            # os.cpu_count() where there is no affinity
        _workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
    if len(blocks) < 2 or _workers < 2:
        for block in blocks:
            rows(block)
    else:
        # imported here: concurrent.futures loads logging, which no
        # single-threaded command needs at start-up
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=_workers,
                                thread_name_prefix="wigprop-rows") as pool:
            futures = [pool.submit(rows, block) for block in blocks]
        for future in futures:
            future.result()
    return [WignerField(grid=grid, values=values[k], time=t)
            for k, t in enumerate(times)]


def sample_field(state: SuperpositionState, t: float,
                 grid: PhaseSpaceGrid) -> WignerField:
    """Evaluate the analytic Wigner function on every lattice node at one
    time: ``sample_fields`` with one time."""
    return sample_fields(state, [t], grid)[0]
