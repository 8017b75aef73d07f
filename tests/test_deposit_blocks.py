"""``pseudoparticle.deposit`` forms each chunk's stencil values a sub-block
at a time, with the bits of one ``np.bincount`` over the whole chunk.

- Over generated ensembles (nodes, off-node points, stencils that reach
  past an edge or just miss it, and particles far off the grid on either
  axis) at orders 0 to 3, the deposited field must equal, bit for bit,
  the whole-chunk deposit written out below.  Particle counts straddle
  the chunk (4096) and the sub-block size, which is also shrunk to one
  particle and to a few.
- Its tracemalloc peak over 65,536 particles is a sub-block's working
  set, not a chunk's, on lattice nodes; off them it is one chunk's
  stencils and weight table, not the ensemble's.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from wigprop import make_grid, pseudoparticle
from wigprop.phasespace import WignerField
from wigprop.pseudoparticle import (_DEPOSIT_CHUNK, DFunctionParams, Ensemble,
                                    _stencil_weights, auto_alpha, deposit,
                                    kernel_reach, to_ensemble)

KINDS = ("node", "off", "edge", "far")


def whole_chunk_stencils(pos, lo, delta, params):
    """``_axis_stencils`` as it was before far particles were parked: each
    particle's own node, which must fit an integer."""
    half = int(np.ceil(kernel_reach(params) / delta))
    offsets = np.arange(-half, half + 1)
    centre = np.rint((pos - lo) / delta).astype(int)
    frac = (pos - (lo + delta * centre)) / delta
    fracs, row = np.unique(frac, return_inverse=True)
    table = np.concatenate([
        _stencil_weights(fracs[s:s + _DEPOSIT_CHUNK], offsets, delta, params)
        for s in range(0, len(fracs), _DEPOSIT_CHUNK)])
    return centre, offsets, table, row


def whole_chunk_deposit(ensemble, grid, params_r, params_p):
    """The deposit of whole chunks: one ``np.bincount`` of every stencil
    value of a chunk, added to the field."""
    ci, off_i, table_i, row_i = whole_chunk_stencils(ensemble.r, grid.x_min,
                                                     grid.dx, params_r)
    cj, off_j, table_j, row_j = whole_chunk_stencils(ensemble.p, grid.p_min,
                                                     grid.dp, params_p)
    flat = np.zeros(grid.nx * grid.np)
    for start in range(0, len(ensemble), _DEPOSIT_CHUNK):
        sl = slice(start, start + _DEPOSIT_CHUNK)
        w = ensemble.f_l[sl] * ensemble.dr[sl] * ensemble.dp[sl]
        ii = ci[sl, None] + off_i[None, :]
        jj = cj[sl, None] + off_j[None, :]
        wi = np.where((ii >= 0) & (ii < grid.nx), table_i[row_i[sl]], 0.0)
        wj = np.where((jj >= 0) & (jj < grid.np), table_j[row_j[sl]], 0.0)
        contrib = (w[:, None] * wi)[:, :, None] * wj[:, None, :]
        index = (np.clip(ii, 0, grid.nx - 1)[:, :, None] * grid.np
                 + np.clip(jj, 0, grid.np - 1)[:, None, :])
        flat += np.bincount(index.ravel(), weights=contrib.ravel(),
                            minlength=flat.size)
    return WignerField(grid=grid, values=flat.reshape(grid.shape()))


def positions(rng, kinds, lo, delta, n, half, count):
    """``count`` positions on an axis of ``n`` nodes from ``lo``, each of
    a kind drawn from ``kinds``; far ones lie up to 1e15 cells out, where
    a node still fits an integer."""
    kind = rng.integers(len(kinds), size=count)
    cells = np.empty(count)
    for k, name in enumerate(kinds):
        pick = kind == k
        m = int(pick.sum())
        if name == "node":
            cells[pick] = rng.integers(0, n, m)
        elif name == "off":
            cells[pick] = rng.uniform(-0.5, n - 0.5, m)
        elif name == "edge":
            # stencils that overlap an end, touch it, or just miss it
            near = rng.choice([-half - 2, -half - 1, -half, 0,
                               n - 1, n - 1 + half, n + half, n + half + 1], m)
            cells[pick] = near + rng.choice([0.0, 0.0, -0.5, 0.25, 0.5], m)
        else:
            cells[pick] = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(1, 15, m)
    return lo + delta * cells


def draw_ensemble(grid, params_r, params_p, kinds_r, kinds_p, count, seed):
    rng = np.random.default_rng(seed)
    half_r = int(np.ceil(kernel_reach(params_r) / grid.dx))
    half_p = int(np.ceil(kernel_reach(params_p) / grid.dp))
    return Ensemble(
        r=positions(rng, kinds_r, grid.x_min, grid.dx, grid.nx, half_r, count),
        p=positions(rng, kinds_p, grid.p_min, grid.dp, grid.np, half_p, count),
        f_l=rng.normal(size=count) * (rng.random(count) > 0.1),
        dr=grid.dx * rng.uniform(0.5, 2.0, count),
        dp=grid.dp * rng.uniform(0.5, 2.0, count))


# sub-blocks at the default budget hold 541, 387, 291 and 226 particles at
# orders 0 to 3 and the default width
COUNTS = [1, 2, 225, 226, 227, 290, 291, 292, 386, 387, 388, 540, 541, 542,
          4095, 4096, 4097, 4096 + 226, 4096 + 541 + 1, 8193]
kinds = st.sets(st.sampled_from(KINDS), min_size=1).map(sorted)


@settings(max_examples=100, deadline=None)
@given(nx=st.sampled_from([4, 16, 64]), n_p=st.sampled_from([8, 32]),
       order=st.integers(0, 3), alpha_cell=st.sampled_from([2.0, 1.0]),
       kinds_r=kinds, kinds_p=kinds,
       count=st.sampled_from(COUNTS) | st.integers(1, 5000),
       budget=st.sampled_from([pseudoparticle._DEPOSIT_VALUES, 1, 2000]),
       seed=st.integers(0, 2**32 - 1))
@example(nx=16, n_p=32, order=3, alpha_cell=2.0, kinds_r=list(KINDS),
         kinds_p=list(KINDS), count=4097,
         budget=pseudoparticle._DEPOSIT_VALUES, seed=1)
def test_sub_blocks_equal_whole_chunks(nx, n_p, order, alpha_cell, kinds_r,
                                       kinds_p, count, budget, seed):
    grid = make_grid(-3.0, 3.0, nx, -2.0, 2.0, n_p)
    params_r = DFunctionParams(alpha=alpha_cell / grid.dx, order=order)
    params_p = DFunctionParams(alpha=alpha_cell / grid.dp, order=order)
    ens = draw_ensemble(grid, params_r, params_p, kinds_r, kinds_p, count, seed)
    want = whole_chunk_deposit(ens, grid, params_r, params_p).values
    with mock.patch.object(pseudoparticle, "_DEPOSIT_VALUES", budget):
        got = deposit(ens, grid, params_r, params_p).values
    assert got.tobytes() == want.tobytes()


def test_deposit_peaks_at_a_sub_block_working_set():
    # 65,536 on-node particles on 256^2.  The working set is about six
    # arrays of 65,536 doubles or integers (0.5 MiB each): the field and
    # the chunk's sums, and one sub-block's values and indices with their
    # temporaries; a chunk's nodes, offsets and weight table (4096
    # particles, one row per axis) add little.  It peaked at 3.1 MiB
    # (order 0) and 3.0 MiB (order 3).  The bound leaves 5 MiB for numpy's
    # temporaries and is half the 16.1 and 32.9 MiB that whole
    # 4096-particle chunks of values and indices peak at.
    grid = make_grid(-8.0, 8.0, 256, -8.0, 8.0, 256)
    x = grid.x_lattice[:, None]
    p = grid.p_lattice[None, :]
    ens = to_ensemble(WignerField(grid=grid, values=np.exp(-x**2 / 4 - p**2)))
    for order in (0, 3):
        params_r = DFunctionParams(alpha=auto_alpha(grid.dx), order=order)
        params_p = DFunctionParams(alpha=auto_alpha(grid.dp), order=order)
        deposit(ens, grid, params_r, params_p)
        tracemalloc.start()
        try:
            deposit(ens, grid, params_r, params_p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, (order, peak / 2**20)


def test_off_node_deposit_peaks_at_one_chunks_weight_table():
    # 65,536 particles at uniform random positions on 256^2, so nearly
    # every offset is distinct.  Each chunk solves its own at most 4096
    # weight rows: the peak was 4.9 MiB at order 0 and 14.1 MiB at order 3
    # (the 17-node, 8-term Hermite bases and Gram matrices of one chunk),
    # against 19.6 and 31.1 MiB when one table held every row of the
    # ensemble (on nodes, per-chunk stencils also cut the previous test's
    # 4.9 and 4.8 MiB to 3.1 and 3.0).  The bounds leave 3-4 MiB for
    # numpy's temporaries.
    grid = make_grid(-8.0, 8.0, 256, -8.0, 8.0, 256)
    rng = np.random.default_rng(3)
    n = 65536
    ens = Ensemble(r=rng.uniform(-8.0, 8.0, n), p=rng.uniform(-8.0, 8.0, n),
                   f_l=rng.normal(size=n), dr=np.full(n, grid.dx),
                   dp=np.full(n, grid.dp))
    for order, bound in ((0, 8), (3, 18)):
        params_r = DFunctionParams(alpha=auto_alpha(grid.dx), order=order)
        params_p = DFunctionParams(alpha=auto_alpha(grid.dp), order=order)
        deposit(ens, grid, params_r, params_p)
        tracemalloc.start()
        try:
            deposit(ens, grid, params_r, params_p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20, (order, peak / 2**20)
