"""The oracle's sampled fields have the bits of its pointwise evaluation.

``oracle.sample_fields`` evaluates each basis pair's exponential on the
rows 0 ... n - m - 1 only and copies the conjugate of row i's into its
mirror row n - i, for the m rows that ``_mirrored_rows`` pairs.  That
keeps every bit only if the exponent at -x is the exact conjugate of the
one at x, and if the complex exponential commutes with conjugation; the
first holds by construction, the second is C99 Annex G (G.6.3.1), checked
here against this numpy and libm.  ``wigner_at`` evaluates every node and
is the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wigprop import make_grid, oracle
from wigprop.oracle import (GaussianBasis, _mirrored_rows, sample_fields, solve,
                            superposition, wigner_at)

SOLUTION = solve(GaussianBasis(), 3.0)
STATES = [superposition(SOLUTION, 1.0, 1.0), superposition(SOLUTION, 1.0, 0.8, 0.3),
          superposition(SOLUTION, 0.0, 1.0)]

#: nx from 4 to 512: at 64 and above the mirrors of one block of
#: ``_BLOCK_ROWS`` rows land in rows of other blocks
row_counts = st.sampled_from([4, 8, 16, 32, 64, 128, 256, 512])
times = st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=1, max_size=7)


def symmetric_exact(draw):
    # -L, L with L = k / 4 gives an exact spacing and exact lattice rows
    half = draw(st.integers(1, 64)) / 4.0
    return -half, half


def asymmetric(draw):
    lo = draw(st.floats(-12.0, -1.0))
    return lo, draw(st.floats(1.0, 12.0).filter(lambda hi: hi != -lo))


def symmetric_inexact(draw):
    half = draw(st.sampled_from([0.3, 0.1, 1.0 / 3.0, 0.7, 3.3, 6.4, 9.9]))
    return -half, half


BOXES = {"symmetric_exact": symmetric_exact, "asymmetric": asymmetric,
         "symmetric_inexact": symmetric_inexact}


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("box", list(BOXES))
@settings(max_examples=12, deadline=None)
@given(data=st.data(), nx=row_counts, n_p=st.sampled_from([4, 8, 16, 64]),
       ts=times, which=st.integers(0, len(STATES) - 1))
def test_sampled_fields_equal_pointwise_evaluation(box, workers, data, nx, n_p,
                                                   ts, which):
    x_min, x_max = BOXES[box](data.draw)
    grid = make_grid(x_min, x_max, nx, -6.4, 6.4, n_p)
    if box == "symmetric_exact":
        assert _mirrored_rows(grid.x_lattice) == nx // 2 - 1
    state = STATES[which]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_workers", workers)
        fields = sample_fields(state, ts, grid)
    x, p = grid.x_lattice[:, None], grid.p_lattice[None, :]
    for f, t in zip(fields, ts):
        assert f.values.tobytes() == wigner_at(state, t, x, p).tobytes()


@pytest.mark.parametrize("workers", [1, 4])
def test_mirrors_cross_blocks_at_seven_times(workers):
    # the pseudoparticle_io oracle pass: 7 times, a 512-row mirrored box
    grid = make_grid(-10.0, 10.0, 512, -6.4, 6.4, 16)
    ts = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_workers", workers)
        fields = sample_fields(STATES[0], ts, grid)
    x, p = grid.x_lattice[:, None], grid.p_lattice[None, :]
    for f, t in zip(fields, ts):
        assert f.values.tobytes() == wigner_at(STATES[0], t, x, p).tobytes()


def test_mirrored_rows_follow_the_lattice():
    assert _mirrored_rows(make_grid(-10, 10, 512, -1, 1, 4).x_lattice) == 255
    assert _mirrored_rows(make_grid(-8, 8, 4, -1, 1, 4).x_lattice) == 1
    assert _mirrored_rows(make_grid(-7, 9, 256, -1, 1, 4).x_lattice) == 0
    assert _mirrored_rows(make_grid(-1 / 3, 1 / 3, 256, -1, 1, 4).x_lattice) == 0
    # a run of exact pairs from row 1 on: row 2 of [-0.3, 0.3) is not one
    x = make_grid(-0.3, 0.3, 16, -1, 1, 4).x_lattice
    assert x[15] == -x[1] and x[14] != -x[2]
    assert _mirrored_rows(x) == 1


#: real parts around exp's underflow (-745) and overflow (709.78) edges,
#: and signed zeros
EDGE_REALS = [0.0, -0.0, -745.2, -745.13, -744.0, -708.4, -708.39, 709.78,
              709.79, 710.0, -1e-310, 1e-310]
reals = st.one_of(st.floats(-800.0, 800.0), st.sampled_from(EDGE_REALS))
imags = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1e-310, np.pi]))


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.tuples(reals, imags), min_size=1, max_size=64))
def test_exp_commutes_with_conjugation(parts):
    z = np.empty(len(parts), dtype=complex)
    z.real, z.imag = np.array(parts).T
    with np.errstate(all="ignore"):
        assert np.exp(np.conj(z)).tobytes() == np.conj(np.exp(z)).tobytes()
        # one value at a time too: the scalar path
        for value in z:
            assert np.exp(np.conj(value)).tobytes() == np.conj(np.exp(value)).tobytes()
