"""The oracle's sampled fields have the same bits for any worker count.

``oracle.sample_fields`` evaluates the rows of the lattice in blocks of
``_BLOCK_ROWS`` rows.  With ``oracle._workers`` set to 1 they run in turn
on the calling thread, the reference; with more workers and more than one
block they run on a thread pool of each call's own, joined before the
call returns, and must reproduce the reference bit for bit.
"""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wigprop import make_grid, oracle
from wigprop.oracle import GaussianBasis, sample_field, solve, superposition
from wigprop.phasespace import _BLOCK_ROWS

SOLUTION = solve(GaussianBasis(), 3.0)
STATE = superposition(SOLUTION, 1.0, 0.8, 0.3)

sizes = st.sampled_from([8, 16, 32, 64, 128, 256, 512])
times = st.floats(-5.0, 5.0, allow_nan=False)

#: a box without mirrored rows, where every row is evaluated, and one
#: where rows n - 1 ... n / 2 + 1 are copied from rows 1 ... n / 2 - 1
BOXES = {"asymmetric": (-7.0, 9.0), "symmetric": (-8.0, 8.0)}


def on_workers(count, fn, *args, **kwargs):
    """fn(*args, **kwargs) with the oracle's pool set to ``count`` workers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_workers", count)
        return fn(*args, **kwargs)


def assert_same_bits(fn, *args, **kwargs):
    single = on_workers(1, fn, *args, **kwargs)
    pooled = on_workers(4, fn, *args, **kwargs)
    single, pooled = np.asarray(single), np.asarray(pooled)
    assert single.dtype == pooled.dtype and single.shape == pooled.shape
    assert single.tobytes() == pooled.tobytes()


@settings(max_examples=10, deadline=None)
@given(nx=sizes, n_p=sizes, t=times)
def test_sample_field(nx, n_p, t):
    grid = make_grid(-10.0, 10.0, nx, -6.4, 6.4, n_p)
    assert_same_bits(lambda: sample_field(STATE, t, grid).values)


def recording_assemble(mp, grid, seen, before=None):
    """Wrap ``oracle._assemble`` so that each call appends (first row,
    rows, thread) to ``seen``, after ``before(first row)`` if given."""
    assemble = oracle._assemble
    lock = threading.Lock()

    def record(terms, count, x, p, mirror=None):
        first = int(np.searchsorted(grid.x_lattice, x[0, 0]))
        if before is not None:
            before(first)
        out = assemble(terms, count, x, p, mirror)
        with lock:
            seen.append((first, len(x), threading.current_thread()))
        return out

    mp.setattr(oracle, "_assemble", record)


def test_blocks_cover_every_row_once_on_pool_threads():
    # the evaluated rows, in blocks of at most _BLOCK_ROWS rows: on the
    # calling thread in turn with one worker, on pool threads with four
    for x_min, x_max in BOXES.values():
        grid = make_grid(x_min, x_max, 256, -4.0, 4.0, 16)
        evaluated = 256 - oracle._mirrored_rows(grid.x_lattice)
        expected = [(start, min(_BLOCK_ROWS, evaluated - start))
                    for start in range(0, evaluated, _BLOCK_ROWS)]
        assert len(expected) > 1
        for workers in (1, 4):
            seen = []
            with pytest.MonkeyPatch.context() as mp:
                recording_assemble(mp, grid, seen)
                mp.setattr(oracle, "_workers", workers)
                sample_field(STATE, 1.0, grid)
            assert sorted(s[:2] for s in seen) == expected
            if workers == 1:
                assert [s[:2] for s in seen] == expected
                assert all(s[2] is threading.current_thread() for s in seen)
            else:
                assert all(s[2].name.startswith("wigprop-rows") for s in seen)


def test_one_block_runs_on_the_calling_thread():
    grid = make_grid(-7.0, 9.0, _BLOCK_ROWS, -4.0, 4.0, 16)
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        recording_assemble(mp, grid, seen)
        mp.setattr(oracle, "_workers", 4)
        sample_field(STATE, 1.0, grid)
    assert [s[:2] for s in seen] == [(0, _BLOCK_ROWS)]
    assert seen[0][2] is threading.current_thread()


def test_exception_in_a_block_reaches_the_caller():
    grid = make_grid(-7.0, 9.0, 256, -4.0, 4.0, 16)
    seen = []

    def fail_at_row_70(first):
        if first <= 70 < first + _BLOCK_ROWS:
            raise ValueError("row 70")
        time.sleep(0.05)

    with pytest.MonkeyPatch.context() as mp:
        recording_assemble(mp, grid, seen, before=fail_at_row_70)
        mp.setattr(oracle, "_workers", 4)
        with pytest.raises(ValueError, match="row 70"):
            sample_field(STATE, 1.0, grid)
        # the caller sees the error only after every other block has finished
        assert sorted(s[0] for s in seen) == [0, 32, 96, 128, 160, 192, 224]
    assert not any(t.name.startswith("wigprop-rows") for t in threading.enumerate())


def test_concurrent_callers_each_cover_every_row():
    # each of 8 callers gets the single-worker bytes
    grid = make_grid(-10.0, 10.0, 128, -6.4, 6.4, 64)
    reference = on_workers(1, sample_field, STATE, 2.0, grid).values.tobytes()
    got = [None] * 8

    def call(i):
        got[i] = sample_field(STATE, 2.0, grid).values.tobytes()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_workers", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(8)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == [reference] * 8


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_builds_its_own_pool():
    # the child's pooled call gives the single-worker bytes
    grid = make_grid(-10.0, 10.0, 128, -6.4, 6.4, 64)
    reference = on_workers(1, sample_field, STATE, 2.0, grid).values.tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_workers", 4)
        # the parent has run a pool of its own before the fork
        sample_field(STATE, 2.0, grid)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                same = sample_field(STATE, 2.0, grid).values.tobytes() == reference
                code = 0 if same else 1
            finally:
                os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its sampling")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(done[1]) == 0
