"""Results have the same bits for any worker count of the row-block pool.

``phasespace.by_rows`` splits only the oracle's pair sum into blocks of
rows on a thread pool of each call's own, joined before the call returns;
with the worker count set to 1 it is one plain call over the whole
lattice, the reference the pooled path must reproduce bit for bit.  The
spline prefilter and evaluation of ``step_lo`` and ``interpolate`` run on
the calling thread, and their tests guard that their bits never depend on
the worker count.
"""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wigprop import make_grid, phasespace
from wigprop.oracle import GaussianBasis, sample_field, solve, superposition
from wigprop.pseudoparticle import step_lo
from wigprop.potentials import GaussianWell

SOLUTION = solve(GaussianBasis(), 3.0)
STATE = superposition(SOLUTION, 1.0, 0.8, 0.3)

sizes = st.sampled_from([8, 16, 32, 64, 128, 256, 512])
times = st.floats(-5.0, 5.0, allow_nan=False)
steps = st.floats(-0.5, 0.5, allow_nan=False)


def on_workers(count, fn, *args, **kwargs):
    """fn(*args, **kwargs) with by_rows set to ``count`` workers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phasespace, "_workers", count)
        return fn(*args, **kwargs)


def assert_same_bits(fn, *args, **kwargs):
    single = on_workers(1, fn, *args, **kwargs)
    pooled = on_workers(4, fn, *args, **kwargs)
    single, pooled = np.asarray(single), np.asarray(pooled)
    assert single.dtype == pooled.dtype and single.shape == pooled.shape
    assert single.tobytes() == pooled.tobytes()


def random_field(nx, n_p, seed):
    grid = make_grid(-8.0, 8.0, nx, -4.0, 4.0, n_p)
    values = np.random.default_rng(seed).standard_normal(grid.shape())
    return phasespace.WignerField(grid=grid, values=values)


@settings(max_examples=15, deadline=None)
@given(nx=sizes, n_p=sizes, dt=steps, seed=st.integers(0, 2**32 - 1))
def test_step_lo(nx, n_p, dt, seed):
    field = random_field(nx, n_p, seed)
    assert_same_bits(lambda: step_lo(field, GaussianWell(), dt).values)


@settings(max_examples=15, deadline=None)
@given(nx=sizes, n_p=sizes, seed=st.integers(0, 2**32 - 1),
       x=st.floats(-9.0, 9.0), p=st.floats(-5.0, 5.0),
       shape=st.sampled_from([(1,), (7,), (300,), (33, 2), (70, 5)]))
def test_interpolate_scalar_and_array(nx, n_p, seed, x, p, shape):
    field = random_field(nx, n_p, seed)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-9.0, 9.0, shape)
    ps = rng.uniform(-5.0, 5.0, shape)
    single = on_workers(1, phasespace.interpolate, field, x, p)
    pooled = on_workers(4, phasespace.interpolate, field, x, p)
    assert isinstance(pooled, float)
    assert np.float64(single).tobytes() == np.float64(pooled).tobytes()
    assert_same_bits(phasespace.interpolate, field, xs, ps)
    # a column of points against a row of momenta broadcasts to a block
    assert_same_bits(phasespace.interpolate, field, xs.reshape(-1, 1)[:40],
                     ps.ravel()[None, :6])


@settings(max_examples=10, deadline=None)
@given(nx=sizes, n_p=sizes, t=times)
def test_sample_field(nx, n_p, t):
    grid = make_grid(-10.0, 10.0, nx, -6.4, 6.4, n_p)
    assert_same_bits(lambda: sample_field(STATE, t, grid).values)


def test_blocks_cover_every_row_once_on_pool_threads():
    seen = []
    lock = threading.Lock()

    def record(rows):
        with lock:
            seen.append((rows.start, rows.stop, threading.current_thread()))

    on_workers(4, phasespace.by_rows, record, 100)
    assert sorted(s[:2] for s in seen) == [(0, 32), (32, 64), (64, 96), (96, 100)]
    assert all(s[2] is not threading.main_thread() for s in seen)
    seen.clear()
    on_workers(1, phasespace.by_rows, record, 100)
    assert [s[:2] for s in seen] == [(0, 100)]


def test_exception_in_a_block_reaches_the_caller():
    done = []

    def fail_at_row_70(rows):
        if rows.start <= 70 < rows.stop:
            raise ValueError("row 70")
        done.append(rows.start)

    with pytest.raises(ValueError, match="row 70"):
        on_workers(4, phasespace.by_rows, fail_at_row_70, 200)
    # the caller sees the error only after every other block has finished
    assert sorted(done) == [0, 32, 96, 128, 160, 192]



def test_concurrent_callers_each_cover_every_row():
    covered = [[] for _ in range(8)]

    def call(i):
        phasespace.by_rows(lambda rows: covered[i].extend(range(200)[rows]), 200)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phasespace, "_workers", 4)
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
    assert all(sorted(rows) == list(range(200)) for rows in covered)


def test_a_block_may_call_by_rows_again():
    out = np.zeros((100, 100))

    def outer(rows):
        def inner(cols):
            out[rows, cols] = 1.0
        phasespace.by_rows(inner, 100)

    caller = threading.Thread(target=on_workers, args=(4, phasespace.by_rows,
                                                       outer, 100))
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert out.all()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_builds_its_own_pool():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phasespace, "_workers", 4)
        # every worker of the parent's pool started, and idle
        phasespace.by_rows(lambda rows: time.sleep(0.05), 256)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                out = np.zeros(100)

                def fill(rows):
                    out[rows] = 1.0

                phasespace.by_rows(fill, 100)
                code = 0 if out.all() else 1
            finally:
                os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child waited on its parent's pool")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(done[1]) == 0
