"""The one stepping driver, ``phasespace.evolve``, with fake steps and
with the spectral and transported steps that ``wigprop run`` gives it,
and ``phasespace.step_size``, which checks a run's step."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from wigprop import make_grid, pseudoparticle, spectral
from wigprop.phasespace import (NonFiniteFieldError, NumericalError,
                                StepDiagnostics, WignerField, evolve, norm,
                                step_size)
from wigprop.potentials import Constant, GaussianWell

GRID = make_grid(-4, 4, 64, -4, 4, 64)


def blob(x0=0.0, p0=0.0, width_sq=1.0):
    x = GRID.x_lattice[:, None]
    p = GRID.p_lattice[None, :]
    values = 2.0 * np.exp(-((x - x0) ** 2) / width_sq - ((p - p0) ** 2) * width_sq)
    return WignerField(grid=GRID, values=values)


def scaling(factor, dt=0.1):
    """A fake step: the field times factor, time advanced by dt."""
    return lambda f: WignerField(grid=f.grid, values=factor * f.values,
                                 time=f.time + dt)


def test_rows_times_and_result():
    f = blob()
    res = evolve(scaling(1.0), f, 4)
    assert [d.step for d in res.diagnostics] == [1, 2, 3, 4]
    assert res.diagnostics[-1].time == pytest.approx(0.4)
    assert res.diagnostics[-1] == StepDiagnostics.of(4, res.field)
    assert res.diagnostics[-1].norm == norm(f)
    assert res.warnings == []


def test_step_times_are_t0_plus_multiples_of_dt():
    seen = []

    def step(f):
        seen.append(f.time)
        return scaling(1.0, dt=0.25)(f)
    evolve(step, replace(blob(), time=0.5), 3)
    assert seen == [0.5, 0.75, 1.0]


def test_on_step_sees_each_step_in_order():
    calls = []
    res = evolve(scaling(1.0), blob(), 5,
                 on_step=lambda k, f: calls.append((k, f.time)))
    assert [k for k, _ in calls] == [1, 2, 3, 4, 5]
    assert [t for _, t in calls] == [d.time for d in res.diagnostics]


def test_initial_field_is_freed_after_the_first_step():
    # a caller that passes the initial field on, as wigprop run does,
    # holds one field at a time: the peak memory of a run
    refs = []

    def step(f):
        refs.append(weakref.ref(f))
        return scaling(1.0)(f)
    alive = []
    evolve(step, blob(), 3,
           on_step=lambda k, f: alive.append([r() is not None for r in refs]))
    assert alive == [[False], [False, False], [False, False, False]]


def test_norm_blow_up_names_the_step():
    with pytest.raises(NumericalError, match="^norm blow-up at step 1: "):
        evolve(scaling(1e7), blob(), 3)


def test_non_finite_step_names_the_step():
    def step(f):
        if f.time > 0.15:
            raise NonFiniteFieldError("field values must be finite")
        return scaling(1.0)(f)
    with pytest.raises(NumericalError, match="^step 3: field values must be finite"
                       ) as info:
        evolve(step, blob(), 5)
    assert not isinstance(info.value, NonFiniteFieldError)


def test_numerical_error_of_a_step_names_the_step():
    def step(f):
        if f.time > 0.05:
            raise NumericalError("imaginary residue 1e-3 exceeds 1e-10")
        return scaling(1.0)(f)
    with pytest.raises(NumericalError, match="^step 2: imaginary residue 1e-3"):
        evolve(step, blob(), 5)


def test_norm_loss_warns_with_its_drift():
    res = evolve(scaling(0.5), blob(), 2)
    assert res.warnings == ["step 1: relative norm drift 5.000e-01",
                            "step 2: relative norm drift 7.500e-01"]


def spectral_step(pot, dt):
    """The step of a spectral-full run."""
    cfg = spectral.SpectralStepConfig(dt=dt)
    return lambda f: spectral.step_full(f, pot, cfg)


def test_real_steps_have_the_guards(monkeypatch):
    f = blob()
    pot = GaussianWell()
    monkeypatch.setattr(spectral, "_kick_values", lambda values, *args: 1e7 * values)
    with pytest.raises(NumericalError, match="^norm blow-up at step 1: "):
        evolve(spectral_step(pot, 0.1), f, 10)
    monkeypatch.setattr(pseudoparticle, "step_lo",
                        lambda f, pot, dt, mass: scaling(1e7)(f))
    with pytest.raises(NumericalError, match="^norm blow-up at step 1: "):
        evolve(pseudoparticle.stepper(GRID, pot, 0.1), f, 10)


def test_transport_through_the_boundary_warns_every_step():
    # a blob pushed out through the lattice edge loses norm under the
    # transported step, which reads zero outside the grid: every step
    # reports it; the periodic spectral drift wraps it round and keeps it
    f = blob(x0=2.0, p0=2.0)
    pot = Constant(c=0.0)
    res = evolve(pseudoparticle.stepper(GRID, pot, 0.2), f, 10)
    assert [w.split(":")[0] for w in res.warnings] == [
        f"step {k}" for k in range(1, 11)]
    res = evolve(spectral_step(pot, 0.2), f, 10)
    assert res.warnings == []


@pytest.mark.parametrize("t0, t1, nsteps", [(0.0, 5e-324, 30), (-1e308, 1e308, 5)])
def test_step_size_refuses_a_step_that_is_not_normal(t0, t1, nsteps):
    # a subnormal step (here 0.0 after the division) would step 30 times
    # without moving the time; an infinite one would end in a non-finite field
    with pytest.raises(ValueError, match=r"the step \(t1 - t0\) / nsteps"):
        step_size(t0, t1, nsteps)

