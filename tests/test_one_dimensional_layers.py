"""The layers that read one (x, p) axis: the transported steps, the NLO
correction, its third derivative and its stable band, transcription, and
the oracle's sampling and direct transform.  A 2-d/3-d lattice raises
``ValueError`` naming the function, and a one-axis product grid steps,
transcribes and samples as its axis."""

import numpy as np
import pytest

from wigprop import make_grid, oracle, pseudoparticle
from wigprop.phasespace import PhaseSpaceGridND, WignerField, interpolate
from wigprop.potentials import GaussianWell

AXIS = make_grid(-6, 6, 32, -5, 5, 32)
POT = GaussianWell(depth=1.0, sigma=2.0)
PARAMS = pseudoparticle.DFunctionParams(alpha=pseudoparticle.auto_alpha(AXIS.dx))


def blob(grid, axis=AXIS):
    x = axis.x_lattice[:, None]
    p = axis.p_lattice[None, :]
    return WignerField(grid=grid, values=2.0 * np.exp(-(x - 0.5) ** 2 - p**2))


def state():
    return oracle.superposition(oracle.solve(oracle.GaussianBasis(), 3.0), 1.0, 1.0)


X_FINE = np.linspace(-9.0, 9.0, 721)
PSI = np.exp(-(X_FINE - 0.5) ** 2 / 2 + 0.7j * X_FINE) / np.pi**0.25


def entry_points(f, grid):
    """Each entry point, by the name its error gives, called on the field f
    and the grid it lives on; every call returns arrays to compare."""
    ensemble = pseudoparticle.to_ensemble(blob(AXIS))
    return {
        "step_lo": lambda: [pseudoparticle.step_lo(f, POT, 0.1).values],
        "stepper": lambda: [pseudoparticle.stepper(grid, POT, 0.1, order)(f)
                            .values for order in (0, 1)],
        "nlo_correction": lambda: [
            pseudoparticle.nlo_correction(f, POT, 0.1, s_cutoff=cutoff).values
            for cutoff in (None, 3.0)],
        "d_p3": lambda: [pseudoparticle.d_p3(f).values],
        "stable_p3_cutoff": lambda: [pseudoparticle.stable_p3_cutoff(grid, POT, 0.1)],
        "to_ensemble": lambda: list(vars(pseudoparticle.to_ensemble(f)).values()),
        "deposit": lambda: [pseudoparticle.deposit(ensemble, grid, PARAMS, PARAMS).values],
        "sample_fields": lambda: [g.values for g in
                                  oracle.sample_fields(state(), [0.0, 1.5], grid)],
        "numeric_wigner": lambda: [oracle.numeric_wigner(PSI, X_FINE, grid).values],
        "interpolate": lambda: [interpolate(f, [0.25, -1.3], [0.1, 2.2])],
    }


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("name", sorted(entry_points(None, None)))
def test_larger_lattices_are_rejected(d, name):
    axis = make_grid(-6, 6, 4, -5, 5, 4)
    grid = PhaseSpaceGridND((axis,) * d)
    f = WignerField(grid=grid, values=np.ones(grid.shape()))
    with pytest.raises(ValueError, match=f"^{name} takes 1-d lattices only, "
                                         f"not a {d}-d one$"):
        entry_points(f, grid)[name]()


@pytest.mark.parametrize("name", sorted(entry_points(None, None)))
def test_one_axis_product_grid_gives_the_values_of_its_axis(name):
    grid = PhaseSpaceGridND((AXIS,))
    got = entry_points(blob(grid), grid)[name]()
    want = entry_points(blob(AXIS), AXIS)[name]()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_fields_keep_their_product_grid():
    grid = PhaseSpaceGridND((AXIS,))
    f = blob(grid)
    ensemble = pseudoparticle.to_ensemble(f)
    for out in (pseudoparticle.step_lo(f, POT, 0.1),
                pseudoparticle.nlo_correction(f, POT, 0.1),
                pseudoparticle.d_p3(f),
                pseudoparticle.deposit(ensemble, grid, PARAMS, PARAMS),
                oracle.sample_field(state(), 0.0, grid)):
        assert out.grid == grid
