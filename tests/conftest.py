"""Shared fixtures: the Gaussian-well benchmark scenario artifacts.

Everything heavy (oracle fields, 30-step propagations) is computed once
per session and reused across module tests and the acceptance suite.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from wigprop import make_grid
from wigprop.oracle import (EigenSolution, GaussianBasis, SuperpositionState,
                            sample_field, solve, superposition)
from wigprop.phasespace import EvolveResult, PhaseSpaceGrid, WignerField, evolve
from wigprop.potentials import GaussianWell
from wigprop import pseudoparticle, spectral

SIGMA = 3.0
T_FINAL = 3.0
NSTEPS = 30


@dataclass
class Benchmark:
    grid: PhaseSpaceGrid
    pot: GaussianWell
    solution: EigenSolution
    state: SuperpositionState
    f0: WignerField
    oracle_t3: WignerField
    spectral30: EvolveResult
    spectral60: WignerField
    lo30: WignerField
    nlo30: WignerField

    @property
    def slice_index(self) -> int:
        return int(np.argmin(np.abs(self.grid.p_lattice - 0.6)))


@pytest.fixture(scope="session")
def bench() -> Benchmark:
    # p-range chosen so the quoted slice momentum 0.6 is a lattice row and
    # the state is contained to ~1e-18 at the momentum boundary; x-range so
    # that both slice extrema sit unambiguously on lattice nodes
    grid = make_grid(-10.0, 10.0, 256, -6.4, 6.4, 256)
    pot = GaussianWell(depth=1.0, sigma=SIGMA)
    solution = solve(GaussianBasis(), SIGMA)
    state = superposition(solution, 1.0, 1.0)
    f0 = sample_field(state, 0.0, grid)
    oracle_t3 = sample_field(state, T_FINAL, grid)

    def spectral_run(nsteps):
        cfg = spectral.SpectralStepConfig(dt=T_FINAL / nsteps)
        return evolve(lambda f: spectral.step_full(f, pot, cfg), f0, nsteps)

    def transported(order):
        dt = T_FINAL / NSTEPS
        step = pseudoparticle.stepper(grid, pot, dt, order=order)
        return evolve(step, f0, NSTEPS).field

    spectral30 = spectral_run(NSTEPS)
    spectral60 = spectral_run(2 * NSTEPS).field
    lo30 = transported(0)
    nlo30 = transported(1)
    return Benchmark(grid=grid, pot=pot, solution=solution, state=state,
                     f0=f0, oracle_t3=oracle_t3, spectral30=spectral30,
                     spectral60=spectral60, lo30=lo30, nlo30=nlo30)
