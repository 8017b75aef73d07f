"""Phase-space quantum dynamics toolkit.

Propagates Wigner functions with an explicit spectral drift-kick method,
a classical-trajectory (pseudoparticle) approximation and its hbar^2
correction, all validated against a Gaussian-basis bound-state oracle for
the attractive Gaussian well.
"""

from .phasespace import (DEFAULT_GRID_SPEC, HBAR, DiffMetrics, NumericalError,
                         PhaseSpaceGrid, PhaseSpaceGridND, WignerField,
                         WignerFieldND, diff_metrics, interpolate, load_field,
                         make_grid, marginal_x, norm, norm_nd, save_field)
from .potentials import (Constant, GaussianWell, Harmonic, Linear, Potential,
                         SeparableSum, parse_potential)

__all__ = [
    "DEFAULT_GRID_SPEC", "HBAR", "DiffMetrics", "NumericalError",
    "PhaseSpaceGrid", "PhaseSpaceGridND", "WignerField", "WignerFieldND",
    "diff_metrics", "interpolate", "load_field", "make_grid", "marginal_x",
    "norm", "norm_nd", "save_field",
    "Constant", "GaussianWell", "Harmonic", "Linear", "Potential",
    "SeparableSum", "parse_potential",
]

__version__ = "0.1.0"
