"""Closed-form potentials with analytic first and third derivatives.

The propagators evaluate V at points off the x-lattice (the shifted
arguments x +/- s/2 of the momentum kernel), so potentials are kept in
closed form and never sampled on a grid.  A potential is a function of x
alone, cached by value: the propagators memoize what they build from one
(kick multipliers, backtrack stencils) under the potential itself, and
every built-in is a frozen dataclass, equal when its parameters are.  An
unhashable potential is rebuilt at every step.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


class Potential:
    """One-dimensional scalar potential, evaluable at arbitrary points.

    Subclasses provide value/grad/d3 as vectorized functions of x alone,
    cached by value: equal potentials should hash equal (a frozen dataclass
    does), and an unhashable one is rebuilt at every step."""

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def d3(self, x):
        """Third spatial derivative (drives the hbar^2 correction)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Potential):
    c: float = 0.0

    def value(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.c)

    def grad(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def d3(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Linear(Potential):
    g: float = 1.0

    def value(self, x):
        return self.g * np.asarray(x, dtype=float)

    def grad(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.g)

    def d3(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Harmonic(Potential):
    """V(x) = k x^2 / 2."""

    k: float = 1.0

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("spring constant k must be >= 0")

    def value(self, x):
        return 0.5 * self.k * np.asarray(x, dtype=float) ** 2

    def grad(self, x):
        return self.k * np.asarray(x, dtype=float)

    def d3(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


def check_sigma(sigma: float) -> None:
    """Raise ``ValueError`` unless the Gaussian width ``sigma`` is positive
    and sigma^2, sigma^4 and sigma^6, the powers the wells and their
    derivatives divide by, are finite and normal (sigma from about 1e-51
    to 1e51).  A NaN fails too."""
    try:
        s2 = sigma ** 2
        powers = (s2, s2 ** 2, s2 ** 3)
    except OverflowError:               # a Python float power past 1e308
        powers = (math.inf,)
    if not (sigma > 0 and all(sys.float_info.min <= v < math.inf for v in powers)):
        raise ValueError(f"sigma must be positive with sigma^2, sigma^4 and "
                         f"sigma^6 finite and not subnormal, got {sigma!r}")


@dataclass(frozen=True)
class GaussianWell(Potential):
    """Attractive well V(x) = -depth * exp(-x^2 / (2 sigma^2))."""

    depth: float = 1.0
    sigma: float = 3.0

    def __post_init__(self):
        check_sigma(self.sigma)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return -self.depth * np.exp(-x**2 / (2.0 * self.sigma**2))

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        s2 = self.sigma**2
        return self.depth * (x / s2) * np.exp(-x**2 / (2.0 * s2))

    def d3(self, x):
        x = np.asarray(x, dtype=float)
        s2 = self.sigma**2
        return self.depth * (x**3 / s2**3 - 3.0 * x / s2**2) * np.exp(-x**2 / (2.0 * s2))


# ---------------------------------------------------------------------------
# the one multi-dimensional potential: 2-d/3-d lattices step under it alone
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparableSum:
    """V(r) = sum_j V_j(x_j) built from one-dimensional potentials, one per
    axis; the spectral step kicks along p_j by term j alone."""

    terms: tuple[Potential, ...]


# ---------------------------------------------------------------------------
# config syntax: 'gaussian_well depth=1.0 sigma=3.0', 'harmonic k=1.0', ...
# ---------------------------------------------------------------------------

_VARIANTS = {
    "constant": (Constant, {"c": 0.0}),
    "linear": (Linear, {"g": 1.0}),
    "harmonic": (Harmonic, {"k": 1.0}),
    "gaussian_well": (GaussianWell, {"depth": 1.0, "sigma": 3.0}),
}


def parse_potential(text: str) -> Potential:
    """Parse the CLI potential syntax, e.g. 'gaussian_well depth=1.0 sigma=3.0'."""
    parts = text.split()
    if not parts:
        raise ValueError("empty potential specification")
    name = parts[0]
    if name not in _VARIANTS:
        known = ", ".join(sorted(_VARIANTS))
        raise ValueError(f"unknown potential {name!r} (known: {known})")
    cls, defaults = _VARIANTS[name]
    kwargs = dict(defaults)
    for item in parts[1:]:
        if "=" not in item:
            raise ValueError(f"malformed potential parameter {item!r} (expected key=value)")
        key, _, raw = item.partition("=")
        if key not in kwargs:
            raise ValueError(f"unknown parameter {key!r} for potential {name!r}")
        try:
            kwargs[key] = float(raw)
        except ValueError:
            raise ValueError(f"parameter {key!r} must be a number, got {raw!r}") from None
        if not math.isfinite(kwargs[key]):
            raise ValueError(f"parameter {key!r} must be finite, got {raw!r}")
    return cls(**kwargs)
