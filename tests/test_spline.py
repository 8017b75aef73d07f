"""The numpy bicubic spline has the bits of scipy.ndimage's.

``phasespace`` prefilters and evaluates the cubic B-spline without
scipy; ``spline_filter1d(..., order=3, mode="constant")`` and
``map_coordinates(..., order=3, mode="constant", cval=0.0)`` are the
references, imported here only.  Results are compared as bit patterns,
because ``array_equal`` takes -0.0 for +0.0.

Fields mix normal values with +-0.0, subnormals and +-1e300; points sit
on the first and last node, one ulp either side of them, mid-cell, far
outside and at NaN.  A field that is one tiny negative constant gives
spline terms that all round to -0.0, the one case where starting the sum
from +0.0 matters.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from wigprop import make_grid, phasespace
from wigprop.phasespace import WignerField

SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300)
sizes = st.sampled_from([4, 8, 16, 32, 64, 128])
fills = st.sampled_from((None,) + SPECIALS)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def lattice_values(nx, n_p, seed, fill, share):
    """Normal values with a share of special ones, or the constant
    ``fill`` with that share of special ones."""
    rng = np.random.default_rng(seed)
    if fill is None:
        values = rng.standard_normal((nx, n_p)) * 10.0 ** rng.integers(-3, 4)
    else:
        values = np.full((nx, n_p), fill)
    mask = rng.random((nx, n_p)) < share
    values[mask] = rng.choice(SPECIALS, mask.sum())
    return values


def probe_points(n, seed, count=200):
    """Lattice coordinates along an axis of n nodes: the end nodes and
    their neighbouring doubles, mid-cells, far outside, NaN and uniform
    draws over [-2, n + 1]."""
    ends = [0.0, n - 1.0]
    fixed = ends + [np.nextafter(e, d) for e in ends for d in (-np.inf, np.inf)]
    fixed += [0.5, n - 1.5, n / 2 + 0.5, -1.0, n + 5.0, -1e300, 1e300, np.nan]
    rng = np.random.default_rng(seed)
    return np.concatenate([fixed, rng.uniform(-2.0, n + 1.0, count)])


@settings(max_examples=40, deadline=None)
@given(nx=sizes, n_p=sizes, seed=st.integers(0, 2**32 - 1), fill=fills,
       share=st.sampled_from([0.0, 0.05, 0.5]))
@example(nx=8, n_p=4, seed=0, fill=-5e-324, share=0.0)
def test_prefilter_equals_spline_filter1d(nx, n_p, seed, fill, share):
    from scipy.ndimage import spline_filter1d

    values = lattice_values(nx, n_p, seed, fill, share)
    along_x = values.copy()
    phasespace._prefilter(along_x)
    assert (bits(along_x) == bits(spline_filter1d(
        values, 3, axis=0, mode="constant"))).all()
    along_p = values.T.copy()
    phasespace._prefilter(along_p)
    assert (bits(along_p.T) == bits(spline_filter1d(
        values, 3, axis=1, mode="constant"))).all()


@settings(max_examples=40, deadline=None)
@given(nx=sizes, n_p=sizes, seed=st.integers(0, 2**32 - 1), fill=fills,
       share=st.sampled_from([0.0, 0.05, 0.5]))
@example(nx=8, n_p=4, seed=0, fill=-5e-324, share=0.0)
@example(nx=4, n_p=16, seed=1, fill=None, share=0.0)
def test_evaluation_equals_map_coordinates(nx, n_p, seed, fill, share):
    from scipy.ndimage import map_coordinates, spline_filter1d

    values = lattice_values(nx, n_p, seed, fill, share)
    field = WignerField(grid=make_grid(-1.0, 1.0, nx, -2.0, 2.0, n_p),
                        values=values)
    cx, cp = np.meshgrid(probe_points(nx, seed), probe_points(n_p, seed + 1),
                         indexing="ij")
    stencil = phasespace._spline_stencil((nx, n_p), cx, cp)
    got = phasespace.at_lattice_coordinates(field, stencil)

    coeffs = spline_filter1d(spline_filter1d(values, 3, axis=0, mode="constant"),
                             3, axis=1, mode="constant")
    want = map_coordinates(coeffs, [cx, cp], order=3, mode="constant",
                           cval=0.0, prefilter=False)
    assert (bits(got) == bits(want)).all()
    # the whole path, prefilter included
    assert (bits(got) == bits(map_coordinates(values, [cx, cp], order=3,
                                              mode="constant", cval=0.0))).all()
