"""The ``%.17g`` text of float64 arrays, vectorized.

``format_records`` gives, for each double, the bytes Python's
``f"{v:.17g}"`` gives it, laid out in a fixed-width record, and names the
values it cannot decide exactly, which ``phasespace.write_rows`` formats
with ``%`` itself.  The 17 digits are those of round(x * 10**(16 - e)),
from a double-double product with Dekker's two-product (Numer. Math. 18,
224, 1971) against an exact table of powers of ten.
"""

from __future__ import annotations

from functools import cache

import numpy as np

#: Values per call of the ``%.17g`` kernel.  Its temporaries take about
#: 150 bytes per value, 0.6 MB at this size, and a run's first write
#: leaves them in the heap, under the peak of its stepping; four times
#: the size is about 10% faster.
BLOCK = 4096

_SPLIT = 134217729.0        # 2**27 + 1, Dekker's splitting constant
_DECADES = (-281, 281)      # decimal exponents the power table covers


@cache
def _format_tables():
    """The constant tables of the ``%.17g`` kernel, built on first use.

    - ``powers``: for each decade e in ``_DECADES``, 10**(16 - e) as an
      exact double-double hi + lo (from Python ints, whose conversions
      round correctly), with hi split into halves for Dekker's product;
    - ``quads``: the ASCII of 0000..9999 as uint32, then the same with
      trailing zeros blanked (NUL);
    - ``heads``: bytes 0-7 of a record (see ``format_records``) by
      (layout, sign, first digit, point);
    - ``exps``: bytes 24-31 of a record, no exponent, then 'e-330' ..
      'e+330', each followed by the separator ' '.
    """
    lo_e, hi_e = _DECADES
    powers = np.empty((4, hi_e - lo_e + 1))
    for i, k in enumerate(range(16 - lo_e, 15 - hi_e, -1)):     # k = 16 - e
        if k >= 0:
            hi = float(10**k)
            lo = float(10**k - int(hi))
        else:
            hi = 1 / 10**-k
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10**-k) / (den * 10**-k)
        c = hi * _SPLIT
        hi_a = c - (c - hi)
        powers[:, i] = hi, hi_a, hi - hi_a, lo
    # filled from two 100-entry tables of digit pairs, with no temporary
    # of its own size: what a run frees before it steps should not grow
    # the heap under its peak
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
    ends = np.frombuffer(b"".join((b"%02d" % i).rstrip(b"0").ljust(2, b"\0")
                                  for i in range(100)), np.uint16)
    quads = np.empty((2, 100, 100, 2), np.uint16)    # [blanked, hi, lo, half]
    quads[:, :, :, 0] = pairs[:, None]
    quads[0, :, :, 1] = pairs
    quads[1, :, :, 1] = ends
    quads[1, :, 0, 0] = ends
    quads = quads.view(np.uint32).ravel()
    heads = []
    for layout in range(5):     # 0: 'd.', 1-4: '0.', layout - 1 zeros, 'd'
        for sign in (b"", b"-"):
            for first in range(10):
                for point in (b"\0", b"."):
                    if layout == 0:
                        text = (sign + b"%d" % first).rjust(7, b"\0") + point
                    else:
                        text = (sign + b"0." + b"0" * (layout - 1)
                                + b"%d" % first).rjust(8, b"\0")
                    heads.append(text)
    exps = [b"\0" * 7] + [(b"e%+03d" % e).ljust(7, b"\0") for e in range(-330, 331)]
    return (tuple(powers), quads, np.frombuffer(b"".join(heads), np.uint64),
            np.frombuffer(b" ".join(exps) + b" ", np.uint64))


def _scaled_digits(a: np.ndarray, e: np.ndarray):
    """round(a * 10**(16 - e)) for positive doubles ``a`` in [1e-280,
    1e280] and decades ``e`` within one of floor(log10(a)).

    Returns the rounded integers, a flag for values within 1e-6 of a
    rounding tie (where the product's error, below 1e-13, could decide
    the digits), and the step (-1, 0 or 1) from e to the decade in which
    the product lies in [10**16, 10**17).
    """
    i = e - _DECADES[0]
    hi, hi_a, hi_b, lo = (part[i] for part in _format_tables()[0])
    p = a * hi
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    # p + t = a * (hi + lo): Dekker's exact error of p, plus a * lo; p is
    # an integer once it exceeds 2**53
    t = ((a_hi * hi_a - p) + a_hi * hi_b + a_lo * hi_a) + a_lo * hi_b + a * lo
    whole = np.floor(t)
    frac = t - whole
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    tie = np.abs(frac - 0.5) < 1e-6
    step = np.zeros(len(d), np.int64)
    edge = np.flatnonzero((d <= 10**16) | (d >= 10**17))
    if edge.size:
        # the decade follows p + t, not p alone: 1e-16 is 9.99...98e-17
        de, pe, te = d[edge], p[edge], t[edge]
        step[edge] = (de > 10**17) | ((de == 10**17) & ((pe - 1e17) + te >= 0))
        step[edge] -= (de < 10**16) | ((de == 10**16) & ((pe - 1e16) + te < 0))
    return d, tie, step


def format_records(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``%.17g`` text of each double of ``x`` in a 32-byte record,
    NUL where there is nothing, and the indices of the records it leaves
    for ``%`` itself to write.

    A record holds, right-aligned in bytes 0-7, the sign and either the
    first digit and the point or, for fixed notation below 1, '0.', up
    to three zeros and the first digit; digits 2-17 in bytes 8-23, with
    trailing zeros blanked; the exponent (scientific notation only) and
    the separator ' ' in bytes 24-31.  Fixed notation at 10 and above
    moves its integer digits one byte left, over the point, and puts the
    point after them.  ``%`` writes the values within 1e-6 of a rounding
    tie, the nonzero values outside [1e-280, 1e280] (subnormals and
    non-finite values included), and any whose decade one correction
    of the log10 guess did not settle.
    """
    _, quads, heads, exps = _format_tables()
    a = np.abs(x)
    ok = (a >= 1e-280) & (a <= 1e280)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    d, tie, step = _scaled_digits(a, e)
    redo = np.flatnonzero(step)
    if redo.size:
        e[redo] += step[redo]
        d[redo], tie[redo], step[redo] = _scaled_digits(a[redo], e[redo])
    top = d == 10**17                   # rounded up into the next decade
    d[top] = 10**16
    e += top
    slow = np.flatnonzero((~ok & (x != 0)) | tie | (step != 0))

    high = d // 10**8           # digits 1-9
    low = d - high * 10**8      # digits 10-17
    first = high // 10**8
    high -= first * 10**8
    c1 = high // 10000
    c2 = high - c1 * 10000
    c3 = low // 10000
    c4 = low - c3 * 10000
    rec = np.empty((len(x), 4), np.uint64)
    words = rec.view(np.uint32)
    blank = 10000               # offset of the quads with trailing zeros blanked
    words[:, 5] = quads[c4 + blank]
    words[:, 4] = quads[c3 + blank * (c4 == 0)]
    quiet = low == 0            # no nonzero digit after the quad
    words[:, 3] = quads[c2 + blank * quiet]
    quiet &= c2 == 0
    words[:, 2] = quads[c1 + blank * quiet]
    quiet &= c1 == 0
    fixed = (e >= -4) & (e < 17)
    layout = np.where(fixed & (e < 0), -e, 0)
    rec[:, 0] = heads[((layout * 2 + np.signbit(x)) * 10 + first) * 2 + ~quiet]
    rec[:, 3] = exps[np.where(fixed, 0, e + 331)]

    byte = rec.view(np.uint8)
    wide = np.flatnonzero(fixed & (e > 0))
    for n in np.unique(e[wide]) if wide.size else ():
        r = wide[e[wide] == n]
        ints = byte[r, 8:8 + n]
        byte[r, 7:7 + n] = np.where(ints == 0, 48, ints)
        byte[r, 7 + n] = np.where(byte[r, 8 + n:24].any(axis=1), 46, 0)
    r = np.flatnonzero(x == 0)
    rec[r, :3] = 0
    byte[r, 5] = np.signbit(x[r]) * 45
    byte[r, 6] = 48
    return rec, slow
