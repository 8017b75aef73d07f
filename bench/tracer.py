"""In-memory span tracer installed from outside the program.

Wrappers replace module attributes of the traced library; every call of a
wrapped function records a span (name, start, end, parent, error flag)
and the counters its layer defines.  Spans stay in memory until
``summary`` reduces them to per-span call counts, self times and errors.

A span's self time is its duration minus the time covered by its direct
children.  A call that re-enters a span of the same name (a wrapped
function calling another function mapped to that span) is not recorded
again, so recursion inside one layer is counted once.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from dataclasses import dataclass

#: Every span the benchmark reports, whether or not a workload reaches it.
SPAN_NAMES = (
    "cli.import", "cli.main", "cli.parse_scenario", "cli.run_scenario",
    "cli.write_slice", "oracle.solve", "oracle.sample_field",
    "spectral.step", "spectral.drift", "spectral.kick_phase",
    "spectral.kick_apply", "potentials.eval", "fft",
    "pseudoparticle.step_lo", "pseudoparticle.nlo_correction",
    "pseudoparticle.d_p3", "pseudoparticle.deposit",
    "pseudoparticle.ensemble_io", "phasespace.save_field",
    "phasespace.load_field", "phasespace.norm",
)

#: Spans whose per-call latency is reported as p50/p90.
LATENCY_SPANS = ("spectral.step", "pseudoparticle.step_lo")

#: Counters reported next to the spans.  Names ending in ``_computed`` are
#: derived from the call arguments or file sizes, not measured in a kernel.
COUNTERS = (
    "potentials.eval.points", "fft.points", "fft.flop_computed",
    "phasespace.save_field.bytes_computed",
    "phasespace.load_field.bytes_computed",
    "pseudoparticle.ensemble_io.bytes_computed",
    "pseudoparticle.deposit.particles",
)

_FFT_1D = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
_FFT_ND = ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn",
           "irfftn")


@dataclass
class Span:
    name: str
    parent: int          # index of the parent span, -1 for a root
    start: float
    end: float = 0.0
    error: bool = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {name: 0 for name in COUNTERS}
        self.missing: list[str] = []
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        kwargs = kwargs or {}
        parent = self._stack[-1] if self._stack else -1
        span = Span(name=name, parent=parent, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span.error = not (isinstance(exc, SystemExit) and not exc.code)
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]].name == name:
                return fn(*args, **kwargs)
            out = self.call(name, fn, args, kwargs)
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out
        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package: str) -> None:
        """Wrap the layer entry points of ``package`` (already imported),
        and the numpy/scipy FFT entry points."""
        mods = {name: mod for name, mod in list(sys.modules.items())
                if name == package or name.startswith(package + ".")}
        get = lambda short: mods.get(f"{package}.{short}")
        targets = [
            ("cli.parse_scenario", "cli", ("parse_scenario",), None),
            ("cli.run_scenario", "cli", ("run_scenario",), None),
            ("cli.write_slice", "cli", ("_write_slice",), None),
            ("oracle.solve", "oracle", ("solve",), None),
            ("oracle.sample_field", "oracle", ("sample_field",), None),
            ("spectral.step", "spectral",
             ("step_full", "step_first_order", "step_separable"), None),
            ("spectral.drift", "spectral",
             ("drift", "_spectral_shift_rows"), None),
            ("spectral.kick_phase", "spectral",
             ("_kick_phase", "_kick_multiplier_first_order"), None),
            ("spectral.kick_apply", "spectral", ("_apply_kick",), None),
            ("pseudoparticle.step_lo", "pseudoparticle", ("step_lo",), None),
            ("pseudoparticle.nlo_correction", "pseudoparticle",
             ("nlo_correction",), None),
            ("pseudoparticle.d_p3", "pseudoparticle", ("d_p3",), None),
            ("pseudoparticle.deposit", "pseudoparticle", ("deposit",),
             _count_particles),
            ("pseudoparticle.ensemble_io", "pseudoparticle",
             ("save_ensemble",), _count_file(1, "pseudoparticle.ensemble_io")),
            ("pseudoparticle.ensemble_io", "pseudoparticle",
             ("load_ensemble",), _count_file(0, "pseudoparticle.ensemble_io")),
            ("phasespace.save_field", "phasespace", ("save_field",),
             _count_file(1, "phasespace.save_field")),
            ("phasespace.load_field", "phasespace", ("load_field",),
             _count_file(0, "phasespace.load_field")),
            ("phasespace.norm", "phasespace", ("norm", "norm_nd"), None),
        ]
        replaced: dict[int, object] = {}
        for span, short, attrs, count in targets:
            mod = get(short)
            for attr in attrs:
                fn = getattr(mod, attr, None) if mod is not None else None
                if fn is None:
                    self.missing.append(f"{short}.{attr}")
                    continue
                replaced[id(fn)] = self.wrap(span, fn, count)
        rebind(package, replaced)

        potentials = get("potentials")
        if potentials is None:
            self.missing.append("potentials")
        else:
            for value in list(vars(potentials).values()):
                if not isinstance(value, type):
                    continue
                for meth in ("value", "grad", "d3", "value_nd"):
                    fn = vars(value).get(meth)
                    if callable(fn):
                        setattr(value, meth,
                                self.wrap("potentials.eval", fn, _count_points))

        for fft_mod in ("numpy.fft", "scipy.fft"):
            mod = sys.modules.get(fft_mod)
            if mod is None:
                continue
            for attr in _FFT_1D + _FFT_ND:
                fn = getattr(mod, attr, None)
                if fn is None or getattr(fn, "__wrapped_by_tracer__", False):
                    continue
                wrapped = self.wrap("fft", fn, _count_fft(attr))
                setattr(mod, attr, wrapped)
                rebind(package, {id(fn): wrapped})

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-span calls, self seconds, errors and latency samples."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out = {name: {"calls": 0, "self_s": 0.0, "errors": 0}
               for name in SPAN_NAMES}
        durations: dict[str, list[float]] = {n: [] for n in LATENCY_SPANS}
        roots = 0.0
        for span, covered in zip(self.spans, child_time):
            dur = span.end - span.start
            entry = out.setdefault(span.name,
                                   {"calls": 0, "self_s": 0.0, "errors": 0})
            entry["calls"] += 1
            entry["self_s"] += dur - covered
            entry["errors"] += int(span.error)
            if span.name in durations:
                durations[span.name].append(dur)
            if span.parent < 0:
                roots += dur
        return {"spans": out, "durations": durations, "root_s": roots,
                "counts": dict(self.counts), "missing": list(self.missing),
                "n_spans": len(self.spans)}


def rebind(package: str, replacements: dict[int, object]) -> None:
    """Replace every module-level binding in ``package`` (from-imports
    included) of an object whose id is a key of ``replacements``."""
    for name, mod in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for key, value in list(vars(mod).items()):
                if id(value) in replacements:
                    setattr(mod, key, replacements[id(value)])


def _count_points(counts, args, kwargs, out):
    counts["potentials.eval.points"] += int(getattr(out, "size", 1))


def _count_particles(counts, args, kwargs, out):
    ensemble = args[0] if args else kwargs.get("ensemble")
    counts["pseudoparticle.deposit.particles"] += len(ensemble)


def _count_file(index: int, span: str):
    def count(counts, args, kwargs, out):
        path = args[index] if len(args) > index else kwargs["path"]
        counts[f"{span}.bytes_computed"] += os.path.getsize(path)
    return count


def _count_fft(attr: str):
    """points = elements transformed; flops = 5 N log2(n) for N points in
    transforms of length n, the conventional radix-2 operation count."""
    def count(counts, args, kwargs, out):
        arr = args[0] if args else kwargs.get("a", kwargs.get("x"))
        in_shape = getattr(arr, "shape", out.shape)
        if attr in _FFT_1D:
            axes = (kwargs.get("axis", args[2] if len(args) > 2 else -1),)
        else:
            axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
            if axes is None:
                axes = (-2, -1) if attr.endswith("2") else range(out.ndim)
        length = math.prod(max(in_shape[ax], out.shape[ax]) for ax in axes)
        points = max(math.prod(in_shape), out.size)
        counts["fft.points"] += points
        counts["fft.flop_computed"] += 5.0 * points * math.log2(max(length, 2))
    return count
