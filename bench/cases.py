"""The benchmark's workloads: seeded inputs, commands and output checks.

A workload is a list of parts.  A part is one program scenario: the
commands that run it, the files it must leave and the oracle checks on
them.  An iteration runs every part of its workload in turn.  Two
workloads of two parts each, rather than four of one, let every run last
twice as long within the same total budget, which matters on a shared
host whose speed drifts over tens of seconds.

Every part starts from a superposition of the two lowest even bound
states of the sigma = 3, depth = 1 Gaussian well, the only potential the
oracle solves (``oracle.solve`` assumes depth 1).  The seed picks the
ratio of the two real amplitudes, log-uniformly in [0.95, 1/0.95], and the
program receives only the generated scenario file (or, for the d = 2
runner, the generated arguments).

The sign of the second amplitude stays positive: flipping it moves the
oracle gap by up to 20 % on the deposited field and 12 % on the nlo run,
which would make ``linf_oracle`` spread across seeds by more than its
bound allows.  The ratio band is narrow for the same reason: over
[0.9, 1/0.9] the nlo gap already spreads by 6 % between seeds.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SIGMA = 3.0
DEPTH = 1.0
BOX = (-10.0, 10.0, -6.4, 6.4)          # x_min x_max p_min p_max
SLICES = (0.0, 0.3, 0.6)
#: E0 and E1 of the well as published with the benchmark problem.
PUBLISHED_ENERGIES = (-0.8438, -0.3127)


@dataclass(frozen=True)
class Check:
    """Gate one output field against the oracle at time ``t``."""

    path: str          # relative to the part's directory
    t: float
    gate: float        # largest accepted max-abs gap


@dataclass
class Part:
    """One program scenario of a workload, instantiated for one seed.

    In ``commands``, ``{scenario}`` stands for the scenario file and
    ``{it}`` for the part's output directory of the current iteration."""

    name: str
    amplitudes: list[tuple[float, float]]   # one pair per axis
    axis: tuple                              # x_min x_max nx p_min p_max np
    scenario: str | None                     # scenario file text
    commands: list[dict]                     # child-process commands
    expected: list[str]                      # files that must exist
    slice_times: list[float]                 # checkpoints with slice tables
    checks: list[Check]                      # the last one is linf_oracle
    norm_files: list[str] = field(default_factory=list)

    def command_list(self, scenario_path: Path, part_dir: Path) -> list[dict]:
        """Commands with placeholders resolved for one iteration."""
        def fill(value):
            if isinstance(value, str):
                return (value.replace("{scenario}", str(scenario_path))
                        .replace("{it}", str(part_dir)))
            if isinstance(value, list):
                return [fill(v) for v in value]
            if isinstance(value, dict):
                return {k: fill(v) for k, v in value.items()}
            return value
        return [fill(c) for c in self.commands]


@dataclass
class Case:
    """One workload instantiated for one seed."""

    workload: str
    parts: list[Part]


WHY = {
    "spectral": "spectral-full CLI run (256^2, 300 steps) and d = 2 "
                "separable stepping (32^4, 20 steps): drift, kick phase, "
                "potential and FFT do most of the work; no pseudoparticle "
                "code runs",
    "pseudoparticle_io": "nlo CLI run (512^2, 60 steps), an oracle run "
                         "with 7 snapshots and field->ensemble->field "
                         "transcription: spline backtrack, d_p3, sampling, "
                         "file I/O and deposit; no spectral drift or kick",
}
WORKLOADS = tuple(WHY)


def _amplitudes(rng: random.Random) -> tuple[float, float]:
    ratio = math.exp(rng.uniform(math.log(0.95), -math.log(0.95)))
    return (1.0, round(ratio, 6))


def _scenario(axis, amps, method, t1, nsteps, checkpoints) -> str:
    x_min, x_max, nx, p_min, p_max, n_p = axis
    return (
        "# generated by the wigprop benchmark\n"
        f"[grid]\nx_min = {x_min!r}\nx_max = {x_max!r}\nnx = {nx}\n"
        f"p_min = {p_min!r}\np_max = {p_max!r}\nnp = {n_p}\n\n"
        f"[potential]\npotential = gaussian_well depth={DEPTH!r} "
        f"sigma={SIGMA!r}\n\n"
        f"[initial]\nstate = oracle\namplitudes = {amps[0]!r} {amps[1]!r}\n"
        "beta0_sq = 1.0\nn_max = 10\n\n"
        f"[run]\nmethod = {method}\nt0 = 0\nt1 = {t1!r}\nnsteps = {nsteps}\n"
        f"checkpoints = {' '.join(repr(t) for t in checkpoints)}\n"
        f"slices = {' '.join(repr(p) for p in SLICES)}\n")


def _field_name(t: float) -> str:
    return f"field_t{t:.6f}.txt"


def _stepping(name, rng, n, method, t1, nsteps, gate) -> Part:
    """``wigprop run`` of ``method`` from t = 0 to t1, snapshots at both
    ends, on an n x n lattice over the shipped box."""
    axis = (BOX[0], BOX[1], n, BOX[2], BOX[3], n)
    amps = _amplitudes(rng)
    times = [0.0, t1]
    return Part(
        name=name, amplitudes=[amps], axis=axis,
        scenario=_scenario(axis, amps, method, t1, nsteps, times),
        commands=[{"kind": "cli",
                   "args": ["run", "{scenario}", "-o", "{it}/run"]}],
        expected=["run/scenario.txt", "run/diagnostics.csv"]
        + [f"run/{_field_name(t)}" for t in times],
        slice_times=times,
        checks=[Check(f"run/{_field_name(t1)}", t1, gate)],
        norm_files=[f"run/{_field_name(t)}" for t in times])


def _reference_io(rng, smoke: bool) -> Part:
    """``method = oracle`` run, then the last snapshot to an ensemble and
    back onto the same grid with the plain Gaussian kernel."""
    n = 64 if smoke else 256
    axis = (BOX[0], BOX[1], n, BOX[2], BOX[3], n)
    amps = _amplitudes(rng)
    times = [float(t) for t in (range(4) if smoke else range(0, 13, 2))]
    last = f"run/{_field_name(times[-1])}"
    grid_arg = " ".join(repr(v) for v in axis)
    return Part(
        name="reference_io", amplitudes=[amps], axis=axis,
        scenario=_scenario(axis, amps, "oracle", times[-1], len(times) - 1,
                           times),
        commands=[
            {"kind": "cli", "args": ["run", "{scenario}", "-o", "{it}/run"]},
            {"kind": "cli", "args": ["transcribe", "--to", "ensemble",
                                     "-i", "{it}/" + last,
                                     "-o", "{it}/particles.txt"]},
            {"kind": "cli", "args": ["transcribe", "--to", "field",
                                     "-i", "{it}/particles.txt",
                                     "--dfunc-m", "0", "--grid", grid_arg,
                                     "-o", "{it}/back.txt"]},
        ],
        expected=["run/scenario.txt", "run/diagnostics.csv",
                  "particles.txt", "back.txt"]
        + [f"run/{_field_name(t)}" for t in times],
        slice_times=times,
        # snapshots must round-trip the oracle exactly; the deposited
        # field carries the Gaussian kernel's smoothing error
        checks=[Check(f"run/{_field_name(times[0])}", times[0], 1e-9),
                Check(last, times[-1], 1e-9),
                Check("back.txt", times[-1], 0.35 if smoke else 0.08)],
        norm_files=[f"run/{_field_name(t)}" for t in times] + ["back.txt"])


def _separable(rng, smoke: bool) -> Part:
    """Product of two seeded 1-d oracle states stepped on a 2-d lattice
    under the separable sum of two wells."""
    n = 16 if smoke else 32
    nsteps = 4 if smoke else 20
    axis = (BOX[0], BOX[1], n, -3.2, 3.2, n)
    amps = [_amplitudes(rng), _amplitudes(rng)]
    return Part(
        name="separable_2d", amplitudes=amps, axis=axis, scenario=None,
        commands=[{"kind": "separable", "args": {
            "out": "{it}/run", "axis": list(axis), "depth": DEPTH,
            "sigma": SIGMA, "amplitudes": [list(a) for a in amps],
            "t0": 0.0, "dt": 0.1, "nsteps": nsteps}}],
        expected=["run/field_final.npy", "run/diagnostics.csv"],
        slice_times=[],
        checks=[Check("run/field_final.npy", 0.1 * nsteps,
                      0.12 if smoke else 0.07)])


def make_case(workload: str, seed: int, smoke: bool = False) -> Case:
    """Instantiate ``workload`` for ``seed``; ``smoke`` shrinks the
    lattices and step counts so that a whole run takes seconds."""
    def rng(part: str) -> random.Random:
        return random.Random(f"{workload}/{part}/{seed}")

    if workload == "spectral":
        parts = [
            _stepping("well_spectral", rng("well_spectral"),
                      64 if smoke else 256, "spectral-full",
                      1.0 if smoke else 30.0, 10 if smoke else 300,
                      0.02 if smoke else 0.05),
            _separable(rng("separable_2d"), smoke)]
    elif workload == "pseudoparticle_io":
        parts = [
            _stepping("well_nlo", rng("well_nlo"), 64 if smoke else 512,
                      "nlo", 0.6 if smoke else 6.0, 6 if smoke else 60,
                      0.08 if smoke else 0.7),
            _reference_io(rng("reference_io"), smoke)]
    else:
        raise KeyError(f"unknown workload {workload!r}")
    return Case(workload=workload, parts=parts)


# ---------------------------------------------------------------------------
# checking outputs
# ---------------------------------------------------------------------------

def read_field(path: Path) -> np.ndarray:
    """Values of a field file, parsed independently of the program."""
    if path.suffix == ".npy":
        return np.load(path)
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 9 or header[:2] != ["#", "wignerfield"]:
            raise ValueError(f"{path.name}: not a wignerfield file")
        values = np.loadtxt(fh, ndmin=2)
    if values.shape != (int(header[2]), int(header[3])):
        raise ValueError(f"{path.name}: shape {values.shape} does not match "
                         f"its header")
    return values


class Oracle:
    """Reference fields of one part, computed once and cached by time.

    ``problem`` is set when the oracle misses the published bound-state
    energies, in which case none of its fields can be trusted."""

    def __init__(self, part: Part):
        from wigprop import make_grid, oracle

        self._oracle = oracle
        self.grid = make_grid(*part.axis)
        solution = oracle.solve(oracle.GaussianBasis(), SIGMA)
        gap = max(abs(e - ref) for e, ref in zip(solution.energies,
                                                 PUBLISHED_ENERGIES))
        self.problem = (None if gap < 1e-4 else
                        f"oracle energies {solution.energies[:2]} miss the "
                        f"published {PUBLISHED_ENERGIES}")
        self.states = [oracle.superposition(solution, *a)
                       for a in part.amplitudes]
        self._cache: dict[float, np.ndarray] = {}

    def field(self, t: float) -> np.ndarray:
        if t not in self._cache:
            factors = [self._oracle.sample_field(s, t, self.grid).values
                       for s in self.states]
            self._cache[t] = (factors[0] if len(factors) == 1 else
                              np.einsum("ac,bd->abcd", *factors))
        return self._cache[t]


@dataclass
class Verdict:
    ok: bool
    reasons: list[str]
    linf_oracle: float | None
    norm_drift: float | None
    gaps: dict[str, float | None] = field(default_factory=dict)  # by part


def verify(part: Part, part_dir: Path, exit_codes: list[int],
           oracle: Oracle) -> Verdict:
    """A run fails if any process exits non-zero, an expected snapshot,
    slice or diagnostics file is missing, a field value is non-finite, or
    a field is further from the oracle than its gate."""
    reasons = [f"command {i} exited {code}"
               for i, code in enumerate(exit_codes) if code != 0]
    reasons += [f"missing {rel}" for rel in part.expected
                if not (part_dir / rel).is_file()]
    for t in part.slice_times:
        found = len(list((part_dir / "run").glob(f"slice_t{t:.6f}_p*.txt")))
        if found != len(SLICES):
            reasons.append(f"{found} slice tables at t={t}, "
                           f"expected {len(SLICES)}")
    fields: dict[str, np.ndarray] = {}

    def load(rel: str):
        if rel not in fields:
            try:
                fields[rel] = read_field(part_dir / rel)
            except (OSError, ValueError) as exc:
                reasons.append(f"unreadable {rel}: {exc}")
                fields[rel] = None
        return fields[rel]

    linf = None
    for check in part.checks:
        values = load(check.path)
        if values is None:
            continue
        if not np.isfinite(values).all():
            reasons.append(f"non-finite values in {check.path}")
            continue
        ref = oracle.field(check.t)
        if values.shape != ref.shape:
            reasons.append(f"{check.path}: shape {values.shape}, "
                           f"oracle {ref.shape}")
            continue
        linf = float(np.abs(values - ref).max())
        if not linf <= check.gate:
            reasons.append(f"{check.path}: max-abs gap {linf:.4g} to the "
                           f"oracle exceeds the gate {check.gate:g}")

    drift = _norm_drift(part, part_dir, load)
    return Verdict(ok=not reasons, reasons=reasons, linf_oracle=linf,
                   norm_drift=drift)


def _norm_drift(part: Part, part_dir: Path, load) -> float | None:
    """Worst relative norm change against the first recorded norm."""
    if part.norm_files:
        norms = []
        for rel in part.norm_files:
            values = load(rel)
            if values is None or not np.isfinite(values).all():
                return None
            norms.append(float(values.sum()))
    else:
        path = part_dir / "run" / "diagnostics.csv"
        try:
            rows = path.read_text().splitlines()[1:]
            norms = [float(row.split(",")[2]) for row in rows]
        except (OSError, ValueError, IndexError):
            return None
    if not norms or norms[0] == 0.0:
        return None
    return max(abs(n - norms[0]) for n in norms) / abs(norms[0])


def tree_sha256(root: Path) -> str:
    """Digest of every file under ``root``: relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()
