"""Command-line scenario runner and comparison harness.

A scenario is a flat key=value text file with section headers (grammar in
the README).  Runs are reproducible directories of field snapshots, slice
tables and a diagnostics CSV; `compare` quantifies the difference between
two runs.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import csv
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import click
import numpy as np

from . import oracle, pseudoparticle, spectral
from .phasespace import (DEFAULT_GRID_SPEC, HBAR, NumericalError,
                         PhaseSpaceGrid, StepDiagnostics, WignerField,
                         check_mass, diff_metrics, evolve, load_field,
                         make_grid, norm, read_rows, save_field, step_size)
from .potentials import GaussianWell, parse_potential

METHODS = ("spectral-full", "spectral-fo", "lo", "nlo", "oracle")

#: Reports and tables print floats with this many significant digits.
REPORT_DIGITS = 6

#: Most checkpoints an oracle run samples in one pass.  A pass evaluates
#: each basis pair once for all its times and holds one lattice per time.
_ORACLE_PASS = 8

#: Largest relative gap between a sampled oracle state's norm and
#: 2 pi hbar that ``run`` and ``oracle field`` accept.  Resolved states
#: read 2.3e-5 on the shipped grids and 5.3e-4 on the default one; a basis
#: too narrow for the lattice (beta0_sq = 1e-300) reads 0.27 to 0.36.
ORACLE_NORM_GAP = 1e-2


class ConfigError(Exception):
    """Bad scenario/config input; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@contextmanager
def _bad_input(prefix: str = "", line: int | None = None):
    """Turn a ``ValueError``, or the ``OSError`` of a read, raised in the
    block into ``ConfigError(prefix + message, line)``.  Blocks only read
    and check input, so a ``NumericalError`` (a basis that cannot be
    solved) passes through; ``NonFiniteFieldError`` is also a
    ``ValueError``, as a field file with a NaN in it is bad input."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise ConfigError(prefix + str(exc), line) from None


def _fmt(v: float) -> str:
    return f"{v:.{REPORT_DIGITS}g}"


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    grid: PhaseSpaceGrid
    potential: object
    method: str
    t0: float
    t1: float
    nsteps: int
    checkpoints: list[float]
    slices: list[float]
    mass: float = 1.0
    initial_kind: str = "oracle"          # 'oracle' or 'file'
    amplitudes: tuple[float, ...] = (1.0, 1.0)
    beta0_sq: float = 1.0
    n_max: int = 10
    #: a field file's path, or the field already read from it
    initial_field: str | WignerField | None = None
    source_text: str = dc_field(default="", repr=False)
    lines: dict[str, int] = dc_field(default_factory=dict, repr=False)


def _parse_float_list(raw: str) -> list[float]:
    items = raw.replace(",", " ").split()
    return [float(v) for v in items]


#: Every scenario key by section: its converter and the text an absent key
#: takes, or None for a required key.  A default is formatted with the
#: given texts, so an absent ``checkpoints`` is the one time t1.
_SCHEMA = {
    "grid": {"x_min": (float, None), "x_max": (float, None), "nx": (int, None),
             "p_min": (float, None), "p_max": (float, None), "np": (int, None)},
    "potential": {"potential": (parse_potential, None)},
    "run": {"method": (str, None), "t0": (float, None), "t1": (float, None),
            "nsteps": (int, None), "checkpoints": (_parse_float_list, "{t1}"),
            "slices": (_parse_float_list, "0 0.3 0.6"), "mass": (float, "1.0")},
    "initial": {"state": (str, "oracle"), "amplitudes": (_parse_float_list, "1 1"),
                "beta0_sq": (float, "1.0"), "n_max": (int, "10")},
}


def parse_scenario_text(text: str) -> Scenario:
    """Parse scenario text; unknown sections/keys are reported with their
    line numbers."""
    raws: dict[str, str] = {}
    lines: dict[str, int] = {}
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        if section is None:
            raise ConfigError("entry before any [section] header", lineno)
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        if key in raws:
            raise ConfigError(f"duplicate key {key!r} in section [{section}]", lineno)
        raws[key], lines[key] = value, lineno

    values = {}
    for section, keys in _SCHEMA.items():
        for key, (convert, default) in keys.items():
            if key not in raws and default is None:
                raise ConfigError(f"missing required key {key!r} in section [{section}]")
            raw = raws[key] if key in raws else default.format_map(raws)
            with _bad_input("" if key == "potential" else f"{key}: ", lines.get(key)):
                values[key] = convert(raw)

    with _bad_input("grid: "):
        grid = make_grid(*(values.pop(key) for key in _SCHEMA["grid"]))
    if values["method"] not in METHODS:
        raise ConfigError(f"method must be one of {', '.join(METHODS)}", lines["method"])
    state = values.pop("state")
    parts = state.split(None, 1)
    initial_kind = parts[0] if parts else ""
    field_path = None
    if initial_kind == "file":
        if len(parts) != 2:
            raise ConfigError("state = file needs a path", lines.get("state"))
        field_path = parts[1]
    elif initial_kind != "oracle":
        raise ConfigError(f"state must be 'oracle' or 'file <path>', got {state!r}",
                          lines.get("state"))
    values["amplitudes"] = tuple(values["amplitudes"])

    # the keys left are the Scenario fields of the same names
    sc = Scenario(grid=grid, initial_kind=initial_kind, initial_field=field_path,
                  source_text=text, lines=lines, **values)
    _validate_scenario(sc)
    return sc


def _validate_scenario(sc: Scenario) -> None:
    """Range checks; each error names the line of its key, when it has one.
    Every check is written so that a NaN fails it."""
    def check(ok, key: str, message: str) -> None:
        if not ok:
            raise ConfigError(message, sc.lines.get(key))

    check(math.isfinite(sc.t0), "t0", "t0 must be finite")
    check(1 <= sc.nsteps <= sys.maxsize, "nsteps", "nsteps must be from 1 to sys.maxsize")
    with _bad_input(line=sc.lines.get("t1")):
        dt = step_size(sc.t0, sc.t1, sc.nsteps)
    with _bad_input(line=sc.lines.get("mass")):
        check_mass(dt, sc.mass)
    for tc in sc.checkpoints:
        check(sc.t0 - 1e-9 <= tc <= sc.t1 + 1e-9, "checkpoints",
              f"checkpoint {tc} outside [{sc.t0}, {sc.t1}]")
        k = round((tc - sc.t0) / dt)
        check(sc.method == "oracle" or abs(sc.t0 + k * dt - tc) <= 1e-9,
              "checkpoints", f"checkpoint {tc} does not land on a step boundary "
              f"(dt={dt})")
    for pv in sc.slices:
        check(sc.grid.p_min <= pv <= sc.grid.p_max, "slices",
              f"slice momentum {pv} outside grid p-bounds")
    if sc.initial_kind == "oracle":
        check(isinstance(sc.potential, GaussianWell), "potential",
              "oracle initial states require potential = gaussian_well")
        check(sc.potential.depth == 1.0, "potential", "oracle initial states "
              f"solve the unit-depth well: depth must be 1.0, got {sc.potential.depth!r}")
        check(2 <= sc.n_max <= oracle.N_MAX_SOLVABLE, "n_max", "n_max must be "
              f"from 2 to {oracle.N_MAX_SOLVABLE}; larger bases cannot be solved")
        with _bad_input(line=sc.lines.get("beta0_sq")):
            oracle.GaussianBasis(beta0_sq=sc.beta0_sq, n_max=sc.n_max)
        with _bad_input(line=sc.lines.get("amplitudes")):
            oracle.normalized(sc.amplitudes)
        check(len(sc.amplitudes) <= sc.n_max, "amplitudes",
              "amplitudes must be at most n_max numbers")
    check(sc.method != "oracle" or sc.initial_kind == "oracle", "method",
          "method = oracle requires an oracle initial state")
    check(sc.method != "oracle" or sc.mass == 1.0, "mass", "method = oracle "
          f"solves the unit-mass Hamiltonian: mass must be 1.0, got {sc.mass!r}")


def parse_scenario(path) -> Scenario:
    with _bad_input("cannot read scenario file: "):
        text = Path(path).read_text()
    return parse_scenario_text(text)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def _oracle_state(beta0_sq: float, n_max: int, sigma: float,
                  amplitudes=None) -> oracle.SuperpositionState:
    """The eigenstate superposition (solved, not sampled) of the Gaussian
    well of width ``sigma``; the ground state without ``amplitudes``."""
    with _bad_input():
        basis = oracle.GaussianBasis(beta0_sq=beta0_sq, n_max=n_max)
        solution = oracle.solve(basis, sigma)
        return oracle.superposition(
            solution, *((1.0,) if amplitudes is None else amplitudes))


def _initial_state(sc: Scenario) -> WignerField:
    """The field at t0: read from file or sampled from the oracle state."""
    if sc.initial_kind == "file":
        loaded = sc.initial_field
        if not isinstance(loaded, WignerField):
            with _bad_input("initial field: "):
                loaded = load_field(loaded)
        if loaded.grid != sc.grid:
            raise ConfigError("initial field grid does not match scenario grid")
        return WignerField(grid=sc.grid, values=loaded.values, time=sc.t0)
    return oracle.sample_field(_oracle_state(sc.beta0_sq, sc.n_max, sc.potential.sigma,
                                             sc.amplitudes), sc.t0, sc.grid)


def _check_resolved(got: float, key: str, line: int | None = None) -> None:
    """Raise ``ConfigError``, naming ``key`` (and its line), unless the
    norm ``got`` of a sampled oracle state is within ORACLE_NORM_GAP of
    2 pi hbar; further off, the lattice does not resolve the state."""
    want = 2.0 * math.pi * HBAR
    gap = abs(got - want) / want
    if not gap <= ORACLE_NORM_GAP:
        raise ConfigError(
            f"the oracle state sampled on this grid has norm {got:.6g}, not "
            f"2*pi*hbar = {want:.6g} (relative gap {gap:.3g} > "
            f"{ORACLE_NORM_GAP:g}); the grid does not resolve the state: "
            f"check the grid and {key}", line)


def _snap_slice(grid: PhaseSpaceGrid, p_want: float) -> tuple[int, float]:
    j = int(np.argmin(np.abs(grid.p_lattice - p_want)))
    return j, float(grid.p_lattice[j])


def _write_slice(outdir: Path, field: WignerField, p_want: float, method: str) -> None:
    j, p_snap = _snap_slice(field.grid, p_want)
    path = outdir / f"slice_t{field.time:.6f}_p{p_snap:.6f}.txt"
    with open(path, "w") as fh:
        fh.write(f"# slice p={_fmt(p_snap)} t={_fmt(field.time)} method={method}\n")
        for xv, fv in zip(field.grid.x_lattice, field.values[:, j]):
            fh.write(f"{_fmt(xv)} {_fmt(fv)}\n")


def run_scenario(sc: Scenario, outdir) -> Path:
    """Execute a scenario and write snapshots, slice tables and diagnostics."""
    dt = step_size(sc.t0, sc.t1, sc.nsteps)
    outdir = Path(outdir)
    want = sorted(set(round((tc - sc.t0) / dt) for tc in sc.checkpoints))
    diag_rows: list[StepDiagnostics] = []
    warnings: list[str] = []

    def record(f: WignerField):
        # the first row of an oracle state checks that the grid resolves
        # it; the run directory is made only once the first field passed
        diag_rows.append(StepDiagnostics.of(len(diag_rows), f))
        if len(diag_rows) == 1:
            if sc.initial_kind == "oracle":
                _check_resolved(diag_rows[0].norm, "beta0_sq", sc.lines.get("beta0_sq"))
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "scenario.txt").write_text(sc.source_text)

    def emit(f: WignerField):
        save_field(f, outdir / f"field_t{f.time:.6f}.txt")
        for pv in sc.slices:
            _write_slice(outdir, f, pv, sc.method)

    if sc.method == "oracle":
        # no stepping: evaluate at the exact requested times only, a pass
        # of at most _ORACLE_PASS times at a time
        state = _oracle_state(sc.beta0_sq, sc.n_max, sc.potential.sigma,
                              sc.amplitudes)
        times = sorted(set(sc.checkpoints))
        for start in range(0, len(times), _ORACLE_PASS):
            for f in oracle.sample_fields(state, times[start:start + _ORACLE_PASS],
                                          sc.grid):
                record(f)
                emit(f)
    else:
        def start() -> WignerField:
            # no local name holds the initial field, so the driver frees it
            # after the first step, as it does every later field
            f = _initial_state(sc)
            record(f)
            if 0 in want:
                emit(f)
            return f

        if sc.method in ("spectral-full", "spectral-fo"):
            # looked up now, not at import, so a rebound step function is used
            spectral_step = (spectral.step_full if sc.method == "spectral-full"
                             else spectral.step_first_order)
            cfg = spectral.SpectralStepConfig(dt=dt, mass=sc.mass)
            step = lambda f: spectral_step(f, sc.potential, cfg)
        else:
            step = pseudoparticle.stepper(sc.grid, sc.potential, dt,
                                          order=0 if sc.method == "lo" else 1,
                                          mass=sc.mass)
        result = evolve(step, start(), sc.nsteps,
                        on_step=lambda k, f: emit(f) if k in want else None)
        diag_rows += result.diagnostics
        warnings = result.warnings

    with open(outdir / "diagnostics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "time", "norm", "min", "max"])
        for d in diag_rows:
            writer.writerow([d.step] + [_fmt(v) for v in (d.time, d.norm, d.min, d.max)])
    if warnings:
        (outdir / "warnings.txt").write_text("\n".join(warnings) + "\n")
    return outdir


# ---------------------------------------------------------------------------
# comparing
# ---------------------------------------------------------------------------

def _load_run_fields(rundir: Path) -> dict[float, WignerField]:
    fields = {}
    for path in sorted(rundir.glob("field_t*.txt")):
        with _bad_input():
            f = load_field(path)
        fields[round(f.time, 9)] = f
    if not fields:
        raise ConfigError(f"{rundir}: no field snapshots found")
    return fields


def _load_run_slices(rundir: Path) -> dict[tuple[float, float], np.ndarray]:
    slices = {}
    for path in sorted(rundir.glob("slice_t*_p*.txt")):
        with _bad_input(f"{path}: not a slice table: "), open(path) as fh:
            header = fh.readline().split()
            meta = dict(item.split("=", 1) for item in header[2:])
            if not {"t", "p"} <= meta.keys():
                raise ValueError("header lacks t= or p=")
            data = read_rows(fh)
            if data.shape[0] == 0 or data.shape[1] < 2:
                raise ValueError("expected rows of x and W")
            key = (round(float(meta["t"]), 6), round(float(meta["p"]), 6))
        slices[key] = data
    return slices


def compare_runs(dir_a, dir_b, linf_tol: float | None = None,
                 l2_tol: float | None = None) -> tuple[str, bool]:
    """Build a comparison report; returns (text, all verdicts passed)."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    fields_a = _load_run_fields(dir_a)
    fields_b = _load_run_fields(dir_b)
    times = sorted(set(fields_a) & set(fields_b))
    if not times:
        raise ConfigError("runs share no checkpoint times")
    slices_a = _load_run_slices(dir_a)
    slices_b = _load_run_slices(dir_b)

    lines = [f"# compare A={dir_a} B={dir_b}"]
    all_pass = True
    for t in times:
        fa, fb = fields_a[t], fields_b[t]
        if fa.grid != fb.grid:
            raise ConfigError(f"t={t}: grids do not match")
        m = diff_metrics(fa, fb)
        lines.append(f"t={_fmt(t)}: l2={_fmt(m.l2)} linf={_fmt(m.linf)} "
                     f"at (x={_fmt(m.linf_location[0])}, p={_fmt(m.linf_location[1])})")
        for (ts, ps), table_a in sorted(slices_a.items()):
            # slice headers carry 6 significant digits; match tolerantly
            if abs(ts - t) > 1e-5 * max(1.0, abs(t)) or (ts, ps) not in slices_b:
                continue
            table_b = slices_b[(ts, ps)]
            for tag, table in (("A", table_a), ("B", table_b)):
                imax = int(np.argmax(table[:, 1]))
                imin = int(np.argmin(table[:, 1]))
                lines.append(
                    f"  slice p={_fmt(ps)} {tag}: "
                    f"max {_fmt(table[imax, 1])} at x={_fmt(table[imax, 0])}, "
                    f"min {_fmt(table[imin, 1])} at x={_fmt(table[imin, 0])}")
            gap_max = abs(float(table_a[np.argmax(table_a[:, 1]), 1])
                          - float(table_b[np.argmax(table_b[:, 1]), 1]))
            gap_min = abs(float(table_a[np.argmin(table_a[:, 1]), 1])
                          - float(table_b[np.argmin(table_b[:, 1]), 1]))
            lines.append(f"  slice p={_fmt(ps)}: peak gap {_fmt(gap_max)}, "
                         f"trough gap {_fmt(gap_min)}")
        for name, value, tol in (("linf", m.linf, linf_tol), ("l2", m.l2, l2_tol)):
            if tol is not None:
                ok = value <= tol
                all_pass = all_pass and ok
                lines.append(f"  verdict t={_fmt(t)} {name}: "
                             f"{'PASS' if ok else 'FAIL'} ({_fmt(value)} vs {_fmt(tol)})")
    return "\n".join(lines) + "\n", all_pass


# ---------------------------------------------------------------------------
# click commands
# ---------------------------------------------------------------------------

class _Commands(click.Group):
    """The command group, and the one error boundary of every command in
    it: a ``ConfigError`` exits 2, a ``NumericalError`` exits 3, and an
    ``OSError`` exits 2, each with its message on stderr.  A
    ``MemoryError``, a lattice too large to allocate, is a config error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ConfigError, MemoryError) as exc:
            click.echo(f"config error: {str(exc) or 'out of memory'}", err=True)
            sys.exit(2)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(3)
        except OSError as exc:
            # every read maps its OSError to a ConfigError with its own
            # context, so what reaches here failed to write an output path
            click.echo(f"cannot write output: {exc}", err=True)
            sys.exit(2)


def _parse_grid_option(raw: str) -> PhaseSpaceGrid:
    parts = raw.replace(",", " ").split()
    if len(parts) != 6:
        raise ConfigError("grid must be 'x_min x_max nx p_min p_max np'")
    with _bad_input():
        return make_grid(float(parts[0]), float(parts[1]), int(parts[2]),
                         float(parts[3]), float(parts[4]), int(parts[5]))


_DEFAULT_GRID_RAW = " ".join(str(v) for v in DEFAULT_GRID_SPEC)


@click.group(cls=_Commands)
def main():
    """Phase-space propagation of Wigner functions."""


@main.command("run")
@click.argument("scenario_file", type=click.Path())
@click.option("-o", "--outdir", required=True, type=click.Path(),
              help="Directory to write the run into.")
def run_cmd(scenario_file, outdir):
    """Execute a scenario file."""
    sc = parse_scenario(scenario_file)
    run_scenario(sc, outdir)
    click.echo(f"run written to {outdir}")


@main.command("compare")
@click.argument("dir_a", type=click.Path())
@click.argument("dir_b", type=click.Path())
@click.option("--linf-tol", type=float, default=None,
              help="Verdict threshold on the max-abs difference.")
@click.option("--l2-tol", type=float, default=None,
              help="Verdict threshold on the l2 difference.")
@click.option("-o", "--report", type=click.Path(), default=None,
              help="Also write the report to this file.")
def compare_cmd(dir_a, dir_b, linf_tol, l2_tol, report):
    """Quantify the difference between two run directories."""
    text, _ = compare_runs(dir_a, dir_b, linf_tol, l2_tol)
    click.echo(text, nl=False)
    if report:
        Path(report).write_text(text)


@main.group("oracle")
def oracle_group():
    """Gaussian-well bound-state reference solutions."""


@oracle_group.command("solve")
@click.option("--sigma", type=float, default=3.0, show_default=True)
@click.option("--beta0sq", type=float, default=1.0, show_default=True)
@click.option("--nmax", type=int, default=10, show_default=True)
def oracle_solve_cmd(sigma, beta0sq, nmax):
    """Print the bound-state energies of the Gaussian well."""
    solution = _oracle_state(beta0sq, nmax, sigma).solution
    click.echo(f"# sigma={_fmt(sigma)} beta0_sq={_fmt(beta0sq)} n_max={nmax} "
               f"min_pivot={solution.min_pivot:.3e}")
    for lam, (e, r) in enumerate(zip(solution.energies, solution.residuals)):
        click.echo(f"E_{lam} = {_fmt(e)}   (residual {r:.2e})")


@oracle_group.command("field")
@click.option("--t", "time", type=float, default=0.0, show_default=True)
@click.option("--sigma", type=float, default=3.0, show_default=True)
@click.option("--beta0sq", type=float, default=1.0, show_default=True)
@click.option("--nmax", type=int, default=10, show_default=True)
@click.option("--amplitudes", default="1 1", show_default=True,
              help="Eigenstate amplitudes, normalized automatically.")
@click.option("--grid", "grid_raw", default=_DEFAULT_GRID_RAW, show_default=True,
              help="x_min x_max nx p_min p_max np")
@click.option("-o", "--out", required=True, type=click.Path())
def oracle_field_cmd(time, sigma, beta0sq, nmax, amplitudes, grid_raw, out):
    """Write the analytic Wigner field at time t."""
    grid = _parse_grid_option(grid_raw)
    if not math.isfinite(time):
        raise ConfigError(f"--t must be finite, got {time!r}")
    with _bad_input("--amplitudes: "):
        amps = _parse_float_list(amplitudes)
    field = oracle.sample_field(_oracle_state(beta0sq, nmax, sigma, amps),
                                time, grid)
    _check_resolved(norm(field), "--beta0sq")
    save_field(field, out)
    click.echo(f"field written to {out}")


@main.command("evolve")
@click.option("--method", type=click.Choice([m for m in METHODS if m != "oracle"]),
              required=True)
@click.option("--potential", "potential_raw", required=True,
              help="e.g. 'gaussian_well depth=1.0 sigma=3.0'")
@click.option("-i", "--initial", "initial_path", required=True, type=click.Path(),
              help="Initial WignerField file; defines the grid.")
@click.option("--t0", type=float, default=0.0, show_default=True)
@click.option("--t1", type=float, required=True)
@click.option("--steps", "nsteps", type=int, required=True)
@click.option("--checkpoints", default=None, help="Times to snapshot (default: t1).")
@click.option("--slices", default="0 0.3 0.6", show_default=True)
@click.option("--mass", type=float, default=1.0, show_default=True)
@click.option("-o", "--outdir", required=True, type=click.Path())
def evolve_cmd(method, potential_raw, initial_path, t0, t1, nsteps,
               checkpoints, slices, mass, outdir):
    """Propagate a field file and write a run directory."""
    with _bad_input("initial field: "):
        initial = load_field(initial_path)
    with _bad_input():
        pot = parse_potential(potential_raw)
    with _bad_input("--checkpoints and --slices take numbers: "):
        times = _parse_float_list(checkpoints) if checkpoints else [t1]
        momenta = _parse_float_list(slices)
    sc = Scenario(grid=initial.grid, potential=pot, method=method, t0=t0,
                  t1=t1, nsteps=nsteps, checkpoints=times, slices=momenta,
                  mass=mass, initial_kind="file", initial_field=initial,
                  source_text=f"# generated by 'wigprop evolve'\n")
    _validate_scenario(sc)
    run_scenario(sc, outdir)
    click.echo(f"run written to {outdir}")


@main.command("transcribe")
@click.option("--to", "target", type=click.Choice(["ensemble", "field"]),
              required=True)
@click.option("-i", "--input", "in_path", required=True, type=click.Path())
@click.option("-o", "--out", required=True, type=click.Path())
@click.option("--dfunc-m", "dfunc_m", type=int, default=3, show_default=True,
              help="Hermite truncation order of the deposition kernel.")
@click.option("--dfunc-alpha", default="auto", show_default=True,
              help="Kernel inverse-width; 'auto' scales with the cell size.")
@click.option("--grid", "grid_raw", default=_DEFAULT_GRID_RAW, show_default=True,
              help="Target grid when depositing to a field.")
def transcribe_cmd(target, in_path, out, dfunc_m, dfunc_alpha, grid_raw):
    """Convert between lattice fields and particle ensembles."""
    if target == "ensemble":
        with _bad_input():
            f = load_field(in_path)
        pseudoparticle.save_ensemble(pseudoparticle.to_ensemble(f), out)
    else:
        with _bad_input():
            ens = pseudoparticle.load_ensemble(in_path)
        grid = _parse_grid_option(grid_raw)
        auto = dfunc_alpha == "auto"
        with _bad_input(f"--dfunc-m {dfunc_m} and --dfunc-alpha {dfunc_alpha}: "):
            alphas = ([pseudoparticle.auto_alpha(d) for d in (grid.dx, grid.dp)]
                      if auto else [float(dfunc_alpha)] * 2)
            params_r, params_p = [pseudoparticle.DFunctionParams(alpha=a, order=dfunc_m)
                                  for a in alphas]
        # a given width whose kernel reaches past the grid has a stencil
        # of more nodes than the lattice (about 1e301 at alpha 1e-300)
        reach = pseudoparticle.kernel_reach(params_r)
        extent = min(grid.x_max - grid.x_min, grid.p_max - grid.p_min)
        if not (auto or reach <= extent):
            raise ConfigError(
                f"--dfunc-alpha {dfunc_alpha} gives a kernel reach of "
                f"{reach:g}, more than the grid's extent {extent:g}")
        save_field(pseudoparticle.deposit(ens, grid, params_r, params_p), out)
    click.echo(f"written to {out}")


if __name__ == "__main__":
    main()
