"""Child process of the benchmark: runs program commands in a fresh
interpreter.

    python bench/child.py '<json spec>'

Spec keys:

``src``
    directory holding the ``wigprop`` package under test.
``commands``
    ``{"kind": "cli", "args": [...]}`` runs ``wigprop <args>``;
    ``{"kind": "separable", "args": {...}}`` runs the d = 2 stepping
    runner below (the command line has no path for d = 2).
``ready``
    untraced runs: file that receives the CLOCK_MONOTONIC time at which
    the initial field is in memory.
``setup_only``
    exit as soon as the initial field is in memory.
``trace``
    in-process runs: every command runs in this process through
    ``wigprop.cli.main``, and the in-process wall time is written to this
    file.
``spans``
    in-process runs: wrap the program's layers with the tracer and add
    the span summary to the ``trace`` file.

Untraced runs take exactly one command, run through the click entry point
as the installed ``wigprop`` script would, so the exit code is the
program's own.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, rebind


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_cli(src: str):
    cli = importlib.import_module("wigprop.cli")
    origin = Path(sys.modules["wigprop"].__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        raise SystemExit(f"wigprop imported from {origin}, not from {src}")
    return cli


def run_separable(args: dict, mark_ready) -> None:
    """Step the product of two seeded 1-d oracle states on a 2-d lattice
    under the separable sum of two Gaussian wells."""
    import numpy as np

    from wigprop import make_grid, oracle, spectral
    from wigprop.phasespace import PhaseSpaceGridND, WignerFieldND, norm_nd
    from wigprop.potentials import GaussianWell, SeparableSum

    out = Path(args["out"])
    out.mkdir(parents=True, exist_ok=True)
    axis = make_grid(*args["axis"])
    well = GaussianWell(depth=args["depth"], sigma=args["sigma"])
    solution = oracle.solve(oracle.GaussianBasis(), well.sigma)
    t0, dt, nsteps = args["t0"], args["dt"], args["nsteps"]
    factors = [oracle.sample_field(oracle.superposition(solution, *amps),
                                   t0, axis).values
               for amps in args["amplitudes"]]
    field = WignerFieldND(grid=PhaseSpaceGridND((axis, axis)),
                          values=np.einsum("ac,bd->abcd", *factors), time=t0)
    mark_ready()
    pot = SeparableSum((well, well))
    cfg = spectral.SpectralStepConfig(dt=dt)
    rows = [(0, field.time, norm_nd(field))]
    for k in range(nsteps):
        field = spectral.step_separable(field, pot, t0 + k * dt, cfg)
        rows.append((k + 1, field.time, norm_nd(field)))
    np.save(out / "field_final.npy", field.values)
    with open(out / "diagnostics.csv", "w") as fh:
        fh.write("step,time,norm\n")
        fh.writelines(f"{k},{t!r},{n!r}\n" for k, t, n in rows)


def untraced(spec: dict) -> int:
    cli = _import_cli(spec["src"])
    marked = []

    def mark_ready():
        if marked:
            return
        marked.append(_now())
        if spec.get("ready"):
            with open(spec["ready"], "w") as fh:
                fh.write(repr(marked[0]))
        if spec.get("setup_only"):
            os._exit(0)

    (command,) = spec["commands"]
    if command["kind"] == "separable":
        run_separable(command["args"], mark_ready)
        return 0

    sample = sys.modules["wigprop.oracle"].sample_field

    def sample_then_mark(*args, **kwargs):
        out = sample(*args, **kwargs)
        mark_ready()
        return out

    rebind("wigprop", {id(sample): sample_then_mark})
    cli.main(command["args"], prog_name="wigprop")
    return 0


def in_process(spec: dict) -> int:
    """Run every command in this process; with ``spans`` set, under the
    tracer.  Writes the in-process wall time (and the span summary) to
    the file named by ``trace``."""
    start = time.perf_counter()
    tracer = Tracer() if spec.get("spans") else None

    def call(name, fn, args=(), kwargs=None):
        if tracer is None:
            return fn(*args, **(kwargs or {}))
        return tracer.call(name, fn, args, kwargs)

    cli = call("cli.import", _import_cli, (spec["src"],))
    if tracer is not None:
        tracer.install("wigprop")
    codes = []
    for command in spec["commands"]:
        try:
            if command["kind"] == "separable":
                call("runner.separable", run_separable,
                     (command["args"], lambda: None))
            else:
                call("cli.main", cli.main, (command["args"],),
                     {"prog_name": "wigprop", "standalone_mode": False})
            codes.append(0)
        except SystemExit as exc:
            codes.append(exc.code if isinstance(exc.code, int) else 1)
        except Exception:
            traceback.print_exc()
            codes.append(1)
    summary = tracer.summary() if tracer is not None else {}
    summary["wall_s"] = time.perf_counter() - start
    summary["exit_codes"] = codes
    with open(spec["trace"], "w") as fh:
        json.dump(summary, fh)
    return 0 if not any(codes) else 1


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    return in_process(spec) if spec.get("trace") else untraced(spec)


if __name__ == "__main__":
    sys.exit(main())
