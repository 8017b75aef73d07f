"""Which scipy submodules each command loads, and which start threads.

scipy submodules take most of a second to import, and every command runs
in a fresh process, so each is imported inside the one function that uses
it; ``concurrent.futures`` likewise waits for the first kernel that uses
it, and each such kernel joins its own row-block threads before it
returns.  These tests run commands in fresh interpreters and read
sys.modules and the live thread count; they measure no time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wigprop

_SRC = str(Path(wigprop.__file__).resolve().parents[1])

SCENARIO = """\
[grid]
x_min = -8
x_max = 8
nx = 64
p_min = -4
p_max = 4
np = 64
[potential]
potential = gaussian_well depth=1.0 sigma=3.0
[initial]
n_max = 8
[run]
method = {method}
t0 = 0
t1 = 0.3
nsteps = 3
checkpoints = 0 0.3
"""


def state_after(code: str, cwd: Path) -> tuple[set[str], int]:
    """Names in sys.modules and the number of live threads once ``code``
    has run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    script = (f"{code}\nimport json, sys, threading\n"
              "print(json.dumps([sorted(sys.modules), threading.active_count()]))\n")
    out = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    modules, threads = json.loads(out.stdout.splitlines()[-1])
    return set(modules), threads


def modules_after(code: str, cwd: Path) -> set[str]:
    """Names in sys.modules once ``code`` has run in a fresh interpreter."""
    return state_after(code, cwd)[0]


def scipy_modules(names: set[str]) -> set[str]:
    return {n for n in names if n == "scipy" or n.startswith("scipy.")}


def run_cli(*commands: list[str]) -> str:
    """Code that runs each command through the click entry point."""
    return "from wigprop.cli import main\n" + "".join(
        f"main({cmd!r}, standalone_mode=False)\n" for cmd in commands)


def test_cli_import_loads_no_scipy(tmp_path):
    loaded, threads = state_after("import wigprop.cli", tmp_path)
    assert scipy_modules(loaded) == set()
    # the row-block thread pools are built by the kernel calls that use
    # them, and concurrent.futures (which loads logging) imported there
    assert not {"concurrent.futures", "logging"} & loaded
    assert threads == 1
    # the %.17g writer is loaded by the first write, and its tables come
    # from Python ints alone
    assert not {"wigprop._format17", "fractions", "decimal"} & loaded
    # the benchmark and its tracer read these from sys.modules after the
    # import, so they stay eager
    assert {"wigprop.oracle", "wigprop.pseudoparticle",
            "wigprop.spectral"} <= loaded


def test_oracle_run_and_transcription_load_no_scipy(tmp_path):
    scenario = tmp_path / "oracle.txt"
    scenario.write_text(SCENARIO.format(method="oracle"))
    grid = "-8 8 64 -4 4 64"
    loaded = modules_after(run_cli(
        ["run", str(scenario), "-o", "run"],
        ["transcribe", "--to", "ensemble", "-i", "run/field_t0.300000.txt",
         "-o", "ens.txt"],
        ["transcribe", "--to", "field", "-i", "ens.txt", "--grid", grid,
         "-o", "back.txt"],
        ["oracle", "solve", "--nmax", "8"],
        ["oracle", "field", "--nmax", "8", "--grid", grid, "-o", "f.txt"],
        ["compare", "run", "run"]), tmp_path)
    assert (tmp_path / "back.txt").exists() and (tmp_path / "f.txt").exists()
    assert scipy_modules(loaded) == set()
    assert not {"fractions", "decimal"} & loaded


def test_oracle_solve_starts_no_thread(tmp_path):
    loaded, threads = state_after(run_cli(["oracle", "solve"]), tmp_path)
    assert threads == 1
    assert "concurrent.futures" not in loaded


def test_pooled_oracle_field_leaves_no_thread(tmp_path):
    # 64 rows on 4 workers go through the row-block pool, whose threads
    # are joined before the sampling call returns
    loaded, threads = state_after(
        "from wigprop import phasespace\nphasespace._workers = 4\n" + run_cli(
            ["oracle", "field", "--nmax", "8", "--grid", "-8 8 64 -4 4 64",
             "-o", "f.txt"]), tmp_path)
    assert (tmp_path / "f.txt").exists()
    assert "concurrent.futures" in loaded
    assert threads == 1


@pytest.mark.parametrize("method", ["lo", "nlo"])
def test_pseudoparticle_step_starts_no_thread(tmp_path, method):
    # the spline evaluation runs on the calling thread even where the
    # row-block pool would take its 64 rows
    modules_after(run_cli(["oracle", "field", "--nmax", "8", "--grid",
                           "-8 8 64 -4 4 64", "-o", "f.txt"]), tmp_path)
    loaded, threads = state_after(
        "from wigprop import phasespace\nphasespace._workers = 4\n" + run_cli(
            ["evolve", "--method", method, "--potential", "gaussian_well",
             "-i", "f.txt", "--t1", "0.3", "--steps", "3", "-o", "run"]),
        tmp_path)
    assert (tmp_path / "run" / "field_t0.300000.txt").exists()
    assert threads == 1
    assert "concurrent.futures" not in loaded


@pytest.mark.parametrize("method", ["spectral-full", "spectral-fo"])
def test_spectral_run_loads_no_scipy(tmp_path, method):
    scenario = tmp_path / "run.txt"
    scenario.write_text(SCENARIO.format(method=method))
    loaded = modules_after(run_cli(["run", str(scenario), "-o", "run"]), tmp_path)
    assert (tmp_path / "run" / "field_t0.300000.txt").exists()
    assert scipy_modules(loaded) == set()


@pytest.mark.parametrize("method", ["lo", "nlo"])
def test_pseudoparticle_run_loads_no_scipy(tmp_path, method):
    scenario = tmp_path / "run.txt"
    scenario.write_text(SCENARIO.format(method=method))
    loaded = modules_after(run_cli(["run", str(scenario), "-o", "run"]), tmp_path)
    assert (tmp_path / "run" / "field_t0.300000.txt").exists()
    # the bicubic backtrack is numpy alone
    assert scipy_modules(loaded) == set()
