"""Which scipy submodules each command loads.

scipy submodules take most of a second to import, and every command runs
in a fresh process, so each is imported inside the one function that uses
it.  These tests run commands in fresh interpreters and read sys.modules;
they measure no time.
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


def modules_after(code: str, cwd: Path) -> set[str]:
    """Names in sys.modules once ``code`` has run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


def scipy_modules(names: set[str]) -> set[str]:
    return {n for n in names if n == "scipy" or n.startswith("scipy.")}


def run_cli(*commands: list[str]) -> str:
    """Code that runs each command through the click entry point."""
    return "from wigprop.cli import main\n" + "".join(
        f"main({cmd!r}, standalone_mode=False)\n" for cmd in commands)


def test_cli_import_loads_no_scipy(tmp_path):
    loaded = modules_after("import wigprop.cli", tmp_path)
    assert scipy_modules(loaded) == set()
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


@pytest.mark.parametrize("method", ["spectral-full", "spectral-fo"])
def test_spectral_run_loads_no_scipy(tmp_path, method):
    scenario = tmp_path / "run.txt"
    scenario.write_text(SCENARIO.format(method=method))
    loaded = modules_after(run_cli(["run", str(scenario), "-o", "run"]), tmp_path)
    assert (tmp_path / "run" / "field_t0.300000.txt").exists()
    assert scipy_modules(loaded) == set()


@pytest.mark.parametrize("method", ["lo", "nlo"])
def test_pseudoparticle_run_loads_only_ndimage(tmp_path, method):
    scenario = tmp_path / "run.txt"
    scenario.write_text(SCENARIO.format(method=method))
    loaded = modules_after(run_cli(["run", str(scenario), "-o", "run"]), tmp_path)
    assert (tmp_path / "run" / "field_t0.300000.txt").exists()
    # scipy.ndimage and whatever it imports itself, nothing else
    assert "scipy.ndimage" in loaded
    assert scipy_modules(loaded) == scipy_modules(
        modules_after("import scipy.ndimage", tmp_path))
