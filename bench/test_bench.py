"""Tests of the benchmark itself: its accuracy gate fires, its tracer
attributes time correctly, and a smoke run on tiny lattices prints every
metric that BENCHMARK.json names."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import cases  # noqa: E402
import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402

from wigprop import oracle, save_field  # noqa: E402
from wigprop.phasespace import WignerField  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _fake_run(part: cases.Part, part_dir: Path, amplitudes) -> None:
    """Write every file a healthy run of ``part`` leaves, with snapshots
    sampled from the oracle state with ``amplitudes``."""
    solution = oracle.solve(oracle.GaussianBasis(), cases.SIGMA)
    state = oracle.superposition(solution, *amplitudes)
    grid = cases.Oracle(part).grid
    run_dir = part_dir / "run"
    run_dir.mkdir(parents=True)
    for rel in part.expected:
        (part_dir / rel).write_text("")
    for t in part.slice_times:
        for p in cases.SLICES:
            (run_dir / f"slice_t{t:.6f}_p{p:.6f}.txt").write_text("")
    for rel in part.norm_files:
        t = float(rel.split("field_t")[1][:-len(".txt")])
        save_field(oracle.sample_field(state, t, grid), part_dir / rel)


@pytest.fixture
def spectral_part():
    part = cases.make_case("spectral", seed=3, smoke=True).parts[0]
    assert part.name == "well_spectral"
    return part


def test_gate_passes_the_oracle_state(tmp_path, spectral_part):
    _fake_run(spectral_part, tmp_path, spectral_part.amplitudes[0])
    verdict = cases.verify(spectral_part, tmp_path, [0],
                           cases.Oracle(spectral_part))
    assert verdict.ok, verdict.reasons
    assert verdict.linf_oracle < 1e-12


def test_gate_fires_on_a_field_from_other_amplitudes(tmp_path, spectral_part):
    _fake_run(spectral_part, tmp_path, (1.0, -1.0))
    verdict = cases.verify(spectral_part, tmp_path, [0],
                           cases.Oracle(spectral_part))
    assert not verdict.ok
    assert any("exceeds the gate" in r for r in verdict.reasons)
    assert verdict.linf_oracle > spectral_part.checks[-1].gate


def test_failed_exit_missing_files_and_nonfinite_values(tmp_path, spectral_part):
    _fake_run(spectral_part, tmp_path, spectral_part.amplitudes[0])
    final = tmp_path / spectral_part.checks[-1].path
    grid = cases.Oracle(spectral_part).grid
    values = np.zeros(grid.shape())
    save_field(WignerField(grid=grid, values=values), final)
    text = final.read_text().splitlines()
    text[5] = " ".join(["nan"] * grid.np)
    final.write_text("\n".join(text) + "\n")
    (tmp_path / "run" / "diagnostics.csv").unlink()
    next((tmp_path / "run").glob("slice_*")).unlink()
    verdict = cases.verify(spectral_part, tmp_path, [3],
                           cases.Oracle(spectral_part))
    joined = " ".join(verdict.reasons)
    assert "command 0 exited 3" in joined
    assert "missing run/diagnostics.csv" in joined
    assert "slice tables" in joined
    assert "non-finite" in joined


def test_oracle_must_match_the_published_energies(monkeypatch, spectral_part):
    assert cases.Oracle(spectral_part).problem is None
    monkeypatch.setattr(cases, "PUBLISHED_ENERGIES", (-0.8438, -0.3))
    assert "miss the published" in cases.Oracle(spectral_part).problem


def test_self_time_excludes_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        tracer.call("inner", inner)
        tracer.call("inner", inner)

    tracer.call("outer", outer)
    spans = tracer.summary()["spans"]
    assert spans["inner"]["calls"] == 2
    assert spans["inner"]["self_s"] >= 0.04
    assert spans["outer"]["self_s"] >= 0.01
    total = spans["inner"]["self_s"] + spans["outer"]["self_s"]
    assert total == pytest.approx(tracer.summary()["root_s"])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(cases.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == cases.WHY
    assert [m["name"] for m in SPEC["end_to_end"]] == list(bench.BOUNDED)
    for metric in SPEC["end_to_end"]:
        assert metric["unit"] == bench.END_TO_END[metric["name"]]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.layer_units()


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(tmp_path, trace):
    proc = _run(["--workload", "all", "--smoke", "--seconds", "0",
                 "--trace", str(trace), "--workdir", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= len(cases.WORKLOADS)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for workload in cases.WORKLOADS:
        for metric in wanted:
            entry = result["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
    if not trace:
        lines = proc.stdout.splitlines()
        for name, unit in bench.END_TO_END.items():
            printed = [ln for ln in lines if ln.split()[:1] == [name]]
            assert len(printed) == len(cases.WORKLOADS), name
            assert all(ln.split()[2] == unit for ln in printed)
    report = json.loads(next((tmp_path / "results").glob("*.json")).read_text())
    assert len(report["run_dir_sha256"]) == 1
    assert report["machine"]["nproc"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "spectral", "--seed", "1", "--seconds",
                 "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
