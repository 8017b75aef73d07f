import hashlib
import pathlib

import math
import re
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wigprop import cli, oracle, spectral
from wigprop.cli import (_SECTION_KEYS, ConfigError, compare_runs, main,
                         parse_scenario_text, run_scenario)
from wigprop.phasespace import WignerField, load_field, make_grid, save_field

SCENARIO_ORACLE = """\
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
state = oracle
amplitudes = 1 1
n_max = 8

[run]
method = oracle
t0 = 0
t1 = 3
nsteps = 30
checkpoints = 0 3
slices = 0 0.6
"""


def spectral_scenario(nsteps=6, t1=0.6):
    return SCENARIO_ORACLE.replace("method = oracle", "method = spectral-full") \
        .replace("t1 = 3", f"t1 = {t1}").replace("nsteps = 30", f"nsteps = {nsteps}") \
        .replace("checkpoints = 0 3", f"checkpoints = 0 {t1}")


class TestScenarioParsing:
    def test_valid_scenario(self):
        sc = parse_scenario_text(SCENARIO_ORACLE)
        assert sc.method == "oracle"
        assert sc.grid.nx == 64
        assert sc.slices == [0.0, 0.6]

    def test_unknown_key_reports_line_number(self):
        text = SCENARIO_ORACLE.replace("nx = 64", "resolution = 64")
        with pytest.raises(ConfigError, match="line 4"):
            parse_scenario_text(text)

    def test_unknown_section_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_scenario_text("[solver]\nmethod = magic\n")

    def test_zero_steps_rejected(self):
        text = SCENARIO_ORACLE.replace("nsteps = 30", "nsteps = 0")
        with pytest.raises(ConfigError, match="nsteps"):
            parse_scenario_text(text)

    def test_bad_method(self):
        text = SCENARIO_ORACLE.replace("method = oracle", "method = verlet")
        with pytest.raises(ConfigError, match="method"):
            parse_scenario_text(text)

    def test_slice_outside_bounds(self):
        text = SCENARIO_ORACLE.replace("slices = 0 0.6", "slices = 0 9.0")
        with pytest.raises(ConfigError, match="slice"):
            parse_scenario_text(text)

    def test_checkpoint_off_step_boundary(self):
        text = spectral_scenario().replace("checkpoints = 0 0.6",
                                           "checkpoints = 0.17")
        with pytest.raises(ConfigError, match="checkpoint"):
            parse_scenario_text(text)

    def test_oracle_state_needs_gaussian_well(self):
        text = SCENARIO_ORACLE.replace("potential = gaussian_well depth=1.0 sigma=3.0",
                                       "potential = harmonic k=1.0")
        with pytest.raises(ConfigError, match="gaussian_well"):
            parse_scenario_text(text)

    def test_non_power_of_two_grid(self):
        text = SCENARIO_ORACLE.replace("nx = 64", "nx = 60")
        with pytest.raises(ConfigError, match="power of two"):
            parse_scenario_text(text)

    @pytest.mark.parametrize("old, new, line, message", [
        ("nx = 64", "nx 64", 4, "expected key = value, got 'nx 64'"),
        ("[grid]\n", "", 1, "entry before any [section] header"),
        ("np = 64", "np = 64\nnx = 64", 8, "duplicate key 'nx' in section [grid]"),
        ("state = oracle", "state = file", 13, "state = file needs a path"),
        ("state = oracle", "state = wavepacket", 13,
         "state must be 'oracle' or 'file <path>', got 'wavepacket'"),
    ], ids=["no-equals", "no-section", "duplicate", "file-without-path", "bad-state"])
    def test_malformed_entry_names_its_line(self, old, new, line, message):
        text = SCENARIO_ORACLE.replace(old, new, 1)
        with pytest.raises(ConfigError, match=f"^line {line}: {re.escape(message)}$"):
            parse_scenario_text(text)


class TestRunScenario:
    def test_oracle_run_outputs(self, tmp_path):
        sc = parse_scenario_text(SCENARIO_ORACLE)
        outdir = run_scenario(sc, tmp_path / "run")
        assert (outdir / "scenario.txt").read_text() == SCENARIO_ORACLE
        assert (outdir / "diagnostics.csv").exists()
        assert (outdir / "field_t0.000000.txt").exists()
        assert (outdir / "field_t3.000000.txt").exists()
        slice_files = sorted(outdir.glob("slice_t3.000000_p*.txt"))
        assert len(slice_files) == 2

    def test_slice_table_matches_field_column(self, tmp_path):
        sc = parse_scenario_text(SCENARIO_ORACLE)
        outdir = run_scenario(sc, tmp_path / "run")
        field = load_field(outdir / "field_t3.000000.txt")
        j = int(np.argmin(np.abs(field.grid.p_lattice - 0.6)))
        p_snap = field.grid.p_lattice[j]
        path = outdir / f"slice_t3.000000_p{p_snap:.6f}.txt"
        with open(path) as fh:
            header = fh.readline()
            data = np.loadtxt(fh)
        assert f"p={p_snap:.6g}" in header and "method=oracle" in header
        # emitted values are the field column verbatim, printed at 6
        # significant digits (half-ulp is 5e-6 relative at that precision)
        np.testing.assert_allclose(data[:, 1], field.values[:, j],
                                   rtol=5e-6, atol=1e-9)
        np.testing.assert_allclose(data[:, 0], field.grid.x_lattice,
                                   rtol=5e-6, atol=1e-9)

    def test_deterministic_byte_identical(self, tmp_path):
        text = spectral_scenario()
        sc = parse_scenario_text(text)
        a = run_scenario(sc, tmp_path / "a")
        b = run_scenario(sc, tmp_path / "b")
        for name in ("diagnostics.csv", "field_t0.600000.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_oracle_run_samples_each_checkpoint_once(self, tmp_path, monkeypatch):
        self.check_sampling_passes(tmp_path, monkeypatch, "3 0 1.5",
                                   [[0.0, 1.5, 3.0]])

    def test_oracle_run_splits_checkpoints_into_passes(self, tmp_path,
                                                       monkeypatch):
        # more checkpoints than one sampling pass takes
        self.check_sampling_passes(
            tmp_path, monkeypatch,
            " ".join(str(0.25 * k) for k in range(12, -1, -1)),
            [[0.25 * k for k in range(8)], [0.25 * k for k in range(8, 13)]])

    @staticmethod
    def check_sampling_passes(tmp_path, monkeypatch, checkpoints, passes):
        """An oracle run with ``checkpoints`` samples the times of each
        of ``passes`` in one call, and each snapshot is byte-equal to
        ``wigprop oracle field`` at its time."""
        from wigprop import oracle
        calls = []
        sample = oracle.sample_fields

        def counting(state, times, grid):
            calls.append(list(times))
            return sample(state, times, grid)

        monkeypatch.setattr(oracle, "sample_fields", counting)
        text = SCENARIO_ORACLE.replace("checkpoints = 0 3",
                                       f"checkpoints = {checkpoints}")
        outdir = run_scenario(parse_scenario_text(text), tmp_path / "run")
        assert calls == passes
        times = [t for call in calls for t in call]
        assert times == sorted(set(times))
        # a stepped run samples only its initial field
        calls.clear()
        run_scenario(parse_scenario_text(spectral_scenario()), tmp_path / "spec")
        assert calls == [[0.0]]

        # each snapshot is the oracle field at its time, byte for byte
        monkeypatch.undo()
        for t in times:
            out = tmp_path / f"oracle_{t}.txt"
            res = CliRunner().invoke(main, [
                "oracle", "field", "--t", str(t), "--nmax", "8",
                "--grid", "-8 8 64 -4 4 64", "-o", str(out)])
            assert res.exit_code == 0, res.output
            assert (outdir / f"field_t{t:.6f}.txt").read_bytes() == out.read_bytes()

    def test_file_initial_state(self, tmp_path):
        sc = parse_scenario_text(SCENARIO_ORACLE)
        base = run_scenario(sc, tmp_path / "base")
        text = spectral_scenario().replace(
            "state = oracle", f"state = file {base / 'field_t0.000000.txt'}")
        sc2 = parse_scenario_text(text)
        out = run_scenario(sc2, tmp_path / "from_file")
        assert (out / "field_t0.600000.txt").exists()

    def test_file_grid_mismatch_rejected(self, tmp_path):
        sc = parse_scenario_text(SCENARIO_ORACLE)
        base = run_scenario(sc, tmp_path / "base")
        text = spectral_scenario().replace(
            "state = oracle", f"state = file {base / 'field_t0.000000.txt'}") \
            .replace("nx = 64", "nx = 128")
        with pytest.raises(ConfigError, match="grid"):
            run_scenario(parse_scenario_text(text), tmp_path / "bad")
        assert not (tmp_path / "bad").exists()


class TestCompare:
    def test_self_comparison_is_zero(self, tmp_path):
        sc = parse_scenario_text(SCENARIO_ORACLE)
        run_scenario(sc, tmp_path / "a")
        text, ok = compare_runs(tmp_path / "a", tmp_path / "a", linf_tol=1e-12)
        assert ok
        assert "linf=0" in text

    def test_oracle_vs_spectral_gap(self, tmp_path):
        run_scenario(parse_scenario_text(SCENARIO_ORACLE.replace(
            "checkpoints = 0 3", "checkpoints = 3")), tmp_path / "ora")
        run_scenario(parse_scenario_text(SCENARIO_ORACLE.replace(
            "method = oracle", "method = spectral-full").replace(
            "checkpoints = 0 3", "checkpoints = 3")), tmp_path / "spec")
        text, ok = compare_runs(tmp_path / "ora", tmp_path / "spec",
                                linf_tol=0.05)
        assert ok
        assert "peak gap" in text and "verdict" in text

    @pytest.mark.parametrize("name, text", [
        ("field_t0.000000.txt", "not a field\n1 2\n"),
        ("field_t0.000000.txt", "# wignerfield 4 4 -8 8 -4 4 0\n1 2 x 4\n"),
        ("slice_t0.000000_p0.000000.txt", "# slice p=0 method=oracle\n0 1\n"),
        ("slice_t0.000000_p0.000000.txt", "# slice p=0 t=0 method=oracle\n0 x\n"),
        ("slice_t0.000000_p0.000000.txt", "# slice p=0 t=0 method=oracle\n0\n1\n"),
    ], ids=["field-header", "field-non-number", "slice-without-t",
            "slice-non-number", "slice-one-column"])
    def test_malformed_run_file_exits_2(self, tmp_path, name, text):
        # a run file that cannot be read is bad input naming the file,
        # not a traceback
        run_scenario(parse_scenario_text(SCENARIO_ORACLE), tmp_path / "a")
        (tmp_path / "a" / name).write_text(text)
        res = CliRunner().invoke(main, ["compare", str(tmp_path / "a"),
                                        str(tmp_path / "a")])
        assert res.exit_code == 2, res.output
        assert "config error" in res.output and name in res.output

    def test_runs_without_snapshots_or_shared_times_rejected(self, tmp_path):
        run_scenario(parse_scenario_text(SCENARIO_ORACLE.replace(
            "checkpoints = 0 3", "checkpoints = 0")), tmp_path / "a")
        run_scenario(parse_scenario_text(SCENARIO_ORACLE.replace(
            "checkpoints = 0 3", "checkpoints = 3")), tmp_path / "b")
        (tmp_path / "empty").mkdir()
        with pytest.raises(ConfigError, match="empty: no field snapshots found$"):
            compare_runs(tmp_path / "a", tmp_path / "empty")
        with pytest.raises(ConfigError, match="^runs share no checkpoint times$"):
            compare_runs(tmp_path / "a", tmp_path / "b")

    def test_mismatched_runs_rejected(self, tmp_path):
        run_scenario(parse_scenario_text(SCENARIO_ORACLE), tmp_path / "a")
        run_scenario(parse_scenario_text(
            SCENARIO_ORACLE.replace("nx = 64", "nx = 128")), tmp_path / "b")
        with pytest.raises(ConfigError):
            compare_runs(tmp_path / "a", tmp_path / "b")


class TestCommands:
    def test_run_and_compare_commands(self, tmp_path):
        runner = CliRunner()
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(SCENARIO_ORACLE)
        res = runner.invoke(main, ["run", str(scenario), "-o",
                                   str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["compare", str(tmp_path / "out"),
                                   str(tmp_path / "out")])
        assert res.exit_code == 0
        assert "l2=0" in res.output

    def test_config_error_exit_code(self, tmp_path):
        runner = CliRunner()
        scenario = tmp_path / "bad.txt"
        scenario.write_text(SCENARIO_ORACLE.replace("nsteps = 30", "nsteps = 0"))
        res = runner.invoke(main, ["run", str(scenario), "-o",
                                   str(tmp_path / "out")])
        assert res.exit_code == 2

    def test_missing_scenario_exit_code(self, tmp_path):
        runner = CliRunner()
        res = runner.invoke(main, ["run", str(tmp_path / "nope.txt"), "-o",
                                   str(tmp_path / "out")])
        assert res.exit_code == 2

    def test_undecodable_scenario_exits_2(self, tmp_path):
        # a read's UnicodeDecodeError is a ValueError, not an OSError
        scenario = tmp_path / "binary.txt"
        scenario.write_bytes(b"\xff\xfe[grid]\n")
        res = CliRunner().invoke(main, ["run", str(scenario), "-o",
                                        str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert "config error: cannot read scenario file: 'utf-8'" in res.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid", ["-8 8 64 -4 4", "-8 8 64 -4 4 64 64"])
    def test_grid_option_needs_six_numbers(self, tmp_path, grid):
        res = CliRunner().invoke(main, ["oracle", "field", "--grid", grid,
                                        "-o", str(tmp_path / "f.txt")])
        assert res.exit_code == 2, res.output
        assert "config error: grid must be 'x_min x_max nx p_min p_max np'" in res.output
        assert not (tmp_path / "f.txt").exists()

    def test_oracle_solve_prints_energies(self):
        runner = CliRunner()
        res = runner.invoke(main, ["oracle", "solve", "--sigma", "3"])
        assert res.exit_code == 0
        assert "E_0 = -0.843808" in res.output
        assert "E_1 = -0.312658" in res.output

    @pytest.mark.parametrize("command", [["solve"], ["field", "-o", "f.txt"]])
    @pytest.mark.parametrize("beta0sq", ["nan", "inf"])
    def test_oracle_non_finite_width_exits_2(self, tmp_path, monkeypatch,
                                             command, beta0sq):
        # bad input, not an eigensolver that fails to converge (exit 3)
        monkeypatch.chdir(tmp_path)
        res = CliRunner().invoke(main, ["oracle", *command, "--beta0sq", beta0sq])
        assert res.exit_code == 2, res.output
        assert "config error" in res.output and "beta0_sq" in res.output
        assert not (tmp_path / "f.txt").exists()

    @pytest.mark.parametrize("command", [["solve"], ["field", "-o", "f.txt"]])
    @pytest.mark.parametrize("beta0sq", ["1e154", "1e200", "1e308", "1e-320"])
    def test_oracle_width_out_of_range_exits_2(self, tmp_path, monkeypatch,
                                               command, beta0sq):
        # products of widths that overflow, or subnormal widths: bad input,
        # not energies from overflowed elements (exit 0) or an eigensolver
        # failure (exit 3)
        monkeypatch.chdir(tmp_path)
        res = CliRunner().invoke(main, ["oracle", *command, "--beta0sq", beta0sq])
        assert res.exit_code == 2, res.output
        assert "config error: beta0_sq must be" in res.output
        assert not (tmp_path / "f.txt").exists()

    def test_oracle_solve_conditioning_failure_exit_code(self):
        runner = CliRunner()
        res = runner.invoke(main, ["oracle", "solve", "--nmax", "20"])
        assert res.exit_code == 3
        assert "pivot" in res.output

    @pytest.mark.parametrize("command", [["solve"], ["field", "-o", "f.txt"]])
    def test_huge_nmax_exits_3_at_the_first_failing_pivot(self, command, tmp_path,
                                                         monkeypatch):
        # the basis of 10^12 Gaussians is never allocated
        monkeypatch.chdir(tmp_path)
        res = CliRunner().invoke(main, ["oracle", *command[:1], "--nmax",
                                        "1000000000000", *command[1:]])
        assert res.exit_code == 3, res.output
        assert "Cholesky pivot" in res.output and "at index 11" in res.output
        assert not (tmp_path / "f.txt").exists()

    def test_oracle_field_and_evolve(self, tmp_path, monkeypatch):
        runner = CliRunner()
        field_path = tmp_path / "f0.txt"
        res = runner.invoke(main, [
            "oracle", "field", "--t", "0", "--nmax", "8",
            "--grid", "-8 8 64 -4 4 64", "-o", str(field_path)])
        assert res.exit_code == 0, res.output
        # evolve reads its initial field once, for the grid and the run
        reads = []
        monkeypatch.setattr(cli, "load_field",
                            lambda path: reads.append(path) or load_field(path))
        res = runner.invoke(main, [
            "evolve", "--method", "lo", "--potential",
            "gaussian_well depth=1.0 sigma=3.0", "-i", str(field_path),
            "--t1", "0.5", "--steps", "5", "-o", str(tmp_path / "lo_run")])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "lo_run" / "field_t0.500000.txt").exists()
        assert reads == [str(field_path)]

    def test_transcribe_roundtrip(self, tmp_path):
        runner = CliRunner()
        field_path = tmp_path / "f0.txt"
        runner.invoke(main, ["oracle", "field", "--nmax", "8",
                             "--grid", "-8 8 64 -4 4 64", "-o", str(field_path)])
        ens_path = tmp_path / "ens.txt"
        res = runner.invoke(main, ["transcribe", "--to", "ensemble",
                                   "-i", str(field_path), "-o", str(ens_path)])
        assert res.exit_code == 0, res.output
        back_path = tmp_path / "back.txt"
        res = runner.invoke(main, [
            "transcribe", "--to", "field", "-i", str(ens_path),
            "--grid", "-8 8 64 -4 4 64", "--dfunc-m", "0",
            "-o", str(back_path)])
        assert res.exit_code == 0, res.output
        orig = load_field(field_path)
        back = load_field(back_path)
        peak = np.abs(orig.values).max()
        assert np.abs(back.values - orig.values).max() < 0.05 * peak

    def test_transcribe_roundtrip_default_kernel(self, tmp_path):
        # default --dfunc-m 3 and --dfunc-alpha auto: the order-3 kernel
        # reproduces the smooth field almost exactly
        runner = CliRunner()
        field_path = tmp_path / "f0.txt"
        runner.invoke(main, ["oracle", "field", "--nmax", "8",
                             "--grid", "-8 8 64 -4 4 64", "-o", str(field_path)])
        ens_path = tmp_path / "ens.txt"
        res = runner.invoke(main, ["transcribe", "--to", "ensemble",
                                   "-i", str(field_path), "-o", str(ens_path)])
        assert res.exit_code == 0, res.output
        back_path = tmp_path / "back.txt"
        res = runner.invoke(main, [
            "transcribe", "--to", "field", "-i", str(ens_path),
            "--grid", "-8 8 64 -4 4 64", "-o", str(back_path)])
        assert res.exit_code == 0, res.output
        orig = load_field(field_path)
        back = load_field(back_path)
        peak = np.abs(orig.values).max()
        assert np.abs(back.values - orig.values).max() < 1e-3 * peak

    def _transcribe_one_particle(self, tmp_path, *options):
        ens_path = tmp_path / "ens.txt"
        ens_path.write_text("# ensemble 1\n0.1 0.05 1 0.25 0.125\n")
        return CliRunner().invoke(main, [
            "transcribe", "--to", "field", "-i", str(ens_path),
            "--grid", "-8 8 64 -4 4 64", *options,
            "-o", str(tmp_path / "back.txt")])

    def test_transcribe_too_narrow_kernel_exits_3(self, tmp_path):
        res = self._transcribe_one_particle(tmp_path, "--dfunc-m", "1",
                                            "--dfunc-alpha", "200")
        assert res.exit_code == 3, res.output
        assert "too narrow" in res.output

    def test_transcribe_overflowing_kernel_exits_3_without_a_warning(self, tmp_path):
        # the kernel's Hermite terms overflow: the moment check reports it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = self._transcribe_one_particle(tmp_path, "--dfunc-alpha", "1e300")
        assert res.exit_code == 3, res.output
        assert "too narrow" in res.output
        assert [str(w.message) for w in caught] == []

    def test_transcribe_drops_particles_whose_node_overflows(self, tmp_path):
        # a particle so far out that its node does not fit an integer is out
        # of the grid's reach like one a million units out: it deposits
        # nothing, with no warning, and the others keep their bits
        def back(name, far_r, far_p):
            ens_path = tmp_path / f"{name}.txt"
            ens_path.write_text(
                "# ensemble 6\n0.1 0.05 1 0.078125 0.05\n"
                + "".join(f"{r} 0.3 -2 0.078125 0.05\n" for r in far_r)
                + f"0.2 {far_p} 3 0.078125 0.05\n"
                + "-1.3 -0.7 0.5 0.078125 0.05\n")
            out = tmp_path / f"{name}_back.txt"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                res = CliRunner().invoke(main, [
                    "transcribe", "--to", "field", "-i", str(ens_path),
                    "--grid", "-10 10 256 -6.4 6.4 256", "-o", str(out)])
            assert res.exit_code == 0, res.output
            assert [str(w.message) for w in caught] == []
            return out.read_bytes()

        assert (back("overflowing", ["5e18", "1e300", "-1e308"], "-1e300")
                == back("million", ["1e6", "1e6", "-1e6"], "-1e6"))

    @pytest.mark.parametrize("option, value", [
        ("--dfunc-m", "-1"), ("--dfunc-m", "86"),
        ("--dfunc-alpha", "0"), ("--dfunc-alpha", "-2"),
        ("--dfunc-alpha", "nan"), ("--dfunc-alpha", "inf"),
        ("--dfunc-alpha", "1e-300")])
    def test_transcribe_bad_kernel_option_exits_2(self, tmp_path, option, value):
        # a negative order or one whose sqrt((2M)!) overflows, a
        # non-positive or non-finite width, or a kernel reaching past the
        # grid (its stencil would span about 1e301 cells) is bad input
        # (exit 2 naming the option), not a traceback
        res = self._transcribe_one_particle(tmp_path, option, value)
        assert res.exit_code == 2, res.output
        assert "config error" in res.output and option in res.output
        assert not (tmp_path / "back.txt").exists()


class TestNonFinitePotentialParameters:
    """Non-finite potential parameters are configuration errors (exit 2),
    not an all-zero field (exit 0) or a traceback (exit 1)."""

    def _evolve(self, tmp_path, method, potential):
        runner = CliRunner()
        field_path = tmp_path / "f0.txt"
        runner.invoke(main, ["oracle", "field", "--nmax", "8",
                             "--grid", "-8 8 64 -4 4 64", "-o", str(field_path)])
        return runner.invoke(main, [
            "evolve", "--method", method, "--potential", potential,
            "-i", str(field_path), "--t1", "0.5", "--steps", "5",
            "-o", str(tmp_path / "run")])

    def test_nan_spring_constant_exits_2(self, tmp_path):
        res = self._evolve(tmp_path, "lo", "harmonic k=nan")
        assert res.exit_code == 2, res.output
        assert "'k'" in res.output and "finite" in res.output
        assert not (tmp_path / "run").exists()

    def test_infinite_slope_exits_2(self, tmp_path):
        res = self._evolve(tmp_path, "spectral-full", "linear g=inf")
        assert res.exit_code == 2, res.output
        assert "'g'" in res.output and "finite" in res.output

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_kick_exits_3(self, tmp_path):
        # finite parameters whose potential overflows: the spectral kick
        # turns the field into NaN, a numerical failure named by its step
        for method in ("spectral-full", "spectral-fo"):
            res = self._evolve(tmp_path, method, "harmonic k=1e308")
            assert res.exit_code == 3, res.output
            assert "numerical failure: step 1:" in res.output
            assert "finite" in res.output

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("method", ["lo", "nlo"])
    def test_overflowing_force_exits_3(self, tmp_path, method):
        # the force overflows to inf and sends backtracked points off to
        # infinity, where the spline would read silent zeros
        res = self._evolve(tmp_path, method, "harmonic k=1e308")
        assert res.exit_code == 3, res.output
        assert "numerical failure: step 1:" in res.output
        assert "finite" in res.output

    @pytest.mark.parametrize("method, sigma", [
        ("nlo", "1e60"), ("lo", "1e60"), ("spectral-full", "1e200"),
        ("nlo", "1e-200")])
    def test_sigma_with_overflowing_powers_exits_2(self, tmp_path, method, sigma):
        # sigma^6 (the third derivative) overflows, or sigma^2 underflows
        # to 0: bad input, not an OverflowError traceback or an exit 3
        res = self._evolve(tmp_path, method, f"gaussian_well sigma={sigma}")
        assert res.exit_code == 2, res.output
        assert "config error: sigma must be positive" in res.output
        assert not (tmp_path / "run").exists()

    def test_non_finite_third_derivative_exits_3(self, tmp_path):
        # sigma passes the power check, but x^3 / sigma^6 overflows where
        # the envelope underflows to 0: V''' is NaN on the lattice, which
        # nlo names instead of reporting a non-finite field
        res = self._evolve(tmp_path, "nlo", "gaussian_well sigma=1e-51")
        assert res.exit_code == 3, res.output
        assert "numerical failure: V''' of GaussianWell(" in res.output
        assert "sigma=1e-51" in res.output and "not finite" in res.output

    @pytest.mark.parametrize("command", ["solve", "field"])
    def test_oracle_sigma_with_overflowing_powers_exits_2(self, tmp_path, command):
        out = ["-o", str(tmp_path / "f.txt")] if command == "field" else []
        res = CliRunner().invoke(main, ["oracle", command, "--sigma", "1e200", *out])
        assert res.exit_code == 2, res.output
        assert "config error: sigma must be positive" in res.output
        assert not (tmp_path / "f.txt").exists()

    def test_scenario_error_names_the_line(self, tmp_path):
        text = SCENARIO_ORACLE.replace("depth=1.0", "depth=-inf")
        with pytest.raises(ConfigError, match="line 10: .*'depth'"):
            parse_scenario_text(text)
        scenario = tmp_path / "bad.txt"
        scenario.write_text(text)
        res = CliRunner().invoke(main, ["run", str(scenario), "-o",
                                        str(tmp_path / "out")])
        assert res.exit_code == 2
        assert "line 10" in res.output


@pytest.mark.parametrize("method", ["lo", "nlo"])
def test_far_backtrack_leaves_no_numpy_warning(tmp_path, monkeypatch, method):
    # mass 1e-300 sends the backtracked points to |x| ~ 1e300, where x^2
    # in the Gaussian well's force overflows on the way to a force of 0:
    # the run prints no numpy warning, and records the norm it loses; an
    # empty memo makes the run build its backtrack stencil
    monkeypatch.setattr(spectral, "_MEMO", {})
    text = _with(SCENARIO_ORACLE.replace("method = oracle", f"method = {method}"),
                 "mass", "1e-300")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_scenario(parse_scenario_text(text), tmp_path / "run")
    assert [str(w.message) for w in caught] == []
    assert "relative norm drift" in (tmp_path / "run" / "warnings.txt").read_text()


def _with(text, key, value):
    """text with ``key = value``: in place of the key's line, or else as
    the first line of the key's section."""
    lines = text.splitlines()
    keys = [line.split("=")[0].strip() for line in lines]
    if key in keys:
        lines[keys.index(key)] = f"{key} = {value}"
    else:
        section = next(name for name, names in _SECTION_KEYS.items() if key in names)
        lines.insert(lines.index(f"[{section}]") + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


class TestNloRealness:
    """The realness check of the nlo third derivative is relative to the
    field's size and, like every numerical failure of a step, names the
    step."""

    def test_large_contained_field_runs_nlo(self, tmp_path):
        # the realness bound of the third derivative scales with the
        # field: a contained field times 1e7 leaves a residue of about
        # 2e-7, far below 1e-10 times its size
        runner = CliRunner()
        runner.invoke(main, ["oracle", "field", "--nmax", "8", "--grid",
                             "-8 8 64 -4 4 64", "-o", str(tmp_path / "f.txt")])
        f = load_field(tmp_path / "f.txt")
        save_field(WignerField(grid=f.grid, values=1e7 * f.values),
                   tmp_path / "big.txt")
        res = runner.invoke(main, [
            "evolve", "--method", "nlo", "--potential",
            "gaussian_well depth=1.0 sigma=3.0", "-i", str(tmp_path / "big.txt"),
            "--t1", "0.5", "--steps", "5", "-o", str(tmp_path / "run")])
        assert res.exit_code == 0, res.output

    def test_uncontained_field_fails_nlo_naming_the_step(self, tmp_path):
        # white noise on a fine momentum lattice fills the whole s-band,
        # which a potential without third derivative leaves uncut: the
        # residue of its third derivative is about 1e-7 times its size
        grid = make_grid(-4, 4, 8, -1, 1, 512)
        noise = np.random.default_rng(0).standard_normal(grid.shape())
        save_field(WignerField(grid=grid, values=noise), tmp_path / "noise.txt")
        res = CliRunner().invoke(main, [
            "evolve", "--method", "nlo", "--potential", "harmonic k=1",
            "-i", str(tmp_path / "noise.txt"), "--t1", "0.5", "--steps", "5",
            "-o", str(tmp_path / "run")])
        assert res.exit_code == 3, res.output
        assert "numerical failure: step 1: imaginary residue" in res.output


class TestBadValuesExit2:
    """Out-of-range and non-finite values are configuration errors (exit 2)
    that name their scenario line, not a traceback (exit 1), a numerical
    failure (exit 3) or a silently wrong run (exit 0)."""

    @pytest.mark.parametrize("method, key, value", [
        ("spectral-full", "mass", "0"), ("spectral-full", "mass", "nan"),
        ("lo", "mass", "0"), ("lo", "mass", "nan"),
        # dt / mass overflows: no backtracked point or drift phase is finite
        ("lo", "mass", "1e-310"), ("nlo", "mass", "1e-310"),
        ("spectral-full", "mass", "1e-310"), ("spectral-fo", "mass", "1e-310"),
        ("spectral-full", "slices", "nan"),
        ("spectral-full", "checkpoints", "0 nan"),
        ("spectral-full", "t1", "inf"),
        ("spectral-full", "amplitudes", "0 0"),
        ("spectral-full", "amplitudes", "nan 1"),
        ("spectral-full", "n_max", "-1"),
        ("spectral-full", "n_max", "12"),
        ("spectral-full", "n_max", str(10**30)),
        ("spectral-full", "beta0_sq", "nan"),
        ("spectral-full", "beta0_sq", "1e200"),
        ("oracle", "beta0_sq", "1e-320"),
        ("spectral-full", "amplitudes", "1 " * 9),
        ("spectral-full", "amplitudes", "1e200 1e200"),
        ("spectral-full", "amplitudes", "1e-200 1e-200"),
        ("oracle", "amplitudes", "0 0"),
        ("lo", "potential", "gaussian_well depth=1.0 sigma=1e200"),
        ("oracle", "potential", "gaussian_well depth=1.0 sigma=1e-200"),
    ])
    def test_scenario_value(self, tmp_path, method, key, value):
        text = _with(SCENARIO_ORACLE.replace("method = oracle", f"method = {method}"),
                     key, value)
        line = next(i for i, raw in enumerate(text.splitlines(), start=1)
                    if raw.startswith(f"{key} ="))
        scenario = tmp_path / "bad.txt"
        scenario.write_text(text)
        res = CliRunner().invoke(main, ["run", str(scenario), "-o",
                                        str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert f"config error: line {line}: " in res.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("amplitudes", ["nan 1", "inf 1", "1e200 1e200",
                                            "1e-200 1e-200"])
    def test_oracle_field_amplitudes(self, tmp_path, amplitudes):
        # checked as a scenario's amplitudes are, without a numpy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = CliRunner().invoke(main, ["oracle", "field", "--amplitudes",
                                            amplitudes, "-o", str(tmp_path / "f.txt")])
        assert res.exit_code == 2, res.output
        assert "config error: amplitudes must be" in res.output
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "f.txt").exists()

    @pytest.mark.parametrize("options", [
        ("--method", "lo", "--mass", "-1"),
        ("--method", "spectral-full", "--t0", "nan"),
        ("--method", "lo", "--slices", "9"),
        ("--method", "spectral-full", "--checkpoints", "0 x"),
        ("--method", "nlo", "--mass", "1e-310"),
    ])
    def test_evolve_option(self, tmp_path, options):
        runner = CliRunner()
        field_path = tmp_path / "f0.txt"
        runner.invoke(main, ["oracle", "field", "--nmax", "8",
                             "--grid", "-8 8 64 -4 4 64", "-o", str(field_path)])
        res = runner.invoke(main, [
            "evolve", "--potential", "gaussian_well", "-i", str(field_path),
            "--t1", "0.5", "--steps", "5", *options, "-o", str(tmp_path / "run")])
        assert res.exit_code == 2, res.output
        assert "config error" in res.output
        assert not (tmp_path / "run").exists()


class TestUnresolvedOracleState:
    """An oracle state the lattice cannot resolve exits 2, naming its norm,
    2 pi hbar and beta0_sq, instead of writing a wrong field: basis widths
    of about 1e-150 sample as a ridge at x = 0, and a 16^2 lattice is too
    coarse for the default basis."""

    @pytest.mark.parametrize("method", ["oracle", "lo", "spectral-full"])
    def test_run(self, tmp_path, method):
        text = _with(SCENARIO_ORACLE.replace("method = oracle", f"method = {method}"),
                     "beta0_sq", "1e-300")
        line = text.splitlines().index("beta0_sq = 1e-300") + 1
        scenario = tmp_path / "narrow.txt"
        scenario.write_text(text)
        res = CliRunner().invoke(main, ["run", str(scenario), "-o",
                                        str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert f"config error: line {line}: " in res.output
        assert "has norm 4, not 2*pi*hbar = 6.28319" in res.output
        assert "beta0_sq" in res.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("options", [("--beta0sq", "1e-300"),
                                         ("--grid", "-8 8 16 -4 4 16")])
    def test_oracle_field(self, tmp_path, options):
        res = CliRunner().invoke(main, ["oracle", "field", *options,
                                        "-o", str(tmp_path / "f.txt")])
        assert res.exit_code == 2, res.output
        assert "2*pi*hbar = 6.28319" in res.output and "--beta0sq" in res.output
        assert not (tmp_path / "f.txt").exists()

    def test_resolved_states_run(self, tmp_path):
        # the default grid: relative gap 5.4e-4 for the default state
        res = CliRunner().invoke(main, ["oracle", "field", "-o",
                                        str(tmp_path / "f.txt")])
        assert res.exit_code == 0, res.output


#: A time range whose step (t1 - t0) / nsteps is not finite, or is zero.
BAD_TIME_RANGES = [("-1e308", "1e308"), ("0", "5e-324")]

#: Grid bounds that are finite but whose extent overflows.
OVERFLOWING_GRID = "-1e308 1e308 64 -4 4 64"


class TestBadTimeRangesAndGrids:
    """A step (t1 - t0) / nsteps that is not a finite positive double, or a
    grid whose spacings are not, is a configuration error (exit 2), not a
    traceback (exit 1) or a run that ends in a numerical failure (exit 3)."""

    @pytest.mark.parametrize("t0, t1", BAD_TIME_RANGES)
    def test_run_names_the_t1_line(self, tmp_path, t0, t1):
        text = _with(_with(spectral_scenario(), "t0", t0), "t1", t1)
        text = _with(text, "checkpoints", t1)
        line = text.splitlines().index(f"t1 = {t1}") + 1
        scenario = tmp_path / "bad.txt"
        scenario.write_text(text)
        res = CliRunner().invoke(main, ["run", str(scenario), "-o",
                                        str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert f"config error: line {line}: the step (t1 - t0) / nsteps" in res.output
        assert not (tmp_path / "out").exists()

    def test_run_rejects_overflowing_grid(self, tmp_path):
        text = _with(_with(spectral_scenario(), "x_min", "-1e308"), "x_max", "1e308")
        scenario = tmp_path / "bad.txt"
        scenario.write_text(text)
        res = CliRunner().invoke(main, ["run", str(scenario), "-o",
                                        str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert "config error: grid:" in res.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("t0, t1", BAD_TIME_RANGES)
    def test_evolve(self, tmp_path, t0, t1):
        runner = CliRunner()
        field_path = tmp_path / "f0.txt"
        runner.invoke(main, ["oracle", "field", "--nmax", "8",
                             "--grid", "-8 8 64 -4 4 64", "-o", str(field_path)])
        res = runner.invoke(main, [
            "evolve", "--method", "spectral-full", "--potential", "gaussian_well",
            "-i", str(field_path), "--t0", t0, "--t1", t1, "--steps", "5",
            "-o", str(tmp_path / "run")])
        assert res.exit_code == 2, res.output
        assert "config error: the step (t1 - t0) / nsteps" in res.output
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("time", ["nan", "inf"])
    def test_oracle_field_rejects_non_finite_time(self, tmp_path, time):
        res = CliRunner().invoke(main, ["oracle", "field", "--t", time, "--nmax",
                                        "8", "--grid", "-8 8 64 -4 4 64",
                                        "-o", str(tmp_path / "f.txt")])
        assert res.exit_code == 2, res.output
        assert "config error: --t must be finite" in res.output
        assert not (tmp_path / "f.txt").exists()

    def test_oracle_field_rejects_overflowing_grid(self, tmp_path):
        res = CliRunner().invoke(main, ["oracle", "field", "--grid", OVERFLOWING_GRID,
                                        "-o", str(tmp_path / "f.txt")])
        assert res.exit_code == 2, res.output
        assert "config error: x_max > x_min" in res.output
        assert not (tmp_path / "f.txt").exists()

    def test_oracle_field_rejects_a_lattice_too_big_for_one_array(self, tmp_path):
        # 2^62 x 4 values: numpy would refuse the array ("array is too
        # big"), so building the grid refuses it first; nothing is allocated
        res = CliRunner().invoke(main, ["oracle", "field", "--grid",
                                        "-8 8 4611686018427387904 -4 4 4",
                                        "-o", str(tmp_path / "f.txt")])
        assert res.exit_code == 2, res.output
        assert ("config error: a 4611686018427387904 x 4 lattice has more values "
                "than one float64 array can hold") in res.output
        assert not (tmp_path / "f.txt").exists()


class TestErrorBoundary:
    """The command group maps the errors of every command to its exit code
    and message; an in-process call with ``standalone_mode=False`` ends in
    ``SystemExit`` with that code too."""

    @pytest.mark.parametrize("args, code, message", [
        (["run", "missing.txt", "-o", "out"], 2, "config error: "),
        (["oracle", "solve", "--nmax", "20"], 3, "numerical failure: "),
        (["oracle", "field", "-o", "no/such/dir/f.txt"], 2, "cannot write output: "),
    ], ids=["config", "numerical", "write"])
    def test_in_process_call_exits_with_the_code(self, tmp_path, monkeypatch,
                                                  capsys, args, code, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(args, standalone_mode=False)
        assert info.value.code == code
        assert capsys.readouterr().err.startswith(message)


class TestUnwritableOutput:
    """An output path that cannot be written is bad input (exit 2) whose
    message names the path, not a traceback (exit 1)."""

    @staticmethod
    def check(res, path):
        assert res.exit_code == 2, res.output
        assert "cannot write output: " in res.output and str(path) in res.output

    def test_run_under_a_regular_file(self, tmp_path):
        (tmp_path / "file").write_text("")
        scenario = tmp_path / "s.txt"
        scenario.write_text(SCENARIO_ORACLE)
        out = tmp_path / "file" / "sub"
        self.check(CliRunner().invoke(main, ["run", str(scenario), "-o", str(out)]),
                   out)

    def test_snapshot_name_too_long(self, tmp_path):
        # t1 = 1e300 is a valid time, but its snapshot name has 300 digits
        scenario = tmp_path / "s.txt"
        scenario.write_text(_with(_with(SCENARIO_ORACLE, "t1", "1e300"),
                                  "checkpoints", "0 1e300"))
        res = CliRunner().invoke(main, ["run", str(scenario), "-o",
                                        str(tmp_path / "out")])
        self.check(res, tmp_path / "out" / "field_t1000000")

    @pytest.mark.parametrize("command", ["oracle field", "transcribe", "compare"])
    def test_into_a_missing_directory(self, tmp_path, command):
        runner = CliRunner()
        field_path = tmp_path / "f0.txt"
        runner.invoke(main, ["oracle", "field", "--nmax", "8",
                             "--grid", "-8 8 64 -4 4 64", "-o", str(field_path)])
        scenario = tmp_path / "s.txt"
        scenario.write_text(SCENARIO_ORACLE)
        runner.invoke(main, ["run", str(scenario), "-o", str(tmp_path / "run")])
        out = tmp_path / "missing" / "out.txt"
        args = {
            "oracle field": ["oracle", "field", "--nmax", "8", "--grid",
                             "-8 8 64 -4 4 64"],
            "transcribe": ["transcribe", "--to", "ensemble", "-i", str(field_path)],
            "compare": ["compare", str(tmp_path / "run"), str(tmp_path / "run")],
        }[command]
        self.check(runner.invoke(main, [*args, "-o", str(out)]), out)


# ---------------------------------------------------------------------------
# the scenario parser over generated input
# ---------------------------------------------------------------------------

#: The valid value of every scenario key.
VALID_VALUES = {
    "x_min": "-8", "x_max": "8", "nx": "64", "p_min": "-4", "p_max": "4",
    "np": "64", "potential": "gaussian_well depth=1.0 sigma=3.0",
    "state": "oracle", "amplitudes": "1 1", "beta0_sq": "1.0", "n_max": "8",
    "method": "spectral-full", "t0": "0", "t1": "0.6", "nsteps": "6",
    "checkpoints": "0 0.6", "slices": "0 0.6", "mass": "1.0",
}

#: Values at and beyond the edges of what a double or a count can hold,
#: and tokens that are not numbers at all.
NASTY_VALUES = st.one_of(
    st.sampled_from([
        "1e308", "-1e308", "5e-324", "-5e-324", "2.2250738585072014e-308",
        "nan", "-nan", "inf", "-inf", "1e999", "0", "-0.0", "1", "-1", "4",
        str(10**400), str(-10**400), str(2**1100), str(2**64), "9" * 5000,
        "x", "", "1e", "0x10", "1,", ",", "=", "1 nan", "1 1e308 -1e308",
        "oracle", "file", "file missing.txt", "lo", "nlo",
        "gaussian_well sigma=5e-324", "gaussian_well depth=1e308",
        "harmonic k=-1", "linear g=nan", "constant c", "gaussian_well sigma=0",
    ]),
    st.floats().map(repr),
    st.integers(min_value=-2**1100, max_value=2**1100).map(str),
    st.text(max_size=12),
)


def _scenario_text(values: dict) -> str:
    lines = []
    for section, keys in _SECTION_KEYS.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {values[key]}" for key in sorted(keys) if key in values]
    return "\n".join(lines) + "\n"


@st.composite
def scenario_texts(draw):
    values = dict(VALID_VALUES)
    for key in sorted(values):
        choice = draw(st.sampled_from(["keep", "keep", "nasty", "drop"]))
        if choice == "nasty":
            values[key] = draw(NASTY_VALUES)
        elif choice == "drop":
            del values[key]
    return _scenario_text(values)


@settings(max_examples=400, deadline=None, database=None)
@given(scenario_texts())
@example(_scenario_text({**VALID_VALUES, "t0": "-1e308", "t1": "1e308"}))
@example(_scenario_text({**VALID_VALUES, "t0": "0", "t1": "5e-324",
                         "checkpoints": "5e-324"}))
@example(_scenario_text({**VALID_VALUES, "x_min": "-1e308", "x_max": "1e308"}))
@example(_scenario_text({**VALID_VALUES, "nsteps": str(10**400)}))
@example(_scenario_text({**VALID_VALUES, "nx": str(2**1100)}))
@example(_scenario_text({**VALID_VALUES, "n_max": str(10**30)}))
def test_parser_raises_only_config_errors(text):
    """Any scenario text either parses to a runnable scenario (finite
    positive spacings and step) or raises ConfigError; nothing else."""
    try:
        sc = parse_scenario_text(text)
    except ConfigError:
        return
    for g in sc.grid.axes:
        assert 0 < g.dx < math.inf and 0 < g.dp < math.inf and math.isfinite(g.ds)
    assert sys.float_info.min <= (sc.t1 - sc.t0) / sc.nsteps < math.inf
    assert 0 < sc.mass < math.inf
    assert sc.initial_kind != "oracle" or 2 <= sc.n_max <= oracle.N_MAX_SOLVABLE


class TestShippedScenarios:
    """The scenario files in scenarios/ must run and reproduce the
    benchmark slice extrema."""

    def test_benchmark_pair(self, tmp_path):
        import pathlib
        root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
        run_scenario(parse_scenario_text(
            (root / "gaussian_well_oracle.txt").read_text()), tmp_path / "ora")
        run_scenario(parse_scenario_text(
            (root / "gaussian_well_spectral.txt").read_text()), tmp_path / "spec")

        def slice_extrema(rundir):
            with open(rundir / "slice_t3.000000_p0.600000.txt") as fh:
                fh.readline()
                data = np.loadtxt(fh)
            imax, imin = np.argmax(data[:, 1]), np.argmin(data[:, 1])
            return data[imax], data[imin]

        (ox, omax), (onx, omin) = slice_extrema(tmp_path / "ora")
        (sx, smax), (snx, smin) = slice_extrema(tmp_path / "spec")
        assert omax == pytest.approx(0.9313, abs=0.003)
        assert ox == pytest.approx(1.692, abs=0.08)
        assert omin == pytest.approx(-0.3888, abs=0.003)
        assert smax == pytest.approx(0.9206, abs=0.005)
        assert sx == ox and snx == onx
        text, ok = compare_runs(tmp_path / "ora", tmp_path / "spec",
                                linf_tol=0.05)
        assert ok and "peak gap" in text


def tree_sha256(root):
    """Digest of every file under ``root``: relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class TestShippedRunBytes:
    """Run directories of the shipped well scenario, byte for byte.

    The digests were recorded with numpy 2.4.6 and scipy 1.17.1; other
    versions may round some transcendental or FFT results differently.
    The ``lo`` and ``nlo`` bytes depend on numpy only: their bicubic
    backtrack reproduces scipy.ndimage's arithmetic without calling it.
    """

    DIGESTS = {
        "gaussian_well_oracle.txt":
            "e1722eba0340264ee62e72656b5856973fa17810f59ca3c4f1114729ebb76c24",
        "gaussian_well_spectral.txt":
            "14bd347c396110d9cc804aeb34ec3c540ae7065d775cd9598f31bda977b9aa58",
        "lo": "0d4b34956c4254fcc87f3e065a6e97477deb225c0b1f906f5867692d8e151907",
        "nlo": "a1d2395d22d918c41deb61d337c607744e12568457f3aa5459238c2a28841e80",
        "spectral-fo":
            "1483db74203da52ff2434f8e5681696fc03047d3c501df3293edac3edd3f5a39",
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_run_directory_sha256(self, tmp_path, case):
        root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
        if case.endswith(".txt"):
            text = (root / case).read_text()
        else:
            text = (root / "gaussian_well_spectral.txt").read_text().replace(
                "method = spectral-full", f"method = {case}")
        outdir = run_scenario(parse_scenario_text(text), tmp_path / "run")
        assert tree_sha256(outdir) == self.DIGESTS[case]


class TestShippedTranscriptionBytes:
    """The shipped oracle scenario's last snapshot transcribed to an
    ensemble, and that ensemble deposited back with ``--dfunc-m 0``, byte
    for byte.

    The digests were recorded with numpy 2.4.6 and scipy 1.17.1; other
    versions may round some transcendental or FFT results differently.
    """

    DIGESTS = {
        "ensemble":
            "92d9784c164dca78e8e3e3b2db5075785dd6c894187fc15fd66eed3b89fe5625",
        "field":
            "1a5005185be7fe74d64e7bf4523d16992562132699fc802a51e3a13bb51e56f5",
    }

    def test_transcription_sha256(self, tmp_path):
        root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
        outdir = run_scenario(parse_scenario_text(
            (root / "gaussian_well_oracle.txt").read_text()), tmp_path / "run")
        files = {"ensemble": tmp_path / "ens.txt", "field": tmp_path / "back.txt"}
        runner = CliRunner()
        res = runner.invoke(main, [
            "transcribe", "--to", "ensemble", "-i",
            str(outdir / "field_t3.000000.txt"), "-o", str(files["ensemble"])])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, [
            "transcribe", "--to", "field", "-i", str(files["ensemble"]),
            "--dfunc-m", "0", "--grid", "-10 10 256 -6.4 6.4 256",
            "-o", str(files["field"])])
        assert res.exit_code == 0, res.output
        assert {name: hashlib.sha256(path.read_bytes()).hexdigest()
                for name, path in files.items()} == self.DIGESTS


class TestAllMethodsRun:
    @pytest.mark.parametrize("method", ["spectral-full", "spectral-fo", "lo",
                                        "nlo"])
    def test_each_propagator_through_runner(self, tmp_path, method):
        text = SCENARIO_ORACLE.replace("method = oracle", f"method = {method}") \
            .replace("t1 = 3", "t1 = 0.5").replace("nsteps = 30", "nsteps = 5") \
            .replace("checkpoints = 0 3", "checkpoints = 0.5")
        outdir = run_scenario(parse_scenario_text(text), tmp_path / method)
        field = load_field(outdir / "field_t0.500000.txt")
        assert np.isfinite(field.values).all()
        assert np.abs(field.values).max() > 0.1


class TestRunEqualsLibrary:
    @pytest.mark.parametrize("method", ["spectral-fo", "lo", "nlo"])
    def test_diagnostics_and_final_field(self, tmp_path, method):
        # wigprop run steps through the library's one driver: same rows
        # (as the CSV rounds them) and the same final field, bit for bit
        from wigprop import pseudoparticle, spectral
        from wigprop.cli import _fmt, _initial_state
        from wigprop.phasespace import evolve
        text = SCENARIO_ORACLE.replace("method = oracle", f"method = {method}") \
            .replace("t1 = 3", "t1 = 0.5").replace("nsteps = 30", "nsteps = 5") \
            .replace("checkpoints = 0 3", "checkpoints = 0.5")
        sc = parse_scenario_text(text)
        outdir = run_scenario(sc, tmp_path / method)
        f0 = _initial_state(sc)
        if method == "spectral-fo":
            cfg = spectral.SpectralStepConfig(dt=0.1)
            step = lambda f: spectral.step_first_order(f, sc.potential, cfg)
        else:
            step = pseudoparticle.stepper(sc.grid, sc.potential, 0.1,
                                          order=0 if method == "lo" else 1)
        res = evolve(step, f0, 5)
        rows = (outdir / "diagnostics.csv").read_text().splitlines()[2:]
        assert rows == [",".join([str(d.step)] + [_fmt(v) for v in (
            d.time, d.norm, d.min, d.max)]) for d in res.diagnostics]
        final = load_field(outdir / "field_t0.500000.txt")
        assert final.time == res.field.time
        assert final.values.tobytes() == res.field.values.tobytes()
