import numpy as np
import pytest
from click.testing import CliRunner

from wigprop.cli import (ConfigError, compare_runs, main, parse_scenario_text,
                         run_scenario)
from wigprop.phasespace import load_field

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
        from wigprop import oracle
        times = []
        sample = oracle.sample_field

        def counting(state, t, grid):
            times.append(t)
            return sample(state, t, grid)

        monkeypatch.setattr(oracle, "sample_field", counting)
        text = SCENARIO_ORACLE.replace("checkpoints = 0 3", "checkpoints = 3 0 1.5")
        outdir = run_scenario(parse_scenario_text(text), tmp_path / "run")
        assert times == [0.0, 1.5, 3.0]
        # a stepped run samples only its initial field
        times.clear()
        run_scenario(parse_scenario_text(spectral_scenario()), tmp_path / "spec")
        assert times == [0.0]

        # each snapshot is the oracle field at its time, byte for byte
        monkeypatch.undo()
        for t in (0.0, 1.5, 3.0):
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

    def test_oracle_solve_prints_energies(self):
        runner = CliRunner()
        res = runner.invoke(main, ["oracle", "solve", "--sigma", "3"])
        assert res.exit_code == 0
        assert "E_0 = -0.843808" in res.output
        assert "E_1 = -0.312658" in res.output

    def test_oracle_solve_conditioning_failure_exit_code(self):
        runner = CliRunner()
        res = runner.invoke(main, ["oracle", "solve", "--nmax", "20"])
        assert res.exit_code == 3
        assert "pivot" in res.output

    def test_oracle_field_and_evolve(self, tmp_path):
        runner = CliRunner()
        field_path = tmp_path / "f0.txt"
        res = runner.invoke(main, [
            "oracle", "field", "--t", "0", "--nmax", "8",
            "--grid", "-8 8 64 -4 4 64", "-o", str(field_path)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, [
            "evolve", "--method", "lo", "--potential",
            "gaussian_well depth=1.0 sigma=3.0", "-i", str(field_path),
            "--t1", "0.5", "--steps", "5", "-o", str(tmp_path / "lo_run")])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "lo_run" / "field_t0.500000.txt").exists()

    def test_evolve_dt_option(self, tmp_path):
        runner = CliRunner()
        field_path = tmp_path / "f0.txt"
        runner.invoke(main, ["oracle", "field", "--nmax", "8",
                             "--grid", "-8 8 64 -4 4 64", "-o", str(field_path)])
        res = runner.invoke(main, [
            "evolve", "--method", "spectral-full", "--potential",
            "gaussian_well", "-i", str(field_path), "--t1", "0.4",
            "--steps", "1", "--dt", "0.1", "-o", str(tmp_path / "run")])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, [
            "evolve", "--method", "spectral-full", "--potential",
            "gaussian_well", "-i", str(field_path), "--t1", "0.45",
            "--steps", "1", "--dt", "0.1", "-o", str(tmp_path / "run2")])
        assert res.exit_code == 2

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

    @pytest.mark.parametrize("option, value", [
        ("--dfunc-m", "-1"), ("--dfunc-alpha", "0"), ("--dfunc-alpha", "-2"),
        ("--dfunc-alpha", "nan"), ("--dfunc-alpha", "inf")])
    def test_transcribe_bad_kernel_option_exits_2(self, tmp_path, option, value):
        # a negative order or a non-positive or non-finite width is bad
        # input (exit 2 naming the option), not a traceback
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
