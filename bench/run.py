"""Benchmark of wigprop, driven from outside the program.

    python3 bench/run.py --workload spectral --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seconds 55        # every workload
    python3 bench/run.py --workload all --smoke --seconds 0 # tiny lattices

Closed loop, one client: each iteration starts the workload's commands as
fresh child processes one after another (``bench/child.py`` running the
click entry point with ``src`` on the path), waits for each to exit,
checks the outputs against the Gaussian-well oracle, and only then starts
the next iteration.  Iterations repeat until ``--seconds`` is used up.

``--trace 0`` reports the end-to-end metrics from untraced processes.
``--trace 1`` runs the same commands inside one process through
``wigprop.cli.main``, alternately without and with span wrappers, and
reports the per-layer metrics of the traced runs and the overhead the
wrappers add.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; everything else
(all seven end-to-end metrics, per-run samples, run-directory digests,
machine facts) goes to the lines before it and to a results file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

#: Every run, set-up included, must end well inside this many seconds.
HARD_LIMIT_S = 170.0
#: The traced run must attribute at least this share of its wall time.
MIN_COVERAGE = 0.95

END_TO_END = {
    "run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "linf_oracle": "dimensionless", "norm_drift": "ratio", "fail_frac": "ratio",
}

#: The end-to-end metrics of the result line (and of BENCHMARK.json).
#: norm_drift is roundoff on the spectral workloads and fail_frac is 0 on
#: a healthy program, so neither can carry a relative bound; they are
#: printed above the result line, and failures reach it as ``failed``.
BOUNDED = ("run_s", "setup_s", "cpu_s", "peak_rss_mb", "linf_oracle")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


THREAD_ENV = {var: str(_nproc()) for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    from tracer import COUNTERS, LATENCY_SPANS, SPAN_NAMES

    units = {}
    for span in SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        units[f"{span}.errors"] = "count"
    for span in LATENCY_SPANS:
        units[f"{span}.p50_ms"] = "ms"
        units[f"{span}.p90_ms"] = "ms"
    for name in COUNTERS:
        units[name] = ("flop" if name.endswith("flop_computed") else
                       "B" if name.endswith("bytes_computed") else "count")
    units["trace.coverage"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {"nproc": _nproc(), "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__,
             "platform": platform.platform(), "thread_env": THREAD_ENV}
    try:
        facts["click"] = metadata.version("click")
    except metadata.PackageNotFoundError:
        facts["click"] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    facts["caches_per_cpu0"] = caches
    return facts


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Runner:
    """Starts child processes, one at a time, under a hard deadline."""

    def __init__(self, deadline: float, log_dir: Path):
        self.deadline = deadline
        self.log_dir = log_dir
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
        self.n = 0

    def spawn(self, spec: dict) -> dict:
        """Run one child to completion; returns its exit code, wall
        interval and resource usage."""
        self.n += 1
        log = self.log_dir / f"child-{self.n:03d}.log"
        spec = dict(spec, src=str(SRC))
        with open(log, "wb") as fh:
            start = _now()
            proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(spec)],
                                    stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timeout = max(self.deadline - _now(), 1.0)
            finished, _, _ = select.select([pidfd], [], [], timeout)
            if not finished:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        end = _now()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return {"code": code if finished else "timeout", "start": start,
                "end": end, "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "log": log}


def _tail(log: Path, lines: int = 5) -> str:
    try:
        return " | ".join(log.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

class Measurement:
    def __init__(self, case, seconds: float, trace: bool, smoke: bool,
                 workdir: Path, seed: int):
        import cases

        self.cases = cases
        self.case = case
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.dir = workdir / f"{case.workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "logs").mkdir(parents=True)
        self.scenarios = [self.dir / f"{part.name}.txt" for part in case.parts]
        for part, path in zip(case.parts, self.scenarios):
            if part.scenario is not None:
                path.write_text(part.scenario)
        self.oracles = [cases.Oracle(part) for part in case.parts]
        for part, oracle in zip(case.parts, self.oracles):
            for check in part.checks:
                oracle.field(check.t)
        self.runner = Runner(_now() + HARD_LIMIT_S, self.dir / "logs")
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self._verdicts: dict[str, object] = {}

    # -- helpers -----------------------------------------------------------

    def _iter_dir(self) -> Path:
        path = self.dir / "it"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir()
        return path

    def _commands(self, iter_dir: Path) -> list[dict]:
        """Every part's commands, in order, writing under ``iter_dir``."""
        return [command for part, scenario in zip(self.case.parts, self.scenarios)
                for command in part.command_list(scenario, iter_dir / part.name)]

    def _verify(self, iter_dir: Path, codes: list):
        """Check each part.  The workload's linf_oracle is the geometric
        mean of the parts' gaps: their scales differ tenfold, and a given
        relative change in either part moves the mean by the same share."""
        verdicts, pos = [], 0
        for part, oracle in zip(self.case.parts, self.oracles):
            part_codes = codes[pos:pos + len(part.commands)]
            pos += len(part.commands)
            verdicts.append(self.cases.verify(
                part, iter_dir / part.name,
                [c if isinstance(c, int) else -1 for c in part_codes], oracle))
        gaps = {part.name: v.linf_oracle
                for part, v in zip(self.case.parts, verdicts)}
        drifts = [v.norm_drift for v in verdicts]
        return self.cases.Verdict(
            ok=all(v.ok for v in verdicts),
            reasons=[f"{part.name}: {r}" for part, v in zip(self.case.parts, verdicts)
                     for r in v.reasons],
            linf_oracle=(None if None in gaps.values() else
                         math.prod(gaps.values()) ** (1.0 / len(gaps))),
            norm_drift=None if None in drifts else max(drifts),
            gaps=gaps)

    def _judge(self, iter_dir: Path, codes: list, logs: list[Path]):
        """Check one iteration's outputs; identical bytes reuse the
        verdict of the first iteration that produced them."""
        self.attempted += 1
        digest = self.cases.tree_sha256(iter_dir)
        self.digests.append(digest)
        verdict = self._verdicts.get(digest) if not any(codes) else None
        if verdict is None:
            verdict = self._verify(iter_dir, codes)
            self._verdicts[digest] = verdict
        reasons = list(verdict.reasons)
        if digest != self.digests[0]:
            reasons.append("run directory bytes differ from the first run")
        if reasons:
            tails = "; ".join(_tail(log) for log, c in zip(logs, codes) if c)
            self.failures.append("; ".join(reasons) + (f" [{tails}]" if tails else ""))
        shutil.rmtree(iter_dir, ignore_errors=True)
        return verdict, not reasons

    def setup_probe(self) -> float | None:
        """Start the first command, stop once the initial field exists."""
        stamp = self.dir / "ready"
        stamp.unlink(missing_ok=True)
        iter_dir = self._iter_dir()
        command = self._commands(iter_dir)[0]
        res = self.runner.spawn({"commands": [command], "ready": str(stamp),
                                 "setup_only": True})
        shutil.rmtree(iter_dir, ignore_errors=True)
        if res["code"] != 0 or not stamp.is_file():
            self.attempted += 1
            self.failures.append(f"set-up probe exited {res['code']}: "
                                 f"{_tail(res['log'])}")
            return None
        return float(stamp.read_text()) - res["start"]

    def untraced_iteration(self) -> dict:
        stamp = self.dir / "ready"
        stamp.unlink(missing_ok=True)
        iter_dir = self._iter_dir()
        results = []
        commands = self._commands(iter_dir)
        for i, command in enumerate(commands):
            spec = {"commands": [command]}
            if i == 0:
                spec["ready"] = str(stamp)
            results.append(self.runner.spawn(spec))
            if results[-1]["code"] != 0:
                break
        codes = [r["code"] for r in results]
        codes += [-1] * (len(commands) - len(codes))
        sample = {"run_s": results[-1]["end"] - results[0]["start"],
                  "cpu_s": sum(r["cpu_s"] for r in results),
                  "peak_rss_mb": max(r["rss_mb"] for r in results),
                  "setup_s": (float(stamp.read_text()) - results[0]["start"]
                              if stamp.is_file() else None)}
        verdict, ok = self._judge(iter_dir, codes, [r["log"] for r in results])
        sample.update(ok=ok, linf_oracle=verdict.linf_oracle,
                      norm_drift=verdict.norm_drift, linf_by_part=verdict.gaps)
        return sample

    def in_process_iteration(self, spans: bool) -> dict:
        iter_dir = self._iter_dir()
        out = self.dir / "trace.json"
        out.unlink(missing_ok=True)
        commands = self._commands(iter_dir)
        res = self.runner.spawn({"commands": commands, "trace": str(out),
                                 "spans": spans})
        try:
            summary = json.loads(out.read_text())
        except (OSError, ValueError):
            summary = {"exit_codes": [res["code"]] * len(commands)}
        codes = summary["exit_codes"]
        if res["code"] != 0 and not any(codes):
            codes = [res["code"]] * len(codes)
        verdict, ok = self._judge(iter_dir, codes, [res["log"]] * len(codes))
        summary.update(ok=ok, linf_oracle=verdict.linf_oracle,
                       norm_drift=verdict.norm_drift)
        return summary

    # -- the measured loop ---------------------------------------------------

    def run(self) -> dict:
        setups: list[float] = []
        samples: list[dict] = []
        probing = not self.trace and not self.smoke

        def probe() -> float:
            # set-up-only processes are cheap samples of setup_s
            t = _now()
            value = self.setup_probe()
            if value is not None:
                setups.append(value)
            return _now() - t

        if not self.smoke:
            self.setup_probe()                      # warm-up, not counted
            self.attempted, self.failures = 0, []
        start = _now()
        deadline = start + self.seconds
        last = probe_s = 0.0
        while not samples or _now() + last <= deadline:
            if _now() + 5.0 > self.runner.deadline:
                break
            t = _now()
            if self.trace:
                samples.append({"plain": self.in_process_iteration(False),
                                "traced": self.in_process_iteration(True)})
            else:
                samples.append(self.untraced_iteration())
            if probing:
                probe_s = probe()       # spreads set-up samples over the run
            last = _now() - t
        while probing and _now() + probe_s <= deadline:
            probe_s = probe()           # fills the rest of the window
        elapsed = _now() - start
        report = {"workload": self.case.workload, "trace": int(self.trace),
                  "seconds_measured": elapsed, "iterations": len(samples),
                  "amplitudes": {part.name: part.amplitudes
                                 for part in self.case.parts},
                  "run_dir_sha256": sorted(set(self.digests)),
                  "failures": self.failures}
        if self.trace:
            report.update(self._layer_metrics(samples))
        else:
            for sample in samples:
                if sample["setup_s"] is not None:
                    setups.append(sample["setup_s"])
            report.update(self._end_to_end(samples, setups))
        # every part solves the same well; one check covers them all
        problem = self.oracles[0].problem
        outputs_ok = report.pop("_ok") and problem is None
        report["oracle_problem"] = problem
        failed = len(self.failures)
        correct = failed == 0 and outputs_ok
        report.update(correct=correct, attempted=self.attempted, failed=failed)
        return report

    def _end_to_end(self, samples: list[dict], setups: list[float]) -> dict:
        good = [s for s in samples if s["ok"]] or samples
        series = {key: [s[key] for s in good if s[key] is not None]
                  for key in ("run_s", "cpu_s", "peak_rss_mb", "linf_oracle",
                              "norm_drift")}
        series["setup_s"] = setups
        metrics = {key: statistics.median(series[key]) if series[key] else None
                   for key in ("run_s", "setup_s", "cpu_s", "peak_rss_mb")}
        # accuracy is deterministic per seed; report the worst iteration
        metrics["linf_oracle"] = max(series["linf_oracle"], default=None)
        metrics["norm_drift"] = max(series["norm_drift"], default=None)
        metrics["fail_frac"] = len(self.failures) / max(self.attempted, 1)
        return {"_ok": all(v is not None for v in metrics.values()),
                "end_to_end": {k: {"value": metrics[k], "unit": END_TO_END[k]}
                               for k in END_TO_END},
                "samples": series,
                "linf_by_part": [s["linf_by_part"] for s in good]}

    def _layer_metrics(self, samples: list[dict]) -> dict:
        from tracer import LATENCY_SPANS

        traced = [s["traced"] for s in samples if "spans" in s["traced"]]
        plain = [s["plain"]["wall_s"] for s in samples if "wall_s" in s["plain"]]
        units = layer_units()
        metrics = {name: None for name in units}
        coverage = []
        if traced:
            for span in traced[0]["spans"]:
                for field in ("calls", "self_s", "errors"):
                    key = f"{span}.{field}"
                    if key in metrics:
                        metrics[key] = statistics.median(
                            t["spans"][span][field] for t in traced)
            for span in LATENCY_SPANS:
                pooled = sorted(d for t in traced for d in t["durations"][span])
                for q, key in ((0.5, "p50_ms"), (0.9, "p90_ms")):
                    metrics[f"{span}.{key}"] = (
                        1e3 * pooled[min(int(q * len(pooled)), len(pooled) - 1)]
                        if pooled else 0.0)
            for name in traced[0]["counts"]:
                metrics[name] = statistics.median(t["counts"][name] for t in traced)
            coverage = [t["root_s"] / t["wall_s"] for t in traced]
            metrics["trace.coverage"] = min(coverage)
            if plain:
                traced_wall = statistics.median(t["wall_s"] for t in traced)
                plain_wall = statistics.median(plain)
                metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        if coverage and min(coverage) < MIN_COVERAGE:
            self.failures.append(f"span self times cover {min(coverage):.3f} "
                                 f"of the traced wall time")
        linf = [s["traced"].get("linf_oracle") for s in samples]
        return {"_ok": all(v is not None for v in metrics.values()),
                "per_layer": {k: {"value": metrics[k], "unit": units[k]}
                              for k in units},
                "linf_oracle": max((v for v in linf if v is not None), default=None),
                "missing_targets": traced[0]["missing"] if traced else None,
                "spans_recorded": [t["n_spans"] for t in traced],
                "in_process_wall_s": {"plain": plain,
                                      "traced": [t["wall_s"] for t in traced]}}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny lattices and no set-up probes")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".bench_run",
                        help="scratch and results directory")
    args = parser.parse_args(argv)

    if not (SRC / "wigprop" / "cli.py").is_file():
        print(f"error: no wigprop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cases

    names = cases.WORKLOADS if args.workload == "all" else (args.workload,)
    unknown = [n for n in names if n not in cases.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(cases.WORKLOADS)} or all", file=sys.stderr)
        return 2

    facts = machine_facts()
    reports = []
    for name in names:
        case = cases.make_case(name, args.seed, smoke=args.smoke)
        report = Measurement(case, args.seconds, bool(args.trace), args.smoke,
                             args.workdir, args.seed).run()
        report.update(seed=args.seed, smoke=args.smoke, machine=facts)
        reports.append(report)
        results = args.workdir / "results" / (
            f"{name}-seed{args.seed}-trace{args.trace}"
            f"{'-smoke' if args.smoke else ''}.json")
        results.parent.mkdir(parents=True, exist_ok=True)
        results.write_text(json.dumps(report, indent=1))
        _print_report(report, results)

    key = "per_layer" if args.trace else "end_to_end"
    if len(reports) == 1:
        metrics = {k: v for k, v in reports[0][key].items()
                   if args.trace or k in BOUNDED}
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports
                   for k, v in r[key].items()}
    print(json.dumps({"correct": all(r["correct"] for r in reports),
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0


def _print_report(report: dict, results: Path) -> None:
    name = report["workload"]
    print(f"== {name}  seed={report['seed']}  iterations={report['iterations']}"
          f"  measured={report['seconds_measured']:.1f}s"
          f"  correct={report['correct']}")
    for failure in report["failures"]:
        print(f"   FAILED: {failure}")
    if report["oracle_problem"]:
        print(f"   ORACLE: {report['oracle_problem']}")
    if "end_to_end" in report:
        for metric, entry in report["end_to_end"].items():
            values = report["samples"].get(metric)
            spread = (f"  (min {min(values):.4g}, max {max(values):.4g}, "
                      f"n={len(values)})" if values else "")
            print(f"   {metric:<13} {_fmt(entry['value'])} {entry['unit']}{spread}")
        for name, gap in report["linf_by_part"][0].items():
            print(f"     {name}: linf_oracle {_fmt(gap)} dimensionless")
    else:
        print(f"   linf_oracle {_fmt(report['linf_oracle'])} dimensionless")
        for metric, entry in report["per_layer"].items():
            print(f"   {metric:<45} {_fmt(entry['value'])} {entry['unit']}")
    print(f"   run directory sha256: {', '.join(report['run_dir_sha256'])}")
    print(f"   results: {results}")


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


if __name__ == "__main__":
    sys.exit(main())
