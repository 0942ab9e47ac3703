"""Time to a correct verdict for jordconf, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 40 --trace 0

Every job of a pass runs in a fresh interpreter (cold caches) that imports
jordconf from ``src``, builds the CLI's argument parser, and runs the job
through ``jordconf.cli.main``; set-up is timed apart from the job.  Every
verdict is checked against its known answer (see ``workloads.py``).  With
``--trace 0`` the benchmark runs at least two passes, and more until the
next one would overrun ``--seconds``, and prints the end-to-end metrics;
with ``--trace 1`` it runs one untraced pass and two traced passes and
prints the per-layer metrics (see ``tracer.py``).  The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The run's environment, verdicts and spans are also written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import JOB_SPAN, TARGETS, layer_of
from workloads import WORKLOADS, load_expected, verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".bench_out"
DEADLINE_S = 170          # every run ends well inside the 180 s limit
SETUP_SAMPLES = 4         # spawn-to-ready measurements before each pass
# A run that stopped after one slow pass would report that pass alone, so the
# slowest passes would weigh the most.
MIN_PASSES = 2

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "job_p50_s": "s",
    "job_p80_s": "s",
    "peak_rss_mb": "MB",
    "correct_ratio": "ratio",
    "checks_passed": "count",
}

LAYERS = sorted({layer_of(name) for name, *_ in TARGETS})
PER_LAYER = (
    "poly.mul_calls", "poly.add_calls", "poly.mul_s",
    "uea.mul_calls", "uea.algebra_builds", "uea.diamond_s", "uea.centrality_s",
    "uea.casimir_s",
    "hopf.homomorphism_s", "hopf.coassociativity_s", "hopf.antipode_s",
    "hopf.bialgebra_s", "hopf.universal_r_s", "hopf.extend_calls",
    "matrixrep.rmatrix_s", "matrixrep.matmul_calls",
    "ore.realization_s", "ore.symmetry_s", "ore.casimir_operator_s", "ore.transport_s",
    "ore.apply_s", "ore.mul_calls",
    "twist.report_s",
    "structure.subalgebras_s", "structure.duality_s", "structure.tables_s",
    "exprparse.parse_s",
    "report.render_s",
) + tuple(f"{layer}.self_s" for layer in LAYERS) + (
    "cli.unattributed_s", "cli.cpu_s", "trace.overhead_s",
)


class BenchError(RuntimeError):
    pass


class Runner:
    """Spawns one worker per job and keeps the run's deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("JORDCONF_ORDER", "PYTHONPATH")}
        # Fixed string hashing, so iteration orders and hence counters repeat.
        self.env["PYTHONHASHSEED"] = "0"

    def _remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run did not finish within {DEADLINE_S} s")
        return left

    def _spawn(self, trace):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), "--trace", str(trace)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env,
            cwd=ROOT)
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        if ready.strip() != "ready":
            proc.kill()
            proc.wait()
            raise BenchError("worker did not start")
        return proc, setup

    def _finish(self, proc, data):
        try:
            out, _ = proc.communicate(data, timeout=self._remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"run did not finish within {DEADLINE_S} s") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        return out

    def setup_only(self):
        proc, setup = self._spawn(0)
        self._finish(proc, "")
        return setup

    def run_job(self, job, trace=0):
        proc, setup = self._spawn(trace)
        out = self._finish(proc, json.dumps(job.argv) + "\n")
        result = json.loads(out.splitlines()[-1])
        result["setup_s"] = setup
        return result

    def run_pass(self, jobs, trace=0):
        """Every job in its own worker; set-up between jobs is not job time."""
        results = [self.run_job(job, trace) for job in jobs]
        p = {
            "jobs": results,
            "wall_s": sum(r["seconds"] for r in results),
            "cpu_s": sum(r["cpu_s"] for r in results),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            "setups": [r["setup_s"] for r in results],
        }
        if trace:
            stats = {}
            for r in results:
                for name, s in r["trace"]["stats"].items():
                    total = stats.setdefault(name, dict.fromkeys(s, 0))
                    for key, value in s.items():
                        total[key] += value
            p["trace"] = {"stats": stats, "spans": [r["trace"]["spans"] for r in results]}
        return p


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def check_passes(jobs, passes, expected):
    """Oracle over every pass: counts, checks passed per pass, problems found."""
    attempted = failed = 0
    checks = []
    wrong = {}
    problems = []
    reference = [r["stdout"] for r in passes[0]["jobs"]]
    for p in passes:
        if [r["stdout"] for r in p["jobs"]] != reference:
            problems.append("a job printed different output in two passes")
        passed = 0
        for job, result in zip(jobs, p["jobs"], strict=True):
            ok, n, why = verdict(job, result, expected)
            attempted += 1
            passed += n
            if not ok:
                failed += 1
                wrong.setdefault(" ".join(job.argv), why)
        checks.append(passed)
    return attempted, failed, checks, wrong, problems


def end_to_end_metrics(measured, setups, attempted, failed, checks):
    seconds = [[r["seconds"] for r in p["jobs"]] for p in measured]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in measured),
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(statistics.median(s) for s in seconds),
        "job_p80_s": statistics.median(percentile(s, 0.8) for s in seconds),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in measured),
        "correct_ratio": (attempted - failed) / attempted,
        "checks_passed": statistics.median(checks),
    }


def _trace_values(result):
    stats = result["trace"]["stats"]
    values = {}
    for name, s in stats.items():
        values[f"{name}_calls"] = s["calls"]
        values[f"{name}_s"] = s["inclusive_s"]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(s["self_s"] for name, s in stats.items()
                                        if layer_of(name) == layer)
    values["uea.algebra_builds"] = values["uea.algebra_build_calls"]
    values["cli.unattributed_s"] = stats[JOB_SPAN]["self_s"]
    return values


def per_layer_metrics(untraced, traced, problems):
    runs = [_trace_values(p) for p in traced]
    counters = [name for name in runs[0] if name.endswith(("_calls", "_builds"))]
    for name in counters:
        if len({run[name] for run in runs}) != 1:
            problems.append(f"counter {name} differs between traced runs: "
                            f"{[run[name] for run in runs]}")
    metrics = {}
    for name in PER_LAYER:
        if name in counters:
            metrics[name] = runs[0][name]
        elif name == "cli.cpu_s":
            metrics[name] = untraced["cpu_s"]
        elif name == "trace.overhead_s":
            metrics[name] = statistics.median(p["wall_s"] for p in traced) - untraced["wall_s"]
        else:
            metrics[name] = statistics.median(run[name] for run in runs)
    return metrics


def _unit(name):
    if name in END_TO_END:
        return END_TO_END[name]
    return "count" if name.endswith(("_calls", "_builds")) else "s"


def _git_commit():
    """HEAD's commit, or "unknown" outside a git checkout."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, workload, passes):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "order": workload.order,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="jordconf time-to-verdict benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "jordconf" / "cli.py").is_file():
        print("perfbench: no jordconf sources under src/", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    jobs = workload.jobs(args.seed)
    expected = load_expected()
    runner = Runner()

    try:
        runner.setup_only()             # warm-up: the first spawn may compile bytecode
        setups, measured = [], []
        started = time.perf_counter()
        longest = 0.0
        while True:
            # Set-up samples spread over the run, so that no single burst of
            # machine speed decides setup_s.
            setups += [runner.setup_only() for _ in range(SETUP_SAMPLES)]
            begun = time.perf_counter()
            measured.append(runner.run_pass(jobs))
            now = time.perf_counter()
            longest = max(longest, now - begun)
            if args.trace or (len(measured) >= MIN_PASSES
                              and now - started + longest > args.seconds):
                break
        traced = [runner.run_pass(jobs, trace=1) for _ in range(2)] if args.trace else []
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups += [setup for p in measured for setup in p["setups"]]

    attempted, failed, checks, wrong, problems = check_passes(
        jobs, measured + traced, expected)
    if args.trace:
        metrics = per_layer_metrics(measured[0], traced, problems)
    else:
        metrics = end_to_end_metrics(measured, setups, attempted, failed, checks)

    env = environment(args, workload, len(measured) + len(traced))
    print("env: " + json.dumps(env))
    for argv_text, why in wrong.items():
        print(f"wrong verdict: jordconf {argv_text}: {why}")
    for problem in problems:
        print(f"check failed: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value} {_unit(name)}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"env": env, "metrics": metrics, "wrong_verdicts": wrong, "problems": problems,
              "pass_wall_s": [p["wall_s"] for p in measured + traced],
              "spans": [p["trace"]["spans"] for p in traced]}
    out_file = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
