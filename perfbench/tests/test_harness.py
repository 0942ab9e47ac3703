"""Quick smoke test of the benchmark harness: python3 -m pytest perfbench/tests"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, verdict  # noqa: E402


def _result(stdout, code=0, error=None):
    return {"code": code, "stdout": stdout, "error": error, "seconds": 0.0}


REPORT = """suite diamond [family=time mu=sym nu=sym order=6]
  pass  diamond[H,P,K]: associativity of H P K
  {status}  diamond[H,P,D]: associativity of H P D
suite diamond: PASS (2/2 checks)

overall: {overall} ({passed}/2 checks)
"""
EXPECTED = {"k": ["diamond[time]/diamond[H,P,D]", "diamond[time]/diamond[H,P,K]"]}


def test_benchmark_json_lists_the_harness_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(run._unit(m["name"]) == m["unit"] for m in spec["per_layer"])


def test_jobs_follow_the_seed():
    sweep = workloads.WORKLOADS["contraction-sweep"]
    jobs = sweep.jobs(3)
    assert len(jobs) == 54
    assert jobs == sweep.jobs(3)
    assert jobs != sweep.jobs(4)
    assert sum(job.degenerate for job in jobs) == 5 * 6
    assert workloads.WORKLOADS["verify-default"].jobs(3)[0].argv == ("verify", "all")


def test_oracle_accepts_only_known_answers():
    job = Job(("verify", "algebra"), "k")
    ok = REPORT.format(status="pass", overall="PASS", passed=2)
    assert verdict(job, _result(ok), EXPECTED) == (True, 2, "")
    bad = REPORT.format(status="FAIL", overall="FAIL", passed=1)
    assert not verdict(job, _result(bad, code=1), EXPECTED)[0]
    short = {"k": EXPECTED["k"] + ["diamond[time]/diamond[H,P,C1]"]}
    assert not verdict(job, _result(ok), short)[0]
    assert not verdict(job, _result("", code=None, error="KeyError: 'x'"), EXPECTED)[0]
    assert not verdict(job, _result("", code=2), EXPECTED)[0]
    assert verdict(Job(job.argv, "k", degenerate=True), _result("", code=2), EXPECTED)[0]
    skipped = REPORT.format(status="skip", overall="PASS", passed=1)
    assert verdict(Job(job.argv, "k", degenerate=True), _result(skipped), EXPECTED)[0]
    assert verdict(Job(("apply",), "zero"), _result("0\n"), EXPECTED)[0]
    assert not verdict(Job(("apply",), "zero"), _result("2*mu\n"), EXPECTED)[0]


def test_self_times_account_for_the_root_span():
    t = tracer.Tracer()

    def leaf():
        time.sleep(0.01)

    wrapped_leaf = t.wrap("a.leaf", leaf, record=False)

    def middle():
        wrapped_leaf()
        wrapped_leaf()

    root = t.wrap("cli.job", t.wrap("b.middle", middle))
    start = time.perf_counter()
    root()
    wall = time.perf_counter() - start
    assert t.stats["a.leaf"][0] == 2
    assert sum(s[2] for s in t.stats.values()) == pytest.approx(t.stats["cli.job"][1])
    assert t.stats["cli.job"][1] <= wall
    assert [(name, parent) for name, _, _, parent in t.spans] == [("cli.job", None),
                                                                  ("b.middle", 0)]


def test_traced_worker_counts_and_accounts():
    runner = run.Runner()
    jobs = [Job(("apply", "--family", "time", "--mu", "1/2", "--nu", "-3",
                 *workloads.APPLY_JOBS["time"]), "zero")]
    traced = [runner.run_pass(jobs, trace=1) for _ in range(2)]
    untraced = runner.run_pass(jobs)
    attempted, failed, _, _, problems = run.check_passes(
        jobs, [untraced] + traced, workloads.load_expected())
    metrics = run.per_layer_metrics(untraced, traced, problems)
    assert (attempted, failed, problems) == (3, 0, [])
    assert metrics["exprparse.parse_s"] > 0
    assert metrics["poly.mul_calls"] > 0
    assert set(metrics) == set(run.PER_LAYER)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hopf-deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
