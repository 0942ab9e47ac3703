"""Workload job lists and the known-answer oracle for every job.

A job is one ``jordconf`` command line.  A verify job is correct when it exits
0, every check passes, and its check names contain the names recorded for it
in ``expected_checks.json``.  An ``apply`` job is correct when it exits 0 and
prints ``0``.  On a degenerate input (a contraction parameter equal to 0) a
usage error (exit 2) or a declared skip also counts as correct.

Regenerate the recorded check names with ``python3 perfbench/workloads.py
--record`` (needs ``src`` on the path); the recording is a reviewed file, not
something the benchmark rewrites.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

EXPECTED_PATH = Path(__file__).with_name("expected_checks.json")

SIGNS = ("+", "0", "-")
SWEEP_SUITES = ("algebra", "rmatrix", "realization", "twist")
# The invariant operator of each family and the paper's quadratic lattice
# solution it annihilates, for every (mu, nu).
APPLY_JOBS = {
    "time": ("nu*dx^2 - mu*Dt^2", "mu*x^2 + nu*t*(t-tau)"),
    "space": ("nu*Dx^2 - mu*dt^2", "nu*t^2 + mu*x*(x-sigma)"),
}


@dataclass(frozen=True)
class Job:
    argv: tuple
    expect: str            # key into expected_checks.json, or "zero" for apply
    degenerate: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    order: int             # truncation order the jobs run at
    jobs: Callable         # seed -> list of Job


def _verify_default(seed):
    return [Job(("verify", "all"), "verify-all")]


def _hopf_deep(seed):
    return [Job(("verify", "hopf", "--family", "time", "--order", "7"), "hopf-time-7")]


def _magnitude(rng):
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _contraction_sweep(seed):
    """All nine sign cells; the seed draws the magnitudes p/q, 1 <= p, q <= 9."""
    rng = random.Random(seed)
    jobs = []
    for mu_sign in SIGNS:
        for nu_sign in SIGNS:
            mu, nu = (0 if s == "0" else (-1 if s == "-" else 1) * _magnitude(rng)
                      for s in (mu_sign, nu_sign))
            params = ("--mu", str(mu), "--nu", str(nu))
            degenerate = mu == 0 or nu == 0
            for suite in SWEEP_SUITES:
                jobs.append(Job(("verify", suite) + params, f"sweep-{suite}", degenerate))
            for family, (operator, solution) in APPLY_JOBS.items():
                jobs.append(Job(("apply", "--family", family) + params + (operator, solution),
                                "zero", degenerate))
    return jobs


# Why each workload was chosen is stated in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("verify-default", 6, _verify_default),
    Workload("hopf-deep", 7, _hopf_deep),
    Workload("contraction-sweep", 6, _contraction_sweep),
)}


# -- oracle ----------------------------------------------------------------------

_HEADER = re.compile(r"^suite (\S+) \[(.*)\]$")
_CHECK = re.compile(r"^  (pass|FAIL|skip)  (.+?): ")
_OVERALL = re.compile(r"^overall: (PASS|FAIL) \((\d+)/(\d+) checks\)$")


def parse_report(text):
    """Check keys (suite[family]/name) with their status, and the overall line."""
    checks = []
    overall = None
    suite = None
    for line in text.splitlines():
        if m := _HEADER.match(line):
            family = dict(kv.split("=", 1) for kv in m.group(2).split() if "=" in kv)
            suite = f"{m.group(1)}[{family.get('family', '-')}]"
        elif (m := _CHECK.match(line)) and suite is not None:
            checks.append((f"{suite}/{m.group(2)}", m.group(1)))
        elif m := _OVERALL.match(line):
            overall = (m.group(1), int(m.group(2)), int(m.group(3)))
    return checks, overall


def load_expected():
    return json.loads(EXPECTED_PATH.read_text())


def verdict(job, result, expected):
    """(correct, checks passed, reason) for one job's exit code and output."""
    code, out = result["code"], result["stdout"]
    if result["error"] is not None:
        return False, 0, f"raised {result['error']}"
    if job.degenerate and code == 2:
        return True, 0, ""
    if job.expect == "zero":
        if code == 0 and out.strip() == "0":
            return True, 0, ""
        return False, 0, f"exit {code}, printed {out.strip()[:80]!r}"
    checks, overall = parse_report(out)
    passed = sum(status == "pass" for _, status in checks)
    allowed = {"pass", "skip"} if job.degenerate else {"pass"}
    bad = [key for key, status in checks if status not in allowed]
    if code != 0 or bad:
        return False, passed, f"exit {code}, failing checks {bad[:3]}"
    if overall is None or overall[1] != passed or overall[2] != len(checks):
        return False, passed, f"overall line {overall} disagrees with {passed}/{len(checks)}"
    missing = Counter(expected[job.expect]) - Counter(key for key, _ in checks)
    if missing:
        return False, passed, f"missing checks {sorted(missing)[:3]}"
    return True, passed, ""


def _record():
    """Record the check names of each verify job kind from the current program."""
    import contextlib
    import io

    from jordconf.cli import main

    def names(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        checks, _ = parse_report(out.getvalue())
        if code != 0 or any(status != "pass" for _, status in checks):
            raise SystemExit(f"{' '.join(argv)} does not pass; refusing to record it")
        return sorted(key for key, _ in checks)

    recorded = {
        "verify-all": names(_verify_default(0)[0].argv),
        "hopf-time-7": names(_hopf_deep(0)[0].argv),
    }
    for suite in SWEEP_SUITES:
        # Every nonzero cell must give the same names; record (+,+) and (-,-).
        plus = names(("verify", suite, "--mu", "2/3", "--nu", "5/7"))
        minus = names(("verify", suite, "--mu", "-4", "--nu", "-1/9"))
        if plus != minus:
            raise SystemExit(f"check names of verify {suite} depend on the cell")
        recorded[f"sweep-{suite}"] = plus
    EXPECTED_PATH.write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    import sys
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 perfbench/workloads.py --record")
    _record()
