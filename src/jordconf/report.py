"""Deterministic pass/fail reports shared by every verification suite.

A report is a flat list of check records.  Each record carries the identity
it certifies (``anchor``, rendered so a failure points at the formula being
checked), the status, and the residual when nonzero.  A check that cannot be
decided on the given input is declared skipped with a reason: it is no
failure, and it counts among the checks but not among the passed ones.
Identical invocations produce byte-identical text and JSON; wall-clock
timings are kept out of the default renderings and only appear when
explicitly requested.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple

SCHEMA = "jordconf.report/1"

_MAX_RESIDUAL_CHARS = 400


class CheckRecord(namedtuple("CheckRecord", "name anchor passed residual seconds skip",
                             defaults=(None, 0.0, None))):
    """One check; ``skip`` is the reason, for a skipped check."""

    __slots__ = ()

    @property
    def status(self):
        if self.skip is not None:
            return "skip"
        return "pass" if self.passed else "fail"


class VerificationReport:
    def __init__(self, suite, config, records=None):
        self.suite = suite
        self.config = config
        self.records = [] if records is None else records
        self._stamp = time.perf_counter()

    @property
    def passed(self):
        return all(r.status != "fail" for r in self.records)

    def _elapsed(self):
        # Per-check wall time: suites compute one residual between records,
        # so the gap since the previous record covers the computation.
        now = time.perf_counter()
        elapsed = now - self._stamp
        self._stamp = now
        return elapsed

    def check(self, name, anchor, residual):
        """Record a check on an element ``residual``; zero means pass."""
        ok = residual.is_zero()
        text = None if ok else _clip(str(residual))
        self.records.append(CheckRecord(name, anchor, ok, text, self._elapsed()))

    def note(self, name, anchor, passed, detail=None):
        self.records.append(CheckRecord(name, anchor, bool(passed),
                                        None if passed else _clip(detail or "failed"),
                                        self._elapsed()))

    def skip(self, name, anchor, reason):
        """Declare a check that cannot be decided on this input."""
        self.records.append(CheckRecord(name, anchor, False, None, self._elapsed(), reason))

    def extend(self, other):
        self.records.extend(other.records)
        self._stamp = time.perf_counter()

    # -- rendering -----------------------------------------------------------

    def to_dict(self, timings=False):
        data = {
            "schema": SCHEMA,
            "suite": self.suite,
            "config": self.config,
            "passed": self.passed,
            "checks": [
                {
                    "name": r.name,
                    "anchor": r.anchor,
                    "status": r.status,
                    **({"residual": r.residual} if r.residual is not None else {}),
                    **({"reason": r.skip} if r.skip is not None else {}),
                    **({"seconds": round(r.seconds, 6)} if timings else {}),
                }
                for r in self.records
            ],
        }
        if timings:
            data["total_seconds"] = round(sum(r.seconds for r in self.records), 6)
        return data

    def to_json(self, timings=False):
        return json.dumps(self.to_dict(timings), indent=2)

    def to_text(self, timings=False):
        lines = []
        cfg = " ".join(f"{k}={v}" for k, v in self.config.items())
        lines.append(f"suite {self.suite} [{cfg}]")
        for r in self.records:
            status = "FAIL" if r.status == "fail" else r.status
            stamp = f"  ({r.seconds:.3f}s)" if timings else ""
            lines.append(f"  {status}  {r.name}: {r.anchor}{stamp}")
            if r.residual:
                lines.append(f"        residual: {r.residual}")
            if r.skip is not None:
                lines.append(f"        reason: {r.skip}")
        verdict = "PASS" if self.passed else "FAIL"
        skipped = sum(r.skip is not None for r in self.records)
        lines.append(f"suite {self.suite}: {verdict} "
                     f"({sum(r.passed for r in self.records)}/{len(self.records)} checks"
                     + (f", {skipped} skipped)" if skipped else ")"))
        return "\n".join(lines)


def _clip(text):
    if len(text) > _MAX_RESIDUAL_CHARS:
        return text[:_MAX_RESIDUAL_CHARS] + " ..."
    return text
