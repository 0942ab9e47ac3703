"""Which lines of ``src/jordconf`` the tier-1 tests never run.

Usage (from the repository root):

    python3 tools/linecov.py

Runs the tier-1 suite (``pytest tests``) in this interpreter under a line
tracer and writes ``tools/linecov.txt``: for each module of ``src/jordconf``
the number of executable lines, the number the suite never ran, and the
unrun line numbers.  The tracer is ``sys.settrace`` plus
``threading.settrace`` (stdlib only; ``coverage`` is not needed) and records
line events only in frames whose code lives in ``src/jordconf``.  A line is
executable when an instruction of the module's compiled code carries its
number.  Code that runs only in a subprocess is not seen.  Not part of the
test suite and not a gate: tracing makes the suite several times slower
(about 100 s on a 2-core VM).
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jordconf"
OUTPUT = Path(__file__).with_name("linecov.txt")
# A fixed hypothesis seed, so that the list does not move from run to run.
PYTEST_ARGS = ["-q", "--continue-on-collection-errors", "--hypothesis-seed=0",
               str(ROOT / "tests")]


def executable_lines(code):
    """Line numbers of the instructions of ``code`` and of its nested code objects."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= executable_lines(const)
    return lines


def ranges(numbers):
    """Sorted line numbers with runs joined: ``{7, 1, 2, 3}`` -> ``'1-3, 7'``."""
    runs = []
    for n in sorted(numbers):
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def run_traced(args):
    """Run pytest with ``args`` under the tracer; (exit code, {file: lines run})."""
    prefix = str(PACKAGE) + os.sep
    seen = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = seen.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def report(exit_code, seen):
    """The text of ``linecov.txt``."""
    rows, details = [], []
    total_exec = total_unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(compile(path.read_text(), str(path), "exec"))
        unrun = executable - seen.get(str(path), set())
        total_exec += len(executable)
        total_unrun += len(unrun)
        rows.append(f"{path.name:<16}{len(executable):>10}{len(unrun):>7}")
        if unrun:
            details.append(f"{path.name}: {ranges(unrun)}")
    return "\n".join([
        "Lines of src/jordconf that the tier-1 tests (pytest tests) never run.",
        "Written by tools/linecov.py; a line is executable when the compiled",
        "module has an instruction on it.",
        f"pytest exit code: {exit_code}",
        "",
        f"{'module':<16}{'executable':>10}{'unrun':>7}",
        *rows,
        f"{'total':<16}{total_exec:>10}{total_unrun:>7}",
        "",
        *details,
        "",
    ])


def main():
    exit_code, seen = run_traced(PYTEST_ARGS)
    text = report(exit_code, seen)
    OUTPUT.write_text(text)
    print(text, end="")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
