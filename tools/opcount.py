"""Bytecode instructions run by ``jordconf`` commands: a cost figure that
repeats exactly from run to run, where wall time on a shared machine does not.

Usage (from the repository root):

    python3 tools/opcount.py                         # writes tools/opcount.txt
    python3 tools/opcount.py verify twist --order 2  # one command, as JSON

Without arguments, runs each command of ``COMMANDS`` in a fresh interpreter,
as the benchmark (``perfbench/``) runs each job, so no command sees the caches
another filled, and writes ``tools/opcount.txt``.  The fresh interpreter gets
``PYTHONHASHSEED=0``, as ``perfbench/run.py`` gives its workers.  With a
command as arguments, counts that command in this interpreter and prints the
counts as JSON.

A count imports ``jordconf.cli`` from ``src``, builds the argument parser (the
benchmark's set-up) and runs ``cli.main`` under ``sys.settrace`` with opcode
events on.  It counts every instruction of every Python frame, by the
``src/jordconf`` module of the frame's code (``other`` for the standard
library).  ``cli._available_cpus`` is patched to 1, so a ``verify`` run takes
its serial path: a forked child's work would not be seen.

An opcode is not a unit of time.  Opcodes miss C-level work, such as
big-integer arithmetic, dict, set and ``Fraction`` internals in C, regular
expressions and ``marshal``, and one opcode may be cheap or costly.  The
counts show Python work removed or added, not seconds saved.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jordconf"
OUTPUT = Path(__file__).with_name("opcount.txt")

# One sweep cell of the benchmark's contraction-sweep, at (mu, nu) = (2/3, -5/7).
CELL = ("--mu", "2/3", "--nu", "-5/7")
COMMANDS = (
    ("verify", "hopf", "--family", "time", "--order", "7"),
    ("verify", "all"),
    *(("verify", suite, *CELL) for suite in ("algebra", "rmatrix", "realization", "twist")),
    ("apply", "--family", "time", *CELL, "nu*dx^2 - mu*Dt^2", "mu*x^2 + nu*t*(t-tau)"),
    ("apply", "--family", "space", *CELL, "nu*Dx^2 - mu*dt^2", "nu*t^2 + mu*x*(x-sigma)"),
)


def count(argv):
    """(exit code, {module: opcodes}) of ``cli.main(argv)`` in this interpreter."""
    sys.path.insert(0, str(ROOT / "src"))
    import jordconf.cli as cli

    cli._available_cpus = lambda: 1
    cli.build_parser()
    prefix = str(PACKAGE) + os.sep
    tallies, tracers = {}, {}

    def tracer_of(module):
        tally = tallies[module] = [0]

        def local(frame, event, arg):
            if event == "opcode":
                tally[0] += 1
            return local

        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        module = Path(filename).stem if filename.startswith(prefix) else "other"
        local = tracers.get(module)
        if local is None:
            local = tracers[module] = tracer_of(module)
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(trace)
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:           # argparse rejects the arguments
            code = exc.code
        finally:
            sys.settrace(None)
    return code, {module: tally[0] for module, tally in sorted(tallies.items())}


def count_fresh(argv):
    """``count(argv)`` in a fresh interpreter with ``PYTHONHASHSEED=0``."""
    proc = subprocess.run([sys.executable, __file__, *argv], capture_output=True,
                          text=True, check=True, env=dict(os.environ, PYTHONHASHSEED="0"))
    return tuple(json.loads(proc.stdout))


def report(results):
    """The text of ``opcount.txt`` for [(argv, exit code, counts)]."""
    lines = [
        "Opcodes that each command runs inside jordconf.cli.main, by module.",
        "Written by tools/opcount.py: a fresh interpreter per command,",
        "PYTHONHASHSEED=0, the serial path (no fork), the parser built before",
        "the count.  Opcodes miss C-level work; they are not seconds.",
    ]
    for argv, code, counts in results:
        lines += ["", f"$ jordconf {shlex.join(argv)}",
                  f"exit {code}, {sum(counts.values()):,} opcodes"]
        lines += [f"  {module:<12}{n:>14,}" for module, n in counts.items()]
    return "\n".join(lines) + "\n"


def main(argv):
    if argv:
        print(json.dumps(count(argv)))
        return 0
    results = []
    for command in COMMANDS:
        results.append((command, *count_fresh(command)))
        print(f"{sum(results[-1][2].values()):>14,}  {shlex.join(command)}", flush=True)
    OUTPUT.write_text(report(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
