"""Digests of the default reports, to show that a change leaves them byte-identical.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/outputs.py

Runs each command of ``COMMANDS`` in this interpreter through
``jordconf.cli.main`` and writes ``tools/outputs.txt``: one line per command
with the sha256 of its stdout, the sha256 of its stderr, its exit code and
the command itself.  ``tests/test_tools.py`` recomputes the digests and
compares them with the file; a deliberate change of a report rewrites the
file in the same commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

OUTPUT = Path(__file__).with_name("outputs.txt")

FAMILIES = ("time", "space", "classical")

COMMANDS = (
    ("verify", "all"),
    ("verify", "all", "--format", "json"),
    ("verify", "all", "--mu", "2/3", "--nu", "-5/7"),
    ("verify", "all", "--mu", "0", "--nu", "0"),
    # The truncation-order stress point of the default report.
    ("verify", "all", "--order", "8"),
    *(("verify", "hopf", "--family", family, "--order", "7") for family in FAMILIES),
    *(("matrix", "R", "--family", family) for family in FAMILIES),
    *(("tables", "--which", which, *fmt) for which in ("1", "2")
      for fmt in ((), ("--format", "json"))),
    ("verify", "tables"),
    ("op", "Dt*t"),
    ("op", "Dt", "--limit"),
    ("op", "nu*dx^2 - mu*Dt^2", "--limit"),
    ("op", "nu*dx^2 - mu*Dt^2", "--mu", "1", "--nu", "0", "--format", "json"),
    ("apply", "--family", "time", "nu*dx^2 - mu*Dt^2", "mu*x^2 + nu*t*(t-tau)"),
    ("apply", "--family", "space", "nu*Dx^2 - mu*dt^2", "nu*t^2 + mu*x*(x-sigma)"),
    ("apply", "Tt^-1", "t"),
    ("apply", "--format", "json", "Dt", "t*(t-tau)"),
    # Coordinates, derivatives, negative shift powers and Laurent coefficients
    # acting on polynomials of several terms.
    ("apply", "--family", "space", "Tx^-2*x*dx + sigma*Dx*t", "x^3*t - sigma*x"),
    ("apply", "--family", "time", "Dt^2*x*t - t*Tt^-1*dx + mu*x^2*Tt^-2*dt*Dt + Dx*tau",
     "t^3*x^2 - 2/3*tau*t*x + nu*t - 5"),
    # Usage errors (exit 2).
    ("verify", "rmatrix", "--mu", "0", "--nu", "0"),
    ("verify", "algebra", "--order", "13"),
    ("op", "(x"),
)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv):
    """(stdout, stderr, exit code) of ``jordconf argv``, run in this interpreter."""
    from jordconf.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return out.getvalue(), err.getvalue(), code


def digests():
    """The text of ``outputs.txt`` for the code as it is now."""
    lines = []
    for argv in COMMANDS:
        out, err, code = run(argv)
        lines.append(f"{_sha(out)} {_sha(err)} {code} {' '.join(argv)}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    OUTPUT.write_text(digests())
