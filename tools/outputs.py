"""Digests of the default reports, to show that a change leaves them byte-identical.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/outputs.py

Runs each command of ``COMMANDS`` in this interpreter through
``jordconf.cli.main`` and writes ``tools/outputs.txt``: one line per command
with the sha256 of its stdout, the sha256 of its stderr, its exit code and
the command itself.  ``JORDCONF_ORDER`` is unset during the runs, so the
default order is 6.  ``tests/test_tools.py`` recomputes the digests and
compares them with the file; a deliberate change of a report rewrites the
file in the same commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from pathlib import Path

OUTPUT = Path(__file__).with_name("outputs.txt")

FAMILIES = ("time", "space", "classical")

COMMANDS = (
    ("verify", "all"),
    ("verify", "all", "--format", "json"),
    ("verify", "all", "--mu", "2/3", "--nu", "-5/7"),
    ("verify", "all", "--mu", "0", "--nu", "0"),
    *(("verify", "hopf", "--family", family, "--order", "7") for family in FAMILIES),
    *(("matrix", "R", "--family", family) for family in FAMILIES),
)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv):
    """(stdout, stderr, exit code) of ``jordconf argv``, run in this interpreter."""
    from jordconf.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("JORDCONF_ORDER", None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        if saved is not None:
            os.environ["JORDCONF_ORDER"] = saved
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
