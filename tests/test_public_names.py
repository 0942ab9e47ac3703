"""Every public module-level function and class of the package has a user.

A name is used when package code outside its own definition reads it, or when
the README or the benchmark tracer names it.  ``__init__`` re-exports do not
count: a wrapper that only the tests call belongs in the test that calls it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jordconf"
DOCS = (ROOT / "README.md", ROOT / "perfbench" / "tracer.py")

# Public names that nothing uses yet, each with the reason it stays.
ALLOWED = {
    "nullplane_report": "a real certificate that the CLI does not run yet (pending "
                        "`verify nullplane`, outside `verify all`)",
}


def unused_public_names(sources, texts):
    """Public module-level functions and classes of ``sources`` that nothing names.

    ``sources`` maps module names to their source.  A definition is used when
    some module reads its name (as a name or an attribute) outside the
    definition itself, or when one of ``texts`` has it as a whole word.
    """
    defined = []
    read = set()
    for source in sources.values():
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    defined.append(own)
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else None)
                if name is not None and name != own:
                    read.add(name)
    text = "\n".join(texts)
    return sorted(name for name in defined
                  if name not in read and not re.search(rf"\b{name}\b", text))


def test_every_public_name_has_a_user():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    texts = [p.read_text() for p in DOCS]
    # An allowed name that gains a user leaves the list.
    assert unused_public_names(sources, texts) == sorted(ALLOWED)


def test_checker_finds_a_planted_unused_function():
    sources = {
        "a": ("def used():\n    return 1\n\n"
              "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
              "def documented():\n    pass\n\n"
              "def planted():\n    pass\n\n"
              "class Planted:\n    pass\n\n"
              "def _private():\n    pass\n"),
        "b": "from . import a\n\nVALUE = a.used()\n",
    }
    texts = ["The README names documented()."]
    assert unused_public_names(sources, texts) == ["Planted", "planted", "recursive"]
