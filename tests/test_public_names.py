"""Every public module-level function and class of the package, and every
public method of its classes, has a user.

A name is used when package code outside its own definition reads it, when a
code span of the README names it, or when the benchmark tracer names it.
``__init__`` re-exports do not count: a wrapper that only the tests call
belongs in the test that calls it.
Methods are matched by name alone: a read of ``.name`` anywhere counts for
every method called ``name``.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jordconf"
README = ROOT / "README.md"
TRACER = ROOT / "perfbench" / "tracer.py"
CODE_SPAN = re.compile(r"(?<!`)(`+)(?!`)(.+?)(?<!`)\1(?!`)", re.S)


def _reads(node):
    """Names that ``node`` reads, as names or attributes, with their counts."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


def unused_public_names(sources, texts):
    """Public definitions of ``sources`` that nothing names.

    ``sources`` maps module names to their source.  The definitions are the
    module-level functions and classes and the methods of those classes, the
    unused ones listed as ``name`` and ``Class.name``.  A definition is used
    when some module reads its name (as a name or an attribute) outside the
    definition itself, or when one of ``texts`` has it as a whole word.
    """
    defined = []
    read = Counter()
    for source in sources.values():
        tree = ast.parse(source)
        read += _reads(tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.append((node.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                defined += [(sub.name, f"{node.name}.{sub.name}", sub) for sub in node.body
                            if isinstance(sub, ast.FunctionDef)]
    own = Counter()
    for name, _, node in defined:
        own[name] += _reads(node)[name]
    text = "\n".join(texts)
    return sorted(label for name, label, node in defined
                  if not name.startswith("_") and read[name] == own[name]
                  and not re.search(rf"\b{name}\b", text))


def code_spans(markdown):
    """The code spans and fenced blocks of a Markdown text, so that a word of
    the prose does not count as a mention.  A span opens and closes with runs
    of the same number of backticks and may run over a line break."""
    return [m.group(2) for m in CODE_SPAN.finditer(markdown)]


def test_every_public_name_has_a_user():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    texts = code_spans(README.read_text()) + [TRACER.read_text()]
    assert unused_public_names(sources, texts) == []


def test_only_code_spans_of_the_readme_count():
    text = "The `monomial` helper; a monomial in ``x``, `f() *\ng()`."
    assert code_spans(text) == ["monomial", "x", "f() *\ng()"]


def test_checker_finds_a_planted_unused_function():
    sources = {
        "a": ("def used():\n    return 1\n\n"
              "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
              "def documented():\n    pass\n\n"
              "def planted():\n    pass\n\n"
              "class Planted:\n    pass\n\n"
              "class Box:\n"
              "    def read(self):\n        return self.helper()\n\n"
              "    def helper(self):\n        return 1\n\n"
              "    def unread(self):\n        return self.unread()\n\n"
              "    def _private(self):\n        pass\n\n"
              "def _private():\n    pass\n"),
        "b": "from . import a\n\nVALUE = a.used() + a.Box().read()\n",
    }
    texts = ["The README names documented()."]
    assert unused_public_names(sources, texts) == ["Box.unread", "Planted", "planted",
                                                   "recursive"]
