"""The scripts under ``tools/`` still point at live code."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _literal(path, name):
    """The value of the module-level assignment ``name = <literal>`` in ``path``."""
    tree = ast.parse(path.read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in n.targets))
    return ast.literal_eval(node.value)


def test_triangular_mutant_targets_are_live_functions():
    # Resolves each target without making or running any mutant.
    targets = _literal(TOOLS / "triangular_mutants.py", "TARGETS")
    assert targets
    for module, cls, name in targets:
        owner = importlib.import_module(f"jordconf.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
            assert inspect.isclass(owner), (module, cls)
        func = getattr(owner, name, None)
        assert inspect.isfunction(func), (module, cls, name)
        assert inspect.getmodule(func).__name__ == f"jordconf.{module}", (module, cls, name)
