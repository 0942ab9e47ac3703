"""The scripts under ``tools/`` and the benchmark's tracer still point at live code."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


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


def test_tracer_targets_are_live_attributes():
    # Each span of perfbench/tracer.py wraps attributes of a jordconf module or
    # class.  The tracer reads each attribute from the owner's own ``vars``, so
    # an attribute inherited from a base class must fail here, not in a run.
    targets = _literal(ROOT / "perfbench" / "tracer.py", "TARGETS")
    assert targets
    for span, where, names, _ in targets:
        module, _, cls = where.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
            assert inspect.isclass(owner), (span, where)
        for name in names:
            func = vars(owner).get(name)
            assert inspect.isfunction(func), (span, where, name)
            assert inspect.getmodule(func).__name__ == module, (span, where, name)


def test_linecov_counts_instruction_lines_and_joins_runs():
    # Loads the tool without running it; a docstring line carries no instruction.
    spec = importlib.util.spec_from_file_location("linecov", TOOLS / "linecov.py")
    linecov = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(linecov)
    source = ('def f(x):\n    """doc."""\n    if x:\n        return 1\n    return 2\n'
              "\n\nclass A:\n    y = [i for i in range(3)]\n")
    assert linecov.executable_lines(compile(source, "f.py", "exec")) == {1, 3, 4, 5, 8, 9}
    assert linecov.ranges({7, 1, 2, 3, 9}) == "1-3, 7, 9"
    assert linecov.PACKAGE.is_dir()


def test_outputs_digests_match_the_committed_file():
    # The default reports stay byte-identical unless tools/outputs.txt is rewritten.
    spec = importlib.util.spec_from_file_location("outputs", TOOLS / "outputs.py")
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)
    assert outputs.digests() == outputs.OUTPUT.read_text()


def test_opcount_repeats_exactly_in_fresh_interpreters():
    spec = importlib.util.spec_from_file_location("opcount", TOOLS / "opcount.py")
    opcount = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(opcount)
    argv = ("verify", "twist", "--family", "time", "--order", "1")
    first = opcount.count_fresh(argv)
    assert first[0] == 0 and first[1]["twist"] > 0
    assert opcount.count_fresh(argv) == first
