"""Which code mutants of the rewrite kernel each triangularity product kills.

Usage (from the repository root):

    python3 tools/triangular_mutants.py

The identity is flip(R) R = 1 to order N, with R = exp(param*G (x) D)
exp(-param*D (x) G) as ``hopf.universal_r`` builds it.  Two ways of forming
flip(R) R are compared on every mutant:

* ``full``:  the full tensor product ``flip(r) * r``;
* ``right``: ``hopf.triangular_product``, flip(r) multiplied on the right by
  R's factors (what the ``universal-R/triangular`` record certifies).

Mutants are made with the stdlib ``ast`` module, deterministically, on the
kernel functions listed in ``TARGETS``: ``+`` <-> ``-`` (also in ``+=``),
``<`` <-> ``<=``, ``>`` <-> ``>=``, ``==`` <-> ``!=``, an integer literal
``k`` -> ``k + 1`` and ``k - 1``, and ``-x`` -> ``x``.  Each (mutant, family)
case runs in its own interpreter with a timeout of ``TIMEOUT`` seconds, one at
a time.  A case is
``error`` when building R raises and ``timeout`` when it does not finish; a
form that raises after R is built counts as killing the mutant.  Each case
where the two forms disagree is printed as it runs.  Not part of the test suite: a
run at ``ORDER`` = 5 takes about 9 minutes on a 2-core VM.
"""

from __future__ import annotations

import ast
import json
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# (module, class or None, function): the kernel of PBW and tensor products.
TARGETS = [
    ("uea", "Algebra", "_mono_times_gen"),
    ("uea", "Algebra", "_mono_times_mono"),
    ("uea", "Algebra", "_ore_product"),
    ("uea", "Algebra", "_d_pow_times_g_pow"),
    ("hopf", None, "_distribute"),
    ("hopf", "TensorElement", "__mul__"),
    ("poly", "ParamPoly", "mul_trunc"),
]
FORMS = ("full", "right")
FAMILIES = ("time", "space")
ORDER = 5
TIMEOUT = 30  # seconds per case
MEMORY_CAP = 1 << 30  # bytes of address space per case

_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
          ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}


def _function_node(module, cls, name):
    tree = ast.parse((SRC / "jordconf" / f"{module}.py").read_text())
    body = tree.body
    if cls is not None:
        body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == cls).body
    return next(n for n in body if isinstance(n, ast.FunctionDef) and n.name == name)


def _sites(func):
    """Every (node, field, index, replacement) mutation, in ``ast.walk`` order."""
    out = []
    for node in ast.walk(func):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            out.append((node, "op", None, _SWAPS[type(node.op)]()))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _SWAPS:
                    out.append((node, "ops", i, _SWAPS[type(op)]()))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            out.append((node, "unwrap", None, None))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((node, "value", None, node.value + 1))
            out.append((node, "value", None, node.value - 1))
    return out


class _Unwrap(ast.NodeTransformer):
    def __init__(self, target):
        self.target = target

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        return node.operand if node is self.target else node


def mutants(target):
    """The mutated function sources of one target, with a one-line label each."""
    count = len(_sites(_function_node(*target)))
    for k in range(count):
        func = _function_node(*target)  # a fresh tree per mutant
        node, field, index, new = _sites(func)[k]
        line = node.lineno
        if field == "unwrap":
            func = _Unwrap(node).visit(func)
            label = "-x -> x"
        elif field == "ops":
            old = node.ops[index]
            node.ops[index] = new
            label = f"{type(old).__name__} -> {type(new).__name__}"
        elif field == "op":
            old = node.op
            node.op = new
            label = f"{type(old).__name__} -> {type(new).__name__}"
        else:
            label = f"{node.value} -> {new}"
            node.value = new
        ast.fix_missing_locations(func)
        yield f"line {line}: {label}", ast.unparse(func)


# -- one case, in a child interpreter --------------------------------------------------

def run_case(target, index, family):
    """Install mutant ``index`` of ``target``, build R and form flip(R) R both ways."""
    # A mutant may grow without bound; cap this interpreter's address space.
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    sys.path.insert(0, str(SRC))
    import importlib

    from jordconf.hopf import tensor_unit, triangular_product, universal_r
    from jordconf.uea import FamilyConfig

    module_name, cls, name = target
    module = importlib.import_module(f"jordconf.{module_name}")
    _, source = list(mutants(target))[index]
    namespace = dict(vars(module))
    exec(compile(source, f"<mutant {name} #{index}>", "exec"), namespace)
    setattr(getattr(module, cls) if cls else module, name, namespace[name])

    config = FamilyConfig(family, order=ORDER)
    try:
        r = universal_r(config)
    except Exception as exc:  # the mutant broke the engine before any check
        return {"build": type(exc).__name__}
    one = tensor_unit(config)
    forms = {"full": lambda: r.flip() * r, "right": lambda: triangular_product(r)}
    out = {"build": "ok"}
    for form, make in forms.items():
        try:
            out[form] = not (make() - one).zero_to_order(ORDER)
        except Exception:  # a crash is not a pass
            out[form] = True
    return out


# -- the comparison ----------------------------------------------------------------------

def _case(target, index, family):
    cmd = [sys.executable, __file__, "--case", ",".join(str(t) for t in target),
           str(index), family]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"build": "timeout"}
    if done.returncode:  # e.g. the memory cap hit outside the guarded build
        return {"build": f"exit {done.returncode}"}
    return json.loads(done.stdout.strip().splitlines()[-1])


COLUMNS = ("mutants", "cases", "error", "timeout", "ran", "full", "right",
           "full only", "right only", "both survive")


def compare():
    """A Counter over ``COLUMNS`` per target function, and their total."""
    rows, total = [], Counter()
    for target in TARGETS:
        tally = Counter()
        for index, (label, _) in enumerate(mutants(target)):
            tally["mutants"] += 1
            for family in FAMILIES:
                tally["cases"] += 1
                res = _case(target, index, family)
                if res["build"] != "ok":
                    tally["timeout" if res["build"] == "timeout" else "error"] += 1
                    continue
                tally["ran"] += 1
                for form in FORMS:
                    tally[form] += res[form]
                tally["full only"] += res["full"] and not res["right"]
                tally["right only"] += res["right"] and not res["full"]
                tally["both survive"] += not (res["full"] or res["right"])
                if res["full"] != res["right"]:
                    print(f"  {target[2]} #{index} {family} ({label}): "
                          + " ".join(f"{f}={'killed' if res[f] else 'survived'}"
                                     for f in FORMS), flush=True)
        rows.append((target[2], tally))
        total.update(tally)
    return rows + [("total", total)]


def render(rows):
    lines = [f"triangularity mutants at order {ORDER}, families {'/'.join(FAMILIES)}; "
             "full/right count the cases each form kills",
             f"{'function':<20}" + "".join(f"{c:>13}" for c in COLUMNS)]
    for name, tally in rows:
        lines.append(f"{name:<20}" + "".join(f"{tally[c]:>13}" for c in COLUMNS))
    return "\n".join(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--case"]:  # one case, in the child interpreter
        module, cls, name = argv[1].split(",")
        target = (module, None if cls == "None" else cls, name)
        print(json.dumps(run_case(target, int(argv[2]), argv[3])))
        return 0
    print(render(compare()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
