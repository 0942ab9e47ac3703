"""Spans and counts around the public entry points of each jordconf layer.

The tracer is installed from outside: after ``jordconf.cli`` is imported it
replaces the listed functions and methods with wrappers, in every jordconf
module (and class) that holds them, so a name imported with ``from .uea
import casimir`` is wrapped where the CLI looks it up.  Nothing inside the
package changes.

Every wrapped call is a span.  For each span name the tracer keeps the number
of calls, the inclusive time of the outermost calls and the self time (span
time minus the time covered by child spans).  Spans of the coarse entry
points are also kept as ``(name, start, end, parent)`` records; the hot
arithmetic methods are only aggregated, because they are called millions of
times.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, "module" or "module:Class", attribute names, keep span records)
TARGETS = (
    ("poly.mul", "jordconf.poly:ParamPoly", ("__mul__",), False),
    ("poly.add", "jordconf.poly:ParamPoly", ("__add__",), False),
    ("uea.mul", "jordconf.uea:Algebra", ("mul",), False),
    ("uea.algebra_build", "jordconf.uea:Algebra", ("__init__",), True),
    ("uea.diamond", "jordconf.uea", ("diamond_check",), True),
    ("uea.centrality", "jordconf.uea", ("centrality_check",), True),
    ("uea.casimir", "jordconf.uea", ("casimir",), True),
    ("hopf.homomorphism", "jordconf.hopf", ("check_homomorphism",), True),
    ("hopf.coassociativity", "jordconf.hopf", ("check_coassociativity",), True),
    ("hopf.antipode", "jordconf.hopf", ("counit_and_antipode",), True),
    ("hopf.bialgebra", "jordconf.hopf", ("bialgebra_report",), True),
    ("hopf.universal_r", "jordconf.hopf", ("universal_R_conjugation",), True),
    ("hopf.extend", "jordconf.hopf:Hopf", ("extend",), False),
    ("matrixrep.rmatrix", "jordconf.matrixrep", ("rmatrix_report",), True),
    ("matrixrep.matmul", "jordconf.matrixrep:PolyMatrix", ("__mul__",), False),
    ("ore.realization", "jordconf.ore", ("check_realization_homomorphism",), True),
    ("ore.symmetry", "jordconf.ore", ("symmetry_check",), True),
    ("ore.casimir_operator", "jordconf.ore", ("casimir_operator",), True),
    ("ore.transport", "jordconf.ore", ("transport_report",), True),
    ("ore.apply", "jordconf.ore", ("apply_operator",), True),
    ("ore.mul", "jordconf.ore:OreElement", ("__mul__",), False),
    ("twist.report", "jordconf.twist", ("twist_report",), True),
    ("structure.subalgebras", "jordconf.structure", ("verify_hopf_subalgebras",), True),
    ("structure.duality", "jordconf.structure", ("duality_report",), True),
    ("structure.tables", "jordconf.structure",
     ("classification_rows", "classify", "render_table_text", "render_table_json"), True),
    ("exprparse.parse", "jordconf.exprparse", ("parse_operator", "parse_polynomial"), True),
    ("report.render", "jordconf.report:VerificationReport",
     ("to_text", "to_dict", "to_json"), True),
)

# The span around one CLI invocation; its self time is the CLI's own work
# plus everything no wrapped entry point covers.
JOB_SPAN = "cli.job"


def layer_of(span_name):
    return span_name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.stats = {}   # span name -> [calls, inclusive s, self s, open depth]
        self.spans = []   # [name, start, end, parent index] of recorded spans
        self._child = []  # seconds covered by children, one entry per open span
        self._open = []   # indices into self.spans of open recorded spans

    def wrap(self, name, fn, record=True):
        """Return ``fn`` wrapped as the span ``name``."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        child, opened, spans, clock = self._child, self._open, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[0] += 1
            stat[3] += 1
            if record:
                opened.append(len(spans))
                spans.append([name, 0.0, 0.0, opened[-2] if len(opened) > 1 else None])
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                took = end - start
                stat[2] += took - child.pop()
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += took
                if child:
                    child[-1] += took
                if record:
                    span = spans[opened.pop()]
                    span[1], span[2] = start, end

        return traced

    def install(self):
        """Wrap every target in the already imported jordconf modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "jordconf" or n.startswith("jordconf.")]
        for name, where, attrs, record in TARGETS:
            module_name, _, class_name = where.partition(":")
            owner = sys.modules[module_name]
            if class_name:
                owner = getattr(owner, class_name)
            for attr in attrs:
                original = vars(owner)[attr]
                wrapped = self.wrap(name, original, record)
                # Rebind every alias of the original: class aliases such as
                # ``__rmul__ = __mul__`` and names imported into other modules.
                holders = [owner] if class_name else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)

    def to_dict(self):
        return {
            "stats": {name: {"calls": s[0], "inclusive_s": s[1], "self_s": s[2]}
                      for name, s in sorted(self.stats.items())},
            "spans": self.spans,
        }
