"""Command-line front end.

Subcommands:

* ``verify SUITE`` runs a verification suite and reports pass/fail per check
  (suites: algebra, hopf, rmatrix, realization, twist, duality, tables, all);
* ``tables`` renders classification table 1 or 2;
* ``apply`` applies an operator expression to a polynomial;
* ``op`` prints the canonical form of an operator expression;
* ``matrix`` dumps a representation matrix or the 16x16 R-matrix.

Every check is recorded by a report function of its layer; this module only
selects the reports, renders them and sets the exit status.  Its one record
is the declared skip of the rmatrix suite inside ``verify all``.  A verify
run over more than one family runs the units of its last deformed family in
one forked worker when the process may use a second CPU, and a run over one
deformed family runs that family's counit-antipode report there
(``taskset -c 0`` gives the serial run); the reports are printed in the same
order and bytes either way.  A failed fork, a unit that raises in either
process or a child that ends without a result means the run is repeated in
process, so its reports and errors are those of the serial run.

Exit status: 0 when every selected check passes or is declared skipped, 1 on
any failed check, 2 on usage errors.  ``verify all`` declares the rmatrix
suite skipped at (mu, nu) = (0, 0), where ``verify rmatrix`` alone is a usage
error.  Reports are byte-identical across runs; pass ``--timings`` to
include wall-clock times.  The truncation order is ``--order``, 6 by
default and at most ``MAX_ORDER``; operator expressions cap the nesting of
parentheses at ``exprparse.MAX_NESTING``, the degree of every product and
power at ``exprparse.MAX_DEGREE`` and the term counts of the two factors of
every product at ``ore.MAX_PRODUCT_TERMS``.
"""

from __future__ import annotations

import argparse
import gc
import json
import marshal
import os
import re
import sys
import threading
from dataclasses import astuple
from fractions import Fraction

from . import matrixrep, ore, structure, twist
from . import hopf as hopf_mod
from .exprparse import (MAX_DEGREE, MAX_NESTING, ExprError, parse_operator,
                        parse_polynomial)
from .ore import MAX_PRODUCT_TERMS
from .report import SCHEMA, CheckRecord, VerificationReport
from .uea import (DEFAULT_ORDER, GENERATORS, FamilyConfig, casimir,
                  centrality_check, diamond_check)

# Largest accepted truncation order: ``verify all --order 12`` takes 0.5-0.9 s
# on a 2-core Intel Xeon VM with Python 3.11 (0.9-1.5 s on one CPU), where
# ``verify algebra --order 100000`` runs past 25 s.
MAX_ORDER = 12


class UsageError(ValueError):
    pass


def _parse_param(token):
    if token == "sym":
        return "sym"
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad contraction parameter {token!r}: "
                         "expected 'sym', an integer, or p/q") from exc


def _families(token):
    if token == "both":
        return ["time", "space"]
    return [token]


def _config(family, args):
    return FamilyConfig(family, _parse_param(args.mu), _parse_param(args.nu), args.order)


# -- report units --------------------------------------------------------------
#
# A unit is ``(suite, family)``, one suite on one family (``None`` for duality
# and tables), or ``("hopf", family, report)``, one report of the hopf suite;
# ``_RUNNERS[suite](args, family[, report])`` returns the unit's reports.

def _suite_algebra(args, family):
    config = _config(family, args)
    return [diamond_check(config),
            *(centrality_check(casimir(config, which), which) for which in ("W1", "W2"))]


# The reports of the hopf suite in their printed order; each is a unit of its
# own, and a classical family has only the first three.  The report functions
# are looked up when a unit runs, so a wrapper installed on one of them (as
# ``perfbench/tracer.py`` does) sees the call.
_HOPF_REPORTS = {
    "homomorphism": lambda config: hopf_mod.check_homomorphism(config),
    "coassociativity": lambda config: hopf_mod.check_coassociativity(config),
    "counit-antipode": lambda config: hopf_mod.counit_and_antipode(config),
    "bialgebra": lambda config: hopf_mod.bialgebra_report(config),
    "universal-R": lambda config: hopf_mod.universal_R_conjugation(config),
    "subalgebras": lambda config: structure.verify_hopf_subalgebras(config),
}


def _suite_hopf(args, family, report):
    return [_HOPF_REPORTS[report](_config(family, args))]


def _suite_rmatrix(args, family):
    config = _config(family, args)
    try:
        return [matrixrep.rmatrix_report(config)]
    except matrixrep.DegenerateRepresentationError as exc:
        if args.suite != "all":
            raise
        # Inside verify all a skip keeps the other suites' verdicts.
        report = VerificationReport("rmatrix", config.echo())
        report.skip("representation",
                    "R-matrix identities in the 4x4 representation", str(exc))
        return [report]


def _suite_realization(args, family):
    config = _config(family, args)
    names = ["classical"] if family == "classical" else [f"{family}_deformed",
                                                         f"{family}_twisted"]
    reports = []
    for name in names:
        reports.append(ore.check_realization_homomorphism(name, config))
        reports.append(ore.symmetry_check(name, config))
        reports.append(ore.vanishing_report(name, config))
    if family == "time":
        reports.append(ore.transport_report(config))
    return reports


def _suite_twist(args, family):
    return [twist.twist_report(_config(family, args))]


def _suite_duality(args, family):
    return [structure.duality_report(args.order, _parse_param(args.mu),
                                     _parse_param(args.nu))]


def _suite_tables(args, family):
    return [structure.tables_report(args.order)]


# One runner per suite, in the order ``verify all`` runs them.
_RUNNERS = {
    "algebra": _suite_algebra,
    "hopf": _suite_hopf,
    "rmatrix": _suite_rmatrix,
    "realization": _suite_realization,
    "twist": _suite_twist,
    "duality": _suite_duality,
    "tables": _suite_tables,
}
SUITES = (*_RUNNERS, "all")


def _units(args):
    """The (suite, family) and (hopf, family, report) units of a verify run, in
    the order of their reports."""
    units = []
    for suite in (_RUNNERS if args.suite == "all" else (args.suite,)):
        families = _families(args.family)
        if suite in ("duality", "tables"):
            families = [None]
        elif suite == "algebra" and args.family == "both":
            families = families + ["classical"]
        elif suite == "realization":
            families = ["classical"] + [f for f in families if f != "classical"]
        if suite == "hopf":
            units += [(suite, family, report) for family in families
                      for report in list(_HOPF_REPORTS)[:3 if family == "classical" else None]]
        else:
            units += [(suite, family) for family in families]
    return units


def _run_unit(args, unit):
    suite, *rest = unit
    return _RUNNERS[suite](args, *rest)


def _available_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _plain(reports):
    """``reports`` as tuples of builtins, which ``marshal`` can send."""
    return [(r.suite, r.config, [astuple(c) for c in r.records]) for r in reports]


def _unplain(reports):
    return [VerificationReport(suite, config, [CheckRecord(*c) for c in records])
            for suite, config, records in reports]


def _run_forked(args, units, parent, child):
    """Run the units at the indices ``child`` in one forked child while this
    process runs those at ``parent``: {index: reports} of both.  ``None``
    when the fork fails, a unit raises in either process or the child ends
    without a result; the caller then repeats the run in process, which
    prints the serial run's reports or raises the serial run's exception.

    The child sends its reports through a pipe as ``marshal``-ed tuples and
    always ends in ``os._exit``, so it never returns into the caller and
    never prints.  The parent reads the pipe to the end before it waits for
    the child, so a large result cannot fill the pipe and deadlock the two.
    The objects alive at the fork are frozen out of the garbage collector
    until the child is gone, so that neither process traverses them.
    """
    read_fd, write_fd = os.pipe()
    gc.freeze()
    try:
        pid = os.fork()
    except OSError:
        gc.unfreeze()
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            result = {index: _plain(_run_unit(args, units[index])) for index in child}
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(result))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        done = {index: _run_unit(args, units[index]) for index in parent}
    except Exception:
        done = None                 # the serial run raises it again
    finally:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        gc.unfreeze()
    if done is None or status != 0:
        return None
    return {**done, **{index: _unplain(reports)
                       for index, reports in marshal.loads(data).items()}}


def _emit_reports(reports, args):
    passed = all(r.passed for r in reports)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "passed": passed,
            "reports": [r.to_dict(args.timings) for r in reports],
        }
        print(json.dumps(payload, indent=2))
    else:
        for r in reports:
            print(r.to_text(args.timings))
            print()
        total = sum(len(r.records) for r in reports)
        good = sum(sum(rec.passed for rec in r.records) for r in reports)
        print(f"overall: {'PASS' if passed else 'FAIL'} ({good}/{total} checks)")
    return 0 if passed else 1


def _cmd_verify(args):
    if args.suite in ("rmatrix", "twist", "all") and args.family == "classical":
        raise UsageError(f"suite {args.suite!r} needs a deformed family")
    if args.suite in ("hopf", "all") and args.family != "classical" and args.order < 1:
        raise UsageError(f"suite {args.suite!r} needs order >= 1 on a deformed family: "
                         "order 0 truncates away the first-order bialgebra data")
    units = _units(args)
    # The units of the run's last deformed family go to one forked child when
    # this process may use a second CPU and both sides have work.  A run that
    # leaves this process nothing (one family) forks that family's
    # counit-antipode report instead, the costliest report of the hopf suite.
    # When the forked run fails in any way, every unit runs here instead.
    last = [unit[1] for unit in units if unit[1] in ("time", "space")][-1:]
    child = [i for i, unit in enumerate(units) if unit[1] in last]
    if len(child) == len(units):
        child = [i for i, unit in enumerate(units) if unit[2:] == ("counit-antipode",)]
    parent = [i for i in range(len(units)) if i not in child]
    done = None
    if (child and parent and hasattr(os, "fork") and _available_cpus() > 1
            and threading.active_count() == 1):
        done = _run_forked(args, units, parent, child)
    if done is None:
        done = [_run_unit(args, unit) for unit in units]
    return _emit_reports([report for i in range(len(units)) for report in done[i]], args)


def _cmd_tables(args):
    family = "time" if args.which == 1 else "space"
    if args.format == "json":
        print(json.dumps(structure.render_table_json(family), indent=2))
    else:
        print(structure.render_table_text(family))
    return 0


def _cmd_apply(args):
    config = _config(args.family, args)
    try:
        op = parse_operator(args.operator)
        phi = parse_polynomial(args.polynomial)
    except ExprError as exc:
        raise UsageError(str(exc))
    bindings = config.bindings()
    if bindings:
        op = op.substitute_params(bindings)
        phi = phi.substitute(bindings)
    try:
        result = ore.apply_operator(op, phi)
    except ore.ApplyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, "operator": args.operator,
                          "polynomial": args.polynomial, "result": str(result)},
                         indent=2))
    else:
        print(result)
    return 0


def _cmd_op(args):
    try:
        op = parse_operator(args.operator)
    except ExprError as exc:
        raise UsageError(str(exc))
    bindings = FamilyConfig("classical", _parse_param(args.mu), _parse_param(args.nu)).bindings()
    if bindings:
        op = op.substitute_params(bindings)
    if args.limit:
        try:
            op = ore.classical_limit(op)
        except ore.ClassicalLimitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, "operator": args.operator,
                          "canonical": str(op)}, indent=2))
    else:
        print(op)
    return 0


def _cmd_matrix(args):
    config = _config(args.family, args)
    if args.which == "R" and config.family == "classical":
        raise UsageError("matrix R needs a deformed family (time or space)")
    if args.which == "R":
        matrix = matrixrep.build_R(config)
    else:
        matrix = matrixrep.fundamental_rep(config)[args.which]
    if args.format == "json":
        payload = {"schema": SCHEMA, "matrix": args.which, "config": config.echo()}
        payload.update(matrix.to_json_dict())
        print(json.dumps(payload, indent=2))
    else:
        print(matrix.to_text())
    return 0


OPERATOR_HELP = (f"operator expression; parentheses nest at most {MAX_NESTING} deep; "
                 f"every product a*b needs degree(a) + degree(b) <= "
                 f"{MAX_DEGREE} and every power b^n needs |n| * degree(b) <= {MAX_DEGREE}; "
                 f"each product, also inside a power, needs terms(a) * terms(b) <= "
                 f"{MAX_PRODUCT_TERMS}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jordconf",
        description="Exact verification of the lattice conformal deformations")
    sub = parser.add_subparsers(dest="command", required=True)

    def params(p):
        # Let bare negative rationals ("-1", "-1/2") pass as option values.
        p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")
        p.add_argument("--mu", default="sym", help="'sym', an integer, or p/q")
        p.add_argument("--nu", default="sym", help="'sym', an integer, or p/q")
        p.add_argument("--format", choices=("text", "json"), default="text")

    def common(p, family_choices=("time", "space", "both", "classical"),
               family_default="both"):
        params(p)
        p.add_argument("--family", choices=family_choices, default=family_default)
        p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                       help=f"series truncation order (default {DEFAULT_ORDER}; "
                            f"at most {MAX_ORDER})")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITES)
    common(verify)
    verify.add_argument("--timings", action="store_true",
                        help="include wall-clock times (breaks byte determinism)")
    verify.set_defaults(run=_cmd_verify)

    tables = sub.add_parser("tables", help="render a classification table")
    tables.add_argument("--which", type=int, choices=(1, 2), required=True)
    tables.add_argument("--format", choices=("text", "json"), default="text")
    tables.set_defaults(run=_cmd_tables)

    apply_p = sub.add_parser("apply", help="apply an operator to a polynomial")
    apply_p.add_argument("operator", help=OPERATOR_HELP)
    apply_p.add_argument("polynomial")
    common(apply_p, family_choices=("time", "space", "classical"),
           family_default="time")
    apply_p.set_defaults(run=_cmd_apply)

    op_p = sub.add_parser("op", help="canonical form of an operator expression")
    op_p.add_argument("operator", help=OPERATOR_HELP)
    params(op_p)
    op_p.add_argument("--limit", action="store_true",
                      help="take the vanishing-lattice-constant limit")
    op_p.set_defaults(run=_cmd_op)

    matrix = sub.add_parser("matrix", help="dump a representation matrix")
    matrix.add_argument("which", choices=GENERATORS + ("R",))
    common(matrix, family_choices=("time", "space", "classical"),
           family_default="time")
    matrix.set_defaults(run=_cmd_matrix)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        order = getattr(args, "order", 0)
        if order < 0:
            raise UsageError(f"--order must be a nonnegative integer, got {order}")
        if order > MAX_ORDER:
            raise UsageError(f"--order must be at most {MAX_ORDER}, got {order}")
        return args.run(args)
    except (UsageError, matrixrep.DegenerateRepresentationError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
