"""Command-line front end.

Subcommands:

* ``verify SUITE`` runs a verification suite and reports pass/fail per check
  (suites: algebra, hopf, rmatrix, realization, twist, duality, tables, all);
* ``tables`` renders classification table 1 or 2;
* ``apply`` applies an operator expression to a polynomial;
* ``matrix`` dumps a representation matrix or the 16x16 R-matrix.

Exit status: 0 when every selected check passes or is declared skipped, 1 on
any failed check, 2 on usage errors.  ``verify all`` declares the rmatrix
suite skipped at (mu, nu) = (0, 0), where ``verify rmatrix`` alone is a usage
error.  Reports are byte-identical across runs; pass ``--timings`` to
include wall-clock times.  The default truncation order is 6, overridable
with the JORDCONF_ORDER environment variable or ``--order``, up to
``MAX_ORDER``; operator expressions cap the degree of every product and
power at ``exprparse.MAX_DEGREE`` and the term counts of the two factors of
every product at ``ore.MAX_PRODUCT_TERMS``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import matrixrep, ore, structure, twist
from . import hopf as hopf_mod
from .exprparse import MAX_DEGREE, ExprError, parse_operator, parse_polynomial
from .ore import MAX_PRODUCT_TERMS
from .report import SCHEMA, VerificationReport
from .uea import (DEFAULT_ORDER, GENERATORS, FamilyConfig, casimir,
                  centrality_check, diamond_check)

SUITES = ("algebra", "hopf", "rmatrix", "realization", "twist", "duality",
          "tables", "all")
# Largest accepted truncation order: ``verify all --order 12`` takes about
# 1.6 s on a 2-core Intel Xeon VM with Python 3.11, where ``verify algebra
# --order 100000`` runs past 25 s.
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


def _default_order():
    env = os.environ.get("JORDCONF_ORDER")
    if env is None:
        return DEFAULT_ORDER
    try:
        value = int(env)
        if value < 0:
            raise ValueError
    except ValueError:
        raise UsageError(f"JORDCONF_ORDER must be a nonnegative integer, got {env!r}")
    if value > MAX_ORDER:
        raise UsageError(f"JORDCONF_ORDER must be at most {MAX_ORDER}, got {env!r}")
    return value


def _families(token):
    if token == "both":
        return ["time", "space"]
    return [token]


def _config(family, args):
    return FamilyConfig(family, _parse_param(args.mu), _parse_param(args.nu), args.order)


# -- suite runners -------------------------------------------------------------

def _suite_algebra(args):
    reports = []
    extra = ["classical"] if args.family == "both" else []
    for family in _families(args.family) + extra:
        config = _config(family, args)
        reports.append(diamond_check(config))
        for which in ("W1", "W2"):
            rep = centrality_check(casimir(config, which))
            rep.suite = f"centrality[{which}]"
            reports.append(rep)
    return reports


def _suite_hopf(args):
    reports = []
    for family in _families(args.family):
        config = _config(family, args)
        reports.append(hopf_mod.check_homomorphism(config))
        reports.append(hopf_mod.check_coassociativity(config))
        reports.append(hopf_mod.counit_and_antipode(config))
        if family != "classical":
            reports.append(hopf_mod.bialgebra_report(config))
            reports.append(hopf_mod.universal_R_conjugation(config))
            reports.append(structure.verify_hopf_subalgebras(config))
    return reports


def _suite_rmatrix(args):
    reports = []
    for family in _families(args.family):
        config = _config(family, args)
        try:
            reports.append(matrixrep.rmatrix_report(config))
        except matrixrep.DegenerateRepresentationError as exc:
            if args.suite != "all":
                raise
            # Inside verify all a skip keeps the other suites' verdicts.
            report = VerificationReport("rmatrix", config.echo())
            report.skip("representation",
                        "R-matrix identities in the 4x4 representation", str(exc))
            reports.append(report)
    return reports


def _suite_realization(args):
    reports = []
    classical = _config("classical", args)
    reports.append(ore.check_realization_homomorphism("classical", classical))
    reports.append(ore.symmetry_check("classical", classical))
    reports.append(_vanishing_report("classical", classical))
    for family in _families(args.family):
        if family == "classical":
            continue
        config = _config(family, args)
        for name in (f"{family}_deformed", f"{family}_twisted"):
            reports.append(ore.check_realization_homomorphism(name, config))
            reports.append(ore.symmetry_check(name, config))
            reports.append(_vanishing_report(name, config))
        if family == "time":
            reports.append(ore.transport_report(config))
    return reports


def _vanishing_report(name, config):
    report = VerificationReport(f"casimir-operators[{name}]", config.echo())
    for which in ("W1", "W2"):
        report.check(f"vanishing[{which}]",
                     f"{which} realizes to the zero operator in {name}",
                     ore.casimir_operator(name, config, which))
    return report


def _suite_twist(args):
    return [twist.twist_report(_config(family, args))
            for family in _families(args.family)]


def _suite_duality(args):
    return [structure.duality_report(args.order, _parse_param(args.mu),
                                     _parse_param(args.nu))]


def _suite_tables(args):
    report = VerificationReport("tables", {"order": args.order})
    for family in ("time", "space"):
        rows = structure.classification_rows(family)
        report.note(f"total[{family}]", "the grid has all nine sign cells",
                    len(rows) == 9 and len({(r.mu_sign, r.nu_sign) for r in rows}) == 9)
    for m in structure.SIGNS:
        for n in structure.SIGNS:
            a = structure.classify(m, n, "time")
            b = structure.classify(m, n, "space")
            report.check_equal(f"consistent[{m},{n}]",
                               "both families share the real form per cell",
                               a.algebra_name, b.algebra_name)
    for family in ("time", "space"):
        for row in structure.classification_rows(family):
            if row.equation.is_degenerate():
                continue
            op = row.equation.to_operator()
            cfg = FamilyConfig(family,
                               {"+": 1, "0": 0, "-": -1}[row.mu_sign],
                               {"+": 1, "0": 0, "-": -1}[row.nu_sign],
                               args.order)
            inv = ore.casimir_operator(f"{family}_deformed", cfg, "E_def")
            matches = (op - inv).is_zero() or (op + inv).is_zero()
            report.note(f"equation[{family},{row.mu_sign},{row.nu_sign}]",
                        f"cell equation {row.equation.render()} instantiates "
                        "the invariant operator up to overall sign",
                        matches, f"{op} vs {inv}")
    degenerate = structure.classify("0", "0", "time")
    report.note("degenerate-flag", "the (0,0) cell is degenerate with K central",
                degenerate.equation.is_degenerate() and degenerate.k_central)
    return [report]


def _suite_all(args):
    reports = []
    for runner in (_suite_algebra, _suite_hopf, _suite_rmatrix,
                   _suite_realization, _suite_twist, _suite_duality,
                   _suite_tables):
        reports.extend(runner(args))
    return reports


_RUNNERS = {
    "algebra": _suite_algebra,
    "hopf": _suite_hopf,
    "rmatrix": _suite_rmatrix,
    "realization": _suite_realization,
    "twist": _suite_twist,
    "duality": _suite_duality,
    "tables": _suite_tables,
    "all": _suite_all,
}


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
    runner = _RUNNERS[args.suite]
    if args.suite in ("rmatrix", "twist", "all") and args.family == "classical":
        raise UsageError(f"suite {args.suite!r} needs a deformed family")
    if args.suite in ("hopf", "all") and args.family != "classical" and args.order < 1:
        raise UsageError(f"suite {args.suite!r} needs order >= 1 on a deformed family: "
                         "order 0 truncates away the first-order bialgebra data")
    return _emit_reports(runner(args), args)


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


OPERATOR_HELP = (f"operator expression; every product a*b needs degree(a) + degree(b) <= "
                 f"{MAX_DEGREE} and every power b^n needs |n| * degree(b) <= {MAX_DEGREE}; "
                 f"each product, also inside a power, needs terms(a) * terms(b) <= "
                 f"{MAX_PRODUCT_TERMS}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jordconf",
        description="Exact verification of the lattice conformal deformations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family_choices=("time", "space", "both", "classical"),
               family_default="both"):
        # Let bare negative rationals ("-1", "-1/2") pass as option values.
        p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")
        p.add_argument("--family", choices=family_choices, default=family_default)
        p.add_argument("--mu", default="sym", help="'sym', an integer, or p/q")
        p.add_argument("--nu", default="sym", help="'sym', an integer, or p/q")
        p.add_argument("--order", type=int, default=None,
                       help=f"series truncation order (default {DEFAULT_ORDER}, also "
                            f"JORDCONF_ORDER; at most {MAX_ORDER})")
        p.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITES)
    common(verify)
    verify.add_argument("--timings", action="store_true",
                        help="include wall-clock times (breaks byte determinism)")

    tables = sub.add_parser("tables", help="render a classification table")
    tables.add_argument("--which", type=int, choices=(1, 2), required=True)
    tables.add_argument("--format", choices=("text", "json"), default="text")

    apply_p = sub.add_parser("apply", help="apply an operator to a polynomial")
    apply_p.add_argument("operator", help=OPERATOR_HELP)
    apply_p.add_argument("polynomial")
    common(apply_p, family_choices=("time", "space", "classical"),
           family_default="time")

    op_p = sub.add_parser("op", help="canonical form of an operator expression")
    op_p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")
    op_p.add_argument("operator", help=OPERATOR_HELP)
    op_p.add_argument("--mu", default="sym")
    op_p.add_argument("--nu", default="sym")
    op_p.add_argument("--limit", action="store_true",
                      help="take the vanishing-lattice-constant limit")
    op_p.add_argument("--format", choices=("text", "json"), default="text")

    matrix = sub.add_parser("matrix", help="dump a representation matrix")
    matrix.add_argument("which", choices=GENERATORS + ("R",))
    common(matrix, family_choices=("time", "space", "classical"),
           family_default="time")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "order"):
            if args.order is None:
                args.order = _default_order()
            elif args.order < 0:
                raise UsageError(f"--order must be a nonnegative integer, got {args.order}")
            elif args.order > MAX_ORDER:
                raise UsageError(f"--order must be at most {MAX_ORDER}, got {args.order}")
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "tables":
            return _cmd_tables(args)
        if args.command == "apply":
            return _cmd_apply(args)
        if args.command == "op":
            return _cmd_op(args)
        if args.command == "matrix":
            return _cmd_matrix(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, matrixrep.DegenerateRepresentationError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
