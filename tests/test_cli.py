"""Command-line interface: exit codes, formats, determinism."""

from __future__ import annotations

import json
import re

import pytest

from jordconf.cli import MAX_ORDER, main
from jordconf.exprparse import MAX_DEGREE, MAX_NESTING
from jordconf.ore import MAX_PRODUCT_TERMS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_hopf_json(capsys):
    code, out, _ = run(capsys, "verify", "hopf", "--family", "time",
                       "--mu", "sym", "--nu", "sym", "--order", "4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "jordconf.report/1"
    assert data["passed"] is True
    suites = {r["suite"] for r in data["reports"]}
    assert "coproduct-homomorphism" in suites
    for report in data["reports"]:
        for check in report["checks"]:
            assert check["status"] == "pass"
            assert "anchor" in check and check["anchor"]
            assert "seconds" not in check


def test_verify_algebra_text(capsys):
    code, out, _ = run(capsys, "verify", "algebra", "--family", "time",
                       "--order", "4")
    assert code == 0
    assert "overall: PASS" in out


def test_reports_are_byte_identical(capsys):
    args = ("verify", "rmatrix", "--family", "time", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_timings_flag_adds_seconds(capsys):
    code, out, _ = run(capsys, "verify", "tables", "--format", "json", "--timings")
    assert code == 0
    data = json.loads(out)
    assert "total_seconds" in data["reports"][0]


def test_tables_text_and_json(capsys):
    code, out, _ = run(capsys, "tables", "--which", "1")
    assert code == 0
    assert "U_tau(so(2,2))" in out
    code, out, _ = run(capsys, "tables", "--which", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "space"
    assert len(data["cells"]) == 9


def test_apply_discrete_wave_operator(capsys):
    code, out, _ = run(capsys, "apply", "--family", "time",
                       "(nu*dx^2 - mu*Dt^2)", "mu*x^2 + nu*t*(t-tau)")
    assert code == 0
    assert out.strip() == "0"


def test_apply_shift(capsys):
    code, out, _ = run(capsys, "apply", "Tt^-1", "t")
    assert code == 0
    assert out.strip() == "t - tau"


def test_apply_json(capsys):
    code, out, _ = run(capsys, "apply", "--format", "json", "Dt", "t*(t-tau)")
    assert code == 0
    assert json.loads(out)["result"] == "2*t"


def test_apply_specialized_parameters(capsys):
    code, out, _ = run(capsys, "apply", "--mu", "1", "--nu", "1",
                       "(nu*dx^2 - mu*Dt^2)", "mu*x^2 + nu*t*(t-tau)")
    assert code == 0
    assert out.strip() == "0"


def test_negative_rational_parameters(capsys):
    code, out, _ = run(capsys, "verify", "algebra", "--family", "time",
                       "--mu", "-1/2", "--nu", "-3", "--order", "3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] and data["reports"][0]["config"]["mu"] == "-1/2"


def test_op_canonical_form(capsys):
    code, out, _ = run(capsys, "op", "Dt*t")
    assert code == 0
    assert out.strip() == "Tt - tau^-1*t + tau^-1*t*Tt"
    code, out, _ = run(capsys, "op", "Dt", "--limit")
    assert code == 0
    assert out.strip() == "dt"
    code, out, _ = run(capsys, "op", "nu*dx^2 - mu*Dt^2", "--mu", "1", "--nu", "0",
                       "--format", "json")
    assert code == 0
    assert "Tt" in json.loads(out)["canonical"]


def test_op_negative_power_on_parameter_rejected(capsys):
    code, _, err = run(capsys, "op", "1/2*tau^-1", "--limit")
    assert code == 2 and "usage error" in err


def test_matrix_dump(capsys):
    code, out, _ = run(capsys, "matrix", "D")
    assert code == 0
    assert out.splitlines()[0].split() == ["0", "1", "0", "0"]
    code, out, _ = run(capsys, "matrix", "R", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == data["cols"] == 16
    assert data["entries"][0][0] == "1 - tau^2*nu"


def test_bad_parameter_token_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "algebra", "--mu", "bogus")
    assert code == 2
    assert "usage error" in err


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def test_classical_family_rejected_for_matrix_suite(capsys):
    code, _, err = run(capsys, "verify", "rmatrix", "--family", "classical")
    assert code == 2


@pytest.mark.parametrize("argv", [("verify", "rmatrix"), ("matrix", "K"), ("matrix", "R")])
def test_degenerate_contraction_is_usage_error(capsys, argv):
    # (mu, nu) = (0, 0) has no faithful fundamental representation.
    code, out, err = run(capsys, *argv, "--mu", "0", "--nu", "0")
    assert code == 2 and out == ""
    assert "usage error" in err and "(mu, nu) = (0, 0)" in err


def test_classical_R_matrix_is_usage_error(capsys):
    code, _, err = run(capsys, "matrix", "R", "--family", "classical")
    assert code == 2
    assert "usage error" in err and "time or space" in err


@pytest.mark.parametrize("suite,family", [("hopf", "time"), ("hopf", "both"), ("all", "both")])
def test_order_zero_on_deformed_hopf_suite_is_usage_error(capsys, suite, family):
    code, out, err = run(capsys, "verify", suite, "--family", family, "--order", "0")
    assert code == 2 and out == ""
    assert "order >= 1" in err


@pytest.mark.parametrize("argv", [("verify", "algebra"), ("matrix", "H")])
def test_negative_order_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--order", "-1")
    assert code == 2 and out == ""
    assert "usage error: --order must be a nonnegative integer, got -1" in err


def test_order_zero_on_classical_hopf_suite_runs(capsys):
    code, out, _ = run(capsys, "verify", "hopf", "--family", "classical", "--order", "0")
    assert code == 0
    assert "overall: PASS" in out


def test_classical_realization_suite_runs_only_the_classical_realization(capsys):
    code, out, _ = run(capsys, "verify", "realization", "--family", "classical")
    assert code == 0
    suites = re.findall(r"^suite (\S+) \[", out, re.M)
    assert suites == ["realization[classical]", "symmetry[classical]",
                      "casimir-operators[classical]"]
    assert out.endswith("overall: PASS (23/23 checks)\n")


def test_expression_error_is_usage_error(capsys):
    code, _, err = run(capsys, "apply", "dx^-1", "x")
    assert code == 2
    assert "usage error" in err


TOO_DEEP = (f"usage error: parentheses nested too deep: {MAX_NESTING + 1} levels exceed "
            f"the cap {MAX_NESTING}\n")
PARSER_CASES = [
    (("op", "x $ t"), 2, "", "usage error: unexpected character '$'\n"),
    (("op", "(x"), 2, "", "usage error: expected ')', found end of input\n"),
    (("op", "x)"), 2, "", "usage error: trailing input at ')'\n"),
    (("op", "x^t"), 2, "", "usage error: exponent must be an integer\n"),
    (("op", "1/0"), 2, "", "usage error: malformed rational literal\n"),
    (("op", "y"), 2, "", "usage error: unknown symbol 'y'\n"),
    (("op", "*x"), 2, "", "usage error: unexpected token '*'\n"),
    (("op", "(-x)"), 0, "-x\n", ""),
    (("op", "(+x)"), 0, "x\n", ""),
    (("op", "x "), 0, "x\n", ""),
    (("apply", "dt", "dx"), 2, "",
     "usage error: expected a polynomial, found derivative or shift symbols\n"),
    (("op", "(" * MAX_NESTING + "x" + ")" * MAX_NESTING), 0, "x\n", ""),
    (("op", "(" * 200 + "x" + ")" * 200), 2, "", TOO_DEEP),
    (("apply", "(" * 200 + "dx" + ")" * 200, "x"), 2, "", TOO_DEEP),
    (("apply", "dx", "(" * 200 + "x" + ")" * 200), 2, "", TOO_DEEP),
]


def _case_id(argv):
    # A run of 100 or more parentheses shows as its count: "(*200x)*200".
    return re.sub(r"([()])\1{99,}", lambda m: f"{m.group(1)}*{len(m.group(0))}",
                  " ".join(argv))


@pytest.mark.parametrize("argv,code,out,err", PARSER_CASES,
                         ids=[_case_id(case[0]) for case in PARSER_CASES])
def test_each_parser_branch_ends_in_output_or_a_usage_error(capsys, argv, code, out, err):
    assert run(capsys, *argv) == (code, out, err)


def test_failing_check_gives_exit_one(capsys, monkeypatch):
    # A mutated bracket table must drive the exit status to 1.
    from jordconf import cli as cli_mod
    from jordconf.uea import FamilyConfig, commutator_table, diamond_check
    from jordconf.poly import ParamPoly

    def broken(args):
        from jordconf.uea import algebra
        config = FamilyConfig("time", order=args.order)
        table = commutator_table(config)
        alg = algebra(config)
        table[("P", "K")] = table[("P", "K")] - alg.gen("H").scale(ParamPoly.var("tau"))
        return [diamond_check(config, table=table)]

    monkeypatch.setitem(cli_mod._RUNNERS, "algebra", broken)
    code, out, _ = run(capsys, "verify", "algebra", "--order", "3")
    assert code == 1
    assert "FAIL" in out


# The caps are checked before any computation, so these tests run nothing slow.

def test_order_above_the_cap_is_usage_error(capsys):
    assert MAX_ORDER >= 10  # every order the tests, goldens and benchmark use
    code, out, err = run(capsys, "verify", "algebra", "--order", str(MAX_ORDER + 1))
    assert code == 2 and out == ""
    assert f"usage error: --order must be at most {MAX_ORDER}, got {MAX_ORDER + 1}" in err
    code, _, _ = run(capsys, "matrix", "D", "--order", str(MAX_ORDER))
    assert code == 0


@pytest.mark.parametrize("expr,degree", [("Dt^100000", 1), ("Tx^-33", 1),
                                         ("(Dt^8)^5", 8), ("(x*t)^17", 2)])
def test_power_above_the_cap_is_usage_error(capsys, expr, degree):
    assert MAX_DEGREE >= 10
    code, out, err = run(capsys, "op", expr)
    assert code == 2 and out == ""
    assert f"base degree {degree} exceeds the cap {MAX_DEGREE}" in err
    code, _, err = run(capsys, "apply", expr, "x")
    assert code == 2 and "power too large" in err


@pytest.mark.parametrize("expr,degrees", [("Dt^32*Dt", "32 + 1"), ("Dt^16*Dt^16*Dt", "32 + 1"),
                                          ("x*(t*Dt^31)", "1 + 32")])
def test_product_above_the_cap_is_usage_error(capsys, expr, degrees):
    code, out, err = run(capsys, "op", expr)
    assert code == 2 and out == ""
    assert f"product too large: degrees {degrees} exceed the cap {MAX_DEGREE}" in err


def test_power_and_product_at_the_cap_parse(capsys):
    for expr in (f"Tx^{MAX_DEGREE}", f"Tx^-{MAX_DEGREE}", f"(x*t)^{MAX_DEGREE // 2}",
                 f"Dt^{MAX_DEGREE // 2}*Dt^{MAX_DEGREE // 2}", f"3*x*Dt^{MAX_DEGREE - 1}"):
        code, out, _ = run(capsys, "op", expr)
        assert code == 0 and out.strip()


# -- declared skips ------------------------------------------------------------------

def test_verify_all_at_zero_zero_skips_rmatrix(capsys):
    # verify rmatrix alone is a usage error at (0, 0); inside verify all the
    # suite is declared skipped and every other verdict is kept.
    code, out, err = run(capsys, "verify", "all", "--mu", "0", "--nu", "0", "--order", "2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    for family in ("time", "space"):
        header = f"suite rmatrix [family={family} mu=0 nu=0 order=2]"
        at = lines.index(header)
        assert lines[at + 1] == ("  skip  representation: "
                                 "R-matrix identities in the 4x4 representation")
        assert lines[at + 2].startswith("        reason: (mu, nu) = (0, 0) is unsupported")
        assert lines[at + 3] == "suite rmatrix: PASS (0/1 checks, 1 skipped)"
    # The seed vanishes at (0, 0): no descendant, and each is declared skipped.
    assert "  skip  descendants: 10 distinct transported solutions found" in lines
    assert "  skip  transport[9]: E annihilates descendant 9" in lines
    assert not any(line.startswith("  FAIL") for line in lines)
    statuses = [line.split()[0] for line in lines if line.startswith("  ")
                and line.split()[0] in ("pass", "skip")]
    good, skipped = statuses.count("pass"), statuses.count("skip")
    assert skipped == 2 + 2 + 10
    assert lines[-1] == f"overall: PASS ({good}/{good + skipped} checks)"
    code, out, _ = run(capsys, "verify", "all", "--mu", "0", "--nu", "0", "--order", "2",
                       "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["passed"]
    skips = [(r["suite"], c) for r in payload["reports"] for c in r["checks"]
             if c["status"] == "skip"]
    assert [suite for suite, _ in skips] == ["rmatrix"] * 2 + ["solution-transport"] * 12
    assert all(c["reason"] and "residual" not in c for _, c in skips)


@pytest.mark.parametrize("mu,nu,found", [("0", "1", 6), ("1", "0", 6), ("0", "0", 0),
                                         ("0", "-2/3", 6)])
def test_realization_skips_descendants_where_the_seed_degenerates(capsys, mu, nu, found):
    code, out, _ = run(capsys, "verify", "realization", "--family", "time",
                       "--mu", mu, "--nu", nu, "--order", "2")
    assert code == 0 and "FAIL" not in out
    lines = out.splitlines()
    at = lines.index("  skip  descendants: 10 distinct transported solutions found")
    reason = f"        reason: mu*nu = 0 degenerates the seed; {found} found"
    assert lines[at + 1] == reason
    for idx in range(10):
        line = f"  skip  transport[{idx}]: E annihilates descendant {idx}"
        assert (line in lines) == (idx >= found)
    # At (0, 0) the seed itself is the zero polynomial, so its record is skipped too.
    seeded = (mu, nu) != ("0", "0")
    seed_line = f"  {'pass' if seeded else 'skip'}  seed: E annihilates mu*x^2 + nu*t*(t - tau)"
    at = lines.index(seed_line)
    if not seeded:
        assert lines[at + 1] == "        reason: the seed specializes to the zero polynomial"
    assert (f"suite solution-transport: PASS ({seeded + found}/12 checks, "
            f"{12 - seeded - found} skipped)") in lines


# -- the size cap on expression products ---------------------------------------------

@pytest.mark.parametrize("expr,sizes", [("(x+t+dx+dt+Tx+Tt)^16", "844 x 6"),
                                        ("(x+Dt+Tx)^32", "1140 x 4")])
def test_power_of_a_large_sum_is_usage_error(capsys, expr, sizes):
    # Both stay under the degree cap; the power is refused at the first step
    # whose factors' term counts multiply past the cap.
    assert MAX_PRODUCT_TERMS == 4096
    code, out, err = run(capsys, "op", expr)
    assert code == 2 and out == ""
    assert f"product too large: {sizes} terms exceed the cap {MAX_PRODUCT_TERMS}" in err


def test_product_of_large_sums_is_usage_error(capsys):
    code, out, err = run(capsys, "op", "(x+t+dx+dt+Tx+Tt)^4*(x+t+dx+dt+Tx+Tt)^4")
    assert code == 2 and out == ""
    assert f"product too large: 186 x 186 terms exceed the cap {MAX_PRODUCT_TERMS}" in err
    code, _, err = run(capsys, "apply", "(x+t+dx+dt+Tx+Tt)^4*(x+t+dx+dt+Tx+Tt)^4", "x")
    assert code == 2 and "product too large" in err


def test_products_under_the_size_cap_parse(capsys):
    for expr in ("(x+t+dx+dt+Tx+Tt)^5", "(x+t+dx+dt+Tx+Tt)^2*(x+t+dx+dt+Tx+Tt)^3"):
        code, out, _ = run(capsys, "op", expr)
        assert code == 0 and out.strip()


@pytest.mark.parametrize("command", ["op", "apply"])
def test_help_states_the_size_cap(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"terms(a) * terms(b) <= {MAX_PRODUCT_TERMS}" in help_text
