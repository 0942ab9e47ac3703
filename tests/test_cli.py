"""Command-line interface: exit codes, formats, determinism."""

from __future__ import annotations

import gc
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from jordconf import cli as cli_mod
from jordconf.cli import MAX_ORDER, UsageError, main
from jordconf.exprparse import MAX_DEGREE, MAX_NESTING
from jordconf.ore import MAX_PRODUCT_TERMS
from jordconf.report import CheckRecord, VerificationReport


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
    (("op", ""), 2, "", "usage error: unexpected end of input\n"),
    (("op", "x +"), 2, "", "usage error: unexpected end of input\n"),
    (("op", "2*"), 2, "", "usage error: unexpected end of input\n"),
    (("apply", "--family", "time", "dx", ""), 2, "", "usage error: unexpected end of input\n"),
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

    def broken(args, family):
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


# -- the forked worker ---------------------------------------------------------------
#
# A verify run over more than one family runs its last deformed family in one
# forked child when it may use a second CPU; a run over one deformed family
# runs that family's counit-antipode report there instead.  A failed fork, a
# unit that raises in either process or a child that ends without a result
# means the run is repeated in process.  Every test forces the CPU count,
# counts the forks and checks that no child is left behind and that the
# garbage collector is unfrozen again.

@pytest.fixture
def forks(monkeypatch):
    made = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or real_fork())
    yield made
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert gc.get_freeze_count() == 0


def cpus(monkeypatch, count):
    monkeypatch.setattr(cli_mod, "_available_cpus", lambda: count)


def raising_twist(monkeypatch, errors):
    """Make the twist suite raise ``errors[family]`` on those families."""
    real = cli_mod._RUNNERS["twist"]

    def twist(args, family):
        if family in errors:
            raise errors[family]
        return real(args, family)

    monkeypatch.setitem(cli_mod._RUNNERS, "twist", twist)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_all_is_byte_identical_on_one_cpu_and_on_two(capsys, monkeypatch, forks, fmt):
    outputs = []
    for count in (1, 2):
        cpus(monkeypatch, count)
        outputs.append(run(capsys, "verify", "all", "--format", fmt))
    assert len(forks) == 1
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][2] == ""


@pytest.mark.parametrize("argv", [("verify", "hopf", "--family", "classical", "--order", "2"),
                                  ("verify", "algebra", "--family", "classical"),
                                  ("verify", "tables", "--order", "2")])
def test_a_run_with_one_side_stays_in_process(capsys, monkeypatch, forks, argv):
    cpus(monkeypatch, 2)
    assert run(capsys, *argv)[0] == 0
    assert forks == []


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("family", ["time", "space", "classical"])
def test_verify_hopf_is_byte_identical_on_one_cpu_and_on_two(capsys, monkeypatch, forks,
                                                              family, fmt):
    outputs = []
    for count in (1, 2):
        cpus(monkeypatch, count)
        outputs.append(run(capsys, "verify", "hopf", "--family", family, "--order", "3",
                           "--format", fmt))
    # One deformed family forks its counit-antipode report; classical has
    # no deformed family to fork.
    assert len(forks) == (0 if family == "classical" else 1)
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][2] == ""


def test_timings_give_every_record_of_both_processes_seconds(capsys, monkeypatch, forks):
    cpus(monkeypatch, 2)
    code, out, _ = run(capsys, "verify", "hopf", "--family", "time", "--order", "2",
                       "--format", "json", "--timings")
    assert code == 0 and len(forks) == 1
    reports = json.loads(out)["reports"]
    assert "counit-antipode" in [report["suite"] for report in reports]
    for report in reports:
        seconds = [check["seconds"] for check in report["checks"]]
        assert seconds and all(isinstance(s, float) and s >= 0 for s in seconds)
        # Every report computes something, in whichever process ran it.
        assert report["total_seconds"] > 0
        assert report["total_seconds"] == pytest.approx(sum(seconds), abs=1e-5)


@pytest.mark.parametrize("failing", [("counit-antipode",),
                                     ("homomorphism", "counit-antipode"),
                                     ("counit-antipode", "universal-R")])
def test_the_first_failing_hopf_report_in_unit_order_wins(capsys, monkeypatch, forks,
                                                          failing):
    # The counit-antipode report runs in the child, the others in this process.
    def raising(name):
        def report(config):
            raise UsageError(f"{name} broke")
        return report

    for name in failing:
        monkeypatch.setitem(cli_mod._HOPF_REPORTS, name, raising(name))
    results = []
    for count in (1, 2):
        cpus(monkeypatch, count)
        results.append(run(capsys, "verify", "hopf", "--family", "time", "--order", "2"))
    assert results[0] == results[1] == (2, "", f"usage error: {failing[0]} broke\n")
    assert len(forks) == 1


def test_a_run_beside_another_thread_stays_in_process(capsys, monkeypatch, forks):
    # A forked child gets only the forking thread; a lock another thread
    # holds would stay locked in the child for good.
    cpus(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    other.start()
    try:
        assert run(capsys, "verify", "twist", "--order", "2")[0] == 0
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()
    assert forks == []


@pytest.mark.parametrize("failing", [("space",), ("time", "space")])
def test_the_first_usage_error_in_unit_order_reaches_main(capsys, monkeypatch, forks, failing):
    raising_twist(monkeypatch, {f: UsageError(f"no twist on {f}") for f in failing})
    results = []
    for count in (1, 2):
        cpus(monkeypatch, count)
        results.append(run(capsys, "verify", "twist", "--order", "2"))
    assert results[0] == results[1] == (2, "", f"usage error: no twist on {failing[0]}\n")
    assert len(forks) == 1


def test_a_value_error_in_the_forked_family_reaches_the_caller(capsys, monkeypatch, forks):
    raising_twist(monkeypatch, {"space": ValueError("space twist broke")})
    for count in (1, 2):
        cpus(monkeypatch, count)
        with pytest.raises(ValueError, match="^space twist broke$"):
            main(["verify", "twist", "--order", "2"])
    assert capsys.readouterr().out == ""
    assert len(forks) == 1


def test_an_unpicklable_error_reaches_the_caller_as_itself(monkeypatch, forks):
    class LocalError(Exception):
        pass                        # a class local to a function cannot be pickled

    raising_twist(monkeypatch, {"space": LocalError("space twist broke")})
    for count in (1, 2):
        cpus(monkeypatch, count)
        with pytest.raises(LocalError, match="^space twist broke$"):
            main(["verify", "twist", "--order", "2"])
    assert len(forks) == 1


def test_a_child_that_ends_without_a_result_is_replayed_in_process(capsys, monkeypatch,
                                                                  forks):
    parent_pid = os.getpid()
    real = cli_mod._RUNNERS["twist"]

    def twist(args, family):
        if family == "space" and os.getpid() != parent_pid:
            os._exit(3)
        return real(args, family)

    monkeypatch.setitem(cli_mod._RUNNERS, "twist", twist)
    results = []
    for count in (1, 2):
        cpus(monkeypatch, count)
        results.append(run(capsys, "verify", "twist", "--order", "2"))
    assert results[0] == results[1]
    assert results[0][0] == 0 and results[0][2] == ""
    assert len(forks) == 1


def child_only_fault(fault):
    """A counit-antipode report that fails with ``fault`` in a forked child only."""
    parent_pid = os.getpid()
    real = cli_mod._HOPF_REPORTS["counit-antipode"]

    def report(config):
        if os.getpid() != parent_pid:
            if fault == "exit":
                os._exit(1)
            raise ValueError("only the child sees this")
        return real(config)

    return report


@pytest.mark.parametrize("fault", ["raise", "exit"])
@pytest.mark.parametrize("argv", [("verify", "hopf", "--family", "time", "--order", "2"),
                                  ("verify", "all", "--order", "2")])
def test_a_fault_only_the_child_sees_gives_the_serial_run(capsys, monkeypatch, forks,
                                                          argv, fault):
    monkeypatch.setitem(cli_mod._HOPF_REPORTS, "counit-antipode", child_only_fault(fault))
    results = []
    for count in (1, 2):
        cpus(monkeypatch, count)
        results.append(run(capsys, *argv))
    assert results[0] == results[1]
    assert results[0][0] == 0 and results[0][2] == ""
    assert len(forks) == 1


def test_a_result_larger_than_the_pipe_buffer_arrives_whole(capsys, monkeypatch, forks):
    # Waiting for the child before reading the pipe would deadlock here: the
    # child blocks on a full pipe and never exits.
    anchor = "x" * (1 << 20)

    def twist(args, family):
        report = VerificationReport("twist", {"family": family})
        report.note("large", anchor, True)
        return [report]

    monkeypatch.setitem(cli_mod._RUNNERS, "twist", twist)
    cpus(monkeypatch, 2)
    code, out, _ = run(capsys, "verify", "twist", "--order", "2")
    assert code == 0 and out.count(anchor) == 2 and len(forks) == 1


def test_both_processes_run_with_the_inherited_objects_frozen(capsys, monkeypatch, forks):
    def twist(args, family):
        report = VerificationReport("twist", {"family": family})
        report.note(f"frozen[{family}]", str(gc.get_freeze_count() > 0), True)
        return [report]

    monkeypatch.setitem(cli_mod._RUNNERS, "twist", twist)
    cpus(monkeypatch, 2)
    out = run(capsys, "verify", "twist", "--order", "2")[1]
    assert "frozen[time]: True" in out and "frozen[space]: True" in out
    assert len(forks) == 1


def test_the_child_encodings_round_trip_in_process():
    # The helpers the child encodes its reports with, run where a line tracer
    # sees them.
    import marshal

    report = VerificationReport("twist", {"family": "time", "order": 2})
    report.note("kept", "a = a", True)
    report.note("broken", "b = c", False, "b - c")
    report.skip("undecided", "d = e", "no data")
    report.records.append(CheckRecord("full", "f = g", False, "f - g", 0.25, "all set"))
    sent = marshal.loads(marshal.dumps(cli_mod._plain([report])))
    [back] = cli_mod._unplain(sent)
    assert back.records == report.records
    assert [type(r) for r in back.records] == [CheckRecord] * 4
    assert back.to_dict(True) == report.to_dict(True)


def test_a_failed_fork_closes_the_pipe(capsys, monkeypatch):
    cpus(monkeypatch, 1)
    serial = run(capsys, "verify", "twist", "--order", "2")
    pipes = []
    real_pipe = os.pipe
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(real_pipe()) or pipes[-1])

    def fork():
        raise BlockingIOError("no process left")

    monkeypatch.setattr(os, "fork", fork)
    cpus(monkeypatch, 2)
    assert run(capsys, "verify", "twist", "--order", "2") == serial
    assert serial[0] == 0 and serial[2] == ""
    assert gc.get_freeze_count() == 0
    assert len(pipes) == 1
    for fd in pipes[0]:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_available_cpus_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert cli_mod._available_cpus() == (os.cpu_count() or 1)


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # In a fresh interpreter: this one has loaded both for pytest.
    src = Path(cli_mod.__file__).resolve().parents[1]
    code = ("import sys; before = set(sys.modules); import jordconf.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(src))).stdout
    loaded = out.split()
    assert "jordconf.cli" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_a_second_main_call_builds_no_parser(capsys, monkeypatch):
    import argparse

    run(capsys, "op", "x")
    built = []
    real_init = argparse.ArgumentParser.__init__

    def init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
    assert run(capsys, "op", "x") == (0, "x\n", "")
    assert built == [] and cli_mod.build_parser() is cli_mod.build_parser()
