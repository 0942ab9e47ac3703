"""Classification grids, subalgebra closure and duality."""

from __future__ import annotations

from fractions import Fraction

import pytest

from jordconf.uea import GENERATORS, FamilyConfig, algebra, commutator_table
from jordconf.hopf import coproduct
from jordconf.structure import (classify, classification_rows, dual_commutator_table,
                                dual_coproduct_table, dual_ore, duality_report,
                                render_table_json, render_table_text,
                                verify_hopf_subalgebras)
from jordconf import ore

TIME = FamilyConfig("time")
SPACE = FamilyConfig("space")

# The nine cells of each classification grid: (mu, nu) -> (real form,
# triple label, Weyl label, equation).
EXPECTED_TIME_GRID = {
    ("+", "+"): ("so(2,2)", "U_tau(sl(2,R))", "U_tau(WM)", "(dx^2 - Dt^2)Phi = 0"),
    ("0", "+"): ("iso(2,1)", "U_tau(sl(2,R))", "U_tau(WG)", "(dx^2)Phi = 0"),
    ("-", "+"): ("so(3,1)", "U_tau(sl(2,R))", "U_tau(WE)", "(dx^2 + Dt^2)Phi = 0"),
    ("+", "0"): ("iso(2,1)", "U_tau(iso(1,1))", "U_tau(WC)", "(Dt^2)Phi = 0"),
    ("0", "0"): ("i'iso(1,1)", "U_tau(iso(1,1))", "U_tau(WA)", "degenerate"),
    ("-", "0"): ("iso(2,1)", "U_tau(iso(1,1))", "U_tau(WC)", "(Dt^2)Phi = 0"),
    ("+", "-"): ("so(3,1)", "U_tau(sl(2,R))", "U_tau(WE)", "(dx^2 + Dt^2)Phi = 0"),
    ("0", "-"): ("iso(2,1)", "U_tau(sl(2,R))", "U_tau(WG)", "(dx^2)Phi = 0"),
    ("-", "-"): ("so(2,2)", "U_tau(sl(2,R))", "U_tau(WM)", "(dx^2 - Dt^2)Phi = 0"),
}

EXPECTED_SPACE_GRID = {
    ("+", "+"): ("so(2,2)", "U_sigma(sl(2,R))", "U_sigma(WM)", "(Dx^2 - dt^2)Phi = 0"),
    ("0", "+"): ("iso(2,1)", "U_sigma(iso(1,1))", "U_sigma(WG)", "(Dx^2)Phi = 0"),
    ("-", "+"): ("so(3,1)", "U_sigma(sl(2,R))", "U_sigma(WE)", "(Dx^2 + dt^2)Phi = 0"),
    ("+", "0"): ("iso(2,1)", "U_sigma(sl(2,R))", "U_sigma(WC)", "(dt^2)Phi = 0"),
    ("0", "0"): ("i'iso(1,1)", "U_sigma(iso(1,1))", "U_sigma(WA)", "degenerate"),
    ("-", "0"): ("iso(2,1)", "U_sigma(sl(2,R))", "U_sigma(WC)", "(dt^2)Phi = 0"),
    ("+", "-"): ("so(3,1)", "U_sigma(sl(2,R))", "U_sigma(WE)", "(Dx^2 + dt^2)Phi = 0"),
    ("0", "-"): ("iso(2,1)", "U_sigma(iso(1,1))", "U_sigma(WG)", "(Dx^2)Phi = 0"),
    ("-", "-"): ("so(2,2)", "U_sigma(sl(2,R))", "U_sigma(WM)", "(Dx^2 - dt^2)Phi = 0"),
}


@pytest.mark.parametrize("family,expected", [("time", EXPECTED_TIME_GRID),
                                             ("space", EXPECTED_SPACE_GRID)])
def test_classification_grid_cell_for_cell(family, expected):
    rows = classification_rows(family)
    assert len(rows) == 9
    for row in rows:
        name, triple, weyl, equation = expected[(row.mu_sign, row.nu_sign)]
        assert row.algebra_name == name
        assert row.triple_subalgebra == triple
        assert row.weyl_label == weyl
        assert row.equation.render() == equation


def test_specific_cells():
    row = classify("+", "+", "time")
    assert (row.algebra_name, row.weyl_label) == ("so(2,2)", "U_tau(WM)")
    row = classify("0", "+", "space")
    assert row.triple_subalgebra == "U_sigma(iso(1,1))"
    assert row.weyl_label == "U_sigma(WG)"
    assert row.equation.render() == "(Dx^2)Phi = 0"
    row = classify("0", "0", "time")
    assert row.algebra_name == "i'iso(1,1)"
    assert row.k_central and row.equation.is_degenerate()


def test_classify_refuses_a_bad_sign_and_the_classical_family():
    with pytest.raises(ValueError, match="signs must be in"):
        classify("1", "+", "time")
    with pytest.raises(ValueError, match="deformed families"):
        classify("+", "+", "classical")


def test_K_is_central_in_most_contracted_algebra():
    table = commutator_table(FamilyConfig("classical", 0, 0))
    for x, y in table:
        if "K" in (x, y):
            assert table[(x, y)].is_zero()


def test_equation_tags_instantiate_as_operators():
    row = classify("+", "+", "time")
    op = row.equation.to_operator()
    fwd = ore.forward_difference("t")
    dx = ore.atom("dx")
    assert op == dx * dx - fwd * fwd
    with pytest.raises(ValueError):
        classify("0", "0", "time").equation.to_operator()


def test_renderers():
    text = render_table_text("time")
    assert "U_tau(so(2,2))" in text and "Degenerate" not in text
    data = render_table_json("space")
    assert data["table"] == 2 and len(data["cells"]) == 9


# -- Hopf subalgebras ------------------------------------------------------------

def test_subalgebra_closure_time():
    report = verify_hopf_subalgebras(TIME)
    assert report.passed
    names = {r.name for r in report.records}
    assert "iso-violating-term" in names


def test_subalgebra_closure_at_vanishing_parameter():
    report = verify_hopf_subalgebras(FamilyConfig("time", "sym", 0))
    assert report.passed
    names = {r.name for r in report.records}
    assert "iso-coproducts" in names


def test_violating_term_is_the_boost_tail():
    from jordconf.structure import _violating_terms
    from jordconf.hopf import hopf
    h = hopf(TIME)
    bad = _violating_terms(h.coproduct("K"), ("H", "P", "K"))
    # the single tail -tau*nu D (x) e^{-tau H} P
    assert not bad.is_zero()
    word = algebra(TIME).word
    assert all(word(m1).count("D") == 1 for (m1, m2) in bad.terms)  # D in the first leg
    zeroed = {k: c.substitute({"nu": 0}) for k, c in bad.terms.items()}
    assert all(c.is_zero() for c in zeroed.values())


def test_subalgebras_refuse_the_classical_family():
    with pytest.raises(ValueError, match="deformed families"):
        verify_hopf_subalgebras(FamilyConfig("classical"))


def test_subalgebra_closure_space():
    assert verify_hopf_subalgebras(SPACE).passed


@pytest.mark.parametrize("mv,nv", [(1, -1), (-1, 1), (1, 1)])
def test_subalgebra_closure_specialized_nonzero(mv, nv):
    # With the conditional parameter pinned to a nonzero value the violating
    # term is a plain nonzero tensor; there is no vanishing counterfactual.
    report = verify_hopf_subalgebras(FamilyConfig("time", mv, nv, 4))
    assert report.passed
    assert not any(r.name == "iso-violating-vanishes" for r in report.records)


# -- duality ------------------------------------------------------------------------

def test_duality_report():
    assert duality_report(4, "sym", "sym").passed


def test_bracket_duality_example():
    # time [K, H] = nu exp(-tau H) P maps onto space [K, P] = mu exp(-sigma P) H.
    dual = dual_commutator_table(algebra(TIME))
    salg = algebra(SPACE)
    expected = -salg.mul(salg.exp(-1), salg.gen("H")).scale(salg.mu)
    assert dual[("P", "K")] == expected


def test_duality_involution_on_tables():
    ttab = commutator_table(TIME)
    once = algebra(TIME.dual(), dual_commutator_table(algebra(TIME)))
    twice = dual_commutator_table(once)
    for pair, entry in ttab.items():
        assert twice[pair] == entry


def test_coproduct_duality_on_tables():
    # The conformal generators map with a sign (C1 -> -C2, C2 -> -C1), which
    # the image of a coproduct table must carry.
    time_cfg = FamilyConfig("time", order=3)
    space_cfg = time_cfg.dual()
    dual = dual_coproduct_table({g: coproduct(g, time_cfg) for g in GENERATORS})
    for g in GENERATORS:
        assert dual[g] == coproduct(g, space_cfg)


def test_ore_duality_examples():
    rho_t = ore.realization("time_deformed", TIME)
    rho_s = ore.realization("space_deformed", SPACE)
    assert dual_ore(rho_t["K"]) == rho_s["K"]
    assert dual_ore(rho_t["C1"]) == rho_s["C2"].scale(Fraction(-1))
    assert dual_ore(dual_ore(rho_t["C2"])) == rho_t["C2"]


def test_self_dual_cells():
    for signs in (("+", "+"), ("-", "-"), ("0", "0")):
        a = classify(signs[0], signs[1], "time")
        b = classify(signs[1], signs[0], "space")
        assert a.algebra_name == b.algebra_name

