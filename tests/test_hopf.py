"""Coproducts, Hopf axioms, cocommutators, Yang-Baxter checks."""

from __future__ import annotations

from fractions import Fraction

import pytest

import jordconf.hopf as hopf_module
import jordconf.uea as uea_module
from jordconf.poly import ParamPoly
from jordconf.uea import (DUAL_GEN, DUAL_SIGN, GENERATORS, Algebra, FamilyConfig, algebra,
                          dual_image)
from jordconf.hopf import (AntipodeError, Hopf, WedgeElement, _exp_action,
                           _exp_tensor, _gen_tensor, bialgebra_report,
                           check_coassociativity, check_homomorphism,
                           classical_r_matrix, cocommutator_from_r, coproduct,
                           coproduct_extend, counit_and_antipode,
                           first_order_antisymmetrization, hopf,
                           schouten_cybe, tensor_of, tensor_unit, triangular_product,
                           universal_R_conjugation, universal_r, wedge)

TIME = FamilyConfig("time")
SPACE = FamilyConfig("space")
CLASSICAL = FamilyConfig("classical")


def _tau():
    return ParamPoly.var("tau")


def _nu():
    return ParamPoly.var("nu")


# -- tabulated coproducts --------------------------------------------------------

def test_coproduct_H_primitive():
    alg = algebra(TIME)
    expected = tensor_of(alg.one(), alg.gen("H")) + tensor_of(alg.gen("H"), alg.one())
    assert coproduct("H", TIME) == expected


def test_coproduct_K_has_single_tail():
    alg = algebra(TIME)
    expected = (tensor_of(alg.one(), alg.gen("K"))
                + tensor_of(alg.gen("K"), alg.one())
                - tensor_of(alg.gen("D"), alg.mul(alg.exp(-1), alg.gen("P")))
                .scale(_tau() * _nu()))
    assert coproduct("K", TIME) == expected


def test_order_zero_coproducts_are_primitive():
    config = FamilyConfig("time", order=0)
    alg = algebra(config)
    for g in GENERATORS:
        expected = tensor_of(alg.one(), alg.gen(g)) + tensor_of(alg.gen(g), alg.one())
        assert coproduct(g, config) == expected


# -- multiplicative extension -------------------------------------------------------

def test_extend_on_square():
    alg = algebra(TIME)
    h2 = alg.mul(alg.gen("H"), alg.gen("H"))
    d = coproduct("H", TIME)
    assert coproduct_extend(h2) == d * d


def test_exp_series_is_group_like():
    alg = algebra(TIME)
    s = alg.exp(1)
    assert coproduct_extend(s) == tensor_of(s, s)


def test_coproduct_of_casimir_is_central_in_tensor_square():
    from jordconf.uea import casimir
    w2 = casimir(TIME, "W2")
    dw2 = coproduct_extend(w2)
    for g in GENERATORS:
        dg = coproduct(g, TIME)
        assert (dw2 * dg - dg * dw2).is_zero()


# -- homomorphism and coassociativity ----------------------------------------------

@pytest.mark.parametrize("config", [TIME, SPACE, CLASSICAL])
def test_coproduct_is_algebra_homomorphism(config):
    report = check_homomorphism(config)
    assert report.passed
    assert len(report.records) == 15


def test_H_C2_pair_specifically():
    h = hopf(TIME)
    bracket = algebra(TIME).table[("H", "C2")]
    dh, dc2 = h.coproduct("H"), h.coproduct("C2")
    assert (h.extend(bracket) - (dh * dc2 - dc2 * dh)).is_zero()


def test_mutated_coproduct_fails_homomorphism():
    # Drop the last tail term of coproduct(C2): the (H, C2) pair must fail.
    alg = algebra(TIME)
    mutated = (tensor_of(alg.one(), alg.gen("C2"))
               + tensor_of(alg.gen("C2"), alg.exp(-1))
               + tensor_of(alg.gen("D"), alg.mul(alg.exp(-1), alg.gen("K")))
               .scale(2 * _tau()))
    report = check_homomorphism(TIME, coproducts={"C2": mutated})
    assert not report.passed
    failing = {r.name for r in report.records if not r.passed}
    assert "hom[H,C2]" in failing


@pytest.mark.parametrize("config", [TIME, SPACE, CLASSICAL])
def test_coassociativity(config):
    report = check_coassociativity(config)
    assert report.passed
    assert len(report.records) == 6


# -- counit and antipode --------------------------------------------------------------

def test_counit_axiom_on_K():
    h = hopf(TIME)
    left = h._apply_counit(h.coproduct("K"), 0)
    assert left == algebra(TIME).gen("K")


@pytest.mark.parametrize("config", [TIME, SPACE, CLASSICAL])
def test_counit_and_antipode_axioms(config):
    eps, smap, report = counit_and_antipode(config)
    assert report.passed
    assert all(v == 0 for v in eps.values())


def test_antipode_closed_forms_time():
    # Solving the axiom by hand gives S(H) = -H, S(P) = -P e^{-tau H},
    # S(D) = -D e^{tau H}, S(C1) = -C1 e^{tau H}, S(K) = -K - tau*nu D P.
    alg = algebra(TIME)
    _, smap, _ = counit_and_antipode(TIME)
    assert smap["H"] == -alg.gen("H")
    assert smap["P"] == -alg.mul(alg.gen("P"), alg.exp(-1))
    assert smap["D"] == -alg.mul(alg.gen("D"), alg.exp(1))
    assert smap["C1"] == -alg.mul(alg.gen("C1"), alg.exp(1))
    assert smap["K"] == (-alg.gen("K")
                         - alg.mul(alg.gen("D"), alg.gen("P")).scale(_tau() * _nu()))


def test_antipode_closed_forms_space():
    # The generator exchange carries the time antipode onto the space one:
    # S(dual(X)) = dual(S(X)), where dual(C1) = -C2.
    alg = algebra(TIME)
    time_images = {
        "H": -alg.gen("H"),
        "P": -alg.mul(alg.gen("P"), alg.exp(-1)),
        "D": -alg.mul(alg.gen("D"), alg.exp(1)),
        "C1": -alg.mul(alg.gen("C1"), alg.exp(1)),
        "K": -alg.gen("K") - alg.mul(alg.gen("D"), alg.gen("P")).scale(_tau() * _nu()),
    }
    _, smap, _ = counit_and_antipode(SPACE)
    for g, image in time_images.items():
        assert smap[DUAL_GEN[g]].scale(DUAL_SIGN[g]) == dual_image(image), g


def oracle_antipode(h):
    """The order-by-order solve: start from S(X) = -X, then cancel the
    degree-k part of every left residual for k = 1..N."""
    smap = {g: -h.alg.gen(g) for g in GENERATORS}
    rounds = 0 if h.config.family == "classical" else h.config.order
    for k in range(1, rounds + 1):
        for g in GENERATORS:
            part = h._antipode_residual(smap, g).map_coeffs(lambda c: ParamPoly._raw(
                {e: v for e, v in c.terms.items() if e[0] + e[1] == k}, c.laurent))
            smap[g] = smap[g] - part
    return smap


@pytest.mark.parametrize("params", [("sym", "sym"), (1, -1)])
@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("family", ["time", "space", "classical"])
def test_triangular_antipode_matches_order_by_order_oracle(family, order, params):
    h = Hopf(FamilyConfig(family, *params, order=order))
    assert h.antipode() == oracle_antipode(h)


def test_antipode_rejects_tables_that_are_not_triangular():
    alg = algebra(TIME)
    one, gen = alg.one(), alg.gen
    # No H (x) m2 term: the leading part of coproduct(H) is zero.
    with pytest.raises(AntipodeError, match="leading part"):
        Hopf(TIME, {"H": tensor_of(one, gen("H"))}).antipode()
    # The first legs of coproduct(P) and coproduct(D) need each other.
    cycle = {"P": coproduct("P", TIME) + tensor_of(gen("D"), one).scale(_tau()),
             "D": coproduct("D", TIME) + tensor_of(gen("P"), one).scale(_tau())}
    with pytest.raises(AntipodeError, match="solved next"):
        Hopf(TIME, cycle).antipode()


def test_antipode_back_substitution_to_low_order():
    # S(D) through order 2 satisfies the axiom when truncated there.
    config = FamilyConfig("time", order=2)
    _, smap, report = counit_and_antipode(config)
    alg = algebra(config)
    tau = _tau()
    expected = (-alg.gen("D") - alg.gen("H").scale(tau)
                - alg.mul(alg.gen("H"), alg.gen("D")).scale(tau)
                - alg.mul(alg.gen("H"), alg.gen("H")).scale(tau * tau * Fraction(1, 2))
                - alg.mul(alg.mul(alg.gen("H"), alg.gen("H")), alg.gen("D"))
                .scale(tau * tau * Fraction(1, 2)))
    assert smap["D"] == expected
    assert report.passed


# -- cocommutators ------------------------------------------------------------------

def test_cocommutator_table_time():
    tau, nu = _tau(), _nu()
    expected = {
        "H": WedgeElement({}, 2),
        "D": wedge("D", "H", -tau),
        "P": wedge("P", "H", tau),
        "K": wedge("D", "P", -tau * nu),
        "C1": wedge("C1", "H", -tau),
        "C2": wedge("C2", "H", -tau) + wedge("D", "K", 2 * tau),
    }
    for g in GENERATORS:
        assert cocommutator_from_r(g, TIME) == expected[g], g


@pytest.mark.parametrize("config", [TIME, SPACE])
def test_cocommutator_equals_first_order_of_coproduct(config):
    for g in GENERATORS:
        assert cocommutator_from_r(g, config) == first_order_antisymmetrization(g, config)


# -- classical Yang-Baxter -------------------------------------------------------------

@pytest.mark.parametrize("config", [TIME, SPACE])
def test_cybe_for_the_generating_element(config):
    assert schouten_cybe(classical_r_matrix(config), config).is_zero()


def oracle_schouten(r_wedge, config):
    """Index-wise structure-constant contraction, independent of the module."""
    from jordconf.hopf import _lie_brackets, _lie_bracket
    brackets = _lie_brackets(config)
    rt = r_wedge.to_tensor()
    total = {}

    def add(key, coeff):
        if coeff.is_zero():
            return
        acc = total.get(key)
        acc = coeff if acc is None else acc + coeff
        if acc.is_zero():
            total.pop(key, None)
        else:
            total[key] = acc

    items = list(rt.items())
    for (a1, b1), c1 in items:
        for (a2, b2), c2 in items:
            c = c1 * c2
            for z, cz in _lie_bracket(brackets, a1, a2).items():
                add((z, b1, b2), c * cz)
            for z, cz in _lie_bracket(brackets, b1, a2).items():
                add((a1, z, b2), c * cz)
            for z, cz in _lie_bracket(brackets, b1, b2).items():
                add((a1, a2, z), c * cz)
    return total


def test_probe_r_matrix_against_contraction_oracle():
    probe = wedge("K", "H")  # nu stays symbolic
    got = schouten_cybe(probe, TIME)
    expected = oracle_schouten(probe, TIME)
    assert got.to_tensor() == expected
    assert not got.is_zero()


def test_wedge_antisymmetry_enforced():
    with pytest.raises(ValueError):
        WedgeElement.from_tensor({("H", "H"): ParamPoly.one()}, 2)


# -- universal R -------------------------------------------------------------------------

@pytest.mark.parametrize("config", [TIME, SPACE])
def test_universal_R_conjugation(config):
    report = universal_R_conjugation(config)
    assert report.passed


def test_inner_conjugation_value_for_C1():
    # The single-exponential conjugation adds exactly 2 tau nu D (x) D.
    from jordconf.hopf import _exp_tensor
    alg = algebra(TIME)
    d = coproduct("C1", TIME)
    inner = _exp_tensor(TIME, "D", "H", -1) * d * _exp_tensor(TIME, "D", "H", 1)
    expected = (tensor_of(alg.one(), alg.gen("C1"))
                + tensor_of(alg.gen("C1"), alg.one())
                + tensor_of(alg.gen("D"), alg.gen("D")).scale(2 * _tau() * _nu()))
    assert (inner - expected).zero_to_order(TIME.order - 2)


@pytest.mark.parametrize("family", ["time", "space"])
def test_hadamard_conjugation_equals_exponential_products(family):
    config = FamilyConfig(family, order=4)
    g0 = config.primary
    for g in GENERATORS:
        d = coproduct(g, config)
        inner = _exp_action(_gen_tensor(config, "D", g0, -1).commutator, d)
        assert inner == _exp_tensor(config, "D", g0, -1) * d * _exp_tensor(config, "D", g0, 1), g
        full = _exp_action(_gen_tensor(config, g0, "D", 1).commutator, inner)
        assert full == _exp_tensor(config, g0, "D", 1) * inner * _exp_tensor(config, g0, "D", -1), g


@pytest.mark.parametrize("order", [4, 5])
@pytest.mark.parametrize("family", ["time", "space"])
def test_series_universal_r_equals_exponential_product(family, order):
    config = FamilyConfig(family, order=order)
    g0 = config.primary
    assert universal_r(config) == _exp_tensor(config, g0, "D", 1) * _exp_tensor(config, "D", g0, -1)


# -- triangularity: flip(R) R = 1 --------------------------------------------------------
#
# The check multiplies flip(R) on the right by R's factors; the full product
# flip(R) * R is the oracle here.

@pytest.mark.parametrize("order", range(1, 8))
@pytest.mark.parametrize("family", ["time", "space"])
def test_triangular_product_equals_full_product(family, order):
    r = universal_r(FamilyConfig(family, order=order))
    assert triangular_product(r) == r.flip() * r


@pytest.mark.parametrize("family", ["time", "space"])
def test_triangular_product_equals_full_product_numeric(family):
    r = universal_r(FamilyConfig(family, 2, -3, order=5))
    assert triangular_product(r) == r.flip() * r


def _triangular_record(config):
    return next(r for r in universal_R_conjugation(config).records if r.name == "triangular")


def _double_lowest_term(applies):
    """The closed Ore rule with the coefficient of its lowest (j, e) key doubled
    wherever ``applies(b, c)`` holds."""
    rule = Algebra._d_pow_times_g_pow

    def faulty(self, b, c):
        result = rule(self, b, c)
        if applies(b, c):
            result = dict(result)
            low = min(result)
            result[low] = result[low] * 2
        return result
    return faulty


@pytest.mark.parametrize("applies", [lambda b, c: b >= 2 and c >= 1,
                                     lambda b, c: (b, c) == (1, 2)],
                         ids=["b>=2,c>=1", "b,c=1,2"])
@pytest.mark.parametrize("family", ["time", "space"])
def test_ore_rule_faults_fail_triangularity(monkeypatch, family, applies):
    monkeypatch.setattr(Algebra, "_d_pow_times_g_pow", _double_lowest_term(applies))
    monkeypatch.setattr(uea_module, "_ALGEBRAS", {})
    monkeypatch.setattr(hopf_module, "_HOPF", {})
    record = _triangular_record(FamilyConfig(family, order=4))
    assert not record.passed
    assert record.residual == "first residual at parameter order 3"


@pytest.mark.parametrize("family", ["time", "space"])
def test_top_degree_antisymmetric_error_in_R_is_caught(monkeypatch, family):
    # R + E with E = param^N (K (x) D - D (x) K) is a wrong R: it is not its
    # exponential form.  flip(E) + E = 0, so the full product
    # (flip(R) + flip(E)) (R + E) = 1 + flip(E) + E passes at order N.  The
    # record takes only flip(R + E) from it and rebuilds R from its factors,
    # so flip(E) is left over.
    config = FamilyConfig(family, order=4)
    alg = algebra(config)
    k, d = alg.gen("K"), alg.gen("D")
    error = (tensor_of(k, d) - tensor_of(d, k)).scale(ParamPoly.var(config.param) ** 4)
    bad = universal_r(config) + error
    assert (bad.flip() * bad - tensor_unit(config)).zero_to_order(4)
    monkeypatch.setattr(hopf_module, "universal_r", lambda c: bad)
    record = _triangular_record(config)
    assert not record.passed
    assert record.residual == "first residual at parameter order 4"


@pytest.mark.parametrize("config", [TIME, SPACE])
def test_bialgebra_report(config):
    assert bialgebra_report(config).passed


@pytest.mark.parametrize("mv,nv", [(1, -1), (0, 1), (-1, 0)])
def test_checks_pass_with_specialized_parameters(mv, nv):
    config = FamilyConfig("time", mv, nv, order=4)
    assert check_homomorphism(config).passed
    assert check_coassociativity(config).passed
    assert counit_and_antipode(config)[2].passed
