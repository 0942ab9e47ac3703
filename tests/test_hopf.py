"""Coproducts, Hopf axioms, cocommutators, Yang-Baxter checks."""

from __future__ import annotations

from fractions import Fraction

import pytest

import jordconf.hopf as hopf_module
import jordconf.uea as uea_module
from jordconf.poly import ParamPoly
from jordconf.uea import (DUAL_GEN, DUAL_SIGN, GENERATORS, UNIT_MONO, Algebra, FamilyConfig,
                          PbwElement, algebra, dual_image, gen_mono)
from jordconf.hopf import (AntipodeError, Hopf, TensorElement,
                           _exp_action, _exp_tensor, _gen_tensor, bialgebra_report,
                           check_coassociativity, check_homomorphism,
                           classical_r_matrix, cocommutator_from_r, coproduct,
                           counit_and_antipode,
                           first_order_antisymmetrization, hopf,
                           schouten_cybe, tensor_of, tensor_unit, triangular_product,
                           universal_R_conjugation, universal_r)

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
    assert hopf(TIME).extend(h2) == d * d


def test_exp_series_is_group_like():
    alg = algebra(TIME)
    s = alg.exp(1)
    assert hopf(TIME).extend(s) == tensor_of(s, s)


def test_three_leg_tensors_have_no_product_or_flip():
    # Three-leg tensors (coassociativity builds them leg by leg) are compared,
    # never multiplied or flipped.
    t3 = TensorElement({(UNIT_MONO,) * 3: ParamPoly.one()}, TIME, 3)
    with pytest.raises(ValueError, match="two-leg tensors"):
        t3 * t3
    with pytest.raises(ValueError, match="two-leg tensors"):
        t3.flip()


def test_coproduct_of_casimir_is_central_in_tensor_square():
    from jordconf.uea import casimir
    w2 = casimir(TIME, "W2")
    dw2 = hopf(TIME).extend(w2)
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
    report = Hopf(TIME, {"C2": mutated}).homomorphism_report()
    assert not report.passed
    failing = {r.name for r in report.records if not r.passed}
    assert "hom[H,C2]" in failing


def test_coassociativity_ignores_terms_above_the_order_of_an_injected_coproduct():
    # Delta(H) + tau^(N+3) H (x) 1 equals Delta(H) modulo tau^(N+1).  Both
    # sides of the axiom cut the extra term, also where a leg of it meets the
    # unit coefficient of Delta(1) = 1 (x) 1.
    config = FamilyConfig("time", order=3)
    extra = TensorElement({(gen_mono("H"), UNIT_MONO): _tau() ** 6}, config, 2)
    injected = Hopf(config, {"H": coproduct("H", config) + extra})
    assert injected.coproduct("H") != coproduct("H", config)
    assert injected.coassociativity_report().passed


@pytest.mark.parametrize("family", ["time", "space"])
def test_leg_expansion_keeps_the_terms_at_the_order(family):
    # Both sides of the axiom lose the same terms if a leg expansion drops
    # those at the order, so each side is held against plain products here.
    n = 3
    h = Hopf(FamilyConfig(family, order=n))
    at_the_order = 0
    for g in GENERATORS:
        d = h.coproduct(g)
        for leg in (0, 1):
            expected = {}
            for (m1, m2), c in d.terms.items():
                inner = h.extend(PbwElement({(m1, m2)[leg]: ParamPoly.one()}, h.config))
                for (a, b), ci in inner.terms.items():
                    key = (a, b, m2) if leg == 0 else (m1, a, b)
                    total = expected.get(key, ParamPoly.zero()) + (c * ci).truncate(n)
                    if total.is_zero():
                        expected.pop(key, None)
                    else:
                        expected[key] = total
            at_the_order += any(e[0] + e[1] == n for c in expected.values()
                                for e in c.exponents())
            assert h._expand_leg(d, leg).terms == expected, (g, leg)
    assert at_the_order


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
    report = counit_and_antipode(config)
    assert report.passed
    assert len(report.records) == 24


def test_antipode_closed_forms_time():
    # Solving the axiom by hand gives S(H) = -H, S(P) = -P e^{-tau H},
    # S(D) = -D e^{tau H}, S(C1) = -C1 e^{tau H}, S(K) = -K - tau*nu D P.
    alg = algebra(TIME)
    smap = hopf(TIME).antipode()
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
    smap = hopf(SPACE).antipode()
    for g, image in time_images.items():
        assert smap[DUAL_GEN[g]].scale(DUAL_SIGN[g]) == dual_image(image), g


def oracle_antipode(h):
    """The order-by-order solve: start from S(X) = -X, then cancel the
    degree-k part of every left residual for k = 1..N."""
    smap = {g: -h.alg.gen(g) for g in GENERATORS}
    rounds = 0 if h.config.family == "classical" else h.config.order
    for k in range(1, rounds + 1):
        for g in GENERATORS:
            part = h._antipode_residual(h._antihom(smap), g).map_coeffs(lambda c: ParamPoly(
                {e: v for e, v in c.terms.items() if e[0] + e[1] == k}, c.laurent))
            smap[g] = smap[g] - part
    return smap


@pytest.mark.parametrize("params", [("sym", "sym"), (1, -1)])
@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("family", ["time", "space", "classical"])
def test_triangular_antipode_matches_order_by_order_oracle(family, order, params):
    h = Hopf(FamilyConfig(family, *params, order=order))
    assert h.antipode() == oracle_antipode(h)


def _cycle():
    """Coproducts of P and D whose first legs need each other's antipode."""
    alg = algebra(TIME)
    one, gen = alg.one(), alg.gen
    return {"P": coproduct("P", TIME) + tensor_of(gen("D"), one).scale(_tau()),
            "D": coproduct("D", TIME) + tensor_of(gen("P"), one).scale(_tau())}


def test_antipode_rejects_tables_that_are_not_triangular():
    alg = algebra(TIME)
    one, gen = alg.one(), alg.gen
    # No H (x) m2 term: the leading part of coproduct(H) is zero.
    with pytest.raises(AntipodeError, match="leading part"):
        Hopf(TIME, {"H": tensor_of(one, gen("H"))}).antipode()
    with pytest.raises(AntipodeError, match="solved next"):
        Hopf(TIME, _cycle()).antipode()


def test_antipode_report_fails_every_record_when_no_antipode_exists():
    report = Hopf(TIME, _cycle()).antipode_report()
    assert [r.name for r in report.records] == [
        f"antipode-{side}[{g}]" for g in GENERATORS for side in ("left", "right")]
    assert not any(r.passed for r in report.records)
    assert all("can be solved next" in r.residual for r in report.records)


def test_antipode_back_substitution_to_low_order():
    # S(D) through order 2 satisfies the axiom when truncated there.
    config = FamilyConfig("time", order=2)
    smap = hopf(config).antipode()
    report = counit_and_antipode(config)
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

def wedge(a, b, coeff):
    """coeff * (a (x) b - b (x) a) in the classical enveloping algebra."""
    alg = algebra(CLASSICAL)
    x, y = alg.gen(a), alg.gen(b)
    return (tensor_of(x, y) - tensor_of(y, x)).scale(coeff)


def test_cocommutator_table_time():
    tau, nu = _tau(), _nu()
    expected = {
        "H": TensorElement({}, CLASSICAL, 2),
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


@pytest.mark.parametrize("config", [TIME, SPACE])
def test_cocommutator_is_antisymmetric(config):
    for g in GENERATORS:
        delta = cocommutator_from_r(g, config)
        assert delta.flip() == -delta, g


def test_composite_first_order_term_fails_its_record(monkeypatch):
    # tau * H (x) D^2 has a composite leg; the first-order comparison fails
    # on it instead of raising.
    alg = algebra(TIME)
    extra = tensor_of(alg.gen("H"), alg.mul(alg.gen("D"), alg.gen("D"))).scale(_tau())
    bad = Hopf(TIME, {"D": coproduct("D", TIME) + extra})
    monkeypatch.setattr(hopf_module, "_HOPF", {TIME: bad})
    verdicts = {r.name: r.passed for r in bialgebra_report(TIME).records}
    assert not verdicts.pop("cocommutator-coproduct[D]")
    assert all(verdicts.values())


# -- classical Yang-Baxter -------------------------------------------------------------

@pytest.mark.parametrize("config", [TIME, SPACE])
def test_cybe_for_the_generating_element(config):
    assert schouten_cybe(classical_r_matrix(config)).is_zero()


def test_classical_family_carries_no_r_matrix():
    with pytest.raises(ValueError, match="no r-matrix"):
        classical_r_matrix(CLASSICAL)


def oracle_schouten(r, config):
    """Index-wise structure-constant contraction over the classical bracket table."""
    table = algebra(FamilyConfig("classical", config.mu, config.nu, config.order)).table

    def bracket(x, y):
        # {generator label: coefficient} of [x, y]; the classical brackets are linear.
        if x == y:
            return {}
        sign = 1 if GENERATORS.index(x) < GENERATORS.index(y) else -1
        entry = table[(x, y) if sign == 1 else (y, x)]
        return {GENERATORS[m.index(1)]: c * sign for m, c in entry.terms.items()}

    def label(mono):
        assert sum(mono) == 1
        return GENERATORS[mono.index(1)]

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

    items = [((label(m1), label(m2)), c) for (m1, m2), c in r.terms.items()]
    for (a1, b1), c1 in items:
        for (a2, b2), c2 in items:
            c = c1 * c2
            for z, cz in bracket(a1, a2).items():
                add((z, b1, b2), c * cz)
            for z, cz in bracket(b1, a2).items():
                add((a1, z, b2), c * cz)
            for z, cz in bracket(b1, b2).items():
                add((a1, a2, z), c * cz)
    return {tuple(gen_mono(g) for g in key): c for key, c in total.items()}


def test_probe_r_matrix_against_contraction_oracle():
    probe = wedge("K", "H", ParamPoly.one())  # nu stays symbolic
    got = schouten_cybe(probe)
    assert got.terms == oracle_schouten(probe, TIME)
    assert not got.is_zero()


@pytest.mark.parametrize("loose", [False, True])
def test_schouten_bracket_keeps_the_terms_at_the_order(loose):
    # At order 2 a product of two tau-linear coefficients sits exactly at the
    # cut, and one with a tau^2 factor lies above it; with a loose degree
    # bound (tau + tau^2, with 1 added and taken away) ``mul_trunc`` must
    # still form the first and drop only the terms above.
    config = FamilyConfig("classical", order=2)
    tau = ParamPoly.var("tau")
    coeff = (tau + tau * tau + 1) - 1 if loose else tau
    assert coeff.low == (0 if loose else 1)
    alg = algebra(config)
    k, h, d = alg.gen("K"), alg.gen("H"), alg.gen("D")
    probe = ((tensor_of(k, h) - tensor_of(h, k)).scale(coeff)
             + (tensor_of(d, h) - tensor_of(h, d)).scale(tau * tau))
    want = {key: c.truncate(2) for key, c in oracle_schouten(probe, config).items()}
    got = schouten_cybe(probe)
    assert got.terms == {key: c for key, c in want.items() if c} and got.terms


# -- universal R -------------------------------------------------------------------------

@pytest.mark.parametrize("config", [TIME, SPACE])
def test_universal_R_conjugation(config):
    report = universal_R_conjugation(config)
    assert report.passed


@pytest.mark.parametrize("family", ["time", "space"])
@pytest.mark.parametrize("mu,nu", [("sym", "sym"), (2, -3)])
def test_universal_R_contract_is_order_N(family, mu, nu):
    config = FamilyConfig(family, mu, nu, order=4)
    report = universal_R_conjugation(config)
    assert report.passed
    anchors = [r.anchor for r in report.records if r.name.startswith("conjugation[")]
    assert len(anchors) == 6 and all(a.endswith(" to order 4") for a in anchors)


@pytest.mark.parametrize("family", ["time", "space"])
def test_universal_R_catches_a_coproduct_error_at_order_N(monkeypatch, family):
    # E = param^N (K (x) D - D (x) K) added to coproduct(K) survives
    # conjugation by R unchanged to order N, and flip(E) = -E, so the
    # conjugation residual is 2E, of parameter order N: the old N-2 contract
    # passed it.
    config = FamilyConfig(family, order=4)
    alg = algebra(config)
    k, d = alg.gen("K"), alg.gen("D")
    error = (tensor_of(k, d) - tensor_of(d, k)).scale(ParamPoly.var(config.param) ** 4)
    bad = Hopf(config, {"K": coproduct("K", config) + error})
    monkeypatch.setattr(hopf_module, "_HOPF", {config: bad})
    verdicts = {r.name: r for r in universal_R_conjugation(config).records}
    assert not verdicts["conjugation[K]"].passed
    assert verdicts["conjugation[K]"].residual == "first residual at parameter order 4"
    assert not verdicts["inner[K]"].passed
    assert all(r.passed for name, r in verdicts.items() if not name.endswith("[K]"))


def test_inner_conjugation_value_for_C1():
    # The single-exponential conjugation adds exactly 2 tau nu D (x) D.
    from jordconf.hopf import _exp_tensor
    alg = algebra(TIME)
    d = coproduct("C1", TIME)
    inner = _exp_tensor(TIME, "D", "H", -1) * d * _exp_tensor(TIME, "D", "H", 1)
    expected = (tensor_of(alg.one(), alg.gen("C1"))
                + tensor_of(alg.gen("C1"), alg.one())
                + tensor_of(alg.gen("D"), alg.gen("D")).scale(2 * _tau() * _nu()))
    assert (inner - expected).is_zero()


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
    assert counit_and_antipode(config).passed
