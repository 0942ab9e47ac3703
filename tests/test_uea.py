"""Normal-ordering engine: tables, rewriting, Casimirs, associativity."""

from __future__ import annotations

import heapq
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordconf.poly import ParamPoly
from jordconf.uea import (GENERATORS, Algebra, FamilyConfig, PbwElement, algebra, casimir,
                          centrality_check, commutator_entries, commutator_table,
                          diamond_check, dual_image, generator_triples, ConfigMismatchError)

TIME = FamilyConfig("time")
SPACE = FamilyConfig("space")
CLASSICAL = FamilyConfig("classical")


def gen(config, label):
    return algebra(config).gen(label)


def from_word(alg, word):
    """The product of the generators of ``word``, multiplied in from the right."""
    result = alg.one()
    for label in word:
        result = alg.mul(result, alg.gen(label))
    return result


def key_of(alg, word):
    """The key of the PBW monomial that the ascending ``word`` spells, from the
    engine's keys of single generators."""
    return tuple(map(sum, zip(alg.unit_key, *map(alg.mono, word))))


# -- a one-step-at-a-time rewriting oracle --------------------------------------
#
# Reduces sums of words by repeatedly rewriting one randomly chosen adjacent
# inversion, consulting the bracket table directly.  Shares nothing with the
# engine's recursion or caches; canonical forms must nevertheless agree.
# Equal words are merged into one work item, and the word with the most
# inversions is rewritten first, so the words it produces can still merge.

def _inversions(letters, slot_of):
    return [i for i in range(len(letters) - 1)
            if slot_of[letters[i]] > slot_of[letters[i + 1]]]


def oracle_normal_order(word, config, rng, step_budget=200000, alg=None):
    alg = alg or algebra(config)
    work = {}  # word -> coefficient
    queue = []  # (-inversion count, word); a merged word is queued once

    def push(letters, coeff):
        acc = work.get(letters)
        if acc is None:
            heapq.heappush(queue, (-len(_inversions(letters, alg.slot_of)), letters))
            work[letters] = coeff
        else:
            work[letters] = acc + coeff

    push(tuple(word), ParamPoly.one())
    done = {}
    steps = 0
    while queue:
        letters = heapq.heappop(queue)[1]
        coeff = work.pop(letters)
        if coeff.is_zero():
            continue
        inversions = _inversions(letters, alg.slot_of)
        if not inversions:
            key = key_of(alg, letters)
            acc = done.get(key)
            acc = coeff if acc is None else acc + coeff
            if acc.is_zero():
                done.pop(key, None)
            else:
                done[key] = acc
            continue
        steps += 1
        assert steps < step_budget, "rewriting exceeded its step budget"
        i = rng.choice(inversions)
        y, x = letters[i], letters[i + 1]
        push(letters[:i] + (x, y) + letters[i + 2:], coeff)
        # y*x = x*y + [y, x]; [y, x] = -table[(x, y)] for x < y.
        bracket = alg.bracket(y, x)
        for mono, c in bracket.terms.items():
            cc = (coeff * c).truncate(config.order)
            if not cc.is_zero():
                push(letters[:i] + alg.word(mono) + letters[i + 2:], cc)
    return PbwElement({m: c for m, c in done.items() if not c.is_zero()}, config)


# -- tables -----------------------------------------------------------------------

def test_time_table_KP_is_exponential_series():
    table = commutator_table(TIME)
    alg = algebra(TIME)
    # stored entry is [P, K] = -[K, P]
    assert table[("P", "K")] == -alg.dq_plus().scale(alg.mu)


def test_translations_commute_in_all_families():
    for config in (TIME, SPACE, CLASSICAL):
        assert commutator_table(config)[("H", "P")].is_zero()


def test_classical_H_C2():
    assert commutator_table(CLASSICAL)[("H", "C2")] == 2 * gen(CLASSICAL, "K")


def test_space_table_entries():
    alg = algebra(SPACE)
    table = commutator_table(SPACE)
    # [K, P] = mu exp(-sigma P) H, stored as [P, K].
    assert table[("P", "K")] == -alg.mul(alg.exp(-1), alg.gen("H")).scale(alg.mu)
    assert table[("H", "D")] == -alg.gen("H")


# -- normal ordering -----------------------------------------------------------------

def test_word_DH():
    alg = algebra(TIME)
    got = from_word(alg, ("D", "H"))
    expected = alg.mul(alg.gen("H"), alg.gen("D")) + alg.dq_minus()
    assert got == expected


def test_word_HP_is_already_ordered():
    got = from_word(algebra(TIME), ("H", "P"))
    assert list(got.terms) == [key_of(algebra(TIME), ("H", "P"))]
    assert next(iter(got.terms.values())) == ParamPoly.one()


def test_word_C1P_matches_bracket():
    # C1*P = P*C1 + [C1, P] with [P, C1] = -2K - tau*nu*(DP + PD).
    alg = algebra(TIME)
    got = from_word(alg, ("C1", "P"))
    tau_nu = ParamPoly.var("tau") * ParamPoly.var("nu")
    bracket = (2 * alg.gen("K")
               + (alg.mul(alg.gen("D"), alg.gen("P"))
                  + alg.mul(alg.gen("P"), alg.gen("D"))).scale(tau_nu))
    assert got == alg.mul(alg.gen("P"), alg.gen("C1")) + bracket


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_randomized_rewriting_oracle_agrees(seed):
    rng = random.Random(seed)
    for family in ("time", "space"):
        config = FamilyConfig(family, order=4)
        for _ in range(12):
            word = tuple(rng.choice(GENERATORS) for _ in range(rng.randrange(2, 6)))
            assert from_word(algebra(config), word) == oracle_normal_order(word, config, rng)


def test_rewriting_terminates_on_long_words():
    rng = random.Random(11)
    config = FamilyConfig("time", order=3)
    for _ in range(6):
        word = tuple(rng.choice(GENERATORS) for _ in range(8))
        oracle_normal_order(word, config, rng, step_budget=500000)


def test_normal_order_idempotent_on_canonical_words():
    # An ascending word is already canonical: the engine must return the
    # single monomial untouched.
    word = ("H", "H", "P", "K", "D", "C2")
    got = from_word(algebra(TIME), word)
    assert list(got.terms) == [key_of(algebra(TIME), word)]


# -- products ----------------------------------------------------------------------

monos = st.sampled_from([m for m in itertools.product(range(3), repeat=len(GENERATORS))
                        if sum(m) <= 4])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["time", "space"]), monos, monos)
def test_monomial_product_equals_word_product(family, m1, m2):
    # mul looks the pair up in the engine's product table, which peels m2 one
    # top generator at a time on a miss; from_word multiplies the
    # concatenated word one generator at a time.
    alg = algebra(FamilyConfig(family, order=3))
    word = alg.word(m1) + alg.word(m2)
    product = alg.mul(PbwElement({m1: ParamPoly.one()}, alg.config),
                      PbwElement({m2: ParamPoly.one()}, alg.config))
    assert product == from_word(alg, word)


# -- the closed rule for <G, D> ----------------------------------------------------
#
# G is the primitive generator (H for time, P for space).  Products of two
# monomials of <G, D> are ordered by the closed Ore rule; the tests below hold
# it against results it did not produce: the one-step oracle above, and the
# same engine with the rule switched off, which rewrites one generator at a
# time.

def pair_mono(config, a, b):
    """The PBW monomial G^a D^b."""
    alg = algebra(config)
    return key_of(alg, (config.primary,) * a + ("D",) * b)


def generic_engine(config, table=None):
    alg = Algebra(config, table=table)
    alg._ore = None
    return alg


def mono_product(alg, m1, m2):
    return PbwElement(alg._mono_times_mono(m1, m2), alg.config)


@pytest.mark.parametrize("family", ["time", "space"])
@pytest.mark.parametrize("mu,nu", [("sym", "sym"), (1, -1)])
def test_pair_products_match_rewriting_oracle(family, mu, nu):
    config = FamilyConfig(family, mu, nu, order=4)
    alg = algebra(config)
    assert alg._ore is not None
    g = config.primary
    rng = random.Random(7)
    for a, b, c, d in itertools.product(range(4), repeat=4):
        word = (g,) * a + ("D",) * b + (g,) * c + ("D",) * d
        product = alg.mul(PbwElement({pair_mono(config, a, b): ParamPoly.one()}, config),
                          PbwElement({pair_mono(config, c, d): ParamPoly.one()}, config))
        expected = oracle_normal_order(word, config, rng) if word else alg.one()
        assert product == expected, (a, b, c, d)


@pytest.mark.parametrize("family", ["time", "space"])
def test_pair_rule_matches_generic_rewriting(family):
    # D^b G^c with b, c up to the order covers the legs of universal R; the
    # outer exponents a, d only shift the result.
    config = FamilyConfig(family, order=5)
    rule, generic = algebra(config), generic_engine(config)
    for a, b, c, d in itertools.product((0, 2), range(6), range(6), (0, 1)):
        m1, m2 = pair_mono(config, a, b), pair_mono(config, c, d)
        assert mono_product(rule, m1, m2) == mono_product(generic, m1, m2), (a, b, c, d)


def test_pair_rule_reads_an_injected_table():
    # [D, H] = phi(H) is mutated by tau*H^2 + nu: still a series in H alone,
    # so the closed rule is taken, and it must use the injected phi.
    table = commutator_table(TIME)
    h = gen(TIME, "H")
    table[("H", "D")] = table[("H", "D")] - (h * h).scale(ParamPoly.var("tau")) \
        - algebra(TIME).one().scale(ParamPoly.var("nu"))
    rule, generic = Algebra(TIME, table=table), generic_engine(TIME, table=table)
    assert rule._ore is not None
    for b, c in itertools.product(range(1, 5), repeat=2):
        m1, m2 = pair_mono(TIME, 1, b), pair_mono(TIME, c, 1)
        assert mono_product(rule, m1, m2) == mono_product(generic, m1, m2), (b, c)
    assert mono_product(rule, pair_mono(TIME, 0, 1), pair_mono(TIME, 1, 0)) \
        != mono_product(algebra(TIME), pair_mono(TIME, 0, 1), pair_mono(TIME, 1, 0))


def test_pair_rule_needs_a_series_in_G():
    # [H, D] with a P term leaves <H, D>: the engine falls back to rewriting.
    table = commutator_table(TIME)
    table[("H", "D")] = table[("H", "D")] + gen(TIME, "P")
    assert Algebra(TIME, table=table)._ore is None
    assert algebra(CLASSICAL)._ore is None


def test_unit_element():
    a = from_word(algebra(TIME), ("C2", "K", "H"))
    one = algebra(TIME).one()
    assert one * a == a
    assert a * one == a


def test_product_difference_is_bracket():
    alg = algebra(TIME)
    h, d = alg.gen("H"), alg.gen("D")
    assert h * d - d * h == alg.bracket("H", "D")


def test_associativity_spot_check():
    # Descending order forces rewrites on both association paths.
    alg = algebra(TIME)
    k, d, c1 = alg.gen("K"), alg.gen("D"), alg.gen("C1")
    assert (c1 * d) * k == c1 * (d * k)
    assert (k * d) * c1 == k * (d * c1)


def test_config_mismatch_rejected():
    with pytest.raises(ConfigMismatchError):
        gen(TIME, "H") * gen(SPACE, "H")


# -- diamond -----------------------------------------------------------------------

@pytest.mark.parametrize("config", [TIME, SPACE, CLASSICAL])
def test_diamond_all_triples(config):
    report = diamond_check(config)
    assert report.passed
    assert len(report.records) == len(generator_triples()) == 20


def test_diamond_detects_mutated_table():
    # Perturb [K, P] by +tau*H^2, i.e. the stored [P, K] by -tau*H^2.
    table = commutator_table(TIME)
    tau = ParamPoly.var("tau")
    table[("P", "K")] = table[("P", "K")] - gen(TIME, "H").scale(tau) * gen(TIME, "H")
    report = diamond_check(TIME, table=table)
    assert not report.passed
    # Perturb [D, H] by tau*H^2: a series in H alone, so the engine orders
    # <H, D> by the closed rule with the mutated phi, and associativity fails.
    table = commutator_table(TIME)
    table[("H", "D")] = table[("H", "D")] - gen(TIME, "H").scale(tau) * gen(TIME, "H")
    assert Algebra(TIME, table=table)._ore is not None
    report = diamond_check(TIME, table=table)
    assert not report.passed


# -- casimirs ----------------------------------------------------------------------

def test_classical_W2_normal_form():
    alg = algebra(CLASSICAL)
    w2 = casimir(CLASSICAL, "W2")
    half = Fraction(1, 2)
    expected = (alg.mul(alg.gen("K"), alg.gen("D"))
                + alg.mul(alg.gen("H"), alg.gen("C2")).scale(half)
                - alg.mul(alg.gen("P"), alg.gen("C1")).scale(half)
                - alg.gen("K"))
    assert w2 == expected


def test_deformed_W2_has_DDP_correction():
    alg = algebra(TIME)
    w2 = casimir(TIME, "W2")
    base = (alg.mul(alg.gen("K"), alg.gen("D"))
            + (alg.mul(alg.dq_plus(), alg.gen("C2"))
               - alg.mul(alg.gen("C1"), alg.gen("P"))).scale(Fraction(1, 2)))
    correction = alg.mul(alg.mul(alg.gen("D"), alg.gen("D")), alg.gen("P"))
    tau_nu = ParamPoly.var("tau") * ParamPoly.var("nu")
    assert w2 - base == correction.scale(tau_nu * Fraction(1, 2))


def test_deformed_W1_keeps_its_written_form():
    # W1 is the classical W1 of the twisted generators; written out, with
    # dq = (exp(tau H) - 1)/tau:
    # K^2 + mu nu D^2 - mu/2 (dq C1 + C1 dq) + nu/2 (P C2 + C2 P)
    # + mu nu/2 (exp(tau H) D^2 + D^2 exp(tau H)) - mu nu D^2.
    alg = algebra(TIME)
    g, m, dq, e1 = alg.gen, alg.mul, alg.dq_plus(), alg.exp(1)
    mu, nu, half = alg.mu, alg.nu, Fraction(1, 2)
    dd = m(g("D"), g("D"))
    expected = (m(g("K"), g("K")) + dd.scale(mu * nu)
                - (m(dq, g("C1")) + m(g("C1"), dq)).scale(half * mu)
                + (m(g("P"), g("C2")) + m(g("C2"), g("P"))).scale(half * nu)
                + (m(e1, dd) + m(dd, e1)).scale(half * mu * nu) - dd.scale(mu * nu))
    assert casimir(TIME, "W1") == expected


def test_deformed_casimirs_reduce_to_classical():
    for which in ("W1", "W2"):
        deformed = casimir(TIME, which)
        classical = casimir(CLASSICAL, which)
        zero_order = {m: c.truncate(0) for m, c in deformed.terms.items()}
        zero_order = {m: c for m, c in zero_order.items() if not c.is_zero()}
        assert zero_order == classical.terms


@pytest.mark.parametrize("config", [TIME, SPACE, CLASSICAL])
@pytest.mark.parametrize("which", ["W1", "W2"])
def test_casimirs_are_central(config, which):
    assert centrality_check(casimir(config, which), which).passed


def test_centrality_report_names_its_casimir():
    # A library call names the suite itself, as `verify algebra` prints it.
    config = FamilyConfig("time", order=2)
    for which in ("W1", "W2"):
        report = centrality_check(casimir(config, which), which)
        assert report.suite == f"centrality[{which}]"
        assert [r.anchor for r in report.records] == [f"[W, {g}] = 0" for g in GENERATORS]


def test_K_squared_is_not_central():
    alg = algebra(TIME)
    probe = alg.mul(alg.gen("K"), alg.gen("K"))
    report = centrality_check(probe, "K^2")
    assert not report.passed
    failing = {r.name for r in report.records if not r.passed}
    assert "central[H]" in failing


# -- specialization ------------------------------------------------------------------

def substitute_params(e, mu=None, nu=None):
    """``e`` with its contraction parameters specialized, in the matching configuration."""
    c = e.config
    cfg = FamilyConfig(c.family, c.mu if mu is None else mu, c.nu if nu is None else nu,
                       c.order)
    bindings = cfg.bindings()
    return PbwElement(e.map_coeffs(lambda p: p.substitute(bindings)).terms, cfg)


@pytest.mark.parametrize("mv", [-1, 0, 1])
@pytest.mark.parametrize("nv", [-1, 0, 1])
def test_specialization_commutes_with_normal_order(mv, nv):
    word = ("C2", "C1", "D", "K")
    symbolic = from_word(algebra(TIME), word)
    special = from_word(algebra(FamilyConfig("time", mv, nv)), word)
    assert substitute_params(symbolic, mu=mv, nu=nv) == special


@pytest.mark.parametrize("param", ["mu", "nu"])
def test_specialization_refuses_a_float(param):
    # 0.1 is no exact rational: it would enter as its binary expansion.
    e = algebra(TIME).gen("K")
    with pytest.raises(ValueError, match="contraction parameter must be 'sym', int or Fraction"):
        substitute_params(e, **{param: 0.1})


def test_truncation_order_validation():
    for order in (-1, "6", 6.0, True, None):
        with pytest.raises(ValueError, match="truncation order must be a nonnegative int"):
            FamilyConfig("time", order=order)


def test_unknown_family_or_casimir_is_refused():
    for family in ("quantum", "Time"):
        with pytest.raises(ValueError, match="unknown family"):
            FamilyConfig(family)
        with pytest.raises(ValueError, match="unknown family"):
            commutator_entries(family)
    for config in (CLASSICAL, TIME, SPACE):
        with pytest.raises(ValueError, match="unknown casimir 'W3'"):
            casimir(config, "W3")


def test_the_deformation_series_are_built_once_per_engine():
    alg = Algebra(TIME)
    for series in (lambda: alg.exp(1), lambda: alg.exp(-2), alg.dq_plus, alg.dq_minus):
        assert series() is series()
    assert alg.exp(1) is not alg.exp(-1)
    assert alg.mul(alg.exp(1), alg.exp(-1)) == alg.one()


def test_family_config_keeps_its_defaults_validation_and_value_semantics():
    config = FamilyConfig("time")
    assert (config.family, config.mu, config.nu, config.order) == ("time", "sym", "sym", 6)
    same = FamilyConfig(family="time", mu="sym", nu="sym", order=6)
    assert same == config and hash(same) == hash(config)
    assert FamilyConfig("space", 2, -1).mu == Fraction(2)
    assert FamilyConfig("space", 2, -1) == FamilyConfig("space", Fraction(2), Fraction(-1))
    assert {FamilyConfig("time", order=3): 1}[FamilyConfig("time", "sym", "sym", 3)] == 1
    assert repr(FamilyConfig("time", Fraction(2, 3), order=2)) == (
        "FamilyConfig(family='time', mu=Fraction(2, 3), nu='sym', order=2)")
    with pytest.raises(ValueError, match="unknown family 'quantum'; expected one of"):
        FamilyConfig("quantum")
    with pytest.raises(ValueError, match="contraction parameter must be 'sym', int or "
                                         "Fraction, got 0.5"):
        FamilyConfig("time", 0.5)
    for order in (-1, 2.0, True):
        with pytest.raises(ValueError, match="truncation order must be a nonnegative int"):
            FamilyConfig("time", order=order)
    with pytest.raises(AttributeError):
        config.order = 3


def test_classical_engine_carries_no_deformation_series():
    alg = algebra(CLASSICAL)
    for series in (lambda: alg.exp(1), alg.dq_plus, alg.dq_minus):
        with pytest.raises(ValueError, match="no deformation series"):
            series()


@pytest.mark.parametrize("var", ["x", "t"])
def test_pbw_coefficients_refuse_the_plane_coordinates(var):
    e = algebra(TIME).gen("K")
    with pytest.raises(ValueError, match="cannot involve x or t"):
        e.scale(ParamPoly.var(var) + ParamPoly.var("tau"))
    with pytest.raises(ValueError, match="cannot involve x or t"):
        e * ParamPoly.var(var)


def test_bracket_of_a_generator_with_itself_is_zero():
    alg = algebra(TIME)
    for g in GENERATORS:
        assert alg.bracket(g, g) == alg.zero()


def test_pbw_repr_names_the_family():
    alg = algebra(SPACE)
    assert repr(alg.gen("C1") - alg.one()) == "<space pbw -1 + C1>"


def test_dual_image_is_involutive():
    e = casimir(TIME, "W1")
    assert dual_image(dual_image(e)) == e


@pytest.mark.parametrize("which", ["W1", "W2"])
def test_space_casimirs_are_duality_images(which):
    # The space-family Casimirs are built by evaluating the time-family
    # recipes in the exchanged view of the space engine; the element-level
    # duality image of the time-family Casimirs must equal them exactly.
    assert dual_image(casimir(TIME, which)) == casimir(SPACE, which)


def test_exchanged_space_w2_keeps_its_written_form():
    # W2 = K D + (C2 H - dq C1)/2 + sigma*mu/2 D^2 H, dq = (exp(sigma P) - 1)/sigma.
    alg = algebra(SPACE)
    g, m = alg.gen, alg.mul
    half = Fraction(1, 2)
    expected = (m(g("K"), g("D"))
                + (m(g("C2"), g("H")) - m(alg.dq_plus(), g("C1"))).scale(half)
                + m(m(g("D"), g("D")), g("H")).scale(half * alg.defparam * alg.mu))
    assert casimir(SPACE, "W2") == expected


# -- the product table -------------------------------------------------------------
#
# Each memoized engine keeps every monomial product it forms for its lifetime,
# shared by all callers.  The tests below hold a warmed table against products
# recomputed from scratch, and check that lookups do no rewriting.

@pytest.mark.parametrize("family", ["time", "space"])
def test_product_table_entries_match_fresh_rewriting(monkeypatch, family):
    import jordconf.hopf as hopf_module
    import jordconf.uea as uea_module
    from jordconf.hopf import check_homomorphism

    monkeypatch.setattr(uea_module, "_ALGEBRAS", {})
    monkeypatch.setattr(hopf_module, "_HOPF", {})
    config = FamilyConfig(family)
    assert diamond_check(config).passed
    assert check_homomorphism(config).passed
    alg = algebra(config)
    assert alg.table_misses == len(alg._products) > 100
    assert alg.table_hits > alg.table_misses
    fresh = generic_engine(config)
    for (m1, m2), entry in alg._products.items():
        assert mono_product(fresh, m1, m2) == PbwElement(entry, config), (m1, m2)


def test_repeated_product_only_hits_the_table():
    alg = algebra(FamilyConfig("time", order=4))
    a = alg.gen("C1") * alg.gen("K") + alg.gen("D")
    b = alg.gen("C2") * alg.gen("P") - alg.gen("H")
    first = alg.mul(a, b)
    hits, misses = alg.table_hits, alg.table_misses
    assert alg.mul(a, b) == first
    assert alg.table_misses == misses
    assert alg.table_hits > hits


def test_injected_table_engine_starts_empty():
    config = FamilyConfig("time", order=4)
    memoized = algebra(config)
    memoized.mul(memoized.gen("C1"), memoized.gen("H"))
    injected = algebra(config, commutator_table(config))
    assert injected is not memoized and injected is not algebra(config, memoized.table)
    assert injected._products == {}
    assert injected.table_hits == injected.table_misses == 0
    before = dict(memoized._products)
    injected.mul(injected.gen("C1"), injected.gen("H"))
    assert injected._products and injected._products is not memoized._products
    assert memoized._products == before


# -- the engine's monomial layout ----------------------------------------------------

@pytest.mark.parametrize("family", ["classical", "time", "space", "injected"])
def test_layout_keys_are_the_keys_of_the_engine_elements(family):
    if family == "injected":
        config = FamilyConfig("time", order=3)
        alg = Algebra(config, table=commutator_table(config))
    else:
        alg = algebra(FamilyConfig(family))
    assert list(alg.one().terms) == [alg.unit_key]
    assert alg.mono("H", 0) == alg.unit_key
    assert alg.slots == GENERATORS
    for g in GENERATORS:
        assert list(alg.gen(g).terms) == [alg.mono(g)]
        assert alg.word(alg.mono(g, 3)) == (g,) * 3
        assert alg.slots[alg.slot_of[g]] == g
        assert alg.top_slot(alg.mono(g)) == alg.slot_of[g]
    assert alg.word(alg.unit_key) == () and alg.top_slot(alg.unit_key) == -1


def test_top_slot_matches_a_direct_scan_on_every_small_monomial():
    alg = algebra(TIME)
    monos = list(itertools.product(range(3), repeat=len(alg.slots)))
    assert len(monos) == 3 ** 6 and alg.unit_key in monos
    for m in monos:
        assert alg.top_slot(m) == max((i for i, e in enumerate(m) if e), default=-1), m


def test_key_rendering_matches_generator_powers():
    alg = algebra(SPACE)
    assert alg.key_str(alg.unit_key) == "1" == str(alg.one())
    for g in GENERATORS:
        for k in (1, 2, 3):
            power = from_word(alg, (g,) * k)
            assert list(power.terms) == [alg.mono(g, k)]
            assert alg.key_str(alg.mono(g, k)) == str(power) == (g if k == 1 else f"{g}^{k}")
    word = ("H", "H", "K", "D", "C2", "C2", "C2")
    assert alg.key_str(key_of(alg, word)) == str(from_word(alg, word)) == "H^2*K*D*C2^3"


def _max_degree(coeffs):
    return max(e[0] + e[1] for c in coeffs for e in c.exponents())


@pytest.mark.parametrize("family", ["time", "space"])
def test_product_table_stays_truncated_after_hopf_work(monkeypatch, capsys, family):
    # Products by the unit coefficient are skipped only where the other factor
    # is already truncated, so every cached coefficient stays within the order.
    import jordconf.hopf as hopf_module
    import jordconf.uea as uea_module
    from jordconf.cli import main

    monkeypatch.setattr(uea_module, "_ALGEBRAS", {})
    monkeypatch.setattr(hopf_module, "_HOPF", {})
    assert main(["verify", "hopf", "--family", family, "--order", "4"]) == 0
    capsys.readouterr()
    alg = uea_module._ALGEBRAS[FamilyConfig(family, order=4)]
    assert alg.table_misses == len(alg._products) > 100 and alg._ore_cache
    assert _max_degree(c for entry in alg._products.values() for c in entry.values()) <= 4
    assert _max_degree(c for entry in alg._ore_cache.values() for c in entry.values()) <= 4


@pytest.mark.parametrize("pair,label", [(("H", "K"), "P"), (("H", "D"), "H")])
def test_product_table_stays_truncated_with_an_injected_high_term(pair, label):
    # One entry carries an extra tau^(N+3) term: [H, K] enters the bracket
    # corrections, [H, D] (still a series in H) the closed rule's phi.
    # Neither term reaches the cached products.
    n = 3
    config = FamilyConfig("time", order=n)
    table = commutator_table(config)
    high = {algebra(config).mono(label): ParamPoly.var("tau") ** (n + 3)}
    table[pair] = table[pair] + PbwElement(high, config)
    alg = Algebra(config, table=table)
    assert _max_degree(table[pair].terms.values()) == n + 3
    for word in itertools.product(GENERATORS, repeat=3):
        from_word(alg, word)
    from_word(alg, ("D", "D", "D", "H", "H"))
    assert alg._ore is not None and alg._ore_cache
    assert _max_degree(c for entry in alg._products.values() for c in entry.values()) <= n
    assert _max_degree(c for entry in alg._ore_cache.values() for c in entry.values()) <= n


# -- the degree-bound exit of mul_trunc --------------------------------------------
#
# ``mul_trunc`` returns zero at once for a pair of coefficients whose degree
# bounds already exceed the order.  The tests below hold Algebra.mul and
# TensorElement.__mul__ against the one-step oracle on operands whose
# coefficients sit exactly at the order, below it, and carry bounds below their
# lowest degree, with the engine's own table and with an injected entry that
# has a term above N.

def _loose(c):
    """``c`` (two or more terms) with a degree bound of 0: 1 is added and taken away."""
    out = (c + ParamPoly.one()) - ParamPoly.one()
    assert out == c and out.low == 0 < min(e[0] + e[1] for e in c.exponents())
    return out


def _bound_coefficients(n):
    tau, mu, nu = (ParamPoly.var(name) for name in ("tau", "mu", "nu"))
    return [ParamPoly.one(), tau, tau ** (n - 1) * nu, tau ** n * mu,
            _loose(tau * mu + tau ** 2), _loose(tau ** (n - 1) + tau ** n * nu)]


def _bound_monos(alg):
    return [alg.mono("H"), alg.mono("K"), alg.mono("D"), alg.mono("C1"),
            key_of(alg, ("P", "K")), key_of(alg, ("H", "D", "C2")), alg.mono("D", 2)]


def _add_into(out, key, c):
    total = out.pop(key, ParamPoly.zero()) + c
    if not total.is_zero():
        out[key] = total


def _oracle_sum(pairs, config, alg):
    """sum over (word, coefficient) of coefficient * normal(word), with plain
    products truncated at the order."""
    rng = random.Random(3)
    out = {}
    for word, coeff in pairs:
        normal = oracle_normal_order(word, config, rng, alg=alg) if word else alg.one()
        for m, c in normal.terms.items():
            _add_into(out, m, (coeff * c).truncate(config.order))
    return PbwElement(out, config)


def _injected_high_term_table(config):
    table = commutator_table(config)
    table[("H", "K")] = table[("H", "K")] + PbwElement(
        {algebra(config).mono("P"): ParamPoly.var("tau") ** (config.order + 1)}, config)
    return table


@pytest.mark.parametrize("injected", [False, True])
def test_product_with_loose_and_exact_bounds_matches_the_oracle(injected):
    n = 3
    config = FamilyConfig("time", order=n)
    alg = Algebra(config, _injected_high_term_table(config)) if injected else algebra(config)
    coeffs = _bound_coefficients(n)
    monos = _bound_monos(alg)
    for i, m1 in enumerate(monos):
        for j, m2 in enumerate(monos):
            c1, c2 = coeffs[(i + j) % len(coeffs)], coeffs[(2 * i + j + 1) % len(coeffs)]
            a = PbwElement({m1: c1, alg.unit_key: coeffs[j % len(coeffs)]}, config)
            b = PbwElement({m2: c2}, config)
            pairs = [(alg.word(m1) + alg.word(m2), c1 * c2),
                     (alg.word(m2), coeffs[j % len(coeffs)] * c2)]
            assert alg.mul(a, b) == _oracle_sum(pairs, config, alg), (m1, m2)


@pytest.mark.parametrize("injected", [False, True])
def test_tensor_product_with_loose_and_exact_bounds_matches_the_oracle(monkeypatch, injected):
    import jordconf.uea as uea_module
    from jordconf.hopf import TensorElement

    n = 3
    config = FamilyConfig("time", 2, -1, order=n)
    if injected:
        monkeypatch.setitem(uea_module._ALGEBRAS, config,
                            Algebra(config, _injected_high_term_table(config)))
    alg = algebra(config)
    tau = ParamPoly.var("tau")
    coeffs = [ParamPoly.one(), tau, tau ** n, tau ** (n - 1),
              _loose(tau + tau ** 2), _loose(tau ** 2 + tau ** 3)]
    keys = [(alg.mono("K"), alg.mono("H")), (alg.mono("H"), alg.mono("C1")),
            (alg.mono("D"), alg.mono("K")), (alg.unit_key, alg.mono("D", 2))]
    x = TensorElement({k: coeffs[i] for i, k in enumerate(keys)}, config, 2)
    y = TensorElement({k: coeffs[-1 - i] for i, k in enumerate(reversed(keys))}, config, 2)
    expected = {}
    for (l1, r1), c1 in x.terms.items():
        for (l2, r2), c2 in y.terms.items():
            left = _oracle_sum([(alg.word(l1) + alg.word(l2), c1 * c2)], config, alg)
            right = _oracle_sum([(alg.word(r1) + alg.word(r2), ParamPoly.one())], config, alg)
            for ma, ca in left.terms.items():
                for mb, cb in right.terms.items():
                    _add_into(expected, (ma, mb), (ca * cb).truncate(n))
    assert (x * y).terms == expected
