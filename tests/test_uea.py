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
from jordconf.uea import (GEN_INDEX, GENERATORS, Algebra, FamilyConfig, PbwElement,
                          algebra, casimir, centrality_check, commutator_table,
                          diamond_check, dual_image, generator_triples,
                          normal_order, ConfigMismatchError)

TIME = FamilyConfig("time")
SPACE = FamilyConfig("space")
CLASSICAL = FamilyConfig("classical")


def gen(config, label):
    return algebra(config).gen(label)


# -- a one-step-at-a-time rewriting oracle --------------------------------------
#
# Reduces sums of words by repeatedly rewriting one randomly chosen adjacent
# inversion, consulting the bracket table directly.  Shares nothing with the
# engine's recursion or caches; canonical forms must nevertheless agree.
# Equal words are merged into one work item, and the word with the most
# inversions is rewritten first, so the words it produces can still merge.

def _inversions(letters):
    return [i for i in range(len(letters) - 1)
            if GEN_INDEX[letters[i]] > GEN_INDEX[letters[i + 1]]]


def oracle_normal_order(word, config, rng, step_budget=200000):
    alg = algebra(config)
    work = {}  # word -> coefficient
    queue = []  # (-inversion count, word); a merged word is queued once

    def push(letters, coeff):
        acc = work.get(letters)
        if acc is None:
            heapq.heappush(queue, (-len(_inversions(letters)), letters))
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
        inversions = _inversions(letters)
        if not inversions:
            mono = [0] * len(GENERATORS)
            for g in letters:
                mono[GEN_INDEX[g]] += 1
            key = tuple(mono)
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
            extra = []
            for gi, power in enumerate(mono):
                extra.extend([GENERATORS[gi]] * power)
            cc = (coeff * c).truncate(config.order)
            if not cc.is_zero():
                push(letters[:i] + tuple(extra) + letters[i + 2:], cc)
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
    got = normal_order(("D", "H"), TIME)
    expected = alg.mul(alg.gen("H"), alg.gen("D")) + alg.dq_minus()
    assert got == expected


def test_word_HP_is_already_ordered():
    got = normal_order(("H", "P"), TIME)
    assert list(got.terms) == [(1, 1, 0, 0, 0, 0)]
    assert next(iter(got.terms.values())) == ParamPoly.one()


def test_word_C1P_matches_bracket():
    # C1*P = P*C1 + [C1, P] with [P, C1] = -2K - tau*nu*(DP + PD).
    alg = algebra(TIME)
    got = normal_order(("C1", "P"), TIME)
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
            assert normal_order(word, config) == oracle_normal_order(word, config, rng)


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
    got = normal_order(word, TIME)
    assert list(got.terms) == [(2, 1, 1, 1, 0, 1)]


# -- products ----------------------------------------------------------------------

monos = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in GENERATORS)).filter(
    lambda m: sum(m) <= 4)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["time", "space"]), monos, monos)
def test_monomial_product_equals_word_product(family, m1, m2):
    # mul peels m2 one top generator at a time through a per-product memo;
    # from_word multiplies the concatenated word one generator at a time.
    alg = algebra(FamilyConfig(family, order=3))
    word = [g for m in (m1, m2) for g, e in zip(GENERATORS, m) for _ in range(e)]
    product = alg.mul(PbwElement({m1: ParamPoly.one()}, alg.config),
                      PbwElement({m2: ParamPoly.one()}, alg.config))
    assert product == (alg.from_word(word) if word else alg.one())


# -- the closed rule for <G, D> ----------------------------------------------------
#
# G is the primitive generator (H for time, P for space).  Products of two
# monomials of <G, D> are ordered by the closed Ore rule; the tests below hold
# it against results it did not produce: the one-step oracle above, and the
# same engine with the rule switched off, which rewrites one generator at a
# time.

def pair_mono(config, a, b):
    """The PBW monomial G^a D^b."""
    g = GEN_INDEX[config.primary]
    return tuple(a if i == g else b if i == GEN_INDEX["D"] else 0
                 for i in range(len(GENERATORS)))


def generic_engine(config, table=None):
    alg = Algebra(config, table=table)
    alg._ore = None
    return alg


def mono_product(alg, m1, m2):
    return PbwElement(alg._mono_times_mono(m1, m2, {}), alg.config)


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
    a = normal_order(("C2", "K", "H"), TIME)
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
    assert centrality_check(casimir(config, which)).passed


def test_K_squared_is_not_central():
    alg = algebra(TIME)
    probe = alg.mul(alg.gen("K"), alg.gen("K"))
    report = centrality_check(probe)
    assert not report.passed
    failing = {r.name for r in report.records if not r.passed}
    assert "central[H]" in failing


# -- specialization ------------------------------------------------------------------

@pytest.mark.parametrize("mv", [-1, 0, 1])
@pytest.mark.parametrize("nv", [-1, 0, 1])
def test_specialization_commutes_with_normal_order(mv, nv):
    word = ("C2", "C1", "D", "K")
    symbolic = normal_order(word, TIME)
    special = normal_order(word, FamilyConfig("time", mv, nv))
    assert symbolic.substitute_params(mu=mv, nu=nv) == special


def test_dual_image_is_involutive():
    e = casimir(TIME, "W1")
    assert dual_image(dual_image(e)) == e


@pytest.mark.parametrize("which", ["W1", "W2"])
def test_space_casimirs_are_duality_images(which):
    # The space-family expressions are coded on their own; the duality image
    # of the time-family Casimirs must reproduce them exactly.
    assert dual_image(casimir(TIME, which)) == casimir(SPACE, which)


def test_empty_word_rejected():
    with pytest.raises(ValueError):
        normal_order((), TIME)
