"""Exact polynomial core: ring axioms, truncation, substitution, policies."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jordconf.poly import (POLICY_LAURENT, POLICY_POLY, ExponentPolicyError,
                           ParamPoly, PolicyMismatchError, TruncationOrder,
                           VARS)


def var(name, power=1):
    return ParamPoly.var(name, power)


def const(c):
    return ParamPoly.const(c)


# -- independent oracles --------------------------------------------------------

def oracle_mul(a, b):
    """Brute-force distributive expansion, independent of ParamPoly.__mul__."""
    acc = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            acc[key] = acc.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in acc.items() if v != 0}


def oracle_eval(p, point):
    """Direct term-by-term evaluation at a rational point."""
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        value = coeff
        for name, e in zip(VARS, exps):
            value *= point[name] ** e
        total += value
    return total


def random_poly(rng, nterms=5, maxdeg=3):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randrange(0, maxdeg + 1) for _ in VARS)
        terms[exps] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    return ParamPoly(terms)


# -- tabulated examples ----------------------------------------------------------

def test_difference_of_squares():
    tau, mu = var("tau"), var("mu")
    assert (tau + mu) * (tau - mu) == tau * tau - mu * mu


def test_zero_absorbs():
    p = var("tau") + 3 * var("x")
    assert (p * ParamPoly.zero()).is_zero()


def test_mul_against_bruteforce_oracle():
    rng = random.Random(20260811)
    for _ in range(100):
        a, b = random_poly(rng), random_poly(rng)
        assert (a * b).terms == oracle_mul(a, b)


def test_truncate_degree_filter():
    tau, x = var("tau"), var("x")
    p = const(1) + tau + tau * tau * x
    assert p.truncate(1) == const(1) + tau


def test_truncate_identity_case():
    p = const(1) + var("tau") + var("mu", 4)
    assert p.truncate(1) == p


def test_truncate_returns_self_when_nothing_is_dropped():
    # The unit-operand path of mul_trunc hands the other operand on as it is.
    p = const(1) + var("tau") + var("mu", 4)
    assert p.truncate(1) is p
    assert p.truncate(TruncationOrder(5)) is p
    assert const(1).mul_trunc(p, 1) is p
    assert p.truncate(0) is not p


def test_truncate_exp_series_scalar_shadow():
    # exp series of tau*H with H -> 1, truncated at 3: factorial oracle.
    tau = var("tau")
    series = ParamPoly.zero()
    fact = 1
    for k in range(7):
        if k:
            fact *= k
        series = series + tau ** k * Fraction(1, fact)
    expected = (const(1) + tau + tau ** 2 * Fraction(1, 2)
                + tau ** 3 * Fraction(1, 6))
    assert series.truncate(TruncationOrder(3)) == expected


def test_truncate_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(rng)
        assert p.truncate(2).truncate(2) == p.truncate(2)


def test_substitute_direct():
    mu, nu, tau = var("mu"), var("nu"), var("tau")
    p = mu * nu + tau
    assert p.substitute({"mu": 1, "nu": -1}) == tau - 1


def test_substitute_laurent_cancellation():
    p = ParamPoly.var("tau", -1, POLICY_LAURENT) * ParamPoly.var("tau", 1, POLICY_LAURENT)
    assert p == ParamPoly.one(POLICY_LAURENT)
    q = ParamPoly.var("tau", -1, POLICY_LAURENT)
    assert q.substitute({"tau": Fraction(3, 2)}) == ParamPoly.const(Fraction(2, 3), POLICY_LAURENT)


def test_substitute_zero_into_laurent_raises():
    q = ParamPoly.var("tau", -1, POLICY_LAURENT)
    with pytest.raises(ZeroDivisionError):
        q.substitute({"tau": 0})


def test_substitute_matches_pointwise_oracle():
    # A coefficient polynomial of the deformed Casimir, specialized then
    # evaluated, against direct evaluation of the original.
    from jordconf.uea import FamilyConfig, casimir
    w1 = casimir(FamilyConfig("time"), "W1")
    poly = max(w1.terms.values(), key=lambda c: len(c.terms))
    special = poly.substitute({"mu": 1, "nu": 1})
    rng = random.Random(99)
    for _ in range(20):
        point = {name: Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
                 for name in VARS}
        point["mu"] = Fraction(1)
        point["nu"] = Fraction(1)
        assert oracle_eval(special, point) == oracle_eval(poly, point)


# -- policies ---------------------------------------------------------------------

def test_policy_violation_names_indeterminate():
    with pytest.raises(ExponentPolicyError) as err:
        ParamPoly({(0, 0, -1, 0, 0, 0): Fraction(1)})
    assert err.value.var == "mu"


def test_policy_mismatch():
    a = ParamPoly.one(POLICY_POLY)
    b = ParamPoly.one(POLICY_LAURENT)
    with pytest.raises(PolicyMismatchError):
        a * b


def test_shift_param_respects_policy():
    tau = var("tau")
    assert tau.shift_param("tau", -1) == const(1)
    with pytest.raises(ExponentPolicyError):
        const(1).shift_param("tau", -1)


def test_truncation_order_validation():
    with pytest.raises(ValueError):
        TruncationOrder(-1)


def test_ring_and_structural_operators():
    a, b = var("tau"), var("mu")
    assert (a + b).terms == {(1, 0, 0, 0, 0, 0): 1, (0, 0, 1, 0, 0, 0): 1}
    assert (a * b).terms == {(1, 0, 1, 0, 0, 0): 1}
    assert (-a).terms == {(1, 0, 0, 0, 0, 0): -1}
    assert (a + a * a).truncate(1) == a
    assert (a * b).substitute({"mu": 2}) == 2 * a


# -- hypothesis ring properties ------------------------------------------------------

coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=6)
exps = st.tuples(*(st.integers(min_value=0, max_value=3) for _ in VARS))
polys = st.dictionaries(exps, coeffs, max_size=4).map(ParamPoly)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ParamPoly.zero() == a
    assert a * ParamPoly.one() == a


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_truncation_is_quotient_map(a, b):
    n = 2
    assert (a * b).truncate(n) == (a.truncate(n) * b.truncate(n)).truncate(n)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(exps, coeffs), max_size=6))
def test_canonical_form_independent_of_construction_order(pairs):
    forward = ParamPoly.zero()
    for e, c in pairs:
        forward = forward + ParamPoly({e: c} if c else {})
    backward = ParamPoly.zero()
    for e, c in reversed(pairs):
        backward = backward + ParamPoly({e: c} if c else {})
    assert forward == backward
    assert forward.terms == backward.terms


def test_rendering_deterministic_graded_lex():
    # Ascending graded-lexicographic over (tau, sigma, mu, nu, x, t).
    p = var("x") + var("tau") + var("tau") * var("mu") + const(2)
    assert str(p) == "2 + x + tau + tau*mu"
    assert str(p) == str(var("tau") * var("mu") + const(2) + var("tau") + var("x"))


# -- truncated product ------------------------------------------------------------

laurent_exps = st.tuples(*(st.integers(min_value=-3 if name in ("tau", "sigma") else 0,
                                       max_value=3) for name in VARS))
nonzero_coeffs = coeffs.filter(bool)


def poly_strategy(exponents, laurent):
    """Sparse polys under one policy, always including the unit, zero and
    single-term operands (coefficient 1 among them)."""
    single = st.tuples(exponents, st.one_of(st.just(Fraction(1)), nonzero_coeffs))
    return st.one_of(
        st.just(ParamPoly.one(laurent)),
        st.just(ParamPoly.zero(laurent)),
        single.map(lambda ec: ParamPoly({ec[0]: ec[1]}, laurent)),
        st.dictionaries(exponents, coeffs, max_size=4).map(lambda t: ParamPoly(t, laurent)),
    )


poly_policy_polys = poly_strategy(exps, POLICY_POLY)
laurent_policy_polys = poly_strategy(laurent_exps, POLICY_LAURENT)
orders = st.integers(min_value=0, max_value=4)


def oracle_mul_trunc(a, b, n):
    return {k: v for k, v in oracle_mul(a, b).items() if k[0] + k[1] <= n}


same_policy_pairs = st.one_of(st.tuples(poly_policy_polys, poly_policy_polys),
                              st.tuples(laurent_policy_polys, laurent_policy_polys))


@settings(max_examples=300, deadline=None)
@given(same_policy_pairs, orders)
def test_mul_trunc_equals_truncated_product(pair, n):
    a, b = pair
    got = a.mul_trunc(b, n)
    assert got == (a * b).truncate(n)
    assert got.terms == oracle_mul_trunc(a, b, n)
    assert got.laurent == a.laurent


SPECIAL = [
    ParamPoly.one(),
    ParamPoly.zero(),
    const(Fraction(-3, 2)),
    var("tau"),                                       # coefficient 1, not the unit
    var("tau", 3) * var("x"),
    ParamPoly({(2, 1, 1, 2, 1, 3): Fraction(5, 7)}),  # every exponent slot used
    const(1) + var("tau") + var("sigma", 2) * var("mu") + var("tau", 4),
]


@pytest.mark.parametrize("n", range(5))
def test_mul_trunc_on_unit_zero_and_single_terms(n):
    for a in SPECIAL:
        for b in SPECIAL:
            got = a.mul_trunc(b, n)
            assert got.terms == oracle_mul_trunc(a, b, n), (a, b, n)
            assert got == (a * b).truncate(TruncationOrder(n))


def test_mul_trunc_cuts_by_degree_sum_for_laurent_exponents():
    # tau^-2 * tau^2 = 1 survives order 0 although tau^2 alone would not.
    down = ParamPoly.var("tau", -2, POLICY_LAURENT)
    up = ParamPoly.var("tau", 2, POLICY_LAURENT) + ParamPoly.var("sigma", 3, POLICY_LAURENT)
    assert down.mul_trunc(up, 0) == ParamPoly.one(POLICY_LAURENT)
    assert down.mul_trunc(up, 1) == (ParamPoly.one(POLICY_LAURENT)
                                     + ParamPoly.monomial(1, POLICY_LAURENT, tau=-2, sigma=3))
    assert (down.truncate(0) * up.truncate(0)).is_zero()


@pytest.mark.parametrize("a,b", [
    (ParamPoly.one(POLICY_POLY), ParamPoly.one(POLICY_LAURENT)),
    (ParamPoly.one(POLICY_POLY), ParamPoly.var("tau", -1, POLICY_LAURENT)),
    (ParamPoly.var("tau", -1, POLICY_LAURENT), ParamPoly.one(POLICY_POLY)),
    (ParamPoly.zero(POLICY_POLY), ParamPoly.var("tau", 2, POLICY_LAURENT)),
    (ParamPoly.var("tau", 2, POLICY_LAURENT), ParamPoly.zero(POLICY_POLY)),
    (var("tau"), ParamPoly.var("sigma", 1, POLICY_LAURENT)),
    (var("tau") + var("x"), ParamPoly.var("sigma", 1, POLICY_LAURENT) + 1),
])
def test_mul_trunc_policy_mismatch(a, b):
    for n in (0, 3):
        with pytest.raises(PolicyMismatchError):
            a.mul_trunc(b, n)
    with pytest.raises(PolicyMismatchError):
        a * b


pbw_monos = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(6)))
# Enveloping-algebra coefficients do not involve x or t.
pbw_coeff_exps = st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(4)),
                           st.just(0), st.just(0))
pbw_coeffs = poly_strategy(pbw_coeff_exps, POLICY_POLY)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(pbw_monos, pbw_coeffs, max_size=4), pbw_coeffs, orders)
def test_pbw_scale_equals_scale_then_truncate(terms, c, n):
    from jordconf.uea import FamilyConfig, PbwElement
    config = FamilyConfig("time", order=n)
    elem = PbwElement({k: v for k, v in terms.items() if v.terms}, config)
    want = {}
    for k, v in elem.terms.items():
        v = (v * c).truncate(n)
        if v.terms:
            want[k] = v
    got = elem.scale(c)
    assert got.terms == want
    assert got.config == config

