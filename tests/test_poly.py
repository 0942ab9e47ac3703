"""Exact polynomial core: ring axioms, truncation, substitution, policies."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, inf

import pytest
from hypothesis import example, given, settings, strategies as st

from jordconf.poly import (POLICY_LAURENT, POLICY_POLY, ExponentPolicyError,
                           ParamPoly, PolicyMismatchError, VARS)


def var(name, power=1):
    return ParamPoly.var(name, power)


def const(c):
    return ParamPoly.const(c)


def monomial(coeff, laurent=POLICY_POLY, **powers):
    """coeff times the named variables to the given powers: ``monomial(2, tau=1)``."""
    exps = [0] * len(VARS)
    for name, p in powers.items():
        exps[VARS.index(name)] = p
    return ParamPoly({tuple(exps): coeff}, laurent)


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
    assert const(1).mul_trunc(p, 1) is p
    assert p.mul_trunc(const(1), 1) is p
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
    assert series.truncate(3) == expected


def test_truncate_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(rng)
        assert p.truncate(2).truncate(2) == p.truncate(2)


def test_substitute_direct():
    mu, nu, tau = var("mu"), var("nu"), var("tau")
    p = mu * nu + tau
    assert p.substitute({"mu": 1, "nu": -1}) == tau - 1


def test_substitute_drops_a_term_that_cancels():
    mu, nu, tau = var("mu"), var("nu"), var("tau")
    assert (mu - nu).substitute({"mu": 1, "nu": 1}).is_zero()
    assert (mu * tau - nu * tau + tau).substitute({"mu": 1, "nu": 1}) == tau


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


def test_with_policy_refuses_a_negative_exponent():
    p = ParamPoly.var("tau", -1, POLICY_LAURENT)
    with pytest.raises(ExponentPolicyError) as err:
        p.with_policy(POLICY_POLY)
    assert err.value.var == "tau"


def test_constructor_refuses_a_float_and_a_short_exponent_vector():
    with pytest.raises(TypeError, match="must be exact"):
        ParamPoly({(0,) * len(VARS): 0.5})
    with pytest.raises(ValueError, match="exponent vector must have 6 entries"):
        ParamPoly({(1, 0): 1})


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
    const(Fraction(1, 2)),                            # numerator 1 at exponent 0, not the unit
    const(1) + var("x"),                              # constant term 1, not the unit
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
            assert got == (a * b).truncate(n)


def test_mul_trunc_cuts_by_degree_sum_for_laurent_exponents():
    # tau^-2 * tau^2 = 1 survives order 0 although tau^2 alone would not.
    down = ParamPoly.var("tau", -2, POLICY_LAURENT)
    up = ParamPoly.var("tau", 2, POLICY_LAURENT) + ParamPoly.var("sigma", 3, POLICY_LAURENT)
    assert down.mul_trunc(up, 0) == ParamPoly.one(POLICY_LAURENT)
    assert down.mul_trunc(up, 1) == (ParamPoly.one(POLICY_LAURENT)
                                     + monomial(1, POLICY_LAURENT, tau=-2, sigma=3))
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


# -- one subtraction for every element type -------------------------------------------

ore_monos = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(4)),
                      st.integers(min_value=-2, max_value=2),
                      st.integers(min_value=-2, max_value=2))
matrix_cells = st.tuples(st.integers(min_value=0, max_value=2),
                         st.integers(min_value=0, max_value=2))
# element kind -> (keys, coefficients)
ELEMENT_KINDS = {
    "pbw": (pbw_monos, pbw_coeffs),
    "tensor": (st.tuples(pbw_monos, pbw_monos), pbw_coeffs),
    "ore": (ore_monos, laurent_policy_polys),
    "matrix": (matrix_cells, poly_policy_polys),
}


def element_of(kind, terms):
    """A PBW element, two-leg tensor, operator or 3x3 matrix with ``terms``."""
    from jordconf.hopf import TensorElement
    from jordconf.matrixrep import PolyMatrix
    from jordconf.ore import OreElement
    from jordconf.uea import FamilyConfig, PbwElement
    if kind == "pbw":
        return PbwElement(terms, FamilyConfig("time"))
    if kind == "tensor":
        return TensorElement(terms, FamilyConfig("time"), 2)
    if kind == "ore":
        return OreElement(terms)
    return PolyMatrix([[terms.get((i, j), ParamPoly.zero()) for j in range(3)]
                       for i in range(3)])


@st.composite
def subtraction_operands(draw):
    """An element kind and the terms of two operands: some keys in one operand
    only, some shared with equal coefficients and some with unequal ones."""
    kind = draw(st.sampled_from(sorted(ELEMENT_KINDS)))
    keys, coefficients = ELEMENT_KINDS[kind]
    nonzero = coefficients.filter(bool)
    x, y = {}, {}
    for key in draw(st.lists(keys, unique=True, max_size=6)):
        a = draw(nonzero)
        where = draw(st.sampled_from(("x", "y", "equal", "unequal")))
        if where == "y":
            y[key] = a
            continue
        x[key] = a
        if where == "equal":
            y[key] = ParamPoly(a.terms, a.laurent)  # equal, but not the same object
        elif where == "unequal":
            y[key] = draw(nonzero.filter(lambda b: b != a))
    return kind, x, y


@settings(max_examples=200, deadline=None)
@given(subtraction_operands())
def test_difference_is_the_sum_with_the_negation(operands):
    kind, x_terms, y_terms = operands
    x, y = element_of(kind, x_terms), element_of(kind, y_terms)
    assert x - y == x + (-y)
    assert y - x == -(x - y)
    assert (x - x).is_zero()
    assert (x - element_of(kind, dict(x_terms))).is_zero()



# -- the integer-numerator kernel ------------------------------------------------------

def assert_canonical(p):
    """Nonzero int numerators over one positive int denominator, gcd 1; zero over 1;
    the lone-term slots hold the one term exactly when there is one.

    The only reader of the integer form outside ``poly.py``: it pins the form
    that ``==`` and ``hash`` compare, and the copy of a lone term that products
    and sums read instead of the term map."""
    num, den = p._num, p._den
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in num.values())
    assert gcd(den, *num.values()) == 1
    assert num or den == 1
    lone = next(iter(num.items())) if len(num) == 1 else (None, None)
    assert (p._e1, p._c1) == lone, (p, p._e1, p._c1)


def oracle_add(a, b, sign=1):
    """Termwise Fraction sum a + sign*b."""
    acc = dict(a.terms)
    for e, c in b.terms.items():
        acc[e] = acc.get(e, Fraction(0)) + sign * c
    return {k: v for k, v in acc.items() if v != 0}


any_policy_polys = st.one_of(poly_policy_polys, laurent_policy_polys)
scalars = st.one_of(st.integers(min_value=-12, max_value=12), coeffs)


@settings(max_examples=200, deadline=None)
@given(same_policy_pairs)
def test_sum_difference_negation_match_fraction_oracle(pair):
    a, b = pair
    zero = ParamPoly.zero(a.laurent)
    for got, want in ((a + b, oracle_add(a, b)), (a - b, oracle_add(a, b, -1)),
                      (-a, oracle_add(zero, a, -1))):
        assert got.terms == want
        assert got.laurent == a.laurent
        assert_canonical(got)


@settings(max_examples=200, deadline=None)
@given(any_policy_polys, scalars)
def test_scalar_product_matches_fraction_oracle(a, c):
    want = oracle_mul(a, ParamPoly.const(c, a.laurent))
    for got in (a * c, c * a):
        assert got.terms == want
        assert_canonical(got)


@settings(max_examples=200, deadline=None)
@given(same_policy_pairs, orders)
def test_products_and_truncations_are_canonical(pair, n):
    a, b = pair
    for got in (a * b, a.mul_trunc(b, n), a.truncate(n), a.degree_part(n)):
        assert_canonical(got)
    assert a.degree_part(n).terms == {e: c for e, c in a.terms.items() if e[0] + e[1] == n}


point_values = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@settings(max_examples=100, deadline=None)
@given(any_policy_polys, st.dictionaries(st.sampled_from(VARS), point_values, max_size=3),
       st.fixed_dictionaries({name: point_values.filter(bool) for name in VARS}))
def test_substitute_matches_fraction_oracle(p, bindings, point):
    if any(p.min_exponent(name) < 0 for name, v in bindings.items() if not v):
        with pytest.raises(ZeroDivisionError):
            p.substitute(bindings)
        return
    got = p.substitute(bindings)
    assert_canonical(got)
    assert not any(got.uses_var(name) for name in bindings)
    point.update(bindings)
    assert oracle_eval(got, point) == oracle_eval(p, point)


@settings(max_examples=200, deadline=None)
@given(any_policy_polys, st.sampled_from(VARS), st.integers(min_value=-2, max_value=2))
def test_shift_param_matches_fraction_oracle(p, name, k):
    i = VARS.index(name)
    if i not in p.laurent and any(e[i] + k < 0 for e in p.terms):
        with pytest.raises(ExponentPolicyError):
            p.shift_param(name, k)
        return
    got = p.shift_param(name, k)
    assert_canonical(got)
    if k >= 0 or i in p.laurent:
        assert got.terms == oracle_mul(p, ParamPoly.var(name, k, p.laurent))
    else:
        assert got.shift_param(name, -k) == p


def test_equal_fractions_give_one_form():
    half = ParamPoly.const(Fraction(1, 2))
    for other in (ParamPoly.const(Fraction(2, 4)), ParamPoly.one() * Fraction(3, 6),
                  ParamPoly.const(Fraction(1, 4)) + Fraction(1, 4)):
        assert other == half and hash(other) == hash(half)
        assert_canonical(other)
    tau_half = monomial(Fraction(2, 4), tau=1)
    assert tau_half == var("tau") * Fraction(1, 2) and hash(tau_half) == hash(var("tau") * half)
    # Single-term products whose numerator and denominator share 1, 2, 3 or 6.
    for c1 in (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(5)):
        for c2 in (Fraction(2), Fraction(3, 4), Fraction(-1, 6), Fraction(9, 2)):
            prod = monomial(c1, tau=1).mul_trunc(monomial(c2, sigma=1), 2)
            assert prod == monomial(c1 * c2, tau=1, sigma=1)
            assert_canonical(prod)
    for zero in (half - half, tau_half * 0, ParamPoly({(0,) * 6: Fraction(0, 5)})):
        assert zero == ParamPoly.zero() and hash(zero) == hash(ParamPoly.zero())
        assert_canonical(zero)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(poly_policy_polys, poly_policy_polys, poly_policy_polys),
                 st.tuples(laurent_policy_polys, laurent_policy_polys, laurent_policy_polys)))
def test_equal_values_built_by_different_routes_hash_equal(triple):
    a, b, c = triple
    for x, y in (((a * b) * c, a * (b * c)), (a + b - b, a), ((a - c) + c, a),
                 (a * 6 * Fraction(1, 6), a)):
        assert x == y and hash(x) == hash(y)
        assert_canonical(x)


def test_permute_vars_swaps_slots_and_refuses_bad_permutations():
    swap = (1, 0, 3, 2, 4, 5)  # tau <-> sigma, mu <-> nu
    p = monomial(Fraction(3, 2), POLICY_LAURENT, tau=-1, mu=2) + 1
    q = p.permute_vars(swap)
    assert q == monomial(Fraction(3, 2), POLICY_LAURENT, sigma=-1, nu=2) + 1
    assert q.permute_vars(swap) == p
    with pytest.raises(ValueError):
        p.permute_vars((0, 0, 1, 2, 3, 4))
    with pytest.raises(ValueError):
        p.permute_vars((2, 1, 0, 3, 4, 5))  # would put tau's exponent -1 on mu


# -- single-term operands ---------------------------------------------------------------

@st.composite
def single_term_pairs(draw):
    """Two one-term operands of one policy, tau/sigma exponents Laurent under
    the Laurent policy: often on one exponent, over one denominator, with
    cancelling coefficients, or with the unit on either side."""
    laurent, exponents = draw(st.sampled_from(((POLICY_POLY, exps),
                                               (POLICY_LAURENT, laurent_exps))))
    e1 = draw(exponents)
    e2 = draw(st.one_of(st.just(e1), exponents))
    den = draw(st.sampled_from((1, 2, 3, 4, 6, 12)))
    nums = st.integers(min_value=-12, max_value=12).filter(bool)
    c1 = Fraction(draw(nums), den)
    how = draw(st.sampled_from(("free", "over_den", "cancel", "unit_left", "unit_right")))
    if how == "cancel":
        c2 = -c1
    elif how == "over_den":
        c2 = Fraction(draw(nums), den)
    else:
        c2 = draw(nonzero_coeffs)
    a, b = ParamPoly({e1: c1}, laurent), ParamPoly({e2: c2}, laurent)
    if how == "unit_left":
        a = ParamPoly.one(laurent)
    elif how == "unit_right":
        b = ParamPoly.one(laurent)
    return a, b


def degree(p):
    (e,) = p.exponents()
    return e[0] + e[1]


@settings(max_examples=400, deadline=None)
@given(single_term_pairs())
@example((ParamPoly.one(), ParamPoly({(0,) * len(VARS): 1})))  # two units, not one object
@example((ParamPoly({(0,) * len(VARS): 1}), ParamPoly.one()))  # the constructed one on the left
@example((ParamPoly.one(), monomial(Fraction(-5, 6), tau=2, mu=1)))
@example((monomial(Fraction(-5, 6), tau=2, mu=1), ParamPoly({(0,) * len(VARS): 1})))
@example((monomial(Fraction(3, 4), tau=1, nu=2), monomial(Fraction(-3, 4), tau=1, nu=2)))
@example((monomial(Fraction(7, 2), POLICY_LAURENT, tau=-2, x=1),
          monomial(Fraction(-7, 2), POLICY_LAURENT, tau=-2, x=1)))  # sums cancel to zero
def test_single_term_products_and_sums_match_fraction_oracles(pair):
    a, b = pair
    assert_canonical(a)
    assert_canonical(b)
    d = degree(a) + degree(b)
    for n in (d, d - 1):  # the product's one term sits exactly at the cut, then one above
        got = a.mul_trunc(b, n)
        assert got.terms == oracle_mul_trunc(a, b, n)
        assert got.laurent == a.laurent
        assert_canonical(got)
    assert (a * b).terms == oracle_mul(a, b)
    assert_canonical(a * b)
    for got, want in ((a + b, oracle_add(a, b)), (a - b, oracle_add(a, b, -1))):
        assert got.terms == want
        assert got.laurent == a.laurent
        assert_canonical(got)
    for unit, other in ((a, b), (b, a)):
        if unit == 1:
            assert unit.mul_trunc(other, d) is other
            assert unit * other is other
            # Of two units the left one returns the right one, so the swapped
            # order is the other pass of this loop.
            if other != 1:
                assert other.mul_trunc(unit, d) is other
                assert other * unit is other


@pytest.mark.parametrize("c1,c2,total", [
    (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),   # lcm 6, then a gcd of 3
    (Fraction(1, 4), Fraction(1, 6), Fraction(5, 12)),  # lcm 12, nothing to reduce
    (Fraction(1, 2), Fraction(1, 2), Fraction(1)),      # one denominator, reduced to 1
    (Fraction(5, 3), Fraction(-2, 3), Fraction(1)),
    (Fraction(3, 4), Fraction(-3, 4), Fraction(0)),     # cancels to the canonical zero
    (Fraction(2), Fraction(3), Fraction(5)),
])
@pytest.mark.parametrize("laurent,powers", [(POLICY_POLY, {"tau": 2, "mu": 1}),
                                            (POLICY_LAURENT, {"tau": -2, "sigma": 1})])
def test_single_term_sums_on_one_exponent(c1, c2, total, laurent, powers):
    a = monomial(c1, laurent, **powers)
    b = monomial(c2, laurent, **powers)
    for got in (a + b, b + a):
        assert got == monomial(total, laurent, **powers)
        assert got.laurent == laurent
        assert_canonical(got)


def test_the_unit_returns_the_other_operand_when_it_fits():
    one = ParamPoly.one()
    p = monomial(Fraction(3, 2), tau=2, x=1)
    q = p + var("sigma")
    for other in (p, q):
        assert one.mul_trunc(other, 2) is other and other.mul_trunc(one, 2) is other
        assert one.mul_trunc(other, 1) == other.truncate(1) == other.mul_trunc(one, 1)
    assert one.mul_trunc(p, 1).is_zero()
    lone = ParamPoly.one(POLICY_LAURENT)
    down = ParamPoly.var("tau", -3, POLICY_LAURENT)
    assert lone.mul_trunc(down, 0) is down and down.mul_trunc(lone, -3) is down
    assert const(1).mul_trunc(p, 2) is p  # a unit equal to the shared one, not it


def test_single_term_sums_of_mismatched_policies_raise():
    a = var("tau")
    b = ParamPoly.var("tau", 1, POLICY_LAURENT)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(PolicyMismatchError):
            x + y
        with pytest.raises(PolicyMismatchError):
            x - y


# -- the shared unit -------------------------------------------------------------------

def test_one_is_a_shared_constant_per_policy():
    one = ParamPoly.one()
    assert ParamPoly.one() is one
    assert ParamPoly.one(POLICY_POLY) is one
    assert one == const(1) and hash(one) == hash(const(1))
    lone = ParamPoly.one(POLICY_LAURENT)
    assert lone is not one and lone.laurent == POLICY_LAURENT
    assert lone == ParamPoly.const(1, POLICY_LAURENT)
    assert hash(lone) == hash(ParamPoly.const(1, POLICY_LAURENT))


def test_no_arithmetic_mutates_the_shared_unit():
    from jordconf.uea import FamilyConfig, PbwElement, algebra

    one = ParamPoly.one()
    p = var("tau") * var("mu") + Fraction(2, 3)
    results = [one + p, p + one, one - p, p - one, -one, one * p, p * one, one * 3,
               one * Fraction(1, 2), one * 1, one.mul_trunc(p, 1), p.mul_trunc(one, 1),
               one.mul_trunc(one, 0), one ** 3, one.truncate(0), one.substitute({"tau": 2}),
               one.shift_param("tau", 2),
               one.permute_vars((1, 0, 3, 2, 4, 5)), one.with_policy(POLICY_LAURENT),
               one.degree_part(0), one + 1, 1 - one]
    config = FamilyConfig("time", order=2)
    alg = algebra(config)
    e = alg.mul(alg.gen("D"), alg.gen("H")) + alg.gen("K").scale(var("tau") ** 4)
    results += [alg.mul(e, e), e.scale(one), e * 1]
    assert one.terms == {(0,) * 6: Fraction(1)}
    assert one == const(1) and hash(one) == hash(const(1))
    with pytest.raises(TypeError):
        one._num[(0,) * 6] = 2  # the term map is read-only
    assert PbwElement({alg.unit_key: one}, config) == alg.one()


def test_products_by_the_unit_still_truncate():
    # The contract of mul_trunc, scale and * holds for the unit operand: an
    # untruncated factor is cut, whichever side the unit is on.
    from jordconf.hopf import TensorElement, tensor_of
    from jordconf.uea import FamilyConfig, PbwElement, algebra

    one = ParamPoly.one()
    high = var("tau") ** 4 + var("tau")
    assert one.mul_trunc(high, 2) == var("tau") == high.mul_trunc(one, 2)
    assert one * high == high == high * one
    config = FamilyConfig("time", order=2)
    alg = algebra(config)
    u = alg.unit_key
    e = PbwElement({u: high}, config)
    cut = PbwElement({u: var("tau")}, config)
    assert alg.mul(e, alg.one()) == cut == alg.mul(alg.one(), e)
    assert e.scale(one) == cut
    unit = PbwElement({u: one}, config)
    assert tensor_of(e, unit) == tensor_of(cut, unit) == tensor_of(unit, e)
    t = TensorElement({(u, u): high}, config, 2)
    t1 = TensorElement({(u, u): one}, config, 2)
    assert t * t1 == TensorElement({(u, u): var("tau")}, config, 2) == t1 * t


# -- operand and argument checks of the kernel ----------------------------------------

@pytest.mark.parametrize("other", ["1", 1.0, None, [1]])
def test_non_numeric_operands_are_refused(other):
    p = var("tau") + 1
    for op in (lambda: p + other, lambda: p - other, lambda: p * other,
               lambda: other + p, lambda: other * p):
        with pytest.raises(TypeError):
            op()


def test_reflected_subtraction():
    p = var("tau") + Fraction(1, 3)
    assert 2 - p == Fraction(5, 3) - var("tau")
    assert Fraction(1, 3) - p == -var("tau")


def test_equal_policies_that_are_different_objects_combine():
    same = frozenset()
    assert same == POLICY_POLY and same is not POLICY_POLY
    a = ParamPoly.var("tau", laurent=same)
    b = var("mu")
    assert (a + b).terms == {(1, 0, 0, 0, 0, 0): 1, (0, 0, 1, 0, 0, 0): 1}
    assert a.mul_trunc(b, 1) == var("tau") * var("mu")
    with pytest.raises(PolicyMismatchError):
        ParamPoly.var("tau", laurent=frozenset({0})) + b


@pytest.mark.parametrize("n", [-1, 1.5, Fraction(1, 2)])
def test_power_refuses_negative_and_non_integer_exponents(n):
    with pytest.raises(ValueError):
        var("tau") ** n


def test_equality_with_numbers_and_other_objects():
    assert const(3) == 3 and const(Fraction(1, 2)) == Fraction(1, 2)
    assert var("tau") != 0 and const(0) == 0
    assert (var("tau") == "tau") is False
    assert var("tau") != None  # noqa: E711
    assert ParamPoly.__eq__(var("tau"), "tau") is NotImplemented


def test_constants_hash_like_the_numbers_they_equal():
    for c in (1, 0, -3, Fraction(1, 2), Fraction(-7, 3)):
        for laurent in (POLICY_POLY, POLICY_LAURENT):
            p = ParamPoly.const(c, laurent)
            assert p == c and hash(p) == hash(c) == hash(Fraction(c))
    assert {1: "v"}.get(ParamPoly.const(1)) == "v"
    assert {ParamPoly.one(), 1} == {1}
    assert len({ParamPoly.zero(), ParamPoly.zero(POLICY_LAURENT), 0, Fraction(0)}) == 1
    assert {Fraction(3, 2): "v"}.get(ParamPoly.one() * Fraction(3, 2)) == "v"


def test_sparse_combinations_with_scalars():
    from jordconf.hopf import tensor_unit
    from jordconf.uea import FamilyConfig, algebra

    config = FamilyConfig("time", order=2)
    alg = algebra(config)
    h = alg.gen("H")
    assert h + 2 == 2 + h == h + alg.one().scale(2)
    assert 1 - h == alg.one() - h
    assert alg.one().scale(3) == 3 and h != 3
    t = tensor_unit(config)
    with pytest.raises(TypeError):
        t + 1
    assert (t == 1) is False


# -- the degree bound ------------------------------------------------------------------
#
# Every polynomial carries ``low``, a lower bound on the tau+sigma degree of its
# terms, whose sum over two factors ``mul_trunc`` compares with the cut before
# it reads a term.  A bound above the true lowest degree would drop a product
# that has a term within the order.

def true_low(p):
    return min((e[0] + e[1] for e in p.exponents()), default=inf)


def assert_bound(p):
    """``low`` is at most the true lowest degree, and equals it on one term or none."""
    assert p.low <= true_low(p), (p, p.low)
    if len(p.exponents()) < 2:
        assert p.low == true_low(p), (p, p.low)


def bound_operands(draw_poly):
    """Results of every kernel operation on ``a`` and ``b``, including sums that
    cancel their lowest terms, which leave a loose bound behind."""
    a, b, n, k, value = draw_poly
    laurent = a.laurent
    step = k if laurent else abs(k)
    tau_sigma = (1, 0, 2, 3, 4, 5) if laurent else (2, 3, 0, 1, 4, 5)
    loose = (a + b) - b  # a's terms, with at most b's lowest degree as bound
    out = [a + b, a - b, -a, a + (-a), loose, b - (a + b), a * b, loose * b,
           a.mul_trunc(b, n), loose.mul_trunc(b, n), b.mul_trunc(loose, n),
           a * value, value * loose, a * 0, a * 1, a ** 2, loose ** 2,
           a.truncate(n), loose.truncate(n), a.degree_part(n), loose.degree_part(n),
           a.shift_param("tau", step), loose.shift_param("sigma", step),
           a.shift_param("mu", abs(k)), a.permute_vars(tau_sigma),
           loose.permute_vars(tau_sigma), a.with_policy(laurent),
           a.substitute({"mu": value}), loose.substitute({"nu": value, "x": value}),
           a.substitute({"tau": value or 1}), loose.substitute({"sigma": value or 1}),
           ParamPoly(a.terms, laurent), ParamPoly.const(value, laurent),
           ParamPoly.zero(laurent), ParamPoly.one(laurent), ParamPoly.var("tau", step, laurent),
           monomial(value or 1, laurent, tau=step, sigma=1)]
    return loose, out


bound_cases = st.one_of(
    st.tuples(poly_policy_polys, poly_policy_polys, orders,
              st.integers(min_value=-2, max_value=3), coeffs),
    st.tuples(laurent_policy_polys, laurent_policy_polys, orders,
              st.integers(min_value=-2, max_value=3), coeffs))


@settings(max_examples=300, deadline=None)
@given(bound_cases)
def test_every_kernel_operation_keeps_a_valid_degree_bound(case):
    loose, results = bound_operands(case)
    assert loose == case[0]
    for p in results:
        assert_bound(p)
        # Products of the results, loose bounds and all, keep valid bounds too.
        for q in (p * loose, p.mul_trunc(loose, case[2]), p + loose, p - loose):
            assert_bound(q)
        # Loose bounds or exact, the truncated product is the cut full product.
        assert p.mul_trunc(loose, case[2]) == (p * loose).truncate(case[2])
        assert loose.mul_trunc(p, case[2]) == (loose * p).truncate(case[2])


def test_lowest_degree_is_exact_where_the_bound_is_loose():
    tau, sigma = var("tau"), var("sigma")
    p = (const(1) + tau ** 2 * var("mu") + sigma ** 3) - const(1)
    assert p.low == 0 and p.lowest_degree() == 2
    assert ParamPoly.zero().lowest_degree() == inf and ParamPoly.one().lowest_degree() == 0
    assert ParamPoly.var("tau", -2, POLICY_LAURENT).lowest_degree() == -2


def test_bound_is_exact_on_single_terms_and_zero_and_loose_only_after_cancelling():
    tau, sigma = var("tau"), var("sigma")
    assert ParamPoly.zero().low == inf and ParamPoly.one().low == 0
    assert (tau * sigma).low == 2 and (tau ** 3).low == 3 and const(5).low == 0
    p = (const(1) + tau ** 2 + sigma ** 3) - const(1)
    assert p == tau ** 2 + sigma ** 3 and p.low == 0  # loose, but below the truth
    assert (p - sigma ** 3).low == 2  # one term left: exact again
    assert (p - p).low == inf
    assert p.degree_part(2).low == 2 and p.truncate(1).low == inf
    assert p.shift_param("tau", 2).low == 2 and p.shift_param("mu", 2).low == 0
    laurent = ParamPoly.var("tau", -2, POLICY_LAURENT)
    assert laurent.low == -2 and laurent.shift_param("sigma", 3).low == 1
    assert (ParamPoly({(1, 0, 0, 0, 0, 0): 1, (0, 0, 1, 0, 0, 0): 1})
            .substitute({"mu": 0})).low == 1
    assert (tau + var("mu")).substitute({"tau": 2}).low == 0
    assert (var("mu") * var("nu")).permute_vars((2, 3, 0, 1, 4, 5)).low == 2


# -- the lone-term slots ---------------------------------------------------------------
#
# A polynomial with one term keeps a copy of it, whose two slots ``mul_trunc``
# and ``+`` read instead of the term map; ``assert_canonical`` checks them.

@settings(max_examples=300, deadline=None)
@given(bound_cases)
def test_every_kernel_operation_sets_the_lone_term_slots(case):
    a, b, n, k, value = case
    laurent = a.laurent
    lone = monomial(value or 1, laurent, mu=1, tau=1)
    _, results = bound_operands(case)
    results += [(a + lone) - a, (a + lone) + (-a), -a + a, (a - lone) + lone,
                ParamPoly.const(value, laurent) * value, value * lone,
                lone.mul_trunc(lone, n), lone.mul_trunc(a, n)]
    assert_canonical(a.with_policy(POLICY_LAURENT))
    for p in results:
        assert_canonical(p)
        for q in (p + a, p - b, p.mul_trunc(a, n), p * b, -p):
            assert_canonical(q)
