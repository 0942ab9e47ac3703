"""Skew-operator algebra: products, actions, realizations, limits, transport."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jordconf.poly import POLICY_LAURENT, POLICY_POLY, VAR_INDEX, ParamPoly
from jordconf.uea import FamilyConfig, GENERATORS
from jordconf.ore import (MAX_PRODUCT_TERMS, ApplyError, ClassicalLimitError, OreElement,
                          ProductTooLargeError,
                          apply_operator, atom, backward_difference,
                          casimir_operator, check_realization_homomorphism,
                          classical_limit, forward_difference,
                          lattice_solutions, realization,
                          seed_solution, symmetry_check, symmetry_multipliers,
                          transport_report, umbral)

from test_poly import monomial

TIME = FamilyConfig("time")
SPACE = FamilyConfig("space")
CLASSICAL = FamilyConfig("classical")

ALL_REALIZATIONS = [("classical", CLASSICAL), ("time_deformed", TIME),
                    ("time_twisted", TIME), ("space_deformed", SPACE),
                    ("space_twisted", SPACE)]


def pvar(name, power=1):
    return ParamPoly.var(name, power, POLICY_LAURENT)


def rand_poly_xt(rng, nterms=4, maxdeg=3):
    terms = {}
    for _ in range(nterms):
        exps = [0] * 6
        exps[4] = rng.randrange(0, maxdeg + 1)  # x
        exps[5] = rng.randrange(0, maxdeg + 1)  # t
        terms[tuple(exps)] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
    return ParamPoly(terms)


# -- multiplication ---------------------------------------------------------------

def test_leibniz_rule():
    assert atom("dx") * atom("x") == atom("x") * atom("dx") + OreElement.from_coeff(1)
    assert atom("dt") * atom("t") == atom("t") * atom("dt") + OreElement.from_coeff(1)


def test_shift_commutation():
    lhs = atom("Tt") * atom("t")
    rhs = (atom("t") + OreElement.from_coeff(pvar("tau"))) * atom("Tt")
    assert lhs == rhs
    lhs = atom("Tt", -1) * atom("t")
    rhs = (atom("t") - OreElement.from_coeff(pvar("tau"))) * atom("Tt", -1)
    assert lhs == rhs
    lhs = atom("Tx") * atom("x")
    rhs = (atom("x") + OreElement.from_coeff(pvar("sigma"))) * atom("Tx")
    assert lhs == rhs


def test_unrelated_generators_commute():
    for a, b in [("dx", "t"), ("dt", "x"), ("Tx", "t"), ("Tt", "x"),
                 ("Tx", "dt"), ("Tt", "dx"), ("dx", "dt"), ("Tx", "Tt")]:
        assert (atom(a) * atom(b) - atom(b) * atom(a)).is_zero()


# -- the substitution action, a reference independent of the Ore product ----------

def _substitute(p, name, replacement):
    """``p`` with the indeterminate ``name`` replaced by the polynomial ``replacement``."""
    i = VAR_INDEX[name]
    out = ParamPoly.zero(p.laurent)
    for exps, c in p.terms.items():
        rest = exps[:i] + (0,) + exps[i + 1:]
        out = out + ParamPoly({rest: c}, p.laurent) * replacement ** exps[i]
    return out


def _derivative(p, name):
    """Partial derivative of ``p`` in one indeterminate."""
    i = VAR_INDEX[name]
    return ParamPoly({exps[:i] + (exps[i] - 1,) + exps[i + 1:]: c * exps[i]
                      for exps, c in p.terms.items() if exps[i]}, p.laurent)


def _reference_action(op, phi):
    """Each term shifts the arguments of ``phi``, differentiates, then multiplies
    by its coordinates and coefficient; ApplyError when the poles survive."""
    phi = phi.with_policy(POLICY_LAURENT)
    total = ParamPoly.zero(POLICY_LAURENT)
    for (i, j, a, b, m, n), coeff in op.terms.items():
        cur = phi
        if m:
            cur = _substitute(cur, "x", pvar("x") + pvar("sigma") * m)
        if n:
            cur = _substitute(cur, "t", pvar("t") + pvar("tau") * n)
        for _ in range(a):
            cur = _derivative(cur, "x")
        for _ in range(b):
            cur = _derivative(cur, "t")
        total = total + cur * pvar("x") ** i * pvar("t") ** j * coeff
    if total.min_exponent("tau") < 0 or total.min_exponent("sigma") < 0:
        raise ApplyError("operator poles in the lattice constants did not cancel")
    return total.with_policy(POLICY_POLY)


def _oracle_forward_difference(f):
    """(f(t+tau) - f(t))/tau built by substitution, independent of apply."""
    wide = f.with_policy(POLICY_LAURENT)
    shifted = _substitute(wide, "t", pvar("t") + pvar("tau"))
    return (shifted - wide) * pvar("tau", -1)


def test_difference_product_rule_against_oracle():
    # Dt * t as an operator obeys Dt(t f) = (t + tau) Dt f + f pointwise.
    rng = random.Random(321)
    op = forward_difference("t") * atom("t")
    for _ in range(50):
        f = rand_poly_xt(rng)
        lhs = apply_operator(op, f).with_policy(POLICY_LAURENT)
        rhs = ((pvar("t") + pvar("tau")) * _oracle_forward_difference(f)
               + f.with_policy(POLICY_LAURENT))
        assert lhs == rhs


def test_associativity_on_random_operators():
    rng = random.Random(17)

    def rand_op():
        out = OreElement()
        for _ in range(rng.randrange(1, 5)):
            mono = (rng.randrange(0, 3), rng.randrange(0, 3),
                    rng.randrange(0, 2), rng.randrange(0, 2),
                    rng.randrange(-2, 3), rng.randrange(-2, 3))
            coeff = pvar("tau", rng.randrange(-1, 2)) * Fraction(rng.randrange(-4, 5) or 1)
            out = out + OreElement({mono: coeff})
        return out

    for _ in range(25):
        a, b, c = rand_op(), rand_op(), rand_op()
        assert (a * b) * c == a * (b * c)


# -- action on polynomials ----------------------------------------------------------

def test_operator_input_errors():
    with pytest.raises(ValueError, match="nonnegative integers"):
        atom("x") ** -1
    with pytest.raises(ValueError, match="only defined on shifts, not dx"):
        atom("dx", -1)
    with pytest.raises(ValueError, match="coordinate must be 'x' or 't'"):
        forward_difference("y")
    with pytest.raises(ValueError, match="coordinate must be 'x' or 't'"):
        backward_difference("y")
    with pytest.raises(ValueError, match="unknown operator atom 'y'"):
        atom("y")
    with pytest.raises(ValueError, match="unknown invariant 'W3'"):
        casimir_operator("time_deformed", TIME, "W3")


def test_operator_times_a_coefficient_scales():
    op = atom("dx") + atom("Tt")
    tau = ParamPoly.var("tau", laurent=POLICY_LAURENT)
    assert op * tau == op.scale(tau) == atom("dx").scale(tau) + atom("Tt").scale(tau)
    assert op * 2 == op + op
    assert repr(atom("dx")) == "<ore dx>"


def test_forward_difference_action():
    t, tau = ParamPoly.var("t"), ParamPoly.var("tau")
    phi = t * (t - tau)
    dt1 = apply_operator(forward_difference("t"), phi)
    assert dt1 == 2 * t
    assert apply_operator(forward_difference("t"), dt1) == ParamPoly.const(2)


def test_invariant_operator_annihilates_seed():
    inv = casimir_operator("time_deformed", TIME, "E_def")
    assert apply_operator(inv, seed_solution()).is_zero()


def test_action_is_linear_on_zero():
    inv = casimir_operator("time_deformed", TIME, "E_def")
    assert apply_operator(inv, ParamPoly.zero()).is_zero()


def test_derivative_action_against_hand_computed_values():
    x, t = ParamPoly.var("x"), ParamPoly.var("t")
    p = Fraction(1, 2) * x ** 3 * t + 3 * x + 5
    assert apply_operator(atom("dx"), p) == Fraction(3, 2) * x ** 2 * t + 3
    assert apply_operator(atom("dt"), p) == Fraction(1, 2) * x ** 3
    assert apply_operator(atom("dx"), ParamPoly.const(5)).is_zero()


def _random_operator(rng):
    """A sum of products of one to three factors, each with a coefficient that
    may carry a Laurent power of tau or sigma."""
    factors = [atom("x"), atom("t"), atom("dx"), atom("dt"), atom("Tx"), atom("Tt"),
               atom("Tx", -1), atom("Tt", -2), forward_difference("x"),
               forward_difference("t"), backward_difference("t")]
    coeffs = [pvar("tau", -1), pvar("sigma", -1), pvar("tau"), pvar("sigma"),
              pvar("mu"), pvar("nu"), ParamPoly.const(Fraction(-3, 2), POLICY_LAURENT)]
    out = OreElement()
    for _ in range(rng.randrange(1, 4)):
        term = OreElement.from_coeff(rng.choice(coeffs))
        for _ in range(rng.randrange(1, 4)):
            term = term * rng.choice(factors)
        out = out + term
    return out


def _random_polynomial(rng):
    """A polynomial in x and t of a few terms whose coefficients may carry tau or mu."""
    out = ParamPoly.zero()
    for _ in range(rng.randrange(1, 5)):
        out = out + monomial(
            Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
            x=rng.randrange(0, 4), t=rng.randrange(0, 4),
            tau=rng.randrange(0, 2), mu=rng.randrange(0, 2))
    return out


def test_action_matches_the_substitution_reference():
    # The Ore product applied to 1 agrees with shifting, differentiating and
    # multiplying term by term, also on when the poles fail to cancel.
    rng = random.Random(2024)
    outcomes = {"value": 0, "error": 0}
    for _ in range(240):
        op, phi = _random_operator(rng), _random_polynomial(rng)
        try:
            expected = _reference_action(op, phi)
        except ApplyError:
            with pytest.raises(ApplyError):
                apply_operator(op, phi)
            outcomes["error"] += 1
        else:
            assert apply_operator(op, phi) == expected, (str(op), str(phi))
            outcomes["value"] += 1
    assert min(outcomes.values()) >= 40, outcomes


def test_uncancelled_pole_raises():
    bad = OreElement.from_coeff(pvar("tau", -1))
    with pytest.raises(ApplyError):
        apply_operator(bad, ParamPoly.var("t"))


# -- realizations ----------------------------------------------------------------------

def test_classical_boost_realization():
    images = realization("classical", CLASSICAL)
    expected = -(atom("t") * atom("dx")).scale(pvar("nu")) \
        - (atom("x") * atom("dt")).scale(pvar("mu"))
    assert images["K"] == expected


def test_twisted_dilation_realization():
    images = realization("time_twisted", TIME)
    expected = -(atom("x") * atom("dx")) \
        - atom("t") * atom("Tt", -1) * forward_difference("t")
    assert images["D"] == expected


def test_realization_is_built_once_per_name_and_parameters():
    config = FamilyConfig("time", Fraction(2, 3), Fraction(-5, 7))
    first = realization("time_deformed", config)
    again = realization("time_deformed", FamilyConfig("time", Fraction(2, 3), Fraction(-5, 7)))
    assert again == first and again is not first
    other = realization("time_deformed", FamilyConfig("time", Fraction(3, 2), Fraction(-5, 7)))
    assert other["K"] != first["K"]  # K = -nu t Tt^-1 dx - mu x Dt
    assert other["H"] == first["H"]
    first["K"] = atom("x")
    assert realization("time_deformed", config) == again
    assert again["K"] != atom("x")


@pytest.mark.parametrize("name,config", ALL_REALIZATIONS)
def test_realization_brackets(name, config):
    report = check_realization_homomorphism(name, config)
    assert report.passed
    assert len(report.records) == 15


def test_time_pair_DH():
    images = realization("time_deformed", TIME)
    expected = backward_difference("t")  # (1 - Tt^-1)/tau
    assert images["D"].commutator(images["H"]) == expected


def test_space_pair_KH():
    images = realization("space_deformed", SPACE)
    expected = forward_difference("x").scale(pvar("nu"))
    assert images["K"].commutator(images["H"]) == expected


def test_family_mismatch_rejected():
    with pytest.raises(ValueError):
        check_realization_homomorphism("time_deformed", SPACE)


def test_mutated_realization_fails():
    # Dropping the tau*nu*(x dx + x^2 dx^2) correction from C1 breaks brackets.
    from jordconf.ore import OreContext
    from jordconf.uea import commutator_entries
    images = realization("time_deformed", TIME)
    tau_nu = pvar("tau") * pvar("nu")
    images["C1"] = images["C1"] - (atom("x") * atom("dx")
                                   + atom("x") * atom("x") * atom("dx") * atom("dx")
                                   ).scale(tau_nu)
    ctx = OreContext(TIME, images)
    failed = []
    for (x, y), build in commutator_entries("time"):
        residual = images[x].commutator(images[y]) - build(ctx)
        if not residual.is_zero():
            failed.append((x, y))
    assert failed


# -- invariant operators ------------------------------------------------------------------

def test_invariant_operator_forms():
    inv = casimir_operator("time_deformed", TIME, "E_def")
    fwd = forward_difference("t")
    expected = (atom("dx") * atom("dx")).scale(pvar("nu")) - (fwd * fwd).scale(pvar("mu"))
    assert inv == expected
    classical = casimir_operator("classical", CLASSICAL, "E_def")
    expected = (atom("dx") * atom("dx")).scale(pvar("nu")) \
        - (atom("dt") * atom("dt")).scale(pvar("mu"))
    assert classical == expected


@pytest.mark.parametrize("name,config", ALL_REALIZATIONS)
@pytest.mark.parametrize("which", ["W1", "W2"])
def test_full_casimirs_realize_to_zero(name, config, which):
    assert casimir_operator(name, config, which).is_zero()


@pytest.mark.parametrize("name,config", ALL_REALIZATIONS)
def test_symmetry_multipliers(name, config):
    report = symmetry_check(name, config)
    assert report.passed
    assert len(report.records) == 6


def test_specific_multipliers():
    lam = symmetry_multipliers("time_deformed", TIME)
    tau, nu = pvar("tau"), pvar("nu")
    assert lam["D"] == OreElement.from_coeff(-2)
    assert lam["C1"] == (atom("t") + OreElement.from_coeff(tau)
                         + (atom("x") * atom("dx")).scale(tau)).scale(4 * nu)
    lam = symmetry_multipliers("time_twisted", TIME)
    assert lam["C1"] == (atom("t") * atom("Tt", -1)).scale(4 * nu)
    lam = symmetry_multipliers("space_twisted", SPACE)
    assert lam["C2"] == (atom("x") * atom("Tx", -1)).scale(-4 * pvar("mu"))


def test_exchanged_space_operators_keep_their_written_form():
    # space_twisted and the space multipliers are coordinate-exchange images
    # of their time-family partners; spot entries keep the written space form.
    x, t, dt = atom("x"), atom("t"), atom("dt")
    txinv, txinv2, fwd = atom("Tx", -1), atom("Tx", -2), forward_difference("x")
    mu, nu, sigma = pvar("mu"), pvar("nu"), pvar("sigma")
    images = realization("space_twisted", SPACE)
    assert images["K"] == -(t * fwd).scale(nu) - (x * txinv * dt).scale(mu)
    assert images["C2"] == (-((x * x * txinv2).scale(mu) + (t * t).scale(nu)) * fwd
                            - (x * t * txinv * dt).scale(2 * mu)
                            + (x * txinv2 * fwd).scale(sigma * mu))
    shifted = x + OreElement.from_coeff(sigma) + (t * dt).scale(sigma)
    assert symmetry_multipliers("space_deformed", SPACE)["C2"] == shifted.scale(-4 * mu)
    # At numeric parameters the exchange also swaps the values of mu and nu.
    cell = FamilyConfig("space", Fraction(2, 3), Fraction(-5, 7))
    lam = symmetry_multipliers("space_deformed", cell)
    assert lam["C2"] == shifted.scale(Fraction(-8, 3))
    assert lam["C1"] == t.scale(Fraction(-20, 7))


# -- the umbral map --------------------------------------------------------------------------

def test_umbral_images_obey_the_weyl_relations():
    # U is an algebra map from the Weyl algebra in x, t, dx, dt as soon as the
    # images of t and dt obey its relations; these hold exactly.
    x, dx, ut, udt = atom("x"), atom("dx"), umbral(atom("t")), umbral(atom("dt"))
    assert ut == atom("t") * atom("Tt", -1)
    assert udt == forward_difference("t")
    assert udt.commutator(ut) == OreElement.from_coeff(1)
    for image in (ut, udt):
        assert image.commutator(x).is_zero() and image.commutator(dx).is_zero()
    assert umbral(x * dx) == x * dx


def test_umbral_image_of_the_classical_realization_is_time_twisted():
    # Reads its classical input left to right: U(t^2 dt) = U(t) U(t) U(dt).
    ut, udt = umbral(atom("t")), umbral(atom("dt"))
    assert umbral(atom("t") * atom("t") * atom("dt")) == ut * ut * udt
    classical = casimir_operator("classical", CLASSICAL, "E_def")
    assert umbral(classical) == casimir_operator("time_twisted", TIME, "E_def")
    lam = symmetry_multipliers("time_twisted", TIME)
    for g, e in symmetry_multipliers("classical", CLASSICAL).items():
        assert umbral(e) == lam[g]
    with pytest.raises(ValueError, match="x, t, dx, dt only"):
        umbral(atom("Tt"))


def test_umbral_twisted_realization_keeps_its_written_form():
    # The typed time_twisted C1: (mu x^2 + nu t^2 Tt^-2) Dt + 2 nu x t Tt^-1 dx
    # - tau nu t Tt^-2 Dt, with Dt = (Tt - 1)/tau.
    x, t, dx, fwd = atom("x"), atom("t"), atom("dx"), forward_difference("t")
    ttinv, ttinv2 = atom("Tt", -1), atom("Tt", -2)
    mu, nu, tau = pvar("mu"), pvar("nu"), pvar("tau")
    assert realization("time_twisted", TIME)["C1"] == (
        ((x * x).scale(mu) + (t * t * ttinv2).scale(nu)) * fwd
        + (x * t * ttinv * dx).scale(2 * nu) - (t * ttinv2 * fwd).scale(tau * nu))


@pytest.mark.parametrize("call, match", [
    (lambda: symmetry_multipliers("bogus", TIME), "unknown realization 'bogus'"),
    (lambda: casimir_operator("bogus", TIME, "W1"), "unknown realization 'bogus'"),
    (lambda: symmetry_check("time_deformed", SPACE), "belongs to the time family, not space"),
], ids=["multipliers-unknown-name", "casimir-operator-unknown-name", "symmetry-other-family"])
def test_realization_helpers_refuse_a_bad_name_or_family(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# -- classical limit ------------------------------------------------------------------------

def test_limit_of_forward_difference():
    assert classical_limit(forward_difference("t")) == atom("dt")
    assert classical_limit(backward_difference("t")) == atom("dt")


def test_limit_of_deformed_realizations():
    classical = realization("classical", CLASSICAL)
    for name in ("time_deformed", "time_twisted"):
        images = realization(name, TIME)
        for g in GENERATORS:
            assert classical_limit(images[g]) == classical[g], (name, g)
    for name in ("space_deformed", "space_twisted"):
        images = realization(name, SPACE)
        for g in GENERATORS:
            assert classical_limit(images[g]) == classical[g], (name, g)


def test_genuine_pole_raises():
    bad = OreElement.from_coeff(pvar("tau", -1))
    with pytest.raises(ClassicalLimitError):
        classical_limit(bad)


# -- solution transport ------------------------------------------------------------------------

def test_transport_ten_descendants():
    report = transport_report(TIME)
    assert report.passed
    solutions = lattice_solutions(TIME)
    assert len(solutions) == 10
    assert len({frozenset(s.terms.items()) for s in solutions}) == 10


@pytest.mark.parametrize("mv,nv", [(0, 1), (1, 0), (0, 0)])
def test_transport_skips_descendants_where_the_seed_degenerates(mv, nv):
    # With mu*nu = 0 the seed loses a variable and fewer than ten distinct
    # transports exist; the count and the missing transports are declared
    # skipped, the transports found are still checked.
    config = FamilyConfig("time", mv, nv, order=2)
    report = transport_report(config)
    assert report.passed
    record = next(r for r in report.records if r.name == "descendants")
    assert record.status == "skip" and not record.passed
    found = len(lattice_solutions(config))
    assert found < 10
    assert record.skip == f"mu*nu = 0 degenerates the seed; {found} found"
    transports = [r for r in report.records if r.name.startswith("transport[")]
    assert [r.name for r in transports] == [f"transport[{i}]" for i in range(10)]
    assert [r.status for r in transports] == ["pass"] * found + ["skip"] * (10 - found)
    assert report.to_dict()["checks"][1] == {
        "name": "descendants", "anchor": "10 distinct transported solutions found",
        "status": "skip", "reason": record.skip}


def test_power_refuses_a_product_past_the_size_cap():
    base = atom("x") + atom("t") + atom("dx") + atom("dt") + atom("Tx") + atom("Tt")
    assert len((base ** 6).terms) * len(base.terms) > MAX_PRODUCT_TERMS
    with pytest.raises(ProductTooLargeError, match="844 x 6 terms exceed the cap"):
        base ** 7


def test_transport_specialized():
    config = FamilyConfig("time", 1, 1)
    assert transport_report(config).passed


@pytest.mark.parametrize("mv", [-1, 0, 1])
@pytest.mark.parametrize("nv", [-1, 0, 1])
def test_realization_specialization_commutes(mv, nv):
    symbolic = realization("time_deformed", TIME)
    special = realization("time_deformed", FamilyConfig("time", mv, nv))
    bindings = {"mu": Fraction(mv), "nu": Fraction(nv)}
    for g in GENERATORS:
        assert symbolic[g].substitute_params(bindings) == special[g]
    assert check_realization_homomorphism(
        "time_deformed", FamilyConfig("time", mv, nv)).passed
