"""Twist maps: undeformed brackets, twisted coproducts, invertibility."""

from __future__ import annotations

import pytest

from jordconf.poly import ParamPoly
from jordconf.uea import GENERATORS, Extension, FamilyConfig, algebra
from jordconf.hopf import hopf, tensor_of
from jordconf.twist import (twist_images, twist_realization, twist_report,
                            twisted_coproducts)
from jordconf import ore

TIME = FamilyConfig("time")
SPACE = FamilyConfig("space")


def test_twisted_boost_translation_bracket():
    # [K', P'] = mu * H' with H' the forward-difference series.
    alg = algebra(TIME)
    fwd = twist_images("time", "forward", TIME)
    got = alg.mul(fwd["K"], fwd["P"]) - alg.mul(fwd["P"], fwd["K"])
    assert got == fwd["H"].scale(alg.mu)


def test_twisted_primary_coproduct():
    # coproduct(H') = 1 (x) H' + H' (x) 1 + tau H' (x) H'.
    alg = algebra(TIME)
    fwd = twist_images("time", "forward", TIME)
    hp = fwd["H"]
    got = hopf(TIME).extend(hp)
    expected = (tensor_of(alg.one(), hp) + tensor_of(hp, alg.one())
                + tensor_of(hp, hp).scale(ParamPoly.var("tau")))
    assert got == expected


def twist_map(direction, e):
    """The time-family twist substitution applied to a PBW element."""
    alg = algebra(e.config)
    return Extension(alg, twist_images("time", direction, e.config), alg.one())(e)


def test_forward_then_inverse_is_identity():
    alg = algebra(TIME)
    for g in GENERATORS:
        e = alg.gen(g)
        assert twist_map("inverse", twist_map("forward", e)) == e


def test_twist_of_composite_element():
    # The substitution is multiplicative: images of products match products
    # of images.
    alg = algebra(TIME)
    prod = alg.mul(alg.gen("C1"), alg.gen("H"))
    fwd = twist_images("time", "forward", TIME)
    assert twist_map("forward", prod) == alg.mul(fwd["C1"], fwd["H"])


def test_twisted_realization_matches_shift_form():
    for name, config in (("time", TIME), ("space", SPACE)):
        twisted = twist_realization(name, config)
        target = ore.realization(f"{name}_twisted", config)
        for g in GENERATORS:
            assert twisted[g] == target[g], (name, g)


def test_twisted_coproducts_match_tabulated_forms():
    for config in (TIME, SPACE):
        name = config.family
        fwd = twist_images(name, "forward", config)
        claimed = twisted_coproducts(config)
        for g in GENERATORS:
            assert hopf(config).extend(fwd[g]) == claimed[g], (name, g)


def test_exchanged_space_twist_keeps_its_written_form():
    # The space twist is derived from the time recipes by the generator
    # exchange; spot entries keep the form the space family is written in.
    alg = algebra(SPACE)
    sigma_mu = alg.defparam * alg.mu
    dsq = alg.mul(alg.gen("D"), alg.gen("D"))
    assert twist_images("space", "forward", SPACE)["C2"] == alg.gen("C2") + dsq.scale(sigma_mu)
    tprim, one = alg.dq_plus(), alg.one()
    assert twisted_coproducts(SPACE)["P"] == (tensor_of(one, tprim) + tensor_of(tprim, one)
                                              + tensor_of(tprim, tprim).scale(alg.defparam))


@pytest.mark.parametrize("config", [TIME, SPACE])
def test_full_twist_suite(config):
    assert twist_report(config).passed


def test_wrong_family_rejected():
    with pytest.raises(ValueError):
        twist_images("time", "forward", SPACE)
    with pytest.raises(ValueError):
        twist_images("time", "sideways", TIME)
    with pytest.raises(ValueError):
        twist_images("space", "sideways", SPACE)
    with pytest.raises(ValueError):
        twist_images("classical", "forward", FamilyConfig("classical"))
    with pytest.raises(ValueError):
        twist_realization("time", SPACE)
    with pytest.raises(ValueError):
        twist_realization("bogus", TIME)
    with pytest.raises(ValueError, match="deformed families only"):
        twisted_coproducts(FamilyConfig("classical"))
