"""The one extension of generator maps: coproduct, antipode, twist, duality."""

from __future__ import annotations

from fractions import Fraction

from jordconf.hopf import Hopf, TensorElement, tensor_unit
from jordconf.poly import ParamPoly
from jordconf.structure import dual_tensor
from jordconf.twist import twist_images
from jordconf.uea import (DUAL_GEN, DUAL_SIGN, GENERATORS, Extension, FamilyConfig,
                          PbwElement, algebra)

TIME = FamilyConfig("time", order=3)
SPACE = FamilyConfig("space", order=3)
ALG = algebra(TIME)


def key_of(word):
    """The key of the PBW monomial that the ascending ``word`` spells."""
    return tuple(map(sum, zip(ALG.unit_key, *map(ALG.mono, word))))


MONOS = [key_of(w) for w in ((), ("H",), ("H", "H", "D"), ("H", "P", "C2"), ("K", "D", "C1"),
                             ("H", "K", "C2"))]


def letterwise(images, one, mono, mul):
    """Product of the letter images of ``mono``, one letter at a time, left to right."""
    out = one
    for g in ALG.word(mono):
        out = mul(out, images[g])
    return out


def old_antihom(smap, one, mono):
    """The antipode image of a monomial as the Hopf layer once wrote it:
    S(C2)^f ... S(H)^a, multiplied in from the highest generator down."""
    out = one
    for g in reversed(ALG.word(mono)):
        out = out * smap[g]
    return out


def mixed(config):
    """A mixed element: several monomials with polynomial coefficients."""
    tau = ParamPoly.var("tau")
    coeffs = [ParamPoly.const(3), tau, ParamPoly.const(Fraction(-1, 2)) + tau * tau,
              ParamPoly.var("nu"), -tau, ParamPoly.var("mu") * tau]
    return PbwElement(dict(zip(MONOS, coeffs)), config)


def summed(e, image, zero):
    out = zero
    for mono, c in e.terms.items():
        out = out + image(mono).scale(c)
    return out


def test_pbw_target_matches_letterwise_products():
    alg = algebra(TIME)
    images = twist_images("time", "forward", TIME)
    ext = Extension(alg, images, alg.one())
    for m in MONOS:
        assert ext.mono(m) == letterwise(images, alg.one(), m, alg.mul), m
    e = mixed(TIME)
    assert ext(e) == summed(e, lambda m: letterwise(images, alg.one(), m, alg.mul),
                            alg.zero())


def test_tensor_target_matches_letterwise_coproducts():
    h = Hopf(TIME)
    unit = tensor_unit(TIME)
    ext = Extension(h.alg, h.cop, unit)
    for m in MONOS:
        assert ext.mono(m) == letterwise(h.cop, unit, m, TensorElement.__mul__), m
    e = mixed(TIME)
    expected = summed(e, lambda m: letterwise(h.cop, unit, m, TensorElement.__mul__),
                      TensorElement({}, TIME, 2))
    assert ext(e) == expected
    assert h.extend(e) == expected


def test_reversed_product_matches_the_old_antihomomorphism_loop():
    h = Hopf(TIME)
    smap = h.antipode()
    one = h.alg.one()
    ext = Extension(h.alg, smap, one, mul=lambda a, b: b * a)
    for m in MONOS:
        assert ext.mono(m) == old_antihom(smap, one, m), m
    e = mixed(TIME)
    assert ext(e) == summed(e, lambda m: old_antihom(smap, one, m), h.alg.zero())


def test_second_call_hits_the_cache():
    alg = algebra(TIME)
    products = []

    def counting(a, b):
        products.append(1)
        return a * b

    ext = Extension(alg, twist_images("time", "forward", TIME), alg.one(), mul=counting)
    m = key_of(("H", "P", "D", "D", "C2"))
    first = ext.mono(m)
    made = len(products)
    assert made == sum(m)
    second = ext.mono(m)
    assert len(products) == made
    assert second == first
    # A longer monomial reuses the cached prefix: one more product.
    ext.mono(key_of(("H", "P", "D", "D", "C2", "C2")))
    assert len(products) == made + 1


def test_dual_tensor_of_time_coproducts_is_the_space_table():
    time_h, space_h = Hopf(TIME), Hopf(SPACE)
    for g in GENERATORS:
        image = dual_tensor(time_h.cop[g]).scale(DUAL_SIGN[g])
        assert image == space_h.cop[DUAL_GEN[g]], g
