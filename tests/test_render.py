"""Pinned renderings of the sparse element types.

These strings reach the reports through anchors and residuals, so each type
keeps its own conventions: a ``TensorElement`` keeps ``+ -`` and brackets its
legs, the unit monomial of a ``PbwElement`` renders as ``1`` and that of an
``OreElement`` as its bare coefficient.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from jordconf.hopf import TensorElement
from jordconf.ore import UNIT as OU, OreElement
from jordconf.poly import POLICY_LAURENT, ParamPoly
from jordconf.uea import GENERATORS, FamilyConfig, PbwElement, algebra

TIME = FamilyConfig("time")
ALG = algebra(TIME)

one = ParamPoly.one()
tau, mu, nu = (ParamPoly.var(n) for n in ("tau", "mu", "nu"))
U = ALG.unit_key
H, P, K, D, C1, C2 = map(ALG.mono, GENERATORS)
KD = tuple(map(sum, zip(K, D)))


def lp(name, power=1):
    return ParamPoly.var(name, power, POLICY_LAURENT)


LONE = ParamPoly.one(POLICY_LAURENT)

CASES = {
    "pbw_zero": (PbwElement({}, TIME), "0"),
    "pbw": (PbwElement({H: one, P: -one, KD: -tau * nu,
                        C2: mu - tau * Fraction(1, 2), U: Fraction(3) * one}, TIME),
            "3*1 + (mu - 1/2*tau)*C2 - P + H - tau*nu*K*D"),
    "pbw_unit": (PbwElement({U: -one, D: Fraction(2) * mu}, TIME), "-1 + 2*mu*D"),
    "tensor_zero": (TensorElement({}, TIME, 2), "0"),
    "tensor": (TensorElement({(U, H): one, (H, U): -one, (C2, H): -tau,
                              (D, P): tau * nu + mu, (U, U): Fraction(-3) * one}, TIME, 2),
               "-3*[1 (x) 1] + 1 (x) H + -1*[H (x) 1] + -tau*[C2 (x) H]"
               " + (mu + tau*nu)*[D (x) P]"),
    "tensor3": (TensorElement({(U, H, D): one, (K, K, U): 2 * tau}, TIME, 3),
                "1 (x) H (x) D + 2*tau*[K (x) K (x) 1]"),
    "ore_zero": (OreElement({}), "0"),
    "ore": (OreElement({(1, 0, 0, 0, 0, 0): LONE, (0, 1, 0, 0, 0, 0): -LONE,
                        (0, 0, 1, 0, 0, -1): lp("tau", -1) * 2,
                        (2, 0, 0, 1, 1, 0): lp("mu") - lp("sigma", -1),
                        OU: lp("nu") + lp("tau")}),
            "(nu + tau) - t + x + 2*tau^-1*dx*Tt^-1 + (-sigma^-1 + mu)*x^2*dt*Tx"),
    "ore_unit_single": (OreElement({OU: -lp("tau", -2), (0, 0, 0, 1, 0, 0): LONE}),
                        "-tau^-2 + dt"),
    "ore_unit_minus_one": (OreElement({OU: -LONE, (0, 0, 0, 0, 0, 1): -LONE}), "-1 - Tt"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_rendering_is_pinned(name):
    element, expected = CASES[name]
    assert str(element) == expected
