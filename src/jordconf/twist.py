"""Minimal twist maps: nonlinear changes of generators.

The twist replaces the primitive generator by its forward-difference series
and shifts one conformal generator by a parameter-linear square of the
dilation; the new generators obey the *undeformed* brackets while the
coproduct stays noncocommutative.  Both directions are substitution
morphisms: a PBW element is mapped by replacing each letter with its image
and re-expanding, so forward followed by inverse is the identity to the
truncation order.

The time-family twist is one table of recipes ``ctx -> image`` per direction
for the two generators it changes; the forward one, ``uea.FORWARD_TWIST``,
also builds the deformed Casimirs.  The PBW engine evaluates both directions;
``ore.OreContext`` evaluates the forward recipes on the deformed
differential-difference realization, which turns it into the pure
shift-operator realization, exactly.  The space-family twist and its twisted
coproducts are the generator-exchange images of the time-family ones, built
in ``uea.DualView`` of a space context (``uea.twisted``, ``uea.exchange``).
"""

from __future__ import annotations

from fractions import Fraction

from .poly import ParamPoly
from .report import VerificationReport
from .uea import (FORWARD_TWIST, GENERATORS, DualView, Extension, TableContext,
                  algebra, commutator_entries, exchange, twisted)
from .hopf import hopf, tensor_of
from . import ore


def _log_series(alg):
    """param^-1 * log(1 + param*G) as a polynomial series in the primitive G."""
    p = ParamPoly.var(alg.config.param)
    return alg._primary_series(
        "log", ((k, (p ** (k - 1)) * Fraction((-1) ** (k + 1), k))
                for k in range(1, alg.config.order + 2)))


# direction -> {generator: recipe ctx -> image} of the time-family twist,
# which fixes every other generator.  The inverse recipes need the PBW engine.
_TWISTS = {
    "forward": FORWARD_TWIST,
    "inverse": {
        "H": _log_series,
        "C1": lambda c: c.gen("C1") + c.mul(c.gen("D"), c.gen("D")).scale(c.defparam * c.nu)},
}


def _twist(name, direction, ctx):
    """The generator images of a twist, evaluated in the table context ``ctx``."""
    if ctx.config.family != name or ctx.config.primary is None:
        raise ValueError(f"twist {name!r} needs a configuration of the deformed "
                         f"family {name!r}")
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    return twisted(name, _TWISTS[direction], ctx)


def twist_images(name, direction, config):
    """Generator images of the twist map as PBW elements."""
    return _twist(name, direction, algebra(config))


def twist_realization(name, config):
    """The forward twist of the deformed differential-difference realization.

    Produces exactly the shift-operator realization: every inverse power of
    the deformation parameter cancels against the difference operators.
    """
    ctx = ore.OreContext(config, ore.realization(f"{name}_deformed", config))
    return _twist(name, "forward", ctx)


def _time_twisted_coproducts(c):
    """The time family's twisted coproducts, built in the table context ``c``."""
    t, g, one, p, nu = tensor_of, c.gen, c.one(), c.defparam, c.nu
    tprim, c1t = FORWARD_TWIST["H"](c), FORWARD_TWIST["C1"](c)
    e1, e2 = c.exp(-1), c.exp(-2)
    dsq_d = c.mul(g("D"), g("D")) + g("D")
    return {
        "H": t(one, tprim) + t(tprim, one) + t(tprim, tprim).scale(p),
        "P": t(one, g("P")) + t(g("P"), one) + t(g("P"), tprim).scale(p),
        "D": t(one, g("D")) + t(g("D"), e1),
        "K": t(one, g("K")) + t(g("K"), one) - t(g("D"), c.mul(e1, g("P"))).scale(p * nu),
        "C1": (t(one, c1t) + t(c1t, e1) - t(g("D"), c.mul(e1, g("D"))).scale(2 * p * nu)
               + t(dsq_d, e1 - e2).scale(p * nu)),
        "C2": (t(one, g("C2")) + t(g("C2"), e1) + t(g("D"), c.mul(e1, g("K"))).scale(2 * p)
               - t(dsq_d, c.mul(e2, g("P"))).scale(p * p * nu)),
    }


def twisted_coproducts(config):
    """The tabulated coproducts of the twisted generators.

    Written with the original generators: the inverse powers of
    (1 + param * twisted-primary) are exponentials of the primitive generator.
    The space family's are the generator-exchange images of the time family's.
    """
    if config.primary is None:
        raise ValueError("twisted coproducts exist for the deformed families only")
    alg = algebra(config)
    if config.family == "time":
        return _time_twisted_coproducts(alg)
    return exchange(_time_twisted_coproducts(DualView(alg)), lambda te: te)


def twist_report(config):
    """Full twist-map suite for one deformed family."""
    name = config.family
    alg = algebra(config)
    h = hopf(config)
    report = VerificationReport("twist", config.echo())

    fwd = twist_images(name, "forward", config)
    inv = twist_images(name, "inverse", config)

    # The twisted generators restore the undeformed brackets.
    ctx = TableContext(config, fwd, alg.one())
    for (x, y), build in commutator_entries("classical"):
        expected = build(ctx)
        residual = alg.mul(fwd[x], fwd[y]) - alg.mul(fwd[y], fwd[x]) - expected
        report.check(f"classical-bracket[{x},{y}]",
                     f"twisted [{x},{y}] matches the undeformed bracket", residual)

    # Substitution in both orders is the identity to the truncation order.
    to_fwd, to_inv = Extension(alg, fwd, alg.one()), Extension(alg, inv, alg.one())
    for g in GENERATORS:
        back = to_fwd(inv[g])
        report.check(f"involutive[{g}]",
                     f"forward then inverse twist fixes {g}",
                     back - alg.gen(g))
        forth = to_inv(fwd[g])
        report.check(f"involutive-rev[{g}]",
                     f"inverse then forward twist fixes {g}",
                     forth - alg.gen(g))

    # The coproducts of the twisted generators take the tabulated form.
    claimed = twisted_coproducts(config)
    for g in GENERATORS:
        lhs = h.extend(fwd[g])
        report.check(f"twisted-coproduct[{g}]",
                     f"coproduct of twisted {g} matches its tabulated form",
                     lhs - claimed[g])

    # 1 + param * twisted-primary is group-like (it is the exponential).
    e1 = alg.exp(1)
    report.check("group-like",
                 "coproduct(exp series) = exp series (x) exp series",
                 h.extend(e1) - tensor_of(e1, e1))

    # The twisted realization is exactly the shift-operator realization.
    twisted = twist_realization(name, config)
    target = ore.realization(f"{name}_twisted", config)
    for g in GENERATORS:
        report.check(f"realization[{g}]",
                     f"twist of the deformed realization gives the shift form of {g}",
                     twisted[g] - target[g])
    return report
