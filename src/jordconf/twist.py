"""Minimal twist maps: nonlinear changes of generators.

The twist replaces the primitive generator by its forward-difference series
and shifts one conformal generator by a parameter-linear square of the
dilation; the new generators obey the *undeformed* brackets while the
coproduct stays noncocommutative.  Both directions are substitution
morphisms: a PBW element is mapped by replacing each letter with its image
and re-expanding, so forward followed by inverse is the identity to the
truncation order.

Each twist is one table of recipes ``ctx -> image`` for the two generators
it changes, written against the ``uea.TableContext`` protocol.  The PBW
engine evaluates both directions; ``ore.OreContext`` evaluates the forward
recipes on the deformed differential-difference realization, which turns
it into the pure shift-operator realization, exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import ParamPoly
from .report import VerificationReport
from .uea import GENERATORS, Extension, TableContext, algebra, commutator_entries
from .hopf import hopf, tensor_of
from . import ore


def _log_series(alg):
    """param^-1 * log(1 + param*G) as a polynomial series in the primitive G."""
    p = ParamPoly.var(alg.config.param)
    return alg._primary_series(
        "log", ((k, (p ** (k - 1)) * Fraction((-1) ** (k + 1), k))
                for k in range(1, alg.config.order + 2)))


def _d_squared(c):
    return c.mul(c.gen("D"), c.gen("D"))


# (family, direction) -> {generator: recipe ctx -> image}; the twist fixes
# every other generator.  The inverse recipes need the PBW engine.
_TWISTS = {
    ("time", "forward"): {
        "H": lambda c: c.dq_plus(),
        "C1": lambda c: c.gen("C1") - _d_squared(c).scale(c.defparam * c.nu)},
    ("time", "inverse"): {
        "H": _log_series,
        "C1": lambda c: c.gen("C1") + _d_squared(c).scale(c.defparam * c.nu)},
    ("space", "forward"): {
        "P": lambda c: c.dq_plus(),
        "C2": lambda c: c.gen("C2") + _d_squared(c).scale(c.defparam * c.mu)},
    ("space", "inverse"): {
        "P": _log_series,
        "C2": lambda c: c.gen("C2") - _d_squared(c).scale(c.defparam * c.mu)},
}


def _twist(name, direction, ctx):
    """The generator images of a twist, evaluated in the table context ``ctx``."""
    if ctx.config.family != name or ctx.config.primary is None:
        raise ValueError(f"twist {name!r} needs a configuration of the deformed "
                         f"family {name!r}")
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    images = dict(ctx.images)
    images.update((g, build(ctx)) for g, build in _TWISTS[(name, direction)].items())
    return images


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


def twisted_coproducts(config):
    """The tabulated coproducts of the twisted generators.

    Written with the original generators: the inverse powers of
    (1 + param * twisted-primary) are exponentials of the primitive generator.
    """
    if config.primary is None:
        raise ValueError("twisted coproducts exist for the deformed families only")
    alg = algebra(config)
    tprim = alg.dq_plus()
    one = alg.one()
    p = alg.defparam
    dsq_d = alg.mul(alg.gen("D"), alg.gen("D")) + alg.gen("D")
    if config.family == "time":
        c1t = alg.gen("C1") - alg.mul(alg.gen("D"), alg.gen("D")).scale(p * alg.nu)
        return {
            "H": (tensor_of(one, tprim) + tensor_of(tprim, one)
                  + tensor_of(tprim, tprim).scale(p)),
            "P": (tensor_of(one, alg.gen("P")) + tensor_of(alg.gen("P"), one)
                  + tensor_of(alg.gen("P"), tprim).scale(p)),
            "D": tensor_of(one, alg.gen("D")) + tensor_of(alg.gen("D"), alg.exp(-1)),
            "K": (tensor_of(one, alg.gen("K")) + tensor_of(alg.gen("K"), one)
                  - tensor_of(alg.gen("D"), alg.mul(alg.exp(-1), alg.gen("P")))
                  .scale(p * alg.nu)),
            "C1": (tensor_of(one, c1t) + tensor_of(c1t, alg.exp(-1))
                   - tensor_of(alg.gen("D"), alg.mul(alg.exp(-1), alg.gen("D")))
                   .scale(2 * p * alg.nu)
                   + tensor_of(dsq_d, alg.exp(-1) - alg.exp(-2)).scale(p * alg.nu)),
            "C2": (tensor_of(one, alg.gen("C2")) + tensor_of(alg.gen("C2"), alg.exp(-1))
                   + tensor_of(alg.gen("D"), alg.mul(alg.exp(-1), alg.gen("K")))
                   .scale(2 * p)
                   - tensor_of(dsq_d, alg.mul(alg.exp(-2), alg.gen("P")))
                   .scale(p * p * alg.nu)),
        }
    c2t = alg.gen("C2") + alg.mul(alg.gen("D"), alg.gen("D")).scale(p * alg.mu)
    return {
        "P": (tensor_of(one, tprim) + tensor_of(tprim, one)
              + tensor_of(tprim, tprim).scale(p)),
        "H": (tensor_of(one, alg.gen("H")) + tensor_of(alg.gen("H"), one)
              + tensor_of(alg.gen("H"), tprim).scale(p)),
        "D": tensor_of(one, alg.gen("D")) + tensor_of(alg.gen("D"), alg.exp(-1)),
        "K": (tensor_of(one, alg.gen("K")) + tensor_of(alg.gen("K"), one)
              - tensor_of(alg.gen("D"), alg.mul(alg.exp(-1), alg.gen("H")))
              .scale(p * alg.mu)),
        "C1": (tensor_of(one, alg.gen("C1")) + tensor_of(alg.gen("C1"), alg.exp(-1))
               - tensor_of(alg.gen("D"), alg.mul(alg.exp(-1), alg.gen("K")))
               .scale(2 * p)
               + tensor_of(dsq_d, alg.mul(alg.exp(-2), alg.gen("H")))
               .scale(p * p * alg.mu)),
        "C2": (tensor_of(one, c2t) + tensor_of(c2t, alg.exp(-1))
               + tensor_of(alg.gen("D"), alg.mul(alg.exp(-1), alg.gen("D")))
               .scale(2 * p * alg.mu)
               - tensor_of(dsq_d, alg.exp(-1) - alg.exp(-2)).scale(p * alg.mu)),
    }


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
