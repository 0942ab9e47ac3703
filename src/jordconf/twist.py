"""Minimal twist maps: nonlinear changes of generators.

The twist replaces the primitive generator by its forward-difference series
and shifts one conformal generator by a parameter-linear square of the
dilation; the new generators obey the *undeformed* brackets while the
coproduct stays noncocommutative.  Both directions are substitution
morphisms: a PBW element is mapped by replacing each letter with its image
and re-expanding, so forward followed by inverse is the identity to the
truncation order.

The time-family twist is one table of recipes ``ctx -> image`` per direction
for the two generators it changes, ``uea.FORWARD_TWIST`` and
``uea.INVERSE_TWIST``; the forward one also builds the deformed Casimirs,
and both give the inner forms of ``hopf.universal_R_conjugation``.  The PBW
engine evaluates both directions; ``ore.OreContext`` evaluates the forward
recipes on the deformed differential-difference realization, which turns it
into the pure shift-operator realization, exactly.  The space-family twist is
the generator-exchange image of the time-family one (``uea.twisted``).  The
coproducts of the twisted generators are not written down either: each is
F (x~ (x) 1 + 1 (x) x~) F^-1 for the Jordanian twist F = exp(param*D (x) G),
and the suite certifies that the deformed coproduct gives the same.
"""

from __future__ import annotations

from .report import VerificationReport
from .uea import (FORWARD_TWIST, GENERATORS, INVERSE_TWIST, Extension, TableContext,
                  algebra, commutator_entries, twisted)
from .hopf import _exp_action, _gen_tensor, hopf, primitive, tensor_of
from . import ore

_TWISTS = {"forward": FORWARD_TWIST, "inverse": INVERSE_TWIST}


def _twist(name, direction, ctx):
    """The generator images of a twist, evaluated in the table context ``ctx``."""
    if ctx.config.family != name or ctx.config.primary is None:
        raise ValueError(f"twist {name!r} needs a configuration of the deformed "
                         f"family {name!r}")
    if direction not in _TWISTS:
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


def twisted_coproducts(config):
    """The coproducts of the twisted generators, built from the Jordanian twist.

    Delta(x~) = F (x~ (x) 1 + 1 (x) x~) F^-1 with F = exp(param*D (x) G), G the
    primitive generator, for each forward image x~; F is applied by the
    Hadamard series, exact to the order N.
    """
    if config.primary is None:
        raise ValueError("twisted coproducts exist for the deformed families only")
    log_f = _gen_tensor(config, "D", config.primary, 1)
    return {g: _exp_action(log_f.commutator, primitive(x))
            for g, x in twisted(config.family, FORWARD_TWIST, algebra(config)).items()}


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

    # The deformed coproduct of each twisted generator is its twist by F.
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
