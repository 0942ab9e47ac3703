"""Minimal twist maps: nonlinear changes of generators.

The twist replaces the primitive generator by its forward-difference series
and shifts one conformal generator by a parameter-linear square of the
dilation; the new generators obey the *undeformed* brackets while the
coproduct stays noncocommutative.  Both directions are substitution
morphisms: a PBW element is mapped by replacing each letter with its image
and re-expanding, so forward followed by inverse is the identity to the
truncation order.

On the operator side the same substitution turns the differential-difference
realizations into their pure shift-operator forms, exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import POLICY_LAURENT, ParamPoly
from .report import VerificationReport
from .uea import GENERATORS, Extension, TableContext, algebra, commutator_entries
from .hopf import hopf, tensor_of
from . import ore


def _log_series(alg):
    """param^-1 * log(1 + param*G) as a polynomial series in the primitive G."""
    p = ParamPoly.var(alg.config.param)
    return alg._primary_series(
        (k, (p ** (k - 1)) * Fraction((-1) ** (k + 1), k))
        for k in range(1, alg.config.order + 2))


def twist_images(name, direction, config):
    """Generator images of the twist map as PBW elements."""
    if config.family != name:
        raise ValueError(f"twist {name!r} needs a {name}-family configuration")
    alg = algebra(config)
    tau_nu = alg.defparam * alg.nu
    sigma_mu = alg.defparam * alg.mu
    d_sq = alg.mul(alg.gen("D"), alg.gen("D"))
    images = {g: alg.gen(g) for g in GENERATORS}
    if name == "time":
        if direction == "forward":
            images["H"] = alg.dq_plus()
            images["C1"] = alg.gen("C1") - d_sq.scale(tau_nu)
        elif direction == "inverse":
            images["H"] = _log_series(alg)
            images["C1"] = alg.gen("C1") + d_sq.scale(tau_nu)
        else:
            raise ValueError("direction must be 'forward' or 'inverse'")
    else:
        if direction == "forward":
            images["P"] = alg.dq_plus()
            images["C2"] = alg.gen("C2") + d_sq.scale(sigma_mu)
        elif direction == "inverse":
            images["P"] = _log_series(alg)
            images["C2"] = alg.gen("C2") - d_sq.scale(sigma_mu)
        else:
            raise ValueError("direction must be 'forward' or 'inverse'")
    return images


def twist_realization(name, config):
    """Twist images of the deformed differential-difference realization.

    Produces exactly the shift-operator realization: every inverse power of
    the deformation parameter cancels against the difference operators.
    """
    mu, nu, _ = config.params(POLICY_LAURENT)
    if name == "time":
        rho = ore.realization("time_deformed", config)
        out = dict(rho)
        out["H"] = ore.forward_difference("t")
        dd = rho["D"] * rho["D"]
        out["C1"] = rho["C1"] - dd.scale(nu * ParamPoly.var("tau", laurent=POLICY_LAURENT))
        return out
    if name == "space":
        rho = ore.realization("space_deformed", config)
        out = dict(rho)
        out["P"] = ore.forward_difference("x")
        dd = rho["D"] * rho["D"]
        out["C2"] = rho["C2"] + dd.scale(mu * ParamPoly.var("sigma", laurent=POLICY_LAURENT))
        return out
    raise ValueError("twist name must be 'time' or 'space'")


def twisted_coproducts(config):
    """The tabulated coproducts of the twisted generators.

    Written with the original generators: the inverse powers of
    (1 + param * twisted-primary) are exponentials of the primitive generator.
    """
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
    if config.family == "space":
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
    raise ValueError("twisted coproducts exist for the deformed families only")


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
    to_fwd, to_inv = Extension(fwd, alg.one()), Extension(inv, alg.one())
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
