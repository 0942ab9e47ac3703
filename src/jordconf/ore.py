"""Exact differential-difference operator algebra on the (x, t) plane.

Operators are finite sums of monomials ``x^i t^j dx^a dt^b Tx^m Tt^n`` with
coefficients that are Laurent polynomials in the lattice constants tau and
sigma (and ordinary polynomials in mu and nu).  ``Tx`` and ``Tt`` shift the
coordinates by one lattice step; the forward differences ``(Tx-1)/sigma`` and
``(Tt-1)/tau`` are first-class elements because division by the lattice
constant is exact in the coefficient ring.

The shift and derivative generators are independent: the semantic relation
``T = exp(step * d)`` is never imposed as a rewrite rule (it is not
polynomial).  It enters only through the realization dictionary, which sends
abstract exponentials of the primitive generator to shift powers, and through
``classical_limit``, which re-expands shifts as Taylor series before sending
the lattice constants to zero.  Every bracket identity of the families lives
in this ring and is checked exactly, with no series truncation anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, perm

from .poly import POLICY_LAURENT, POLICY_POLY, LinComb, ParamPoly, _acc
from .report import VerificationReport
from .uea import GENERATORS, TableContext, casimir_terms, commutator_entries

# Monomial slots: x^i t^j dx^a dt^b Tx^m Tt^n.
SLOT_X, SLOT_T, SLOT_DX, SLOT_DT, SLOT_TX, SLOT_TT = range(6)
UNIT = (0, 0, 0, 0, 0, 0)

# Cap on len(a.terms) * len(b.terms) for each product formed by a power:
# ``(x+Dt+Tx)^17`` stays under it, where ``(x+Dt+Tx)^32`` ran for 24 s.
MAX_PRODUCT_TERMS = 4096

REALIZATIONS = ("classical", "time_deformed", "time_twisted",
                "space_deformed", "space_twisted")

# Which family's bracket table each realization satisfies (the twisted
# realizations restore the undeformed brackets), and which configuration
# family each belongs to.
REALIZATION_FAMILY = {
    "classical": "classical",
    "time_deformed": "time",
    "time_twisted": "classical",
    "space_deformed": "space",
    "space_twisted": "classical",
}
REALIZATION_CONFIG = {
    "classical": "classical",
    "time_deformed": "time",
    "time_twisted": "time",
    "space_deformed": "space",
    "space_twisted": "space",
}


def _lpoly(c):
    if isinstance(c, ParamPoly):
        return c
    return ParamPoly.const(c, POLICY_LAURENT)


def _lvar(name, power=1):
    return ParamPoly.var(name, power, POLICY_LAURENT)


class ProductTooLargeError(ValueError):
    """A product whose factors' term counts multiply past ``MAX_PRODUCT_TERMS``."""


def check_product_size(a, b):
    """Refuse the product a*b before it is formed when it is too large."""
    if len(a.terms) * len(b.terms) > MAX_PRODUCT_TERMS:
        raise ProductTooLargeError(
            f"product too large: {len(a.terms)} x {len(b.terms)} terms exceed the cap "
            f"{MAX_PRODUCT_TERMS}")


class OreElement(LinComb):
    """Skew-polynomial operator in canonical written order."""

    __slots__ = ()
    laurent = POLICY_LAURENT
    _unit = UNIT

    def __init__(self, terms=None):
        self.terms = terms or {}

    @classmethod
    def from_coeff(cls, c):
        c = _lpoly(c)
        return cls({UNIT: c} if not c.is_zero() else {})

    def __mul__(self, other):
        if not isinstance(other, OreElement):
            return self.scale(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _mono_product(out, m1, m2, c1 * c2)
        return OreElement(out)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator powers must be nonnegative integers")
        out = OreElement.from_coeff(1)
        for _ in range(n):
            check_product_size(out, self)
            out = out * self
        return out

    def substitute_params(self, bindings):
        return self.map_coeffs(lambda c: c.substitute(bindings))

    @staticmethod
    def _rank(key):
        return (sum(map(abs, key)), key)

    @staticmethod
    def _key_str(mono):
        return "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(("x", "t", "dx", "dt", "Tx", "Tt"), mono) if e)

    def _term_str(self, body, c):
        if body:
            return super()._term_str(body, c)
        return str(c) if len(c.exponents()) == 1 else f"({c})"

    def __repr__(self):
        return f"<ore {self}>"


@cache
def _chain_moves(a, shift, i):
    """Expansion of d^a T^shift x^i as a tuple of (k, q, int_coeff) contributions.

    d^a T^s x^i = sum_k C(a,k) (i)_k (x + s*step)^(i-k) d^(a-k) T^s, with the
    binomial (x + s*step)^(i-k) expanded; q is the power of the lattice step.
    Cached: the arguments are exponents of operator monomials, bounded by the
    degree cap on expressions.
    """
    out = []
    for k in range(min(a, i) + 1):
        base = comb(a, k) * perm(i, k)
        if base == 0:
            continue
        rem = i - k
        for q in range(rem + 1):
            c = base * comb(rem, q) * (shift ** q)
            if c:
                out.append((k, q, c))
    return tuple(out)


def _mono_product(acc, m1, m2, coeff):
    """Accumulate the product of two monomials into ``acc``."""
    if coeff.is_zero():
        return
    i1, j1, a1, b1, mm1, n1 = m1
    i2, j2, a2, b2, mm2, n2 = m2
    x_moves = _chain_moves(a1, mm1, i2)
    t_moves = _chain_moves(b1, n1, j2)
    # Most moves carry the integer 1 (no derivative meets a coordinate).
    for k, q, cx in x_moves:
        cqx = coeff if cx == 1 else coeff * cx
        if q:
            cqx = cqx.shift_param("sigma", q)
        for l, r, ct in t_moves:
            c = cqx if ct == 1 else cqx * ct
            if r:
                c = c.shift_param("tau", r)
            _acc(acc, (i1 + i2 - k - q, j1 + j2 - l - r,
                       a1 - k + a2, b1 - l + b2, mm1 + mm2, n1 + n2), c)


# -- atoms ---------------------------------------------------------------------

def atom(name, power=1):
    """x, t, dx, dt, Tx, Tt to an integer power (negative only on Tx/Tt)."""
    slots = {"x": SLOT_X, "t": SLOT_T, "dx": SLOT_DX, "dt": SLOT_DT,
             "Tx": SLOT_TX, "Tt": SLOT_TT}
    slot = slots[name]
    if power < 0 and slot not in (SLOT_TX, SLOT_TT):
        raise ValueError(f"negative powers are only defined on shifts, not {name}")
    mono = [0] * 6
    mono[slot] = power
    return OreElement({tuple(mono): ParamPoly.one(POLICY_LAURENT)})


def forward_difference(coord):
    """(T - 1)/step on the named coordinate ('x' or 't')."""
    if coord == "t":
        shift, step = atom("Tt"), "tau"
    elif coord == "x":
        shift, step = atom("Tx"), "sigma"
    else:
        raise ValueError("coordinate must be 'x' or 't'")
    return (shift - OreElement.from_coeff(1)).scale(_lvar(step, -1))


def backward_difference(coord):
    """(1 - T^-1)/step, i.e. the forward difference times T^-1."""
    if coord == "t":
        inv, step = atom("Tt", -1), "tau"
    else:
        inv, step = atom("Tx", -1), "sigma"
    return (OreElement.from_coeff(1) - inv).scale(_lvar(step, -1))


# -- action on polynomials -------------------------------------------------------

class ApplyError(ValueError):
    """The operator's Laurent poles did not cancel on the given polynomial."""


def apply_operator(op, phi):
    """Exact action of an operator on a polynomial in x and t.

    Derivatives differentiate, shifts translate the arguments by multiples of
    the lattice constants, coordinates multiply.  Raises ApplyError when the
    operator's 1/tau or 1/sigma factors fail to cancel on this input.
    """
    phi = phi.with_policy(POLICY_LAURENT)
    sigma = _lvar("sigma")
    tau = _lvar("tau")
    xvar = _lvar("x")
    tvar = _lvar("t")
    total = ParamPoly.zero(POLICY_LAURENT)
    for (i, j, a, b, m, n), coeff in op.terms.items():
        cur = phi
        if m:
            cur = cur.substitute_var("x", xvar + sigma * m)
        if n:
            cur = cur.substitute_var("t", tvar + tau * n)
        for _ in range(a):
            cur = cur.derivative("x")
        for _ in range(b):
            cur = cur.derivative("t")
        if i:
            cur = cur * xvar ** i
        if j:
            cur = cur * tvar ** j
        total = total + cur * coeff
    if total.min_exponent("tau") < 0 or total.min_exponent("sigma") < 0:
        raise ApplyError("operator poles in the lattice constants did not cancel")
    return total.with_policy(POLICY_POLY)


# -- realizations ----------------------------------------------------------------

def _symbolic_realization(name):
    mu = _lvar("mu")
    nu = _lvar("nu")
    tau = _lvar("tau")
    sigma = _lvar("sigma")
    x = atom("x")
    t = atom("t")
    dx = atom("dx")
    dt = atom("dt")
    if name == "classical":
        return {
            "H": dt,
            "P": dx,
            "K": -(t * dx).scale(nu) - (x * dt).scale(mu),
            "D": -(x * dx) - (t * dt),
            "C1": ((x * x).scale(mu) + (t * t).scale(nu)) * dt + (x * t * dx).scale(2 * nu),
            "C2": -((x * x).scale(mu) + (t * t).scale(nu)) * dx - (x * t * dt).scale(2 * mu),
        }
    if name == "time_deformed":
        ttinv = atom("Tt", -1)
        ttinv2 = atom("Tt", -2)
        fwd = forward_difference("t")
        bwd = backward_difference("t")
        return {
            "H": dt,
            "P": dx,
            "K": -(t * ttinv * dx).scale(nu) - (x * fwd).scale(mu),
            "D": -(x * dx) - t * bwd,
            "C1": ((x * x).scale(mu) + (t * t * ttinv).scale(nu)) * fwd
                + (x * t * dx).scale(2 * nu)
                + (x * dx + x * x * dx * dx).scale(tau * nu),
            "C2": -((x * x).scale(mu) + (t * t * ttinv2).scale(nu)) * dx
                - (x * t * bwd).scale(2 * mu)
                + (t * ttinv2 * dx).scale(tau * nu),
        }
    if name == "time_twisted":
        ttinv = atom("Tt", -1)
        ttinv2 = atom("Tt", -2)
        fwd = forward_difference("t")
        return {
            "H": fwd,
            "P": dx,
            "K": -(t * ttinv * dx).scale(nu) - (x * fwd).scale(mu),
            "D": -(x * dx) - t * ttinv * fwd,
            "C1": ((x * x).scale(mu) + (t * t * ttinv2).scale(nu)) * fwd
                + (x * t * ttinv * dx).scale(2 * nu)
                - (t * ttinv2 * fwd).scale(tau * nu),
            "C2": -((x * x).scale(mu) + (t * t * ttinv2).scale(nu)) * dx
                - (x * t * ttinv * fwd).scale(2 * mu)
                + (t * ttinv2 * dx).scale(tau * nu),
        }
    if name == "space_deformed":
        txinv = atom("Tx", -1)
        txinv2 = atom("Tx", -2)
        fwd = forward_difference("x")
        bwd = backward_difference("x")
        return {
            "P": dx,
            "H": dt,
            "K": -(t * fwd).scale(nu) - (x * txinv * dt).scale(mu),
            "D": -x * bwd - (t * dt),
            "C1": ((x * x * txinv2).scale(mu) + (t * t).scale(nu)) * dt
                + (x * t * bwd).scale(2 * nu)
                - (x * txinv2 * dt).scale(sigma * mu),
            "C2": -((x * x * txinv).scale(mu) + (t * t).scale(nu)) * fwd
                - (x * t * dt).scale(2 * mu)
                - (t * dt + t * t * dt * dt).scale(sigma * mu),
        }
    if name == "space_twisted":
        txinv = atom("Tx", -1)
        txinv2 = atom("Tx", -2)
        fwd = forward_difference("x")
        return {
            "P": fwd,
            "H": dt,
            "K": -(t * fwd).scale(nu) - (x * txinv * dt).scale(mu),
            "D": -x * txinv * fwd - (t * dt),
            "C1": ((x * x * txinv2).scale(mu) + (t * t).scale(nu)) * dt
                + (x * t * txinv * fwd).scale(2 * nu)
                - (x * txinv2 * dt).scale(sigma * mu),
            "C2": -((x * x * txinv2).scale(mu) + (t * t).scale(nu)) * fwd
                - (x * t * txinv * dt).scale(2 * mu)
                + (x * txinv2 * fwd).scale(sigma * mu),
        }
    raise ValueError(f"unknown realization {name!r}; expected one of {REALIZATIONS}")


# The generator images per (name, mu, nu), built once for the process.
_REALIZATIONS = {}


def realization(name, config):
    """The six generator images for a realization, parameters substituted.

    The images are built once per (name, mu, nu); each call returns a new
    dict of them, so a caller may replace an image without changing the next
    call's result.
    """
    key = (name, config.mu, config.nu)
    images = _REALIZATIONS.get(key)
    if images is None:
        images = _symbolic_realization(name)
        bindings = config.bindings()
        if bindings:
            images = {g: e.substitute_params(bindings) for g, e in images.items()}
        _REALIZATIONS[key] = images
    return dict(images)


class OreContext(TableContext):
    """Table context over operators: the realization provides the generators,
    shifts provide the exponentials of the primitive generator."""

    laurent = POLICY_LAURENT

    def __init__(self, config, images):
        super().__init__(config, images, OreElement.from_coeff(1))
        self._coord = {"time": "t", "space": "x"}.get(config.family)

    def exp(self, k):
        return atom("T" + self._coord, k)

    def dq_plus(self):
        return forward_difference(self._coord)

    def dq_minus(self):
        return backward_difference(self._coord)


def check_realization_homomorphism(name, config):
    """Every bracket of the realization's family holds exactly as operators."""
    if config.family != REALIZATION_CONFIG[name]:
        raise ValueError(f"realization {name!r} belongs to the "
                         f"{REALIZATION_CONFIG[name]} family, not {config.family}")
    family = REALIZATION_FAMILY[name]
    images = realization(name, config)
    ctx = OreContext(config, images)
    report = VerificationReport(f"realization[{name}]", config.echo())
    for (xg, yg), build in commutator_entries(family):
        expected = build(ctx)
        residual = images[xg].commutator(images[yg]) - expected
        report.check(f"bracket[{xg},{yg}]",
                     f"[{xg},{yg}] holds in the {name} realization", residual)
    return report


# -- invariant operators and symmetry multipliers --------------------------------

def casimir_operator(name, config, which):
    """Realized invariant operators.

    ``E`` is the translation-boost subalgebra Casimir in the realization's own
    generators; ``E_def`` replaces the primitive generator by the forward
    difference (they coincide on twisted realizations).  ``W1``/``W2`` realize
    the full Casimirs; they vanish identically for every realization here.
    """
    family = REALIZATION_FAMILY[name]
    images = realization(name, config)
    ctx = OreContext(config, images)
    if which in ("W1", "W2"):
        return casimir_terms(family, which, ctx)
    if which == "E":
        p, h = images["P"], images["H"]
        return (p * p).scale(ctx.nu) - (h * h).scale(ctx.mu)
    if which == "E_def":
        p, h = images["P"], images["H"]
        if family == "time":
            h = ctx.dq_plus()
        elif family == "space":
            p = ctx.dq_plus()
        return (p * p).scale(ctx.nu) - (h * h).scale(ctx.mu)
    raise ValueError(f"unknown invariant {which!r}")


def symmetry_multipliers(name, config):
    """The operator Lambda_O with [E, O] = Lambda_O * E, per generator."""
    mu, nu, _ = config.params(POLICY_LAURENT)
    x = atom("x")
    t = atom("t")
    zero = OreElement()
    minus2 = OreElement.from_coeff(-2)
    out = {"H": zero, "P": zero, "K": zero, "D": minus2}
    if name in ("classical", "space_deformed", "space_twisted"):
        out["C1"] = t.scale(4 * nu)
    elif name == "time_deformed":
        tau = _lvar("tau")
        out["C1"] = (t + OreElement.from_coeff(tau)
                     + (x * atom("dx")).scale(tau)).scale(4 * nu)
    else:  # time_twisted
        out["C1"] = (t * atom("Tt", -1)).scale(4 * nu)
    if name in ("classical", "time_deformed", "time_twisted"):
        out["C2"] = x.scale(-4 * mu)
    elif name == "space_deformed":
        sigma = _lvar("sigma")
        out["C2"] = (x + OreElement.from_coeff(sigma)
                     + (t * atom("dt")).scale(sigma)).scale(-4 * mu)
    else:  # space_twisted
        out["C2"] = (x * atom("Tx", -1)).scale(-4 * mu)
    return out


def symmetry_check(name, config):
    """[E, O] = Lambda_O E for every generator O, exactly."""
    images = realization(name, config)
    inv = casimir_operator(name, config, "E_def")
    multipliers = symmetry_multipliers(name, config)
    report = VerificationReport(f"symmetry[{name}]", config.echo())
    for g in GENERATORS:
        residual = inv.commutator(images[g]) - multipliers[g] * inv
        lam = multipliers[g]
        anchor = (f"[E, {g}] = 0" if lam.is_zero()
                  else f"[E, {g}] = ({lam}) * E")
        report.check(f"multiplier[{g}]", anchor, residual)
    return report


# -- classical limit ---------------------------------------------------------------

class ClassicalLimitError(ValueError):
    """A genuine pole survives the lattice-constant limit."""


def classical_limit(op):
    """The vanishing-lattice-constant limit, expressed in x, t, dx, dt only.

    Shifts are re-expanded as Taylor series in the matching derivative to the
    pole order of each coefficient; surviving negative powers mean the limit
    does not exist and raise ClassicalLimitError naming the term.
    """
    expanded = {}
    for mono, coeff in op.terms.items():
        i, j, a, b, m, n = mono
        pole_s = max(0, -coeff.min_exponent("sigma"))
        pole_t = max(0, -coeff.min_exponent("tau"))
        for k, ck in _taylor_shift(m, "sigma", pole_s + 1):
            for l, cl in _taylor_shift(n, "tau", pole_t + 1):
                _acc(expanded, (i, j, a + k, b + l, 0, 0), coeff * ck * cl)
    out = {}
    for mono, coeff in expanded.items():
        if coeff.min_exponent("tau") < 0 or coeff.min_exponent("sigma") < 0:
            raise ClassicalLimitError(
                f"pole survives the limit on term {mono}: {coeff}")
        limited = coeff.substitute({"tau": 0, "sigma": 0})
        if not limited.is_zero():
            out[mono] = limited
    return OreElement(out)


def _taylor_shift(power, step, order):
    """(step*power*d)^k/k! coefficients for T^power, k = 0..order."""
    if power == 0:
        return [(0, ParamPoly.one(POLICY_LAURENT))]
    out = []
    fact = 1
    for k in range(order + 1):
        if k:
            fact *= k
        c = _lvar(step, k) * Fraction(power ** k, fact)
        out.append((k, c))
    return out


# -- lattice solutions ---------------------------------------------------------------

def seed_solution():
    """mu*x^2 + nu*t*(t - tau): the quadratic lattice solution."""
    mu = ParamPoly.var("mu")
    nu = ParamPoly.var("nu")
    x = ParamPoly.var("x")
    t = ParamPoly.var("t")
    tau = ParamPoly.var("tau")
    return mu * x * x + nu * t * (t - tau)


def lattice_solutions(config, count=10):
    """Transport the seed through symmetry operators; all stay solutions.

    Returns ``count`` distinct nonzero polynomials obtained by applying words
    in the time-deformed realization to the seed.
    """
    images = realization("time_deformed", config)
    words = [("H",), ("P",), ("K",), ("D",), ("C1",), ("C2",),
             ("D", "D"), ("K", "D"), ("C1", "D"), ("C2", "P"),
             ("C1", "C1"), ("C2", "D"), ("K", "K")]
    seed = _specialize_poly(seed_solution(), config)
    out = []
    seen = set()
    for word in words:
        phi = seed
        for g in word:
            phi = apply_operator(images[g], phi)
        if phi.is_zero() or phi in seen:
            continue
        seen.add(phi)
        out.append(phi)
        if len(out) == count:
            break
    return out


def _specialize_poly(p, config):
    bindings = config.bindings()
    return p.substitute(bindings) if bindings else p


def transport_report(config, count=10):
    """The invariant operator annihilates the seed and its transports.

    When mu*nu = 0 the count of distinct transports, and each transport
    beyond those found, is declared skipped; so is the seed itself where it
    specializes to the zero polynomial, which every operator annihilates.
    """
    inv = casimir_operator("time_deformed", config, "E_def")
    report = VerificationReport("solution-transport", config.echo())
    seed = _specialize_poly(seed_solution(), config)
    seed_anchor = "E annihilates mu*x^2 + nu*t*(t - tau)"
    if seed.is_zero():
        report.skip("seed", seed_anchor, "the seed specializes to the zero polynomial")
    else:
        report.check("seed", seed_anchor, apply_operator(inv, seed))
    solutions = lattice_solutions(config, count)
    anchor = f"{count} distinct transported solutions found"
    # mu*nu = 0 drops a variable from the seed, so its orbit can be smaller.
    degenerate = 0 in (config.mu, config.nu)
    reason = f"mu*nu = 0 degenerates the seed; {len(solutions)} found"
    if degenerate:
        report.skip("descendants", anchor, reason)
    else:
        report.note("descendants", anchor, len(solutions) == count,
                    f"only {len(solutions)} found")
    for idx, phi in enumerate(solutions):
        residual = apply_operator(inv, phi)
        report.check(f"transport[{idx}]", f"E annihilates descendant {idx} ({phi})",
                     residual)
    if degenerate:
        for idx in range(len(solutions), count):
            report.skip(f"transport[{idx}]", f"E annihilates descendant {idx}", reason)
    return report
