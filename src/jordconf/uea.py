"""Normal-ordering engine for the deformed enveloping algebras.

The six generators H, P, K, D, C1, C2 (``GENERATORS``, the Lie basis) close
three families of algebras: the undeformed one ("classical"), a deformation
with primitive H and lattice constant tau ("time"), and a deformation with
primitive P and lattice constant sigma ("space").  Elements are kept in
Poincare-Birkhoff-Witt canonical form with respect to the fixed generator
order

    H < P < K < D < C1 < C2,

i.e. every product is rewritten into a combination of ordered monomials
``H^a P^b K^c D^d C1^e C2^f`` with ``ParamPoly`` coefficients, keyed in a
layout that the rewrite engine ``Algebra`` alone owns.  Exponentials of the
primitive generator are expanded eagerly as truncated power series in the
deformation parameter, so the rewrite alphabet stays finite and all
identities are decided exactly to the configured order.

Products are rewritten one generator at a time, with one exception.  In a
deformed family the primitive generator G (H or P) and the dilation D span
an Ore extension: [D, G] = phi(G) is a series in G alone, phi(G) =
(1 - exp(-param*G))/param, so D f(G) = f(G) D + phi(G) f'(G).  A product of
two monomials of ``<G, D>`` is then ordered in closed form,

    (G^a D^b)(G^c D^d) = sum_k C(b, k) G^a delta^k(G^c) D^(b-k+d),

with delta = phi(G) d/dG, truncated at the configured order.  phi is read
from the engine's own [G, D] entry, so an injected table goes through the
same rule whenever that entry is a series in G alone; the rule then agrees
with one-generator rewriting term by term, because a two-letter rewrite
system has no overlaps to resolve.

The commutator tables are written once, against the ``TableContext``
protocol (``gen``/``mul``/``exp``/``dq_plus``/``dq_minus``/coefficients), and
are instantiated by this module for abstract elements, by ``ore`` for
differential-difference operators and by ``matrixrep`` for exact matrices.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from .poly import POLICY_POLY, LinComb, ParamPoly, _acc
from .poly import ConfigMismatchError  # noqa: F401  (raised by PbwElement operations)

GENERATORS = ("H", "P", "K", "D", "C1", "C2")

# The shared unit coefficient, held by the table's unit and generator-step products.
_ONE = ParamPoly.one()

DEFAULT_ORDER = 6

FAMILIES = ("classical", "time", "space")

# Generator that stays primitive, and the matching deformation parameter.
PRIMARY = {"time": "H", "space": "P"}
DEF_PARAM = {"time": "tau", "space": "sigma"}


def _as_param(value):
    if value == "sym":
        return "sym"
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise ValueError(f"contraction parameter must be 'sym', int or Fraction, got {value!r}")


@dataclass(frozen=True)
class FamilyConfig:
    """Deformation family, contraction parameters and truncation order."""

    family: str
    mu: object = "sym"
    nu: object = "sym"
    order: int = DEFAULT_ORDER

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        object.__setattr__(self, "mu", _as_param(self.mu))
        object.__setattr__(self, "nu", _as_param(self.nu))
        if type(self.order) is not int or self.order < 0:
            raise ValueError(f"truncation order must be a nonnegative int, got {self.order!r}")

    @property
    def param(self):
        """Name of the deformation parameter, or None for the classical family."""
        return DEF_PARAM.get(self.family)

    @property
    def primary(self):
        return PRIMARY.get(self.family)

    def primitive_generator(self):
        """The primitive generator G of a deformed family, which r and R are built on."""
        if self.primary is None:
            raise ValueError(f"the {self.family} family has no primitive generator, "
                             "so no r-matrix and no universal R element")
        return self.primary

    def params(self, laurent):
        """(mu, nu, defparam) as polynomials under the exponent policy ``laurent``.

        A symbolic contraction parameter is its indeterminate and a numeric one
        its constant; the classical family's deformation parameter is zero.
        """
        mu, nu = (ParamPoly.var(name, laurent=laurent) if value == "sym"
                  else ParamPoly.const(value, laurent)
                  for name, value in (("mu", self.mu), ("nu", self.nu)))
        defparam = (ParamPoly.var(self.param, laurent=laurent) if self.param
                    else ParamPoly.zero(laurent))
        return mu, nu, defparam

    def bindings(self):
        """The numeric contraction parameters as substitution bindings."""
        return {name: value for name, value in (("mu", self.mu), ("nu", self.nu))
                if value != "sym"}

    def dual(self):
        """Configuration reached by the generator-exchange equivalence."""
        family = {"time": "space", "space": "time", "classical": "classical"}[self.family]
        return FamilyConfig(family, self.nu, self.mu, self.order)

    def echo(self):
        return {
            "family": self.family,
            "mu": str(self.mu),
            "nu": str(self.nu),
            "order": self.order,
        }


class PbwElement(LinComb):
    """Element of the enveloping algebra in PBW canonical form.

    ``terms`` maps the PBW monomial keys of the configuration's engine to
    nonzero ``ParamPoly`` coefficients (no x/t indeterminates, nonnegative
    powers of the deformation parameters, truncated to the configured order).
    """

    __slots__ = ("config",)

    def __init__(self, terms, config):
        self.terms = terms
        self.config = config

    def _meta(self):
        return (self.config,)

    @property
    def _unit(self):
        return algebra(self.config).unit_key

    def _key_str(self, key):
        return algebra(self.config).key_str(key)

    @property
    def order(self):
        return self.config.order

    def __mul__(self, other):
        if isinstance(other, PbwElement):
            self._coerce(other)
            return algebra(self.config).mul(self, other)
        return self.scale(other)

    def scale(self, c):
        if isinstance(c, ParamPoly) and (c.uses_var("x") or c.uses_var("t")):
            raise ValueError("enveloping-algebra coefficients cannot involve x or t")
        return super().scale(c)

    def __repr__(self):
        return f"<{self.config.family} pbw {self}>"


# ---------------------------------------------------------------------------
# Commutator tables.
#
# Entries are listed for ordered pairs (X, Y) with X < Y and give [X, Y].
# The construction order matters for the abstract context: an entry may only
# multiply products whose reordering uses entries listed before it.
# ---------------------------------------------------------------------------

def _classical_entries():
    return [
        (("H", "P"), lambda c: c.zero()),
        (("H", "K"), lambda c: c.gen("P").scale(-c.nu)),
        (("H", "D"), lambda c: -c.gen("H")),
        (("H", "C1"), lambda c: c.gen("D").scale(-2 * c.nu)),
        (("H", "C2"), lambda c: 2 * c.gen("K")),
        (("P", "K"), lambda c: c.gen("H").scale(-c.mu)),
        (("P", "D"), lambda c: -c.gen("P")),
        (("P", "C1"), lambda c: -2 * c.gen("K")),
        (("P", "C2"), lambda c: c.gen("D").scale(2 * c.mu)),
        (("K", "D"), lambda c: c.zero()),
        (("K", "C1"), lambda c: c.gen("C2").scale(c.nu)),
        (("K", "C2"), lambda c: c.gen("C1").scale(c.mu)),
        (("D", "C1"), lambda c: -c.gen("C1")),
        (("D", "C2"), lambda c: -c.gen("C2")),
        (("C1", "C2"), lambda c: c.zero()),
    ]


def _time_entries():
    # Deformed brackets of the family with primitive H; exponentials are
    # exp(k*tau*H) via c.exp(k), and (exp(tau*H)-1)/tau via c.dq_plus().
    return [
        (("H", "P"), lambda c: c.zero()),
        (("H", "K"), lambda c: c.mul(c.exp(-1), c.gen("P")).scale(-c.nu)),
        (("H", "D"), lambda c: -c.dq_minus()),
        (("H", "C1"), lambda c: c.gen("D").scale(-2 * c.nu)),
        (("P", "K"), lambda c: c.dq_plus().scale(-c.mu)),
        (("P", "D"), lambda c: -c.gen("P")),
        (("P", "C2"), lambda c: c.gen("D").scale(2 * c.mu)),
        (("K", "D"), lambda c: c.zero()),
        (("K", "C1"), lambda c: c.gen("C2").scale(c.nu)),
        (("D", "C2"), lambda c: -c.gen("C2")),
        # Entries below reorder products, using entries above.
        (("H", "C2"), lambda c: c.mul(c.exp(-1), c.gen("K")) + c.mul(c.gen("K"), c.exp(-1))),
        (("P", "C1"), lambda c: -2 * c.gen("K")
            - (c.mul(c.gen("D"), c.gen("P")) + c.mul(c.gen("P"), c.gen("D")))
            .scale(c.defparam * c.nu)),
        (("K", "C2"), lambda c: c.gen("C1").scale(c.mu)
            - c.mul(c.gen("D"), c.gen("D")).scale(c.defparam * c.mu * c.nu)),
        (("D", "C1"), lambda c: -c.gen("C1")
            + c.mul(c.gen("D"), c.gen("D")).scale(c.defparam * c.nu)),
        (("C1", "C2"), lambda c: -(c.mul(c.gen("D"), c.gen("C2"))
                                   + c.mul(c.gen("C2"), c.gen("D")))
            .scale(c.defparam * c.nu)),
    ]


def _space_entries():
    # Family with primitive P; exp(k) is exp(k*sigma*P).
    return [
        (("H", "P"), lambda c: c.zero()),
        (("H", "K"), lambda c: -c.dq_plus().scale(c.nu)),
        (("H", "D"), lambda c: -c.gen("H")),
        (("H", "C1"), lambda c: c.gen("D").scale(-2 * c.nu)),
        (("P", "K"), lambda c: c.mul(c.exp(-1), c.gen("H")).scale(-c.mu)),
        (("P", "D"), lambda c: -c.dq_minus()),
        (("P", "C2"), lambda c: c.gen("D").scale(2 * c.mu)),
        (("K", "D"), lambda c: c.zero()),
        (("K", "C2"), lambda c: c.gen("C1").scale(c.mu)),
        (("D", "C1"), lambda c: -c.gen("C1")),
        (("H", "C2"), lambda c: 2 * c.gen("K")
            + (c.mul(c.gen("D"), c.gen("H")) + c.mul(c.gen("H"), c.gen("D")))
            .scale(c.defparam * c.mu)),
        (("P", "C1"), lambda c: -(c.mul(c.exp(-1), c.gen("K"))
                                  + c.mul(c.gen("K"), c.exp(-1)))),
        (("K", "C1"), lambda c: c.gen("C2").scale(c.nu)
            + c.mul(c.gen("D"), c.gen("D")).scale(c.defparam * c.mu * c.nu)),
        (("D", "C2"), lambda c: -c.gen("C2")
            - c.mul(c.gen("D"), c.gen("D")).scale(c.defparam * c.mu)),
        (("C1", "C2"), lambda c: -(c.mul(c.gen("D"), c.gen("C1"))
                                   + c.mul(c.gen("C1"), c.gen("D")))
            .scale(c.defparam * c.mu)),
    ]


def commutator_entries(family):
    """Bracket recipes [(pair, builder), ...] in dependency-safe order."""
    entries = {"classical": _classical_entries, "time": _time_entries, "space": _space_entries}
    if family not in entries:
        raise ValueError(f"unknown family {family!r}")
    return entries[family]()


def casimir_terms(family, which, ctx):
    """Build a Casimir element in any context implementing the protocol.

    ``which`` is ``W1`` or ``W2``.  The space-family expressions are the
    generator-exchange images of the time-family ones; their classical limits
    agree with the undeformed Casimirs.
    """
    half = Fraction(1, 2)
    g, m = ctx.gen, ctx.mul
    mu, nu = ctx.mu, ctx.nu
    if family == "classical":
        if which == "W1":
            return (m(g("K"), g("K")) + m(g("D"), g("D")).scale(mu * nu)
                    - (m(g("H"), g("C1")) + m(g("C1"), g("H"))).scale(half * mu)
                    + (m(g("P"), g("C2")) + m(g("C2"), g("P"))).scale(half * nu))
        if which == "W2":
            return (m(g("K"), g("D"))
                    + (m(g("H"), g("C2")) - m(g("C1"), g("P"))).scale(half))
    if family == "time":
        dq = ctx.dq_plus()
        if which == "W1":
            dd = m(g("D"), g("D"))
            return (m(g("K"), g("K")) + dd.scale(mu * nu)
                    - (m(dq, g("C1")) + m(g("C1"), dq)).scale(half * mu)
                    + (m(g("P"), g("C2")) + m(g("C2"), g("P"))).scale(half * nu)
                    + (m(ctx.exp(1), dd) + m(dd, ctx.exp(1))).scale(half * mu * nu)
                    - dd.scale(mu * nu))
        if which == "W2":
            return (m(g("K"), g("D"))
                    + (m(dq, g("C2")) - m(g("C1"), g("P"))).scale(half)
                    + m(m(g("D"), g("D")), g("P")).scale(half * ctx.defparam * nu))
    if family == "space":
        dq = ctx.dq_plus()
        if which == "W1":
            dd = m(g("D"), g("D"))
            return (m(g("K"), g("K")) + dd.scale(mu * nu)
                    + (m(dq, g("C2")) + m(g("C2"), dq)).scale(half * nu)
                    - (m(g("H"), g("C1")) + m(g("C1"), g("H"))).scale(half * mu)
                    + (m(ctx.exp(1), dd) + m(dd, ctx.exp(1))).scale(half * mu * nu)
                    - dd.scale(mu * nu))
        if which == "W2":
            return (m(g("K"), g("D"))
                    + (m(g("C2"), g("H")) - m(dq, g("C1"))).scale(half)
                    + m(m(g("D"), g("D")), g("H")).scale(half * ctx.defparam * mu))
    raise ValueError(f"unknown casimir {which!r} for family {family!r}")


# ---------------------------------------------------------------------------
# The rewrite engine.
# ---------------------------------------------------------------------------

class TableContext:
    """What the table recipes (brackets, Casimirs, coproducts, twists) are built from.

    A recipe reads the parameters ``mu``, ``nu`` and ``defparam`` (from
    ``FamilyConfig.params`` under the element type's coefficient policy
    ``laurent``) and calls ``gen``, ``mul``, ``zero``, ``one`` and, for the
    deformed families, ``exp(k)`` = exp(k*param*G) with G the primitive
    generator, ``dq_plus`` = (exp(param*G) - 1)/param and ``dq_minus`` =
    (1 - exp(-param*G))/param, which subclasses supply.  A coproduct recipe
    also takes the leg product ``tensor(a, b)`` as its second argument.
    """

    laurent = POLICY_POLY

    def __init__(self, config, images, one):
        self.config = config
        self.mu, self.nu, self.defparam = config.params(self.laurent)
        self.images = images
        self._one = one

    def gen(self, label):
        return self.images[label]

    def one(self):
        return self._one

    def zero(self):
        return self._one.scale(0)

    def mul(self, a, b):
        return a * b


class Algebra(TableContext):
    """Per-configuration rewrite engine; also the table context over PBW elements.

    Every product of two PBW monomials the engine forms, a generator product
    m * X being the pair (m, X), is kept in one product table ``_products``
    for the life of the engine, so each is rewritten once per configuration.
    The table is looked up first; only a miss tests for the unit right factor
    (neither stored nor counted) and finds the top generator.  ``table_hits``
    and ``table_misses`` count the lookups.  Entries are shared by every
    caller and never mutated.  Every entry coefficient is truncated at the
    order, and the unit and in-order generator products carry the shared
    ``ParamPoly.one()``: the product loops add a truncated left factor itself
    when the right one ``is`` that constant.  The bracket correction of a
    rewrite step always multiplies, because an injected table may carry terms
    above the order.  A pair of coefficients whose degree bounds
    (``ParamPoly.low``) add up past the order is not multiplied:
    ``mul_trunc`` compares the bounds first and returns the shared zero
    without reading a term, and the loops drop it (``poly`` module
    docstring).

    When the [G, D] entry of the primitive generator G is a series in G
    alone, a product of two monomials of ``<G, D>`` is ordered by the closed
    Ore rule D^b G^c = sum_k C(b, k) delta^k(G^c) D^(b-k) (module docstring),
    cached per (b, c) for the life of the engine; every other product is
    rewritten one generator at a time.

    The engine owns the monomial layout: a key holds the exponents over
    ``slots`` (``GENERATORS`` in PBW order), and no other module reads one by
    position.
    """

    def __init__(self, config, table=None):
        self.slots = GENERATORS
        self.slot_of = {g: i for i, g in enumerate(GENERATORS)}
        self.unit_key = (0,) * len(GENERATORS)
        self._gen_keys = tuple(self.mono(g) for g in GENERATORS)
        images = {g: PbwElement({self.mono(g): ParamPoly.one()}, config) for g in GENERATORS}
        super().__init__(config, images, PbwElement({self.unit_key: ParamPoly.one()}, config))
        self.N = config.order
        self._products = {}
        self.table_hits = self.table_misses = 0
        self._ore = None  # set below, once the [G, D] entry exists
        self._ore_cache = {}
        self.table = dict(table or {})
        if table is None:
            for pair, build in commutator_entries(config.family):
                self.table[pair] = build(self)
        self._ore = self._ore_pair()

    # -- the monomial layout ---------------------------------------------------

    def mono(self, label, power=1):
        """The key of ``label^power``."""
        key = list(self.unit_key)
        key[self.slot_of[label]] = power
        return tuple(key)

    def top_slot(self, key):
        """Slot of the highest generator in a key, or -1 for the unit."""
        i = len(key) - 1
        while i >= 0 and not key[i]:
            i -= 1
        return i

    def word(self, key):
        """The labels of a key in PBW order, each repeated by its exponent."""
        return tuple(g for g, e in zip(self.slots, key) for _ in range(e))

    def key_str(self, key):
        """A key rendered as, say, ``H^2*D`` (``1`` for the unit)."""
        parts = [g if e == 1 else f"{g}^{e}" for g, e in zip(self.slots, key) if e]
        return "*".join(parts) if parts else "1"

    def _ore_pair(self):
        """(index of G, index of D, phi) for the closed rule, or None.

        The rule needs [D, G] = phi(G), a series in the primitive generator G
        alone; phi is kept as {power: coefficient}.
        """
        g = self.config.primary
        if g is None:
            return None
        gi = self.slot_of[g]
        phi = {}
        for mono, c in self.table[(g, "D")].terms.items():
            if any(e for i, e in enumerate(mono) if i != gi):
                return None
            phi[mono[gi]] = -c
        return gi, self.slot_of["D"], phi

    def _primary_series(self, coeff_of_power):
        """sum_j c_j G^j over the pairs (j, c_j), G the primitive generator."""
        if self.config.family == "classical":
            raise ValueError("the classical family carries no deformation series")
        g = self.config.primary
        return PbwElement({self.mono(g, j): c for j, c in coeff_of_power if not c.is_zero()},
                          self.config)

    def exp(self, k):
        """Truncated series of exp(k * param * primary generator)."""
        p = self.defparam
        return self._primary_series(
            (j, (p ** j) * Fraction(k ** j, factorial(j))) for j in range(self.N + 1))

    def dq_plus(self):
        """(exp(param*G) - 1)/param as a polynomial series."""
        p = self.defparam
        return self._primary_series(
            (j, (p ** (j - 1)) * Fraction(1, factorial(j))) for j in range(1, self.N + 2))

    def dq_minus(self):
        """(1 - exp(-param*G))/param as a polynomial series."""
        p = self.defparam
        return self._primary_series(
            (j, (p ** (j - 1)) * Fraction((-1) ** (j + 1), factorial(j)))
            for j in range(1, self.N + 2))

    # -- rewriting ----------------------------------------------------------

    def bracket(self, x, y):
        """[x, y] as a PBW element, for generator labels in any order."""
        if x == y:
            return self.zero()
        if self.slot_of[x] < self.slot_of[y]:
            return self.table[(x, y)]
        return -self.table[(y, x)]

    def _mono_times_mono(self, m1, m2):
        """Product of two PBW monomials as a dict {mono: ParamPoly}, from the table.

        Two monomials of ``<G, D>`` are ordered by the closed Ore rule, and a
        generator m2 by one rewrite step (``_mono_times_gen``).  Any other m2
        loses its top generator Y: m1*m2 = (m1*m2')*Y.
        """
        key = (m1, m2)
        hit = self._products.get(key)
        if hit is not None:
            self.table_hits += 1
            return hit
        top = self.top_slot(m2)
        if top < 0:
            return {m1: _ONE}
        self.table_misses += 1
        ore = self._ore
        if ore is not None and all(sum(m) == m[ore[0]] + m[ore[1]] for m in (m1, m2)):
            result = self._ore_product(m1, m2)
        elif sum(m2) == 1:
            result = self._mono_times_gen(m1, top)
        else:
            rest = list(m2)
            rest[top] -= 1
            y = self._gen_keys[top]
            n = self.N
            result = {}
            for m, c in self._mono_times_mono(m1, tuple(rest)).items():
                for m3, c3 in self._mono_times_mono(m, y).items():
                    _acc(result, m3, c if c3 is _ONE else c.mul_trunc(c3, n))
        self._products[key] = result
        return result

    def _mono_times_gen(self, mono, gi):
        """mono * generator(gi) as a dict {mono: ParamPoly}: one rewrite step."""
        top = self.top_slot(mono)
        if top <= gi:
            out_mono = list(mono)
            out_mono[gi] += 1
            return {tuple(out_mono): _ONE}
        # mono = rest * Y with Y the top generator; then
        # mono*g = (rest*g)*Y + rest*[Y, g].
        n = self.N
        rest = list(mono)
        rest[top] -= 1
        rest = tuple(rest)
        result = {}
        for m2, c2 in self._mono_times_mono(rest, self._gen_keys[gi]).items():
            for m3, c3 in self._mono_times_mono(m2, self._gen_keys[top]).items():
                _acc(result, m3, c2 if c3 is _ONE else c2.mul_trunc(c3, n))
        corr = self.bracket(self.slots[gi], self.slots[top])
        for m, cn in corr.terms.items():
            for m3, c3 in self._mono_times_mono(rest, m).items():
                _acc(result, m3, -cn.mul_trunc(c3, n))
        return result

    def _ore_product(self, m1, m2):
        """(G^a D^b)(G^c D^d) = sum G^(a+j) D^(e+d) over D^b G^c = sum G^j D^e."""
        gi, di, _ = self._ore
        a, d = m1[gi], m2[di]
        result = {}
        for (j, e), c in self._d_pow_times_g_pow(m1[di], m2[gi]).items():
            mono = list(self.unit_key)
            mono[gi] = a + j
            mono[di] = e + d
            result[tuple(mono)] = c
        return result

    def _d_pow_times_g_pow(self, b, c):
        """D^b G^c = sum_k C(b, k) delta^k(G^c) D^(b-k) as {(j, e): coeff} for G^j D^e.

        delta(f) = phi(G) f'(G) is [D, f(G)]; the terms are truncated at the
        configured order.  Cached per (b, c) for the life of the engine.
        """
        key = (b, c)
        hit = self._ore_cache.get(key)
        if hit is not None:
            return hit
        n = self.N
        phi = self._ore[2]
        result = {}
        f = {c: _ONE}  # delta^k(G^c) as {power of G: coeff}
        for k in range(b + 1):
            binom = comb(b, k)
            for j, cf in f.items():
                _acc(result, (j, b - k), cf * binom)
            if k == b:
                break
            nxt = {}
            for j, cf in f.items():
                if j:
                    cf = cf * j
                    for p, cp in phi.items():
                        _acc(nxt, j - 1 + p, cf.mul_trunc(cp, n))
            f = nxt
        self._ore_cache[key] = result
        return result

    def mul(self, a, b):
        n = self.N
        out = {}
        for m2, c2 in b.terms.items():
            for m1, c1 in a.terms.items():
                c = c1.mul_trunc(c2, n)
                if c.is_zero():
                    continue
                for m3, c3 in self._mono_times_mono(m1, m2).items():
                    _acc(out, m3, c if c3 is _ONE else c.mul_trunc(c3, n))
        return PbwElement(out, self.config)


_ALGEBRAS = {}


def algebra(config, table=None):
    """Engine for a configuration; memoized unless a custom table is given."""
    if table is not None:
        return Algebra(config, table=table)
    alg = _ALGEBRAS.get(config)
    if alg is None:
        alg = Algebra(config)
        _ALGEBRAS[config] = alg
    return alg


# ---------------------------------------------------------------------------
# Maps given on the generators.
# ---------------------------------------------------------------------------

class Extension:
    """A map given on the generators, carried over to whole elements.

    ``source`` is the engine whose monomials the map reads, ``images`` maps
    each generator label to its image and ``one`` is the image of the unit
    (a tensor for the coproduct).  The image of a PBW monomial is
    ``mul(image of the monomial without its top generator, image of that
    generator)``: ``a * b`` by default, which extends a homomorphism, and
    ``b * a`` for an antihomomorphism.  Monomial images are cached for the
    life of the extension.  An element's image maps each coefficient with
    ``coeff`` and sums the scaled monomial images.  The coproduct, the
    antipode, the twist maps and the duality are all extensions.
    """

    def __init__(self, source, images, one, mul=None, coeff=None):
        self.source = source
        self.images = images
        self.one = one
        self.mul = mul or operator.mul
        self.coeff = coeff
        self._cache = {source.unit_key: one}

    def mono(self, m):
        hit = self._cache.get(m)
        if hit is None:
            top = self.source.top_slot(m)
            rest = list(m)
            rest[top] -= 1
            hit = self.mul(self.mono(tuple(rest)), self.images[self.source.slots[top]])
            self._cache[m] = hit
        return hit

    def __call__(self, e, tensor=None):
        """Image of a PBW element ``e``.

        With a leg product ``tensor`` (``hopf.tensor_of``), ``e`` is a tensor
        element instead, and the extension maps each of its legs.
        """
        if tensor is None:
            image, unit = self.mono, self.one
        else:
            def image(key):
                return tensor(*map(self.mono, key))
            unit = tensor(*(self.one,) * e.legs)
        out = {}
        for key, c in e.terms.items():
            if self.coeff is not None:
                c = self.coeff(c)
            for k, v in image(key).scale(c).terms.items():
                _acc(out, k, v)
        return unit._like(out)


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def commutator_table(config):
    """All 15 bracket entries [X, Y] for ordered pairs X < Y."""
    return dict(algebra(config).table)


def casimir(config, which):
    """Central element W1 or W2 of the configured family, normal ordered."""
    return casimir_terms(config.family, which, algebra(config))


def generator_pairs():
    """The 15 ordered generator pairs (X < Y)."""
    return list(combinations(GENERATORS, 2))


def generator_triples():
    """The 20 unordered generator triples, in lexicographic order."""
    return list(combinations(GENERATORS, 3))


def diamond_check(config, table=None):
    """Associativity certificate over all 20 generator triples.

    For each triple x < y < z the descending word z*y*x is resolved along its
    two association orders; these are the genuinely overlapping critical pairs
    (ascending products rewrite nothing), so agreement certifies that the
    bracket table defines an associative algebra to the truncation order.
    """
    from .report import VerificationReport

    alg = algebra(config, table)
    report = VerificationReport("diamond", config.echo())
    for x, y, z in generator_triples():
        gx, gy, gz = alg.gen(x), alg.gen(y), alg.gen(z)
        residual = alg.mul(alg.mul(gz, gy), gx) - alg.mul(gz, alg.mul(gy, gx))
        report.check(f"assoc[{z},{y},{x}]", f"({z}*{y})*{x} = {z}*({y}*{x})", residual)
    return report


def centrality_check(c, which):
    """[c, X] = 0 for every generator X, to the configured order; ``which``
    names the element in the suite name ``centrality[which]``."""
    from .report import VerificationReport

    alg = algebra(c.config)
    report = VerificationReport(f"centrality[{which}]", c.config.echo())
    for g in GENERATORS:
        residual = c * alg.gen(g) - alg.gen(g) * c
        report.check(f"central[{g}]", f"[W, {g}] = 0", residual)
    return report


# ---------------------------------------------------------------------------
# Generator-exchange (duality) image of elements.
# ---------------------------------------------------------------------------

# H <-> P, K and D fixed, C1 -> -C2, C2 -> -C1.
DUAL_GEN = {"H": "P", "P": "H", "K": "K", "D": "D", "C1": "C2", "C2": "C1"}
DUAL_SIGN = {"H": 1, "P": 1, "K": 1, "D": 1, "C1": -1, "C2": -1}
# Coefficient slots (tau, sigma, mu, nu, x, t) read as (sigma, tau, nu, mu, x, t).
_DUAL_SLOTS = (1, 0, 3, 2, 4, 5)


def dual_coeff(c):
    """Swap tau<->sigma and mu<->nu in a coefficient polynomial."""
    return c.permute_vars(_DUAL_SLOTS)


def dual_extension(config):
    """The generator-exchange map out of ``config``, as an extension into its dual."""
    alg = algebra(config.dual())
    images = {g: alg.gen(DUAL_GEN[g]).scale(DUAL_SIGN[g]) for g in GENERATORS}
    return Extension(algebra(config), images, alg.one(), coeff=dual_coeff)


def dual_image(e):
    """Image of an element under the generator-exchange equivalence.

    Maps the time family with parameters (mu, nu) onto the space family with
    (nu, mu) and conversely; the classical family maps onto itself.  The image
    is re-normal-ordered in the target algebra.
    """
    return dual_extension(e.config)(e)
