"""Tensor-product layer: coproducts, Hopf axioms, cocommutators, Yang-Baxter.

Coproducts are tabulated per family with the exponentials expanded to the
configured order.  The coproduct and the antipode, like the twist maps and
the duality, are extended from their generator images to whole elements by
the one helper ``uea.Extension`` (the antipode as an antihomomorphism).  The
checks certify, always exactly to the truncation order and with symbolic
contraction parameters where requested:

* the coproduct is an algebra homomorphism for all 15 bracket entries,
* coassociativity on the generators,
* counit and an antipode solved in one triangular pass (the tables
  determine both),
* the cocommutator table from the classical r-matrix, and its agreement
  with the first-order antisymmetric part of the coproduct,
* the classical Yang-Baxter equation via the Schouten bracket,
* the conjugation identities of the universal R element, and its
  triangularity flip(R) R = 1 (``triangular_product``).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .poly import LinComb, ParamPoly, _acc
from .report import VerificationReport
from .uea import (GEN_INDEX, GENERATORS, UNIT_MONO, Extension, FamilyConfig, PbwElement,
                  algebra, gen_mono, generator_pairs, mono_str)


class TensorElement(LinComb):
    """2- or 3-fold tensor of enveloping-algebra elements.

    ``terms`` maps tuples of PBW monomials (one per leg) to ``ParamPoly``
    coefficients truncated at the configured order.
    """

    __slots__ = ("config", "legs")

    def __init__(self, terms, config, legs):
        self.terms = terms
        self.config = config
        self.legs = legs

    def _meta(self):
        return (self.config, self.legs)

    @property
    def order(self):
        return self.config.order

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return self.scale(other)
        self._coerce(other)
        alg = algebra(self.config)
        n = self.config.order
        memo = {}
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                c = c1.mul_trunc(c2, n)
                if c.is_zero():
                    continue
                legs = [alg._mono_times_mono(m1, m2, memo) for m1, m2 in zip(k1, k2)]
                _distribute(out, legs, c, n)
        return TensorElement(out, self.config, self.legs)

    def flip(self):
        """Leg swap a (x) b -> b (x) a (two-leg tensors only)."""
        if self.legs != 2:
            raise ValueError("flip is defined for two-leg tensors")
        return TensorElement({(m2, m1): c for (m1, m2), c in self.terms.items()},
                             self.config, 2)

    def min_def_degree(self):
        if not self.terms:
            return None
        return min(min(e[0] + e[1] for e in c.terms) for c in self.terms.values())

    def zero_to_order(self, n):
        """True when every term has tau+sigma degree above ``n``."""
        low = self.min_def_degree()
        return low is None or low > n

    @staticmethod
    def _rank(key):
        return (tuple(sum(m) for m in key), key)

    def __str__(self):
        # Unlike the other element types, "+ -" is kept and legs are bracketed.
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.sorted_terms():
            body = " (x) ".join(mono_str(m) for m in key)
            cs = str(c)
            if cs == "1":
                parts.append(body)
            elif len(c.terms) == 1:
                parts.append(f"{cs}*[{body}]")
            else:
                parts.append(f"({cs})*[{body}]")
        return " + ".join(parts)

    def __repr__(self):
        return f"<tensor{self.legs} {self}>"


def _distribute(acc, legs, coeff, order):
    # legs: list of dicts mono -> ParamPoly; accumulate their outer product.
    if len(legs) == 2:
        for ma, ca in legs[0].items():
            pa = coeff.mul_trunc(ca, order)
            if pa.is_zero():
                continue
            for mb, cb in legs[1].items():
                _acc(acc, (ma, mb), pa.mul_trunc(cb, order))
        return
    for ma, ca in legs[0].items():
        pa = coeff.mul_trunc(ca, order)
        if pa.is_zero():
            continue
        for mb, cb in legs[1].items():
            pb = pa.mul_trunc(cb, order)
            if pb.is_zero():
                continue
            for mc, cc in legs[2].items():
                _acc(acc, (ma, mb, mc), pb.mul_trunc(cc, order))


def tensor_of(a, b, c=None):
    """Outer product of PBW elements as a tensor element."""
    config = a.config
    legs = 2 if c is None else 3
    factors = [a, b] if c is None else [a, b, c]
    out = {}
    _distribute(out, [f.terms for f in factors], ParamPoly.one(), config.order)
    return TensorElement(out, config, legs)


def tensor_unit(config, legs=2):
    return TensorElement({(UNIT_MONO,) * legs: ParamPoly.one()}, config, legs)


# ---------------------------------------------------------------------------
# Coproduct tables (recipes shared with the matrix representation).
# ---------------------------------------------------------------------------

def coproduct_entries(family):
    """Recipes gen -> builder(ctx, tensor), ``tensor(a, b)`` the leg product."""
    if family == "classical":
        return {g: (lambda c, t, g=g: t(c.one(), c.gen(g)) + t(c.gen(g), c.one()))
                for g in GENERATORS}
    if family == "time":
        return {
            "H": lambda c, t: t(c.one(), c.gen("H")) + t(c.gen("H"), c.one()),
            "D": lambda c, t: t(c.one(), c.gen("D")) + t(c.gen("D"), c.exp(-1)),
            "P": lambda c, t: t(c.one(), c.gen("P")) + t(c.gen("P"), c.exp(1)),
            "C1": lambda c, t: t(c.one(), c.gen("C1")) + t(c.gen("C1"), c.exp(-1)),
            "K": lambda c, t: (t(c.one(), c.gen("K")) + t(c.gen("K"), c.one())
                               - t(c.gen("D"), c.mul(c.exp(-1), c.gen("P")))
                               .scale(c.defparam * c.nu)),
            "C2": lambda c, t: (t(c.one(), c.gen("C2"))
                                + t(c.gen("C2"), c.exp(-1))
                                + t(c.gen("D"), c.mul(c.exp(-1), c.gen("K")))
                                .scale(2 * c.defparam)
                                - t(c.mul(c.gen("D"), c.gen("D")) + c.gen("D"),
                                    c.mul(c.exp(-2), c.gen("P")))
                                .scale(c.defparam * c.defparam * c.nu)),
        }
    if family == "space":
        return {
            "P": lambda c, t: t(c.one(), c.gen("P")) + t(c.gen("P"), c.one()),
            "D": lambda c, t: t(c.one(), c.gen("D")) + t(c.gen("D"), c.exp(-1)),
            "H": lambda c, t: t(c.one(), c.gen("H")) + t(c.gen("H"), c.exp(1)),
            "C2": lambda c, t: t(c.one(), c.gen("C2")) + t(c.gen("C2"), c.exp(-1)),
            "K": lambda c, t: (t(c.one(), c.gen("K")) + t(c.gen("K"), c.one())
                               - t(c.gen("D"), c.mul(c.exp(-1), c.gen("H")))
                               .scale(c.defparam * c.mu)),
            "C1": lambda c, t: (t(c.one(), c.gen("C1"))
                                + t(c.gen("C1"), c.exp(-1))
                                - t(c.gen("D"), c.mul(c.exp(-1), c.gen("K")))
                                .scale(2 * c.defparam)
                                + t(c.mul(c.gen("D"), c.gen("D")) + c.gen("D"),
                                    c.mul(c.exp(-2), c.gen("H")))
                                .scale(c.defparam * c.defparam * c.mu)),
        }
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# The Hopf structure of a configuration.
# ---------------------------------------------------------------------------

class Hopf:
    """Coproduct tables plus caches; supports injected coproducts for fault tests."""

    def __init__(self, config, coproducts=None):
        self.config = config
        self.alg = algebra(config)
        self.cop = {g: build(self.alg, tensor_of)
                    for g, build in coproduct_entries(config.family).items()}
        if coproducts:
            self.cop.update(coproducts)
        self._delta = Extension(self.cop, tensor_unit(config))
        self._antipode = None

    def coproduct(self, label):
        return self.cop[label]

    def extend(self, e):
        """Multiplicative-linear extension of the coproduct to any element."""
        return self._delta(e)

    # -- axioms --------------------------------------------------------------

    def homomorphism_report(self):
        report = VerificationReport("coproduct-homomorphism", self.config.echo())
        for x, y in generator_pairs():
            bracket = self.alg.table[(x, y)]
            lhs = self.extend(bracket)
            dx, dy = self.cop[x], self.cop[y]
            residual = lhs - (dx * dy - dy * dx)
            report.check(f"hom[{x},{y}]",
                         f"coproduct([{x},{y}]) = [coproduct({x}), coproduct({y})]",
                         residual)
        return report

    def coassociativity_report(self):
        report = VerificationReport("coassociativity", self.config.echo())
        for g in GENERATORS:
            d = self.cop[g]
            left = self._expand_leg(d, 0)
            right = self._expand_leg(d, 1)
            report.check(f"coassoc[{g}]",
                         f"(coproduct (x) id)(coproduct({g})) = (id (x) coproduct)",
                         left - right)
        return report

    def _expand_leg(self, te, leg):
        out = {}
        n = self.config.order
        for (m1, m2), c in te.terms.items():
            inner = self._delta.mono(m1 if leg == 0 else m2)
            for (a, b), ci in inner.terms.items():
                _acc(out, (a, b, m2) if leg == 0 else (m1, a, b), c.mul_trunc(ci, n))
        return TensorElement(out, self.config, 3)

    # -- counit and antipode ---------------------------------------------------

    def counit_report(self):
        report = VerificationReport("counit", self.config.echo())
        for g in GENERATORS:
            left = self._apply_counit(self.cop[g], 0)
            right = self._apply_counit(self.cop[g], 1)
            target = self.alg.gen(g)
            report.check(f"counit-left[{g}]", f"(eps (x) id)(coproduct({g})) = {g}",
                         left - target)
            report.check(f"counit-right[{g}]", f"(id (x) eps)(coproduct({g})) = {g}",
                         right - target)
        return report

    def _apply_counit(self, te, leg):
        out = self.alg.zero()
        for (m1, m2), c in te.terms.items():
            if (m1 if leg == 0 else m2) == UNIT_MONO:
                kept = m2 if leg == 0 else m1
                out = out + PbwElement({kept: ParamPoly.one()}, self.config).scale(c)
        return out

    def antipode(self):
        """Antipode on the generators, solved in one triangular pass.

        With coproduct(X) = sum c m1 (x) m2, the left axiom reads
        S(X) * lead = -sum_{m1 != X} c S(m1) m2, lead = sum_{m1 = X} c m2.
        Generators are solved once the m1 != X legs use only solved ones, and
        lead is inverted by its Neumann series sum_{j <= N} (1 - lead)^j,
        exact because 1 - lead has parameter degree at least 1.  Raises
        AntipodeError otherwise; ``antipode_report`` certifies the result.
        """
        if self._antipode is not None:
            return self._antipode
        alg, smap = self.alg, {}
        pending = list(GENERATORS)
        while pending:
            g = next((g for g in pending if self._solvable(g, smap)), None)
            if g is None:
                raise AntipodeError(f"no antipode of {', '.join(pending)} can be solved next")
            pending.remove(g)
            x = gen_mono(g)
            lead = PbwElement({m2: c for (m1, m2), c in self.cop[g].terms.items() if m1 == x},
                              self.config)
            u = alg.one() - lead
            if any(e[0] + e[1] == 0 for c in u.terms.values() for e in c.terms):
                raise AntipodeError(f"the coproduct of {g} has no invertible leading part")
            inv = power = alg.one()
            for _ in range(self.config.order):
                power = alg.mul(power, u)
                inv = inv + power
            # With S(g) = 0 the left residual is the sum over m1 != g alone.
            smap[g] = alg.zero()
            smap[g] = -alg.mul(self._antipode_residual(smap, g), inv)
        self._antipode = smap
        return smap

    def _solvable(self, g, smap):
        """Every first leg of coproduct(g) other than g uses solved generators only."""
        x = gen_mono(g)
        return all(label in smap for m1, _ in self.cop[g].terms
                   if m1 != x for label, e in zip(GENERATORS, m1) if e)

    def _antipode_residual(self, smap, g, side="left"):
        # m(S (x) id) coproduct(g)   (or m(id (x) S) for side="right"), with
        # one product per distinct leg that S acts on.  S is an
        # antihomomorphism; smap changes during the solve, so each call
        # extends it afresh.
        antihom = Extension(smap, self.alg.one(), mul=lambda a, b: b * a)
        left = side == "left"
        groups = {}
        for (m1, m2), c in self.cop[g].terms.items():
            s_leg, other = (m1, m2) if left else (m2, m1)
            groups.setdefault(s_leg, {})[other] = c
        out = self.alg.zero()
        for s_leg, legs in groups.items():
            image, rest = antihom.mono(s_leg), PbwElement(legs, self.config)
            out = out + (self.alg.mul(image, rest) if left else self.alg.mul(rest, image))
        return out

    def antipode_report(self, smap=None):
        report = VerificationReport("antipode", self.config.echo())
        if smap is None:
            smap = self.antipode()
        for g in GENERATORS:
            report.check(f"antipode-left[{g}]",
                         f"m(S (x) id)(coproduct({g})) = 0",
                         self._antipode_residual(smap, g, "left"))
            report.check(f"antipode-right[{g}]",
                         f"m(id (x) S)(coproduct({g})) = 0",
                         self._antipode_residual(smap, g, "right"))
        return report


class AntipodeError(RuntimeError):
    """The antipode cannot be solved: the coproduct tables are not triangular."""


_HOPF = {}


def hopf(config):
    h = _HOPF.get(config)
    if h is None:
        h = Hopf(config)
        _HOPF[config] = h
    return h


# -- public operation wrappers ------------------------------------------------

def coproduct(g, config):
    return hopf(config).coproduct(g)


def coproduct_extend(e):
    return hopf(e.config).extend(e)


def check_homomorphism(config, coproducts=None):
    if coproducts:
        return Hopf(config, coproducts).homomorphism_report()
    return hopf(config).homomorphism_report()


def check_coassociativity(config, coproducts=None):
    if coproducts:
        return Hopf(config, coproducts).coassociativity_report()
    return hopf(config).coassociativity_report()


def counit_and_antipode(config):
    """Counit values, antipode images and the axioms report."""
    h = hopf(config)
    eps = {g: Fraction(0) for g in GENERATORS}
    smap = h.antipode()
    report = VerificationReport("counit-antipode", config.echo())
    report.extend(h.counit_report())
    report.extend(h.antipode_report(smap))
    return eps, smap, report


# ---------------------------------------------------------------------------
# Lie-bialgebra layer: wedges, cocommutators, Schouten bracket.
# ---------------------------------------------------------------------------

class WedgeElement(LinComb):
    """Antisymmetric 2- or 3-fold tensor over the six generators.

    Canonical keys are strictly increasing tuples of generator labels; the
    sign of sorting permutations is absorbed into the coefficients.
    """

    __slots__ = ("legs",)
    _key_str = staticmethod("^".join)

    def __init__(self, terms, legs):
        self.terms = terms
        self.legs = legs

    def _meta(self):
        return (self.legs,)

    @classmethod
    def from_tensor(cls, tensor_terms, legs):
        """Canonicalize a dict {(labels...): ParamPoly}; must be antisymmetric.

        The coefficient of the wedge e_{i1}^...^e_{in} (indices increasing) is
        read off the ordered tensor slot; the remaining slots must carry the
        signed copies, otherwise the input was not antisymmetric.
        """
        out = {}
        for key, coeff in tensor_terms.items():
            if coeff.is_zero():
                continue
            if len(set(key)) < len(key):
                raise ValueError(f"tensor is not antisymmetric: diagonal term on {key}")
            order = sorted(range(legs), key=lambda i: GEN_INDEX[key[i]])
            if list(order) == list(range(legs)):
                out[key] = coeff
        w = cls(out, legs)
        mismatch = {k: c for k, c in w.to_tensor().items() if not c.is_zero()}
        given = {k: c for k, c in tensor_terms.items() if not c.is_zero()}
        if mismatch != given:
            raise ValueError("tensor is not antisymmetric")
        return w

    def to_tensor(self):
        """Expand back to a full antisymmetrized tensor dict."""
        out = {}
        for key, coeff in self.terms.items():
            for perm, sign in _permutations_signed(self.legs):
                pkey = tuple(key[i] for i in perm)
                out[pkey] = coeff if sign > 0 else -coeff
        return out

    @staticmethod
    def _rank(key):
        return tuple(GEN_INDEX[g] for g in key)

    def _term_str(self, body, c):
        # A -1 coefficient keeps its digit: "-1*H^D".
        return f"-1*{body}" if str(c) == "-1" else super()._term_str(body, c)

    def __repr__(self):
        return f"<wedge{self.legs} {self}>"


def _perm_sign(order):
    sign = 1
    seen = list(order)
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            if seen[i] > seen[j]:
                sign = -sign
    return sign


def _permutations_signed(n):
    from itertools import permutations
    for perm in permutations(range(n)):
        yield perm, _perm_sign(list(perm))


def wedge(label_a, label_b, coeff=None):
    """The wedge a^b with an optional polynomial coefficient."""
    c = coeff if coeff is not None else ParamPoly.one()
    if not isinstance(c, ParamPoly):
        c = ParamPoly.const(c)
    return WedgeElement.from_tensor({(label_a, label_b): c, (label_b, label_a): -c}, 2)


def classical_r_matrix(config):
    """The antisymmetric generating element of the deformation."""
    if config.family == "time":
        return wedge("D", "H", -ParamPoly.var("tau"))
    if config.family == "space":
        return wedge("D", "P", -ParamPoly.var("sigma"))
    raise ValueError("the classical family carries no r-matrix")


def _lie_brackets(config):
    """Classical structure constants: (X, Y) -> {Z: ParamPoly}, X < Y."""
    classical = FamilyConfig("classical", config.mu, config.nu, config.order)
    table = algebra(classical).table
    out = {}
    for pair, elem in table.items():
        expansion = {}
        for mono, coeff in elem.terms.items():
            if sum(mono) != 1:
                raise ValueError("classical bracket is not linear in the generators")
            label = GENERATORS[mono.index(1)]
            expansion[label] = coeff
        out[pair] = expansion
    return out


def _lie_bracket(brackets, x, y):
    if x == y:
        return {}
    if GEN_INDEX[x] < GEN_INDEX[y]:
        return brackets[(x, y)]
    return {z: -c for z, c in brackets[(y, x)].items()}


def cocommutator_from_r(g, config):
    """delta(g) = [1 (x) g + g (x) 1, r], computed from classical brackets."""
    brackets = _lie_brackets(config)
    r_tensor = classical_r_matrix(config).to_tensor()
    out = {}
    for (a, b), coeff in r_tensor.items():
        for z, c in _lie_bracket(brackets, g, a).items():
            _acc(out, (z, b), coeff * c)
        for z, c in _lie_bracket(brackets, g, b).items():
            _acc(out, (a, z), coeff * c)
    return WedgeElement.from_tensor(out, 2)


def first_order_antisymmetrization(g, config):
    """The linear-in-parameter part of the coproduct, antisymmetrized.

    Extracts the tau (or sigma) degree-1 part of coproduct(g); every such term
    must have single-generator legs, and the result is returned as a wedge for
    direct comparison with cocommutator_from_r.
    """
    te = coproduct(g, config)
    out = {}
    for (m1, m2), c in te.terms.items():
        part = {e: v for e, v in c.terms.items() if e[0] + e[1] == 1}
        if not part:
            continue
        if sum(m1) != 1 or sum(m2) != 1:
            raise ValueError("first-order coproduct term has composite legs")
        a, b = GENERATORS[m1.index(1)], GENERATORS[m2.index(1)]
        coeff = ParamPoly._raw(part, c.laurent)
        _acc(out, (a, b), coeff)
        _acc(out, (b, a), -coeff)
    return WedgeElement.from_tensor(out, 2)


def schouten_cybe(r, config):
    """Schouten bracket [[r, r]]; zero certifies the classical Yang-Baxter eq."""
    brackets = _lie_brackets(config)
    rt = r.to_tensor()
    out = {}
    for (a1, b1), c1 in rt.items():
        for (a2, b2), c2 in rt.items():
            c = c1 * c2
            for z, cz in _lie_bracket(brackets, a1, a2).items():
                _acc(out, (z, b1, b2), c * cz)
            for z, cz in _lie_bracket(brackets, b1, a2).items():
                _acc(out, (a1, z, b2), c * cz)
            for z, cz in _lie_bracket(brackets, b1, b2).items():
                _acc(out, (a1, a2, z), c * cz)
    return WedgeElement.from_tensor(out, 3)


def bialgebra_report(config):
    """Cocommutator table, its coproduct consistency, and the CYBE check."""
    report = VerificationReport("lie-bialgebra", config.echo())
    for g in GENERATORS:
        delta = cocommutator_from_r(g, config)
        report.check(f"cocommutator-coproduct[{g}]",
                     f"delta({g}) from r equals antisymmetrized first order of coproduct({g})",
                     delta - first_order_antisymmetrization(g, config))
    r = classical_r_matrix(config)
    report.check("cybe", "[[r, r]] = 0", schouten_cybe(r, config))
    return report


# ---------------------------------------------------------------------------
# Universal R element: conjugation identities, order N-2 contract.
# ---------------------------------------------------------------------------

def _exp_tensor(config, first, second, k):
    """exp(k * param * first (x) second) as a truncated tensor series."""
    p = ParamPoly.var(config.param)
    return TensorElement({(gen_mono(first, j), gen_mono(second, j)):
                          (p ** j) * Fraction(k ** j, factorial(j))
                          for j in range(config.order + 1)}, config, 2)


def _gen_tensor(config, first, second, k):
    """k * param * first (x) second: the exponent of an R factor."""
    return TensorElement({(gen_mono(first), gen_mono(second)): ParamPoly.var(config.param) * k},
                         config, 2)


def _exp_action(step, x):
    """sum_{j <= N} step^j(x) / j! for a linear ``step`` that raises the
    parameter degree by 1, which makes the series exact to the order N.

    ``step = a.commutator`` gives exp(a) x exp(-a) (the Hadamard series),
    ``step = a.__mul__`` gives exp(a) x and ``step = lambda t: t * a`` gives
    x exp(a).
    """
    out = term = x
    for j in range(1, x.order + 1):
        term = step(term).scale(Fraction(1, j))
        out = out + term
    return out


def universal_r(config):
    """R = exp(param*G (x) D) exp(-param*D (x) G), G the primitive generator."""
    g = config.primary
    if g is None:
        raise ValueError("the classical family has no universal R element")
    # The left factor acts as N left multiplications by param * G (x) D.
    return _exp_action(_gen_tensor(config, g, "D", 1).__mul__, _exp_tensor(config, "D", g, -1))


def triangular_product(r):
    """flip(r) R, with R = exp(param*G (x) D) exp(-param*D (x) G) applied by its
    factors: 2N right multiplications by a single-generator tensor.

    Only flip(r) is taken from r, so ``triangular_product(r) = 1`` certifies
    flip(r) = (exp(param*G (x) D) exp(-param*D (x) G))^-1: triangularity
    together with r equal to its exponential form.  With r the computed R
    (``universal_r``) this equals the full product flip(r) * r to order N.
    The left-multiplication form
    exp(param*D (x) G) (exp(-param*G (x) D) r) would not do: exp(-L) exp(L) = 1
    for any linear left-multiplication map L, so it undoes the series that
    built r whatever the engine's products are.  Here every step multiplies
    flip(r) on the right, so a wrong product shows.
    """
    config = r.config
    g = config.primary
    a, b = _gen_tensor(config, g, "D", 1), _gen_tensor(config, "D", g, -1)
    x = _exp_action(lambda t: t * a, r.flip())
    return _exp_action(lambda t: t * b, x)


def _residual_detail(residual):
    low = residual.min_def_degree()
    return f"first residual at parameter order {low}" if low is not None else None


def universal_R_conjugation(config):
    """Conjugation by R flips the coproduct; certified to order N-2.

    The inner conjugation (by the second exponential factor alone) is also
    compared against its closed form: it primitivizes every generator except
    the long conformal one, which picks up a parameter-linear D (x) D term.
    Truncating exponentials costs series headroom, hence the N-2 contract;
    the matrix representation certifies the same identities exactly.
    """
    report = VerificationReport("universal-R", config.echo())
    n2 = max(config.order - 2, 0)
    prim = config.primary
    special = "C1" if config.family == "time" else "C2"
    sign = 1 if config.family == "time" else -1
    h = hopf(config)
    alg = h.alg

    inner_a = _gen_tensor(config, "D", prim, -1)
    outer_a = _gen_tensor(config, prim, "D", 1)

    for g in GENERATORS:
        d = h.coproduct(g)
        inner = _exp_action(inner_a.commutator, d)
        if g == prim:
            # The primitive generator has a symmetric coproduct, so the full
            # conjugation must return it unchanged; no intermediate form exists.
            report.check(f"cocommutative[{g}]",
                         f"flip(coproduct({g})) = coproduct({g})", d.flip() - d)
        elif g == "D":
            pass  # no tabulated intermediate form for the dilation generator
        else:
            expected = (tensor_of(alg.one(), alg.gen(g))
                        + tensor_of(alg.gen(g), alg.one()))
            if g == special:
                extra = tensor_of(alg.gen("D"), alg.gen("D")).scale(
                    (2 * sign) * alg.defparam * (alg.nu if config.family == "time" else alg.mu))
                expected = expected + extra
                anchor = f"inner conjugation of coproduct({g}) adds the D(x)D correction"
            else:
                anchor = f"inner conjugation primitivizes coproduct({g})"
            report.note(f"inner[{g}]", anchor,
                        (inner - expected).zero_to_order(n2), str(inner - expected))
        full = _exp_action(outer_a.commutator, inner)
        residual = full - d.flip()
        report.note(f"conjugation[{g}]",
                    f"R coproduct({g}) R^-1 = flip(coproduct({g})) to order {n2}",
                    residual.zero_to_order(n2), _residual_detail(residual))

    residual = triangular_product(universal_r(config)) - tensor_unit(config)
    report.note("triangular", "flip(R) * R = 1 to order N",
                residual.zero_to_order(config.order), _residual_detail(residual))
    return report
