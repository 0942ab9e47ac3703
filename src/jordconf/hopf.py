"""Tensor-product layer: coproducts, Hopf axioms, cocommutators, Yang-Baxter.

Coproducts are tabulated per family with the exponentials expanded to the
configured order.  The coproduct and the antipode, like the twist maps and
the duality, are extended from their generator images to whole elements by
the one helper ``uea.Extension`` (the antipode as an antihomomorphism).  The
Lie-bialgebra data (the r-matrix, the cocommutators and the Schouten
bracket) are two- and three-leg ``TensorElement``s of the classical
enveloping algebra at the same contraction parameters, with brackets taken
from its rewrite engine.  The checks certify, always exactly to the
truncation order and with symbolic contraction parameters where requested:

* the coproduct is an algebra homomorphism for all 15 bracket entries,
* coassociativity on the generators,
* counit and an antipode solved in one triangular pass (the tables
  determine both; tables that are not triangular fail every antipode
  record),
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
from .uea import (_ONE, GENERATORS, Extension, FamilyConfig, PbwElement, algebra,
                  generator_pairs)


class TensorElement(LinComb):
    """2- or 3-fold tensor of enveloping-algebra elements (products on two legs).

    ``terms`` maps tuples of PBW monomial keys of the configuration's engine
    (one per leg) to ``ParamPoly`` coefficients truncated at the configured
    order.
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
        if self.legs != 2:
            raise ValueError("products are defined for two-leg tensors")
        alg = algebra(self.config)
        n = self.config.order
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                c = c1.mul_trunc(c2, n)
                if c.is_zero():
                    continue
                (l1, r1), (l2, r2) = k1, k2
                _distribute(out, alg._mono_times_mono(l1, l2), alg._mono_times_mono(r1, r2),
                            c, n)
        return TensorElement(out, self.config, self.legs)

    def flip(self):
        """Leg swap a (x) b -> b (x) a (two-leg tensors only)."""
        if self.legs != 2:
            raise ValueError("flip is defined for two-leg tensors")
        return TensorElement({(m2, m1): c for (m1, m2), c in self.terms.items()},
                             self.config, 2)

    def min_def_degree(self):
        return min((c.lowest_degree() for c in self.terms.values()), default=None)

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
            body = " (x) ".join(map(algebra(self.config).key_str, key))
            cs = str(c)
            if cs == "1":
                parts.append(body)
            elif len(c.exponents()) == 1:
                parts.append(f"{cs}*[{body}]")
            else:
                parts.append(f"({cs})*[{body}]")
        return " + ".join(parts)

    def __repr__(self):
        return f"<tensor{self.legs} {self}>"


def _distribute(acc, left, right, coeff, order):
    """Accumulate coeff * (left (x) right); each leg is a dict mono -> ParamPoly.

    ``coeff`` must be truncated at ``order``, so a product by the shared unit
    is the left factor itself and is not formed.
    """
    for ma, ca in left.items():
        pa = coeff if ca is _ONE else coeff.mul_trunc(ca, order)
        if pa.is_zero():
            continue
        for mb, cb in right.items():
            _acc(acc, (ma, mb), pa if cb is _ONE else pa.mul_trunc(cb, order))


def tensor_of(a, b):
    """Outer product a (x) b of two PBW elements as a two-leg tensor."""
    out = {}
    _distribute(out, a.terms, b.terms, ParamPoly.one(), a.config.order)
    return TensorElement(out, a.config, 2)


def tensor_unit(config):
    unit = algebra(config).unit_key
    return TensorElement({(unit, unit): ParamPoly.one()}, config, 2)


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
        self._delta = Extension(self.alg, self.cop, tensor_unit(config))
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
        # eps on leg ``leg`` keeps the terms whose leg there is 1; scale(1)
        # truncates their coefficients like every product.
        unit = self.alg.unit_key
        return PbwElement({key[1 - leg]: c for key, c in te.terms.items() if key[leg] == unit},
                          self.config).scale(1)

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
            x = alg.mono(g)
            lead = PbwElement({m2: c for (m1, m2), c in self.cop[g].terms.items() if m1 == x},
                              self.config)
            u = alg.one() - lead
            if any(c.lowest_degree() == 0 for c in u.terms.values()):
                raise AntipodeError(f"the coproduct of {g} has no invertible leading part")
            inv = power = alg.one()
            for _ in range(self.config.order):
                power = alg.mul(power, u)
                inv = inv + power
            # With S(g) = 0 the left residual is the sum over m1 != g alone.
            smap[g] = alg.zero()
            smap[g] = -alg.mul(self._antipode_residual(self._antihom(smap), g), inv)
        self._antipode = smap
        return smap

    def _solvable(self, g, smap):
        """Every first leg of coproduct(g) other than g uses solved generators only."""
        x = self.alg.mono(g)
        return all(label in smap for m1, _ in self.cop[g].terms
                   if m1 != x for label in self.alg.word(m1))

    def _antihom(self, smap):
        """The antihomomorphism given by ``smap`` on the generators.

        Its monomial images are cached, so one extension serves only while
        ``smap`` stays fixed: the solve makes a new one per generator, the
        report one for all its records.
        """
        return Extension(self.alg, smap, self.alg.one(), mul=lambda a, b: b * a)

    def _antipode_residual(self, antihom, g, side="left"):
        # m(S (x) id) coproduct(g)   (or m(id (x) S) for side="right"), with
        # one product per distinct leg that S (the extension ``antihom``)
        # acts on.
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

    def antipode_report(self):
        """Both antipode axioms per generator; when no antipode can be solved,
        every record fails with the reason as its residual."""
        report = VerificationReport("antipode", self.config.echo())
        try:
            antihom, error = self._antihom(self.antipode()), None
        except AntipodeError as exc:
            antihom, error = None, str(exc)
        for g in GENERATORS:
            for side, legs in (("left", "S (x) id"), ("right", "id (x) S")):
                name, anchor = f"antipode-{side}[{g}]", f"m({legs})(coproduct({g})) = 0"
                if error is None:
                    report.check(name, anchor, self._antipode_residual(antihom, g, side))
                else:
                    report.note(name, anchor, False, error)
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


def check_homomorphism(config):
    return hopf(config).homomorphism_report()


def check_coassociativity(config):
    return hopf(config).coassociativity_report()


def counit_and_antipode(config):
    """The counit and antipode axioms report."""
    h = hopf(config)
    report = VerificationReport("counit-antipode", config.echo())
    report.extend(h.counit_report())
    report.extend(h.antipode_report())
    return report


# ---------------------------------------------------------------------------
# Lie-bialgebra layer: tensors of the classical enveloping algebra.
# ---------------------------------------------------------------------------

def _classical(config):
    # The undeformed family at the same contraction parameters; its order is at
    # least 2, the parameter degree of [[r, r]], so truncation drops no term.
    return FamilyConfig("classical", config.mu, config.nu, max(config.order, 2))


def _primitive(config):
    """The primitive generator G of a deformed family, which r and R are built on."""
    if config.primary is None:
        raise ValueError("the classical family has no primitive generator, "
                         "so no r-matrix and no universal R element")
    return config.primary


def classical_r_matrix(config):
    """r = param * (G (x) D - D (x) G), G the primitive generator."""
    g = _primitive(config)
    alg = algebra(_classical(config))
    x, d = alg.gen(g), alg.gen("D")
    return (tensor_of(x, d) - tensor_of(d, x)).scale(ParamPoly.var(config.param))


def cocommutator_from_r(g, config):
    """delta(g) = [g (x) 1 + 1 (x) g, r] in the classical enveloping algebra."""
    r = classical_r_matrix(config)
    alg = algebra(r.config)
    x, one = alg.gen(g), alg.one()
    return (tensor_of(one, x) + tensor_of(x, one)).commutator(r)


def first_order_antisymmetrization(g, config):
    """t - flip(t), t the parameter-linear part of coproduct(g).

    t is read into the classical tensors of ``cocommutator_from_r`` for a
    direct comparison; a first-order term with composite legs stays in t
    and shows there as a difference.
    """
    first = coproduct(g, config).map_coeffs(lambda c: c.degree_part(1))
    t = TensorElement(first.terms, _classical(config), 2)
    return t - t.flip()


def schouten_cybe(r):
    """Schouten bracket [[r, r]] = [r12, r13] + [r12, r23] + [r13, r23].

    With r = sum a (x) b the three terms are [a, a'] (x) b (x) b',
    a (x) [b, a'] (x) b' and a (x) a' (x) [b, b'], each bracket taken in the
    enveloping algebra of r's configuration; zero certifies the classical
    Yang-Baxter equation.
    """
    config, n = r.config, r.order

    def bracket(x, y):
        a, b = (PbwElement({m: ParamPoly.one()}, config) for m in (x, y))
        return a.commutator(b).terms

    out = {}
    for (a1, b1), c1 in r.terms.items():
        for (a2, b2), c2 in r.terms.items():
            c = c1.mul_trunc(c2, n)
            for z, cz in bracket(a1, a2).items():
                _acc(out, (z, b1, b2), c.mul_trunc(cz, n))
            for z, cz in bracket(b1, a2).items():
                _acc(out, (a1, z, b2), c.mul_trunc(cz, n))
            for z, cz in bracket(b1, b2).items():
                _acc(out, (a1, a2, z), c.mul_trunc(cz, n))
    return TensorElement(out, config, 3)


def bialgebra_report(config):
    """Cocommutator table, its coproduct consistency, and the CYBE check."""
    report = VerificationReport("lie-bialgebra", config.echo())
    for g in GENERATORS:
        delta = cocommutator_from_r(g, config)
        report.check(f"cocommutator-coproduct[{g}]",
                     f"delta({g}) from r equals antisymmetrized first order of coproduct({g})",
                     delta - first_order_antisymmetrization(g, config))
    report.check("cybe", "[[r, r]] = 0", schouten_cybe(classical_r_matrix(config)))
    return report


# ---------------------------------------------------------------------------
# Universal R element: conjugation identities, certified to order N.
# ---------------------------------------------------------------------------

def _exp_tensor(config, first, second, k):
    """exp(k * param * first (x) second) as a truncated tensor series."""
    alg = algebra(config)
    return TensorElement({(alg.mono(first, j), alg.mono(second, j)):
                          (alg.defparam ** j) * Fraction(k ** j, factorial(j))
                          for j in range(config.order + 1)}, config, 2)


def _gen_tensor(config, first, second, k):
    """k * param * first (x) second: the exponent of an R factor."""
    alg = algebra(config)
    return TensorElement({(alg.mono(first), alg.mono(second)): alg.defparam * k}, config, 2)


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
    g = _primitive(config)
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
    g = _primitive(config)
    a, b = _gen_tensor(config, g, "D", 1), _gen_tensor(config, "D", g, -1)
    x = _exp_action(lambda t: t * a, r.flip())
    return _exp_action(lambda t: t * b, x)


def _residual_detail(residual):
    low = residual.min_def_degree()
    return f"first residual at parameter order {low}" if low is not None else None


def universal_R_conjugation(config):
    """Conjugation by R flips the coproduct; certified to the order N.

    The inner conjugation (by the second exponential factor alone) is also
    compared against its closed form: it primitivizes every generator except
    the long conformal one, which picks up a parameter-linear D (x) D term.
    Each conjugation is a Hadamard series whose j-th term has parameter
    degree at least j, so its first N terms are exact to order N, like every
    truncated product; both identities are therefore certified to order N.
    The matrix representation certifies the same identities exactly.
    """
    prim = _primitive(config)
    report = VerificationReport("universal-R", config.echo())
    n = config.order
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
                        (inner - expected).zero_to_order(n), str(inner - expected))
        full = _exp_action(outer_a.commutator, inner)
        residual = full - d.flip()
        report.note(f"conjugation[{g}]",
                    f"R coproduct({g}) R^-1 = flip(coproduct({g})) to order {n}",
                    residual.zero_to_order(n), _residual_detail(residual))

    residual = triangular_product(universal_r(config)) - tensor_unit(config)
    report.note("triangular", "flip(R) * R = 1 to order N",
                residual.zero_to_order(n), _residual_detail(residual))
    return report
