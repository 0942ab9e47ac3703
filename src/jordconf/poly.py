"""Exact sparse polynomial arithmetic over the rationals.

Every quantity in this package is a ``ParamPoly``: a finite sum of monomials
in the six ordered indeterminates ``(tau, sigma, mu, nu, x, t)`` with
rational coefficients.  ``tau`` and ``sigma`` are the lattice constants
(deformation parameters), ``mu`` and ``nu`` the contraction parameters, ``x``
and ``t`` the plane coordinates.

There is no floating-point mode: identity checking reduces to "is the
canonical form empty", which is decidable only with exact coefficients.

Coefficient layout
------------------
A polynomial stores integer numerators over one common denominator (as
FLINT's ``fmpq_poly`` does): a dict from exponent 6-tuples to nonzero Python
ints, and one positive int.  The form is canonical: the gcd of the
denominator and all numerators is 1, and the zero polynomial has no terms
and denominator 1.  So ``==``, ``hash`` and ``is_zero`` are exact, and sums,
products, scaling, truncation and substitution work on ints and end with one
``math.gcd``.  A polynomial with exactly one term also keeps that term in
two slots, its exponent tuple and its numerator (both ``None`` on zero and on
several terms), set by every constructor; the dict stays the canonical form
behind ``==``, ``hash`` and every other method.  Only this module reads that
form and the slots.  ``ParamPoly.terms`` decodes it into
``fractions.Fraction`` coefficients, and rendering goes through it;
constructors accept ``int`` and ``Fraction`` coefficients.

Exponent policies
-----------------
By default all exponents are nonnegative.  The operator algebra needs
``(T - 1)/tau``-style coefficients, so a policy may whitelist ``tau`` and
``sigma`` (and only those) for integer (Laurent) exponents.  Policies are
checked at construction time and preserved by arithmetic.

Truncated products
------------------
Every identity of the deformed families is certified modulo
tau^(N+1) (sigma^(N+1)), so products are taken with ``mul_trunc(other, n)``,
which equals the product ``self * other`` truncated at ``n`` but never
forms a term it would drop: a product term's tau+sigma degree is the sum of
its factors' degrees, also for Laurent exponents, so a pair of terms above
``n`` is skipped before its numerators are multiplied (FLINT's ``mullow``).
The product's denominator is the product of the two denominators, reduced
by one gcd at the end.  The deformed families carry three independent
integer gradings, so nearly every coefficient the certifier forms is a
single monomial in (param, mu, nu): two single-term operands take a direct
path first, which reads the lone-term slots instead of the term maps,
applies the cut, returns the other operand when one is the unit (numerator
1 at exponent zero over denominator 1), and otherwise builds the one term
with one gcd.  A sum of two single terms on the same exponent, found by the
slots too, adds the numerators over the lcm of the denominators, with one
gcd, and cancels to the canonical zero.  Both hand the term they built to
the result's slots.  Every other shape takes the general loop, where the
unit still returns the other operand (truncated if needed).
``*`` is the same product with no cut, and a scalar factor 1 returns the
polynomial itself.

Every polynomial also carries ``low``, a lower bound on the tau+sigma
degree of its terms: exact on a single term and on the unit, ``inf`` on
zero, and set in O(1) by each operation.  A product adds the two bounds, a
sum takes the smaller, negation, scalar factors and ``truncate`` keep it,
``degree_part(k)`` gives k and ``shift_param`` on tau or sigma adds k; a
result that cancels down to one term or none stores its exact degree, and
only the constructor, ``permute_vars`` and a ``substitute`` that binds tau
or sigma scan the terms.  ``mul_trunc`` first adds the two bounds and, when
the sum exceeds ``n``, returns the shared zero of ``ParamPoly.zero()``
without reading a term: the cut taken once per pair instead of once per
pair of terms.  That exit is exact, because a bound never exceeds the true
lowest degree, so every term of such a product lies above ``n``.  The
product loops of ``uea`` and ``hopf`` call ``mul_trunc`` on every pair and
leave the rule to it.

``ParamPoly.one()`` is one shared constant per policy, with a read-only term
map.  The rewrite engine's product table carries it wherever a product is 1
times a monomial, so the inner product loops of ``uea`` and ``hopf`` test
the right factor with ``is`` and add the left factor itself instead of
calling ``mul_trunc``.  That skip is exact only where the left factor is
already truncated at ``n`` (``mul_trunc`` by the unit returns its
truncation), so it is taken there alone; every public product still
truncates both operands.

Sparse combinations
-------------------
Every element type of the package (PBW elements, tensors, operators and
matrices, keyed by ``(row, col)``) is a ``LinComb``: a dict from its own
keys to ``ParamPoly`` coefficients.  Addition, subtraction, negation, scaling
with optional truncation, equality and the common rendering live there once;
a difference of two equal coefficients is dropped with no arithmetic, and
``_acc`` is the one accumulator that every product loop adds its terms
through.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from operator import itemgetter
from types import MappingProxyType

VARS = ("tau", "sigma", "mu", "nu", "x", "t")
NVARS = len(VARS)
VAR_INDEX = {name: i for i, name in enumerate(VARS)}

ZERO_EXP = (0,) * NVARS

# Policies: frozenset of variable indices allowed to carry negative exponents.
POLICY_POLY = frozenset()
POLICY_LAURENT = frozenset((VAR_INDEX["tau"], VAR_INDEX["sigma"]))


class ExponentPolicyError(ValueError):
    """A negative exponent appeared on an indeterminate that forbids it."""

    def __init__(self, var, exponent):
        self.var = var
        self.exponent = exponent
        super().__init__(f"negative exponent {exponent} on '{var}' violates policy")


class PolicyMismatchError(ValueError):
    """Two operands carry incompatible exponent policies."""


class ConfigMismatchError(ValueError):
    """Two elements from different configurations (or leg counts) were combined."""


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be exact (int or Fraction), got {type(c).__name__}")


class ParamPoly:
    """Sparse exact polynomial in (tau, sigma, mu, nu, x, t).

    Stored as integer numerators over one common denominator: ``_num`` maps
    exponent 6-tuples to nonzero ints and ``_den`` is a positive int, with
    the gcd of ``_den`` and every numerator equal to 1 (the zero polynomial
    has no terms and ``_den == 1``).  That form is unique, so ``==``, ``hash``
    and ``is_zero`` compare it directly.  With exactly one term, ``_e1`` and
    ``_c1`` hold its exponent tuple and numerator (else both are ``None``),
    so the single-term paths of ``mul_trunc`` and ``+`` skip the dict.  Only
    this module reads the form and the slots; ``terms`` decodes it into
    Fractions.  ``low`` is a lower bound on the tau+sigma degree of the
    terms, exact on one term and ``inf`` on zero; it is not part of the form,
    and ``mul_trunc`` returns zero at once when the bounds of its factors add
    up past the cut (module docstring).  Instances are immutable by
    convention: no method mutates ``self``.
    """

    __slots__ = ("_num", "_den", "laurent", "low", "_e1", "_c1")

    def __init__(self, terms=None, laurent=POLICY_POLY):
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff == 0:
                    continue
                exps = tuple(exps)
                if len(exps) != NVARS:
                    raise ValueError(f"exponent vector must have {NVARS} entries, got {exps}")
                for i, e in enumerate(exps):
                    if e < 0 and i not in laurent:
                        raise ExponentPolicyError(VARS[i], e)
                clean[exps] = coeff
        # Over the lcm of reduced denominators the gcd is already 1.
        den = lcm(*(c.denominator for c in clean.values()))
        num = self._num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self._den = den
        self.laurent = laurent
        self.low = _lowest(clean)
        self._e1 = self._c1 = None
        if len(num) == 1:
            (self._e1, self._c1), = num.items()

    @property
    def terms(self):
        """Map from exponent 6-tuples to the nonzero Fraction coefficients (a new dict)."""
        d = self._den
        return {e: Fraction(c, d) for e, c in self._num.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, laurent=POLICY_POLY):
        """Zero: one shared constant per policy, with a read-only term map."""
        return _ZEROS[laurent]

    @classmethod
    def const(cls, c, laurent=POLICY_POLY):
        c = _as_fraction(c)
        return _make({ZERO_EXP: c.numerator} if c else {}, c.denominator, laurent,
                     0 if c else inf)

    @classmethod
    def one(cls, laurent=POLICY_POLY):
        """The unit: one shared constant per policy, with a read-only term map."""
        return _ONES[laurent]

    @classmethod
    def var(cls, name, power=1, laurent=POLICY_POLY):
        exps = [0] * NVARS
        exps[VAR_INDEX[name]] = power
        return cls({tuple(exps): 1}, laurent)

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self._num

    def exponents(self):
        """The exponent 6-tuples of the nonzero terms (a read-only view)."""
        return self._num.keys()

    def uses_var(self, name):
        i = VAR_INDEX[name]
        return any(e[i] for e in self._num)

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other):
        if self.laurent != other.laurent:
            raise PolicyMismatchError(
                f"policy mismatch: {sorted(self.laurent)} vs {sorted(other.laurent)}")

    def __add__(self, other):
        if not isinstance(other, ParamPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ParamPoly.const(other, self.laurent)
        if other.laurent is not self.laurent:
            self._check_compatible(other)
        e1 = self._e1
        da, db = self._den, other._den
        if e1 is not None and e1 == other._e1:
            c1, c2 = self._c1, other._c1
            if da == db:
                c = c1 + c2
            else:
                g = gcd(da, db)
                c = c1 * (db // g) + c2 * (da // g)
                da *= db // g
            if not c:
                return _make({}, 1, self.laurent, inf)
            g = gcd(c, da)
            if g != 1:
                c //= g
                da //= g
            return _make({e1: c}, da, self.laurent, self.low, e1, c)
        a, b = self._num, other._num
        if len(a) < len(b):
            a, da, b, db = b, db, a, da
        if da == db:
            out = dict(a)
            kb = 1
        else:
            # Over lcm(da, db): a's numerators times db/g, b's times da/g.
            g = gcd(da, db)
            ka, kb = db // g, da // g
            out = {e: c * ka for e, c in a.items()}
            da *= ka
        for exps, coeff in b.items():
            s = out.get(exps, 0) + coeff * kb
            if s:
                out[exps] = s
            else:
                del out[exps]
        low = self.low if self.low < other.low else other.low
        return _normal(out, da, self.laurent, low)

    __radd__ = __add__

    def __neg__(self):
        return _make({e: -c for e, c in self._num.items()}, self._den, self.laurent, self.low)

    def __sub__(self, other):
        if not isinstance(other, ParamPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ParamPoly.const(other, self.laurent)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, ParamPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            p, q = other.numerator, other.denominator
            if not p:
                return _make({}, 1, self.laurent, inf)
            if p == q:
                return self
            return _normal({e: c * p for e, c in self._num.items()}, self._den * q,
                           self.laurent, self.low)
        return self.mul_trunc(other, inf)

    __rmul__ = __mul__

    def mul_trunc(self, other, n):
        """``self * other`` truncated at ``n``, without forming a dropped term."""
        # Terms of combined tau+sigma degree above n are never formed: a
        # product term's degree is the sum of its factors' degrees, also for
        # Laurent exponents, so the sum of the two bounds bounds the product,
        # and a product whose bounds add up past n is the shared zero at once
        # (a zero factor has bound inf).  n = inf keeps every term.  Two single
        # terms, nearly every product of the graded families, take the first
        # branch; their bounds are exact, so their sum is the product's degree.
        if other.laurent is not self.laurent:
            self._check_compatible(other)
        laurent = self.laurent
        low = self.low + other.low
        if low > n:
            return _ZEROS[laurent]
        e1, e2 = self._e1, other._e1
        da, db = self._den, other._den
        if e1 is not None and e2 is not None:
            c1, c2 = self._c1, other._c1
            if c1 == 1 and da == 1 and e1 == ZERO_EXP:
                return other
            if c2 == 1 and db == 1 and e2 == ZERO_EXP:
                return self
            exps = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2],
                    e1[3] + e2[3], e1[4] + e2[4], e1[5] + e2[5])
            c = c1 * c2
            den = da * db
            g = gcd(c, den)
            if g != 1:
                c //= g
                den //= g
            return _make({exps: c}, den, laurent, low, exps, c)
        a, b = self._num, other._num
        if da == 1 and len(a) == 1 and a.get(ZERO_EXP) == 1:
            return other.truncate(n) if n != inf else other
        if db == 1 and len(b) == 1 and b.get(ZERO_EXP) == 1:
            return self.truncate(n) if n != inf else self
        den = da * db
        right = [(e2, c2, e2[0] + e2[1]) for e2, c2 in b.items()]
        out = {}
        for e1, c1 in a.items():
            room = n - e1[0] - e1[1]
            for e2, c2, d2 in right:
                if d2 > room:
                    continue
                exps = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2],
                        e1[3] + e2[3], e1[4] + e2[4], e1[5] + e2[5])
                p = c1 * c2
                s = out.get(exps)
                if s is None:
                    out[exps] = p
                else:
                    s += p
                    if s:
                        out[exps] = s
                    else:
                        del out[exps]
        return _normal(out, den, laurent, low)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = ParamPoly.one(self.laurent)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structural operations --------------------------------------------

    def truncate(self, order):
        """Drop all terms with combined tau+sigma degree above ``order``.

        Returns ``self`` itself, with no new dict, when every term fits.
        """
        for e in self._num:
            if e[0] + e[1] > order:
                break
        else:
            return self
        return _normal({e: c for e, c in self._num.items() if e[0] + e[1] <= order},
                       self._den, self.laurent, self.low)

    def degree_part(self, k):
        """The terms of combined tau+sigma degree exactly ``k``."""
        return _normal({e: c for e, c in self._num.items() if e[0] + e[1] == k},
                       self._den, self.laurent, k)

    def lowest_degree(self):
        """The least tau+sigma degree of the terms (``inf`` on zero); exact, unlike ``low``."""
        return _lowest(self._num)

    def substitute(self, bindings):
        """Evaluate some indeterminates at exact rational values.

        ``bindings`` maps variable names to Fractions (or ints).  A negative
        exponent on a variable bound to 0 raises ZeroDivisionError; unbound
        indeterminates pass through untouched.
        """
        idx = [(VAR_INDEX[name], _as_fraction(val)) for name, val in bindings.items()]
        parts = []  # (exponents, numerator, denominator) of each surviving term
        for exps, c in self._num.items():
            d = 1
            new = list(exps)
            for i, val in idx:
                e = exps[i]
                if e:
                    p, q = val.numerator, val.denominator
                    if e < 0:
                        if not p:
                            raise ZeroDivisionError(f"'{VARS[i]}' = 0 to the power {e}")
                        p, q, e = (q, p, -e) if p > 0 else (-q, -p, -e)
                    c *= p ** e
                    d *= q ** e
                    new[i] = 0
            if c:
                parts.append((tuple(new), c, d))
        common = lcm(*(d for _, _, d in parts))
        out = {}
        for key, c, d in parts:
            s = out.get(key, 0) + c * (common // d)
            if s:
                out[key] = s
            else:
                del out[key]
        # Binding tau or sigma moves the degrees, so the bound is found again.
        low = _lowest(out) if any(i < 2 for i, _ in idx) else self.low
        return _normal(out, self._den * common, self.laurent, low)

    def shift_param(self, name, k):
        """Multiply by the k-th power of an indeterminate (k may be negative)."""
        i = VAR_INDEX[name]
        out = {}
        for exps, c in self._num.items():
            e = list(exps)
            e[i] += k
            if e[i] < 0 and i not in self.laurent:
                raise ExponentPolicyError(name, e[i])
            out[tuple(e)] = c
        return _make(out, self._den, self.laurent, self.low + k if i < 2 else self.low)

    def permute_vars(self, perm):
        """Rename the indeterminates: slot i of each result exponent is slot
        ``perm[i]`` of the operand's.  ``perm`` must map the Laurent slots onto
        themselves, so the policy still holds."""
        if sorted(perm) != list(range(NVARS)):
            raise ValueError(f"not a permutation of the {NVARS} slots: {perm}")
        if any(perm[i] in self.laurent for i in range(NVARS) if i not in self.laurent):
            raise ValueError(f"permutation {perm} moves a Laurent slot")
        pick = itemgetter(*perm)
        num = {pick(e): c for e, c in self._num.items()}
        return _make(num, self._den, self.laurent, _lowest(num))

    def with_policy(self, laurent):
        """Recheck the terms against another policy and retag."""
        for exps in self._num:
            for i, e in enumerate(exps):
                if e < 0 and i not in laurent:
                    raise ExponentPolicyError(VARS[i], e)
        return _make(self._num, self._den, laurent, self.low)

    def min_exponent(self, name):
        """Smallest exponent of ``name`` over all terms (0 on the zero poly)."""
        i = VAR_INDEX[name]
        if not self._num:
            return 0
        return min(e[i] for e in self._num)

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other, self.laurent)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        # A constant equals its value as a number (``__eq__``), so it hashes
        # like that number; zero has no terms under either policy.
        num = self._num
        if not num or (len(num) == 1 and ZERO_EXP in num):
            return hash(Fraction(num.get(ZERO_EXP, 0), self._den))
        return hash((self._den, frozenset(num.items())))

    def __bool__(self):
        return bool(self._num)

    def sorted_terms(self):
        """Terms in graded-lexicographic order over (tau, sigma, mu, nu, x, t)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __str__(self):
        if not self._num:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(VARS, exps):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"ParamPoly({self})"


_new = object.__new__


class _PerPolicy(dict):
    """One shared constant per policy, with a read-only term map, made on first use."""

    def __init__(self, num, low):
        super().__init__()
        self.num, self.low = MappingProxyType(num), low

    def __missing__(self, laurent):
        p = self[laurent] = _make(self.num, 1, laurent, self.low)
        return p


_ONES = _PerPolicy({ZERO_EXP: 1}, 0)   # ParamPoly.one()
_ZEROS = _PerPolicy({}, inf)           # ParamPoly.zero() and mul_trunc's early exit


def _lowest(num):
    """The least tau+sigma degree of the exponents of ``num`` (inf when empty)."""
    return min((e[0] + e[1] for e in num), default=inf)


def _make(num, den, laurent, low, e1=None, c1=None):
    # Internal fast path: ``num``/``den`` already canonical, policy already
    # valid, ``low`` a lower bound on the degrees, exact on one term or none.
    # A caller that just built the lone term passes it as ``e1``, ``c1``.
    p = _new(ParamPoly)
    p._num = num
    p._den = den
    p.laurent = laurent
    p.low = low
    if e1 is None and len(num) == 1:
        (e1, c1), = num.items()
    p._e1 = e1
    p._c1 = c1
    return p


def _normal(num, den, laurent, low):
    """Canonical polynomial num/den: divide out the one gcd (den > 0, nonzero nums).

    ``low`` bounds the degrees of ``num`` from below; a sum or product that
    cancels down to one term or none gets its exact degree instead.
    """
    if den != 1:
        if not num:
            den = 1
        else:
            g = gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
    if len(num) < 2:
        low = inf
        for e in num:
            low = e[0] + e[1]
    return _make(num, den, laurent, low)


# ---------------------------------------------------------------------------
# Sparse linear combinations with polynomial coefficients.
# ---------------------------------------------------------------------------

def _acc(acc, key, coeff):
    """Add ``coeff`` into ``acc[key]``, keeping only nonzero entries."""
    if not coeff._num:
        return
    s = acc.get(key)
    if s is not None:
        coeff = s + coeff
        if not coeff._num:
            del acc[key]
            return
    acc[key] = coeff


class LinComb:
    """Finite sum of keys (monomials, tensors, matrix cells) with coefficients.

    ``terms`` maps keys to nonzero ``ParamPoly`` coefficients.  A subclass
    declares what two operands must share (``_meta``, also the constructor
    arguments after ``terms``), the coefficient policy ``laurent``, the
    truncation ``order`` in tau+sigma (None keeps every degree), the key of
    the unit monomial ``_unit`` (None when scalars do not embed), and its own
    product and rendering of keys.
    """

    __slots__ = ("terms",)
    laurent = POLICY_POLY
    order = None
    _unit = None

    def _meta(self):
        return ()

    def _like(self, terms):
        return type(self)(terms, *self._meta())

    def _coerce(self, other):
        if isinstance(other, LinComb):
            if type(other) is not type(self) or other._meta() != self._meta():
                raise ConfigMismatchError(
                    f"operands disagree: {self._meta()} vs {other._meta()}")
            return other
        if self._unit is None:
            raise TypeError(f"cannot combine {type(self).__name__} with a scalar")
        return self._like({self._unit: ParamPoly.one(self.laurent)}).scale(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, c)
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        # Equal coefficients cancel with no arithmetic: a == b gives a - b = 0.
        other = self._coerce(other)
        out = dict(self.terms)
        for k, b in other.terms.items():
            a = out.get(k)
            if a is None:
                out[k] = -b
            elif a == b:
                del out[k]
            else:
                out[k] = a - b
        return self._like(out)

    def __rsub__(self, other):
        return (-self) + other

    def __rmul__(self, other):
        # Scalars commute with everything; element*element goes through __mul__.
        return self.scale(other)

    def scale(self, c):
        if not isinstance(c, ParamPoly):
            c = ParamPoly.const(c, self.laurent)
        n = self.order
        out = {}
        for k, v in self.terms.items():
            v = v * c if n is None else v.mul_trunc(c, n)
            if v._num:
                out[k] = v
        return self._like(out)

    def map_coeffs(self, fn):
        """Apply ``fn`` to every coefficient, dropping those that vanish."""
        out = {}
        for k, c in self.terms.items():
            c = fn(c)
            if c._num:
                out[k] = c
        return self._like(out)

    def commutator(self, other):
        return self * other - other * self

    def __eq__(self, other):
        if isinstance(other, LinComb):
            return (type(other) is type(self) and self._meta() == other._meta()
                    and self.terms == other.terms)
        if self._unit is None or not isinstance(other, (int, Fraction)):
            return NotImplemented
        return (self - other).is_zero()

    def is_zero(self):
        return not self.terms

    @staticmethod
    def _rank(key):
        return (sum(key), key)

    def sorted_terms(self):
        rank = self._rank
        return sorted(self.terms.items(), key=lambda kv: rank(kv[0]))

    def _term_str(self, body, c):
        cs = str(c)
        if cs == "1":
            return body
        if cs == "-1":
            return f"-{body}"
        if len(c._num) == 1:
            return f"{cs}*{body}"
        return f"({cs})*{body}"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = [self._term_str(self._key_str(k), c) for k, c in self.sorted_terms()]
        return " + ".join(parts).replace("+ -", "- ")
