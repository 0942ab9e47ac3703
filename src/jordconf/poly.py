"""Exact sparse polynomial arithmetic over the rationals.

Every quantity in this package is a ``ParamPoly``: a finite sum of monomials
in the six ordered indeterminates ``(tau, sigma, mu, nu, x, t)`` with
``fractions.Fraction`` coefficients.  ``tau`` and ``sigma`` are the lattice
constants (deformation parameters), ``mu`` and ``nu`` the contraction
parameters, ``x`` and ``t`` the plane coordinates.

There is no floating-point mode: identity checking reduces to "is the
canonical form empty", which is decidable only with exact coefficients.

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
``n`` is skipped before its coefficients are multiplied (FLINT's
``mullow``).  A unit operand returns the other one (truncated if needed) and
two single terms make their one term directly.  ``*`` is the same product
with no cut.

Sparse combinations
-------------------
Every element type of the package (PBW elements, tensors, wedges, operators)
is a ``LinComb``: a dict from its own keys to ``ParamPoly`` coefficients.
Addition, negation, scaling with optional truncation, equality and the
common rendering live there once; ``_acc`` is the one accumulator that every
product loop adds its terms through.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf

Rational = Fraction

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


@dataclass(frozen=True)
class TruncationOrder:
    """Maximum retained combined degree in tau and sigma."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"truncation order must be nonnegative, got {self.n}")


def _as_order(n):
    return n.n if isinstance(n, TruncationOrder) else int(n)


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be exact (int or Fraction), got {type(c).__name__}")


class ParamPoly:
    """Sparse exact polynomial in (tau, sigma, mu, nu, x, t).

    ``terms`` maps exponent 6-tuples to nonzero Fractions; the zero polynomial
    has no terms.  Instances are immutable by convention: no method mutates
    ``self`` and callers must not modify ``terms``.
    """

    __slots__ = ("terms", "laurent")

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
        self.terms = clean
        self.laurent = laurent

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, laurent=POLICY_POLY):
        return cls({}, laurent)

    @classmethod
    def const(cls, c, laurent=POLICY_POLY):
        c = _as_fraction(c)
        return cls({ZERO_EXP: c} if c else {}, laurent)

    @classmethod
    def one(cls, laurent=POLICY_POLY):
        return cls.const(1, laurent)

    @classmethod
    def var(cls, name, power=1, laurent=POLICY_POLY):
        exps = [0] * NVARS
        exps[VAR_INDEX[name]] = power
        return cls({tuple(exps): Fraction(1)}, laurent)

    @classmethod
    def monomial(cls, coeff, laurent=POLICY_POLY, **powers):
        exps = [0] * NVARS
        for name, p in powers.items():
            exps[VAR_INDEX[name]] = p
        return cls({tuple(exps): _as_fraction(coeff)}, laurent)

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def uses_var(self, name):
        i = VAR_INDEX[name]
        return any(e[i] for e in self.terms)

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
        self._check_compatible(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for exps, coeff in b.items():
            s = out.get(exps, 0) + coeff
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return ParamPoly._raw(out, self.laurent)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly._raw({e: -c for e, c in self.terms.items()}, self.laurent)

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
            c = _as_fraction(other)
            if c == 0:
                return ParamPoly.zero(self.laurent)
            return ParamPoly._raw({e: c * v for e, v in self.terms.items()}, self.laurent)
        return self._product(other, inf)

    __rmul__ = __mul__

    def mul_trunc(self, other, order):
        """``self * other`` truncated at ``order``, without forming a dropped term."""
        return self._product(other, _as_order(order))

    def _product(self, other, n):
        # Terms of combined tau+sigma degree above n are never formed: a
        # product term's degree is the sum of its factors' degrees, also for
        # Laurent exponents.  n = inf keeps every term.
        self._check_compatible(other)
        a, b = self.terms, other.terms
        laurent = self.laurent
        if len(a) == 1 and a.get(ZERO_EXP) == 1:
            return other.truncate(n) if n != inf else other
        if len(b) == 1 and b.get(ZERO_EXP) == 1:
            return self.truncate(n) if n != inf else self
        if len(a) == 1 and len(b) == 1:
            (e1, c1), = a.items()
            (e2, c2), = b.items()
            if e1[0] + e1[1] + e2[0] + e2[1] > n:
                return ParamPoly._raw({}, laurent)
            exps = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2],
                    e1[3] + e2[3], e1[4] + e2[4], e1[5] + e2[5])
            return ParamPoly._raw({exps: c1 * c2}, laurent)
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
        return ParamPoly._raw(out, laurent)

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

    @classmethod
    def _raw(cls, terms, laurent):
        # Internal fast path: terms already canonical (no zeros, valid policy).
        p = cls.__new__(cls)
        p.terms = terms
        p.laurent = laurent
        return p

    # -- structural operations --------------------------------------------

    def truncate(self, order):
        """Drop all terms with combined tau+sigma degree above ``order``."""
        n = _as_order(order)
        kept = {e: c for e, c in self.terms.items() if e[0] + e[1] <= n}
        if len(kept) == len(self.terms):
            return self
        return ParamPoly._raw(kept, self.laurent)

    def substitute(self, bindings):
        """Evaluate some indeterminates at exact rational values.

        ``bindings`` maps variable names to Fractions (or ints).  A negative
        exponent on a variable bound to 0 raises ZeroDivisionError; unbound
        indeterminates pass through untouched.
        """
        idx = {VAR_INDEX[name]: _as_fraction(val) for name, val in bindings.items()}
        out = {}
        for exps, coeff in self.terms.items():
            c = coeff
            new = list(exps)
            for i, val in idx.items():
                e = exps[i]
                if e:
                    c *= val ** e  # Fraction raises ZeroDivisionError on 0**negative
                    new[i] = 0
            if c == 0:
                continue
            key = tuple(new)
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return ParamPoly._raw(out, self.laurent)

    def substitute_var(self, name, replacement):
        """Replace an indeterminate by a polynomial (nonnegative powers only)."""
        i = VAR_INDEX[name]
        if not isinstance(replacement, ParamPoly):
            replacement = ParamPoly.const(replacement, self.laurent)
        self._check_compatible(replacement)
        powers = {0: ParamPoly.one(self.laurent)}

        def power(k):
            if k not in powers:
                powers[k] = power(k - 1) * replacement
            return powers[k]

        out = ParamPoly.zero(self.laurent)
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e < 0:
                raise ExponentPolicyError(name, e)
            rest = list(exps)
            rest[i] = 0
            out = out + ParamPoly._raw({tuple(rest): coeff}, self.laurent) * power(e)
        return out

    def shift_param(self, name, k):
        """Multiply by the k-th power of an indeterminate (k may be negative)."""
        i = VAR_INDEX[name]
        out = {}
        for exps, coeff in self.terms.items():
            e = list(exps)
            e[i] += k
            if e[i] < 0 and i not in self.laurent:
                raise ExponentPolicyError(name, e[i])
            out[tuple(e)] = coeff
        return ParamPoly._raw(out, self.laurent)

    def with_policy(self, laurent):
        """Recheck the terms against another policy and retag."""
        return ParamPoly(self.terms, laurent)

    def min_exponent(self, name):
        """Smallest exponent of ``name`` over all terms (0 on the zero poly)."""
        i = VAR_INDEX[name]
        if not self.terms:
            return 0
        return min(e[i] for e in self.terms)

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other, self.laurent)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        """Terms in graded-lexicographic order over (tau, sigma, mu, nu, x, t)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __str__(self):
        if not self.terms:
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


# ---------------------------------------------------------------------------
# Sparse linear combinations with polynomial coefficients.
# ---------------------------------------------------------------------------

def _acc(acc, key, coeff):
    """Add ``coeff`` into ``acc[key]``, keeping only nonzero entries."""
    if not coeff.terms:
        return
    s = acc.get(key)
    if s is not None:
        coeff = s + coeff
        if not coeff.terms:
            del acc[key]
            return
    acc[key] = coeff


class LinComb:
    """Finite sum of keys (monomials, tensor keys, wedges) with coefficients.

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
        return self + (-self._coerce(other))

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
            if v.terms:
                out[k] = v
        return self._like(out)

    def map_coeffs(self, fn):
        """Apply ``fn`` to every coefficient, dropping those that vanish."""
        out = {}
        for k, c in self.terms.items():
            c = fn(c)
            if c.terms:
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
        if len(c.terms) == 1:
            return f"{cs}*{body}"
        return f"({cs})*{body}"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = [self._term_str(self._key_str(k), c) for k, c in self.sorted_terms()]
        return " + ".join(parts).replace("+ -", "- ")
