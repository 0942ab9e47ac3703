"""Parser for the operator expression grammar used by the CLI.

Whitespace-insensitive.  Atoms are the coordinates ``x t``, derivatives
``dx dt``, shifts ``Tx Tt``, forward differences ``Dx Dt``, the parameters
``tau sigma mu nu``, and integer or rational literals ``p/q``.  Operators are
``+ - * ^`` and parentheses; ``^`` takes an integer exponent, negative only
directly on a shift atom.  Example: ``(nu*dx^2 - mu*Dt^2)``.

Every product and power is refused before it is formed when its degree
would exceed ``MAX_DEGREE``: a product ``a*b`` has degree ``deg(a) + deg(b)``
and a power ``b^n`` has ``|n|`` times the degree of ``b``, where the base of
a power counts at least 1, also when it is a number.  So nested powers such
as ``(Dt^8)^5`` count as ``Dt^40``, and ``Dt^32*Dt`` is refused like
``Dt^33``.  The degree does not bound the size of a product of sums, so every
product, also each step of a power, is refused as well when the term counts
of its two factors multiply past ``ore.MAX_PRODUCT_TERMS``.  Parentheses nest
at most ``MAX_NESTING`` levels deep.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import POLICY_LAURENT, POLICY_POLY, ParamPoly
from .ore import (OreElement, ProductTooLargeError, act_on_one, atom, check_product_size,
                  forward_difference)

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([()+\-*^/]))")

PARAM_NAMES = ("tau", "sigma", "mu", "nu")
SHIFT_NAMES = ("Tx", "Tt")
ATOM_NAMES = ("x", "t", "dx", "dt", "Tx", "Tt", "Dx", "Dt") + PARAM_NAMES
# Cap on the degree of every product and power: ``op "Dt^32"`` takes about
# 0.25 s on a 2-core Xeon VM with Python 3.11, where ``op "Dt^100000"`` runs
# past 25 s.
MAX_DEGREE = 32
# Cap on the nesting depth of parentheses: the parser recurses five frames
# deep per level, so 200 levels overflow Python's default recursion limit.
MAX_NESTING = 100


class ExprError(ValueError):
    """Malformed expression."""


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise ExprError(f"unexpected character {remainder[0]!r}")
        if match.group(1) is not None:
            out.append(("int", int(match.group(1))))
        elif match.group(2) is not None:
            out.append(("name", match.group(2)))
        else:
            out.append(("op", match.group(3)))
        pos = match.end()
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol):
        kind, value = self.next()
        if kind != "op" or value != symbol:
            found = "end of input" if kind == "end" else repr(value)
            raise ExprError(f"expected {symbol!r}, found {found}")

    def parse(self):
        value = self.expr()
        kind, value_tok = self.peek()
        if kind != "end":
            raise ExprError(f"trailing input at {value_tok!r}")
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, symbol = self.peek()
            if kind == "op" and symbol in "+-":
                self.next()
                rhs = self.term()
                value = value + rhs if symbol == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            kind, symbol = self.peek()
            if kind == "op" and symbol == "*":
                self.next()
                rhs = self.unary()
                left, right = _degree(value), _degree(rhs)
                if left + right > MAX_DEGREE:
                    raise ExprError(f"product too large: degrees {left} + {right} exceed "
                                    f"the cap {MAX_DEGREE}")
                check_product_size(value, rhs)
                value = value * rhs
            else:
                return value

    def unary(self):
        sign = 1
        while True:
            kind, symbol = self.peek()
            if kind == "op" and symbol in "+-":
                self.next()
                if symbol == "-":
                    sign = -sign
            else:
                break
        value = self.power()
        return value if sign > 0 else -value

    def power(self):
        base, shift_name = self.atom()
        kind, symbol = self.peek()
        if kind == "op" and symbol == "^":
            self.next()
            exponent = self.signed_int()
            degree = max(1, _degree(base))
            if abs(exponent) * degree > MAX_DEGREE:
                raise ExprError(f"power too large: exponent {exponent} times base degree "
                                f"{degree} exceeds the cap {MAX_DEGREE}")
            if exponent < 0:
                if shift_name is None:
                    raise ExprError("negative exponents are allowed only on Tx and Tt")
                return atom(shift_name, exponent)
            return base ** exponent
        return base

    def signed_int(self):
        negative = False
        kind, symbol = self.peek()
        if kind == "op" and symbol == "-":
            self.next()
            negative = True
        kind, value = self.next()
        if kind != "int":
            raise ExprError("exponent must be an integer")
        return -value if negative else value

    def atom(self):
        kind, value = self.next()
        if kind == "int":
            numerator = value
            kind2, symbol = self.peek()
            if kind2 == "op" and symbol == "/":
                self.next()
                kind3, denom = self.next()
                if kind3 != "int" or denom == 0:
                    raise ExprError("malformed rational literal")
                return OreElement.from_coeff(Fraction(numerator, denom)), None
            return OreElement.from_coeff(Fraction(numerator)), None
        if kind == "name":
            if value in PARAM_NAMES:
                return OreElement.from_coeff(
                    ParamPoly.var(value, laurent=POLICY_LAURENT)), None
            if value in ("Dx", "Dt"):
                return forward_difference("x" if value == "Dx" else "t"), None
            if value in ("x", "t", "dx", "dt", "Tx", "Tt"):
                shift = value if value in SHIFT_NAMES else None
                return atom(value), shift
            raise ExprError(f"unknown symbol {value!r}")
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ExprError(f"parentheses nested too deep: {MAX_NESTING + 1} levels "
                                f"exceed the cap {MAX_NESTING}")
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner, None
        if kind == "end":
            raise ExprError("unexpected end of input")
        raise ExprError(f"unexpected token {value!r}")


def _degree(op):
    """Highest total degree of a term: atom exponents (shifts by size) plus the
    positive parameter exponents of its coefficient."""
    return max((sum(map(abs, key))
                + max(sum(e for e in exps if e > 0) for exps in coeff.exponents())
                for key, coeff in op.terms.items()), default=0)


def parse_operator(text):
    """Parse an expression into an exact operator."""
    try:
        return _Parser(_tokenize(text)).parse()
    except ProductTooLargeError as exc:
        raise ExprError(str(exc)) from exc


def parse_polynomial(text):
    """Parse an expression that must be a plain polynomial in x and t."""
    op = parse_operator(text)
    if any(key[2:] != (0, 0, 0, 0) for key in op.terms):
        raise ExprError("expected a polynomial, found derivative or shift symbols")
    out = act_on_one(op)
    if out.min_exponent("tau") < 0 or out.min_exponent("sigma") < 0:
        raise ExprError("polynomial coefficients cannot carry lattice-constant poles")
    return out.with_policy(POLICY_POLY)
