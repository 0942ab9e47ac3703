"""Contraction classification, Hopf subalgebras and duality.

The two contraction parameters range over sign classes {+, 0, -}, giving a
3x3 grid per family.  Each cell records the real form of the algebra, the
quantum labels of its distinguished Hopf subalgebras, and the invariant
lattice equation, stored as a structured operator tag (not a string) so the
operator module can instantiate it and the CLI can render it.

The duality map exchanges H with P and C1 with -C2, swaps the two lattice
constants and the two contraction parameters, and identifies the two families
cell by cell; it is an involution, and the grid cells on the main diagonal
classes (+,+), (-,-), (0,0) are self-dual.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .report import VerificationReport
from .uea import (DUAL_GEN, DUAL_SIGN, GENERATORS,
                  FamilyConfig, algebra, commutator_table,
                  dual_extension, dual_image, exchange, generator_pairs)
from .hopf import TensorElement, coproduct, hopf, tensor_of
from .ore import dual_ore
from . import ore

SIGNS = ("+", "0", "-")


# ---------------------------------------------------------------------------
# Equation tags.
# ---------------------------------------------------------------------------

class EquationTag(namedtuple("EquationTag", "terms")):
    """Invariant lattice equation as a signed sum of squared symbols.

    ``terms`` is a tuple of (sign, op) pairs with op in {dx, dt, Dx, Dt}
    (derivatives and forward differences), each squared; an empty tuple marks
    the degenerate cell.
    """

    __slots__ = ()

    def is_degenerate(self):
        return not self.terms

    def render(self):
        if not self.terms:
            return "degenerate"
        body = ""
        for i, (sign, op) in enumerate(self.terms):
            if i == 0:
                body = f"{'-' if sign < 0 else ''}{op}^2"
            else:
                body += f" {'-' if sign < 0 else '+'} {op}^2"
        return f"({body})Phi = 0"

    def to_operator(self):
        """Instantiate as an exact difference-differential operator."""
        if not self.terms:
            raise ValueError("the degenerate cell has no equation operator")
        out = ore.OreElement()
        for sign, op in self.terms:
            if op in ("dx", "dt"):
                factor = ore.atom(op)
            elif op == "Dx":
                factor = ore.forward_difference("x")
            else:
                factor = ore.forward_difference("t")
            out = out + (factor * factor).scale(sign)
        return out


def _sign_value(s):
    return {"+": Fraction(1), "0": Fraction(0), "-": Fraction(-1)}[s]


def _equation_tag(family, mu_sign, nu_sign):
    main, secondary = ("dx", "Dt") if family == "time" else ("Dx", "dt")
    m, n = _sign_value(mu_sign), _sign_value(nu_sign)
    if n != 0:
        # normalize the leading coefficient to +1
        second = -int(m * n)
        terms = [(1, main)]
        if second:
            terms.append((second, secondary))
        return EquationTag(tuple(terms))
    if m != 0:
        return EquationTag(((1, secondary),))
    return EquationTag(())


# ---------------------------------------------------------------------------
# Classification of the 9-cell grid.
# ---------------------------------------------------------------------------

ALGEBRA_NAME = {
    ("+", "+"): "so(2,2)", ("-", "-"): "so(2,2)",
    ("+", "-"): "so(3,1)", ("-", "+"): "so(3,1)",
    ("+", "0"): "iso(2,1)", ("-", "0"): "iso(2,1)",
    ("0", "+"): "iso(2,1)", ("0", "-"): "iso(2,1)",
    ("0", "0"): "i'iso(1,1)",
}

WEYL_LABEL = {
    ("+", "+"): "WM", ("-", "-"): "WM",
    ("+", "-"): "WE", ("-", "+"): "WE",
    ("0", "+"): "WG", ("0", "-"): "WG",
    ("+", "0"): "WC", ("-", "0"): "WC",
    ("0", "0"): "WA",
}


class ClassificationRow(namedtuple("ClassificationRow",
                                   "mu_sign nu_sign algebra_name quantum_label "
                                   "triple_subalgebra weyl_label equation k_central")):
    __slots__ = ()

    def cell_lines(self):
        return [
            f"({self.mu_sign},{self.nu_sign}) {self.quantum_label}",
            f"{self.triple_subalgebra}  {self.weyl_label}",
            self.equation.render() + ("  [K central]" if self.k_central else ""),
        ]

    def to_dict(self):
        """The fields in order, with the equation rendered."""
        return {**self._asdict(), "equation": self.equation.render()}


def classify(mu_sign, nu_sign, family):
    """The grid cell of one sign pair for the chosen deformation family."""
    if mu_sign not in SIGNS or nu_sign not in SIGNS:
        raise ValueError(f"signs must be in {SIGNS}")
    if family not in ("time", "space"):
        raise ValueError("classification concerns the deformed families")
    prefix = "U_tau" if family == "time" else "U_sigma"
    name = ALGEBRA_NAME[(mu_sign, nu_sign)]
    if family == "time":
        triple = f"{prefix}(sl(2,R))" if nu_sign != "0" else f"{prefix}(iso(1,1))"
    else:
        triple = f"{prefix}(sl(2,R))" if mu_sign != "0" else f"{prefix}(iso(1,1))"
    weyl = f"{prefix}({WEYL_LABEL[(mu_sign, nu_sign)]})"
    return ClassificationRow(
        mu_sign, nu_sign, name, f"{prefix}({name})", triple, weyl,
        _equation_tag(family, mu_sign, nu_sign),
        k_central=(mu_sign == "0" and nu_sign == "0"))


def classification_rows(family):
    """All nine cells, row-major with nu = +, 0, - and mu = +, 0, -."""
    return [classify(m, n, family) for n in SIGNS for m in SIGNS]


def render_table_text(family):
    rows = classification_rows(family)
    lines = []
    title = 1 if family == "time" else 2
    lines.append(f"Table {title}: {'time' if family == 'time' else 'space'}-type "
                 f"quantum algebras by contraction signs (mu, nu)")
    for band in range(3):
        cells = [rows[band * 3 + col].cell_lines() for col in range(3)]
        width = max(len(line) for cell in cells for line in cell) + 2
        for line_idx in range(3):
            lines.append("".join(cells[col][line_idx].ljust(width) for col in range(3)).rstrip())
        lines.append("")
    return "\n".join(lines).rstrip()


def render_table_json(family):
    return {"table": 1 if family == "time" else 2,
            "family": family,
            "cells": [row.to_dict() for row in classification_rows(family)]}


def tables_report(order):
    """The grid is complete, both families share each cell's real form, and each
    nondegenerate cell's equation is the realized invariant operator up to sign."""
    report = VerificationReport("tables", {"order": order})
    for family in ("time", "space"):
        rows = classification_rows(family)
        report.note(f"total[{family}]", "the grid has all nine sign cells",
                    len(rows) == 9 and len({(r.mu_sign, r.nu_sign) for r in rows}) == 9)
    for m in SIGNS:
        for n in SIGNS:
            got = classify(m, n, "time").algebra_name
            expected = classify(m, n, "space").algebra_name
            report.note(f"consistent[{m},{n}]", "both families share the real form per cell",
                        got == expected, f"got {got}; expected {expected}")
    for family in ("time", "space"):
        for row in classification_rows(family):
            if row.equation.is_degenerate():
                continue
            op = row.equation.to_operator()
            config = FamilyConfig(family, _sign_value(row.mu_sign),
                                  _sign_value(row.nu_sign), order)
            inv = ore.casimir_operator(f"{family}_deformed", config, "E_def")
            report.note(f"equation[{family},{row.mu_sign},{row.nu_sign}]",
                        f"cell equation {row.equation.render()} instantiates "
                        "the invariant operator up to overall sign",
                        (op - inv).is_zero() or (op + inv).is_zero(), f"{op} vs {inv}")
    degenerate = classify("0", "0", "time")
    report.note("degenerate-flag", "the (0,0) cell is degenerate with K central",
                degenerate.equation.is_degenerate() and degenerate.k_central)
    return report


# ---------------------------------------------------------------------------
# Hopf subalgebra closure.
# ---------------------------------------------------------------------------

def _violating_terms(e, subset):
    """The terms of a PBW element or tensor with a generator outside ``subset``."""
    word = algebra(e.config).word
    tensor = isinstance(e, TensorElement)
    return e._like({k: c for k, c in e.terms.items()
                    if any(g not in subset for m in (k if tensor else (k,)) for g in word(m))})


def verify_hopf_subalgebras(config):
    """Closure of the distinguished generator subsets under bracket and coproduct.

    The triple and the four-generator similitude set close unconditionally;
    the translation-boost triple {K, H, P} closes only when the relevant
    contraction parameter vanishes, and the violating coproduct term is
    exhibited otherwise.
    """
    if config.family == "time":
        triple = ("H", "D", "C1")
        conditional_param = "nu"
    elif config.family == "space":
        triple = ("P", "D", "C2")
        conditional_param = "mu"
    else:
        raise ValueError("Hopf subalgebras concern the deformed families")
    weyl = ("H", "P", "K", "D")
    iso = ("H", "P", "K")
    report = VerificationReport("hopf-subalgebras", config.echo())
    h = hopf(config)

    def brackets_close(subset):
        return all(_violating_terms(h.alg.table[(x, y)], subset).is_zero()
                   for x, y in generator_pairs() if x in subset and y in subset)

    def coproducts_close(subset):
        return all(_violating_terms(h.coproduct(g), subset).is_zero() for g in subset)

    for name, subset in (("triple", triple), ("weyl", weyl)):
        label = "{" + ",".join(subset) + "}"
        report.note(f"{name}-brackets", f"brackets of {label} close", brackets_close(subset))
        report.note(f"{name}-coproducts", f"coproducts of {label} close",
                    coproducts_close(subset))

    report.note("iso-brackets", "brackets of {H,P,K} close", brackets_close(iso))
    violating = _violating_terms(h.coproduct("K"), iso)
    value = getattr(config, conditional_param)
    if value == 0:
        report.note("iso-coproducts",
                    f"{{H,P,K}} coproducts close at {conditional_param} = 0",
                    coproducts_close(iso))
    else:
        report.note("iso-violating-term",
                    f"coproduct(K) leaves {{H,P,K}} unless {conditional_param} = 0",
                    not violating.is_zero(),
                    "expected a violating term")
        if value == "sym":
            # Only meaningful symbolically: the exhibited term must be a
            # multiple of the conditional parameter.
            vanishes = violating.map_coeffs(lambda c: c.substitute({conditional_param: 0}))
            report.note("iso-violating-vanishes",
                        f"the violating term ({violating}) vanishes at "
                        f"{conditional_param} = 0",
                        vanishes.is_zero(), str(vanishes))
    return report


# ---------------------------------------------------------------------------
# Duality.
# ---------------------------------------------------------------------------

def dual_commutator_table(alg):
    """Duality image of the bracket table of the engine ``alg``, keyed in the dual:
    the image of [X, Y] under the ordered dual pair of X and Y, in either order."""
    out = {}
    for xs, ys in generator_pairs():
        x, y = DUAL_GEN[xs], DUAL_GEN[ys]
        sign = Fraction(DUAL_SIGN[x] * DUAL_SIGN[y])
        out[(xs, ys)] = dual_image(alg.bracket(x, y)).scale(sign)
    return out


def dual_tensor(te):
    """Duality image of a tensor element: the dual extension on every leg."""
    return dual_extension(te.config)(te, tensor_of)


def dual_coproduct_table(cop):
    """Duality image of a coproduct table {X: coproduct(X)}, keyed in the dual."""
    return exchange(cop, dual_tensor)


def duality_report(order, mu, nu):
    """The generator-exchange map identifies the two families, table by table."""
    time_cfg = FamilyConfig("time", mu, nu, order)
    space_cfg = time_cfg.dual()
    report = VerificationReport("duality", {"order": order, "mu": str(mu), "nu": str(nu)})

    stab = commutator_table(space_cfg)
    dual_tab = dual_commutator_table(algebra(time_cfg))
    for pair in generator_pairs():
        report.check(f"table[{pair[0]},{pair[1]}]",
                     "duality image of the time bracket table equals the space table",
                     dual_tab[pair] - stab[pair])

    dual_cop = dual_coproduct_table({g: coproduct(g, time_cfg) for g in GENERATORS})
    for g in GENERATORS:
        report.check(f"coproduct[{g}]",
                     "duality image of the time coproducts equals the space coproducts",
                     dual_cop[g] - coproduct(g, space_cfg))

    for g in GENERATORS:
        e = algebra(time_cfg).gen(g)
        report.check(f"involution[{g}]", "applying the duality twice is the identity",
                     dual_image(dual_image(e)) - e)

    # Classical brackets: the map relates the contracted families with
    # exchanged parameters.
    ccfg = FamilyConfig("classical", mu, nu, order)
    cdual = dual_commutator_table(algebra(ccfg))
    ctab_swapped = commutator_table(ccfg.dual())
    for pair in generator_pairs():
        report.check(f"classical[{pair[0]},{pair[1]}]",
                     "classical brackets map onto the parameter-swapped ones",
                     cdual[pair] - ctab_swapped[pair])

    # Self-dual classification cells; the mixed cells exchange their Weyl labels.
    for signs in (("+", "+"), ("-", "-"), ("0", "0")):
        got = classify(signs[0], signs[1], "time").algebra_name
        expected = classify(signs[1], signs[0], "space").algebra_name
        report.note(f"self-dual[{signs[0]},{signs[1]}]", "diagonal sign classes are self-dual",
                    got == expected, f"got {got}; expected {expected}")
    swaps = []
    for m, n in (("+", "0"), ("-", "0"), ("0", "+"), ("0", "-")):
        a = classify(m, n, "time")
        b = classify(n, m, "space")
        swaps.append((a.weyl_label.split("(")[1], b.weyl_label.split("(")[1]))
    report.note("weyl-exchange",
                "duality exchanges the Galilean and Carroll Weyl labels",
                all({x.rstrip(')'), y.rstrip(')')} == {"WC", "WG"} for x, y in swaps),
                str(swaps))

    # Realization duality: coordinate exchange sends the time realization to
    # the space realization, generator by generator.
    dual_rho = exchange(ore.realization("time_deformed", time_cfg), dual_ore)
    rho_s = ore.realization("space_deformed", space_cfg)
    for g in GENERATORS:
        report.check(f"realization[{g}]",
                     "coordinate exchange maps the time realization to the space one",
                     dual_rho[DUAL_GEN[g]] - rho_s[DUAL_GEN[g]])
    return report

