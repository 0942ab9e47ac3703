"""Exact finite-dimensional checks: 4x4 representation and the 16x16 R-matrix.

Everything here is exact polynomial arithmetic with no series truncation: the
fundamental representation makes the primitive generator nilpotent, so every
exponential terminates.  This module certifies, entry for entry,

* the six 4x4 matrices satisfy all 15 deformed commutators,
* the cube of the primitive generator vanishes,
* R built from the representation equals its tabulated block form,
* the quantum Yang-Baxter equation on the triple tensor space,
* triangularity (R21 R = 1) and the coproduct intertwining relations.

Row and column indices are 1-based in reports, matching the tabulated block
matrix; internally everything is 0-based.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .poly import ExponentPolicyError, ParamPoly
from .report import VerificationReport
from .uea import (GENERATORS, TableContext, commutator_entries, DUAL_GEN, DUAL_SIGN,
                  dual_coeff)
from .hopf import coproduct_entries

_ZERO = ParamPoly.zero()
_ONE = ParamPoly.one()


class NilpotencyError(ValueError):
    """Matrix exponential requested for a non-nilpotent matrix."""


class PolyMatrix:
    """Dense matrix with exact polynomial entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def zeros(cls, rows, cols=None):
        cols = rows if cols is None else cols
        return cls([[_ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        m = cls.zeros(n)
        for i in range(n):
            m.entries[i][i] = _ONE
        return m

    @classmethod
    def from_rows(cls, rows):
        """Rows of ints, Fractions or ParamPoly values."""
        conv = []
        for row in rows:
            conv.append([v if isinstance(v, ParamPoly) else ParamPoly.const(v)
                         for v in row])
        return cls(conv)

    def __add__(self, other):
        self._shape_check(other)
        return PolyMatrix([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._shape_check(other)
        return PolyMatrix([[a - b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self):
        return PolyMatrix([[-a for a in row] for row in self.entries])

    def _shape_check(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} vs "
                             f"{other.rows}x{other.cols}")

    def __mul__(self, other):
        if not isinstance(other, PolyMatrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("inner dimensions disagree")
        out = PolyMatrix.zeros(self.rows, other.cols)
        for i, row in enumerate(self.entries):
            orow = out.entries[i]
            for k, a in enumerate(row):
                if a.is_zero():
                    continue
                brow = other.entries[k]
                for j, b in enumerate(brow):
                    if b.is_zero():
                        continue
                    orow[j] = orow[j] + a * b
        return out

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if not isinstance(c, ParamPoly):
            c = ParamPoly.const(c)
        return PolyMatrix([[a * c if a.terms else a for a in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            a == b for r1, r2 in zip(self.entries, other.entries)
            for a, b in zip(r1, r2))

    def is_zero(self):
        return all(a.is_zero() for row in self.entries for a in row)

    def commutator(self, other):
        return self * other - other * self

    def substitute(self, bindings):
        return PolyMatrix([[a.substitute(bindings) for a in row]
                           for row in self.entries])

    def map_entries(self, fn):
        return PolyMatrix([[fn(a) for a in row] for row in self.entries])

    def divide_param(self, name):
        """Exact entrywise division by a parameter; fails if not divisible."""
        try:
            return self.map_entries(lambda a: a.shift_param(name, -1))
        except ExponentPolicyError as exc:
            raise ValueError(f"matrix is not divisible by {name}") from exc

    def kron(self, other):
        """Kronecker product; the left factor is the slowest-varying leg."""
        out = PolyMatrix.zeros(self.rows * other.rows, self.cols * other.cols)
        for i1, row1 in enumerate(self.entries):
            for j1, a in enumerate(row1):
                if a.is_zero():
                    continue
                for i2, row2 in enumerate(other.entries):
                    base_i = i1 * other.rows + i2
                    base_j = j1 * other.cols
                    orow = out.entries[base_i]
                    for j2, b in enumerate(row2):
                        if not b.is_zero():
                            orow[base_j + j2] = a * b
        return out

    def to_text(self):
        cells = [[str(a) for a in row] for row in self.entries]
        widths = [max(len(cells[i][j]) for i in range(self.rows))
                  for j in range(self.cols)]
        lines = []
        for row in cells:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def to_json_dict(self):
        return {"rows": self.rows, "cols": self.cols,
                "entries": [[str(a) for a in row] for row in self.entries]}

    def __str__(self):
        """The nonzero entries as ``(row,col): poly``, 1-based, row by row."""
        cells = [f"({i + 1},{j + 1}): {a}" for i, row in enumerate(self.entries)
                 for j, a in enumerate(row) if not a.is_zero()]
        return "; ".join(cells) if cells else "0"

    def __repr__(self):
        return f"<PolyMatrix {self.rows}x{self.cols}>"


def matrix_exp_nilpotent(m):
    """Terminating exponential series of a verified-nilpotent matrix."""
    if m.rows != m.cols:
        raise ValueError("exponential of a non-square matrix")
    out = PolyMatrix.identity(m.rows)
    term = PolyMatrix.identity(m.rows)
    for k in range(1, m.rows + 1):
        term = term * m
        if term.is_zero():
            return out
        out = out + term.scale(Fraction(1, factorial(k)))
    raise NilpotencyError(
        f"matrix is not nilpotent: its power {m.rows} is still nonzero")


# ---------------------------------------------------------------------------
# The fundamental representation.
# ---------------------------------------------------------------------------

def _time_matrices():
    tau = ParamPoly.var("tau")
    mu = ParamPoly.var("mu")
    nu = ParamPoly.var("nu")
    htv = tau * nu * Fraction(1, 2)
    return {
        "H": PolyMatrix.from_rows([
            [htv, -htv, -nu, 0],
            [htv, -htv, -nu, 0],
            [1, -1, 0, 0],
            [0, 0, 0, 0]]),
        "P": PolyMatrix.from_rows([
            [0, 0, 0, mu],
            [0, 0, 0, mu],
            [0, 0, 0, 0],
            [1, -1, 0, 0]]),
        "K": PolyMatrix.from_rows([
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, mu],
            [0, 0, nu, 0]]),
        "D": PolyMatrix.from_rows([
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 0]]),
        "C1": PolyMatrix.from_rows([
            [tau * nu, 0, -nu, 0],
            [0, tau * nu, nu, 0],
            [1, 1, 0, 0],
            [0, 0, 0, 0]]),
        "C2": PolyMatrix.from_rows([
            [0, 0, 0, mu],
            [0, 0, 0, -mu],
            [0, 0, 0, 0],
            [1, 1, 0, 0]]),
    }


class DegenerateRepresentationError(ValueError):
    """(mu, nu) = (0, 0) makes the boost matrix degenerate (K is central)."""


def fundamental_rep(config):
    """The six matrices of the configured family, parameters substituted.

    The space-family matrices are the generator-exchange images of the
    time-family ones (entries swap tau<->sigma and mu<->nu); the classical
    family is the zero-deformation limit.
    """
    if config.mu == 0 and config.nu == 0:
        raise DegenerateRepresentationError(
            "(mu, nu) = (0, 0) is unsupported: the matrix of K degenerates "
            "to zero (K is central)")
    base = _time_matrices()
    if config.family == "time":
        rep = base
    elif config.family == "space":
        rep = {}
        for g in GENERATORS:
            src = base[DUAL_GEN[g]].map_entries(dual_coeff)
            rep[g] = src if DUAL_SIGN[g] > 0 else -src
    else:
        rep = {g: m.substitute({"tau": 0}) for g, m in base.items()}
    bindings = config.bindings()
    if bindings:
        rep = {g: m.substitute(bindings) for g, m in rep.items()}
    return rep


class _MatrixContext(TableContext):
    """Table context over 4x4 matrices; exponentials terminate exactly."""

    def __init__(self, config, rep=None):
        super().__init__(config, rep or fundamental_rep(config), PolyMatrix.identity(4))
        self._exp_cache = {}

    def exp(self, k):
        hit = self._exp_cache.get(k)
        if hit is None:
            primary = self.gen(self.config.primary)
            hit = matrix_exp_nilpotent(primary.scale(self.defparam * Fraction(k)))
            self._exp_cache[k] = hit
        return hit

    def dq_plus(self):
        return (self.exp(1) - self.one()).divide_param(self.config.param)

    def dq_minus(self):
        return (self.one() - self.exp(-1)).divide_param(self.config.param)


def rep_commutator_report(config, rep=None):
    """All 15 deformed brackets hold exactly in the representation."""
    ctx = _MatrixContext(config, rep)
    report = VerificationReport("matrix-commutators", config.echo())
    primary = config.primary
    if primary is not None:
        cube = ctx.gen(primary) * ctx.gen(primary) * ctx.gen(primary)
        report.check(f"nilpotent[{primary}]", f"{primary}^3 = 0 in the representation", cube)
    for (x, y), build in commutator_entries(config.family):
        expected = build(ctx)
        residual = ctx.gen(x).commutator(ctx.gen(y)) - expected
        report.check(f"rep[{x},{y}]", f"[{x},{y}] holds for the 4x4 matrices", residual)
    return report


# ---------------------------------------------------------------------------
# The 16x16 R-matrix.
# ---------------------------------------------------------------------------

def build_R(config, rep=None):
    """R = exp(param*G (x) D) exp(-param*D (x) G) in the representation."""
    ctx = _MatrixContext(config, rep)
    g = ctx.gen(config.primary)
    d = ctx.gen("D")
    p = ctx.defparam
    left = matrix_exp_nilpotent(g.kron(d).scale(p))
    right = matrix_exp_nilpotent(d.kron(g).scale(-p))
    return left * right


def r_inverse(config, rep=None):
    ctx = _MatrixContext(config, rep)
    g = ctx.gen(config.primary)
    d = ctx.gen("D")
    p = ctx.defparam
    return (matrix_exp_nilpotent(d.kron(g).scale(p))
            * matrix_exp_nilpotent(g.kron(d).scale(-p)))


# Tabulated 16x16 block form of the time-family R with symbolic tau and nu
# (mu drops out).  Tokens: t = tau, v = tau*nu, w = tau^2*nu.
_R_BLOCK_TOKENS = [
    "1-w  w  0  0   0  0  v  0   0 -v  0  0   0  0  0  0",
    "  0  1  0  0  -w  w  v  0  -v  0  0  0   0  0  0  0",
    "  0  0  1  0  -t  t  0  0   0  0  0  0   0  0  0  0",
    "  0  0  0  1   0  0  0  0   0  0  0  0   0  0  0  0",
    " -w  w  v  0   1  0  0  0   0 -v  0  0   0  0  0  0",
    "  0  0  v  0  -w 1+w  0  0  -v  0  0  0   0  0  0  0",
    " -t  t  0  0   0  0  1  0   0  0  0  0   0  0  0  0",
    "  0  0  0  0   0  0  0  1   0  0  0  0   0  0  0  0",
    "  0  t -w  0   0 -t  w  0   1  0  0  0   0  0  0  0",
    "  t  0 -w  0  -t  0  w  0   0  1  0  0   0  0  0  0",
    "  0  0  0  0   0  0  0  0   0  0  1  0   0  0  0  0",
    "  0  0  0  0   0  0  0  0   0  0  0  1   0  0  0  0",
    "  0  0  0  0   0  0  0  0   0  0  0  0   1  0  0  0",
    "  0  0  0  0   0  0  0  0   0  0  0  0   0  1  0  0",
    "  0  0  0  0   0  0  0  0   0  0  0  0   0  0  1  0",
    "  0  0  0  0   0  0  0  0   0  0  0  0   0  0  0  1",
]


def tabulated_R():
    """The printed block form of the time-family R-matrix."""
    t = ParamPoly.var("tau")
    v = t * ParamPoly.var("nu")
    w = t * v
    one = ParamPoly.one()
    values = {"0": ParamPoly.zero(), "1": one, "t": t, "-t": -t, "v": v,
              "-v": -v, "w": w, "-w": -w, "1-w": one - w, "1+w": one + w}
    rows = []
    for line in _R_BLOCK_TOKENS:
        rows.append([values[tok] for tok in line.split()])
    return PolyMatrix(rows)


# -- leg embeddings on the triple tensor space ---------------------------------

def embed_12(r, dim=4):
    return r.kron(PolyMatrix.identity(dim))


def embed_23(r, dim=4):
    return PolyMatrix.identity(dim).kron(r)


def embed_13(r, dim=4):
    n = dim ** 3
    out = PolyMatrix.zeros(n, n)
    for i1 in range(dim):
        for i3 in range(dim):
            for j1 in range(dim):
                for j3 in range(dim):
                    val = r.entries[i1 * dim + i3][j1 * dim + j3]
                    if val.is_zero():
                        continue
                    for i2 in range(dim):
                        out.entries[(i1 * dim + i2) * dim + i3][
                            (j1 * dim + i2) * dim + j3] = val
    return out


def flip_matrix(dim=4):
    """The leg-swap permutation on the twofold tensor space."""
    n = dim * dim
    out = PolyMatrix.zeros(n, n)
    for i in range(dim):
        for j in range(dim):
            out.entries[i * dim + j][j * dim + i] = _ONE
    return out


def qybe_check(r, dim=4):
    """R12 R13 R23 - R23 R13 R12 = 0 on the triple tensor space."""
    report = VerificationReport("qybe", {"dim": dim})
    r12, r13, r23 = embed_12(r, dim), embed_13(r, dim), embed_23(r, dim)
    residual = r12 * r13 * r23 - r23 * r13 * r12
    report.check("qybe", "R12 R13 R23 = R23 R13 R12", residual)
    return report


def rep_coproducts(config, rep=None, flipped=False):
    """(pi (x) pi) applied to the coproduct table; exact 16x16 matrices."""
    ctx = _MatrixContext(config, rep)
    kron = (lambda a, b: b.kron(a)) if flipped else PolyMatrix.kron
    return {g: build(ctx, kron) for g, build in coproduct_entries(config.family).items()}


def intertwine_check(config, rep=None):
    """R (pi (x) pi)coproduct(X) = (pi (x) pi)flip(coproduct(X)) R, exactly."""
    report = VerificationReport("intertwine", config.echo())
    r = build_R(config, rep)
    cop = rep_coproducts(config, rep)
    cop_flipped = rep_coproducts(config, rep, flipped=True)
    for g in GENERATORS:
        residual = r * cop[g] - cop_flipped[g] * r
        report.check(f"intertwine[{g}]",
                     f"R Delta({g}) = flip(Delta({g})) R in the representation",
                     residual)
    return report


def rmatrix_report(config, rep=None):
    """Full matrix-layer suite for one configuration."""
    report = VerificationReport("rmatrix", config.echo())
    report.extend(rep_commutator_report(config, rep))
    r = build_R(config, rep)
    if config.family == "time" and config.mu == "sym" and config.nu == "sym":
        report.check("block-form", "built R equals the tabulated block matrix (256 entries)",
                     r - tabulated_R())
        report.note("mu-independent", "R carries no mu dependence",
                    not any(a.uses_var("mu") for row in r.entries for a in row),
                    "mu appears in R")
    param = config.param
    report.check("classical-limit", "R at vanishing parameter is the identity",
                 r.substitute({param: 0}) - PolyMatrix.identity(16))
    report.extend(qybe_check(r))
    rinv = r_inverse(config, rep)
    report.check("inverse", "R R^-1 = 1", r * rinv - PolyMatrix.identity(16))
    flip = flip_matrix()
    r21 = flip * r * flip
    report.check("triangular", "R21 R = 1", r21 * r - PolyMatrix.identity(16))
    report.extend(intertwine_check(config, rep))
    return report
