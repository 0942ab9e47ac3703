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

``PolyMatrix`` is a ``poly.LinComb`` keyed by ``(row, col)``: it stores only
its nonzero entries, so every product, sum, Kronecker product, leg embedding
and leg flip touches only those (the QYBE factors on the 64-dimensional
triple space have 168 nonzero entries out of 4096), and a difference of
equal entries is zero with no arithmetic.  Sums, differences, scaling and
equality are the core's; the matrix product, ``kron`` and the renderings are
its own.  Its ``entries`` are a read-only dense view for rendering and
tests.  ``rmatrix_report`` builds one matrix context per family, so the
representation, its exponentials and R are built once.  Flipping the legs
of a matrix on V (x) V, as for R21 and flip(coproduct(X)), relabels its
entries (``flip_legs``) instead of multiplying by the swap ``flip_matrix()``
on both sides.  The leg helpers read dim V from the shape of their operand.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt

from .poly import ExponentPolicyError, LinComb, ParamPoly, _acc
from .report import VerificationReport
from .uea import GENERATORS, TableContext, commutator_entries, dual_coeff, exchange
from .hopf import coproduct_entries

_ZERO = ParamPoly.zero()
_ONE = ParamPoly.one()


class NilpotencyError(ValueError):
    """Matrix exponential requested for a non-nilpotent matrix."""


class PolyMatrix(LinComb):
    """Matrix with exact polynomial entries: a ``LinComb`` keyed by ``(row, col)``.

    ``terms`` maps 0-based ``(i, j)`` to the nonzero ``ParamPoly`` entries and
    ``_meta()`` is the shape ``(rows, cols)``, so sums, differences, negation,
    scaling, equality, ``is_zero``, ``commutator`` and ``map_coeffs`` are the
    core's, and operands of different shapes raise ``ConfigMismatchError`` (a
    ``ValueError``).  ``entries`` is a read-only dense view (a tuple of
    tuples), so an entry cannot be edited in place: build a new matrix from
    edited rows instead.
    """

    __slots__ = ("rows", "cols")

    def __init__(self, entries):
        """A matrix from dense rows of ``ParamPoly`` values."""
        entries = [list(row) for row in entries]
        cols = len(entries[0]) if entries else 0
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
        self.rows, self.cols = len(entries), cols
        self.terms = {(i, j): a for i, row in enumerate(entries)
                      for j, a in enumerate(row) if a}

    @classmethod
    def _sparse(cls, terms, rows, cols):
        """A matrix from its nonzero ``(i, j)`` entries, taken as they are."""
        m = cls.__new__(cls)
        m.terms, m.rows, m.cols = terms, rows, cols
        return m

    @classmethod
    def identity(cls, n):
        return cls._sparse({(i, i): _ONE for i in range(n)}, n, n)

    @classmethod
    def from_rows(cls, rows):
        """Rows of ints, Fractions or ParamPoly values."""
        return cls([[v if isinstance(v, ParamPoly) else ParamPoly.const(v) for v in row]
                    for row in rows])

    def _meta(self):
        return (self.rows, self.cols)

    def _like(self, terms):
        return PolyMatrix._sparse(terms, self.rows, self.cols)

    @property
    def entries(self):
        """The dense entries as a tuple of row tuples, zeros included."""
        terms = self.terms
        return tuple(tuple(terms.get((i, j), _ZERO) for j in range(self.cols))
                     for i in range(self.rows))

    def __mul__(self, other):
        if not isinstance(other, PolyMatrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("inner dimensions disagree")
        right = {}
        for (k, j), b in other.terms.items():
            right.setdefault(k, []).append((j, b))
        out = {}
        for (i, k), a in self.terms.items():
            for j, b in right.get(k, ()):
                _acc(out, (i, j), a * b)
        return PolyMatrix._sparse(out, self.rows, other.cols)

    def substitute(self, bindings):
        return self.map_coeffs(lambda a: a.substitute(bindings))

    def divide_param(self, name):
        """Exact entrywise division by a parameter; fails if not divisible."""
        try:
            return self.map_coeffs(lambda a: a.shift_param(name, -1))
        except ExponentPolicyError as exc:
            raise ValueError(f"matrix is not divisible by {name}") from exc

    def kron(self, other):
        """Kronecker product; the left factor is the slowest-varying leg."""
        rows, cols = other.rows, other.cols
        out = {(i1 * rows + i2, j1 * cols + j2): a * b
               for (i1, j1), a in self.terms.items() for (i2, j2), b in other.terms.items()}
        return PolyMatrix._sparse(out, self.rows * rows, self.cols * cols)

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
        terms = self.terms
        cells = [f"({i + 1},{j + 1}): {terms[i, j]}" for i, j in sorted(terms)]
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
    time-family ones (``uea.exchange``; entries swap tau<->sigma and
    mu<->nu); the classical family is the zero-deformation limit.
    """
    if config.mu == 0 and config.nu == 0:
        raise DegenerateRepresentationError(
            "(mu, nu) = (0, 0) is unsupported: the matrix of K degenerates "
            "to zero (K is central)")
    base = _time_matrices()
    if config.family == "time":
        rep = base
    elif config.family == "space":
        rep = exchange(base, lambda m: m.map_coeffs(dual_coeff))
    else:
        rep = {g: m.substitute({"tau": 0}) for g, m in base.items()}
    bindings = config.bindings()
    if bindings:
        rep = {g: m.substitute(bindings) for g, m in rep.items()}
    return rep


class _MatrixContext(TableContext):
    """Table context over 4x4 matrices; exponentials terminate exactly.

    One context serves a whole ``rmatrix_report``: it holds the
    representation (the caller's ``rep`` when given) and the ``exp(k)`` cache.
    """

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

    def _exp_tensor(self, left, right, c):
        """exp(c * left (x) right) for two generators."""
        return matrix_exp_nilpotent(self.gen(left).kron(self.gen(right)).scale(c))

    def r(self):
        """R = exp(param*G (x) D) exp(-param*D (x) G)."""
        g, p = self.config.primitive_generator(), self.defparam
        return self._exp_tensor(g, "D", p) * self._exp_tensor("D", g, -p)

    def r_inverse(self):
        """exp(param*D (x) G) exp(-param*G (x) D), built from its own factors."""
        g, p = self.config.primitive_generator(), self.defparam
        return self._exp_tensor("D", g, p) * self._exp_tensor(g, "D", -p)

    def coproducts(self):
        """(pi (x) pi) applied to the coproduct table; exact 16x16 matrices."""
        return {g: build(self, PolyMatrix.kron)
                for g, build in coproduct_entries(self.config.family).items()}


# ---------------------------------------------------------------------------
# The 16x16 R-matrix.
# ---------------------------------------------------------------------------

def build_R(config):
    """R = exp(param*G (x) D) exp(-param*D (x) G) in the representation."""
    return _MatrixContext(config).r()


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

def embed_12(r):
    """R on legs 1 and 2 of the triple space; dim V is read from R's shape."""
    return r.kron(PolyMatrix.identity(_leg_dim(r, "embed_12")))


def embed_23(r):
    """R on legs 2 and 3 of the triple space; dim V is read from R's shape."""
    return PolyMatrix.identity(_leg_dim(r, "embed_23")).kron(r)


def embed_13(r):
    """R on legs 1 and 3: entry ((i1, i3), (j1, j3)) of r goes to
    ((i1, i2, i3), (j1, i2, j3)) for every i2; dim V is read from R's shape."""
    dim = _leg_dim(r, "embed_13")
    out = {}
    for (p, q), val in r.terms.items():
        (i1, i3), (j1, j3) = divmod(p, dim), divmod(q, dim)
        for i2 in range(dim):
            out[(i1 * dim + i2) * dim + i3, (j1 * dim + i2) * dim + j3] = val
    n = dim ** 3
    return PolyMatrix._sparse(out, n, n)


def flip_matrix(dim=4):
    """The leg-swap permutation on the twofold tensor space."""
    n = dim * dim
    return PolyMatrix._sparse({(i, (i % dim) * dim + i // dim): _ONE for i in range(n)}, n, n)


def _leg_dim(m, what):
    """dim V for a square matrix m on V (x) V; a ValueError names any other shape."""
    dim = isqrt(m.rows)
    if not dim * dim == m.rows == m.cols:
        raise ValueError(f"{what} needs a square matrix on V (x) V, got {m.rows}x{m.cols}")
    return dim


def flip_legs(m):
    """P m P for the leg swap P = ``flip_matrix(dim)``, by relabelling entries.

    m acts on V (x) V with dim V = sqrt(m.rows).  P maps the basis vector
    e_i (x) e_j to e_j (x) e_i, so P m P only moves entry
    (i2*dim + i1, j2*dim + j1) of m to (i1*dim + i2, j1*dim + j2): no product
    is formed.
    """
    dim = _leg_dim(m, "flip_legs")
    perm = [(i % dim) * dim + i // dim for i in range(m.rows)]
    return m._like({(perm[p], perm[q]): v for (p, q), v in m.terms.items()})


def qybe_check(r):
    """R12 R13 R23 - R23 R13 R12 = 0 on the triple tensor space.

    R acts on V (x) V; dim V is read from R's shape, as in ``flip_legs``.
    """
    dim = _leg_dim(r, "qybe_check")
    report = VerificationReport("qybe", {"dim": dim})
    r12, r13, r23 = embed_12(r), embed_13(r), embed_23(r)
    residual = r12 * r13 * r23 - r23 * r13 * r12
    report.check("qybe", "R12 R13 R23 = R23 R13 R12", residual)
    return report


def rmatrix_report(config, rep=None):
    """Full matrix-layer suite for a deformed family, on one shared context.

    ``rep`` replaces the fundamental representation, for fault tests.
    """
    ctx = _MatrixContext(config, rep)
    prim = config.primitive_generator()
    report = VerificationReport("rmatrix", config.echo())
    m = ctx.gen(prim)
    report.check(f"nilpotent[{prim}]", f"{prim}^3 = 0 in the representation", m * m * m)
    for (x, y), build in commutator_entries(config.family):
        residual = ctx.gen(x).commutator(ctx.gen(y)) - build(ctx)
        report.check(f"rep[{x},{y}]", f"[{x},{y}] holds for the 4x4 matrices", residual)
    r = ctx.r()
    if config.family == "time" and config.mu == "sym" and config.nu == "sym":
        report.check("block-form", "built R equals the tabulated block matrix (256 entries)",
                     r - tabulated_R())
        report.note("mu-independent", "R carries no mu dependence",
                    not any(a.uses_var("mu") for a in r.terms.values()),
                    "mu appears in R")
    param = config.param
    report.check("classical-limit", "R at vanishing parameter is the identity",
                 r.substitute({param: 0}) - PolyMatrix.identity(16))
    report.extend(qybe_check(r))
    report.check("inverse", "R R^-1 = 1", r * ctx.r_inverse() - PolyMatrix.identity(16))
    report.check("triangular", "R21 R = 1", flip_legs(r) * r - PolyMatrix.identity(16))
    # flip(coproduct(X)) is the leg-flipped image of coproduct(X), so the
    # coproduct table is built once.
    cop = ctx.coproducts()
    for g in GENERATORS:
        report.check(f"intertwine[{g}]",
                     f"R Delta({g}) = flip(Delta({g})) R in the representation",
                     r * cop[g] - flip_legs(cop[g]) * r)
    return report
