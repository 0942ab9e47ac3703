"""4x4 representation, 16x16 R-matrix, QYBE, intertwining; all exact."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordconf import matrixrep
from jordconf.hopf import coproduct_entries
from jordconf.poly import ParamPoly
from jordconf.uea import FamilyConfig, GENERATORS, commutator_entries
from jordconf.matrixrep import (DegenerateRepresentationError, NilpotencyError,
                                PolyMatrix, _MatrixContext, build_R, embed_12,
                                embed_13, embed_23, flip_legs, flip_matrix,
                                fundamental_rep, matrix_exp_nilpotent, qybe_check,
                                rmatrix_report, tabulated_R)

TIME = FamilyConfig("time")
SPACE = FamilyConfig("space")


def _tau():
    return ParamPoly.var("tau")


def _nu():
    return ParamPoly.var("nu")


def zeros(rows, cols=None):
    return PolyMatrix.from_rows([[0] * (rows if cols is None else cols)] * rows)


def test_matrix_refuses_malformed_input():
    with pytest.raises(ValueError, match="ragged matrix"):
        PolyMatrix.from_rows([[1, 0], [1]])
    with pytest.raises(ValueError, match="not divisible by tau"):
        PolyMatrix.from_rows([[_tau(), 1]]).divide_param("tau")
    with pytest.raises(ValueError, match="non-square"):
        matrix_exp_nilpotent(zeros(2, 3))


def test_matrix_times_a_coefficient_scales():
    m = PolyMatrix.from_rows([[1, _tau()], [0, 2]])
    assert m * Fraction(3, 2) == PolyMatrix.from_rows([[Fraction(3, 2), _tau() * Fraction(3, 2)],
                                                       [0, 3]])
    assert m * _nu() == PolyMatrix.from_rows([[_nu(), _tau() * _nu()], [0, _nu() * 2]])
    assert repr(zeros(2, 3)) == "<PolyMatrix 2x3>"


# -- the representation ------------------------------------------------------------

def test_dilation_matrix_shape():
    d = fundamental_rep(TIME)["D"]
    expected = PolyMatrix.from_rows([
        [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert d == expected


def test_primary_cubed_vanishes():
    h = fundamental_rep(TIME)["H"]
    assert (h * h * h).is_zero()
    assert not (h * h).is_zero()
    p = fundamental_rep(SPACE)["P"]
    assert (p * p * p).is_zero()


@pytest.mark.parametrize("config", [TIME, SPACE, FamilyConfig("classical")])
def test_all_commutators_hold(config):
    # rmatrix_report records these for the deformed families as rep[X,Y].
    ctx = _MatrixContext(config)
    for (x, y), build in commutator_entries(config.family):
        assert ctx.gen(x).commutator(ctx.gen(y)) == build(ctx), (x, y)


@pytest.mark.parametrize("build", [build_R, rmatrix_report])
def test_classical_family_has_no_r_matrix(build):
    with pytest.raises(ValueError, match="the classical family has no R-matrix"):
        build(FamilyConfig("classical"))


def test_degenerate_contraction_rejected():
    with pytest.raises(DegenerateRepresentationError):
        fundamental_rep(FamilyConfig("time", 0, 0))


@pytest.mark.parametrize("mv", [-1, 0, 1])
@pytest.mark.parametrize("nv", [-1, 0, 1])
def test_representation_respects_specialization(mv, nv):
    if mv == 0 and nv == 0:
        return
    symbolic = fundamental_rep(TIME)
    special = fundamental_rep(FamilyConfig("time", mv, nv))
    bindings = {"mu": Fraction(mv), "nu": Fraction(nv)}
    for g in GENERATORS:
        assert symbolic[g].substitute(bindings) == special[g]


# -- PolyMatrix arithmetic against a dense oracle -----------------------------------
# The oracle walks every entry, zero or not, with plain ParamPoly arithmetic.

def _dense_mul(a, b):
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            s = ParamPoly.zero()
            for k in range(a.cols):
                s = s + a.entries[i][k] * b.entries[k][j]
            row.append(s)
        out.append(row)
    return out


def _dense_entrywise(a, b, op):
    return [[op(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(a.entries, b.entries)]


def _dense_kron(a, b):
    return [[a.entries[i1][j1] * b.entries[i2][j2]
             for j1 in range(a.cols) for j2 in range(b.cols)]
            for i1 in range(a.rows) for i2 in range(b.rows)]


def _terms(m):
    """Entry terms of a PolyMatrix or of an oracle's list of rows."""
    rows = m.entries if isinstance(m, PolyMatrix) else m
    return [[e.terms for e in row] for row in rows]


_SIMPLE = [ParamPoly.zero(), ParamPoly.one(), -ParamPoly.one(), _tau(), _nu()]
_MULTI = st.lists(st.tuples(st.sampled_from([-2, -1, Fraction(1, 3), 1, 2]),
                            st.sampled_from(_SIMPLE[1:] + [_tau() * _nu(), _tau() ** 2])),
                  min_size=2, max_size=3).map(
    lambda pairs: sum((ParamPoly.const(c) * v for c, v in pairs), ParamPoly.zero()))
_ENTRY = st.one_of(st.sampled_from(_SIMPLE), _MULTI)
_DIM = st.integers(1, 5)


@st.composite
def _matrices(draw, rows, cols):
    """A rows x cols matrix, some of its rows and columns forced to zero."""
    entries = [[draw(_ENTRY) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1))):
        entries[i] = [ParamPoly.zero()] * cols
    for j in draw(st.sets(st.integers(0, cols - 1))):
        for row in entries:
            row[j] = ParamPoly.zero()
    return PolyMatrix(entries)


@st.composite
def _product_operands(draw):
    n, k, m = draw(_DIM), draw(_DIM), draw(_DIM)
    return draw(_matrices(n, k)), draw(_matrices(k, m)), draw(_matrices(n, k))


@settings(max_examples=80, deadline=None)
@given(_product_operands(), _matrices(2, 3), _ENTRY)
def test_polymatrix_ops_match_dense_oracle(operands, small, c):
    a, b, a2 = operands
    assert _terms(a * b) == _terms(_dense_mul(a, b))
    assert _terms(a + a2) == _terms(_dense_entrywise(a, a2, lambda x, y: x + y))
    assert _terms(a - a2) == _terms(_dense_entrywise(a, a2, lambda x, y: x - y))
    assert (a - a).is_zero()
    assert _terms(a.kron(small)) == _terms(_dense_kron(a, small))
    assert _terms(a.scale(c)) == _terms([[x * c for x in row] for row in a.entries])
    assert (a == a2) == (_terms(a) == _terms(a2))
    assert a.is_zero() == all(not x.terms for row in a.entries for x in row)
    assert a * b == PolyMatrix(_dense_mul(a, b))


def _edited(m, i, j, value):
    """``m`` with entry (i, j) replaced, rebuilt from edited dense rows."""
    rows = [list(row) for row in m.entries]
    rows[i][j] = value
    return PolyMatrix(rows)


@settings(max_examples=40, deadline=None)
@given(_product_operands(), st.data())
def test_entries_are_read_only_and_edited_rows_show_in_the_next_product(operands, data):
    a, b, _ = operands
    a * b  # a product before the edits
    i, k = data.draw(st.integers(0, a.rows - 1)), data.draw(st.integers(0, a.cols - 1))
    with pytest.raises(TypeError):
        a.entries[i][k] = ParamPoly.one()
    with pytest.raises(TypeError):
        a.entries[i] = [ParamPoly.one()] * a.cols
    value = data.draw(_ENTRY)
    a = _edited(a, i, k, value)
    assert a.entries[i][k] == value
    assert _terms(a * b) == _terms(_dense_mul(a, b))
    k, j = data.draw(st.integers(0, b.rows - 1)), data.draw(st.integers(0, b.cols - 1))
    value = data.draw(_ENTRY)
    b = _edited(b, k, j, value)
    assert b.entries[k][j] == value
    assert _terms(a * b) == _terms(_dense_mul(a, b))


def test_rendering_keeps_column_order_after_out_of_order_accumulation():
    # Row 0 of b fills column 2 first, so the product's row collects its
    # columns in the order 2, 0, 1.
    a = PolyMatrix.from_rows([[1, _tau()]])
    b = PolyMatrix.from_rows([[0, 0, 2], [3, 5, 0]])
    product = a * b
    assert [key for key in product.terms if key[0] == 0] == [(0, 2), (0, 0), (0, 1)]
    dense = PolyMatrix.from_rows([[3 * _tau(), 5 * _tau(), 2]])
    assert product == dense
    assert str(product) == str(dense) == "(1,1): 3*tau; (1,2): 5*tau; (1,3): 2"
    assert product.to_text() == dense.to_text() == "3*tau  5*tau  2"
    assert product.to_json_dict() == dense.to_json_dict() == {
        "rows": 1, "cols": 3, "entries": [["3*tau", "5*tau", "2"]]}


# -- nilpotent exponentials --------------------------------------------------------

def test_exp_of_zero_is_identity():
    assert matrix_exp_nilpotent(zeros(4)) == PolyMatrix.identity(4)


def test_exp_of_tensor_has_three_terms():
    rep = fundamental_rep(TIME)
    h, d = rep["H"], rep["D"]
    a = h.kron(d).scale(_tau())
    expected = (PolyMatrix.identity(16) + a + (a * a).scale(Fraction(1, 2)))
    assert (a * a * a).is_zero()
    assert matrix_exp_nilpotent(a) == expected


def test_exp_inverse_pair():
    rep = fundamental_rep(TIME)
    a = rep["H"].kron(rep["D"]).scale(_tau())
    assert matrix_exp_nilpotent(a) * matrix_exp_nilpotent(-a) == PolyMatrix.identity(16)


def test_non_nilpotent_rejected():
    d = fundamental_rep(TIME)["D"]  # D^2 is a projection, D^3 = D
    with pytest.raises(NilpotencyError):
        matrix_exp_nilpotent(d)


# -- the R-matrix ---------------------------------------------------------------------

def test_R_against_tabulated_block_form():
    assert build_R(TIME) == tabulated_R()


def test_R_spot_entries():
    r = build_R(TIME)
    tau, nu = _tau(), _nu()
    assert r.entries[0][0] == ParamPoly.one() - tau * tau * nu
    assert r.entries[2][4] == -tau
    assert r.entries[2][5] == tau


def test_R_is_mu_independent_and_classical_limit():
    r = build_R(TIME)
    assert not any(e.uses_var("mu") for row in r.entries for e in row)
    assert r.substitute({"tau": 0}) == PolyMatrix.identity(16)


def test_R_inverse_and_triangularity():
    r = build_R(TIME)
    assert r * _MatrixContext(TIME).r_inverse() == PolyMatrix.identity(16)
    flip = flip_matrix()
    assert (flip * r * flip) * r == PolyMatrix.identity(16)


# -- QYBE --------------------------------------------------------------------------------

def test_qybe_exact_zero():
    assert qybe_check(build_R(TIME)).passed
    assert qybe_check(build_R(SPACE)).passed


def test_qybe_identity_trivial():
    assert qybe_check(PolyMatrix.identity(16)).passed


def test_qybe_reads_the_leg_dimension_from_the_shape():
    # A 9x9 matrix acts on V (x) V with dim V = 3; the swap solves the QYBE.
    assert qybe_check(PolyMatrix.identity(9)).passed
    assert qybe_check(flip_matrix(3)).passed
    assert not qybe_check(_edited(flip_matrix(3), 0, 1, _tau())).passed
    for rows, cols in ((16, 4), (4, 16), (15, 15), (8, 8)):
        with pytest.raises(ValueError, match=f"square matrix on V \\(x\\) V, got {rows}x{cols}"):
            qybe_check(zeros(rows, cols))


def test_qybe_detects_mutation():
    r = build_R(TIME)
    mutated = _edited(r, 0, 1, r.entries[0][1] + _tau())
    assert not qybe_check(mutated).passed


def test_qybe_residual_names_its_entries():
    # The mutated R of acceptance criterion 11(c); entries are 1-based.
    r = build_R(TIME)
    mutated = _edited(r, 0, 1, r.entries[0][1] + _tau())
    record, = qybe_check(mutated).records
    assert "(1,2): " in record.residual
    assert str(PolyMatrix.from_rows([[0, 1], [_tau(), 0]])) == "(1,2): 1; (2,1): tau"
    assert str(zeros(2)) == "0"


def test_leg_embedding_convention():
    r = build_R(TIME)
    assert embed_12(r) == r.kron(PolyMatrix.identity(4))
    assert embed_23(r) == PolyMatrix.identity(4).kron(r)
    # R13 is R12 conjugated by the swap of the last two legs.
    swap23 = PolyMatrix.identity(4).kron(flip_matrix())
    assert embed_13(r) == swap23 * embed_12(r) * swap23


def test_leg_embeddings_read_the_leg_dimension_from_the_shape():
    # A 9x9 matrix acts on V (x) V with dim V = 3, so each embedding is 27x27.
    assert embed_13(PolyMatrix.identity(9)) == PolyMatrix.identity(27)
    assert embed_12(PolyMatrix.identity(9)) == PolyMatrix.identity(27)
    assert embed_23(PolyMatrix.identity(9)) == PolyMatrix.identity(27)
    m = PolyMatrix([[ParamPoly.const(9 * i + j + 1) for j in range(9)] for i in range(9)])
    swap23 = PolyMatrix.identity(3).kron(flip_matrix(3))
    assert embed_12(m) == m.kron(PolyMatrix.identity(3))
    assert embed_23(m) == PolyMatrix.identity(3).kron(m)
    assert embed_13(m) == swap23 * embed_12(m) * swap23
    for embed in (embed_12, embed_13, embed_23):
        for rows, cols in ((15, 15), (16, 4)):
            with pytest.raises(ValueError, match=f"{embed.__name__} needs a square matrix "
                                                 f"on V \\(x\\) V, got {rows}x{cols}"):
                embed(zeros(rows, cols))


def test_shape_mismatches_raise_value_errors():
    a, b = PolyMatrix.identity(2), zeros(2, 3)
    with pytest.raises(ValueError, match=r"operands disagree: \(2, 2\) vs \(2, 3\)"):
        a + b
    with pytest.raises(ValueError, match=r"operands disagree: \(2, 2\) vs \(2, 3\)"):
        a - b
    with pytest.raises(ValueError, match=r"operands disagree: \(2, 3\) vs \(2, 2\)"):
        b - a
    assert a * b == b
    with pytest.raises(ValueError, match="inner dimensions disagree"):
        b * a


# -- the leg flip --------------------------------------------------------------------

@pytest.mark.parametrize("params", [(), (Fraction(2, 3), Fraction(-5, 7))])
@pytest.mark.parametrize("family", ["time", "space"])
def test_flip_legs_is_conjugation_by_the_swap(family, params):
    config = FamilyConfig(family, *params)
    flip = flip_matrix()
    ctx = _MatrixContext(config)
    images = [ctx.r(), ctx.r_inverse()]
    images += ctx.coproducts().values()
    assert len(images) == 8
    for m in images:
        assert flip_legs(m) == flip * m * flip



def test_flip_legs_reads_the_leg_dimension_from_the_shape():
    m = PolyMatrix([[ParamPoly.const(9 * i + j + 1) for j in range(9)] for i in range(9)])
    assert flip_legs(m) == flip_matrix(3) * m * flip_matrix(3)
    for rows, cols in ((15, 15), (16, 4), (4, 16)):
        with pytest.raises(ValueError, match="square matrix on V"):
            flip_legs(zeros(rows, cols))

# -- intertwining -------------------------------------------------------------------------

@pytest.mark.parametrize("config", [TIME, SPACE])
def test_intertwining(config):
    verdicts = [rec.passed for rec in rmatrix_report(config).records
                if rec.name.startswith("intertwine[")]
    assert verdicts == [True] * 6


def _undeformed_d_and_k(family):
    """The coproduct table with Delta(D) and Delta(K) stripped of deformation terms."""
    table = dict(coproduct_entries(family))
    classical = coproduct_entries("classical")
    table["D"], table["K"] = classical["D"], classical["K"]
    return table


@pytest.mark.parametrize("params", [(), (Fraction(2, 3), Fraction(-5, 7))])
@pytest.mark.parametrize("family", ["time", "space"])
def test_intertwining_catches_a_wrong_coproduct(family, params, monkeypatch):
    # flip(Delta(X)) is derived from Delta(X), so a wrong Delta must still
    # break R Delta = flip(Delta) R rather than cancel against its own flip.
    monkeypatch.setattr(matrixrep, "coproduct_entries", _undeformed_d_and_k)
    config = FamilyConfig(family, *params)
    verdicts = {rec.name: rec.passed for rec in rmatrix_report(config).records}
    assert not verdicts["intertwine[D]"]
    assert not verdicts["intertwine[K]"]
    assert all(verdicts[f"intertwine[{g}]"] for g in ("H", "P", "C1", "C2"))


@pytest.mark.parametrize("config", [TIME, SPACE])
def test_full_suite_uses_the_callers_representation(config):
    perturbed = dict(fundamental_rep(config))
    perturbed["K"] = perturbed["K"].scale(2)
    report = rmatrix_report(config, rep=perturbed)
    assert not report.passed
    failed = {rec.name for rec in report.records if not rec.passed}
    assert "rep[H,K]" in failed and "intertwine[K]" in failed
    # The intertwining records agree with the relation computed on the same rep.
    ctx = _MatrixContext(config, perturbed)
    r, cop = ctx.r(), ctx.coproducts()
    assert {f"intertwine[{g}]" for g in GENERATORS
            if r * cop[g] != flip_legs(cop[g]) * r} == {
        name for name in failed if name.startswith("intertwine[")}


@pytest.mark.parametrize("config", [TIME, SPACE])
def test_full_matrix_suite(config):
    assert rmatrix_report(config).passed


def test_rendering_roundtrip():
    d = fundamental_rep(TIME)["D"]
    assert d.to_json_dict()["entries"][0][1] == "1"
    assert "1" in d.to_text()
