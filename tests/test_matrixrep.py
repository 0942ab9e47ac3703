"""4x4 representation, 16x16 R-matrix, QYBE, intertwining; all exact."""

from __future__ import annotations

from fractions import Fraction

import pytest

from jordconf.poly import ParamPoly
from jordconf.uea import FamilyConfig, GENERATORS
from jordconf.matrixrep import (DegenerateRepresentationError, NilpotencyError,
                                PolyMatrix, build_R, embed_12, embed_13,
                                embed_23, flip_matrix, fundamental_rep,
                                intertwine_check, matrix_exp_nilpotent,
                                qybe_check, r_inverse, rep_commutator_report,
                                rmatrix_report, tabulated_R)

TIME = FamilyConfig("time")
SPACE = FamilyConfig("space")


def _tau():
    return ParamPoly.var("tau")


def _nu():
    return ParamPoly.var("nu")


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
    report = rep_commutator_report(config)
    assert report.passed


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


# -- nilpotent exponentials --------------------------------------------------------

def test_exp_of_zero_is_identity():
    assert matrix_exp_nilpotent(PolyMatrix.zeros(4)) == PolyMatrix.identity(4)


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
    assert r * r_inverse(TIME) == PolyMatrix.identity(16)
    flip = flip_matrix()
    assert (flip * r * flip) * r == PolyMatrix.identity(16)


# -- QYBE --------------------------------------------------------------------------------

def test_qybe_exact_zero():
    assert qybe_check(build_R(TIME)).passed
    assert qybe_check(build_R(SPACE)).passed


def test_qybe_identity_trivial():
    assert qybe_check(PolyMatrix.identity(16)).passed


def test_qybe_detects_mutation():
    r = build_R(TIME)
    mutated = PolyMatrix([row[:] for row in r.entries])
    mutated.entries[0][1] = mutated.entries[0][1] + _tau()
    assert not qybe_check(mutated).passed


def test_qybe_residual_names_its_entries():
    # The mutated R of acceptance criterion 11(c); entries are 1-based.
    r = build_R(TIME)
    mutated = PolyMatrix([row[:] for row in r.entries])
    mutated.entries[0][1] = mutated.entries[0][1] + _tau()
    record, = qybe_check(mutated).records
    assert "(1,2): " in record.residual
    assert str(PolyMatrix.from_rows([[0, 1], [_tau(), 0]])) == "(1,2): 1; (2,1): tau"
    assert str(PolyMatrix.zeros(2)) == "0"


def test_leg_embedding_convention():
    r = build_R(TIME)
    assert embed_12(r) == r.kron(PolyMatrix.identity(4))
    assert embed_23(r) == PolyMatrix.identity(4).kron(r)
    # R13 is R12 conjugated by the swap of the last two legs.
    swap23 = PolyMatrix.identity(4).kron(flip_matrix())
    assert embed_13(r) == swap23 * embed_12(r) * swap23


# -- intertwining -------------------------------------------------------------------------

@pytest.mark.parametrize("config", [TIME, SPACE])
def test_intertwining(config):
    assert intertwine_check(config).passed


@pytest.mark.parametrize("config", [TIME, SPACE])
def test_full_matrix_suite(config):
    assert rmatrix_report(config).passed


def test_rendering_roundtrip():
    d = fundamental_rep(TIME)["D"]
    assert d.to_json_dict()["entries"][0][1] == "1"
    assert "1" in d.to_text()
