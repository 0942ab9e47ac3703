"""Acceptance gate: every exit criterion at its stated tolerance.

All checks are exact (zero residual); the only numeric tolerance anywhere is
the wall-clock bound on the associativity suite.  Each criterion prints one
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

from __future__ import annotations

import time
from fractions import Fraction

from jordconf.poly import ParamPoly
from jordconf.uea import (GENERATORS, FamilyConfig, algebra,
                          commutator_table, diamond_check)
from jordconf import matrixrep, ore, structure, twist
from jordconf.hopf import (Hopf, TensorElement, check_coassociativity,
                           check_homomorphism, classical_r_matrix,
                           cocommutator_from_r, counit_and_antipode,
                           first_order_antisymmetrization, schouten_cybe,
                           tensor_of)

from test_structure import EXPECTED_SPACE_GRID, EXPECTED_TIME_GRID

TIME = FamilyConfig("time")
SPACE = FamilyConfig("space")
CLASSICAL = FamilyConfig("classical")
DEFORMED = (TIME, SPACE)


def _verdict(number, description, ok):
    print(f"[acceptance] criterion {number:2d} ({description}): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_diamond_associativity():
    from jordconf.uea import _ALGEBRAS
    from jordconf.hopf import _HOPF
    _ALGEBRAS.clear()
    _HOPF.clear()
    start = time.perf_counter()
    ok = True
    for config in DEFORMED:
        report = diamond_check(config)
        ok = ok and report.passed and len(report.records) == 20
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _verdict(1, f"diamond associativity, both families, N=6, {elapsed:.2f}s", ok)


def test_criterion_02_hopf_axioms():
    ok = True
    for config in DEFORMED:
        hom = check_homomorphism(config)
        coa = check_coassociativity(config)
        axioms = counit_and_antipode(config)
        ok = (ok and hom.passed and len(hom.records) == 15
              and coa.passed and len(coa.records) == 6
              and axioms.passed)
    _verdict(2, "coproduct homomorphism, coassociativity, counit, antipode", ok)


def test_criterion_03_lie_bialgebra():
    tau, nu = ParamPoly.var("tau"), ParamPoly.var("nu")
    alg = algebra(CLASSICAL)

    def wedge(a, b, coeff):
        x, y = alg.gen(a), alg.gen(b)
        return (tensor_of(x, y) - tensor_of(y, x)).scale(coeff)

    expected = {
        "H": TensorElement({}, CLASSICAL, 2),
        "D": wedge("D", "H", -tau),
        "P": wedge("P", "H", tau),
        "K": wedge("D", "P", -tau * nu),
        "C1": wedge("C1", "H", -tau),
        "C2": wedge("C2", "H", -tau) + wedge("D", "K", 2 * tau),
    }
    ok = all(cocommutator_from_r(g, TIME) == expected[g] for g in GENERATORS)
    for config in DEFORMED:
        ok = ok and all(
            cocommutator_from_r(g, config) == first_order_antisymmetrization(g, config)
            for g in GENERATORS)
        ok = ok and schouten_cybe(classical_r_matrix(config)).is_zero()
    _verdict(3, "cocommutator table, first-order match, CYBE", ok)


def test_criterion_04_matrix_layer():
    rep = matrixrep.fundamental_rep(TIME)
    h = rep["H"]
    ok = (h * h * h).is_zero()
    r = matrixrep.build_R(TIME)
    ok = ok and r == matrixrep.tabulated_R()
    ok = ok and matrixrep.qybe_check(r).passed
    ok = ok and matrixrep.qybe_check(matrixrep.build_R(SPACE)).passed
    # The commutators and the intertwining relations are records of the suite.
    ok = ok and matrixrep.rmatrix_report(TIME).passed
    ok = ok and matrixrep.rmatrix_report(SPACE).passed
    flip = matrixrep.flip_matrix()
    ok = ok and (flip * r * flip) * r == matrixrep.PolyMatrix.identity(16)
    _verdict(4, "4x4 commutators, H^3=0, block R, QYBE, intertwining, R21 R=1", ok)


def test_criterion_05_realizations():
    pairs = [("classical", CLASSICAL), ("time_deformed", TIME),
             ("time_twisted", TIME), ("space_deformed", SPACE),
             ("space_twisted", SPACE)]
    ok = True
    for name, config in pairs:
        brackets = ore.check_realization_homomorphism(name, config)
        ok = ok and brackets.passed and len(brackets.records) == 15
        ok = ok and ore.symmetry_check(name, config).passed
    for which in ("W1", "W2"):
        ok = ok and ore.casimir_operator("time_deformed", TIME, which).is_zero()
    # the two operator-valued multipliers quoted in the contract
    lam = ore.symmetry_multipliers("time_deformed", TIME)
    tau = ParamPoly.var("tau", laurent=frozenset((0, 1)))
    nu = ParamPoly.var("nu", laurent=frozenset((0, 1)))
    mu = ParamPoly.var("mu", laurent=frozenset((0, 1)))
    expected_c1 = (ore.atom("t") + ore.OreElement.from_coeff(tau)
                   + (ore.atom("x") * ore.atom("dx")).scale(tau)).scale(4 * nu)
    ok = ok and lam["C1"] == expected_c1
    lam = ore.symmetry_multipliers("space_twisted", SPACE)
    expected_c2 = (ore.atom("x") * ore.atom("Tx", -1)).scale(-4 * mu)
    ok = ok and lam["C2"] == expected_c2
    _verdict(5, "five realizations: brackets, vanishing Casimirs, multipliers", ok)


def test_criterion_06_lattice_solution_transport():
    report = ore.transport_report(TIME)
    ok = report.passed
    ok = ok and len(ore.lattice_solutions(TIME)) == 10
    _verdict(6, "seed and 10 transported lattice solutions annihilated", ok)


def test_criterion_07_twist_maps():
    ok = True
    for config in DEFORMED:
        ok = ok and twist.twist_report(config).passed
    _verdict(7, "twists restore classical brackets; coproducts verbatim; invertible", ok)


def test_criterion_08_duality():
    report = structure.duality_report(6, "sym", "sym")
    ok = report.passed
    _verdict(8, "table duality, involution, self-dual cells", ok)


def test_criterion_09_classification_tables():
    ok = True
    for family, expected in (("time", EXPECTED_TIME_GRID),
                             ("space", EXPECTED_SPACE_GRID)):
        rows = structure.classification_rows(family)
        ok = ok and len(rows) == 9
        for row in rows:
            name, triple, weyl, equation = expected[(row.mu_sign, row.nu_sign)]
            ok = (ok and row.algebra_name == name
                  and row.triple_subalgebra == triple
                  and row.weyl_label == weyl
                  and row.equation.render() == equation)
    _verdict(9, "both 9-cell grids match cell for cell", ok)


def test_criterion_10_classical_limits():
    classical = ore.realization("classical", CLASSICAL)
    ok = all(ore.classical_limit(ore.realization("time_deformed", TIME)[g])
             == classical[g] for g in GENERATORS)
    ok = ok and all(ore.classical_limit(ore.realization("space_deformed", SPACE)[g])
                    == classical[g] for g in GENERATORS)
    _verdict(10, "vanishing lattice constants reproduce the vector fields", ok)


def test_criterion_11_fault_detection():
    caught = []

    # (a) bracket-table mutation: [K, P] += tau*H^2 breaks associativity.
    table = commutator_table(TIME)
    alg = algebra(TIME)
    table[("P", "K")] = table[("P", "K")] - alg.mul(alg.gen("H"), alg.gen("H")) \
        .scale(ParamPoly.var("tau"))
    caught.append(not diamond_check(TIME, table=table).passed)

    # (b) coproduct mutation: dropping the long tail of coproduct(C2) breaks
    # the homomorphism on the (H, C2) pair.
    mutated = (tensor_of(alg.one(), alg.gen("C2"))
               + tensor_of(alg.gen("C2"), alg.exp(-1))
               + tensor_of(alg.gen("D"), alg.mul(alg.exp(-1), alg.gen("K")))
               .scale(2 * ParamPoly.var("tau")))
    report = Hopf(TIME, {"C2": mutated}).homomorphism_report()
    caught.append(not report.passed
                  and any(r.name == "hom[H,C2]" and not r.passed for r in report.records))

    # (c) R-matrix mutation: one entry off by tau fails the Yang-Baxter check.
    r = matrixrep.build_R(TIME)
    rows = [list(row) for row in r.entries]
    rows[0][1] = rows[0][1] + ParamPoly.var("tau")
    bad = matrixrep.PolyMatrix(rows)
    caught.append(not matrixrep.qybe_check(bad).passed)

    # (d) realization mutation: dropping the parameter-linear correction from
    # the first conformal operator breaks a bracket.
    from jordconf.uea import commutator_entries
    images = ore.realization("time_deformed", TIME)
    tau_nu = ParamPoly.var("tau", laurent=frozenset((0, 1))) \
        * ParamPoly.var("nu", laurent=frozenset((0, 1)))
    images["C1"] = images["C1"] - (ore.atom("x") * ore.atom("dx")
                                   + ore.atom("x") * ore.atom("x")
                                   * ore.atom("dx") * ore.atom("dx")).scale(tau_nu)
    ctx = ore.OreContext(TIME, images)
    residuals = [images[x].commutator(images[y]) - build(ctx)
                 for (x, y), build in commutator_entries("time")]
    caught.append(any(not res.is_zero() for res in residuals))

    # (e) duality mutation: a wrong sign on the conformal generator exchange
    # no longer maps the time table onto the space table.
    talg = algebra(TIME)
    stab = commutator_table(SPACE)
    from jordconf.uea import dual_image, DUAL_GEN, generator_pairs
    mismatch = False
    for xs, ys in generator_pairs():
        # [x, y] in either order; its image is keyed by the ordered dual pair.
        img = dual_image(talg.bracket(DUAL_GEN[xs], DUAL_GEN[ys]))
        sign = 1  # deliberately wrong: drops the minus signs of C1 <-> C2
        if not (img.scale(Fraction(sign)) - stab[(xs, ys)]).is_zero():
            mismatch = True
    caught.append(mismatch)

    ok = all(caught) and len(caught) == 5
    _verdict(11, "five documented single-term mutations all caught", ok)
