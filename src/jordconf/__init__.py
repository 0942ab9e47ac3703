"""Exact symbolic verification of the lattice deformations of the plane
conformal algebras: normal ordering, Hopf axioms, Yang-Baxter equations,
difference-operator realizations, twist maps, and the family duality."""

from .poly import ParamPoly
from .uea import (DEFAULT_ORDER, GENERATORS, FamilyConfig, PbwElement,
                  casimir, centrality_check, commutator_table, diamond_check,
                  dual_image)
from .hopf import (TensorElement, check_coassociativity, check_homomorphism,
                   cocommutator_from_r, coproduct, counit_and_antipode, schouten_cybe,
                   universal_R_conjugation)
from .matrixrep import PolyMatrix, build_R, fundamental_rep, matrix_exp_nilpotent, qybe_check
from .ore import (OreElement, apply_operator, casimir_operator,
                  check_realization_homomorphism, classical_limit, dual_ore, realization,
                  symmetry_check)
from .twist import twist_realization
from .structure import (classify, dual_commutator_table, dual_coproduct_table,
                        dual_tensor, verify_hopf_subalgebras)

__version__ = "0.1.0"
