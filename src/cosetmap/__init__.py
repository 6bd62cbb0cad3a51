"""Exact toolkit for cycle types of affine permutations of finite vector
spaces and for coset-wise affine complete mappings of finite fields."""

from .affine_ct import (affine_cycle_type, block_cycle_type, gamma_dpl, gamma_of_matrix,
                        gamma_of_poly, sorted_types)
from .cgl import CglFactorization, factor_into_cgl, is_cgl, realize_gamma, two_fpf_product
from .cwaffine import (CosetWiseAffineMap, Splitting, WreathElement, conjugated_table,
                       construct_main, construct_sylow_type, cw_compose, cw_cycle_type,
                       cw_is_complete, cw_is_permutation, cw_to_table, cw_to_wreath,
                       one_cycle_map, one_cycle_polynomial, wreath_mul, wreath_to_cw)
from .cycletype import (CycleType, blow_up, ct, ct_format, ct_mul,
                        ct_of_permutation, ct_parse, weixu, weixu_all)
from .errors import InfeasibleError
from .gf import (FieldCtx, FieldElement, Poly, enumerate_irreducibles,
                 factor_monic, field, field_of_order, is_irreducible, poly_order)
from .linalg import (AffineMap, MatrixQ, Prcf, VectorQ, charpoly, companion,
                     elementary_divisors, prcf)
from .oracle import (AnalysisReport, MapTable, analyze, evaluate_poly_table,
                     interpolate, load_table)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
