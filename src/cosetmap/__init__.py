"""Exact toolkit for cycle types of affine permutations of finite vector
spaces and for coset-wise affine complete mappings of finite fields.

Public names and submodules are imported on first access (PEP 562), so a
process loads only the modules it uses."""

import importlib

_EXPORTS = {
    "affine_ct": "affine_cycle_type block_cycle_type gamma_dpl gamma_of_matrix gamma_of_poly "
                 "sorted_types",
    "cgl": "CglFactorization factor_into_cgl is_cgl realize_gamma two_fpf_product",
    "cwaffine": "CosetWiseAffineMap Splitting conjugated_table construct_main "
                "construct_sylow_type cw_compose cw_cycle_type cw_is_complete cw_is_permutation "
                "cw_to_table one_cycle_map one_cycle_polynomial",
    "cycletype": "CycleType ct ct_format ct_of_permutation ct_parse weixu weixu_all",
    "errors": "InfeasibleError",
    "gf": "FieldCtx FieldElement Poly enumerate_irreducibles factor_monic field is_irreducible "
          "poly_order",
    "kernel": "",
    "linalg": "AffineMap MatrixQ Prcf VectorQ charpoly companion elementary_divisors prcf",
    "oracle": "AnalysisReport MapTable analyze evaluate_poly_table interpolate load_table",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
