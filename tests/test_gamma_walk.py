"""The walk over conjugacy classes of GL_d(q) behind gamma sets and
realization: its order against the reference recursion, its size against the
class-number series, its depth, the gamma sets against a DP that does not
walk classes at all, and its first-witness index against the scan that
realization used before the index existed."""

import sys
import traceback

import pytest

from cosetmap import Poly, field, gamma_dpl
from cosetmap.affine_ct import (_gamma_walk, block_multisets, ct_acgl, ct_agl, first_witness,
                                sorted_types)
from helpers import (gl_class_numbers, reachable_affine_types, recursive_block_multisets,
                     scan_witness)

WALK_GRID = [(p, d) for p, dmax in ((2, 8), (3, 6), (5, 4), (7, 3)) for d in range(1, dmax + 1)]


@pytest.mark.parametrize("p,d", WALK_GRID)
def test_walk_order_matches_reference_recursion(p, d):
    ctx = field(p)
    for exclude in ((), (Poly(ctx, (1, 1)),)):
        assert (list(block_multisets(ctx, d, exclude=exclude))
                == list(recursive_block_multisets(ctx, d, exclude=exclude)))


def test_class_number_series():
    assert gl_class_numbers(2, 4) == [1, 1, 3, 6, 14]  # GL_3(2), of order 168, has 6 classes
    assert gl_class_numbers(3, 8)[8] == 6528
    assert gl_class_numbers(5, 6)[6] == 15600
    assert gl_class_numbers(2, 10)[10] == 1002


@pytest.mark.parametrize("q,d", [(8, 2), (9, 2), (4, 3), (3, 5), (2, 7)])
def test_walk_counts_small_classes(q, d):
    from cosetmap import field_of_order
    assert sum(1 for _ in block_multisets(field_of_order(q), d)) == gl_class_numbers(q, d)[d]


@pytest.mark.parametrize("q,d,classes", [(3, 8, 6528), (5, 6, 15600), (2, 10, 1002)])
def test_walk_counts_and_depth(q, d, classes):
    """One multiset per conjugacy class, with a recursion depth bounded by d:
    the walk still finishes when the interpreter allows only 10 frames per
    dimension above the caller."""
    ctx = field(q)
    assert gl_class_numbers(q, d)[d] == classes
    walk = block_multisets(ctx, d)
    first = next(walk)  # builds the irreducible list outside the limit
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 10 * d)
    try:
        count = 1 + sum(1 for _ in walk)
    finally:
        sys.setrecursionlimit(old)
    assert count == classes
    assert sum(e * int(Q.degree) for Q, e in first) == d


@pytest.mark.parametrize("d,p", [(1, 3), (1, 5), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2),
                                 (4, 5), (5, 3), (6, 2)])
def test_gamma_sets_match_reachability_dp(d, p):
    ctx = field(p)
    assert ct_agl(d, p) == frozenset(reachable_affine_types(ctx, d))
    assert ct_acgl(d, p) == frozenset(reachable_affine_types(ctx, d, exclude=(Poly(ctx, (1, 1)),)))


def test_gamma_sets_dimension_8_over_gf3():
    """gamma_dpl(8, 3, 1) used to exceed the default recursion limit."""
    ctx = field(3)
    acgl = gamma_dpl(8, 3, 1)
    assert len(acgl) == 458
    assert {t.degree for t in acgl} == {3 ** 8}
    assert acgl == frozenset(reachable_affine_types(ctx, 8, exclude=(Poly(ctx, (1, 1)),)))
    agl = ct_agl(8, 3)
    assert len(agl) == 1230
    assert agl == frozenset(reachable_affine_types(ctx, 8))


@pytest.mark.parametrize("d,p", [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3),
                                 (4, 2), (4, 3)])
def test_witness_index_matches_scan(d, p):
    """The acgl walk, which leaves out the block X+1, finds the same first
    witness as the full walk filtered by `is_cgl`; types it cannot reach have
    no witness either way."""
    assert frozenset(_gamma_walk("agl", d, p)[1]) == ct_agl(d, p)
    assert frozenset(_gamma_walk("acgl", d, p)[1]) == ct_acgl(d, p)
    for gamma in sorted_types(ct_agl(d, p)):
        for complete in (False, True):
            witness = first_witness(gamma, d, p, complete)
            assert witness == scan_witness(gamma, d, p, complete)
            assert (witness is not None) == (gamma in (ct_acgl(d, p) if complete else ct_agl(d, p)))


def test_witness_index_dimension_8_over_gf3():
    assert len(_gamma_walk("acgl", 8, 3)[1]) == 458
    assert len(_gamma_walk("agl", 8, 3)[1]) == 1230


def test_gamma_sets_refuse_dimension_0():
    for fn in (ct_agl, ct_acgl):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            fn(0, 3)
