"""Gamma sets and the walk over conjugacy classes of GL_d(q) behind
realization: the walk's order against the reference recursion, its size
against the class-number series and its depth; the gamma sets from block
signatures against a DP over polynomials, against the fully walked sets and
against the closed form in dimension 1; the lazily walked first witnesses
against the scan that realization used before the witness index existed, and
the refusal of a type outside the set with no walking at all; the walk and
the field contexts shared across threads."""

import sys
import traceback

import pytest

from cosetmap import CycleType, InfeasibleError, Poly, field, gamma_dpl, realize_gamma
from cosetmap import affine_ct, gf
from cosetmap.affine_ct import (block_multisets, ct_acgl, ct_agl, first_witness,
                                shift_class_types, sorted_types, witness_map)
from cosetmap.kernel import is_prime
from helpers import (gl_class_numbers, per_class_walk, reachable_affine_types,
                     recursive_block_multisets, scan_witness)

WALK_GRID = [(p, d) for p, dmax in ((2, 8), (3, 6), (5, 4), (7, 3)) for d in range(1, dmax + 1)]


@pytest.mark.parametrize("p,d", WALK_GRID)
def test_walk_order_matches_reference_recursion(p, d):
    ctx = field(p)
    for complete, exclude in ((False, ()), (True, (Poly(ctx, (1, 1)),))):
        assert (list(block_multisets(ctx, d, complete))
                == list(recursive_block_multisets(ctx, d, exclude=exclude)))


@pytest.mark.parametrize("p,d", [(p, d) for p, dmax in ((2, 6), (3, 5), (5, 3), (7, 3))
                                 for d in range(1, dmax + 1)])
def test_class_walk_keeps_the_per_class_sequence(p, d):
    """Types kept per block signature give the same (type, blocks, units)
    sequence as working them out on every class, complete or not."""
    for complete in (False, True):
        assert list(affine_ct._class_walk(complete, d, p)) == list(per_class_walk(complete, d, p))


def test_class_number_series():
    assert gl_class_numbers(2, 4) == [1, 1, 3, 6, 14]  # GL_3(2), of order 168, has 6 classes
    assert gl_class_numbers(3, 8)[8] == 6528
    assert gl_class_numbers(5, 6)[6] == 15600
    assert gl_class_numbers(2, 10)[10] == 1002


@pytest.mark.parametrize("q,d", [(8, 2), (9, 2), (4, 3), (3, 5), (2, 7)])
def test_walk_counts_small_classes(q, d):
    from cosetmap.kernel import prime_power
    assert sum(1 for _ in block_multisets(field(*prime_power(q)), d)) == gl_class_numbers(q, d)[d]


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


@pytest.mark.parametrize("d,p", [(d, p) for p, d in WALK_GRID + [(3, 7), (3, 8), (5, 6)]])
def test_gamma_sets_match_reachability_dp(d, p):
    """The sets from block signatures equal the DP over every irreducible
    polynomial and the types met by walking every class, in both kinds."""
    ctx = field(p)
    for gamma_set, complete, exclude in ((ct_agl, False, ()),
                                         (ct_acgl, True, (Poly(ctx, (1, 1)),))):
        walked = frozenset(t for blocks in block_multisets(ctx, d, complete)
                           for _, t in shift_class_types(blocks))
        assert gamma_set(d, p) == frozenset(reachable_affine_types(ctx, d, exclude=exclude))
        assert gamma_set(d, p) == walked


def test_gamma_sets_dimension_8_over_gf3():
    """gamma_dpl(8, 3, 1) used to exceed the default recursion limit."""
    acgl = gamma_dpl(8, 3, 1)
    assert len(acgl) == 458
    assert {t.degree for t in acgl} == {3 ** 8}
    assert len(ct_agl(8, 3)) == 1230


def test_dimension_1_closed_form():
    """x -> a*x + b over GF(p) with a != -1: a = 1 gives the identity or one
    p-cycle, and a of order r > 2 a fixed point and (p - 1)/r r-cycles.  In
    characteristic 2, a = 1 = -1 leaves nothing."""
    assert ct_acgl(1, 2) == frozenset()
    for p in range(3, 200):
        if not is_prime(p):
            continue
        orders = [r for r in range(3, p) if (p - 1) % r == 0]
        expected = {CycleType({1: p}), CycleType({p: 1})}
        expected |= {CycleType({1: 1, r: (p - 1) // r}) for r in orders}
        assert ct_acgl(1, p) == frozenset(expected)
        assert len(ct_acgl(1, p)) == 2 + len(orders)


@pytest.mark.parametrize("d,p", [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3),
                                 (4, 2), (4, 3)])
def test_witness_index_matches_scan(d, p):
    """The acgl walk, which leaves out the block X+1, finds the same first
    witness as the full walk filtered by `is_cgl`; types it cannot reach have
    no witness either way."""
    for gamma in sorted_types(ct_agl(d, p)):
        for complete in (False, True):
            witness = first_witness(gamma, d, p, complete)
            assert witness == scan_witness(gamma, d, p, complete)
            assert (witness is not None) == (gamma in (ct_acgl(d, p) if complete else ct_agl(d, p)))


def test_witness_index_dimension_8_over_gf3():
    for kind_set, complete, size in ((ct_acgl, True, 458), (ct_agl, False, 1230)):
        types = kind_set(8, 3)
        assert len(types) == size
        assert all(first_witness(t, 8, 3, complete) is not None for t in types)


def test_non_member_is_refused_without_walking(monkeypatch):
    """A type outside the gamma set has no witness and is refused by
    `realize_gamma` from the set alone: no class is enumerated."""
    def no_walk(*args, **kwargs):
        raise AssertionError("the class walk ran")
        yield  # pragma: no cover

    gf.clear_memos()
    monkeypatch.setattr(affine_ct, "block_multisets", no_walk)
    outside_acgl = min(ct_agl(8, 3) - ct_acgl(8, 3), key=lambda t: t.cycles)
    outside_agl = CycleType({3 ** 8: 1})
    assert outside_agl not in ct_agl(8, 3)
    assert first_witness(outside_acgl, 8, 3, complete=True) is None
    assert witness_map(outside_acgl, 8, 3, complete=True) is None
    for complete in (False, True):
        assert first_witness(outside_agl, 8, 3, complete) is None
    with pytest.raises(InfeasibleError):
        realize_gamma(outside_acgl, 8, 3, 1)
    for ell in (1, 2):
        with pytest.raises(InfeasibleError):
            realize_gamma(outside_agl, 8, 3, ell)
    with pytest.raises(InfeasibleError):
        realize_gamma(outside_agl, 8, 3, 1, require_complete=False)
    # a member does walk
    with pytest.raises(AssertionError, match="the class walk ran"):
        first_witness(next(iter(ct_acgl(8, 3))), 8, 3, complete=True)


def test_a_walk_cut_by_an_error_starts_afresh(monkeypatch):
    """An error inside the walk ends its generator; the next request walks
    again from the first class rather than finding the walk spent."""
    gf.clear_memos()
    gamma = sorted_types(ct_agl(3, 3))[-1]
    real = affine_ct.shift_class_types

    def cut(*args):
        raise RuntimeError("walk cut")
        yield  # pragma: no cover

    monkeypatch.setattr(affine_ct, "shift_class_types", cut)
    with pytest.raises(RuntimeError, match="walk cut"):
        first_witness(gamma, 3, 3)
    monkeypatch.setattr(affine_ct, "shift_class_types", real)
    for t in sorted_types(ct_agl(3, 3)):
        assert first_witness(t, 3, 3) == scan_witness(t, 3, 3, False)


def test_gamma_sets_refuse_dimension_0():
    for fn in (ct_agl, ct_acgl):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            fn(0, 3)


def test_gamma_sets_refuse_a_composite_p():
    for fn in (ct_agl, ct_acgl):
        with pytest.raises(ValueError, match="4 is not prime"):
            fn(2, 4)


def _in_threads(fn, n=4):
    """fn() in n threads at once: (their results, the exceptions raised)."""
    import threading
    results, errors = [None] * n, []

    def work(i):
        try:
            results[i] = fn()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
        assert not thread.is_alive()
    return results, errors


def test_shared_caches_are_safe_across_threads(monkeypatch):
    """With a thread switch forced every microsecond: four threads asking a
    fresh walk for every type of ct_agl(6, 3) get the same witnesses and never
    a "generator already executing" error, and four threads interning GF(7^5)
    in an empty context cache get one context."""
    from cosetmap import gf
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(affine_ct, "_GAMMA_CACHE", {})
            types = sorted_types(ct_agl(6, 3))
            results, errors = _in_threads(lambda: [first_witness(t, 6, 3) for t in types])
            assert errors == [] and all(r == results[0] for r in results)
        for _ in range(20):
            monkeypatch.setattr(gf, "_CTX_CACHE", {})
            results, errors = _in_threads(lambda: field(7, 5))
            assert errors == [] and len({id(ctx) for ctx in results}) == 1
    finally:
        sys.setswitchinterval(interval)
