import random

import pytest

from cosetmap import (AffineMap, MatrixQ, Poly, VectorQ,
                      affine_cycle_type, block_cycle_type,
                      companion, ct, enumerate_irreducibles, field,
                      field_of_order, gamma_dpl, gamma_of_matrix,
                      gamma_of_poly)
from helpers import (block_case, brute_affine_cycle_counts, quotient_affine_cycle_counts,
                     random_invertible, shift_class_representatives)


def test_block_cycle_type_paper_values():
    F3 = field(3)
    xm1 = Poly(F3, (-1, 1)).monic()
    assert block_cycle_type(xm1, 2, unit=False) == ct("x1^3 x3^2")
    assert block_cycle_type(xm1, 3, unit=True) == ct("x9^3")
    Q2 = Poly(F3, (2, 1, 1))
    assert block_cycle_type(Q2, 1) == ct("x1 x8")


def test_block_case_validation():
    """`block_cycle_type` refuses e = 0, Q = X and a unit shift on any block
    but X-1, which takes either kind of shift for every e."""
    F3 = field(3)
    xm1 = Poly(F3, (-1, 1)).monic()
    Q2 = Poly(F3, (2, 1, 1))
    with pytest.raises(ValueError, match="block exponent must be >= 1"):
        block_cycle_type(xm1, 0)
    with pytest.raises(ValueError, match="block polynomial must not be X"):
        block_cycle_type(Poly.x(F3), 1)
    for Q in (Q2, Poly(F3, (1, 1))):  # X+1 is not X-1 over GF(3)
        with pytest.raises(ValueError, match="a unit shift does not fit"):
            block_cycle_type(Q, 1, unit=True)
    for e in (1, 2, 3):
        for unit in (False, True):
            assert block_cycle_type(xm1, e, unit).degree == 3 ** e


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_block_cycle_type_against_orbit_walk(q):
    # module-level sweep, smaller than the acceptance criterion bound
    ctx = field_of_order(q)
    bound = 3000
    for Q in enumerate_irreducibles(ctx, 2):
        if Q.coeff(0).is_zero():
            continue
        e = 1
        while q ** (e * int(Q.degree)) <= bound:
            for label, U in shift_class_representatives(Q, e):
                counts = quotient_affine_cycle_counts(Q, e, U)
                got = block_cycle_type(*block_case(Q, e, U))
                assert dict(got.cycles) == counts, (Q, e, label)
                assert got.degree == q ** (e * int(Q.degree))
            e += 1


def test_affine_cycle_type_identity_and_example():
    F3 = field(3)
    I2 = MatrixQ.identity(F3, 2)
    assert affine_cycle_type(AffineMap(I2, VectorQ(F3, (0, 0)))) == ct("x1^9")
    xm1 = Poly(F3, (-1, 1))
    Q2 = Poly(F3, (2, 1, 1))
    A = MatrixQ.block_diag([companion(xm1 ** 2), companion(xm1 ** 3), companion(Q2)])
    # both X-1 shift segments nonunit (zero), third block anything
    v = VectorQ(F3, (0,) * 7)
    assert affine_cycle_type(AffineMap(A, v)) == ct("x1^9 x3^78 x8^9 x24^78")
    with pytest.raises(ValueError):
        affine_cycle_type(AffineMap(MatrixQ.zeros(F3, 2, 2), VectorQ(F3, (0, 0))))


@pytest.mark.parametrize("p,d", [(2, 3), (3, 2), (5, 2), (2, 4)])
def test_affine_cycle_type_against_orbit_walk(p, d):
    ctx = field(p)
    rng = random.Random(p * 100 + d)
    for _ in range(15):
        M = random_invertible(ctx, d, rng)
        w = VectorQ(ctx, [rng.randrange(p) for _ in range(d)])
        counts = brute_affine_cycle_counts(M, w)
        assert dict(affine_cycle_type(AffineMap(M, w)).cycles) == counts


def test_gamma_of_matrix_examples():
    F3 = field(3)
    xm1 = Poly(F3, (-1, 1))
    assert gamma_of_poly(xm1 ** 2) == frozenset({ct("x1^3 x3^2"), ct("x3^3")})
    assert gamma_of_matrix(MatrixQ.identity(F3, 1)) == frozenset({ct("x1^3"), ct("x3")})
    assert gamma_of_poly(Poly(F3, (2, 1, 1))) == frozenset({ct("x1 x8")})
    with pytest.raises(ValueError):
        gamma_of_poly(Poly.x(F3))


def test_gamma_of_matrix_exhausts_all_shifts():
    # structural gamma equals {CT(lambda(M, v)) : all v} by brute force
    rng = random.Random(17)
    for p, d in [(2, 3), (3, 2)]:
        ctx = field(p)
        for _ in range(6):
            M = random_invertible(ctx, d, rng)
            brute = set()
            import itertools
            for widx in itertools.product(range(p), repeat=d):
                counts = brute_affine_cycle_counts(M, VectorQ(ctx, widx))
                from cosetmap import CycleType
                brute.add(CycleType(counts))
            assert gamma_of_matrix(M) == frozenset(brute)


def test_gamma_invariant_under_conjugation():
    F2 = field(2)
    rng = random.Random(3)
    for _ in range(10):
        M = random_invertible(F2, 3, rng)
        S = random_invertible(F2, 3, rng)
        assert gamma_of_matrix(M) == gamma_of_matrix(S * M * S.inverse())


def test_gamma_dpl_special_rows():
    assert gamma_dpl(1, 2, 2) == frozenset()
    assert gamma_dpl(1, 2, 5) == frozenset()
    assert gamma_dpl(2, 2, 2) == frozenset({ct("x1^4"), ct("x2^2"), ct("x1 x3")})
    assert gamma_dpl(1, 3, 2) == frozenset({ct("x1^3"), ct("x3")})
    assert gamma_dpl(1, 3, 1) == frozenset({ct("x1^3"), ct("x3")})
    assert gamma_dpl(1, 2, 1) == frozenset()


def test_gamma_dpl_vs_exhaustive_affine_groups():
    # l = 1: union over complete invertible matrices; l >= 2 generic: over all
    from cosetmap import is_cgl
    from helpers import all_invertible_matrices
    import itertools
    from cosetmap import CycleType
    for d, p in [(1, 3), (1, 5), (2, 2), (2, 3)]:
        ctx = field(p)
        acgl = set()
        agl = set()
        for M in all_invertible_matrices(ctx, d):
            for widx in itertools.product(range(p), repeat=d):
                t = CycleType(brute_affine_cycle_counts(M, VectorQ(ctx, widx)))
                agl.add(t)
                if is_cgl(M):
                    acgl.add(t)
        assert gamma_dpl(d, p, 1) == frozenset(acgl)
        expected_l2 = gamma_dpl(d, p, 2)
        if (d, p) not in ((1, 2), (1, 3), (2, 2)):
            assert expected_l2 == frozenset(agl)


def test_gamma_dpl_exceptional_sets_match_member_scan():
    # for ell >= 2 the exceptional sets are the orbit-walked types of
    # x -> x*M + w over the members M of the product set and every shift w
    import itertools
    from cosetmap import CycleType
    from cosetmap.affine_ct import product_members
    for d, p in [(1, 2), (1, 3), (2, 2)]:
        ctx = field(p)
        members = product_members(d, p)
        walked = {CycleType(brute_affine_cycle_counts(M, VectorQ(ctx, w)))
                  for M in members for w in itertools.product(range(p), repeat=d)}
        for ell in (2, 3):
            assert gamma_dpl(d, p, ell) == frozenset(walked)


def test_block_sum_rule():
    for q in (2, 3, 5):
        ctx = field_of_order(q)
        for Q in enumerate_irreducibles(ctx, 2):
            if Q.coeff(0).is_zero():
                continue
            for e in (1, 2, 3):
                for _, U in shift_class_representatives(Q, e):
                    t = block_cycle_type(*block_case(Q, e, U))
                    assert t.degree == q ** (e * int(Q.degree))


def test_weixu_glue_matches_brute_force_on_block_diagonal():
    # CT(lambda(A, v)) with A block diagonal equals the star product of the
    # per-block affine types
    F3 = field(3)
    xm1 = Poly(F3, (-1, 1))
    Q2 = Poly(F3, (2, 1, 1))
    A = MatrixQ.block_diag([companion(xm1 ** 2), companion(Q2)])
    rng = random.Random(23)
    for _ in range(5):
        v = VectorQ(F3, [rng.randrange(3) for _ in range(4)])
        from cosetmap import CycleType
        brute = CycleType(brute_affine_cycle_counts(A, v))
        assert affine_cycle_type(AffineMap(A, v)) == brute
