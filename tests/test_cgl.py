import random

import pytest

from cosetmap import (AffineMap, CglFactorization, InfeasibleError, MatrixQ,
                      VectorQ, affine_cycle_type, ct,
                      factor_into_cgl, field, gamma_dpl, gamma_of_matrix, is_cgl,
                      realize_gamma, two_fpf_product)
from cosetmap.affine_ct import product_members
from helpers import all_invertible_matrices, explicit_member_realization, random_invertible


def test_is_cgl_examples():
    F5 = field(5)
    assert is_cgl(MatrixQ(F5, ((3,),)))
    F2 = field(2)
    assert not is_cgl(MatrixQ.identity(F2, 2))  # -1 = 1 in char 2
    assert is_cgl(MatrixQ(F2, ((0, 1), (1, 1))))


def test_code_row_completeness_matches_determinants():
    """is_cgl and has_no_eigenvalue(1) against det(M) != 0 and det(M +- I) != 0, asked twice
    so that the second answer reads the matrix's stored characteristic
    polynomial."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]),
                      st.integers(1, 4), st.sampled_from(("any", "singular", "I", "-I")),
                      st.data())
    def check(pk, d, kind, data):
        ctx = field(*pk)
        I = MatrixQ.identity(ctx, d)
        codes = st.lists(st.integers(0, ctx.order - 1), min_size=d, max_size=d)
        rows = data.draw(st.lists(codes, min_size=d, max_size=d))
        if kind == "singular":
            rows[-1] = rows[0] if d > 1 else [0]
        M = {"I": I, "-I": -I}.get(kind) or MatrixQ.from_codes(ctx, rows)
        invertible = not M.det().is_zero()
        for _ in range(2):
            assert is_cgl(M) == (invertible and not (M + I).det().is_zero())
            assert M.has_no_eigenvalue(1) == (invertible and not (M - I).det().is_zero())

    check()


def test_cached_facts_stay_out_of_equality():
    from cosetmap.linalg import _without_eigenvalue
    F3 = field(3)
    rows = ((1, 2), (0, 1))
    cached, fresh = MatrixQ(F3, rows), MatrixQ(F3, rows)
    assert cached.rank() == 2 and is_cgl(cached) and not cached.has_no_eigenvalue(1)
    sampled = _without_eigenvalue(F3, rows, F3.code(-1))
    for M in (fresh, sampled):
        assert M == cached and hash(M) == hash(cached)
    assert {cached: "x"}[fresh] == "x"
    assert _without_eigenvalue(F3, rows, F3.code(1)) is None


def test_product_members_rows():
    members = product_members(2, 2)
    assert [M.int_rows() for M in members] == [
        ((1, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 0))]
    assert product_members(1, 2) == ()
    assert product_members(3, 2) is None and product_members(2, 3) is None
    assert [M.int_rows() for M in product_members(1, 3)] == [((1,),)]
    assert product_members(2, 2) is members  # built once


def _exhaustive_product_set(ctx, d):
    cgl = [M for M in all_invertible_matrices(ctx, d) if is_cgl(M)]
    out = set()
    for A in cgl:
        for B in cgl:
            out.add(A * B)
    return out, cgl


@pytest.mark.parametrize("d,q", [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3)])
def test_product_set_small(d, q):
    from cosetmap import field_of_order
    ctx = field_of_order(q)
    got, _ = _exhaustive_product_set(ctx, d)
    members = product_members(d, q)
    if members is None:
        assert got == set(all_invertible_matrices(ctx, d))
    else:
        assert got == set(members)


def test_factor_into_cgl_examples():
    F5 = field(5)
    fac = factor_into_cgl(MatrixQ(F5, ((3,),)), 2, seed=0)
    assert len(fac.factors) == 2
    F2 = field(2)
    fac = factor_into_cgl(MatrixQ.identity(F2, 2), 2, seed=0)
    assert [F.int_rows() for F in fac.factors] == [((0, 1), (1, 1)), ((1, 1), (1, 0))]
    F3 = field(3)
    M = MatrixQ(F3, ((1,),))
    fac = factor_into_cgl(M, 1, seed=0)
    assert fac.factors == (M,)
    with pytest.raises(InfeasibleError):
        factor_into_cgl(MatrixQ(F3, ((2,),)), 2, seed=0)  # (1,3): only identity
    with pytest.raises(InfeasibleError):
        factor_into_cgl(MatrixQ.identity(F2, 1), 3, seed=0)  # (1,2) infeasible
    with pytest.raises(InfeasibleError):
        factor_into_cgl(MatrixQ(F3, ((2,),)), 1, seed=0)  # 2 = -1 not complete


def test_factorization_validates():
    F2 = field(2)
    A = MatrixQ(F2, ((0, 1), (1, 1)))
    with pytest.raises(ValueError):
        CglFactorization((A,), MatrixQ.identity(F2, 2))  # wrong product
    with pytest.raises(ValueError):
        CglFactorization((MatrixQ.identity(F2, 2),), MatrixQ.identity(F2, 2))


def test_factorization_checks_a_lone_factor_among_identities():
    """Each distinct factor is tested once and identities are left out of the
    product, so the one bad factor among repeated identities, and a product
    that differs from the factors' only in its one non-identity factor, are
    both still refused, in any position."""
    F3 = field(3)
    I = MatrixQ.identity(F3, 2)
    F = MatrixQ(F3, ((0, 1), (1, 1)))  # chi = X^2 - X - 1 has no root -1
    minus = MatrixQ(F3, ((2, 0), (0, 1)))  # eigenvalue -1
    assert is_cgl(I) and is_cgl(F) and not is_cgl(minus)
    for j in range(6):
        ids = [I] * 5
        assert CglFactorization(tuple(ids[:j] + [F] + ids[j:]), F).product == F
        with pytest.raises(ValueError, match="not a complete"):
            CglFactorization(tuple(ids[:j] + [minus] + ids[j:]), minus)
        with pytest.raises(ValueError, match="do not multiply"):
            CglFactorization(tuple(ids[:j] + [F] + ids[j:]), F * F)
    with pytest.raises(ValueError, match="do not multiply"):
        CglFactorization((I,) * 4, F)
    assert CglFactorization((F, I, F, I, F), F ** 3).factors == (F, I, F, I, F)


@pytest.mark.parametrize("d,p,ell", [(2, 3, 2), (2, 3, 3), (3, 2, 2), (3, 2, 4),
                                     (3, 2, 5), (1, 5, 7), (2, 5, 3), (2, 2, 6)])
def test_factor_into_cgl_random(d, p, ell):
    ctx = field(p)
    rng = random.Random(d * 100 + p * 10 + ell)
    for trial in range(10):
        if (d, p) == (2, 2):
            members = product_members(2, 2)
            M = members[rng.randrange(3)]
        else:
            M = random_invertible(ctx, d, rng)
        fac = factor_into_cgl(M, ell, seed=trial)
        assert len(fac.factors) == ell
        assert all(is_cgl(F) for F in fac.factors)
        prod = MatrixQ.identity(ctx, d)
        for F in fac.factors:
            prod = prod * F
        assert prod == M


def test_factor_determinism():
    F2 = field(2)
    rng = random.Random(4)
    M = random_invertible(F2, 3, rng)
    a = factor_into_cgl(M, 3, seed=11)
    b = factor_into_cgl(M, 3, seed=11)
    assert a.factors == b.factors


def test_two_fpf_product():
    F5 = field(5)
    C1, C2 = two_fpf_product(MatrixQ(F5, ((2,),)), seed=0)
    assert C1.has_no_eigenvalue(1) and C2.has_no_eigenvalue(1)
    assert C1 * C2 == MatrixQ(F5, ((2,),))
    F2 = field(2)
    I3 = MatrixQ.identity(F2, 3)
    C1, C2 = two_fpf_product(I3, seed=0)
    assert C1.has_no_eigenvalue(1) and C2.has_no_eigenvalue(1) and C1 * C2 == I3
    rng = random.Random(8)
    for _ in range(10):
        M = random_invertible(F2, 3, rng)
        C1, C2 = two_fpf_product(M, seed=1)
        assert C1.has_no_eigenvalue(1) and C2.has_no_eigenvalue(1) and C1 * C2 == M
    with pytest.raises(InfeasibleError):
        two_fpf_product(MatrixQ(field(3), ((2,),)))


@pytest.mark.parametrize("d,q", [(1, 2), (1, 3), (2, 2), (1, 4), (1, 5), (1, 7),
                                 (1, 8), (1, 9), (2, 3), (3, 2)])
def test_two_fpf_covers_group(d, q):
    # over GF(2)^1, GF(3)^1 and GF(2)^2 the products are the members of the
    # two-fold complete product set, and two_fpf_product refuses the rest
    from cosetmap import field_of_order
    ctx = field_of_order(q)
    fpf = [M for M in all_invertible_matrices(ctx, d) if M.has_no_eigenvalue(1)]
    products = set()
    for A in fpf:
        for B in fpf:
            products.add(A * B)
    members = product_members(d, q)
    if members is None:
        assert products == set(all_invertible_matrices(ctx, d))
        return
    assert products == set(members)
    for M in all_invertible_matrices(ctx, d):
        if M in products:
            C1, C2 = two_fpf_product(M, seed=0)
            assert C1.has_no_eigenvalue(1) and C2.has_no_eigenvalue(1) and C1 * C2 == M
        else:
            with pytest.raises(InfeasibleError):
                two_fpf_product(M, seed=0)


def test_two_fpf_sampled_larger_group():
    # |GL_2(4)| = 3600: sampled rather than exhaustive
    ctx = field(2, 2)
    rng = random.Random(12)
    for seed in range(20):
        M = random_invertible(ctx, 2, rng)
        C1, C2 = two_fpf_product(M, seed=seed)
        assert C1.has_no_eigenvalue(1) and C2.has_no_eigenvalue(1) and C1 * C2 == M


@pytest.mark.parametrize("d,p,ell", [(1, 5, 4), (2, 2, 6), (1, 3, 7)])
def test_padding_strategies_500_seeds(d, p, ell):
    # the ell >= 3 padding always terminates with valid complete factors
    ctx = field(p)
    rng = random.Random(d + p + ell)
    members = product_members(d, p)
    for seed in range(500):
        if members is not None:
            M = members[rng.randrange(len(members))]
        else:
            M = random_invertible(ctx, d, rng)
        fac = factor_into_cgl(M, ell, seed=seed)
        assert len(fac.factors) == ell
        prod = MatrixQ.identity(ctx, d)
        for F in fac.factors:
            assert is_cgl(F)
            prod = prod * F
        assert prod == M


def test_realize_gamma_examples():
    # forced case over GF(3), dimension 1
    factors, w = realize_gamma(ct("x3"), 1, 3, 1, seed=0)
    F3 = field(3)
    assert factors == (MatrixQ(F3, ((1,),)),)
    assert w == VectorQ(F3, (1,))
    # x1 x3 via two factors over GF(2)^2
    factors, w = realize_gamma(ct("x1 x3"), 2, 2, 2, seed=0)
    prod = factors[0] * factors[1]
    assert affine_cycle_type(AffineMap(prod, w)) == ct("x1 x3")
    assert all(is_cgl(F) for F in factors)
    # identity type comes out as the identity map
    factors, w = realize_gamma(ct("x1^5"), 1, 5, 1, seed=0)
    F5 = field(5)
    assert factors == (MatrixQ(F5, ((1,),)),)
    assert w == VectorQ(F5, (0,))
    assert affine_cycle_type(AffineMap(factors[0], w)) == ct("x1^5")
    with pytest.raises(InfeasibleError):
        realize_gamma(ct("x2"), 1, 3, 2, seed=0)  # not in Gamma(1,3,>=2)


@pytest.mark.parametrize("d,p,ell", [(1, 3, 1), (1, 3, 3), (1, 5, 2), (2, 2, 2),
                                     (2, 2, 4), (2, 3, 1), (2, 3, 2)])
def test_realize_gamma_all_targets(d, p, ell, ):
    for gamma in sorted(gamma_dpl(d, p, ell), key=lambda t: t.cycles):
        factors, w = realize_gamma(gamma, d, p, ell, seed=2)
        assert len(factors) == ell
        assert all(is_cgl(F) for F in factors)
        prod = MatrixQ.identity(field(p), d)
        for F in factors:
            prod = prod * F
        assert affine_cycle_type(AffineMap(prod, w)) == gamma


@pytest.mark.parametrize("d,p", [(1, 3), (2, 2)])
def test_realize_gamma_on_explicit_product_sets_matches_member_scan(d, p):
    # the witness index serves these ell-fold product sets with the member
    # and shift the scan over the explicit list finds, beyond the digest's ell
    for ell in range(2, 7):
        for gamma in sorted(gamma_dpl(d, p, ell), key=lambda t: t.cycles):
            for seed in (0, 1, 9):
                assert (realize_gamma(gamma, d, p, ell, seed=seed)
                        == explicit_member_realization(gamma, d, p, ell, seed))


def test_realize_gamma_without_completeness():
    # x1 x2 comes from x -> -x, which is not complete over GF(3): only the
    # permutation variant reaches it, with factors (M, I, ..., I)
    F3 = field(3)
    with pytest.raises(InfeasibleError):
        realize_gamma(ct("x1 x2"), 1, 3, 2, seed=0)
    factors, w = realize_gamma(ct("x1 x2"), 1, 3, 2, require_complete=False)
    assert factors == (MatrixQ(F3, ((2,),)), MatrixQ.identity(F3, 1))
    assert w == VectorQ(F3, (0,))
    with pytest.raises(InfeasibleError):
        realize_gamma(ct("x1 x2"), 1, 5, 1, require_complete=False)  # degree 3, not 5


def test_realize_gamma_refuses_dimension_and_factor_count_0():
    # ell = 0 used to return a one-factor answer without completeness, and
    # d = 0 to fail inside the irreducible enumeration
    for require_complete in (True, False):
        for gamma, d, ell in [(ct("x3"), 1, 0), (ct("x1"), 0, 1), (ct("x3"), 1, -1)]:
            with pytest.raises(ValueError, match="dimension and factor count must be >= 1"):
                realize_gamma(gamma, d, 3, ell, require_complete=require_complete)


def test_zero_dimension_is_refused():
    F3 = field(3)
    empty = MatrixQ(F3, [])
    for fn in (lambda: factor_into_cgl(empty, 2), lambda: two_fpf_product(empty),
               lambda: affine_cycle_type(AffineMap(empty, VectorQ(F3, []))),
               lambda: gamma_of_matrix(empty)):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            fn()
