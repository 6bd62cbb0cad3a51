"""Cycle types from elementary divisors against the canonical-form path and
the orbit walk, on conjugated block diagonals with repeated X-1 blocks and
repeated generic blocks; the minimal polynomial and the singular-matrix
refusals that read the same blocks."""

import itertools
import random

import pytest

from cosetmap import (AffineMap, MatrixQ, Poly, VectorQ, affine_cycle_type, companion,
                      elementary_divisors, enumerate_irreducibles, field, gamma_of_matrix,
                      prcf)
from cosetmap.kernel import _pmul
from helpers import (all_invertible_matrices, brute_affine_cycle_counts, krylov_minpoly,
                     plus_scalar, prcf_affine_cycle_type, prcf_gamma, random_invertible)
from test_prcf_digest import corpus

FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]
BRUTE_LIMIT = 3 ** 8


def _block_pool(ctx, rng):
    """(Q, e) items to draw blocks from: X-1 with exponents 1..3, and two
    other irreducibles of degree <= 2 (<= 3 over GF(2)) with exponents 1..2."""
    xm1 = Poly(ctx, (-1, 1))
    others = [Q for Q in enumerate_irreducibles(ctx, 3 if ctx.order == 2 else 2)
              if Q.codes[0] and Q != xm1]
    pool = [(xm1, e) for e in (1, 2, 3)]
    for Q in rng.sample(others, 2):
        pool += [(Q, e) for e in (1, 2)]
    return pool


def _conjugated_block_diagonal(ctx, rng, nmax=7):
    """S * J * S^-1 for J a block diagonal of companions of Q^e drawn with
    repetition from `_block_pool`; (blocks of J, A)."""
    pool = _block_pool(ctx, rng)
    target = rng.randint(2, nmax)
    blocks, n = [], 0
    while True:
        fits = [(Q, e) for Q, e in pool if n + int(Q.degree) * e <= target]
        if not fits:
            break
        Q, e = rng.choice(fits)
        reps = rng.randint(1, 3)
        while reps and n + int(Q.degree) * e <= target:
            blocks.append((Q, e))
            n += int(Q.degree) * e
            reps -= 1
    rng.shuffle(blocks)
    J = MatrixQ.block_diag([companion(Q ** e) for Q, e in blocks])
    S = random_invertible(ctx, n, rng)
    return blocks, S * J * S.inverse()


def _shifts(A, rng):
    """Zero, a random shift and a random shift in the image of A - I."""
    ctx, n = A.ctx, A.rows
    q = ctx.order
    N = plus_scalar(A, -1)
    return [VectorQ.zero(ctx, n),
            VectorQ(ctx, [rng.randrange(q) for _ in range(n)]),
            VectorQ(ctx, [rng.randrange(q) for _ in range(n)]) * N]


def _augmented(A, v):
    """[[A, 0], [v, 1]]: the linear map (x, t) -> (x*A + t*v, t)."""
    ctx, n = A.ctx, A.rows
    return MatrixQ.from_codes(ctx, [list(r) + [0] for r in A.codes]
                              + [list(v.codes) + [ctx.code(1)]], n + 1)


@pytest.mark.parametrize("p,k", FIELDS)
def test_affine_types_match_canonical_form_path_and_orbit_walk(p, k):
    ctx = field(p, k)
    rng = random.Random(f"elementary-divisors:{p}:{k}")
    xm1 = Poly(ctx, (-1, 1))
    brute_checked = 0
    for _ in range(30):
        drawn, A = _conjugated_block_diagonal(ctx, rng)
        blocks = prcf(A).blocks
        assert sorted(drawn, key=lambda b: (b[0].sort_key(), b[1])) == list(blocks)
        assert elementary_divisors(A) == (blocks, 0)
        assert gamma_of_matrix(A) == prcf_gamma(A)
        for v in _shifts(A, rng):
            f = AffineMap(A, v)
            got = affine_cycle_type(f)
            assert got == prcf_affine_cycle_type(f), (drawn, v)
            if ctx.order ** A.rows <= BRUTE_LIMIT and brute_checked < 12:
                assert dict(got.cycles) == brute_affine_cycle_counts(A, v), (drawn, v)
                brute_checked += 1
            # appending the row (v, 1) grows the block (X-1)^e by one
            grown, e = elementary_divisors(A, v)
            assert grown == blocks
            expect = list(blocks)
            if e:
                expect.remove((xm1, e))
            expect.append((xm1, e + 1))
            expect.sort(key=lambda b: (b[0].sort_key(), b[1]))
            assert prcf(_augmented(A, v)).blocks == tuple(expect), (drawn, v)
    assert brute_checked > 0


def test_shift_in_image_of_a_minus_i_has_exponent_zero():
    F3 = field(3)
    xm1 = Poly(F3, (-1, 1))
    # Jordan blocks of sizes 3 and 1 for the eigenvalue 1, so that in the
    # first block e_i = e_0 (A - I)^i: e_0 is a unit there, e_1 is not
    A = MatrixQ(F3, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert elementary_divisors(A, VectorQ(F3, [1, 0, 0, 0]))[1] == 3
    assert elementary_divisors(A, VectorQ(F3, [0, 1, 0, 0]))[1] == 0
    assert elementary_divisors(A, VectorQ(F3, [0, 0, 0, 1]))[1] == 1
    assert elementary_divisors(A, VectorQ(F3, [0, 1, 0, 1]))[1] == 1


def test_blocks_match_prcf_on_the_digest_corpus():
    for A in corpus():
        assert elementary_divisors(A)[0] == prcf(A).blocks


def test_shape_checks():
    F2 = field(2)
    with pytest.raises(ValueError):
        elementary_divisors(MatrixQ(F2, [[1, 0]]))
    with pytest.raises(ValueError):
        elementary_divisors(MatrixQ.identity(F2, 2), VectorQ(F2, [1]))


@pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (2, 3)])
def test_every_affine_map_of_small_groups_matches_canonical_form_path(p, d):
    ctx = field(p)
    for M in all_invertible_matrices(ctx, d):
        assert gamma_of_matrix(M) == prcf_gamma(M)
        for w in itertools.product(range(p), repeat=d):
            f = AffineMap(M, VectorQ(ctx, w))
            assert affine_cycle_type(f) == prcf_affine_cycle_type(f)


def _divisor_minpoly(A):
    """The product of Q^e over the largest block (Q, e) of each Q among the
    elementary divisors of A."""
    K = A.ctx.ops()
    m = [K.one]
    for Q, e in dict(elementary_divisors(A)[0]).items():   # exponents ascend per Q
        m = _pmul(K, m, (Q ** e).codes)
    return Poly.from_codes(A.ctx, m)


def test_minpoly_matches_krylov_reference_on_the_digest_corpus():
    for A in corpus():
        assert _divisor_minpoly(A) == krylov_minpoly(A)


def test_minpoly_matches_krylov_reference_on_generated_matrices():
    """Random matrices, singular products B*C of rank < n, conjugated
    triangular matrices with two diagonal values and conjugated repeated
    companions over GF(2), GF(3), GF(5), GF(4) and GF(9), n <= 7."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def rows(q, r, c, data):
        return data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=c, max_size=c),
                                  min_size=r, max_size=r))

    def conjugate(ctx, M, data):
        # S = L*U, L unit lower and U unit upper triangular, is invertible
        n = M.rows
        mix = rows(ctx.order, n, n, data)
        one = ctx.code(1)
        L = MatrixQ.from_codes(ctx, [[one if i == j else mix[i][j] * (i > j)
                                      for j in range(n)] for i in range(n)])
        U = MatrixQ.from_codes(ctx, [[one if i == j else mix[i][j] * (j > i)
                                      for j in range(n)] for i in range(n)])
        S = L * U
        return S * M * S.inverse()

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]),
                      st.integers(1, 7),
                      st.sampled_from(["random", "singular", "triangular", "companions"]),
                      st.data())
    def check(pk, n, kind, data):
        ctx = field(*pk)
        q = ctx.order
        if kind == "random":
            A = MatrixQ.from_codes(ctx, rows(q, n, n, data))
        elif kind == "singular":
            r = data.draw(st.integers(0, n - 1))
            A = (MatrixQ.from_codes(ctx, rows(q, n, r, data), r)
                 * MatrixQ.from_codes(ctx, rows(q, r, n, data), n))
        elif kind == "triangular":
            lams = data.draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2))
            diag = data.draw(st.lists(st.sampled_from(lams), min_size=n, max_size=n))
            upper = rows(q, n, n, data)
            A = conjugate(ctx, MatrixQ.from_codes(
                ctx, [[diag[i] if i == j else upper[i][j] * (j > i) for j in range(n)]
                      for i in range(n)]), data)
        else:
            d = data.draw(st.sampled_from([m for m in (1, 2, 3) if n % m == 0]))
            P = Poly.from_codes(ctx, data.draw(st.lists(st.integers(0, q - 1), min_size=d,
                                                        max_size=d)) + [ctx.code(1)])
            A = conjugate(ctx, MatrixQ.block_diag([companion(P)] * (n // d)), data)
        assert _divisor_minpoly(A) == krylov_minpoly(A)

    check()


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_rank_deficient_conjugates_are_refused_with_value_error(p, k):
    """Conjugates of block diagonals with a nilpotent or zero block: both
    entry points refuse them with their ValueError, never a self-check
    failure."""
    ctx = field(p, k)
    rng = random.Random(f"singular:{p}:{k}")
    x = Poly(ctx, (0, 1))
    for _ in range(15):
        _, A = _conjugated_block_diagonal(ctx, rng, nmax=5)
        J = MatrixQ.block_diag([A, companion(x ** rng.randint(1, 2))])
        S = random_invertible(ctx, J.rows, rng)
        B = S * J * S.inverse()
        assert B.rank() < B.rows
        with pytest.raises(ValueError, match=r"^gamma needs an invertible matrix$"):
            gamma_of_matrix(B)
        v = VectorQ(ctx, [rng.randrange(ctx.order) for _ in range(B.rows)])
        with pytest.raises(ValueError,
                           match=r"^affine map is not a permutation \(singular matrix\)$"):
            affine_cycle_type(AffineMap(B, v))
