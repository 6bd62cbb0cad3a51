import itertools
import random

import pytest

from cosetmap import (AffineMap, MatrixQ, Poly, VectorQ, charpoly, companion,
                      field, prcf)
from cosetmap.linalg import _poly_at
from helpers import all_invertible_matrices, moore_matrix, random_invertible


def test_mat_arith_basics():
    F5 = field(5)
    I = MatrixQ.identity(F5, 3)
    assert I.det() == F5.one()
    F2 = field(2)
    M = MatrixQ(F2, ((0, 1), (1, 1)))
    assert M.det() == F2.one()
    assert M * M.inverse() == MatrixQ.identity(F2, 2)
    assert M.rank() == 2
    with pytest.raises(ZeroDivisionError):
        MatrixQ.zeros(F5, 2, 2).inverse()
    # powers against repeated products; negative ones go through the inverse
    A = random_invertible(F5, 3, random.Random(2))
    assert A ** 0 == I and A ** 1 == A
    assert A ** 5 == A * A * A * A * A
    assert A ** -2 == A.inverse() * A.inverse() and A ** -2 * A * A == I
    with pytest.raises(ValueError):
        MatrixQ(F5, ((1, 2),)) ** 2
    F9 = field(3, 2)
    v = VectorQ(F9, (F9.gen(), 2, 0))
    assert (v[0], v[1], v[-1]) == (F9.gen(), F9.elem(2), F9.zero())


def test_moore_matrix_inverse_first_row():
    # over GF(27) with the bundled modulus, the inverse of the Moore matrix
    # has first row (w^25, w^14, -1)
    F27 = field(3, 3)
    w = F27.gen()
    Minv = moore_matrix(F27).inverse()
    assert Minv.entry(0, 0) == w ** 25
    assert Minv.entry(0, 1) == w ** 14
    assert Minv.entry(0, 2) == -F27.one()


def test_companion():
    F3 = field(3)
    C = companion(Poly(F3, (2, 1, 1)))
    assert C.int_rows() == ((0, 1), (1, 2))
    F2 = field(2)
    assert companion(Poly(F2, (1, 1))).int_rows() == ((1,),)
    v = VectorQ(F3, (1, 0))
    assert (v * C).codes == (0, 1)
    with pytest.raises(ValueError):
        companion(Poly(F3, (1, 2)))


@pytest.mark.parametrize("p,deg", [(2, 6), (3, 4)])
def test_charpoly_minpoly_of_companion(p, deg):
    ctx = field(p)
    for d in range(1, deg + 1):
        for lower in itertools.product(range(p), repeat=d):
            P = Poly(ctx, lower + (1,))
            assert charpoly(companion(P)) == P


def test_poly_at_matrix_annihilates():
    F3 = field(3)
    rng = random.Random(5)
    for _ in range(20):
        M = random_invertible(F3, 3, rng)
        # Cayley-Hamilton: chi(M) = 0
        assert _poly_at(F3.ops(), charpoly(M).codes, M.codes) == [[0] * 3] * 3


def test_prcf_block_diag_example():
    F3 = field(3)
    xm1 = Poly(F3, (-1, 1))
    Q2 = Poly(F3, (2, 1, 1))
    A = MatrixQ.block_diag([companion(xm1 ** 2), companion(xm1 ** 3), companion(Q2)])
    form = prcf(A)
    assert form.blocks == ((xm1.monic(), 2), (xm1.monic(), 3), (Q2, 1))
    assert form.basis_change == MatrixQ.identity(F3, 7)


def test_prcf_identity():
    F2 = field(2)
    form = prcf(MatrixQ.identity(F2, 2))
    xp1 = Poly(F2, (1, 1))
    assert form.blocks == ((xp1, 1), (xp1, 1))


def _check_prcf(A):
    form = prcf(A)
    S = form.basis_change
    D = form.block_diagonal()
    assert S.inverse() * A * S == D
    prod = Poly.one(A.ctx)
    for Q, e in form.blocks:
        prod = prod * Q ** e
    assert prod == charpoly(A)
    return form


def test_prcf_exhaustive_small():
    for p, d in [(2, 2), (3, 2)]:
        ctx = field(p)
        for A in all_invertible_matrices(ctx, d):
            _check_prcf(A)
    for q in [2, 3, 5, 7]:
        ctx = field(q)
        for a in range(1, q):
            _check_prcf(MatrixQ(ctx, ((a,),)))


@pytest.mark.parametrize("p", [2, 3])
def test_prcf_random_mid_dimension(p):
    ctx = field(p)
    rng = random.Random(100 + p)
    for d in range(3, 7):
        for _ in range(8):
            A = MatrixQ(ctx, tuple(tuple(ctx.from_index(rng.randrange(p)) for _ in range(d))
                                   for _ in range(d)))
            _check_prcf(A)


def test_prcf_conjugation_invariance():
    F3 = field(3)
    xm1 = Poly(F3, (-1, 1))
    Q2 = Poly(F3, (2, 1, 1))
    D = MatrixQ.block_diag([companion(xm1 ** 2), companion(Q2)])
    rng = random.Random(9)
    base_blocks = prcf(D).blocks
    for _ in range(10):
        S = random_invertible(F3, 4, rng)
        A = S * D * S.inverse()
        assert prcf(A).blocks == base_blocks


def test_invertibility_and_eigenvalue_block_characterizations():
    # invertible iff no block Q = X; no eigenvalue -1 iff no block Q = X+1
    for p in (2, 3):
        ctx = field(p)
        x = Poly.x(ctx)
        xp1 = Poly(ctx, (1, 1))
        rng = random.Random(p)
        I = MatrixQ.identity(ctx, 3)
        for _ in range(30):
            A = MatrixQ(ctx, tuple(tuple(ctx.from_index(rng.randrange(p)) for _ in range(3))
                                   for _ in range(3)))
            blocks = prcf(A).blocks
            assert A.is_invertible() == all(Q != x for Q, _ in blocks)
            assert (not (A + I).det().is_zero()) == all(Q != xp1 for Q, _ in blocks)


def _check_chi_answers_against_rank(M):
    """det, is_invertible and has_no_eigenvalue(c) for every c against the
    elimination rank of M and of M - cI, each asked twice so that the second
    answer reads the stored characteristic polynomial."""
    ctx, n = M.ctx, M.rows
    invertible = M.rank() == n
    no_eig = {}
    for c in ctx.elements():
        cI = MatrixQ(ctx, [[c if i == j else 0 for j in range(n)] for i in range(n)])
        no_eig[c] = invertible and (M - cI).rank() == n
    for _ in range(2):
        assert M.is_invertible() == invertible
        assert M.det().is_zero() == (not invertible)
        for c, expected in no_eig.items():
            assert M.has_no_eigenvalue(c) == expected


def test_characteristic_polynomial_answers_match_elimination_rank():
    """Every 2 x 2 matrix over GF(2), GF(3) and GF(4), random matrices up to
    5 x 5 over GF(5) and GF(9), and the 0 x 0 matrix (det 1, invertible)."""
    for pk in ((2, 1), (3, 1), (2, 2)):
        ctx = field(*pk)
        for idx in itertools.product(range(ctx.order), repeat=4):
            _check_chi_answers_against_rank(MatrixQ.from_codes(ctx, (idx[:2], idx[2:])))
        empty = MatrixQ.from_codes(ctx, (), 0)
        assert empty.det() == ctx.one() and empty.is_invertible()
        _check_chi_answers_against_rank(empty)
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.sampled_from([(5, 1), (3, 2)]), st.integers(0, 5),
                      st.sampled_from(("any", "singular")), st.data())
    def check(pk, n, kind, data):
        ctx = field(*pk)
        codes = st.lists(st.integers(0, ctx.order - 1), min_size=n, max_size=n)
        rows = data.draw(st.lists(codes, min_size=n, max_size=n))
        if kind == "singular" and n:
            rows[-1] = rows[0] if n > 1 else [0]
        _check_chi_answers_against_rank(MatrixQ.from_codes(ctx, rows, n))

    check()


def test_vector_codes_match_element_arithmetic_over_extension_fields():
    """A vector built from codes, from elements or from coordinates is the
    same value with the same hash, and every operation on its codes matches
    entrywise FieldElement arithmetic."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)]), st.integers(1, 4),
                      st.data())
    def check(pk, n, data):
        ctx = field(*pk)
        codes = st.lists(st.integers(0, ctx.order - 1), min_size=n, max_size=n)
        a, b = data.draw(codes), data.draw(codes)
        M = MatrixQ.from_codes(ctx, data.draw(st.lists(codes, min_size=n, max_size=n)))
        x, y = [ctx.from_index(c) for c in a], [ctx.from_index(c) for c in b]
        v, w = VectorQ.from_codes(ctx, a), VectorQ.from_codes(ctx, b)
        coords = tuple(e.coeffs for e in x)
        for same in (VectorQ(ctx, x), VectorQ(ctx, coords)):
            assert same == v and hash(same) == hash(v)
        consts = data.draw(st.lists(st.integers(-ctx.p, 2 * ctx.p), min_size=n, max_size=n))
        assert VectorQ(ctx, consts) == VectorQ(ctx, [ctx.elem(c) for c in consts])
        assert v.entries == tuple(x)
        assert v.is_zero() == all(e.is_zero() for e in x)
        assert (v + w).entries == tuple(e + f for e, f in zip(x, y))
        assert (v - w).entries == tuple(e - f for e, f in zip(x, y))
        assert (-v).entries == tuple(-e for e in x)
        assert (v * M).entries == tuple(sum((x[i] * M.entry(i, j) for i in range(n)), ctx.zero())
                                        for j in range(n))

    check()


def test_affine_map_composition_convention():
    # lambda(A1,b1) then lambda(A2,b2) = lambda(A1 A2, b1 A2 + b2)
    F5 = field(5)
    rng = random.Random(11)
    for _ in range(20):
        f = AffineMap(random_invertible(F5, 2, rng),
                      VectorQ(F5, (rng.randrange(5), rng.randrange(5))))
        g = AffineMap(random_invertible(F5, 2, rng),
                      VectorQ(F5, (rng.randrange(5), rng.randrange(5))))
        h = f.then(g)
        for _ in range(5):
            v = VectorQ(F5, (rng.randrange(5), rng.randrange(5)))
            assert h(v) == g(f(v))


def test_left_kernel():
    F3 = field(3)
    M = MatrixQ(F3, ((1, 2), (2, 4 % 3)))  # second row = 2 * first
    basis = M.left_kernel()
    assert len(basis) == 1
    assert (basis[0] * M).is_zero()


def test_charpoly_det_rank_match_sympy():
    """charpoly, det and rank over GF(p), p <= 7, n <= 8, against sympy's
    DomainMatrix: random matrices, singular products B*C of rank < n, and
    conjugates of triangular matrices with two diagonal values."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def square(p, n, data):
        return data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                                  min_size=n, max_size=n))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 8),
                      st.sampled_from(["random", "singular", "repeated"]), st.data())
    def check(p, n, kind, data):
        ctx = field(p)
        if kind == "random":
            A = MatrixQ(ctx, square(p, n, data))
        elif kind == "singular":
            r = data.draw(st.integers(0, n - 1))
            entries = st.integers(0, p - 1)
            B = MatrixQ.from_codes(ctx, data.draw(st.lists(
                st.lists(entries, min_size=r, max_size=r), min_size=n, max_size=n)), r)
            C = MatrixQ.from_codes(ctx, data.draw(st.lists(
                st.lists(entries, min_size=n, max_size=n), min_size=r, max_size=r)), n)
            A = B * C
        else:
            lams = data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2))
            diag = data.draw(st.lists(st.sampled_from(lams), min_size=n, max_size=n))
            upper, mix = square(p, n, data), square(p, n, data)
            T = MatrixQ(ctx, [[diag[i] if i == j else upper[i][j] * (j > i) for j in range(n)]
                              for i in range(n)])
            # S = L*U, L unit lower and U unit upper triangular, is invertible
            L = MatrixQ(ctx, [[int(i == j) or mix[i][j] * (i > j) for j in range(n)]
                              for i in range(n)])
            U = MatrixQ(ctx, [[int(i == j) or mix[i][j] * (j > i) for j in range(n)]
                              for i in range(n)])
            S = L * U
            A = S * T * S.inverse()
        F = sympy.GF(p)
        ref = DomainMatrix([[F(a) for a in row] for row in A.codes], (n, n), F)
        assert charpoly(A).codes == tuple(int(c) % p for c in reversed(ref.charpoly()))
        assert A.det().index == int(ref.det()) % p
        assert A.rank() == ref.rank()

    check()
