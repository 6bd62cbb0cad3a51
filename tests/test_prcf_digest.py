"""Pinned digest of `prcf` output over a seeded corpus.

The digest covers the block list and the exact basis change of every matrix,
so any drift in the canonical form (block order, generator choice, basis
change) shows up here even when the cycle types stay the same.  The expected
value was computed by the implementation that preceded the integer-coded
kernel, with its `factor_monic` defect on a leftover linear cofactor over
GF(p^k) patched out, since that defect made some of these matrices fail there.
"""

import hashlib
import random

from cosetmap import MatrixQ, Poly, companion, field, prcf

# (p, k, largest n)
CORPUS_FIELDS = [(2, 1, 8), (3, 1, 8), (5, 1, 8), (7, 1, 6),
                 (2, 2, 8), (2, 3, 6), (3, 2, 6), (5, 2, 4), (3, 3, 4)]

EXPECTED_CASES = 174
EXPECTED_DIGEST = "0091593afba16580c61910cffd92208e3ea8185273b2e29b0ad1254e8468fdd7"


def _random_matrix(ctx, n, rng):
    q = ctx.order
    return MatrixQ(ctx, [[ctx.from_index(rng.randrange(q)) for _ in range(n)]
                         for _ in range(n)])


def _random_invertible(ctx, n, rng):
    while True:
        P = _random_matrix(ctx, n, rng)
        if P.is_invertible():
            return P


def _conjugate(M, rng):
    P = _random_invertible(M.ctx, M.rows, rng)
    return P * M * P.inverse()


def _repeated_eigenvalues(ctx, n, rng):
    """Upper triangular with two diagonal values and sparse nilpotent part:
    primary components with several cyclic summands."""
    q = ctx.order
    lams = [ctx.from_index(rng.randrange(1, q)) for _ in range(2)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j == i:
                row.append(lams[rng.randrange(2)])
            elif j > i and rng.random() < 0.3:
                row.append(ctx.from_index(rng.randrange(q)))
            else:
                row.append(ctx.zero())
        rows.append(row)
    return _conjugate(MatrixQ(ctx, rows), rng)


def _repeated_companion(ctx, n, rng):
    """Companion of a random monic polynomial repeated along the diagonal."""
    q = ctx.order
    d = rng.choice([m for m in (2, 3) if n % m == 0] or [1])
    P = Poly(ctx, [ctx.from_index(rng.randrange(1, q))]
             + [ctx.from_index(rng.randrange(q)) for _ in range(d - 1)] + [1])
    return _conjugate(MatrixQ.block_diag([companion(P)] * (n // d)), rng)


def corpus():
    rng = random.Random(20261017)
    for p, k, nmax in CORPUS_FIELDS:
        ctx = field(p, k)
        for n in range(1, nmax + 1):
            yield _random_matrix(ctx, n, rng)
            yield _repeated_eigenvalues(ctx, n, rng)
            yield _repeated_companion(ctx, n, rng)


def prcf_digest():
    h = hashlib.sha256()
    cases = 0
    for M in corpus():
        form = prcf(M)
        blocks = [(tuple(c.index for c in Q.coeffs), e) for Q, e in form.blocks]
        h.update(repr((M.ctx.p, M.ctx.k, blocks, form.basis_change.int_rows())).encode())
        cases += 1
    return cases, h.hexdigest()


def test_prcf_digest_is_pinned():
    assert prcf_digest() == (EXPECTED_CASES, EXPECTED_DIGEST)
