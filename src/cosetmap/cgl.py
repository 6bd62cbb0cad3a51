"""Complete linear maps: membership, and constructive factorization of an
invertible matrix into factors with no eigenvalue -1."""

from __future__ import annotations

import itertools
import random

from ._record import Record
from .affine_ct import ct_agl, gamma_dpl, product_members, witness_map
from .cycletype import CycleType
from .errors import InfeasibleError
from .gf import FieldCtx
from .kernel import is_power
from .linalg import MatrixQ, VectorQ, _inverse, _matmul, _without_eigenvalue


def is_cgl(M: MatrixQ) -> bool:
    """True iff M is invertible and has no eigenvalue -1, i.e. M represents a
    linear complete mapping."""
    return M.has_no_eigenvalue(-1)


class CglFactorization(Record):
    """An ordered factorization into complete invertible matrices."""

    __slots__ = ("factors", "product")

    def __init__(self, factors: tuple[MatrixQ, ...], product: MatrixQ):
        """Each distinct factor is tested once, and factors equal to the
        identity take no part in the product."""
        if not all(map(is_cgl, set(factors))):
            raise ValueError("factor is not a complete invertible matrix")
        identity = acc = MatrixQ.identity(product.ctx, product.rows)
        for f in factors:
            if f != identity:
                acc = f if acc is identity else acc * f
        if acc != product:
            raise ValueError("factors do not multiply to the stated product")
        self._store(factors, product)


def _random_member(ctx: FieldCtx, d: int, rng: random.Random, c: int, tries: int = 512):
    """A random invertible d x d matrix without eigenvalue c (a code), drawn
    as code rows; None after `tries` failed samples."""
    q = ctx.order
    for _ in range(tries):
        M = _without_eigenvalue(ctx, [[rng.randrange(q) for _ in range(d)] for _ in range(d)], c)
        if M is not None:
            return M
    return None


def _all_members(ctx: FieldCtx, d: int, c: int):
    """Every invertible d x d matrix without eigenvalue c, in code order."""
    for idx in itertools.product(range(ctx.order), repeat=d * d):
        M = _without_eigenvalue(ctx, [idx[i * d:(i + 1) * d] for i in range(d)], c)
        if M is not None:
            yield M


def _search_two_factor(M: MatrixQ, c: int, rng: random.Random) -> tuple[MatrixQ, MatrixQ]:
    """Find (F, C) with F*C = M and neither having eigenvalue c (a code), by
    seeded sampling with exhaustive fallback on small groups."""
    ctx = M.ctx
    K = ctx.ops()
    d = M.rows
    sampled = itertools.islice(iter(lambda: _random_member(ctx, d, rng, c, tries=64), None), 2048)
    exhaustive = _all_members(ctx, d, c) if ctx.order ** (d * d) <= 10 ** 6 else ()
    for C in itertools.chain(sampled, exhaustive):
        F = _without_eigenvalue(ctx, _matmul(K, M.codes, _inverse(K, C.codes), d), c)
        if F is not None:
            return F, C
    raise InfeasibleError("no two-factor decomposition found")


def factor_into_cgl(M: MatrixQ, ell: int, seed: int = 0) -> CglFactorization:
    """Write M as an ordered product of ell complete invertible matrices.

    Deterministic given the seed.  Raises InfeasibleError when M lies outside
    the ell-fold product set.
    """
    if ell < 1:
        raise ValueError("factor count must be >= 1")
    if M.rows < 1:
        raise ValueError("dimension must be >= 1")
    if not M.is_invertible():
        raise ValueError("only invertible matrices can be factored")
    ctx = M.ctx
    d = M.rows
    q = ctx.order
    minus_one = ctx.code(-1)
    rng = random.Random(seed)

    if ell == 1:
        if not is_cgl(M):
            raise InfeasibleError("matrix has eigenvalue -1; not a one-factor product")
        return CglFactorization((M,), M)

    members = product_members(d, q)
    if members is not None:
        if M not in members:
            raise InfeasibleError(f"matrix is not a product of {ell} complete matrices "
                                  f"over GF({q})^{d}")
        # the members are the n powers of A = members[1 % n], and B = A^-1 is
        # the last; a word of ell - b letters A and b letters B is A^(ell - 2b)
        n = len(members)
        A, B = members[1 % n], members[-1]
        b = next(b for b in range(n) if (ell - 2 * b) % n == members.index(M))
        return CglFactorization((A,) * (ell - b) + (B,) * b, M)

    if ctx.p > 2:
        # identity is complete in odd characteristic; two-factor then pad
        F, C = _search_two_factor(M, minus_one, rng)
        ordered = [F, C] + [MatrixQ.identity(ctx, d)] * (ell - 2)
        return CglFactorization(tuple(ordered), M)

    # characteristic 2: peel one sampled factor off odd ell, pad with (C, C^-1)
    # pairs of sampled C, then two factors
    odd = ell % 2
    sampled = [_random_member(ctx, d, rng, minus_one) for _ in range(odd + (ell - odd - 2) // 2)]
    if any(C is None for C in sampled):
        raise InfeasibleError("could not sample a complete matrix")
    tail, pairs = sampled[:odd], sampled[odd:]
    F, C = _search_two_factor(M * tail[0].inverse() if odd else M, minus_one, rng)
    head = [X for C in pairs for X in (C, C.inverse())]
    return CglFactorization(tuple(head + [F, C] + tail), M)


def two_fpf_product(M: MatrixQ, seed: int = 0) -> tuple[MatrixQ, MatrixQ]:
    """Write an invertible M as a product of two fixed-point-free matrices."""
    if M.rows < 1:
        raise ValueError("dimension must be >= 1")
    if not M.is_invertible():
        raise ValueError("only invertible matrices can be factored")
    # Over GF(2)^1, GF(3)^1 and GF(2)^2 the products of two fixed-point-free
    # matrices are those of two complete ones: the two notions agree in
    # characteristic 2, and over GF(3)^1 [2]*[2] = I.
    members = product_members(M.rows, M.ctx.order)
    if members is not None and M not in members:
        raise InfeasibleError("matrix is not a product of two fixed-point-free matrices "
                              f"over GF({M.ctx.order})^{M.rows}")
    rng = random.Random(seed)
    return _search_two_factor(M, M.ctx.code(1), rng)


# ---------------------------------------------------------------------------
# Realizing a target cycle type as an ell-factored affine map
# ---------------------------------------------------------------------------

def realize_gamma(gamma: CycleType, d: int, p: int, ell: int, seed: int = 0,
                  require_complete: bool = True) -> tuple[tuple[MatrixQ, ...], VectorQ]:
    """Find ell factors and a shift w with the affine map of their product
    having the requested cycle type.

    With require_complete the factors are complete matrices and the type must
    lie in gamma_dpl(d, p, ell).  Without it the type may be any affine cycle
    type and the factors are (M, I, ..., I) with M invertible.  Either way the
    witness M is the first canonical form, in `block_multisets` order, that
    reaches the type, and w the first matching choice of unit shifts: the
    walk behind the gamma sets records both (`witness_map`).
    """
    if d < 1 or ell < 1:
        raise ValueError("dimension and factor count must be >= 1")
    # a type of another degree than p^d is refused before any gamma set is built
    fits = is_power(gamma.degree, p, d)
    if require_complete and not (fits and gamma in gamma_dpl(d, p, ell)):
        raise InfeasibleError(f"{gamma} is not realizable with {ell} complete factors "
                              f"in dimension {d} over GF({p})")
    if not require_complete and not (fits and gamma in ct_agl(d, p)):
        raise InfeasibleError(f"{gamma} is not an affine cycle type in dimension {d} over GF({p})")
    # one factor must be complete itself: no block X+1, i.e. no eigenvalue -1.
    # For ell >= 2 over GF(3)^1 and GF(2)^2 the first witness of every type in
    # gamma_dpl is one of the `product_members`; factor_into_cgl refuses any
    # other matrix.
    f = witness_map(gamma, d, p, complete=require_complete and ell == 1)
    if require_complete:
        return factor_into_cgl(f.matrix, ell, seed=seed).factors, f.shift
    return (f.matrix,) + (MatrixQ.identity(f.ctx, d),) * (ell - 1), f.shift
