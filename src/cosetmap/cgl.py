"""Complete linear maps: membership, product sets, and constructive
factorization of an invertible matrix into factors with no eigenvalue -1."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .affine_ct import affine_cycle_type, ct_agl, first_witness, gamma_dpl
from .cycletype import CycleType
from .errors import InfeasibleError
from .gf import FieldCtx, field, field_of_order
from .linalg import AffineMap, MatrixQ, VectorQ, companion


def is_cgl(M: MatrixQ) -> bool:
    """True iff M is invertible and has no eigenvalue -1, i.e. M represents a
    linear complete mapping."""
    if not M.is_square():
        raise ValueError("is_cgl needs a square matrix")
    I = MatrixQ.identity(M.ctx, M.rows)
    return not M.det().is_zero() and not (M + I).det().is_zero()


def is_fpf(M: MatrixQ) -> bool:
    """True iff M is invertible and fixes no nonzero vector (no eigenvalue 1)."""
    if not M.is_square():
        raise ValueError("is_fpf needs a square matrix")
    I = MatrixQ.identity(M.ctx, M.rows)
    return not M.det().is_zero() and not (M - I).det().is_zero()


@dataclass(frozen=True)
class CglFactorization:
    """An ordered factorization into complete invertible matrices."""

    factors: tuple[MatrixQ, ...]
    product: MatrixQ

    def __post_init__(self):
        acc = MatrixQ.identity(self.product.ctx, self.product.rows)
        for f in self.factors:
            if not is_cgl(f):
                raise ValueError("factor is not a complete invertible matrix")
            acc = acc * f
        if acc != self.product:
            raise ValueError("factors do not multiply to the stated product")


def _exceptional_members(ctx: FieldCtx, d: int) -> list[MatrixQ]:
    if (d, ctx.order) == (1, 3):
        return [MatrixQ(ctx, ((1,),))]
    if (d, ctx.order) == (2, 2):
        return [
            MatrixQ.identity(ctx, 2),
            MatrixQ(ctx, ((0, 1), (1, 1))),
            MatrixQ(ctx, ((1, 1), (1, 0))),
        ]
    raise ValueError("no explicit member list for this case")


def cgl_power_set(d: int, q: int, ell: int):
    """Describe the set of ell-fold products of complete invertible matrices.

    Returns (tag, members): tag is one of "cgl", "gl", "empty", "explicit";
    members is the explicit matrix list for the exceptional cases, else None.
    """
    if d < 1 or ell < 1:
        raise ValueError("dimension and factor count must be >= 1")
    ctx = field_of_order(q)
    if ell == 1:
        return "cgl", None
    if (d, q) == (1, 2):
        return "empty", []
    if (d, q) in ((1, 3), (2, 2)):
        return "explicit", _exceptional_members(ctx, d)
    return "gl", None


def _random_matrix(ctx: FieldCtx, d: int, rng: random.Random) -> MatrixQ:
    q = ctx.order
    return MatrixQ(ctx, tuple(tuple(ctx.from_index(rng.randrange(q)) for _ in range(d))
                              for _ in range(d)))


def _random_member(ctx: FieldCtx, d: int, rng: random.Random, pred, tries: int = 512):
    for _ in range(tries):
        M = _random_matrix(ctx, d, rng)
        if pred(M):
            return M
    return None


def _all_matrices(ctx: FieldCtx, d: int):
    q = ctx.order
    for idx in itertools.product(range(q), repeat=d * d):
        rows = tuple(tuple(ctx.from_index(idx[i * d + j]) for j in range(d))
                     for i in range(d))
        yield MatrixQ(ctx, rows)


def _search_two_factor(M: MatrixQ, pred, rng: random.Random) -> tuple[MatrixQ, MatrixQ]:
    """Find (F, C) with F*C = M and pred holding for both, by seeded sampling
    with exhaustive fallback on small groups."""
    ctx = M.ctx
    d = M.rows
    for _ in range(2048):
        C = _random_member(ctx, d, rng, pred, tries=64)
        if C is None:
            break
        F = M * C.inverse()
        if pred(F):
            return F, C
    if ctx.order ** (d * d) <= 10 ** 6:
        for C in _all_matrices(ctx, d):
            if pred(C):
                F = M * C.inverse()
                if pred(F):
                    return F, C
    raise InfeasibleError("no two-factor decomposition found")


def factor_into_cgl(M: MatrixQ, ell: int, seed: int = 0) -> CglFactorization:
    """Write M as an ordered product of ell complete invertible matrices.

    Deterministic given the seed.  Raises InfeasibleError when M lies outside
    the ell-fold product set.
    """
    if ell < 1:
        raise ValueError("factor count must be >= 1")
    if not M.is_square() or not M.is_invertible():
        raise ValueError("only invertible matrices can be factored")
    ctx = M.ctx
    d = M.rows
    q = ctx.order
    rng = random.Random(seed)

    if ell == 1:
        if not is_cgl(M):
            raise InfeasibleError("matrix has eigenvalue -1; not a one-factor product")
        return CglFactorization((M,), M)

    if (d, q) == (1, 2):
        raise InfeasibleError("GF(2)^1 admits no complete linear maps")
    if (d, q) == (1, 3):
        if M != MatrixQ(ctx, ((1,),)):
            raise InfeasibleError("only the identity factors over GF(3) in dimension 1")
        one = MatrixQ(ctx, ((1,),))
        return CglFactorization((one,) * ell, M)
    if (d, q) == (2, 2):
        A = MatrixQ(ctx, ((0, 1), (1, 1)))
        B = MatrixQ(ctx, ((1, 1), (1, 0)))  # B = A^2 = A^-1
        members = {MatrixQ.identity(ctx, 2): 0, A: 1, B: 2}
        if M not in members:
            raise InfeasibleError("matrix is not an ell-fold product over GF(2)^2")
        # a word with b letters B and ell-b letters A evaluates to A^(ell+b mod 3)
        b = next(b for b in range(3) if (ell + b) % 3 == members[M])
        factors = (A,) * (ell - b) + (B,) * b
        return CglFactorization(factors, M)

    if ctx.p > 2:
        # identity is complete in odd characteristic; two-factor then pad
        F, C = _search_two_factor(M, is_cgl, rng)
        ordered = [F, C] + [MatrixQ.identity(ctx, d)] * (ell - 2)
        return CglFactorization(tuple(ordered), M)

    # characteristic 2: pad with (C, C^-1) pairs, peel one factor off odd ell
    target = M
    tail: list[MatrixQ] = []
    rest = ell
    if rest % 2 == 1:
        C = _random_member(ctx, d, rng, is_cgl)
        if C is None:
            raise InfeasibleError("could not sample a complete matrix")
        target = target * C.inverse()
        tail.append(C)
        rest -= 1
    head: list[MatrixQ] = []
    while rest > 2:
        C = _random_member(ctx, d, rng, is_cgl)
        if C is None:
            raise InfeasibleError("could not sample a complete matrix")
        head.extend([C, C.inverse()])
        rest -= 2
    F, C = _search_two_factor(target, is_cgl, rng)
    return CglFactorization(tuple(head + [F, C] + tail), M)


def two_fpf_product(M: MatrixQ, seed: int = 0) -> tuple[MatrixQ, MatrixQ]:
    """Write an invertible M as a product of two fixed-point-free matrices."""
    if not M.is_square() or not M.is_invertible():
        raise ValueError("only invertible matrices can be factored")
    d = M.rows
    q = M.ctx.order
    if (d, q) in ((1, 2), (1, 3), (2, 2)):
        raise InfeasibleError(f"(d, q) = {(d, q)} admits no two-derangement factorization")
    rng = random.Random(seed)
    return _search_two_factor(M, is_fpf, rng)


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
    reaches the type, and w the first matching choice of shift classes: the
    walk behind the gamma sets records both (`first_witness`).
    """
    if d < 1 or ell < 1:
        raise ValueError("dimension and factor count must be >= 1")
    if require_complete and gamma not in gamma_dpl(d, p, ell):
        raise InfeasibleError(f"{gamma} is not realizable with {ell} complete factors "
                              f"in dimension {d} over GF({p})")
    if not require_complete and gamma not in ct_agl(d, p):
        raise InfeasibleError(f"{gamma} is not an affine cycle type in dimension {d} over GF({p})")
    ctx = field(p)

    def factors(M: MatrixQ) -> tuple[MatrixQ, ...]:
        if require_complete:
            return factor_into_cgl(M, ell, seed=seed).factors
        return (M,) + (MatrixQ.identity(ctx, d),) * (ell - 1)

    if require_complete and ell >= 2 and (d, p) in ((1, 3), (2, 2)):
        # the ell-fold product set is an explicit list: scan all shifts
        for M in _exceptional_members(ctx, d):
            for widx in itertools.product(range(p), repeat=d):
                w = VectorQ(ctx, widx)
                if affine_cycle_type(AffineMap(M, w)) == gamma:
                    return factors(M), w
        raise InfeasibleError("no explicit member realizes the requested type")
    # one factor must be complete itself: no block X+1, i.e. no eigenvalue -1
    blocks, cases = first_witness(gamma, d, p, complete=require_complete and ell == 1)
    M = MatrixQ.block_diag([companion(Q ** e) for Q, e in blocks])
    # the shift is 1 at the start of each unit-class block and 0 elsewhere
    w = VectorQ(ctx, [int(j == 0 and case.u_class.startswith("unit"))
                      for (Q, e), case in zip(blocks, cases) for j in range(int(Q.degree) * e)])
    if affine_cycle_type(AffineMap(M, w)) != gamma:
        raise ArithmeticError("realized affine map has the wrong type")
    return factors(M), w
