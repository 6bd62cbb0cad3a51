"""Cycle types of affine permutations of finite vector spaces.

The per-block computation follows the divisor-chain counting argument: the
points lying on cycles whose length divides a candidate length form a
divisor-closed set whose size is an explicit power of q; exact-length counts
fall out by subtraction along the chain of candidates.
"""

from __future__ import annotations

import _thread
import bisect
import itertools

from .cycletype import CycleType, weixu, weixu_all
from .gf import _ORDERS, FieldCtx, Poly, degree_orders, enumerate_irreducibles, field, poly_order
from .kernel import _unit_group_factors, check_size, factorize, memo
from .linalg import AffineMap, MatrixQ, VectorQ, companion, elementary_divisors


def _is_x(Q: Poly) -> bool:
    return len(Q.codes) == 2 and not Q.codes[0]


def _is_x_minus_1(Q: Poly) -> bool:
    return len(Q.codes) == 2 and Q.codes[0] == Q.ctx.code(-1)


def _ceil_log(e: int, p: int) -> int:
    """Smallest c with p^c >= e."""
    c = 0
    v = 1
    while v < e:
        v *= p
        c += 1
    return c


def block_cycle_type(Q: Poly, e: int, unit: bool = False) -> CycleType:
    """Cycle type of R -> R*X + U on GF(q)[X]/(Q^e) by the divisor chain.

    `unit` says whether the shift U is a unit, which only Q = X-1 allows:
    for any other Q every shift gives the type of a nonunit one."""
    if e < 1:
        raise ValueError("block exponent must be >= 1")
    if _is_x(Q):
        raise ValueError("block polynomial must not be X")
    if unit and not _is_x_minus_1(Q):
        raise ValueError(f"a unit shift does not fit ({Q})^{e}")
    ctx = Q.ctx
    return _block_type(ctx.order, ctx.p, int(Q.degree), poly_order(Q), e, unit)


@memo
def _block_type(q: int, p: int, m: int, r: int, e: int, unit: bool) -> CycleType:
    """Cycle type of a block Q^e over GF(q) of characteristic p with
    deg Q = m and ord Q = r, its shift a unit or not: these are all it
    depends on."""
    counts: dict[int, int] = {}
    if not unit:
        counts[1] = 1
        prev = 1  # points on cycles of length dividing previous candidate
        for a in range(_ceil_log(e, p) + 1):
            length = r * p ** a
            pts = q ** (m * min(e, p ** a))
            exact = pts - prev
            if exact:
                counts[length] = counts.get(length, 0) + exact // length
            prev = pts
    else:  # unit shift, Q = X-1: one length, p*e when e is a power of p
        length = p ** _ceil_log(e + 1, p)
        counts[length] = q ** e // length
    total = sum(l * k for l, k in counts.items())
    if total != q ** (m * e):
        raise ArithmeticError("block cycle counts do not cover the module")
    return CycleType(counts)


def shift_class_types(blocks):
    """(units, cycle type) for every choice of a unit or nonunit shift per
    primary block [(Q, e), ...], nonunit first; units[i] says whether block
    i has a unit shift, which only a block X-1 can have."""
    per_block = [[(unit, block_cycle_type(Q, e, unit))
                  for unit in ((False, True) if _is_x_minus_1(Q) else (False,))]
                 for Q, e in blocks]
    for combo in itertools.product(*per_block):
        yield tuple(unit for unit, _ in combo), weixu_all([t for _, t in combo])


def affine_cycle_type(f: AffineMap) -> CycleType:
    """Cycle type of f: x -> x*A + v from the elementary divisors of A and
    of B = [[A, 0], [v, 1]], no basis change.

    B maps (x, t) to (x*A + t*v, t): on the hyperplane t = 0 it is A, on each
    of the other q - 1 a conjugate of f, so the blocks of A and B fix the type
    of f.  B has A's blocks with one (X-1)^e grown by one, e as returned by
    `elementary_divisors`; the map whose X-1 blocks are all nonunit but one
    unit (X-1)^e (all nonunit when e = 0) has the same A and B, hence the
    same type.  A is singular exactly when its first block is X.
    """
    if f.dim < 1:
        raise ValueError("dimension must be >= 1")
    blocks, grown = elementary_divisors(f.matrix, f.shift)
    if _is_x(blocks[0][0]):
        raise ValueError("affine map is not a permutation (singular matrix)")
    parts = []
    for Q, e in blocks:
        unit = e == grown and _is_x_minus_1(Q)
        if unit:
            grown = 0
        parts.append(block_cycle_type(Q, e, unit))
    return weixu_all(parts)


def gamma_of_matrix(M: MatrixQ) -> frozenset[CycleType]:
    """All cycle types of x -> x*M + v as v ranges over the space."""
    if M.rows < 1:
        raise ValueError("dimension must be >= 1")
    blocks = elementary_divisors(M)[0] if M.is_square() else None
    if blocks is None or _is_x(blocks[0][0]):
        raise ValueError("gamma needs an invertible matrix")
    out = frozenset(t for _, t in shift_class_types(blocks))
    if len({t.degree for t in out}) != 1:
        raise ArithmeticError("inconsistent degrees in gamma set")
    return out


def gamma_of_poly(P: Poly) -> frozenset[CycleType]:
    """Gamma of the companion matrix of a monic P with P(0) != 0."""
    if not P.codes or not P.codes[0]:
        raise ValueError("gamma of a polynomial requires a nonzero constant term")
    return gamma_of_matrix(companion(P))


def sorted_types(types) -> list[CycleType]:
    return sorted(types, key=lambda t: t.cycles)


# ---------------------------------------------------------------------------
# Gamma(d, p, ell): cycle types reachable with matrices that factor into ell
# complete linear maps.
#
# The sets come from block signatures.  A block's cycle type depends only on
# m = deg Q, r = ord Q, e and whether the shift is a unit, and over GF(p) a
# monic irreducible of degree m and order r exists exactly when m is the
# multiplicative order of p mod r (Lidl-Niederreiter, Finite Fields, Thm 3.5).
# So the divisors of p^m - 1 give every signature with no polynomial
# enumerated, and an unbounded knapsack over (weight m*e, block types) gives
# the set.  Realization needs a witness in a fixed order instead: the first
# class, in `block_multisets` order, and choice of unit shifts that reaches
# the type.  That walk is a generator kept per (complete, d, p), advanced only
# until the requested type turns up.
# ---------------------------------------------------------------------------

def block_multisets(ctx: FieldCtx, d: int, complete: bool = False):
    """All multisets of (Q, e) with sum e*deg Q = d, Q monic irreducible and
    Q != X, and Q != X+1 (no eigenvalue -1) when `complete`.  One multiset per
    conjugacy class of GL_d(q), or of its complete matrices; deterministic
    order, exponents ascending per Q.

    A multiset lists its polynomials in enumeration order.  Multisets whose
    first polynomial comes later in that order come first; each recursion
    level picks the next polynomial actually used, so the depth is at most d.
    The sieve behind the irreducibles has q^d candidates, and more than
    MAX_DOMAIN of them are refused before it starts.  Over a prime field the
    orders of all irreducibles of each degree 2 <= m <= d (so p^m is within
    that limit too) are worked out first, one `degree_orders` pass per
    degree, for `poly_order` to read.
    """
    check_size(f"the class walk over GF({ctx.order})^{d} sieves {ctx.order}^{d} polynomials",
               ctx.order, d)
    skip = Poly(ctx, (1, 1)) if complete else None
    irred = [Q for Q in enumerate_irreducibles(ctx, d) if not _is_x(Q) and Q != skip]
    degrees = [int(Q.degree) for Q in irred]
    for m in range(2, d + 1):
        if ctx.k > 1:
            break
        polys = [Q.codes for Q in irred[bisect.bisect_left(degrees, m):
                                        bisect.bisect_right(degrees, m)]]
        if any((ctx, codes) not in _ORDERS for codes in polys):
            _ORDERS.update(((ctx, c), r) for c, r in degree_orders(ctx.p, m, polys).items())

    def walk(remaining: int, start: int):
        if remaining == 0:
            yield []
            return
        last = bisect.bisect_right(degrees, remaining, start) - 1
        for j in range(last, start - 1, -1):
            Q, dq = irred[j], degrees[j]
            for exps in _exponent_multisets(remaining // dq):
                head = [(Q, e) for e in exps]
                for rest in walk(remaining - sum(exps) * dq, j + 1):
                    yield head + rest

    yield from walk(d, 0)


def _exponent_multisets(budget: int, minimum: int = 1):
    """All nonempty ascending exponent multisets with parts >= minimum and
    sum <= budget, in lexicographic order."""
    for e in range(minimum, budget + 1):
        yield [e]
        for rest in _exponent_multisets(budget - e, e):
            yield [e] + rest


def _orders_of_degree(p: int, m: int) -> list[int]:
    """The orders of the monic irreducibles of degree m over GF(p), X left
    out: the divisors r of p^m - 1 that divide no p^(m/l) - 1, l a prime
    factor of m."""
    divisors = [1]
    for prime, a in _unit_group_factors(p, m):
        divisors = [r * prime ** i for r in divisors for i in range(a + 1)]
    lower = [p ** (m // l) - 1 for l in factorize(m)]
    return sorted(r for r in divisors if all(n % r for n in lower))


def _signature_types(complete: bool, d: int, p: int) -> frozenset[CycleType]:
    """The gamma set from block signatures (m, r, e, unit).

    The blocks Q^e with deg Q = m give an item of weight m*e whose choices
    are their types over every order r of degree m; only r = 1, the block
    X-1, takes a unit shift as well as a nonunit one.  `complete` drops the
    signature of X+1: (1, 2), or (1, 1) in characteristic 2.  Any item may
    be used any number of times (one Q may repeat an exponent), so how many
    polynomials share a signature never matters."""
    minus_one = 1 if p == 2 else 2
    reach = [set() for _ in range(d + 1)]
    reach[0].add(CycleType({1: 1}))
    for m in range(1, d + 1):
        orders = [r for r in _orders_of_degree(p, m)
                  if not complete or (m, r) != (1, minus_one)]
        for e in range(1, d // m + 1):
            types = {_block_type(p, p, m, r, e, unit) for r in orders
                     for unit in ((False, True) if r == 1 else (False,))}
            for n in range(m * e, d + 1):
                reach[n] |= {weixu(a, t) for a in reach[n - m * e] for t in types}
    return frozenset(reach[d])


def _class_walk(complete: bool, d: int, p: int):
    """(t, blocks, units) for every class of `block_multisets` and every
    choice of unit shifts, in that order.  The types of a class depend only
    on its blocks' signatures (deg Q, ord Q, e), ord Q = 1 only for the block
    X-1 that takes a unit shift, so they are worked out once per signature
    tuple."""
    by_signature = {}
    for blocks in block_multisets(field(p), d, complete):
        key = tuple((len(Q.codes), poly_order(Q), e) for Q, e in blocks)
        types = by_signature.get(key)
        if types is None:
            types = by_signature[key] = list(shift_class_types(blocks))
        for units, t in types:
            yield t, blocks, units


_GAMMA_CACHE: dict[tuple, tuple[frozenset, dict, object]] = memo({}, f"{__name__}._GAMMA_CACHE")
_WALK_LOCK = _thread.allocate_lock()  # one thread at a time advances any walk


def _gamma(complete: bool, d: int, p: int) -> tuple[frozenset, dict, object]:
    """(types, first, walk) over every class of GL_d(p), or the classes
    without the block X+1 when `complete`: the set from `_signature_types`; per
    type met so far, its first (blocks, units); and the `_class_walk` where
    the search for the next witness resumes.  Of two threads that build one
    entry, the first to store it wins."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    key = (complete, d, p)
    entry = _GAMMA_CACHE.get(key)
    if entry is None:
        field(p)  # refuses a p that is not prime
        check_size(f"a gamma set in dimension {d}", d)
        entry = _GAMMA_CACHE.setdefault(key, (_signature_types(*key), {}, _class_walk(*key)))
    return entry


def first_witness(gamma: CycleType, d: int, p: int, complete: bool = False):
    """(blocks, units) of the first class and choice of unit shifts, in
    walk order, that reaches gamma: among classes with no eigenvalue -1 when
    `complete`, else among all of GL_d(p).  None, with no walking, if the
    gamma set does not hold gamma.  The walk advances under `_WALK_LOCK`.  An
    error inside the walk ends the generator, so it drops the whole entry and
    the next call walks afresh."""
    key = (complete, d, p)
    types, first, walk = _gamma(*key)
    if gamma not in types:
        return None
    with _WALK_LOCK:
        try:
            while gamma not in first:
                step = next(walk, None)
                if step is None:
                    raise ArithmeticError("the class walk misses a type of the gamma set")
                t, blocks, units = step
                first.setdefault(t, (blocks, units))
        except BaseException:
            _GAMMA_CACHE.pop(key, None)
            raise
    return first[gamma]


def ct_agl(d: int, p: int) -> frozenset[CycleType]:
    """Cycle types of all affine permutations of GF(p)^d."""
    return _gamma(False, d, p)[0]


def ct_acgl(d: int, p: int) -> frozenset[CycleType]:
    """Cycle types of affine maps whose linear part is a complete mapping."""
    return _gamma(True, d, p)[0]


_AFFINE_TYPES: dict[tuple, CycleType] = memo({}, f"{__name__}._AFFINE_TYPES")


def _affine_type(ctx: FieldCtx, A, v) -> CycleType:
    """affine_cycle_type of x -> x*A + v over ctx, given as matrix code rows
    and shift codes, kept for the process by (ctx, A, v).  `witness_map`
    stores the type of every witness it checks here."""
    t = _AFFINE_TYPES.get((ctx, A, v))
    if t is None:
        f = AffineMap(MatrixQ.from_codes(ctx, A), VectorQ.from_codes(ctx, v))
        t = _AFFINE_TYPES.setdefault((ctx, A, v), affine_cycle_type(f))
    return t


@memo
def witness_map(gamma: CycleType, d: int, p: int, complete: bool = False) -> AffineMap | None:
    """x -> x*M + w of cycle type gamma from its `first_witness`: M the block
    diagonal of the companions of the Q^e, w 1 at the start of each block
    with a unit shift and 0 elsewhere.  Checked with `affine_cycle_type`,
    which leaves M its characteristic polynomial, and the type stored for
    `_affine_type`.  None if no class reaches gamma."""
    witness = first_witness(gamma, d, p, complete)
    if witness is None:
        return None
    blocks, units = witness
    M = MatrixQ.block_diag([companion(Q ** e) for Q, e in blocks])
    w = VectorQ(M.ctx, [int(j == 0 and unit) for (Q, e), unit in zip(blocks, units)
                        for j in range(int(Q.degree) * e)])
    f = AffineMap(M, w)
    if affine_cycle_type(f) != gamma:
        raise ArithmeticError("realized affine map has the wrong type")
    _AFFINE_TYPES[M.ctx, M.codes, w.codes] = gamma
    return f


# For ell >= 2 the ell-fold products of complete matrices fill GL_d(q), except
# for these (d, q); there they are the listed code-row matrices whatever ell.
_EXCEPTIONAL_PRODUCTS = {
    (1, 2): (),
    (1, 3): (((1,),),),
    (2, 2): (((1, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 0))),
}


@memo
def product_members(d: int, q: int) -> tuple[MatrixQ, ...] | None:
    """The ell-fold products of complete invertible d x d matrices over GF(q),
    the same for every ell >= 2: none over GF(2)^1, the identity over GF(3)^1,
    and I, A and B = A^2 = A^-1 over GF(2)^2.  None where they fill GL_d(q)."""
    rows = _EXCEPTIONAL_PRODUCTS.get((d, q))
    return None if rows is None else tuple(MatrixQ(field(q), r) for r in rows)


@memo
def _members_gamma(d: int, p: int) -> frozenset[CycleType]:
    return frozenset().union(*map(gamma_of_matrix, product_members(d, p)))


def gamma_dpl(d: int, p: int, ell: int) -> frozenset[CycleType]:
    """Cycle types realizable by lambda(M, w) with M a product of ell
    complete invertible matrices over GF(p).

    For ell >= 2 this is every affine cycle type, except over GF(2)^1,
    GF(3)^1 and GF(2)^2, where it is the union of the gamma sets of the few
    matrices that are such products (none over GF(2)^1)."""
    if d < 1 or ell < 1:
        raise ValueError("dimension and factor count must be >= 1")
    if ell == 1:
        return ct_acgl(d, p)
    return ct_agl(d, p) if product_members(d, p) is None else _members_gamma(d, p)
