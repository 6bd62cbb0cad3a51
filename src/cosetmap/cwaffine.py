"""Coset-wise affine maps of GF(p)^(d+t) over the standard splitting.

The space splits as V = W + U with W the first d coordinates and U the last t.
A map holds its coset map u -> top(u) and, per coset label u in GF(p)^t, an
affine map (alpha_u, omega_u) of W, each distinct one held once, and sends
w + u to (w*alpha_u + omega_u) + top(u); the paper's shift nu_u is
top(u) - u.  Cosets are addressed by the lexicographic index of u, points of
V by the index of (w, u), which is w*p^t + u.  A map that is a permutation is
an element of the wreath product of AGL(W) by the permutations of the cosets,
and `cw_compose` is its multiplication.  Permutation and completeness tests, cycle types via
forward cycle products, value tables (from `kernel._affine_table`) and the
constructors all live here.
"""

from __future__ import annotations

import itertools
import operator
import random

from ._record import Record
from .affine_ct import _affine_type, product_members
from .cgl import is_cgl, realize_gamma
from .cycletype import CycleType, cycles_of, is_permutation
from .errors import InfeasibleError
from .gf import FieldCtx, Poly, field
from .kernel import _affine_table, _power, _vecmat, check_size, is_power, prime_power
from .linalg import MatrixQ, VectorQ, _identity, _matmul
from .oracle import MapTable, is_complete_mapping


class Splitting(Record):
    """V = GF(p)^(d+t) split into the first d and last t coordinates; at most
    MAX_DOMAIN cosets (p^t), since a map holds data for each of them."""

    __slots__ = ("p", "d", "t")

    def __init__(self, p: int, d: int, t: int):
        if d < 1 or t < 0:
            raise ValueError("need d >= 1 and t >= 0")
        field(p)  # refuses a p that is not prime
        check_size(f"a splitting of GF({p})^{d + t} has {p}^{t} cosets", p, t)
        self._store(p, d, t)

    @property
    def n(self) -> int:
        return self.d + self.t

    @property
    def ctx(self) -> FieldCtx:
        return field(self.p)

    def coset_labels(self):
        """All u in GF(p)^t in lexicographic order."""
        return list(itertools.product(range(self.p), repeat=self.t))


class CosetWiseAffineMap:
    """A coset-wise affine map over a splitting; immutable.

    `top` is the coset map, an image table of coset indices (the
    lexicographic index of the label u in GF(p)^t).  The map of W on each
    coset is held once per block: `blocks` holds pairs (alpha, omega) of a
    `MatrixQ` and a `VectorQ`, and `block_of` the index into `blocks` of
    each coset's pair, in coset-index order, so the pair of coset i is
    `blocks[block_of[i]]`.  A map that is a permutation is the wreath
    element itself: `top` its top permutation and the blocks its bottom
    maps.  The constructor takes the blocks and block indices as given:
    `top` and `block_of` must hold one int per coset, `block_of` must use
    every block and name no other, and each block is checked once, data
    over another field than the splitting's refused; `cw_cycle_type` keeps
    its answer in `_cycle_type`.  Equality compares the pair of each coset
    and ignores how they are shared.
    """

    __slots__ = ("splitting", "top", "blocks", "block_of", "_cycle_type")

    def __init__(self, splitting: Splitting, top, blocks, block_of):
        n = splitting.p ** splitting.t
        top, blocks, block_of = tuple(top), tuple(map(tuple, blocks)), tuple(block_of)
        if len(top) != n:
            raise ValueError("top must have one entry per coset")
        if not ({int}.issuperset(map(type, top)) and 0 <= min(top) and max(top) < n):  # passes in C
            raise ValueError("top entry out of range")
        if len(block_of) != n:
            raise ValueError("block_of must have one entry per coset")
        if not ({int}.issuperset(map(type, block_of)) and set(block_of) == set(range(len(blocks)))):
            raise ValueError("block_of must use every block and name no other")
        ctx, d = splitting.ctx, splitting.d
        if not all(len(block) == 2 and isinstance(block[0], MatrixQ)
                   and isinstance(block[1], VectorQ) for block in blocks):
            raise ValueError("blocks must be pairs of a MatrixQ and a VectorQ")
        if any(x.ctx is not ctx for block in blocks for x in block):
            raise ValueError("mismatched contexts")
        if any(alpha.rows != d or alpha.cols != d for alpha, _ in blocks):
            raise ValueError("alpha blocks must be d x d")
        if any(len(omega.codes) != d for _, omega in blocks):
            raise ValueError("omega is W-sized and nu is U-sized")
        self.splitting = splitting
        self.top = top
        self.blocks = blocks
        self.block_of = block_of
        self._cycle_type = None

    def __eq__(self, other):
        return (isinstance(other, CosetWiseAffineMap)
                and self.splitting == other.splitting
                and self.top == other.top
                and all(self.blocks[i] == other.blocks[j]
                        for i, j in set(zip(self.block_of, other.block_of))))

    def __repr__(self):
        s = self.splitting
        return f"CosetWiseAffineMap(p={s.p}, d={s.d}, t={s.t})"


def cw_is_permutation(f: CosetWiseAffineMap) -> bool:
    """Structural test: every alpha invertible and the coset map bijective."""
    if not is_permutation(f.top, len(f.top)):
        return False
    return all(alpha.is_invertible() for alpha, _ in f.blocks)


def cw_is_complete(f: CosetWiseAffineMap) -> bool:
    """Structural test: every alpha complete and the coset map a complete
    mapping of GF(p)^t."""
    s = f.splitting
    return (is_complete_mapping(f.top, s.p, s.t)
            and all(is_cgl(alpha) for alpha, _ in f.blocks))


def cw_compose(f1: CosetWiseAffineMap, f2: CosetWiseAffineMap) -> CosetWiseAffineMap:
    """Coset-wise map equal to applying f1 first, then f2: on permutations,
    the product in the wreath product.  Each distinct pair of blocks, f1's
    on a coset and f2's on its image, is composed once."""
    if f1.splitting != f2.splitting:
        raise ValueError("mismatched splittings")
    index = {}  # (f1's block on a coset, f2's on its image) -> the composed block
    which = [index.setdefault(pair, len(index))
             for pair in zip(f1.block_of, map(f2.block_of.__getitem__, f1.top))]
    blocks = []
    for i, j in index:
        (a1, o1), (a2, o2) = f1.blocks[i], f2.blocks[j]
        blocks.append((a1 * a2, o1 * a2 + o2))
    return CosetWiseAffineMap(f1.splitting, map(f2.top.__getitem__, f1.top), blocks, which)


# ---------------------------------------------------------------------------
# Cycle type via forward cycle products
# ---------------------------------------------------------------------------

def _forward_codes(f: CosetWiseAffineMap, cycles):
    """(matrix codes, shift codes) of each cycle's forward product: the coset
    maps along the cycle composed in order, folded on codes.  Each block is
    looked at once: an alpha equal to the identity only adds its omega, and
    a zero omega adds nothing."""
    d = f.splitting.d
    K = f.splitting.ctx.ops()
    identity = tuple(map(tuple, _identity(K, d)))
    steps = [(None if alpha.codes == identity else alpha.codes,
              None if omega.is_zero() else omega.codes) for alpha, omega in f.blocks]
    for cycle in cycles:
        A, v = identity, [0] * d
        for a, o in map(steps.__getitem__, map(f.block_of.__getitem__, cycle)):
            if a is not None:
                A = a if A is identity else _matmul(K, A, a, d)
                v = _vecmat(K, v, a, d)
            if o is not None:
                v = K.axpy(v, K.one, o)
        yield tuple(map(tuple, A)), tuple(v)


def _blown_up(counts) -> CycleType:
    """The cycle type that holds, for each pair ((ell, gamma), k), k copies
    of gamma with every length multiplied by ell."""
    return CycleType((ell * l, k * c) for (ell, gamma), k in counts for l, c in gamma.cycles)


def _tallied_type(f: CosetWiseAffineMap, cycles) -> CycleType:
    """The cycle type of the permutation f from the cycles of its top: the
    cycles tallied by (length, forward product), each forward product's type
    read from the process-wide `affine_ct._affine_type`."""
    counts = {}
    for cycle, fwd in zip(cycles, _forward_codes(f, cycles)):
        key = len(cycle), fwd
        counts[key] = counts.get(key, 0) + 1
    return _blown_up(((ell, _affine_type(f.splitting.ctx, *fwd)), k)
                     for (ell, fwd), k in counts.items())


def cw_cycle_type(f: CosetWiseAffineMap) -> CycleType:
    """Blow up the cycle type of each forward cycle product by its cycle
    length and multiply; worked out once per map."""
    if f._cycle_type is None:
        if not cw_is_permutation(f):
            raise ValueError("cycle type requires a permutation")
        f._cycle_type = _tallied_type(f, cycles_of(f.top))
    return f._cycle_type


# ---------------------------------------------------------------------------
# Value tables
# ---------------------------------------------------------------------------

def _table(f: CosetWiseAffineMap) -> list[int]:
    """Images of f on lexicographic indices of GF(p)^(d+t): the point w + u
    has index w*p^t + u, and its image is p^t times the image of w under the
    u-th coset map, plus top(u).  Each block is tabulated once by
    `kernel._affine_table` and scaled by p^t once: one table each (bytes
    into at most 256 points), or, when the blocks outnumber the points of W,
    one interleaved table of them all.  The images are then read by one
    column slice per coset when the cosets are fewer than the points of W,
    and by one row slice per point of W otherwise."""
    s = f.splitting
    check_size(f"a value table of GF({s.p})^{s.n} has {s.p}^{s.n} points", s.p, s.n)
    nt, nw = s.p ** s.t, s.p ** s.d
    blocks = [(alpha.codes, omega.codes) for alpha, omega in f.blocks]
    k = len(blocks)
    if k > nw:
        table = _affine_table(s.p, s.d, blocks)
    else:
        table = [0] * (nw * k)
        for i, block in enumerate(blocks):
            table[i::k] = _affine_table(s.p, s.d, [block])
    table = list(map(nt.__mul__, table))  # the image of w under block i at w*k + i
    if nt < nw:
        images = [0] * (nt * nw)
        for u, i in enumerate(f.block_of):
            images[u::nt] = table[i::k]
    else:
        images = itertools.chain.from_iterable(map(table[x * k:(x + 1) * k].__getitem__, f.block_of)
                                               for x in range(nw))
    return list(map(operator.add, images, itertools.cycle(f.top)))


def cw_to_table(f: CosetWiseAffineMap) -> MapTable:
    """Tabulate on lexicographic indices of GF(p)^(d+t)."""
    images = _table(f)
    return MapTable(len(images), images)


def conjugated_table(f: CosetWiseAffineMap, T: MatrixQ) -> MapTable:
    """Value table of T^-1 f T; realizes the construction over the subspace
    W*T instead of the standard W.  Completeness and cycle type are
    preserved under linear conjugation."""
    s = f.splitting
    if T.ctx is not s.ctx or T.rows != s.n or not T.is_invertible():
        raise ValueError("basis change must be an invertible (d+t) matrix")
    images = _table(f)
    into, back = (_affine_table(s.p, s.n, [(M.codes, (0,) * s.n)]) for M in (T.inverse(), T))
    return MapTable(len(images), [back[images[x]] for x in into])


# ---------------------------------------------------------------------------
# The main constructor and its consequences
# ---------------------------------------------------------------------------

def construct_main(p: int, d: int, t: int, g_images, gammas: dict,
                   seed: int = 0, require_complete: bool = True) -> CosetWiseAffineMap:
    """Build a coset-wise affine map whose cycle type is the product of the
    blown-up per-cycle targets.

    `g_images` is the base permutation of GF(p)^t on lexicographic indices;
    `gammas` maps (cycle length, 1-based cycle index) to a target CycleType.
    Cycles are enumerated sorted by least element, starting at that element.
    With require_complete, g must be a complete mapping and each target must
    lie in the ell-factored set, and the result is a complete mapping.
    """
    g_images = list(g_images)
    if not is_power(len(g_images), p, t) or not is_permutation(g_images, len(g_images)):
        raise ValueError("base map must be a bijection on GF(p)^t")
    if require_complete and not is_complete_mapping(g_images, p, t):
        raise InfeasibleError("base map is not a complete mapping of GF(p)^t")
    s = Splitting(p, d, t)
    cycles = cycles_of(g_images)
    counters = {}  # per cycle (length, 1-based index among the cycles of that length)
    keys = [(len(cyc), next(counters.setdefault(len(cyc), itertools.count(1)))) for cyc in cycles]
    missing = [key for key in keys if key not in gammas]
    if missing:
        raise ValueError(f"no target type supplied for cycle {missing[0]}")
    extra = set(gammas) - set(keys)
    if extra:
        raise ValueError(f"targets supplied for nonexistent cycles: {sorted(extra)}")
    ctx = s.ctx
    zero_w = None  # built once a target is accepted: a d no target fits may be huge
    rng = random.Random(seed)

    counts = {}  # cycles per (ell, gamma)
    shared, block_of = {}, [0] * p ** t  # (alpha codes, omega codes) -> (block index, block)
    # results no seed reaches (ell = 1, or exceptional (d, p)) are reused; all seeds are drawn
    realized, exceptional = {}, product_members(d, p) is not None
    for cyc, key in zip(cycles, keys):
        ell = len(cyc)
        gamma = gammas[key]
        sub_seed = rng.randrange(2 ** 32)
        memo = realized if ell == 1 or exceptional else {}
        if (gamma, ell) not in memo:
            factors, w = realize_gamma(gamma, d, p, ell, seed=sub_seed,
                                       require_complete=require_complete)
            if zero_w is None:
                zero_w = VectorQ.zero(ctx, d)
            # the block index of each position in the cycle: factors repeat
            # (the identity, for one), and equal blocks are held once
            memo[gamma, ell] = [shared.setdefault((a.codes, o.codes), (len(shared), (a, o)))[0]
                                for a, o in zip(factors, (zero_w,) * (ell - 1) + (w,))]
        counts[ell, gamma] = counts.get((ell, gamma), 0) + 1
        for i, b in zip(cyc, memo[gamma, ell]):
            block_of[i] = b

    f = CosetWiseAffineMap(s, g_images, [block for _, block in shared.values()], block_of)
    # the coset map is g, found complete above: only the alphas are left to check
    if require_complete and not all(is_cgl(alpha) for alpha, _ in f.blocks):
        raise ArithmeticError("constructed map failed the completeness check")
    if not cw_is_permutation(f):
        raise ArithmeticError("constructed map is not a permutation")
    f._cycle_type = _tallied_type(f, cycles)  # g's cycles, walked above
    if f._cycle_type != _blown_up(counts.items()):
        raise ArithmeticError("constructed map has the wrong cycle type")
    return f


def construct_sylow_type(q: int, target: CycleType, seed: int = 0) -> CosetWiseAffineMap:
    """Complete mapping of GF(p^k), q = p^k odd, with a prescribed cycle type
    all of whose parts are powers of p.

    Recursive descent: reduce the type to a smaller one on GF(p)^(k-1), build
    that complete mapping (the one map of GF(p)^0 for k = 1), then lift with
    d = 1 using targets x1^p on the first a0/p fixed points and x_p
    everywhere else.
    """
    p, k = prime_power(q)
    if p == 2:
        raise InfeasibleError("even characteristic admits no such complete mappings")
    counts = dict(target.cycles)
    a = [counts.pop(p ** i, 0) for i in range(k + 1)]
    if counts:
        raise ValueError("every cycle length must be a power of p at most p^k")
    if sum(a[i] * p ** i for i in range(k + 1)) != p ** k:
        raise ValueError("cycle type does not have degree p^k")  # so p divides a[0], as k >= 1
    Splitting(p, 1, k - 1)  # refuses too many cosets before the recursion

    # the type of the map one level down: x1 at k = 1, the one map of GF(p)^0
    smaller = CycleType([(1, a[0] // p + a[1])] + [(p ** j, a[j + 1]) for j in range(1, k)])
    g_images = [0]
    if k > 1:
        g_images = list(cw_to_table(construct_sylow_type(p ** (k - 1), smaller, seed=seed)).images)

    one_fixed = CycleType({1: p})
    long_cycle = CycleType({p: 1})
    gammas = {(ell, i): one_fixed if ell == 1 and i <= a[0] // p else long_cycle
              for ell, count in smaller.cycles for i in range(1, count + 1)}
    return construct_main(p, 1, k - 1, g_images, gammas, seed=seed)


# ---------------------------------------------------------------------------
# One-cycle construction
# ---------------------------------------------------------------------------

def one_cycle_map(p: int, k: int) -> CosetWiseAffineMap:
    """The recursive single-cycle map on GF(p)^k: cycle type x_{p^k}, a
    complete mapping exactly when p > 2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    s = Splitting(p, 1, k - 1)
    n, I1 = p ** s.t, MatrixQ.identity(s.ctx, 1)
    # the top is the one-cycle map of GF(p)^t: add 1 to the digits from the
    # label's last nonzero one on (all of them for the zero label): on an
    # index with e trailing zero digits, step digit e and set the e below to 1
    top = [(n - 1) // (p - 1)] * n
    for e in range(s.t):
        step = p ** e
        for i in range(step, n, step):
            c = i // step % p
            if c:
                top[i] = i + ((c + 1) % p - c) * step + (step - 1) // (p - 1)
    # the zero coset shifts by one, the others not; for k = 1 it is the only coset
    blocks = [(I1, VectorQ(s.ctx, (1,))), (I1, VectorQ(s.ctx, (0,)))]
    return CosetWiseAffineMap(s, top, blocks[:n], (0,) + (1,) * (n - 1))


# ---------------------------------------------------------------------------
# Field-polynomial form of the one-cycle map
# ---------------------------------------------------------------------------

def one_cycle_polynomial(ctx: FieldCtx) -> Poly:
    """Reduced polynomial (degree < q) representing the one-cycle map of
    GF(q); a complete mapping when q is odd.

    It is x + w^(k-1) + sum_{j=1}^{k-1} w^(j-1) * 1_{V_j}(x), V_j the GF(p)-span
    of w^0..w^(j-1).  With L = prod_{v in V_j}(x - v) = sum_{i<=j} a_i x^(p^i),
    sum_v 1/(x - v) = a_0/L, so 1_{V_j} has -sum_v v^(q-1-n) = -a_0 *
    beta_(q-p^j-n) at x^n, 0 < n < q, for beta = 1/(1 + sum_{i<j} a_i
    z^(p^j - p^i)) (Lidl-Niederreiter, Finite Fields, 3.4).
    """
    K, p, k, q = ctx.ops(), ctx.p, ctx.k, ctx.order
    codes = [1, K.one] + [0] * (q - p)  # w^(k-1) + x; no term lies above x^(q-p)
    a = [K.one]  # L of the zero space is x
    for j in range(1, k):
        b = p ** (k - j)  # the code of w^(j-1)
        # L <- L^p - L(b)^(p-1) * L
        lb = 0
        for i, c in enumerate(a):
            lb = K.add(lb, K.mul(c, _power(K.mul, b, p ** i, K.one)))
        a = K.axpy([0] + [_power(K.mul, c, p, K.one) for c in a],
                   K.neg(_power(K.mul, lb, p - 1, K.one)), a + [0])
        # the coefficient of z^((p-1)*r) in beta sits at pad + r, zeros below;
        # every shift is at least p^(j-1), so blocks of that width fill at once
        terms = [(K.neg(a[i]), (p ** j - p ** i) // (p - 1)) for i in range(j)]
        pad, end = terms[0][1], (q - 1) // (p - 1)
        beta = [0] * pad + [K.one]
        while len(beta) < end:
            n = len(beta)
            seg = [0] * min(p ** (j - 1), end - n)
            for c, s in terms:
                seg = K.axpy(seg, c, beta[n - s:n - s + len(seg)])
            beta += seg
        codes[0] = K.add(codes[0], b)
        xs = slice(p - 1, q - p ** j + 1, p - 1)  # x^n for n = q - p^j - (p-1)*r
        codes[xs] = K.axpy(codes[xs], K.neg(K.mul(b, a[0])), beta[pad:][::-1])
    return Poly.from_codes(ctx, codes)
