"""Coset-wise affine maps of GF(p)^(d+t) over the standard splitting.

The space splits as V = W + U with W the first d coordinates and U the last t.
A map stores, per coset label u in GF(p)^t, a triple (alpha_u, omega_u, nu_u)
and sends w + u to (w*alpha_u + omega_u) + (u + nu_u).  Permutation and
completeness tests, the wreath-product correspondence, cycle types via forward
cycle products, and the constructors all live here.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .affine_ct import affine_cycle_type
from .cgl import is_cgl, realize_gamma
from .cycletype import CycleType, blow_up, ct_mul
from .errors import InfeasibleError
from .gf import FieldCtx, Poly, factorize, field
from .linalg import AffineMap, MatrixQ, VectorQ
from .oracle import MapTable, index_to_tuple, tuple_to_index


@dataclass(frozen=True)
class Splitting:
    """V = GF(p)^(d+t) split into the first d and last t coordinates."""

    p: int
    d: int
    t: int

    def __post_init__(self):
        if self.d < 1 or self.t < 0:
            raise ValueError("need d >= 1 and t >= 0")

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
    """Per-coset affine data over a splitting; immutable."""

    __slots__ = ("splitting", "per_coset")

    def __init__(self, splitting: Splitting, per_coset: dict):
        labels = splitting.coset_labels()
        if set(per_coset) != set(labels):
            raise ValueError("per-coset data must cover every coset exactly once")
        ctx = splitting.ctx
        norm = {}
        for u in labels:
            alpha, omega, nu = per_coset[u]
            if not isinstance(alpha, MatrixQ):
                alpha = MatrixQ(ctx, alpha)
            if not isinstance(omega, VectorQ):
                omega = VectorQ(ctx, omega)
            if not isinstance(nu, VectorQ):
                nu = VectorQ(ctx, nu)
            if alpha.rows != splitting.d or alpha.cols != splitting.d:
                raise ValueError("alpha blocks must be d x d")
            if len(omega.entries) != splitting.d or len(nu.entries) != splitting.t:
                raise ValueError("omega is W-sized and nu is U-sized")
            norm[u] = (alpha, omega, nu)
        self.splitting = splitting
        self.per_coset = norm

    def data(self, u) -> tuple[MatrixQ, VectorQ, VectorQ]:
        return self.per_coset[tuple(u)]

    def __eq__(self, other):
        return (isinstance(other, CosetWiseAffineMap)
                and self.splitting == other.splitting
                and self.per_coset == other.per_coset)

    def __repr__(self):
        s = self.splitting
        return f"CosetWiseAffineMap(p={s.p}, d={s.d}, t={s.t})"


def cw_eval(f: CosetWiseAffineMap, x: VectorQ) -> VectorQ:
    s = f.splitting
    if len(x.entries) != s.n:
        raise ValueError("vector has the wrong dimension")
    w, u = x.split(s.d)
    ulabel = tuple(e.coeffs[0] for e in u.entries)
    alpha, omega, nu = f.per_coset[ulabel]
    return (w * alpha + omega).concat(u + nu)


def _top_images(f: CosetWiseAffineMap) -> list[int]:
    """Image table of u -> u + nu_u on lexicographic coset indices."""
    s = f.splitting
    out = []
    for i in range(s.p ** s.t):
        u = index_to_tuple(i, s.p, s.t)
        nu = f.per_coset[u][2]
        img = tuple((a + b.coeffs[0]) % s.p for a, b in zip(u, nu.entries))
        out.append(tuple_to_index(img, s.p))
    return out


def cw_is_permutation(f: CosetWiseAffineMap) -> bool:
    """Structural test: every alpha invertible and the coset map bijective."""
    top = _top_images(f)
    if sorted(top) != list(range(len(top))):
        return False
    return all(alpha.is_invertible() for alpha, _, _ in f.per_coset.values())


def cw_is_complete(f: CosetWiseAffineMap) -> bool:
    """Structural test: every alpha complete and the coset map a complete
    mapping of GF(p)^t."""
    s = f.splitting
    top = _top_images(f)
    n = len(top)
    if sorted(top) != list(range(n)):
        return False
    doubled = []
    for i in range(n):
        u = index_to_tuple(i, s.p, s.t)
        img = index_to_tuple(top[i], s.p, s.t)
        doubled.append(tuple_to_index(tuple((a + b) % s.p for a, b in zip(u, img)), s.p))
    if sorted(doubled) != list(range(n)):
        return False
    return all(is_cgl(alpha) for alpha, _, _ in f.per_coset.values())


# ---------------------------------------------------------------------------
# Wreath-product correspondence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WreathElement:
    """Top permutation of the coset labels plus one affine map per label.

    The action keeps the source-block convention: (w, u) maps to
    (bottom[u](w), top(u)); composing e1 then e2 composes bottoms along e1's
    top images.
    """

    splitting: Splitting
    top: tuple[int, ...]
    bottom: tuple[AffineMap, ...]

    def __post_init__(self):
        n = self.splitting.p ** self.splitting.t
        if sorted(self.top) != list(range(n)):
            raise ValueError("top must be a bijection on the coset labels")
        if len(self.bottom) != n:
            raise ValueError("one bottom map per coset label required")


def cw_to_wreath(f: CosetWiseAffineMap) -> WreathElement:
    s = f.splitting
    if not cw_is_permutation(f):
        raise ValueError("only permutations correspond to wreath elements")
    top = tuple(_top_images(f))
    bottom = []
    for i in range(s.p ** s.t):
        u = index_to_tuple(i, s.p, s.t)
        alpha, omega, _ = f.per_coset[u]
        bottom.append(AffineMap(alpha, omega))
    return WreathElement(s, top, tuple(bottom))


def wreath_to_cw(e: WreathElement) -> CosetWiseAffineMap:
    s = e.splitting
    ctx = s.ctx
    per = {}
    for i in range(s.p ** s.t):
        u = index_to_tuple(i, s.p, s.t)
        img = index_to_tuple(e.top[i], s.p, s.t)
        nu = VectorQ(ctx, tuple((b - a) % s.p for a, b in zip(u, img)))
        per[u] = (e.bottom[i].matrix, e.bottom[i].shift, nu)
    return CosetWiseAffineMap(s, per)


def wreath_mul(e1: WreathElement, e2: WreathElement) -> WreathElement:
    """Product corresponding to applying e1 first, then e2."""
    if e1.splitting != e2.splitting:
        raise ValueError("mismatched splittings")
    top = tuple(e2.top[e1.top[i]] for i in range(len(e1.top)))
    bottom = tuple(e1.bottom[i].then(e2.bottom[e1.top[i]]) for i in range(len(e1.top)))
    return WreathElement(e1.splitting, top, bottom)


def cw_compose(f1: CosetWiseAffineMap, f2: CosetWiseAffineMap) -> CosetWiseAffineMap:
    """Coset-wise map equal to applying f1 first, then f2."""
    if f1.splitting != f2.splitting:
        raise ValueError("mismatched splittings")
    s = f1.splitting
    ctx = s.ctx
    per = {}
    for u in s.coset_labels():
        a1, o1, n1 = f1.per_coset[u]
        u2 = tuple((x + y.coeffs[0]) % s.p for x, y in zip(u, n1.entries))
        a2, o2, n2 = f2.per_coset[u2]
        per[u] = (a1 * a2, o1 * a2 + o2, n1 + n2)
    return CosetWiseAffineMap(s, per)


# ---------------------------------------------------------------------------
# Cycle type via forward cycle products
# ---------------------------------------------------------------------------

def _cycles_of(images: list[int]) -> list[list[int]]:
    """Cycles sorted by least element, each starting at its least element."""
    n = len(images)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = images[i]
        cycles.append(cyc)
    return cycles


def _forward_product(f: CosetWiseAffineMap, cycle: list[int]) -> AffineMap:
    s = f.splitting
    ctx = s.ctx
    acc = AffineMap(MatrixQ.identity(ctx, s.d), VectorQ.zero(ctx, s.d))
    for i in cycle:
        u = index_to_tuple(i, s.p, s.t)
        alpha, omega, _ = f.per_coset[u]
        acc = acc.then(AffineMap(alpha, omega))
    return acc


def cw_cycle_type(f: CosetWiseAffineMap) -> CycleType:
    """Blow up the cycle type of each forward cycle product by its cycle
    length and multiply."""
    if not cw_is_permutation(f):
        raise ValueError("cycle type requires a permutation")
    total = CycleType()
    for cycle in _cycles_of(_top_images(f)):
        gamma = affine_cycle_type(_forward_product(f, cycle))
        total = ct_mul(total, blow_up(len(cycle), gamma))
    return total


def cw_to_table(f: CosetWiseAffineMap) -> MapTable:
    """Tabulate on lexicographic indices of GF(p)^(d+t)."""
    s = f.splitting
    ctx = s.ctx
    n = s.p ** s.n
    images = []
    for i in range(n):
        coords = index_to_tuple(i, s.p, s.n)
        y = cw_eval(f, VectorQ(ctx, coords))
        images.append(tuple_to_index(tuple(e.coeffs[0] for e in y.entries), s.p))
    return MapTable(n, tuple(images))


def conjugated_table(f: CosetWiseAffineMap, T: MatrixQ) -> MapTable:
    """Value table of T^-1 f T; realizes the construction over the subspace
    W*T instead of the standard W.  Completeness and cycle type are
    preserved under linear conjugation."""
    s = f.splitting
    ctx = s.ctx
    if T.rows != s.n or not T.is_invertible():
        raise ValueError("basis change must be an invertible (d+t) matrix")
    Tinv = T.inverse()
    n = s.p ** s.n
    images = []
    for i in range(n):
        coords = index_to_tuple(i, s.p, s.n)
        x = VectorQ(ctx, coords)
        y = cw_eval(f, x * Tinv) * T
        images.append(tuple_to_index(tuple(e.coeffs[0] for e in y.entries), s.p))
    return MapTable(n, tuple(images))


# ---------------------------------------------------------------------------
# The main constructor and its consequences
# ---------------------------------------------------------------------------

def _check_base_map(g_images: list[int], p: int, t: int, require_complete: bool):
    n = p ** t
    if len(g_images) != n or sorted(g_images) != list(range(n)):
        raise ValueError("base map must be a bijection on GF(p)^t")
    if require_complete:
        doubled = []
        for i in range(n):
            u = index_to_tuple(i, p, t)
            img = index_to_tuple(g_images[i], p, t)
            doubled.append(tuple_to_index(tuple((a + b) % p for a, b in zip(u, img)), p))
        if sorted(doubled) != list(range(n)):
            raise InfeasibleError("base map is not a complete mapping of GF(p)^t")


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
    _check_base_map(g_images, p, t, require_complete)
    s = Splitting(p, d, t)
    ctx = s.ctx
    rng = random.Random(seed)

    cycles = _cycles_of(g_images)
    counters: dict[int, int] = {}
    expected = CycleType()
    per: dict = {}
    seen_keys = set()
    for cyc in cycles:
        ell = len(cyc)
        counters[ell] = counters.get(ell, 0) + 1
        key = (ell, counters[ell])
        seen_keys.add(key)
        if key not in gammas:
            raise ValueError(f"no target type supplied for cycle {key}")
        gamma = gammas[key]
        sub_seed = rng.randrange(2 ** 32)
        factors, w = realize_gamma(gamma, d, p, ell, seed=sub_seed,
                                   require_complete=require_complete)
        expected = ct_mul(expected, blow_up(ell, gamma))
        for j, i in enumerate(cyc):
            u = index_to_tuple(i, p, t)
            nxt = index_to_tuple(g_images[i], p, t)
            nu = VectorQ(ctx, tuple((b - a) % p for a, b in zip(u, nxt)))
            omega = w if j == ell - 1 else VectorQ.zero(ctx, d)
            per[u] = (factors[j], omega, nu)
    extra = set(gammas) - seen_keys
    if extra:
        raise ValueError(f"targets supplied for nonexistent cycles: {sorted(extra)}")

    f = CosetWiseAffineMap(s, per)
    if require_complete and not cw_is_complete(f):
        raise ArithmeticError("constructed map failed the completeness check")
    if not cw_is_permutation(f):
        raise ArithmeticError("constructed map is not a permutation")
    if cw_cycle_type(f) != expected:
        raise ArithmeticError("constructed map has the wrong cycle type")
    return f


def sylow_type_targets(p: int, k: int) -> list[CycleType]:
    """All p-power cycle types of degree p^k (every part a power of p);
    exactly the types the recursive constructor can realize."""
    out = []
    def rec(remaining: int, max_pow: int, acc):
        if remaining == 0:
            out.append(CycleType([(p ** j, c) for j, c in acc if c]))
            return
        if max_pow < 0:
            return
        step = p ** max_pow
        for count in range(remaining // step, -1, -1):
            rec(remaining - count * step, max_pow - 1, acc + [(max_pow, count)])
    rec(p ** k, k, [])
    return out


def construct_sylow_type(q: int, target: CycleType, seed: int = 0) -> CosetWiseAffineMap:
    """Complete mapping of GF(p^k), q = p^k odd, with a prescribed cycle type
    all of whose parts are powers of p.

    Recursive descent: reduce the type to a smaller one on GF(p)^(k-1), build
    that complete mapping, then lift with d = 1 using targets x1^p on the
    first a0/p fixed points and x_p everywhere else.
    """
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    (p, k), = fac.items()
    if p == 2:
        raise InfeasibleError("even characteristic admits no such complete mappings")
    counts = dict(target.cycles)
    a = [counts.pop(p ** i, 0) for i in range(k + 1)]
    if counts:
        raise ValueError("every cycle length must be a power of p at most p^k")
    if sum(a[i] * p ** i for i in range(k + 1)) != p ** k:
        raise ValueError("cycle type does not have degree p^k")
    if a[0] % p != 0:
        raise ValueError("fixed-point count must be divisible by p")

    if k == 1:
        s = Splitting(p, 1, 0)
        ctx = s.ctx
        shift = 0 if a[0] == p else 1
        per = {(): (MatrixQ.identity(ctx, 1), VectorQ(ctx, (shift,)), VectorQ(ctx, ()))}
        return CosetWiseAffineMap(s, per)

    smaller = CycleType([(1, a[0] // p + a[1])] + [(p ** j, a[j + 1]) for j in range(1, k)])
    g = construct_sylow_type(p ** (k - 1), smaller, seed=seed)
    g_images = list(cw_to_table(g).images)

    cycles = _cycles_of(g_images)
    counters: dict[int, int] = {}
    gammas = {}
    one_fixed = CycleType({1: p})
    long_cycle = CycleType({p: 1})
    for cyc in cycles:
        ell = len(cyc)
        counters[ell] = counters.get(ell, 0) + 1
        i = counters[ell]
        if ell == 1 and i <= a[0] // p:
            gammas[(ell, i)] = one_fixed
        else:
            gammas[(ell, i)] = long_cycle
    return construct_main(p, 1, k - 1, g_images, gammas, seed=seed)


# ---------------------------------------------------------------------------
# One-cycle construction
# ---------------------------------------------------------------------------

def _one_cycle_images(p: int, k: int) -> list[int]:
    """Closed form: add 1 to coordinates ell..k where ell is the last index
    with a nonzero coordinate (clamped to 1); single p^k-cycle."""
    n = p ** k
    out = []
    for i in range(n):
        x = list(index_to_tuple(i, p, k))
        ell = 1
        for j in range(k, 0, -1):
            if x[j - 1] != 0:
                ell = j
                break
        for j in range(ell - 1, k):
            x[j] = (x[j] + 1) % p
        out.append(tuple_to_index(tuple(x), p))
    return out


def one_cycle_map(p: int, k: int) -> CosetWiseAffineMap:
    """The recursive single-cycle map on GF(p)^k: cycle type x_{p^k}, a
    complete mapping exactly when p > 2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    s = Splitting(p, 1, k - 1)
    ctx = s.ctx
    per = {}
    if k == 1:
        per[()] = (MatrixQ.identity(ctx, 1), VectorQ(ctx, (1,)), VectorQ(ctx, ()))
        return CosetWiseAffineMap(s, per)
    sub = _one_cycle_images(p, k - 1)
    I1 = MatrixQ.identity(ctx, 1)
    zero_w = VectorQ(ctx, (0,))
    one_w = VectorQ(ctx, (1,))
    for i, u in enumerate(itertools.product(range(p), repeat=k - 1)):
        img = index_to_tuple(sub[tuple_to_index(u, p)], p, k - 1)
        nu = VectorQ(ctx, tuple((b - a) % p for a, b in zip(u, img)))
        omega = one_w if all(c == 0 for c in u) else zero_w
        per[u] = (I1, omega, nu)
    return CosetWiseAffineMap(s, per)


# ---------------------------------------------------------------------------
# Field-polynomial form of the one-cycle map
# ---------------------------------------------------------------------------

def moore_matrix(ctx: FieldCtx) -> MatrixQ:
    """Rows indexed by basis power i, columns by Frobenius power j: w^(i*p^j)."""
    if ctx.k < 2:
        raise ValueError("the Moore matrix needs an extension field")
    w = ctx.gen()
    p = ctx.p
    rows = []
    for i in range(ctx.k):
        rows.append(tuple((w ** i) ** (p ** j) for j in range(ctx.k)))
    return MatrixQ(ctx, rows)


def coordinate_functions(ctx: FieldCtx) -> list[Poly]:
    """Linearized polynomials pi_0..pi_{k-1} giving the coordinates of x over
    the power basis: coefficient of Y^(p^j) in pi_i is column i of the inverse
    Moore matrix."""
    M = moore_matrix(ctx)
    Minv = M.inverse()
    p = ctx.p
    polys = []
    for i in range(ctx.k):
        coeffs = [ctx.zero()] * (p ** (ctx.k - 1) + 1)
        for j in range(ctx.k):
            coeffs[p ** j] = Minv.entry(j, i)
        polys.append(Poly(ctx, coeffs))
    return polys


def _reduce_exponents(P: Poly) -> Poly:
    """Reduce modulo Y^q - Y: fold Y^i onto Y^(i-q+1) for i >= q."""
    K = P.ctx.ops()
    q = P.ctx.order
    codes = list(P.codes)
    for i in range(len(codes) - 1, q - 1, -1):
        c = codes.pop()
        if c:
            codes[i - (q - 1)] = K.add(codes[i - (q - 1)], c)
    return Poly.from_codes(P.ctx, codes)


def _mul_reduced(a: Poly, b: Poly) -> Poly:
    return _reduce_exponents(a * b)


def one_cycle_polynomial(ctx: FieldCtx) -> Poly:
    """Reduced polynomial (degree < q) representing the one-cycle map of
    GF(q); a complete mapping when q is odd."""
    if ctx.k == 1:
        return Poly(ctx, (1, 1))
    p = ctx.p
    pis = coordinate_functions(ctx)
    w = ctx.gen()

    def pth_minus_one_power(P: Poly) -> Poly:
        acc = Poly.one(ctx)
        for _ in range(p - 1):
            acc = _mul_reduced(acc, P)
        return acc

    g = Poly.one(ctx) - pth_minus_one_power(pis[1])
    for j in range(2, ctx.k):
        indicator = Poly.one(ctx) - pth_minus_one_power(pis[j])
        g = _mul_reduced(indicator, Poly(ctx, (w ** (j - 1),)) + g)
    x = Poly.x(ctx)
    return _reduce_exponents(x + Poly(ctx, (w ** (ctx.k - 1),)) + g)


def vector_to_field(ctx: FieldCtx, v: VectorQ):
    """Bridge GF(p)^k -> GF(p^k): coordinates over the power basis."""
    if len(v.entries) != ctx.k:
        raise ValueError("vector length must equal the extension degree")
    return ctx.elem(tuple(e.coeffs[0] for e in v.entries))


def field_to_vector(x) -> VectorQ:
    """Bridge GF(p^k) -> GF(p)^k."""
    prime = field(x.ctx.p)
    return VectorQ(prime, x.coeffs)
