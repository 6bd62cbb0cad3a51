"""Shared brute-force oracles for the test suite.

Everything here recomputes expectations from first principles (orbit walks,
exhaustive enumeration) independently of the library's structural code paths.
"""

from __future__ import annotations

import collections
import itertools
import random

from cosetmap import CycleType, MatrixQ, Poly, VectorQ
from cosetmap.kernel import _horner, index_to_tuple, tuple_to_index


def quotient_affine_cycle_counts(Q: Poly, e: int, U: Poly) -> dict[int, int]:
    """Cycle counts of R -> R*X + U on GF(q)[X]/(Q^e) by direct orbit walk.

    Works on integer-encoded coefficient vectors over GF(q); q may be any
    prime power handled through the field context of Q.
    """
    ctx = Q.ctx
    q = ctx.order
    n = int(Q.degree) * e
    mod = Q ** e

    # index <-> multiplication tables for GF(q) elements (tiny fields)
    add_t = [[(ctx.from_index(a) + ctx.from_index(b)).index for b in range(q)]
             for a in range(q)]
    mul_t = [[(ctx.from_index(a) * ctx.from_index(b)).index for b in range(q)]
             for a in range(q)]

    # X^n mod Q^e as an index vector of length n
    xn = Poly.x(ctx) ** n % mod
    rep = [xn.coeff(j).index for j in range(n)]
    u = [U.coeff(j).index for j in range(n)] if n else []

    size = q ** n
    visited = bytearray(size)
    counts: dict[int, int] = {}

    def encode(c):
        idx = 0
        for j in range(n - 1, -1, -1):
            idx = idx * q + c[j]
        return idx

    for start in range(size):
        if visited[start]:
            continue
        # decode start
        c = []
        rem = start
        for _ in range(n):
            c.append(rem % q)
            rem //= q
        length = 0
        idx = start
        while not visited[idx]:
            visited[idx] = 1
            length += 1
            top = c[n - 1]
            c = [0] + c[:-1]
            if top:
                row = mul_t[top]
                for j in range(n):
                    if rep[j]:
                        c[j] = add_t[c[j]][row[rep[j]]]
            for j in range(n):
                if u[j]:
                    c[j] = add_t[c[j]][u[j]]
            idx = encode(c)
        counts[length] = counts.get(length, 0) + 1
    return counts


def shift_class_representatives(Q: Poly, e: int) -> list[tuple[str, Poly]]:
    """One shift polynomial per block case class."""
    ctx = Q.ctx
    one = ctx.one()
    if int(Q.degree) == 1 and Q.coeff(0) == -one:
        return [("nonunit", Poly.zero(ctx)), ("unit", Poly(ctx, (1,)))]
    return [("generic", Poly.zero(ctx)), ("generic", Poly(ctx, (1,)))]


def block_case(Q: Poly, e: int, U: Poly) -> tuple[Poly, int, bool]:
    """(Q, e, unit), the arguments of `block_cycle_type` for the block Q^e
    with shift U, worked out from the statement's classes: generic unless
    Q = X - 1; then nonunit when U(1) = 0, else unit, the one class with a
    unit shift (whether e is a power of p, which splits it in the statement,
    is left to the counts)."""
    ctx = Q.ctx
    if Q != Poly(ctx, (-1, 1)):
        return Q, e, False  # generic
    return Q, e, not U(ctx.one()).is_zero()  # nonunit or unit


def ceil_log(e: int, p: int) -> int:
    c = 0
    v = 1
    while v < e:
        v *= p
        c += 1
    return c


def closed_form_counts(Q: Poly, e: int, u_class: str, corrected_final: bool) -> dict[int, int]:
    """The displayed closed-form bullet counts from the block cycle-count
    statement, for e >= 2 (where they are non-degenerate).

    For the generic case the final bullet's leading exponent is p^c*deg(Q) as
    displayed and p^(c-1)*deg(Q) when `corrected_final` is set.
    """
    from cosetmap import poly_order
    ctx = Q.ctx
    q = ctx.order
    p = ctx.p
    m = int(Q.degree)
    c = ceil_log(e, p)
    out: dict[int, int] = {}
    if u_class == "generic":
        r = poly_order(Q)
        out[1] = 1
        out[r] = (q ** m - 1) // r
        for a in range(1, c):
            cnt = q ** (p ** (a - 1) * m) * (q ** (m * p ** (a - 1) * (p - 1)) - 1) // (p ** a * r)
            out[r * p ** a] = out.get(r * p ** a, 0) + cnt
        lead = p ** (c - 1) if corrected_final else p ** c
        cnt = q ** (lead * m) * (q ** (m * (e - p ** (c - 1))) - 1) // (p ** c * r)
        out[r * p ** c] = out.get(r * p ** c, 0) + cnt
    elif u_class == "nonunit":
        out[1] = q
        for a in range(1, c):
            cnt = q ** (p ** (a - 1)) * (q ** (p ** (a - 1) * (p - 1)) - 1) // p ** a
            out[p ** a] = out.get(p ** a, 0) + cnt
        cnt = q ** (p ** (c - 1)) * (q ** (e - p ** (c - 1)) - 1) // p ** c
        out[p ** c] = out.get(p ** c, 0) + cnt
    elif u_class == "unit":
        is_ppower = e > 0 and p ** c == e
        if e == 1 or is_ppower:
            out[p * e] = q ** e // (p * e)
        else:
            out[p ** c] = q ** e // p ** c
    return {k: v for k, v in out.items() if v}


def brute_affine_cycle_counts(M: MatrixQ, w: VectorQ) -> dict[int, int]:
    """Orbit walk of x -> x*M + w on the full vector space."""
    ctx = M.ctx
    q = ctx.order
    d = M.rows
    size = q ** d
    visited = bytearray(size)
    counts: dict[int, int] = {}

    def decode(i):
        return VectorQ(ctx, [ctx.from_index(i // q ** (d - 1 - j) % q) for j in range(d)])

    def encode(v):
        return sum(e.index * q ** (d - 1 - j) for j, e in enumerate(v.entries))

    for start in range(size):
        if visited[start]:
            continue
        v = decode(start)
        idx = start
        length = 0
        while not visited[idx]:
            visited[idx] = 1
            length += 1
            v = v * M + w
            idx = encode(v)
        counts[length] = counts.get(length, 0) + 1
    return counts


def all_invertible_matrices(ctx, d: int):
    q = ctx.order
    for idx in itertools.product(range(q), repeat=d * d):
        M = MatrixQ(ctx, tuple(tuple(ctx.from_index(idx[i * d + j]) for j in range(d))
                               for i in range(d)))
        if M.is_invertible():
            yield M


def is_complete_table(images, p: int, t: int, sign: int = 1) -> bool:
    """Complete-mapping test (orthomorphism test with sign=-1) that decodes
    x and g(x) for every point."""
    n = p ** t
    if sorted(images) != list(range(n)):
        return False
    doubled = []
    for i in range(n):
        u = index_to_tuple(i, p, t)
        v = index_to_tuple(images[i], p, t)
        doubled.append(tuple_to_index(tuple((b + sign * a) % p for a, b in zip(u, v)), p))
    return sorted(doubled) == list(range(n))


def reference_analyze(table, p: int, dims: int):
    """The report of `oracle.analyze` with each answer computed on its own:
    the bijection test, and the complete and orthomorphism tests by the
    pointwise `is_complete_table`, each of which repeats the bijection test."""
    from cosetmap.cycletype import ct_of_permutation
    from cosetmap.kernel import is_prime
    from cosetmap.oracle import AnalysisReport
    if p ** dims != table.n:
        raise ValueError("domain size must equal p^dims")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    images = table.images
    is_bij = sorted(images) == list(range(table.n))
    fixed = tuple(i for i in range(table.n) if images[i] == i)
    return AnalysisReport(is_bij, is_complete_table(images, p, dims),
                          is_complete_table(images, p, dims, -1),
                          ct_of_permutation(images) if is_bij else None, fixed)


def random_complete_mapping(p: int, t: int, rng: random.Random, max_tries: int = 20000):
    """Seeded shuffle search for a complete mapping of GF(p)^t; falls back to
    systematic search on tiny domains, returns None if provably none exists."""
    n = p ** t
    images = list(range(n))
    for _ in range(max_tries):
        rng.shuffle(images)
        if is_complete_table(images, p, t):
            return list(images)
    if n <= 8:
        for perm in itertools.permutations(range(n)):
            if is_complete_table(list(perm), p, t):
                return list(perm)
        return None
    raise RuntimeError("sampling failed on a domain too large for exhaustion")


def random_invertible(ctx, d: int, rng: random.Random) -> MatrixQ:
    q = ctx.order
    while True:
        M = MatrixQ(ctx, tuple(tuple(ctx.from_index(rng.randrange(q)) for _ in range(d))
                               for _ in range(d)))
        if M.is_invertible():
            return M


def one_cycle_reference_tables(p: int, kmax: int) -> list[list[int]]:
    """Tables of the single-cycle maps built from the two-case recursion
    (coset shift through the smaller map, +1 on the first coordinate over the
    zero coset), independent of the closed form used by the library."""
    tables = [[(i + 1) % p for i in range(p)]]  # k = 1: x -> x+1
    for k in range(2, kmax + 1):
        prev = tables[-1]
        n = p ** k
        table = []
        for i in range(n):
            coords = index_to_tuple(i, p, k)
            w, u = coords[0], coords[1:]
            uimg = index_to_tuple(prev[tuple_to_index(u, p)], p, k - 1)
            wimg = (w + 1) % p if all(c == 0 for c in u) else w
            table.append(tuple_to_index((wimg,) + uimg, p))
        tables.append(table)
    return tables


def recursive_block_multisets(ctx, d: int, exclude=()):
    """Reference walk over conjugacy classes of GL_d(q): one generator frame
    per irreducible polynomial, skipped or used, exponent multisets (the empty
    one first) in lexicographic order.  Its recursion is as deep as the list of
    irreducibles, so it is only usable for small (d, q)."""
    from cosetmap import enumerate_irreducibles
    irred = [Q for Q in enumerate_irreducibles(ctx, d)
             if not (int(Q.degree) == 1 and Q.coeff(0).is_zero())]
    irred = [Q for Q in irred if Q not in exclude]

    def exponent_multisets(budget):
        def grow(minimum, left):
            yield []
            for e in range(minimum, left + 1):
                for rest in grow(e, left - e):
                    yield [e] + rest
        yield from grow(1, budget)

    def rec(remaining: int, idx: int):
        if remaining == 0:
            yield []
            return
        if idx == len(irred):
            return
        Q = irred[idx]
        dq = int(Q.degree)
        for exps in exponent_multisets(remaining // dq):
            used = sum(exps) * dq
            if used > remaining:
                continue
            for rest in rec(remaining - used, idx + 1):
                yield [(Q, e) for e in exps] + rest

    yield from rec(d, 0)


def gl_class_numbers(q: int, dmax: int) -> list[int]:
    """Numbers of conjugacy classes of GL_d(q) for d = 0..dmax: the
    coefficients of prod_{i>=1} (1 - x^i) / (1 - q x^i) (Macdonald 1981)."""
    series = [1] + [0] * dmax
    for i in range(1, dmax + 1):
        # multiply by 1/(1 - q x^i), then by (1 - x^i)
        for n in range(i, dmax + 1):
            series[n] += q * series[n - i]
        for n in range(dmax, i - 1, -1):
            series[n] -= series[n - i]
    return series


def reachable_affine_types(ctx, d: int, exclude=()) -> set:
    """Cycle types of x -> x*M + v over all invertible M (Q != X and Q not in
    `exclude` for every primary block Q^e of M) and all v, by a reachability
    DP over block items (Q, e) of weight e*deg Q instead of a walk over
    conjugacy classes.

    Each item contributes the cycle type of one of its shift classes (shift 0
    or 1, through the library's per-block types, which the orbit-walk tests
    check); types of the whole space are products under the product action.
    An item may be used any number of times, so items with the same weight
    and the same type set are interchangeable and only one of them is kept.
    """
    from cosetmap import block_cycle_type, enumerate_irreducibles, weixu
    items = set()
    for Q in enumerate_irreducibles(ctx, d):
        if (int(Q.degree) == 1 and Q.coeff(0).is_zero()) or Q in exclude:
            continue
        for e in range(1, d // int(Q.degree) + 1):
            cases = {block_case(Q, e, U) for _, U in shift_class_representatives(Q, e)}
            types = frozenset(block_cycle_type(*case) for case in cases)
            items.add((int(Q.degree) * e, types))
    reach = [set() for _ in range(d + 1)]
    reach[0].add(CycleType({1: 1}))
    for weight, types in items:
        for n in range(weight, d + 1):
            reach[n] |= {weixu(a, t) for a in reach[n - weight] for t in types}
    return reach[d]


def per_class_walk(complete: bool, d: int, p: int):
    """(t, blocks, units) for every class of `block_multisets` and every
    choice of unit shifts, in that order, with `shift_class_types` run on
    every class: the class walk before types were kept per block signature."""
    from cosetmap import field
    from cosetmap.affine_ct import block_multisets, shift_class_types
    for blocks in block_multisets(field(p), d, complete):
        for units, t in shift_class_types(blocks):
            yield t, blocks, units


def scan_witness(gamma, d: int, p: int, complete: bool):
    """(blocks, units) of the first class and choice of unit shifts that
    reaches gamma, by the scan realization used before the walk kept a
    witness index: walk every class of GL_d(p), skip, when `complete`, those
    whose block-diagonal companion matrix fails `is_cgl`, and take the first
    matching choice of shifts.  None if nothing matches."""
    from cosetmap import MatrixQ, companion, field, is_cgl
    from cosetmap.affine_ct import block_multisets, shift_class_types
    ctx = field(p)
    for blocks in block_multisets(ctx, d):
        M = MatrixQ.block_diag([companion(Q ** e) for Q, e in blocks])
        if complete and not is_cgl(M):
            continue
        for units, total in shift_class_types(blocks):
            if total == gamma:
                return blocks, units
    return None


def pointwise_affine_table(M: MatrixQ, v: VectorQ) -> list[int]:
    """Index table of x -> x*M + v over a prime field, in integer arithmetic
    mod p, one point at a time."""
    p, n = M.ctx.p, M.rows
    rows = M.int_rows()
    shift = [c.index for c in v.entries]
    out = []
    for x in range(p ** n):
        coords = index_to_tuple(x, p, n)
        out.append(tuple_to_index([(shift[j] + sum(coords[i] * rows[i][j] for i in range(n))) % p
                                   for j in range(n)], p))
    return out


def forward_product_by_then(f, cycle):
    """The coset maps along `cycle` composed with `AffineMap.then`, one
    matrix and vector product per step: the reference for the code-row
    fold in `cwaffine._forward_codes`."""
    from cosetmap import AffineMap
    ctx, d = f.splitting.ctx, f.splitting.d
    acc = AffineMap(MatrixQ.identity(ctx, d), VectorQ.zero(ctx, d))
    for i in cycle:
        acc = acc.then(AffineMap(*f.per_coset[i]))
    return acc


def cw_map(s, triples):
    """The coset-wise map over the splitting s from the paper's data: one
    triple (alpha_u, omega_u, nu_u) per coset label u, in label order, sending
    w + u to (w*alpha_u + omega_u) + (u + nu_u).  The coset map u -> u + nu_u
    is worked out digit by digit mod p; alpha_u and omega_u given as rows and
    entries are wrapped in `MatrixQ` and `VectorQ`."""
    from cosetmap import CosetWiseAffineMap
    triples = list(triples)
    top = []
    for u, (_, _, nu) in zip(s.coset_labels(), triples):
        nu = nu.codes if isinstance(nu, VectorQ) else tuple(nu)
        if len(nu) != s.t:
            raise ValueError("nu must have t coordinates")
        top.append(tuple_to_index([(a + b) % s.p for a, b in zip(u, nu)], s.p))
    return CosetWiseAffineMap(s, top, [
        (alpha if isinstance(alpha, MatrixQ) else MatrixQ(s.ctx, alpha),
         omega if isinstance(omega, VectorQ) else VectorQ(s.ctx, omega))
        for alpha, omega, _ in triples])


def wreath_mul(f1, f2):
    """The product of two coset-wise maps, f1 first, by the wreath
    multiplication rule: the tops composed, and on each coset u the bottom
    map of u followed (`AffineMap.then`) by that of f1's top(u).  The
    reference for `cw_compose`."""
    from cosetmap import AffineMap, CosetWiseAffineMap
    if f1.splitting != f2.splitting:
        raise ValueError("mismatched splittings")
    bottoms = [AffineMap(*f1.per_coset[i]).then(AffineMap(*f2.per_coset[j]))
               for i, j in enumerate(f1.top)]
    return CosetWiseAffineMap(f1.splitting, [f2.top[j] for j in f1.top],
                              [(b.matrix, b.shift) for b in bottoms])


def cw_eval(f, x: VectorQ) -> VectorQ:
    """The coset-wise map f at the point x = (w, u) of GF(p)^(d+t), from the
    data of the coset of u: the pointwise reference for its value tables."""
    s = f.splitting
    if len(x) != s.n:
        raise ValueError("vector has the wrong dimension")
    w, u = (VectorQ.from_codes(s.ctx, c) for c in (x.codes[:s.d], x.codes[s.d:]))
    alpha, omega, nu = f.data(u.codes)
    return VectorQ.from_codes(s.ctx, (w * alpha + omega).codes + (u + nu).codes)


def sylow_type_targets(p: int, k: int) -> list[CycleType]:
    """All p-power cycle types of degree p^k (every part a power of p):
    exactly the types the recursive Sylow-type constructor can realize."""
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


def explicit_member_realization(gamma, d: int, p: int, ell: int, seed: int):
    """(factors, w) for a complete ell-fold target over GF(3)^1 or GF(2)^2,
    ell >= 2, by the scan realization used before the witness index served
    these cases: the first member of the explicit product set, then the first
    shift in index order, whose affine map has type gamma.  None if nothing
    matches."""
    from cosetmap import AffineMap, affine_cycle_type, factor_into_cgl, field
    from cosetmap.affine_ct import product_members
    ctx = field(p)
    for M in product_members(d, p):
        for widx in itertools.product(range(p), repeat=d):
            w = VectorQ(ctx, widx)
            if affine_cycle_type(AffineMap(M, w)) == gamma:
                return factor_into_cgl(M, ell, seed=seed).factors, w
    return None


def one_cycle_closed_form_images(p: int, k: int) -> list[int]:
    """The one-cycle map of GF(p)^k on lexicographic indices by the closed
    form the library used before it read each coset's nu from its label:
    decode each point, add 1 to coordinates ell..k where ell is the last
    index with a nonzero coordinate (clamped to 1), encode again."""
    out = []
    for i in range(p ** k):
        x = list(index_to_tuple(i, p, k))
        ell = 1
        for j in range(k, 0, -1):
            if x[j - 1] != 0:
                ell = j
                break
        for j in range(ell - 1, k):
            x[j] += 1
        out.append(tuple_to_index(x, p))
    return out


def prcf_affine_cycle_type(f):
    """Cycle type of x -> x*A + v by the canonical-form path the library used
    before it read the type from elementary divisors: take `prcf(A)`, carry v
    into its basis with the basis change, and classify each block by its
    segment of the shift."""
    from cosetmap import block_cycle_type, prcf, weixu_all
    form = prcf(f.matrix)
    v = f.shift * form.basis_change
    parts = []
    off = 0
    for Q, e in form.blocks:
        n = int(Q.degree) * e
        seg = Poly.from_codes(f.ctx, v.codes[off:off + n])
        parts.append(block_cycle_type(*block_case(Q, e, seg)))
        off += n
    return weixu_all(parts)


def prcf_gamma(M: MatrixQ) -> frozenset:
    """Gamma set of M from the blocks of `prcf(M)`."""
    from cosetmap import prcf
    from cosetmap.affine_ct import shift_class_types
    return frozenset(t for _, t in shift_class_types(prcf(M).blocks))


def krylov_minpoly(A: MatrixQ) -> Poly:
    """Minimal polynomial of A from the first linear dependence among the
    flattened powers I, A, A^2, ... (the method of the library's former
    `minpoly`, before it read the minimal polynomial from the elementary
    divisors)."""
    from cosetmap.linalg import _identity, _matmul, _solve_columns
    K = A.ctx.ops()
    n = A.rows
    power = _identity(K, n)
    flats = []
    while True:
        flat = [a for row in power for a in row]
        try:   # sum c_i A^i = A^m over i < m, consistent once A^m depends on them
            sol = _solve_columns(K, [[f[j] for f in flats] for j in range(len(flat))], flat,
                                 len(flats))
        except ValueError:
            flats.append(flat)
            power = _matmul(K, power, A.codes, n)
            continue
        return Poly.from_codes(A.ctx, [K.neg(c) for c in sol] + [K.one])


def cofactor_sieve_irreducibles(ctx, max_degree: int) -> list[Poly]:
    """All monic irreducibles of degree <= max_degree over GF(q) in grade-lex
    order, by marking every product Q*(L + X^(d-i)) one schoolbook product at
    a time (the library's sieve before it built each Q's multiples as one
    GF(p)-span of indices); no cache."""
    from cosetmap.kernel import _pmul
    K = ctx.ops()
    q = ctx.order
    one = (K.one,)
    found = []
    for d in range(1, max_degree + 1):
        reducible = bytearray(q ** d)
        for Q in found:
            i = len(Q.codes) - 1
            if 2 * i > d:
                break
            for lower in itertools.product(range(q), repeat=d - i):
                reducible[tuple_to_index(_pmul(K, Q.codes, lower + one)[:d], q)] = 1
        found += [Poly.from_codes(ctx, lower + one)
                  for idx, lower in enumerate(itertools.product(range(q), repeat=d))
                  if not reducible[idx]]
    return found


def descent_poly_order(Q: Poly) -> int:
    """Order of X modulo the monic irreducible Q != X by square-and-multiply
    powers: X^(q^m - 1) = 1 first, then the exponent divided by each prime
    factor while X to the quotient is still 1 (the library's method before it
    powered through the Frobenius matrix)."""
    from cosetmap.kernel import factorize
    x, one = Poly.x(Q.ctx), Poly.one(Q.ctx)
    n = Q.ctx.order ** int(Q.degree) - 1
    assert x.pow_mod(n, Q) == one
    order = n
    for prime in factorize(n):
        while order % prime == 0 and x.pow_mod(order // prime, Q) == one:
            order //= prime
    return order


def scan_default_modulus(p: int, k: int) -> tuple[int, ...]:
    """The default modulus of GF(p^k) by the search the library ran before it
    started the constant term at 1: the first candidate c + (1,) for c in
    `itertools.product(range(p), repeat=k)` that is irreducible."""
    from cosetmap.kernel import _is_irreducible, _prime_ops
    fp = _prime_ops(p)
    return next(c + (1,) for c in itertools.product(range(p), repeat=k)
                if _is_irreducible(fp, c + (1,)))


def reference_elem_to_json(x):
    """The element encoder as it was: read the coordinates of a FieldElement."""
    if x.ctx.k == 1:
        return x.coeffs[0]
    return list(x.coeffs)


def reference_elem_from_json(ctx, obj):
    """The element decoder as it was: a FieldElement from a residue or k
    coordinates, each taken mod p."""
    coords = (obj,) + (0,) * (ctx.k - 1) if isinstance(obj, int) else tuple(obj)
    if len(coords) != ctx.k:
        raise ValueError(f"expected {ctx.k} coordinates")
    return ctx.from_index(tuple_to_index([int(c) % ctx.p for c in coords], ctx.p))


def reference_to_json(value):
    """The JSON form of a VectorQ, MatrixQ, Poly or coset-wise map, one
    FieldElement per entry; a coset's nu is its image label minus its label,
    digit by digit mod p."""
    if isinstance(value, VectorQ):
        return [reference_elem_to_json(e) for e in value.entries]
    if isinstance(value, MatrixQ):
        return [[reference_elem_to_json(value.entry(i, j)) for j in range(value.cols)]
                for i in range(value.rows)]
    if isinstance(value, Poly):
        return [reference_elem_to_json(c) for c in value.coeffs]
    s = value.splitting
    return {"p": s.p, "d": s.d, "t": s.t, "cosets": [
        {"u": list(u), "alpha": reference_to_json(alpha), "omega": reference_to_json(omega),
         "nu": [(b - a) % s.p for a, b in zip(u, index_to_tuple(image, s.p, s.t))]}
        for u, (alpha, omega), image in zip(s.coset_labels(), value.per_coset, value.top)]}


def reference_from_json(kind, ctx, obj):
    """Decode a VectorQ, MatrixQ or Poly (`kind`) one FieldElement per entry."""
    if kind is MatrixQ:
        return MatrixQ(ctx, [[reference_elem_from_json(ctx, e) for e in row] for row in obj])
    return kind(ctx, [reference_elem_from_json(ctx, e) for e in obj])


def moore_matrix(ctx) -> MatrixQ:
    """Rows indexed by basis power i, columns by Frobenius power j: w^(i*p^j)."""
    from cosetmap.kernel import _power
    if ctx.k < 2:
        raise ValueError("the Moore matrix needs an extension field")
    K, p, k = ctx.ops(), ctx.p, ctx.k
    w = p ** (k - 2)  # the code of the generator X
    return MatrixQ.from_codes(ctx, [[_power(K.mul, w, i * p ** j, K.one) for j in range(k)]
                                    for i in range(k)])


def coordinate_functions(ctx) -> list[Poly]:
    """Linearized polynomials pi_0..pi_{k-1} giving the coordinates of x over
    the power basis: coefficient of Y^(p^j) in pi_i is column i of the inverse
    Moore matrix."""
    p = ctx.p
    polys = []
    for column in zip(*moore_matrix(ctx).inverse().codes):
        codes = [0] * (p ** (ctx.k - 1) + 1)
        for j, c in enumerate(column):
            codes[p ** j] = c
        polys.append(Poly.from_codes(ctx, codes))
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


def reference_one_cycle_polynomial(ctx) -> Poly:
    """The one-cycle polynomial from the coordinate functionals: products of
    the indicators 1 - pi_j^(p-1), each reduced modulo Y^q - Y."""
    if ctx.k == 1:
        return Poly(ctx, (1, 1))
    p, k = ctx.p, ctx.k
    pis = coordinate_functions(ctx)
    # pi_j^(p-1) has degree q - q/p, so it needs no reduction modulo Y^q - Y;
    # w^i for i < k is a basis element, of code p^(k-1-i)
    g = Poly.one(ctx) - pis[1] ** (p - 1)
    for j in range(2, k):
        indicator = Poly.one(ctx) - pis[j] ** (p - 1)
        g = _reduce_exponents(indicator * (Poly.from_codes(ctx, (p ** (k - j),)) + g))
    return _reduce_exponents(Poly.x(ctx) + Poly.from_codes(ctx, (1,)) + g)


def horner_poly_table(P: Poly) -> list[int]:
    """Image codes of P at every code of its field, by one Horner pass per
    point: the O(q^2) evaluation that `oracle.evaluate_poly_table` replaced
    with one transform."""
    K = P.ctx.ops()
    return [_horner(K, P.codes, a)[1] for a in range(P.ctx.order)]


def lagrange_interpolate(ctx, values) -> Poly:
    """The polynomial of degree < q through all q points of GF(q), from the
    Lagrange basis -(Y^q - Y)/(Y - a) at each point a: the O(q^2)
    interpolation that `oracle.interpolate` replaced with one transform."""
    q = ctx.order
    values = list(values)
    if len(values) != q:
        raise ValueError("interpolation needs all q values")
    K = ctx.ops()
    z = [0] * (q + 1)  # Y^q - Y
    z[1] = K.neg(K.one)
    z[q] = K.one
    result = [0] * q
    for a, value in enumerate(values):
        y = ctx.code(value)
        if y:
            result = K.axpy(result, K.neg(y), _horner(K, z, a)[0])
    return Poly.from_codes(ctx, result)


def complete_mappings(p: int, n: int):
    """Every complete mapping g of GF(p)^n (g and x -> g(x) + x both
    bijective) as its image tuple on lexicographic indices, in lexicographic
    order: a backtracking search that chooses g(0), g(1), ... in turn and
    keeps the used images and the used sums x + g(x) as bit masks.  Digits
    are added by hand; nothing of cosetmap is used."""
    q = p ** n
    places = [p ** j for j in range(n)]
    add = [[sum((x // w + y // w) % p * w for w in places) for y in range(q)] for x in range(q)]
    g = [0] * q

    def extend(x, images, sums):
        if x == q:
            yield tuple(g)
            return
        free = ~images & ((1 << q) - 1)
        while free:
            low = free & -free
            free ^= low
            y = low.bit_length() - 1
            if not sums >> add[x][y] & 1:
                g[x] = y
                yield from extend(x + 1, images | low, sums | 1 << add[x][y])

    return extend(0, 0, 0)


def complete_mapping_census(p: int, n: int) -> tuple[int, dict[str, int]]:
    """(the number of complete mappings of GF(p)^n, {cycle type: how many
    have it}) from `complete_mappings` and an orbit walk of each, the types
    written as `CycleType` prints them ("x1^2 x5")."""
    types = collections.Counter()
    for g in complete_mappings(p, n):
        lengths = collections.Counter()
        seen = [False] * len(g)
        for start in range(len(g)):
            x, length = start, 0
            while not seen[x]:
                seen[x] = True
                x, length = g[x], length + 1
            if length:
                lengths[length] += 1
        types[" ".join(f"x{ell}" if c == 1 else f"x{ell}^{c}"
                       for ell, c in sorted(lengths.items()))] += 1
    return sum(types.values()), dict(types)
