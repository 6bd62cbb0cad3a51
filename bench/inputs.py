"""Seeded inputs for the three workloads, plus the harness's own field
arithmetic.

Nothing here imports cosetmap: the inputs depend only on the seed, and the
arithmetic is an independent reimplementation used to generate invertible
matrices and to check answers.  Elements are integer indices in cosetmap's
convention: the coordinate tuple over the power basis, first coordinate most
significant.

Every workload is a sequence of decks.  A deck has a fixed composition (the
same kinds, fields and sizes in every deck) and seeded contents (matrices,
shifts, base maps, targets, order), so a run's cost does not depend on which
seed drew it.  Deck i of seed s depends only on (workload, s, i).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

# ---------------------------------------------------------------------------
# GF(p^k) on element indices
# ---------------------------------------------------------------------------

# cosetmap ships this modulus for GF(27); every other default modulus is the
# first monic irreducible of degree k with coefficient tuples in lexicographic
# order, constant coefficient most significant.
_BUNDLED = {(3, 3): (1, 2, 0, 1)}


def _pmod(a, m, p):
    """Remainder of coefficient list a modulo monic m (constant term first)."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return [c % p for c in a[:dm]]


def _irreducible(m, p):
    k = len(m) - 1
    for d in range(1, k // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            if not any(_pmod(m, lower + (1,), p)):
                return False
    return True


def default_modulus(p: int, k: int) -> tuple:
    if (p, k) in _BUNDLED:
        return _BUNDLED[(p, k)]
    for lower in itertools.product(range(p), repeat=k):
        if _irreducible(lower + (1,), p):
            return lower + (1,)
    raise ValueError(f"no irreducible of degree {k} over GF({p})")


class HField:
    """GF(p^k) with elements as indices 0..q-1; log tables for products."""

    _cache: dict = {}

    def __new__(cls, p: int, k: int = 1):
        key = (p, k)
        if key not in cls._cache:
            self = super().__new__(cls)
            self._build(p, k)
            cls._cache[key] = self
        return cls._cache[key]

    def _build(self, p, k):
        self.p, self.k, self.q = p, k, p ** k
        q = self.q
        self.modulus = default_modulus(p, k) if k > 1 else None
        self.digits = [tuple(i // p ** (k - 1 - j) % p for j in range(k)) for i in range(q)]
        self.index = {d: i for i, d in enumerate(self.digits)}
        if k == 1:
            return
        self.addt = [[self.index[tuple((x + y) % p for x, y in zip(da, db))]
                      for db in self.digits] for da in self.digits]
        self.negt = [self.index[tuple((-x) % p for x in d)] for d in self.digits]

        def slow_mul(a, b):
            da, db = self.digits[a], self.digits[b]
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    prod[i + j] += x * y
            rem = _pmod(prod, self.modulus, p)
            return self.index[tuple(rem + [0] * (k - len(rem)))]

        one = self.index[(1,) + (0,) * (k - 1)]
        for g in range(2, q):
            exp = [one]
            x = g
            while x != one:
                exp.append(x)
                x = slow_mul(x, g)
            if len(exp) == q - 1:
                break
        self.exp = exp
        self.log = [0] * q
        for e, x in enumerate(exp):
            self.log[x] = e

    def add(self, a, b):
        return (a + b) % self.p if self.k == 1 else self.addt[a][b]

    def neg(self, a):
        return (-a) % self.p if self.k == 1 else self.negt[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.k == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self.exp[(-self.log[a]) % (self.q - 1)]

    @property
    def one(self):
        return 1 if self.k == 1 else self.index[(1,) + (0,) * (self.k - 1)]


def rank(F: HField, rows) -> int:
    work = [list(r) for r in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = F.inv(work[r][c])
        work[r] = [F.mul(inv, a) for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(work[i], work[r])]
        r += 1
    return r


def mat_mul(F: HField, A, B):
    out = []
    for row in A:
        new = []
        for j in range(len(B[0])):
            acc = 0
            for a, brow in zip(row, B):
                if a:
                    acc = F.add(acc, F.mul(a, brow[j]))
            new.append(acc)
        out.append(new)
    return out


def is_complete_matrix(F: HField, M) -> bool:
    """Invertible with no eigenvalue -1."""
    n = len(M)
    plus = [[F.add(M[i][j], F.one if i == j else 0) for j in range(n)] for i in range(n)]
    return rank(F, M) == n and rank(F, plus) == n


def random_invertible(F: HField, n: int, rng: random.Random):
    while True:
        M = [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)]
        if rank(F, M) == n:
            return M


# ---------------------------------------------------------------------------
# Cycle types as sorted ((length, count), ...) tuples
# ---------------------------------------------------------------------------

def ct_norm(pairs) -> tuple:
    merged: dict[int, int] = {}
    for length, count in pairs:
        if count:
            merged[int(length)] = merged.get(int(length), 0) + int(count)
    return tuple(sorted(merged.items()))


def ct_text(ct) -> str:
    """cosetmap's text form, e.g. 'x1^3 x3^2'."""
    return " ".join(f"x{l}" if k == 1 else f"x{l}^{k}" for l, k in ct)


def ct_degree(ct) -> int:
    return sum(l * k for l, k in ct)


def ct_of_images(images) -> tuple:
    seen = bytearray(len(images))
    counts: dict[int, int] = {}
    for start in range(len(images)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = 1
            i = images[i]
            length += 1
        counts[length] = counts.get(length, 0) + 1
    return tuple(sorted(counts.items()))


def cycles_of(images):
    """Cycles sorted by least element, each starting there (cosetmap's
    enumeration for construct_main targets)."""
    seen = set()
    out = []
    for start in range(len(images)):
        if start in seen:
            continue
        cyc = []
        i = start
        while i not in seen:
            seen.add(i)
            cyc.append(i)
            i = images[i]
        out.append(cyc)
    return out


# ---------------------------------------------------------------------------
# Complete base maps of GF(p)^t on lexicographic indices
# ---------------------------------------------------------------------------

def _random_complete_1d(p: int, rng: random.Random) -> list[int]:
    while True:
        g = list(range(p))
        rng.shuffle(g)
        if len({(g[x] + x) % p for x in range(p)}) == p:
            return g


def random_complete_map(p: int, t: int, rng: random.Random, fixed_point: bool) -> list[int]:
    """A complete mapping of GF(p)^t, t in {1, 2}.  For t = 2 it is
    (u, v) -> (h_v(u), k(v)) with complete h_v, k of GF(p), conjugated by a
    random invertible linear map; translating the argument keeps it complete,
    which is used to force a fixed point at 0."""
    if t == 1:
        g = _random_complete_1d(p, rng)
    else:
        k = _random_complete_1d(p, rng)
        hs = [_random_complete_1d(p, rng) for _ in range(p)]
        raw = [hs[v][u] * p + k[v] for u in range(p) for v in range(p)]
        F = HField(p)
        L = random_invertible(F, 2, rng)
        Linv_rows = _inverse2(F, L)

        def lin(i, A):
            x = (i // p, i % p)
            return ((x[0] * A[0][0] + x[1] * A[1][0]) % p) * p + (x[0] * A[0][1] + x[1] * A[1][1]) % p

        g = [lin(raw[lin(i, L)], Linv_rows) for i in range(p * p)]
    if fixed_point:
        n = len(g)
        a = rng.randrange(n)
        shift = g[a]
        g = [_sub_index(g[_add_index(x, a, p, t)], shift, p, t) for x in range(n)]
    return g


def _inverse2(F, L):
    det = F.sub(F.mul(L[0][0], L[1][1]), F.mul(L[0][1], L[1][0]))
    di = F.inv(det)
    return [[F.mul(di, L[1][1]), F.mul(di, F.neg(L[0][1]))],
            [F.mul(di, F.neg(L[1][0])), F.mul(di, L[0][0])]]


def _digits(i, p, t):
    return [i // p ** (t - 1 - j) % p for j in range(t)]


def _undigits(ds, p):
    out = 0
    for d in ds:
        out = out * p + d % p
    return out


def _add_index(i, j, p, t):
    return _undigits([a + b for a, b in zip(_digits(i, p, t), _digits(j, p, t))], p)


def _sub_index(i, j, p, t):
    return _undigits([a - b for a, b in zip(_digits(i, p, t), _digits(j, p, t))], p)


# ---------------------------------------------------------------------------
# Deck compositions
# ---------------------------------------------------------------------------

# cycletype: one (p, k, n) per deck entry.  Prime fields up to n = 12 where a
# warm query stays under about 1.5 s; extension fields up to the size whose
# irreducible enumeration fits the warm-up.
CYCLETYPE_SIZES = (
    [(2, 1, n) for n in range(2, 13)] + [(3, 1, n) for n in range(2, 13)]
    + [(5, 1, n) for n in range(2, 12)] + [(7, 1, n) for n in range(2, 10)]
    + [(2, 2, n) for n in range(2, 7)] + [(2, 3, n) for n in range(2, 7)]
    + [(3, 2, n) for n in range(2, 7)] + [(5, 2, n) for n in range(2, 6)]
    + [(3, 3, n) for n in range(2, 6)]
)
CYCLETYPE_GAMMA_SHARE = 4  # one query in four is gamma_of_matrix

# construct: construct_main sizes (p, d, t), every one with reachable targets,
# plus requests whose target for one fixed point is unreachable (about one in
# ten of the deck).  p = 5 stops at d = 3 and p = 7 at d = 3, t = 1: their
# gamma sets and per-request scans beyond that cost seconds each.
CONSTRUCT_MAIN_SIZES = (
    [(3, d, t) for d in (1, 2, 3, 4) for t in (1, 2)]
    + [(5, 1, 1), (5, 1, 2), (5, 2, 1), (5, 2, 2), (5, 3, 1), (5, 3, 2)]
    + [(7, 1, 1), (7, 1, 2), (7, 2, 1), (7, 2, 2), (7, 3, 1)]
)
CONSTRUCT_INFEASIBLE_SIZES = ((3, 1, 1), (3, 2, 2), (3, 3, 1), (5, 1, 2), (5, 2, 1), (7, 1, 1))
SYLOW_ORDERS = (27, 81, 243, 729, 125, 625, 343)
ONE_CYCLE_SIZES = ((3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3))
# q = 9..125; q = 343 took 3.5 s a round trip, a third of the deck, and left
# only two decks per run
POLY_SIZES = ((3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2))


def _rng(workload: str, seed: int, deck: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{deck}")


def cycletype_deck(seed: int, deck: int) -> list[dict]:
    rng = _rng("cycletype", seed, deck)
    sizes = list(CYCLETYPE_SIZES)
    rng.shuffle(sizes)
    gamma_at = set(rng.sample(range(len(sizes)), len(sizes) // CYCLETYPE_GAMMA_SHARE))
    ops = []
    for i, (p, k, n) in enumerate(sizes):
        F = HField(p, k)
        ops.append({
            "kind": "gamma" if i in gamma_at else "act",
            "p": p, "k": k, "n": n,
            "M": random_invertible(F, n, rng),
            "v": [rng.randrange(F.q) for _ in range(n)],
        })
    return ops


def _sylow_target(p: int, k: int, rng: random.Random) -> tuple:
    """A random type of degree p^k with every part a power of p; the
    fixed-point count is then divisible by p, as the constructor needs."""
    left = p ** k
    counts = {}
    for j in range(k, 0, -1):
        top = left // p ** j
        c = rng.randint(0, top) if rng.random() < 0.7 else 0
        counts[p ** j] = c
        left -= c * p ** j
    counts[1] = left
    return ct_norm(counts.items())


def infeasible_type(p: int, d: int) -> tuple:
    """Type of x -> -x on GF(p)^d: an affine involution, which needs the
    eigenvalue -1, so no complete linear part realizes it."""
    return ct_norm([(1, 1), (2, (p ** d - 1) // 2)])


def construct_deck(seed: int, deck: int) -> list[dict]:
    rng = _rng("construct", seed, deck)
    ops = []
    mains = [(size, False) for size in CONSTRUCT_MAIN_SIZES]
    mains += [(size, True) for size in CONSTRUCT_INFEASIBLE_SIZES]
    for (p, d, t), infeasible in mains:
        g = random_complete_map(p, t, rng, fixed_point=infeasible)
        counters: dict[int, int] = {}
        targets = []
        for cyc in cycles_of(g):
            ell = len(cyc)
            counters[ell] = counters.get(ell, 0) + 1
            targets.append([ell, counters[ell], rng.randrange(2 ** 31)])
        if infeasible:
            fixed = [tg for tg in targets if tg[0] == 1]
            rng.choice(fixed)[2] = -1  # -1 marks the unreachable involution type
        ops.append({"kind": "main", "p": p, "d": d, "t": t, "g": g,
                    "targets": targets, "seed": rng.randrange(2 ** 31),
                    "infeasible": infeasible})
    for q in SYLOW_ORDERS:
        p, k = _prime_power(q)
        ops.append({"kind": "sylow", "q": q, "p": p, "k": k,
                    "target": _sylow_target(p, k, rng), "seed": rng.randrange(2 ** 31)})
    for p, k in ONE_CYCLE_SIZES:
        ops.append({"kind": "onecycle", "p": p, "k": k})
    for p, k in POLY_SIZES:
        ops.append({"kind": "poly", "p": p, "k": k})
    rng.shuffle(ops)
    return ops


def _prime_power(q: int) -> tuple[int, int]:
    p = next(f for f in range(2, q + 1) if q % f == 0)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return p, k


def fingerprint(workload: str, seed: int, decks: int = 4) -> str:
    """sha256 over the first `decks` decks; equal fingerprints mean equal
    inputs, because deck i depends only on (workload, seed, i)."""
    make = DECKS[workload]
    h = hashlib.sha256()
    for i in range(decks):
        h.update(json.dumps(make(seed, i), sort_keys=True).encode())
    return h.hexdigest()


def affine_images(F: HField, M, v) -> list[int]:
    """Image table of x -> x*M + v on GF(q)^n in lexicographic index order,
    built one coordinate at a time (no canonical form involved)."""
    n = len(M)
    q = F.q
    add, mul = F.add, F.mul
    lin = [tuple([0] * n)]
    for i in range(n):
        row = M[i]
        scaled = [tuple(mul(c, a) for a in row) for c in range(q)]
        lin = [tuple(add(a, b) for a, b in zip(base, s)) for base in lin for s in scaled]
    out = []
    for img in lin:
        idx = 0
        for a, b in zip(img, v):
            idx = idx * q + add(a, b)
        out.append(idx)
    return out


# ---------------------------------------------------------------------------
# cli_cold requests
# ---------------------------------------------------------------------------

ORBIT_WALK_MAX = 20000  # largest domain whose answers are checked point by point


def _elem_json(F: HField, a):
    return a if F.k == 1 else list(F.digits[a])


def _matrix_json(F: HField, M):
    return [[_elem_json(F, a) for a in row] for row in M]


def _poly_text(coeffs) -> str:
    """Prime-field polynomial, constant term first, in parse_poly syntax."""
    terms = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c:
            x = "" if d == 0 else ("X" if d == 1 else f"X^{d}")
            terms.append(str(c) if not x else (x if c == 1 else f"{c}*{x}"))
    return "+".join(terms)


def _companion(F: HField, coeffs):
    """Row convention: row i is X^(i+1) reduced modulo the monic polynomial."""
    n = len(coeffs) - 1
    M = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n - 1)]
    M.append([F.neg(c) for c in coeffs[:n]])
    return M


def _random_complete_affine_type(p: int, d: int, rng: random.Random) -> tuple:
    F = HField(p)
    while True:
        M = random_invertible(F, d, rng)
        if is_complete_matrix(F, M):
            break
    w = [rng.randrange(p) for _ in range(d)]
    return ct_of_images(affine_images(F, M, w))


def _table_report(images, p, dims) -> dict:
    n = len(images)
    bij = sorted(images) == list(range(n))
    plus = sorted(_add_index(images[i], i, p, dims) for i in range(n))
    minus = sorted(_sub_index(images[i], i, p, dims) for i in range(n))
    return {"bijection": bij,
            "complete": bij and plus == list(range(n)),
            "orthomorphism": bij and minus == list(range(n)),
            "ct": ct_of_images(images) if bij else None,
            "fixed": sum(1 for i in range(n) if images[i] == i)}


def _req(sub, args, expect, check, files=None):
    return {"sub": sub, "args": args, "files": files or {}, "expect": expect, "check": check}


def _cli_cycle_type(p, k, n, rng):
    F = HField(p, k)
    M = random_invertible(F, n, rng)
    v = [rng.randrange(F.q) for _ in range(n)]
    walk = ct_of_images(affine_images(F, M, v)) if F.q ** n <= ORBIT_WALK_MAX else None
    mapping = json.dumps({"matrix": _matrix_json(F, M), "shift": [_elem_json(F, a) for a in v]})
    return _req("cycle-type", ["cycle-type", "--p", str(p), "--k", str(k), "--map", "@map.json"],
                0, {"kind": "cycle_type", "degree": F.q ** n, "ct": walk}, {"map.json": mapping})


def _cli_construct(p, d, t, rng, infeasible):
    g = random_complete_map(p, t, rng, fixed_point=infeasible)
    counters: dict[int, int] = {}
    gammas, expected = [], []
    cycles = cycles_of(g)
    bad = rng.choice([i for i, c in enumerate(cycles) if len(c) == 1]) if infeasible else -1
    for i, cyc in enumerate(cycles):
        ell = len(cyc)
        counters[ell] = counters.get(ell, 0) + 1
        ct = infeasible_type(p, d) if i == bad else _random_complete_affine_type(p, d, rng)
        gammas.append({"length": ell, "index": counters[ell], "type": ct_text(ct)})
        expected += [(ell * l, k) for l, k in ct]
    job = json.dumps({"p": p, "d": d, "t": t, "g": g, "gammas": gammas,
                      "seed": rng.randrange(2 ** 31)})
    return _req("construct", ["construct", "--job", "@job.json", "--verify"],
                1 if infeasible else 0,
                {"kind": "cw", "ct": ct_norm(expected), "complete": True}, {"job.json": job})


# light cli_cold requests: fixed sizes, seeded contents
CLI_GAMMA = ((3, 2, "poly"), (3, 3, "matrix"), (3, 4, "poly"), (3, 4, "matrix"), (5, 2, "matrix"),
             (5, 3, "poly"), (5, 3, "matrix"), (7, 2, "poly"), (7, 3, "matrix"), (7, 2, "matrix"))
CLI_GAMMA_DPL = ((1, 3, 1), (2, 3, 2), (3, 3, 3), (4, 3, 1), (1, 5, 2), (2, 5, 3), (3, 5, 1),
                 (1, 7, 1), (2, 7, 2))
CLI_CYCLE_TYPE = ((2, 1, 3), (2, 1, 5), (3, 1, 2), (3, 1, 4), (5, 1, 3), (5, 1, 5), (7, 1, 2),
                  (7, 1, 4), (2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3), (3, 2, 2), (3, 2, 3),
                  (5, 2, 2), (3, 3, 3))
CLI_CGL = ((3, 2, 2), (3, 2, 3), (3, 3, 2), (3, 3, 3), (5, 2, 2), (5, 2, 3), (5, 3, 2),
           (7, 2, 2), (7, 2, 3), (7, 3, 2))
CLI_CONSTRUCT = tuple((p, d, t) for p in (3, 5, 7) for d, t in ((1, 1), (1, 2), (2, 1), (2, 2)))
CLI_CONSTRUCT_INFEASIBLE = ((3, 1, 1), (5, 2, 1))
CLI_SYLOW = (27, 81, 125, 243, 343) * 2
CLI_ONE_CYCLE = ((2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (3, 5), (5, 2), (5, 3), (7, 2), (7, 3))
CLI_ONE_CYCLE_POLY = ((3, 2), (3, 3), (5, 2), (7, 2), (2, 3), (2, 4), (11, 2), (3, 4))
CLI_VERIFY = ((3, 2, "complete"), (5, 2, "complete"), (7, 2, "complete"), (3, 3, "permutation"),
              (3, 4, "permutation"), (7, 2, "permutation"), (5, 2, "permutation"), (3, 2, "map"),
              (5, 3, "map"), (3, 3, "map"))


def cli_deck(seed: int, deck: int) -> list[dict]:
    """100 requests: the four cold-cache heavy ones and 96 light ones over
    every subcommand, in seeded order."""
    rng = _rng("cli_cold", seed, deck)
    # the ROADMAP baseline rows that pay cold caches: ~9 s, RecursionError
    # after ~4 s, ~8 s (degree-4 irreducibles over GF(8)) and ~1 s
    reqs = [
        _req("gamma-dpl", ["gamma-dpl", "--d", "7", "--p", "3", "--l", "1"], 0,
             {"kind": "gamma", "degree": 3 ** 7}),
        _req("gamma-dpl", ["gamma-dpl", "--d", "8", "--p", "3", "--l", "1"], 0,
             {"kind": "gamma", "degree": 3 ** 8}),
        _cli_cycle_type(2, 3, 8, rng),
        _req("one-cycle-poly", ["--format", "json", "one-cycle-poly", "--p", "3", "--k", "5",
                                "--verify"], 0, {"kind": "poly", "p": 3, "k": 5}),
    ]
    for p, n, mode in CLI_GAMMA:
        F = HField(p)
        if mode == "poly":
            coeffs = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 1)] + [1]
            M = _companion(F, coeffs)
            args = ["gamma", "--p", str(p), "--poly", _poly_text(coeffs)]
        else:
            M = random_invertible(F, n, rng)
            args = ["gamma", "--p", str(p), "--matrix", json.dumps(M)]
        member = ct_of_images(affine_images(F, M, [0] * n))
        reqs.append(_req("gamma", args, 0, {"kind": "gamma", "degree": p ** n, "member": member}))
    for d, p, ell in CLI_GAMMA_DPL:
        reqs.append(_req("gamma-dpl", ["gamma-dpl", "--d", str(d), "--p", str(p), "--l", str(ell)],
                         0, {"kind": "gamma", "degree": p ** d}))
    reqs.append(_req("gamma-dpl", ["gamma-dpl", "--d", "1", "--p", "2", "--l", "2"],
                     1, {"kind": "empty_gamma"}))
    for p, k, n in CLI_CYCLE_TYPE:
        reqs.append(_cli_cycle_type(p, k, n, rng))
    for p, d, ell in CLI_CGL:
        M = random_invertible(HField(p), d, rng)
        reqs.append(_req("cgl-factor",
                         ["cgl-factor", "--p", str(p), "--l", str(ell), "--matrix", "@m.json",
                          "--seed", str(rng.randrange(1000))],
                         0, {"kind": "cgl", "p": p, "M": M, "l": ell},
                         {"m.json": json.dumps(M)}))
    for size in CLI_CONSTRUCT:
        reqs.append(_cli_construct(*size, rng, size in CLI_CONSTRUCT_INFEASIBLE))
    for q in CLI_SYLOW:
        p, k = _prime_power(q)
        target = _sylow_target(p, k, rng)
        reqs.append(_req("sylow-type",
                         ["sylow-type", "--q", str(q), "--type", ct_text(target),
                          "--seed", str(rng.randrange(1000)), "--verify"],
                         0, {"kind": "cw", "ct": target, "complete": True}))
    for p, k in CLI_ONE_CYCLE:
        reqs.append(_req("one-cycle", ["one-cycle", "--p", str(p), "--k", str(k), "--verify"],
                         0, {"kind": "cw", "ct": ((p ** k, 1),), "complete": p > 2}))
    for p, k in CLI_ONE_CYCLE_POLY:
        reqs.append(_req("one-cycle-poly",
                         ["--format", "json", "one-cycle-poly", "--p", str(p), "--k", str(k), "--verify"],
                         0, {"kind": "poly", "p": p, "k": k}))
    for p, dims, kind in CLI_VERIFY:
        n = p ** dims
        if kind == "complete":
            images = random_complete_map(p, dims, rng, False)
        elif kind == "permutation":
            images = rng.sample(range(n), n)
        else:
            images = [rng.randrange(n) for _ in range(n)]
        if rng.random() < 0.5:
            table, name = json.dumps({"n": n, "images": images}), "t.json"
        else:
            table, name = "".join(f"{i},{y}\n" for i, y in enumerate(images)), "t.csv"
        reqs.append(_req("verify", ["verify", "--table", "@" + name, "--p", str(p), "--dim", str(dims)],
                         0, {"kind": "verify", "report": _table_report(images, p, dims)},
                         {name: table}))
    rng.shuffle(reqs)
    for j, r in enumerate(reqs):
        r["id"] = f"{deck}-{j}"
    return reqs


DECKS = {"cycletype": cycletype_deck, "construct": construct_deck, "cli_cold": cli_deck}
