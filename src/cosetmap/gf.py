"""Exact arithmetic in GF(p), extension fields GF(p^k), and polynomial rings over them.

A field context (`FieldCtx`, interned by `field`), its elements
(`FieldElement`) and polynomials over it (`Poly`) are the objects; every
operation on them runs on integer codes in `kernel`.  An element is held as
its code (`index`): the base-p number of its coordinates over the power basis
(1, w, ..., w^(k-1)), w the class of X modulo the field's irreducible modulus,
the first coordinate most significant.  All values are immutable and all
operations are pure functions.  `FieldCtx.ops()` gives the element
arithmetic of one field (`kernel._Ops`), and a polynomial's `codes` are a
kernel code sequence.  `is_irreducible`, `factor_monic` and `poly_order`
apply the kernel's Rabin test and factorisation to a `Poly`, and all three
take q-th powers modulo it from one Frobenius matrix; `degree_orders` gives
the orders of all irreducibles of one degree over GF(p) from one pass over
the Frobenius orbits of GF(p^m).  `enumerate_irreducibles` sieves indices of
monic polynomials, reading each small factor's multiples from residue chunks
built by `kernel._affine_table`.  `clear_memos` empties every memo registered
by `kernel.memo`.
"""

from __future__ import annotations

import itertools
import math
import operator
import random

from .kernel import (_MEMOS, _Ops, _affine_table, _build_tables, _ddf, _edf, _field_ops,
                     _frobenius_matrix, _is_irreducible, _monic_tail, _pdivmod, _pmul, _power,
                     _ppow, _ppowmod, _prime_ops, _reduce, _squarefree, _trim,
                     _unit_group_factors, _vecmat, check_size, digit_sums, exact_int,
                     index_to_tuple, is_prime, memo, tuple_to_index)

MINUS_INFINITY = float("-inf")  # degree of the zero polynomial


def clear_memos() -> None:
    """Empty every registered memo, releasing what the process has kept;
    answers do not change, as each memo refills on demand.  The interned field
    contexts (`_CTX_CACHE`) are no memo and survive, so elements built before
    the call still mix with those built after."""
    for kept in _MEMOS.values():
        (kept.clear if isinstance(kept, dict) else kept.cache_clear)()


# Moduli that must match a fixed external convention byte-for-byte; everything
# else is generated on demand by first-irreducible search.
_BUNDLED_MODULI = {
    (3, 3): (1, 2, 0, 1),  # X^3 - X + 1
}

# Cantor-Zassenhaus draws its splitting polynomials from this fixed seed, so
# factoring is deterministic (its result is unique in any case).
_EDF_SEED = 0


# ---------------------------------------------------------------------------
# Field contexts and elements
# ---------------------------------------------------------------------------

class FieldCtx:
    """A finite field GF(p^k): characteristic, extension degree, and modulus.

    Build one with `field`, which interns it (so do pickle and copy): one
    (p, k, modulus) has one context, so identity is equality, and two
    contexts interoperate only if they are the same object.
    """

    __slots__ = ("p", "k", "modulus")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if k == 1:
            if modulus is not None:
                raise ValueError("prime fields take no modulus")
        else:
            if modulus is None:
                raise ValueError("extension fields require a modulus")
            modulus = tuple(_trim([c % p for c in modulus]))
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            if not _is_irreducible(_prime_ops(p), modulus):
                raise ValueError("modulus must be irreducible over GF(p)")
        self.p = p
        self.k = k
        self.modulus = modulus

    def __reduce__(self):
        return field, (self.p, self.k, self.modulus)

    @property
    def order(self) -> int:
        return self.p ** self.k

    ops = _field_ops  # a method whose lookup stays in C

    def code(self, value) -> int:
        """The code (index) of an int constant, an element of this field, or
        a tuple or list of k integer coordinates, each taken mod p."""
        p = self.p
        if type(value) is int:  # a bool is refused below, as JSON true is no integer
            return value % p * p ** (self.k - 1)
        if isinstance(value, FieldElement):
            if value.ctx is not self:
                raise ValueError("mismatched field contexts")
            return value.index
        if not isinstance(value, (tuple, list)):
            raise ValueError(f"{value!r} is not an integer, an element or a coordinate list")
        coords = tuple(value)
        if len(coords) != self.k:
            raise ValueError(f"expected {self.k} coordinates")
        return tuple_to_index([exact_int(c, "a coordinate") for c in coords], p)

    def elem(self, value) -> "FieldElement":
        """The element of anything `code` accepts."""
        code = self.code(value)
        return value if isinstance(value, FieldElement) else FieldElement(self, code)

    def zero(self) -> "FieldElement":
        return self.elem(0)

    def one(self) -> "FieldElement":
        return self.elem(1)

    def gen(self) -> "FieldElement":
        """The class of X modulo the modulus (requires k >= 2)."""
        if self.k == 1:
            raise ValueError("prime field has no distinguished generator")
        return FieldElement(self, self.p ** (self.k - 2))

    def from_index(self, i: int) -> "FieldElement":
        if not 0 <= i < self.order:
            raise ValueError("index out of range")
        return FieldElement(self, i)

    def dlog(self, x: "FieldElement") -> int:
        """Discrete log of x base gen() (k >= 2): the least j >= 0 with
        gen()^j = x; raises ValueError if x is not a power of gen()."""
        return self._dlog(x.index)

    def _dlog(self, code: int) -> int:
        """`dlog` of the element with this code, read from the log table."""
        if not code:
            raise ValueError("dlog of zero")
        if self.k == 1:
            raise ValueError("prime field has no distinguished generator")
        log = _build_tables(self)[0]
        n = self.order - 1
        s, t = log[self.p ** (self.k - 2)], log[code]  # gen() has code p^(k-2)
        g = math.gcd(s, n)
        if t % g:
            raise ValueError("element is not a power of the generator")
        r = n // g  # order of gen()
        return t // g * pow(s // g, -1, r) % r

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"


_CTX_CACHE: dict[tuple, FieldCtx] = {}  # interning, not a memo: `clear_memos` keeps it


def field(p: int, k: int = 1, modulus=None) -> FieldCtx:
    """Interning factory for field contexts.

    For k >= 2 without an explicit modulus, a field above MAX_DOMAIN elements
    is refused (`check_size`); otherwise the bundled table is consulted
    first, then the first irreducible of degree k in enumeration order; the
    request is remembered under its own key, so the search runs once.  Of
    two threads that build one context, the first to store it wins.
    """
    if not p:  # the modulus key below is reduced mod p
        raise ValueError("0 is not prime")
    key = (p, k, tuple(_trim([c % p for c in modulus])) if modulus is not None else None)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        if k >= 2 and modulus is None and is_prime(p):
            check_size(f"GF({p}^{k}) has {p}^{k} elements", p, k)
            fp = _prime_ops(p)
            # the constant term varies slowest and starts at 1: X divides the rest
            ctx = field(p, k, _BUNDLED_MODULI.get((p, k)) or next(
                c + (1,) for c in itertools.product(range(1, p), *[range(p)] * (k - 1))
                if _is_irreducible(fp, c + (1,))))
        else:
            ctx = FieldCtx(p, k, key[2])
        ctx = _CTX_CACHE.setdefault(key, ctx)
    return ctx


class FieldElement:
    """An element of GF(p^k), held as its code: the lexicographic index of its
    k residues mod p over the power basis (first coordinate most significant),
    which fixes the element order used by map tables.

    Elements compare equal only to elements of the same field; an int is not
    an element (coerce it with `ctx.elem`), so equality and hashing agree.
    """

    __slots__ = ("ctx", "index")

    def __init__(self, ctx: FieldCtx, index: int):
        self.ctx = ctx
        self.index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The k coordinates over the power basis, constant coordinate first."""
        return index_to_tuple(self.index, self.ctx.p, self.ctx.k)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, (int, FieldElement)):
            return self.ctx.elem(other)
        return NotImplemented

    def _axpy(self, other, s: int) -> "FieldElement":
        """self + s*other, digit by digit: no field tables, so also above
        their size limit."""
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        ctx = self.ctx
        return FieldElement(ctx, digit_sums((self.index,), (o.index,), ctx.p, ctx.k, s)[0])

    def __add__(self, other):
        return self._axpy(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._axpy(other, -1)

    def __neg__(self):
        return self.ctx.zero() - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        ctx = self.ctx
        return FieldElement(ctx, ctx.ops().mul(self.index, o.index))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in field")
        ctx = self.ctx
        return FieldElement(ctx, ctx.ops().inv(self.index))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        ctx = self.ctx
        if not n:
            return ctx.one()  # without tables, so also above their size limit
        K = ctx.ops()
        return FieldElement(ctx, _power(K.mul, self.index, n, K.one))

    def is_zero(self) -> bool:
        return not self.index

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.ctx is other.ctx and self.index == other.index)

    def __hash__(self):
        return hash((self.ctx, self.index))

    def __repr__(self):
        if self.ctx.k == 1:
            return str(self.index)
        return f"{list(self.coeffs)}"


# ---------------------------------------------------------------------------
# Polynomials over a field context
# ---------------------------------------------------------------------------

class Poly:
    """Dense polynomial over a field context, constant term first.

    Canonical form: no trailing zero coefficients; the zero polynomial has an
    empty coefficient tuple and degree MINUS_INFINITY.  `codes` holds the
    coefficient codes; `coeffs` the same coefficients as field elements.
    """

    __slots__ = ("ctx", "codes")

    def __init__(self, ctx: FieldCtx, coeffs):
        code = ctx.code
        self.ctx = ctx
        self.codes = tuple(_trim([code(c) for c in coeffs]))

    @classmethod
    def from_codes(cls, ctx: FieldCtx, codes) -> "Poly":
        """Polynomial with the given coefficient codes (trailing zeros are
        dropped; codes must lie in range(ctx.order))."""
        P = cls.__new__(cls)
        P.ctx = ctx
        P.codes = tuple(_trim(list(codes)))
        return P

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls.from_codes(ctx, ())

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.ctx, c) for c in self.codes)

    @property
    def degree(self):
        return len(self.codes) - 1 if self.codes else MINUS_INFINITY

    def is_zero(self) -> bool:
        return not self.codes

    def is_monic(self) -> bool:
        return bool(self.codes) and self.codes[-1] == self.ctx.p ** (self.ctx.k - 1)

    def coeff(self, i: int) -> FieldElement:
        return FieldElement(self.ctx, self.codes[i] if i < len(self.codes) else 0)

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ctx is not self.ctx:
                raise ValueError("mismatched coefficient contexts")
            return other
        if isinstance(other, (int, FieldElement)):
            return Poly(self.ctx, (other,))
        return NotImplemented

    def _new(self, codes) -> "Poly":
        return Poly.from_codes(self.ctx, codes)

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        q, r = _pdivmod(self.ctx.ops(), self.codes, o.codes)
        return self._new(q), self._new(r)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        return self._new(_ppow(self.ctx.ops(), self.codes, n))

    def pow_mod(self, n: int, modulus: "Poly") -> "Poly":
        return self._new(_ppowmod(self.ctx.ops(), self.codes, n, self._coerce(modulus).codes))

    def sort_key(self):
        """Grade-lex key: degree first, then coefficient indices constant-first."""
        return (len(self.codes), self.codes)

    def __eq__(self, other):
        return (isinstance(other, Poly)
                and self.ctx is other.ctx and self.codes == other.codes)

    def __hash__(self):
        return hash((self.ctx, self.codes))

    def __repr__(self):
        from .serialize import format_poly
        return format_poly(self)


_IRR_CACHE: dict[tuple, tuple[int, list]] = memo({}, f"{__name__}._IRR_CACHE")
# `_clear_multiples` masks column by column for at most this many residues
# q^i, each column holding at least 64 entries per residue; with more
# residues or shorter columns, clearing index by index was faster
# (2-vCPU VM, Python 3.11).
_MASK_COLUMNS = 12


def _residue_digits(p: int) -> int:
    """The most base-p digits of a residue chunk: the largest w with p^w <= 256, at least 1."""
    w = 1
    while p ** (w + 1) <= 256:
        w += 1
    return w


def _residue_tables(K: _Ops, k: int, f, n: int) -> list:
    """[(table, place)]: the residue rho(F) = -(X^(n+i) + sum_(j < n) c_j X^j)
    * X^-n mod f, as the index of its i codes (the first most significant),
    for every index F < q^n of n codes c_0, ..., c_(n-1) (c_0 most
    significant), f monic irreducible of degree i over GF(q), q = p^k, f != X.

    rho is affine over GF(p) in the base-p digits of F: rho(0) = -X^i mod f,
    and a digit v of F, the coordinate at w^e of the code c_(n-s), adds v
    times -w^e*X^-s mod f (s = 1..n).  The k*i base-p digits of a residue
    are split into chunks of `_residue_digits(p)`, lowest first, each one
    `_affine_table` of that map, worth `place`.  The first q^m entries are
    the tables of m < n coefficients, as the digits of F come lowest first."""
    p = K.p
    minus_places = [K.neg(p ** e) for e in range(k)]  # -w^(k-1-e): a code's digits, lowest first
    x_inv = K.scale(K.neg(K.inv(f[0])), f[1:])  # X^-1 mod f, from f = f_0 + X*(f_1 + ... X^(i-1))
    gens, r = [f[:-1]], x_inv  # -X^i mod f, then the rows of the map, the digits of F lowest first
    for _ in range(n):  # X^-1, X^-2, ..., X^-n: the codes c_(n-1), ..., c_0
        gens += [K.scale(c, r) for c in minus_places]
        r = K.axpy(r[1:] + [0], r[0], x_inv)
    if k > 1:  # base-p digits, most significant first
        gens = [[d for c in g for d in index_to_tuple(c, p, k)] for g in gens]
    start, rows, w = gens[0], gens[:0:-1], _residue_digits(p)
    parts = [slice(max(0, top - w), top) for top in range(len(start), 0, -w)]  # lowest digits first
    return [(_affine_table(p, len(start[part]), [([g[part] for g in rows], start[part])]),
             p ** (len(start) - part.stop)) for part in parts]


def _clear_multiples(irreducible: bytearray, tables, size: int, count: int) -> None:
    """Clear F*size + rho(F) for every F < count, rho read from the residue
    tables of `_residue_tables`: the indices of the multiples of degree d of
    an f of degree i, size = q^i and count = q^(d-i).  With at most
    `_MASK_COLUMNS` residues and count >= 64*size, each column L = r (a
    stride of the array) is masked by one big-int AND; otherwise every index
    is cleared one by one."""
    if size <= _MASK_COLUMNS and count >= 64 * size and len(tables) == 1:
        table = tables[0][0][:count]
        keep = bytearray(b"\1") * 256
        for r in range(size):
            if r in table:
                keep[r] = 0
                column = (int.from_bytes(irreducible[r::size], "little")
                          & int.from_bytes(table.translate(keep), "little"))
                irreducible[r::size] = column.to_bytes(count, "little")
                keep[r] = 1
        return
    at = range(0, count * size, size)
    for table, place in tables:
        at = map(operator.add, at, map(place.__mul__, table) if place > 1 else table)
    for v in at:
        irreducible[v] = 0


def enumerate_irreducibles(ctx: FieldCtx, max_degree: int) -> list[Poly]:
    """All monic irreducible polynomials of degree <= max_degree over GF(q),
    in grade-lex order.

    A sieve on indices: a monic polynomial of degree d without its leading 1
    is a base-q number of d digits, c_0 first, split as F*q^i + L with L its
    top i coefficients.  For each irreducible Q != X of degree i <= d/2
    found so far, the multiples have L = rho(F), an affine function of F
    tabulated by `_residue_tables` once for max_degree, whose head serves
    every lower degree, and cleared by `_clear_multiples`; those of X are
    the indices with c_0 = 0.  What is left is irreducible.  The list is kept
    per field (`_IRR_CACHE`), and a higher degree extends it.  Nothing bounds
    q^d here; the class walk (`affine_ct.block_multisets`) refuses more than
    MAX_DOMAIN candidates.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    key = (ctx.p, ctx.k, ctx.modulus)
    cached_deg, cached = _IRR_CACHE.get(key, (0, []))
    if cached_deg >= max_degree:
        return [q for q in cached if q.degree <= max_degree]
    K = ctx.ops()
    q = ctx.order
    found = list(cached)
    residues = {}  # per factor's codes: its residue tables for max_degree
    new = Poly.__new__
    for d in range(cached_deg + 1, max_degree + 1):
        irreducible = bytearray(b"\1") * q ** d
        for Q in found:
            f, i = Q.codes, len(Q.codes) - 1
            if 2 * i > d:
                break
            if not f[0]:
                irreducible[:q ** (d - 1)] = bytes(q ** (d - 1))
                continue
            tables = residues.get(f)
            if tables is None:
                tables = residues[f] = _residue_tables(K, ctx.k, f, max_degree - i)
            _clear_multiples(irreducible, tables, q ** i, q ** (d - i))
        for codes in itertools.compress(itertools.product(*[range(q)] * d, (K.one,)), irreducible):
            P = new(Poly)
            P.ctx, P.codes = ctx, codes
            found.append(P)
    _IRR_CACHE[key] = (max_degree, found)
    return list(found)


def is_irreducible(P: Poly) -> bool:
    return _is_irreducible(P.ctx.ops(), P.codes)


def factor_monic(P: Poly) -> list[tuple[Poly, int]]:
    """Factor a monic polynomial of degree >= 1 into irreducibles.

    Returns (Q, e) pairs sorted grade-lex on Q.  Squarefree, distinct-degree
    and equal-degree factorisation on codes.
    """
    if P.is_zero() or not P.is_monic() or P.degree < 1:
        raise ValueError("factor_monic expects a monic polynomial of degree >= 1")
    K = P.ctx.ops()
    out = []
    rng = None  # seeded on first use
    for g, m in _squarefree(K, list(P.codes)):
        for h, i in _ddf(K, g):
            if len(h) - 1 > i and rng is None:
                rng = random.Random(_EDF_SEED)
            for Q in _edf(K, h, i, rng):
                out.append((P._new(Q), m))
    out.sort(key=lambda t: t[0].sort_key())
    return out


_ORDERS: dict[tuple, int] = memo({}, f"{__name__}._ORDERS")  # by (ctx, codes)


def poly_order(Q: Poly) -> int:
    """Least n >= 1 with Q dividing X^n - 1, for monic irreducible Q != X.

    Worked out once per Q and field context (`_ORDERS`, which holds only
    monic irreducibles other than X, so it is read first); the refusals of a
    polynomial that is not monic, is constant or is X run on every call, and
    a reducible Q, never stored, fails Rabin's test each time.
    """
    key = Q.ctx, Q.codes
    order = _ORDERS.get(key)
    if order is None:
        if not Q.is_monic() or Q.degree < 1:
            raise ValueError("poly_order expects a monic polynomial of degree >= 1")
        if Q.degree == 1 and not Q.codes[0]:
            raise ValueError("poly_order is undefined for Q = X")
        order = _ORDERS[key] = _poly_order(Q.ctx.ops(), Q.codes)
    return order


def degree_orders(p: int, m: int, polys) -> dict[tuple, int]:
    """{codes: ord Q} for the monic irreducibles Q of degree m >= 2 over GF(p),
    `polys` their codes, from one pass over the Frobenius orbits of GF(p^m);
    ArithmeticError unless `polys` lists each of them once and nothing else.

    With a a root of the first primitive f in `polys`, the orbit
    {i*p^j mod p^m - 1} of size m has the minimal polynomial of a^i, of order
    (p^m - 1) / gcd(i, p^m - 1) (Lidl-Niederreiter, Finite Fields, Thm 2.14
    and Thm 3.3), and the power sums of its roots are T_it, t = 1..2m, with
    T_j = Tr(a^j) read off f's shift register.  So the orbit's polynomial is
    the one of `polys` with those 2m power sums: two power-sum sequences of
    polynomials of degree m that agree on 2m terms in a row agree on all."""
    n = p ** m - 1
    K = field(p).ops()
    primes = [l for l, _ in _unit_group_factors(p, 1)]
    f = next((f for f in polys if all(pow((-1) ** m * f[0], (p - 1) // l, p) != 1 for l in primes)
              and _poly_order(K, f) == n), None)  # a primitive f has a primitive norm
    if f is None:
        raise ArithmeticError(f"the degree-{m} list over GF({p}) holds no primitive polynomial")
    # T_j, T_(j+1), ..., T_(j+m-1) as the base-p digits of the register's
    # state, T_j least significant; feed[state] is the next sum T_(j+m)
    # (a comprehension: as the `_affine_table` of this linear map it ran slower)
    feed = [0]
    for k in range(m - 1, -1, -1):
        feed = [(v - f[k] * c) % p for v in feed for c in range(p)]
    state = sum(t * p ** k for k, t in enumerate((m % p,) + _power_sums([f], m - 1, p)[0]))
    top = p ** (m - 1)
    trace = []
    for _ in range(n):
        trace.append(state % p)
        state = state // p + feed[state] * top
    del feed  # p^m entries, freed before the power-sum prints are built
    prints = dict(zip(_power_sums(polys, 2 * m, p), polys))
    seen = bytearray(n)
    out = {}
    for i in range(1, n):
        if seen[i]:
            continue
        orbit = [i]
        j = i * p % n
        while j != i:
            orbit.append(j)
            j = j * p % n
        for j in orbit:
            seen[j] = 1
        if len(orbit) == m:  # smaller orbits lie in proper subfields
            Q = prints.get(tuple(trace[i * t % n] for t in range(1, 2 * m + 1)))
            if Q is None or Q in out:
                raise ArithmeticError(f"the degree-{m} list over GF({p}) misses an irreducible")
            out[Q] = n // math.gcd(i, n)
    if len(out) != len(polys):
        raise ArithmeticError(f"the degree-{m} list over GF({p}) holds more than the irreducibles")
    return out


def _power_sums(polys, count: int, p: int) -> list[tuple[int, ...]]:
    """(P_1, ..., P_count) mod p for each monic f of degree m in `polys`, all
    of one degree, P_t the sum of the t-th powers of the roots of f, by
    Newton's identities for all of them at once: with f = sum f_i X^i,
    P_k = -(sum_{0 < i < k, i <= m} f_(m-i) P_(k-i) + k f_(m-k)), the last
    term only for k <= m."""
    m = len(polys[0]) - 1
    cols = list(zip(*polys))
    sums = [None]  # P_0 is never read: i < k
    for k in range(1, count + 1):
        acc = [k * a for a in cols[m - k]] if k <= m else [0] * len(polys)
        for i in range(1, min(k - 1, m) + 1):
            acc = [a + b * c for a, b, c in zip(acc, cols[m - i], sums[k - i])]
        sums.append([-a % p for a in acc])
    return list(zip(*sums[1:]))


def _poly_order(K: _Ops, f) -> int:
    """The order of X modulo the monic f of degree m >= 1, f(0) != 0.

    For each prime l with l^a exactly dividing N = q^m - 1, the order has the
    factor l^b, b the least with y^(l^b) = 1 for y = X^(N / l^a).  One
    Frobenius matrix of f (the q-th power map) serves Rabin's test and every
    y: X^(c + q*e) = X^c * (X^e)^q, by Horner on the base-q digits of the
    exponent.  The chain of the smallest l^a is raised up to a times, so that
    reaching 1 proves X^N = 1; every other chain stops after a - 1 raises.
    A linear f = X - a needs neither: the order is that of a in GF(q)^*,
    q - 1 divided by each prime while a to the quotient is still 1.
    """
    m = len(f) - 1
    q = K.q
    if m == 1:  # X = -f_0 mod f: the multiplicative order of -f_0
        a, order = K.neg(f[0]), q - 1
        for prime, e in _unit_group_factors(q, 1):
            for _ in range(e):
                if _power(K.mul, a, order // prime, K.one) != K.one:
                    break
                order //= prime
        return order
    rows = _frobenius_matrix(K, f)
    if not _is_irreducible(K, f, rows):
        raise ValueError("poly_order expects an irreducible polynomial")
    tail = _monic_tail(K, f)[1]
    one = [K.one]

    def mulmod(u, v):
        return _reduce(K, _pmul(K, u, v), tail)

    def x_power(e):
        digits = []
        while e:
            e, c = divmod(e, q)
            digits.append(c)
        y = _reduce(K, [0] * digits.pop() + one, tail)
        for c in reversed(digits):
            y = _reduce(K, [0] * c + _vecmat(K, y, rows, m), tail)
        return y

    n = q ** m - 1
    order = 1
    check = True
    for prime, a in sorted(_unit_group_factors(q, m), key=lambda t: t[0] ** t[1]):
        y = x_power(n // prime ** a)
        b = 0
        while y != one and b < a - 1:
            y = _power(mulmod, y, prime, one)
            b += 1
        if y != one:
            b = a
            if check and _power(mulmod, y, prime, one) != one:
                raise ArithmeticError("X is not a unit modulo Q")
        check = False
        order *= prime ** b
    return order
