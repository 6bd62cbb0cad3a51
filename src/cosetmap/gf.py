"""Exact arithmetic in GF(p), extension fields GF(p^k), and polynomial rings over them.

An element of GF(p^k) has coordinates over the power basis (1, w, ..., w^(k-1)),
w the class of X modulo the field's irreducible modulus, least degree first, and
is held as its code (`index`): the base-p number of those coordinates, the first
one most significant.  All values are immutable and all operations are pure
functions.

Every path runs on integer codes; a polynomial is a sequence of codes, constant
term first, with no trailing zeros.  `FieldCtx.ops()` gives the element
arithmetic of one field (`_Ops`): plain residues for GF(p), and for GF(p^k)
log/antilog tables of a primitive element g plus Zech logarithms for addition
in odd characteristic (O(q) memory, built on first use by walking 1 through
the table of x -> x*g).  Module functions build the rest on it
for every field: `_vecmat`, `_pcomb` (a + c*b), `_pmul`, `_horner` and one
long-division loop (`_divide`) behind every quotient, remainder and gcd.
Irreducibility is Rabin's test and factoring is squarefree, then
distinct-degree, then equal-degree (Cantor-Zassenhaus) factorisation; both
work the same way over every GF(q).  They and `poly_order` take q-th powers
modulo a polynomial from one Frobenius matrix; `degree_orders` gives the
orders of all irreducibles of one degree over GF(p) from one pass over the
Frobenius orbits of GF(p^m).  On indices of GF(p)^n, `digit_sums` adds
x + s*y with one table lookup per chunk of digits, and `digit_sum_pairs`
both x + y and x - y in the same pass; `_affine_table` tabulates x*M + shift
on them (one map into at most 256 points by `bytes.translate`): the field
and value tables, and the residue chunks from which `enumerate_irreducibles`
reads each small factor's multiples as it sieves indices of monic
polynomials.  A value table or interpolation
over all of GF(q) is one chirp-z transform on the powers of g (`_chirp_dft`):
one packed int product.  `is_prime` and `factorize` share one Miller-Rabin
core (`_composite`), exact below psi_13: factoring trial-divides to 1000 and
splits every part the core proves composite by Brent's rho within a step
bound, and refuses a part it does not prove composite from psi_13 on.
`check_size` is the one size rule: every refusal above `MAX_DOMAIN` goes
through it.  `memo` is the one memo rule: every process-wide memo of the
package is registered by it, and `clear_memos` empties them all.
`read_int` and `read_json` turn input text into numbers and JSON values, and
`exact_int`, `json_fields` and `json_list` are the JSON value checks every
input reader shares (gf imports no other module).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import struct
import sys

MINUS_INFINITY = float("-inf")  # degree of the zero polynomial

# The largest field or domain that gets tables: arithmetic tables of GF(p^k)
# here, map tables in `oracle`, and the cosets of a coset-wise map.
MAX_DOMAIN = 10 ** 6


def check_size(what: str, base: int, exp: int = 1) -> None:
    """ValueError "<what>, above the MAX_DOMAIN limit" when base^exp exceeds
    MAX_DOMAIN, the one size rule.  Every base >= 2 exceeds it by the exponent
    MAX_DOMAIN.bit_length(), so capping exp there makes a huge exp cost nothing."""
    if base ** min(exp, MAX_DOMAIN.bit_length()) > MAX_DOMAIN:
        raise ValueError(f"{what}, above the {MAX_DOMAIN} limit")


_MEMOS: dict[str, object] = {}  # every process-wide memo, by name


def memo(obj, name=None):
    """Register a process-wide memo and return it: `functools.cache(obj)` for
    a function (its lookups stay in C), the dict itself for a dict.  It is
    registered under `name`, by default the function's qualified name, and
    `clear_memos` empties it."""
    if not isinstance(obj, dict):
        obj = functools.cache(obj)
    _MEMOS[name or f"{obj.__module__}.{obj.__qualname__}"] = obj
    return obj


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


def _trial_factors(n: int):
    """The prime factors of n >= 1, ascending, each as often as it divides n.
    Trial division by 2 and the odd f <= `_TRIAL_BOUND` with f^2 <= n finds
    the small ones; a cofactor > 1 left after it goes to `_rho_factors`."""
    f = 2
    while f <= _TRIAL_BOUND and f * f <= n:
        if n % f:
            f += 1 if f == 2 else 2
        else:
            yield f
            n //= f
    if n > 1:
        yield from sorted(_rho_factors(n))


_TRIAL_BOUND = 1000


def _rho_factors(n: int) -> list[int]:
    """The prime factors of a cofactor n > 1 left by `_trial_factors`, in no
    order: a part `_composite` proves composite is split by `_rho_divisor`;
    any other is prime below psi_13 and refused from psi_13 on."""
    if not _composite(n):
        if n >= _MR_LIMIT:
            raise ValueError(f"cannot factor {n}: no Miller-Rabin base proves it composite, "
                             f"and primality is decided only below psi_13 = {_MR_LIMIT}")
        return [n]
    g = _rho_divisor(n)
    return _rho_factors(g) + _rho_factors(n // g)


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n, by Brent's variant of
    Pollard's rho (R. P. Brent, BIT 20 (1980) 176-184): the walk
    y -> y^2 + c mod n for c = 1, 2, ... in turn until one splits n, its
    differences multiplied together 128 at a time before each gcd.
    ValueError rather than a round that would take the walk, over every c,
    past `_RHO_STEPS` steps."""
    steps = 0
    for c in itertools.count(1):
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r  # at most: r steps to move x on, r more in batches
            if steps > _RHO_STEPS:
                raise ValueError(f"cannot factor {n}: Brent's rho found no divisor "
                                 f"within its bound of {_RHO_STEPS} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = math.gcd(prod, n)
                k += 128
            r *= 2
        if g == n:  # the batch went past the split: retrace it step by step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


# A bound on rho's walk per part: 2^101 - 1 splits after about 6.8 million
# steps, and the bound is spent in about 8 s at 0.45 us a step (2-vCPU VM,
# Python 3.11).
_RHO_STEPS = 1 << 24


# The primes up to 41 as Miller-Rabin bases decide primality of every n below
# psi_13 (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, by `_composite`; ValueError for n >= psi_13,
    where the bases no longer decide."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large: primality is decided only below {_MR_LIMIT}")
    return n > 1 and not _composite(n)


def _composite(n: int) -> bool:
    """Whether a base in `_MR_BASES` divides n > 1 and is not n, or is a
    strong Miller-Rabin witness for n: exactly when n is composite, below psi_13."""
    for a in _MR_BASES:
        if n % a == 0:
            return n != a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return True
    return False


def read_int(digits: str, what: str) -> int:
    """int(digits) for text of decimal digits; ValueError naming `what` when
    it has more digits than the interpreter converts."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"{what} has more than {sys.get_int_max_str_digits()} digits") from None


def read_json(text: str, what: str):
    """json.loads(text); ValueError naming `what` for an integer with more
    digits than the interpreter converts, the one error json raises that is
    not a JSONDecodeError."""
    import json
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"an integer in {what} has more than {limit} digits") from None


def exact_int(value, name: str) -> int:
    """value if it is an int, as a JSON integer reads; ValueError naming it
    otherwise (a float, a bool or a string is not truncated or parsed)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


def json_fields(obj, what: str, keys) -> list:
    """obj[key] for each key, in order; ValueError naming `what` when obj is
    not a JSON object, or naming the first key it lacks."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} needs the key {key!r}")
    return [obj[key] for key in keys]


def json_list(value, name: str) -> list:
    """value if it is a JSON array; ValueError naming it otherwise."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, not {type(value).__name__}")
    return value


def is_power(size: int, p: int, n: int) -> bool:
    """Whether size = p^n, for p >= 2: p^n > size once n passes the bit
    length of size, so that is tested before p^n is worked out."""
    return n <= size.bit_length() and p ** n == size


def index_to_tuple(i: int, p: int, n: int) -> tuple[int, ...]:
    """The n base-p digits of i, most significant first: the coordinates of
    the point with lexicographic index i in GF(p)^n, or of the element with
    code i in GF(p^n)."""
    digits = [0] * n
    for j in range(n - 1, -1, -1):
        i, digits[j] = divmod(i, p)
    return tuple(digits)


def tuple_to_index(t, p: int) -> int:
    """Inverse of `index_to_tuple`; each digit is taken mod p."""
    i = 0
    for c in t:
        i = i * p + c % p
    return i


def digit_sums(xs, ys, p: int, n: int, s: int = 1) -> list[int]:
    """The index of x + s*y in GF(p)^n for each pair of indices x, y (below
    p^n) drawn from xs and ys in step: XOR when p = 2, otherwise one lookup
    per chunk of digits in `_sum_table`.  s is taken mod p."""
    if n < 0:
        raise ValueError(f"dimension {n} is negative")
    s %= p
    if p == 2:
        return [x ^ y for x, y in zip(xs, ys)] if s else list(xs)
    out = [0] * len(xs)
    for place, m, table in _sum_plan(p, n, s):
        if table is None:
            out = [o + (x // place + s * (y // place)) % p * place
                   for o, x, y in zip(out, xs, ys)]
        elif place == 1:
            out = [table[x % m * m + y % m] for x, y in zip(xs, ys)]
        else:
            out = [o + table[x // place % m * m + y // place % m] * place
                   for o, x, y in zip(out, xs, ys)]
    return out


def _affine_table(p: int, n: int, maps) -> list[int] | bytes:
    """Index tables of the maps x -> x*M + shift into GF(p)^n, given as pairs
    (rows of M, shift) of n codes mod p each, interleaved: the image of the
    point x under the u-th map sits at x*len(maps) + u.  The rows are taken
    last to first, each putting a digit in front of the points so far: the
    block of points with digit a is the block with digit 0 plus a*row.  One
    map into at most 256 points is bytes, each block the one below translated
    by the `_add_row` of row; otherwise the blocks come by doubling, the
    blocks below a plus a*row in one `digit_sums` pass."""
    if len(maps) == 1 and p ** n <= 256:
        (M, shift), = maps
        table = bytes([tuple_to_index(shift, p)])
        for c in (tuple_to_index(r, p) for r in reversed(M)):
            if not c:
                table *= p
                continue
            row, blocks = _add_row(p, c), [table]
            for _ in range(p - 1):
                blocks.append(blocks[-1].translate(row))
            table = b"".join(blocks)
        return table
    N = len(maps)
    table = [tuple_to_index(shift, p) for _, shift in maps]
    for rows in zip(*(M[::-1] for M, _ in maps)):
        size = len(table)
        row = [tuple_to_index(r, p) for r in rows] * (size // N)
        while len(table) < p * size:
            a = len(table) // size
            table += digit_sums(table[:(p - a) * size], row * min(a, p - a), p, n, a)
    return table


@memo
def _digit_step(p: int, place: int) -> bytes:
    """The translate row adding 1 at the base-p digit worth `place` to a byte
    below p^w, w the largest with p^w <= 256 (the whole byte, whatever chunk
    width the sieve uses), fixing the bytes from p^w up."""
    m = p
    while m * p <= 256:
        m *= p
    return (bytes(a - (p - 1) * place if a // place % p == p - 1 else a + place for a in range(m))
            + bytes(range(m, 256)))


@memo
def _add_row(p: int, c: int) -> bytes:
    """The translate row taking a byte a to a + c, digit-wise mod p, p <= 256.
    With two or more digits a byte, the row of c is that of c less its lowest
    nonzero place, stepped once more there."""
    if p * p > 256:  # one digit a byte: a rotation
        return bytes(range(c, p)) + bytes(range(c)) + bytes(range(p, 256))
    if not c:
        return bytes(range(256))
    place = 1
    while not c // place % p:
        place *= p
    return _add_row(p, c - place).translate(_digit_step(p, place))


def digit_sum_pairs(xs, ys, p: int, n: int) -> tuple[int, list[int]]:
    """(b, [(x + y) << b | (x - y)]) with b = (p^n).bit_length(), for each pair
    of indices x, y drawn from xs and ys in step, p odd: both sums of
    `digit_sums` in one pass, one lookup per chunk of digits in `_pair_plan`.
    Each sum is below p^n <= 2^b, so the two never overlap."""
    bits, plan = _pair_plan(p, n)
    out = [0] * len(xs)
    for place, m, table in plan:
        if table is None:
            out = [o + ((a + b) % p << bits | (a - b) % p) * place
                   for o, a, b in zip(out, (x // place for x in xs), (y // place for y in ys))]
        elif place == 1:
            out = [table[x % m * m + y % m] for x, y in zip(xs, ys)]
        else:
            out = [o + table[x // place % m * m + y // place % m] for o, x, y in zip(out, xs, ys)]
    return bits, out


@memo
def _pair_plan(p: int, n: int) -> tuple[int, tuple[tuple[int, int, list[int] | None], ...]]:
    """(b, chunks) for `digit_sum_pairs`: the chunks of `_sum_plan`, each
    table entry the pair a, a' of its s = 1 and s = -1 tables packed as
    (a << b | a') * place, so that a chunk's lookup is added as it is."""
    bits = (p ** n).bit_length()
    return bits, tuple((place, m, None if t is None else
                        [(a << bits | b) * place for a, b in zip(t, u)])
                       for (place, m, t), (_, _, u) in zip(_sum_plan(p, n, 1), _sum_plan(p, n, -1)))


@memo
def _sum_plan(p: int, n: int, s: int) -> tuple[tuple[int, int, bytes | None], ...]:
    """The chunks of `digit_sums` on GF(p)^n, p odd: (place value, p^width,
    table) each.  A chunk has the most digits w with p^w <= 64, and the widths
    are as even as possible; a single digit of p > 64 gets no table."""
    w = 1
    while p ** (w + 1) <= 64:
        w += 1
    chunks = -(-n // w)
    plan, place = [], 1
    for i in range(chunks):
        width = n // chunks + (i < n % chunks)
        m = p ** width
        plan.append((place, m, _sum_table(p, width, s) if m <= 64 else None))
        place *= m
    return tuple(plan)


@memo
def _sum_table(p: int, w: int, s: int) -> bytes:
    """The index of a + s*b in GF(p)^w at a*p^w + b, for indices a, b below
    p^w: the digit-wise sums of w - 1 digits followed by one more digit."""
    one = [(a + s * b) % p for a in range(p) for b in range(p)]
    if w == 1:
        return bytes(one)
    head, m = _sum_table(p, w - 1, s), p ** (w - 1)
    return bytes(head[a * m + b] * p + one[c * p + d]
                 for a in range(m) for c in range(p) for b in range(m) for d in range(p))


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1, ascending by prime (`_trial_factors`)."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    return {f: len(list(run)) for f, run in itertools.groupby(_trial_factors(n))}


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k for a prime p and k >= 1; ValueError otherwise."""
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    (p, k), = fac.items()
    return p, k


@memo
def _unit_group_factors(q: int, m: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of q^m - 1, the order of GF(q^m)^*, ascending
    by prime: factored once per (q, m) per process."""
    return tuple(factorize(q ** m - 1).items())


# ---------------------------------------------------------------------------
# Code arithmetic of one field
# ---------------------------------------------------------------------------

class _Ops:
    """The element arithmetic on the codes of one field: what fields differ in.

    Scalars: add, neg, mul, inv and root (a -> a^(1/p)).  Rows are
    equal-length sequences of codes: axpy(x, c, y) is the list x + c*y and
    scale(c, x) the list c*x.  `one` is the code of 1, p^(k-1).  Rows and
    polynomials are combined from these by the module functions `_vecmat`,
    `_pcomb`, `_pmul`, `_horner` and `_divide`, the same for every field.
    """

    __slots__ = ("p", "q", "one", "add", "neg", "mul", "inv", "root", "axpy", "scale")

    def __init__(self, p: int, q: int, one: int, **fns):
        self.p, self.q, self.one = p, q, one
        for name, fn in fns.items():
            setattr(self, name, fn)


def _prime_ops(p: int) -> _Ops:
    def add(a, b):
        return (a + b) % p

    def neg(a):
        return -a % p

    def mul(a, b):
        return a * b % p

    def inv(a):
        if not a:
            raise ZeroDivisionError("division by zero in field")
        return pow(a, p - 2, p)

    def axpy(x, c, y):
        return [(a + c * b) % p for a, b in zip(x, y)]

    def scale(c, x):
        return [c * a % p for a in x]

    return _Ops(p, p, 1, add=add, neg=neg, mul=mul, inv=inv, root=lambda a: a, axpy=axpy,
                scale=scale)


@memo
def _build_tables(ctx: "FieldCtx"):
    """(log, exp, zech) for a primitive element g of GF(p^k), a primitive
    root when k = 1; exp walks the code of 1 through the table of x -> x*g.

    exp has period q-1 over two periods, so a sum of two logs indexes it
    without reduction; zech[d] is the log of 1 + g^d (-1 where that is zero),
    also over two periods, for odd p and k >= 2 only.
    """
    check_size(f"GF({ctx.p}^{ctx.k}) has {ctx.p}^{ctx.k} elements", ctx.p, ctx.k)
    p, k, q = ctx.p, ctx.k, ctx.order
    fp = _prime_ops(p)
    m = ctx.modulus or (0, 1)  # GF(p) is GF(p)[X]/(X)
    n = q - 1
    primes = [l for l, _ in _unit_group_factors(p, k)]

    # the generator w first (k >= 2), then every nonzero element in index order
    nonzero = (_trim(list(index_to_tuple(c, p, k))) for c in range(1, q))
    for g in itertools.chain(([0, 1],) if k > 1 else (), nonzero):
        if all(_ppowmod(fp, g, n // r, m) != [1] for r in primes):
            break
    # row i: the coordinates of w^i * g, the rows of x -> x*g
    rows = [(_pdivmod(fp, [0] * i + g, m)[1] + [0] * k)[:k] for i in range(k)]
    times_g = _affine_table(p, k, [(rows, [0] * k)])
    log = [0] * q
    exp = [0] * (2 * n)
    code = q // p  # the code of 1
    for i in range(n):
        exp[i] = exp[i + n] = code
        log[code] = i
        code = times_g[code]
    zech = None
    if p != 2 and k > 1:
        top = (p - 1) * (q // p)  # codes at or above have constant coordinate p-1
        zech = [0] * (2 * n)
        for d in range(n):
            c = exp[d]
            s = c - top if c >= top else c + q // p
            zech[d] = zech[d + n] = log[s] if s else -1
    return log, exp, zech


def _table_ops(ctx: "FieldCtx") -> _Ops:
    log, exp, zech = _build_tables(ctx)
    p, q = ctx.p, ctx.order
    n = q - 1
    frob_inv = q // p  # a^(1/p) = a^(p^(k-1))

    def mul(a, b):
        return exp[log[a] + log[b]] if a and b else 0

    def inv(a):
        if not a:
            raise ZeroDivisionError("division by zero in field")
        return exp[n - log[a]]

    def root(a):
        return exp[log[a] * frob_inv % n] if a else 0

    def scale(c, x):
        if not c:
            return [0] * len(x)
        lc = log[c]
        return [exp[lc + log[a]] if a else 0 for a in x]

    if p == 2:
        def axpy(x, c, y):
            if not c:
                return list(x)
            lc = log[c]
            return [a ^ exp[lc + log[b]] if b else a for a, b in zip(x, y)]

        return _Ops(p, q, q // p, add=operator.xor, neg=lambda a: a, mul=mul, inv=inv, root=root,
                    axpy=axpy, scale=scale)

    half = n // 2  # -1 = g^((q-1)/2)

    def neg(a):
        return exp[log[a] + half] if a else 0

    def add(a, b):
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        z = zech[log[b] - la]
        return exp[la + z] if z >= 0 else 0

    def axpy(x, c, y):
        if not c:
            return list(x)
        lc = log[c]
        out = []
        for a, b in zip(x, y):
            if b:
                t = lc + log[b]
                if a:
                    la = log[a]
                    z = zech[t - la]
                    a = exp[la + z] if z >= 0 else 0
                else:
                    a = exp[t]
            out.append(a)
        return out

    return _Ops(p, q, q // p, add=add, neg=neg, mul=mul, inv=inv, root=root, axpy=axpy,
                scale=scale)


@memo
def _field_ops(ctx: "FieldCtx") -> _Ops:
    """The code arithmetic of this field, `FieldCtx.ops` (builds the tables of
    GF(p^k) on first use; ValueError above MAX_DOMAIN elements)."""
    return _prime_ops(ctx.p) if ctx.k == 1 else _table_ops(ctx)


# ---------------------------------------------------------------------------
# The discrete Fourier transform on the powers of g
# ---------------------------------------------------------------------------

def _convolve(ctx: "FieldCtx", x, y) -> list:
    """The product of two nonempty code sequences as polynomials over GF(q) by
    one int product: element s fills 2k-1 lanes from
    s*(2k-1), its base-p digits the first k, each lane wide enough for its
    largest sum.  Lane j of a product element sums the terms at w^(2k-2-j);
    mod p, lanes k-1.. read as a code, lanes ..k-2 as w^(1-k) times one."""
    p, k = ctx.p, ctx.k
    width = 2 * k - 1
    size = (min(len(x), len(y)) * k * (p - 1) ** 2).bit_length() // 8 + 1
    item, typecode = next((struct.calcsize(t), t) for t in "BHILQ" if struct.calcsize(t) >= size)

    def pack(codes):
        data = bytearray(size * width * len(codes))
        for j, b in itertools.product(range(k), range(((p - 1).bit_length() + 7) // 8)):
            digits = [c // p ** j % p >> 8 * b & 255 for c in codes]
            data[j * size + b::width * size] = bytes(digits)
        return int.from_bytes(data, "little")

    count = (len(x) + len(y) - 1) * width
    data = (pack(x) * pack(y)).to_bytes(count * size, "little")
    raw = bytearray(count * item)  # the lanes as items of `typecode`, in machine order
    for b in range(size):
        raw[b if sys.byteorder == "little" else item - 1 - b::item] = data[b::size]
    res = [v % p for v in memoryview(raw).cast(typecode)]
    low = res[width - 1::width]
    for j in range(width - 2, k - 2, -1):
        low = [a * p + b for a, b in zip(low, res[j::width])]
    if k == 1:
        return low
    high = res[k - 2::width]
    for j in range(k - 3, -1, -1):
        high = [a * p + b for a, b in zip(high, res[j::width])]
    return digit_sums(low, ctx.ops().scale(1, high), p, k)  # 1 is the code of w^(k-1)


def _chirp_dft(ctx: "FieldCtx", seq, sign: int) -> list:
    """[sum_r seq[r] * g^(sign*i*r) for i < q-1] on codes, g the primitive
    element of the log tables.  Bluestein's i*r = C(i+r,2) - C(i,2) - C(r,2)
    turns it into the correlation of seq[r]*g^(-sign*C(r,2)) with the chirp
    b_j = g^(sign*C(j,2)), and b_(j+q-1) = e*b_j with e = g^C(q-1,2), -1 for
    odd q: one product of two length-(q-1) sequences, folded once."""
    log, exp = _build_tables(ctx)[:2]
    n = len(seq)
    chirp = [sign * (j * (j - 1) // 2) % n for j in range(n)]
    a = [exp[log[c] + n - e] if c else 0 for c, e in zip(seq, chirp)]
    lin = _convolve(ctx, a[::-1], [exp[e] for e in chirp])
    s = digit_sums(lin[n - 1:], [0] + lin[:n - 1], ctx.p, ctx.k, -1)
    return [exp[log[c] + n - e] if c else 0 for c, e in zip(s, chirp)]


# ---------------------------------------------------------------------------
# Polynomials as code sequences (constant term first, no trailing zeros).
# Results are lists; inputs may be any sequence.
# ---------------------------------------------------------------------------

def _trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _vecmat(K: _Ops, v, M, width: int) -> list:
    """The row v times the matrix with rows M, each of this width."""
    axpy = K.axpy
    out = [0] * width
    for a, row in zip(v, M):
        if a:
            out = axpy(out, a, row)
    return out


def _pcomb(K: _Ops, a, c, b) -> list:
    """a + c*b for polynomials a, b and a code c."""
    out = list(a) + [0] * (len(b) - len(a))
    out[:len(b)] = K.axpy(out[:len(b)], c, b)
    return _trim(out)


def _pmul(K: _Ops, a, b) -> list:
    if not a or not b:
        return []
    axpy, lb = K.axpy, len(b)
    out = [0] * (len(a) + lb - 1)
    for i, c in enumerate(a):
        if c:
            out[i:i + lb] = axpy(out[i:i + lb], c, b)
    return out


def _horner(K: _Ops, f, a) -> tuple[list, int]:
    """The quotient and remainder of f by X - a."""
    add, mul = K.add, K.mul
    acc = 0
    out = []
    for c in reversed(f):
        acc = add(mul(acc, a), c)
        out.append(acc)
    rem = out.pop() if out else 0
    out.reverse()
    return out, rem


def _monic_tail(K: _Ops, b) -> tuple:
    """(1/lead(b), -b/lead(b) without its leading term)."""
    lead_inv = K.one if b[-1] == K.one else K.inv(b[-1])
    return lead_inv, K.scale(K.neg(lead_inv), b[:-1])


def _divide(K: _Ops, r: list, tail) -> list:
    """Divide r in place by the monic polynomial of degree d = len(tail) with
    lower coefficients -tail (`_monic_tail`): each step pops the top
    coefficient c of r, at degree s + d, records it as the quotient's at degree
    s and adds c*tail below it.  Returns the quotient; r keeps the remainder."""
    axpy, d = K.axpy, len(tail)
    quot = [0] * (len(r) - d)
    for s in range(len(r) - 1 - d, -1, -1):
        c = quot[s] = r.pop()
        if c:
            r[s:] = axpy(r[s:], c, tail)
    return quot


def _pdivmod(K: _Ops, a, b) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    lead_inv, tail = _monic_tail(K, b)
    q = _divide(K, r, tail)
    if lead_inv != K.one:
        q = K.scale(lead_inv, q)
    return q, _trim(r)


def _reduce(K: _Ops, r: list, tail) -> list:
    """r (consumed) modulo the monic polynomial whose lower coefficients are
    the negated `tail`."""
    _divide(K, r, tail)
    return _trim(r)


def _pexact_div(K: _Ops, a, b) -> list:
    q, r = _pdivmod(K, a, b)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def _power(mul, a, n: int, one):
    """a^n for n >= 0 by square-and-multiply, with `mul` the product and `one`
    its identity; the one loop behind every power of the package."""
    result = one
    while n:
        if n & 1:
            result = mul(result, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return result


def _ppow(K: _Ops, a, n: int) -> list:
    return _power(lambda x, y: _pmul(K, x, y), a, n, [K.one])


def _ppowmod(K: _Ops, a, n: int, m) -> list:
    if n < 0:
        raise ValueError("negative polynomial power")
    if not m:
        raise ZeroDivisionError("polynomial division by zero")
    tail = _monic_tail(K, m)[1]
    return _power(lambda x, y: _reduce(K, _pmul(K, x, y), tail), _reduce(K, list(a), tail), n,
                  _reduce(K, [K.one], tail))


def _pmonic(K: _Ops, a) -> list:
    if not a or a[-1] == K.one:
        return list(a)
    return K.scale(K.inv(a[-1]), a)


def _pgcd(K: _Ops, a, b) -> list:
    """Monic gcd (the zero polynomial for gcd(0, 0))."""
    while b:
        a, b = b, _reduce(K, list(a), _monic_tail(K, b)[1])
    return _pmonic(K, a)


def _pderiv(K: _Ops, a) -> list:
    p, one, mul = K.p, K.one, K.mul
    return _trim([mul(j % p * one, a[j]) for j in range(1, len(a))])


def _frobenius_matrix(K: _Ops, f) -> list[list]:
    """The rows X^(q*j) mod f, j < deg f, of the matrix of the GF(q)-linear
    map h -> h^q modulo the monic f, each of length deg f: _vecmat(K, h, rows,
    deg f) is h^q mod f.  Each row is the one before times X^q: a shift by q
    and a reduction for small q, a product otherwise."""
    q, one = K.q, K.one
    d = len(f) - 1
    tail = _monic_tail(K, f)[1]
    if q < 2 * d:
        def step(row):
            return _reduce(K, [0] * q + row, tail)
    else:
        xq = _ppowmod(K, [0, one], q, f)

        def step(row):
            return _reduce(K, _pmul(K, row, xq), tail)
    rows = [[one]]
    while len(rows) < d:
        rows.append(step(rows[-1]))
    return [row + [0] * (d - len(row)) for row in rows]


def _frobenius_orbit(K: _Ops, rows):
    """Yield X^q, X^(q^2), ... modulo f (degree >= 2), from the matrix
    `_frobenius_matrix(K, f)`: while q^(i-1) < deg f the i-th power is the
    row q^(i-1) itself, and later powers apply the matrix to the one before."""
    q, d = K.q, len(rows)
    e = 1
    while e < d:
        h = _trim(list(rows[e]))
        yield h
        e *= q
    while True:
        h = _trim(_vecmat(K, h, rows, d))
        yield h


def _is_irreducible(K: _Ops, f, rows=None) -> bool:
    """Rabin's test: X^(q^d) = X mod f, and gcd(X^(q^(d/r)) - X, f) = 1 for
    every prime r dividing d = deg f.  A multiple of X of degree >= 2 is
    rejected before the Frobenius matrix is built: an explicit modulus may be
    one, and a scan over all polynomials of degree d meets q^(d-1) of them.
    `rows` is the Frobenius matrix of the monic f when the caller has it."""
    d = len(f) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    if not f[0]:
        return False
    f = _pmonic(K, f)
    maximal = {d // r for r in factorize(d)}
    x, minus = [0, K.one], K.neg(K.one)
    orbit = _frobenius_orbit(K, rows or _frobenius_matrix(K, f))
    for i in range(1, d + 1):
        h = next(orbit)
        if i in maximal and len(_pgcd(K, f, _pcomb(K, h, minus, x))) > 1:
            return False
    return h == x


def _squarefree(K: _Ops, f) -> list[tuple[list, int]]:
    """Pairs (g, m), g squarefree, monic, of degree >= 1 and pairwise coprime,
    with the product of the g^m equal to the monic f."""
    out = []
    mult = 1
    p = K.p
    while len(f) > 1:
        c = _pgcd(K, f, _pderiv(K, f))
        if len(c) == 1:
            out.append((list(f), mult))
            break
        w = _pexact_div(K, f, c)
        i = 1
        while len(w) > 1:
            y = _pgcd(K, w, c)
            z = _pexact_div(K, w, y)
            if len(z) > 1:
                out.append((z, i * mult))
            w = y
            c = _pexact_div(K, c, y)
            i += 1
        # what is left of c has every multiplicity divisible by p
        f = [K.root(c[j]) for j in range(0, len(c), p)]
        mult *= p
    return out


def _ddf(K: _Ops, f) -> list[tuple[list, int]]:
    """Distinct-degree factorisation of a squarefree monic f: pairs (g, i)
    with g the product of the irreducible factors of degree i."""
    out = []
    rest = f
    if len(f) > 2:
        orbit = _frobenius_orbit(K, _frobenius_matrix(K, f))
        x, minus = [0, K.one], K.neg(K.one)
        i = 0
        while 2 * (i + 1) <= len(rest) - 1:
            i += 1
            h = next(orbit)
            g = _pgcd(K, rest, _pcomb(K, h, minus, x))
            if len(g) > 1:
                out.append((g, i))
                rest = _pexact_div(K, rest, g)
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _edf(K: _Ops, f, i: int, rng: random.Random) -> list[list]:
    """Equal-degree factorisation (Cantor-Zassenhaus) of a squarefree monic f
    whose irreducible factors all have degree i."""
    d = len(f) - 1
    if d == i:
        return [f]
    q = K.q
    while True:
        a = _trim([rng.randrange(q) for _ in range(d)])
        if len(a) < 2:
            continue
        if q % 2:
            b = _pcomb(K, _ppowmod(K, a, (q ** i - 1) // 2, f), K.neg(K.one), [K.one])
        else:
            # trace of a from GF(2^(k*i)) down to GF(2)
            b = t = a
            for _ in range(i * (q.bit_length() - 1) - 1):
                t = _pdivmod(K, _pmul(K, t, t), f)[1]
                b = _pcomb(K, b, K.one, t)
        g = _pgcd(K, f, b)
        if 1 < len(g) < len(f):
            return _edf(K, g, i, rng) + _edf(K, _pexact_div(K, f, g), i, rng)


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

    def elements(self):
        """All elements in index order (lexicographic on coordinates,
        first coordinate most significant)."""
        for i in range(self.order):
            yield FieldElement(self, i)

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


def field_of_order(q: int) -> FieldCtx:
    return field(*prime_power(q))


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

    def __rsub__(self, other):
        return self.ctx.elem(other) - self

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

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.ctx.elem(other) / self

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

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (1,))

    @classmethod
    def x(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (0, 1))

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

    @property
    def leading(self) -> FieldElement:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return FieldElement(self.ctx, self.codes[-1])

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

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        K = self.ctx.ops()
        return self._new(_pcomb(K, self.codes, K.one, o.codes))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        K = self.ctx.ops()
        return self._new(_pcomb(K, self.codes, K.neg(K.one), o.codes))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        K = self.ctx.ops()
        return self._new(K.scale(K.neg(K.one), self.codes))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self._new(_pmul(self.ctx.ops(), self.codes, o.codes))

    __rmul__ = __mul__

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        q, r = _pdivmod(self.ctx.ops(), self.codes, o.codes)
        return self._new(q), self._new(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        return self._new(_ppow(self.ctx.ops(), self.codes, n))

    def pow_mod(self, n: int, modulus: "Poly") -> "Poly":
        return self._new(_ppowmod(self.ctx.ops(), self.codes, n, self._coerce(modulus).codes))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self._new(_pmonic(self.ctx.ops(), self.codes))

    def __call__(self, x: FieldElement) -> FieldElement:
        ctx = self.ctx
        return FieldElement(ctx, _horner(ctx.ops(), self.codes, ctx.code(x))[1])

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
