"""Arithmetic on integer codes: the layer under `gf`'s field contexts,
elements and polynomials (kernel imports no other module of the package).

An element of GF(p^k) is its code: the base-p number of its coordinates over
the power basis (1, w, ..., w^(k-1)), w the class of X modulo the field's
irreducible modulus, the first coordinate most significant.  A polynomial is
a sequence of codes, constant term first, with no trailing zeros; results are
lists and inputs may be any sequence.  `_Ops` is the element arithmetic of
one field: plain residues for GF(p) (`_prime_ops`), and for GF(p^k)
log/antilog tables of a primitive element g plus Zech logarithms for
addition in odd characteristic (O(q) memory, built on first use by walking 1
through the table of x -> x*g).  The functions that take a field context
(`_build_tables`, `_field_ops`, `_convolve`, `_chirp_dft`) read only its p,
k, order, modulus and ops().  Module functions build the rest on `_Ops` for
every field: `_vecmat`, `_pcomb` (a + c*b), `_pmul`, `_horner` and one
long-division loop (`_divide`) behind every quotient, remainder and gcd.
Irreducibility is Rabin's test and factoring is squarefree, then
distinct-degree, then equal-degree (Cantor-Zassenhaus) factorisation; both
work the same way over every GF(q) and take q-th powers modulo a polynomial
from one Frobenius matrix.  On indices of GF(p)^n, `digit_sums` adds x + s*y
with one table lookup per chunk of digits (the oracle's completeness test
reads it only where its own byte planes do not fit or do not pay);
`_affine_table` tabulates x*M + shift on them (one map into at most 256
points by `bytes.translate`): the field and value tables, the chunk tables
of a + s*b that `digit_sums` reads, and the residue chunks from which
`gf.enumerate_irreducibles` reads each small factor's multiples as it sieves
indices of monic polynomials.  A value table or interpolation over all of
GF(q) is one chirp-z transform on the powers of g (`_chirp_dft`): one packed
int product.  `is_prime` and `factorize` share one Miller-Rabin core
(`_composite`), exact below psi_13: factoring trial-divides to 1000 and
splits every part the core proves composite by Brent's rho within a step
bound, and refuses a part it does not prove composite from psi_13 on.
`check_size` is the one size rule: every refusal above `MAX_DOMAIN` goes
through it.  `memo` is the one memo rule: every process-wide memo of the
package is registered by it, and `gf.clear_memos` empties them all.
`read_int` and `read_json` turn input text into numbers and JSON values, and
`exact_int`, `json_fields` and `json_list` are the JSON value checks every
input reader shares.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import struct
import sys

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
    `gf.clear_memos` empties it."""
    if not isinstance(obj, dict):
        obj = functools.cache(obj)
    _MEMOS[name or f"{obj.__module__}.{obj.__qualname__}"] = obj
    return obj


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
    per chunk of digits of `_sum_plan`, in an `_affine_table` of a + s*b on
    that chunk.  s is taken mod p."""
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


@memo
def _sum_plan(p: int, n: int, s: int) -> tuple[tuple[int, int, bytes | None], ...]:
    """The chunks of `digit_sums` on GF(p)^n, p odd: (place value, p^width,
    table) each.  A chunk has the most digits w with p^w <= 64, and the widths
    are as even as possible; a single digit of p > 64 gets no table.  A
    chunk's table is the `_affine_table` of (a, b) -> a + s*b, the index of
    a + s*b at a*m + b: the unit rows for a's digits, then s times each.
    Chunks of one width share one table."""
    w = 1
    while p ** (w + 1) <= 64:
        w += 1
    chunks = -(-n // w)
    plan, place, tables = [], 1, {}
    for i in range(chunks):
        width = n // chunks + (i < n % chunks)
        m = p ** width
        if width not in tables:
            rows = [[c if j == k else 0 for k in range(width)] for c in (1, s) for j in range(width)]
            tables[width] = _affine_table(p, width, [(rows, [0] * width)]) if m <= 64 else None
        plan.append((place, m, tables[width]))
        place *= m
    return tuple(plan)


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
def _build_tables(ctx):
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


def _table_ops(ctx) -> _Ops:
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
def _field_ops(ctx) -> _Ops:
    """The code arithmetic of this field, `FieldCtx.ops` (builds the tables of
    GF(p^k) on first use; ValueError above MAX_DOMAIN elements)."""
    return _prime_ops(ctx.p) if ctx.k == 1 else _table_ops(ctx)


# ---------------------------------------------------------------------------
# The discrete Fourier transform on the powers of g
# ---------------------------------------------------------------------------

def _convolve(ctx, x, y) -> list:
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


def _chirp_dft(ctx, seq, sign: int) -> list:
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
