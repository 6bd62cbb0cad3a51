"""The integer-coded GF(q) kernel: code arithmetic against coordinate
arithmetic, factoring against sympy, and the value-type contracts."""

import itertools
import math
import random
import time

import pytest

from cosetmap import MatrixQ, Poly, enumerate_irreducibles, factor_monic, field, is_irreducible
from cosetmap import gf, kernel
from cosetmap.kernel import (MAX_DOMAIN as KERNEL_MAX_DOMAIN, _Ops, _convolve, _horner, _pcomb,
                             _pdivmod, _pmul, _ppowmod, _sum_plan, _trim, _vecmat, digit_sums,
                             factorize, index_to_tuple, is_prime, tuple_to_index)
from cosetmap.oracle import MAX_DOMAIN

EXTENSION_FIELDS = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]


def _coord_mul(ctx, a, b):
    """Product of two coordinate tuples as polynomials over GF(p), reduced by
    the modulus with schoolbook long division."""
    p, k, m = ctx.p, ctx.k, ctx.modulus
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top]
        if c:
            for j in range(k + 1):
                prod[top - k + j] = (prod[top - k + j] - c * m[j]) % p
    return tuple(prod[:k])


def _coords(ctx, code):
    return ctx.from_index(code).coeffs


def _digit_sums_reference(xs, ys, p, n, s):
    return [tuple_to_index([a + s * b for a, b in zip(index_to_tuple(x, p, n),
                                                      index_to_tuple(y, p, n))], p)
            for x, y in zip(xs, ys)]


def test_digit_sums_match_the_per_digit_reference():
    """x + s*y on indices against digit-by-digit sums: XOR for p = 2, one or
    several table chunks for p <= 13, a table-free digit per chunk for
    p = 67; exhaustively on small spaces, so every table entry is read."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(st.sampled_from([2, 3, 5, 7, 11, 13, 67]), st.integers(0, 9),
                      st.sampled_from([1, -1]), st.data())
    def check(p, n, s, data):
        index = st.integers(0, p ** n - 1)
        xs = data.draw(st.lists(index, max_size=12))
        ys = data.draw(st.lists(index, min_size=len(xs), max_size=len(xs)))
        assert digit_sums(xs, ys, p, n, s) == _digit_sums_reference(xs, ys, p, n, s)

    check()
    for p, n in [(2, 5), (3, 0), (3, 4), (5, 2), (7, 2), (11, 1), (67, 1)]:
        pairs = list(itertools.product(range(p ** n), repeat=2))
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        for s in (-1, 0, 1, 2):
            assert digit_sums(xs, ys, p, n, s) == _digit_sums_reference(xs, ys, p, n, s)
    with pytest.raises(ValueError, match="dimension -1 is negative"):
        digit_sums([0], [0], 3, -1)


def test_digit_sum_tables_stay_small():
    """Every chunk covers at most 64 indices, so no table has more than 64^2
    entries; chunk widths differ by at most one, and a prime above 64 gets
    single digits and no table.  Chunks of one width in a plan share one
    table object, which holds, at a*m + b, the digit-wise (a + s*b) mod p of
    the indices a, b below m = p^width."""
    checked = set()
    for p in [3, 5, 7, 11, 13, 31, 61, 67, 101, 1009]:
        for n in range(13):
            for s in range(p if p < 64 else 3):
                plan = _sum_plan(p, n, s)
                widths = [round(math.log(m, p)) for _, m, _ in plan]
                assert [place for place, _, _ in plan] == [p ** sum(widths[:i])
                                                          for i in range(len(plan))]
                assert sum(widths) == n and max(widths, default=0) - min(widths, default=0) <= 1
                assert len(plan) == -(-n // max([1] + [w for w in range(1, 7) if p ** w <= 64]))
                shared = {}
                for width, (_, m, table) in zip(widths, plan):
                    assert shared.setdefault(width, table) is table
                    if p > 64:
                        assert m == p and table is None
                    else:
                        assert m <= 64 and len(table) == m * m <= 64 ** 2
                        if (p, width, s) not in checked:
                            checked.add((p, width, s))
                            digits = [index_to_tuple(a, p, width) for a in range(m)]
                            assert list(table) == [
                                tuple_to_index([(x + s * y) % p for x, y in zip(da, db)], p)
                                for da in digits for db in digits]


def test_factor_monic_keeps_a_linear_cofactor_over_gf4():
    F4 = field(2, 2)
    w = F4.gen()
    a, b = Poly(F4, (w, 1)), Poly(F4, (1, 1))
    # grade-lex: w has index 1 and 1 has index 2, so X + w comes first
    assert factor_monic(Poly(F4, (w, w + 1, 1))) == [(a, 1), (b, 1)]  # (X + w)(X + 1)


def test_field_elements_never_equal_ints():
    F3 = field(3)
    one = F3.elem(1)
    assert one != 1 and one != 4
    assert 1 not in {one}
    assert one in {F3.elem(4)}
    assert hash(one) == hash(F3.elem(4))
    assert F3.elem(1) == F3.one()
    # elements of different fields differ even with equal coordinates
    assert field(5).elem(1) != one


def test_field_elements_from_every_route_are_one_value():
    """An element built from an int, from coordinates, from its index or by
    arithmetic is the same value: equal, with equal hashes and coordinates."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.sampled_from([(2, 1), (7, 1), (2, 3), (3, 2), (5, 2), (3, 3)]),
                      st.data())
    def check(pk, data):
        ctx = field(*pk)
        p, k = pk
        code = data.draw(st.integers(0, ctx.order - 1))
        other = ctx.from_index(data.draw(st.integers(0, ctx.order - 1)))
        x = ctx.from_index(code)
        coords = index_to_tuple(code, p, k)
        routes = [ctx.elem(coords), ctx.elem(list(coords)), ctx.elem(x), x + other - other,
                  -(-x), (x * other) * other.inverse() if not other.is_zero() else x,
                  ctx.elem(tuple(c + p * data.draw(st.integers(-2, 2)) for c in coords))]
        if code % p ** (k - 1) == 0:  # in the prime subfield: an int constant
            routes.append(ctx.elem(code // p ** (k - 1) + p * data.draw(st.integers(-3, 3))))
        for y in routes:
            assert y == x and hash(y) == hash(x)
            assert y.index == code and y.coeffs == coords
        assert len({x, *routes}) == 1

    check()


def _table_builds():
    return kernel._build_tables.cache_info().currsize, kernel._field_ops.cache_info().currsize


def test_addition_above_the_table_limit_builds_no_tables():
    built = _table_builds()
    ctx = field(3, 13, (1,) + (0,) * 11 + (2, 1))  # X^13 + 2X^12 + 1
    assert ctx.order > MAX_DOMAIN
    x, y = ctx.elem((1, 2) * 6 + (0,)), ctx.gen()
    assert (x + y).coeffs == (1, 0) + (1, 2) * 5 + (0,)
    assert (x - y).coeffs == (1, 1) + (1, 2) * 5 + (0,)
    assert (-x).coeffs == (2, 1) * 6 + (0,)
    assert x + y - y == x and x + (-x) == ctx.zero() and ctx.elem(2) - x == ctx.elem(2) + -x
    assert _table_builds() == built


@pytest.mark.parametrize("p,k", EXTENSION_FIELDS)
def test_code_arithmetic_matches_coordinates_exhaustively(p, k):
    ctx = field(p, k)
    K = ctx.ops()
    q = ctx.order
    assert K.one == ctx.one().index
    for a in range(q):
        ca = _coords(ctx, a)
        if a:
            assert _coord_mul(ctx, ca, _coords(ctx, K.inv(a))) == ctx.one().coeffs
        assert _coords(ctx, K.neg(a)) == tuple(-x % p for x in ca)
        assert _coords(ctx, K.root(a)) == _coords(ctx, (ctx.from_index(a) ** (q // p)).index)
        for b in range(q):
            cb = _coords(ctx, b)
            assert _coords(ctx, K.mul(a, b)) == _coord_mul(ctx, ca, cb)
            assert _coords(ctx, K.add(a, b)) == tuple((x + y) % p for x, y in zip(ca, cb))


def _coord_sum(p, *terms):
    return tuple(sum(t) % p for t in zip(*terms))


def _coord_poly(ctx, codes):
    """A polynomial or row of codes as coordinate tuples, trailing zeros dropped."""
    out = [_coords(ctx, c) for c in codes]
    while out and not any(out[-1]):
        out.pop()
    return out


def _coord_poly_mul(ctx, a, b):
    """The product of two polynomials of coordinate tuples, term by term."""
    out = [(0,) * ctx.k] * (len(a) + len(b) - 1 if a and b else 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = _coord_sum(ctx.p, out[i + j], _coord_mul(ctx, x, y))
    return out


def _coord_poly_add(ctx, a, b):
    zero = (0,) * ctx.k
    n = max(len(a), len(b))
    out = [_coord_sum(ctx.p, x, y) for x, y in zip(a + [zero] * (n - len(a)),
                                                   b + [zero] * (n - len(b)))]
    while out and not any(out[-1]):
        out.pop()
    return out


def test_code_rows_match_coordinates():
    """Row and polynomial routines of the kernel against coordinate
    arithmetic, over the table fields and the residue fields GF(5), GF(7)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.sampled_from(EXTENSION_FIELDS + [(5, 1), (7, 1)]), st.data())
    def check(pk, data):
        ctx = field(*pk)
        K = ctx.ops()
        q, p = ctx.order, ctx.p
        n = data.draw(st.integers(0, 6))
        codes = st.integers(0, q - 1)
        x = data.draw(st.lists(codes, min_size=n, max_size=n))
        y = data.draw(st.lists(codes, min_size=n, max_size=n))
        c = data.draw(codes)
        cc = _coords(ctx, c)
        want = [tuple((u + v) % p for u, v in zip(_coords(ctx, a), _coord_mul(ctx, cc, _coords(ctx, b))))
                for a, b in zip(x, y)]
        assert [_coords(ctx, t) for t in K.axpy(x, c, y)] == want
        assert [_coords(ctx, t) for t in K.scale(c, x)] == [_coord_mul(ctx, cc, _coords(ctx, a))
                                                           for a in x]
        # element arithmetic goes through the same codes
        ea, eb = ctx.from_index(x[0] if x else 0), ctx.from_index(c)
        assert (ea * eb).coeffs == _coord_mul(ctx, ea.coeffs, eb.coeffs)

        # v * M for n rows of width w
        w = data.draw(st.integers(0, 4))
        M = data.draw(st.lists(st.lists(codes, min_size=w, max_size=w), min_size=n, max_size=n))
        want = [(0,) * ctx.k] * w
        for a, row in zip(x, M):
            want = [_coord_sum(p, s, _coord_mul(ctx, _coords(ctx, a), _coords(ctx, r)))
                    for s, r in zip(want, row)]
        assert [_coords(ctx, t) for t in _vecmat(K, x, M, w)] == want

        # polynomials: a + c*b, a*b and the division by X - c
        a = _trim(data.draw(st.lists(codes, max_size=6)))
        b = _trim(data.draw(st.lists(codes, max_size=6)))
        ca, cb = _coord_poly(ctx, a), _coord_poly(ctx, b)
        assert _coord_poly(ctx, _pcomb(K, a, c, b)) == _coord_poly_add(
            ctx, ca, _coord_poly_mul(ctx, [cc], cb))
        assert _pcomb(K, a, c, b) == _trim(list(_pcomb(K, a, c, b)))
        assert [_coords(ctx, t) for t in _pmul(K, a, b)] == _coord_poly_mul(ctx, ca, cb)
        quot, rem = _horner(K, a, c)
        value = (0,) * ctx.k
        for t in reversed(ca):
            value = _coord_sum(p, _coord_mul(ctx, value, cc), t)
        assert _coords(ctx, rem) == value
        minus_c = _coords(ctx, K.neg(c))
        assert len(quot) == max(len(a) - 1, 0) and _coord_poly_add(
            ctx, _coord_poly_mul(ctx, _coord_poly(ctx, quot), [minus_c, _coords(ctx, K.one)]),
            _coord_poly(ctx, [rem])) == ca

        # a = quot*b + rem with deg rem < deg b, b not monic where the field allows
        b = b or [K.one]
        if q > 2 and b[-1] == K.one:
            b = b[:-1] + [data.draw(st.integers(1, q - 1).filter(lambda u: u != K.one))]
        quot, rem = _pdivmod(K, a, b)
        assert len(rem) < len(b) and rem == _trim(list(rem))
        assert _coord_poly_add(ctx, _coord_poly_mul(ctx, _coord_poly(ctx, quot),
                                                    _coord_poly(ctx, b)),
                               _coord_poly(ctx, rem)) == ca

    check()


def test_ops_hold_only_the_element_arithmetic():
    """Rows and polynomials are combined by module functions shared by every
    field; `_Ops` keeps what differs between fields."""
    assert _Ops.__slots__ == ("p", "q", "one", "add", "neg", "mul", "inv", "root", "axpy",
                              "scale")
    assert not any(hasattr(mod, name) for mod in (gf, kernel)
                   for name in ("_row_poly_ops", "_padd", "_psub"))


def test_trial_division_matches_sympy():
    """`is_prime` and `factorize` against sympy.  `is_prime` stops at the
    first factor, and `factorize` trial-divides to 1000 only, then asks
    `_composite` about the cofactor and splits it by rho when composite: a
    small prime times a prime near 10^14, 10^16 or 2^60, 2^61 - 1 and
    229^11 - 1 (one prime factor near 4*10^23) answer at once, where trial
    division up to the square root takes seconds or more."""
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    for n in range(-3, 3000):
        assert is_prime(n) == sympy.isprime(n), n
        if n >= 1:
            assert factorize(n) == sympy.factorint(n), n
    start = time.perf_counter()
    for n in [2 ** 31 - 1, 2 ** 31 + 11, (2 ** 16 + 1) ** 2, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19,
              2 ** 61 - 1, 2305843009213691579 - 1]:
        assert is_prime(n) == sympy.isprime(n) and factorize(n) == sympy.factorint(n), n
    assert factorize(229 ** 11 - 1) == sympy.factorint(229 ** 11 - 1)
    assert not is_prime(3 * (10 ** 16 + 61)) and not is_prime(2 * (10 ** 14 + 31))
    assert time.perf_counter() - start < 1.0
    assert list(factorize(2 ** 10 * 3 ** 4 * 101)) == [2, 3, 101]
    near_2_60 = st.integers(2 ** 60 - 2 ** 20, 2 ** 60 + 2 ** 20).map(sympy.nextprime)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.integers(1, 200).map(sympy.prime), near_2_60, st.integers(1, 3))
    def agrees(small, large, e):
        n = small ** e * large
        assert factorize(n) == sympy.factorint(n)

    agrees()


def test_rho_splits_cofactors_below_psi_13():
    """A composite cofactor below psi_13 with no prime factor up to the trial
    bound is split by Brent's rho, and the primes still come in ascending
    order: products of two 30-40-bit primes (with small primes beside them),
    Carmichael numbers, 3215031751, 25^17 - 1 and 229^11 - 1 against sympy.
    25^17 - 1 leaves the product of 41540861 and 466344409 after its small
    factors, which trial division took seconds over."""
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    for n in (561, 41041, 825265, 3215031751, 1009 ** 2, 1009 ** 3 * 1013, 25 ** 17 - 1,
              229 ** 11 - 1):
        assert factorize(n) == sympy.factorint(n), n
        assert list(factorize(n)) == sorted(factorize(n)), n
    start = time.perf_counter()
    assert factorize(25 ** 17 - 1) == sympy.factorint(25 ** 17 - 1)
    assert time.perf_counter() - start < 0.1
    prime = st.integers(2 ** 29, 2 ** 40).map(sympy.prevprime)

    @hypothesis.settings(max_examples=12, deadline=None)
    @hypothesis.given(prime, prime, st.integers(1, 2000))
    def agrees(a, b, small):
        n = small * a * b
        assert factorize(n) == sympy.factorint(n)
        assert list(factorize(n)) == sorted(factorize(n))

    agrees()


PSI_13 = 3317044064679887385961981


def test_miller_rabin_matches_sympy_below_psi_13():
    """`is_prime` is deterministic Miller-Rabin to the 13 prime bases up to
    41: exact below psi_13 on Carmichael numbers, strong pseudoprimes to the
    first bases, products of two 40-bit primes and the last prime below
    psi_13, and refused from psi_13 on rather than guessed."""
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    last = sympy.prevprime(PSI_13)
    for n in (561, 41041, 825265, 3215031751, 3825123056546413051, last, 2 ** 61 - 1):
        assert is_prime(n) == sympy.isprime(n), n
    assert is_prime(last) and is_prime(2 ** 61 - 1)
    for n in (PSI_13, PSI_13 + 2, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=str(PSI_13)):
            is_prime(n)
    forty_bit = st.integers(2 ** 39, 2 ** 40).map(sympy.prevprime)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.one_of(st.integers(-10, PSI_13 - 1), st.integers(-10, 10 ** 6),
                                st.tuples(forty_bit, forty_bit).map(lambda ab: ab[0] * ab[1])))
    def agrees(n):
        assert is_prime(n) == sympy.isprime(n)

    agrees()
    start = time.perf_counter()
    assert is_prime(10 ** 14 + 31) and not is_prime((10 ** 14 + 31) * (10 ** 6 + 3))
    assert time.perf_counter() - start < 0.1


def test_factoring_above_psi_13_splits_by_rho_or_refuses_at_once():
    """Rho splits a composite part whatever its size: 7 * nextprime(10^8) *
    nextprime(10^19) and nextprime(10^9) * nextprime(10^17), both above
    psi_13, match sympy with primes ascending (trial division without bound
    took 7.5 s over the first and gave no answer in 20 s on the second).  A
    part no Miller-Rabin base proves composite from psi_13 on is refused at
    once, naming psi_13: 2^89 - 1, 2^127 - 1 and 3 * (2^89 - 1)."""
    sympy = pytest.importorskip("sympy")
    for n in (7 * sympy.nextprime(10 ** 8) * sympy.nextprime(10 ** 19),
              sympy.nextprime(10 ** 9) * sympy.nextprime(10 ** 17)):
        assert n > PSI_13
        start = time.perf_counter()
        got = factorize(n)
        assert time.perf_counter() - start < 1.0
        assert got == sympy.factorint(n) and list(got) == sorted(got), n
    for n in (2 ** 89 - 1, 2 ** 127 - 1, 3 * (2 ** 89 - 1)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=str(PSI_13)):
            factorize(n)
        assert time.perf_counter() - start < 0.1


def test_rho_refuses_a_part_its_step_bound_cannot_split(monkeypatch):
    """With the bound cut to 1000 steps, nextprime(10^9) * nextprime(10^17),
    which rho splits in about 60 thousand, is refused at once with a
    ValueError naming the number and the bound; with the real bound,
    2^101 - 1 (about 6.8 million steps) still splits."""
    sympy = pytest.importorskip("sympy")
    n = sympy.nextprime(10 ** 9) * sympy.nextprime(10 ** 17)
    monkeypatch.setattr(kernel, "_RHO_STEPS", 1000)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^cannot factor {n}: .* 1000 steps$"):
        factorize(n)
    assert time.perf_counter() - start < 1.0
    monkeypatch.undo()
    assert factorize(2 ** 101 - 1) == sympy.factorint(2 ** 101 - 1)


@pytest.mark.parametrize("p,k", EXTENSION_FIELDS)
def test_dlog_is_the_least_exponent(p, k):
    ctx = field(p, k)
    w = ctx.gen()
    seen = {}
    acc = ctx.one()
    for j in range(ctx.order - 1):
        seen.setdefault(acc, j)
        acc = ctx.elem(_coord_mul(ctx, acc.coeffs, w.coeffs))
    for x in map(ctx.from_index, range(1, ctx.order)):
        if x in seen:
            assert ctx.dlog(x) == seen[x]
        else:
            with pytest.raises(ValueError):
                ctx.dlog(x)


@pytest.mark.parametrize("p,k,modulus", [(3, 2, (1, 0, 1)), (2, 6, None), (5, 3, None),
                                         (2, 10, None), (3, 7, None), (7, 3, None),
                                         (67, 2, None)])
def test_tables_are_the_powers_of_a_primitive_element(p, k, modulus):
    """exp, log and zech against g^i mod the modulus by square-and-multiply;
    over GF(9) with modulus X^2 + 1 the class of X is not primitive, so the
    table generator g is another element.  The fields cover every branch of
    the digit sums behind the table of x -> x*g: XOR (p = 2), one chunk of
    digits (3^2), several chunks (3^7, 7^3), and digits without a sum table
    (67^2)."""
    ctx = field(p, k, modulus)
    log, exp, zech = kernel._build_tables(ctx)
    q, n, m = ctx.order, ctx.order - 1, ctx.modulus
    fp = field(p).ops()
    g = _trim(list(_coords(ctx, exp[1])))
    if modulus == (1, 0, 1):
        assert exp[1] != ctx.gen().index  # the class of X has order 4
    for i in range(n):
        c = _ppowmod(fp, g, i, m)
        code = tuple_to_index(c + [0] * (k - len(c)), p)
        assert exp[i] == exp[i + n] == code and log[code] == i
    assert sorted(exp[:n]) == list(range(1, q))
    if p == 2:
        assert zech is None
    for d in range(n if zech else 0):
        s = (ctx.from_index(exp[d]) + ctx.one()).index
        assert zech[d] == zech[d + n] == (log[s] if s else -1)


@pytest.mark.parametrize("p", [2, 3, 13, 257, 65537])
def test_prime_field_tables_are_the_powers_of_a_primitive_root(p):
    """GF(p) gets log and exp tables of its least primitive root, and no Zech
    table (its code arithmetic is on residues)."""
    log, exp, zech = kernel._build_tables(field(p))
    n = p - 1
    g = exp[1]

    def primitive(c):
        return all(pow(c, n // r, p) != 1 for r in factorize(n))

    assert primitive(g) and not any(primitive(c) for c in range(1, g))
    assert exp[:n] == [pow(g, i, p) for i in range(n)] and exp[n:] == exp[:n]
    assert all(log[exp[i]] == i for i in range(n)) and zech is None


def test_packed_products_match_schoolbook():
    """`kernel._convolve` (one packed int product) equals the schoolbook product on
    codes, including digits of several bytes (GF(257), GF(65537)) and lanes of
    fewer bytes than the machine integers they are read through."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    fields = [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (2, 5), (3, 4), (257, 1), (65537, 1)]

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.sampled_from(fields), st.data())
    def check(pk, data):
        ctx = field(*pk)
        q = ctx.order
        codes = st.lists(st.integers(0, q - 1), min_size=1, max_size=24)
        x, y = data.draw(codes), data.draw(codes)
        assert _convolve(ctx, x, y) == _pmul(ctx.ops(), x, y)

    check()


def test_large_extension_refuses_to_build_tables():
    built = _table_builds()
    ctx = field(2, 20, (1,) + (0,) * 16 + (1, 0, 0, 1))  # X^20 + X^17 + 1
    assert ctx.order > MAX_DOMAIN
    assert MAX_DOMAIN is KERNEL_MAX_DOMAIN  # the table limit lives in kernel; oracle re-exports it
    w = ctx.gen()
    assert (w + w).is_zero()  # coordinate arithmetic needs no tables
    assert w ** 0 == ctx.one() and _table_builds() == built
    with pytest.raises(ValueError, match="limit"):
        w * w


def test_powers_match_repeated_multiplication():
    """Polynomial, modular, matrix and element powers share one
    square-and-multiply; each against the product of n factors."""
    from cosetmap.linalg import _matpow
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def product(one, factors, mul=lambda u, v: u * v):
        for f in factors:
            one = mul(one, f)
        return one

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]), st.data())
    def check(pk, data):
        ctx = field(*pk)
        q = ctx.order
        codes = st.integers(0, q - 1)
        polys = st.lists(codes, max_size=4).map(lambda c: Poly.from_codes(ctx, c))
        a, m = data.draw(polys), data.draw(polys.filter(lambda P: not P.is_zero()))
        n = data.draw(st.integers(0, 40))
        K = ctx.ops()
        want = Poly.from_codes(ctx, product([K.one], [a.codes] * n, lambda u, v: _pmul(K, u, v)))
        assert a ** n == want
        assert a.pow_mod(n, m) == divmod(want, m)[1]
        x = ctx.from_index(data.draw(codes))
        assert x ** n == product(ctx.one(), [x] * n)
        if not x.is_zero():
            assert x ** (q - 1) == ctx.one()
            assert x ** -n == product(ctx.one(), [x.inverse()] * n)
        d = data.draw(st.integers(1, 3))
        row = st.lists(codes, min_size=d, max_size=d)
        M = MatrixQ.from_codes(ctx, data.draw(st.lists(row, min_size=d, max_size=d)))
        e = data.draw(st.integers(0, 20))
        assert MatrixQ.from_codes(ctx, _matpow(K, M.codes, e)) == \
            product(MatrixQ.identity(ctx, d), [M] * e)

    check()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factoring_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("X")
    ctx = field(p)
    rng = random.Random(p)
    for trial in range(60):
        if trial % 2:
            d = rng.randint(1, 12)
            P = Poly(ctx, [rng.randrange(p) for _ in range(d)] + [1])
        else:
            # repeated factors, with multiplicity p now and then
            a = rng.randint(1, 3)
            e = rng.choice([2, 3, p])
            b = rng.randint(0, max(0, 12 - a * e))
            A = Poly(ctx, [rng.randrange(p) for _ in range(a)] + [1])
            B = Poly(ctx, [rng.randrange(p) for _ in range(b)] + [1])
            if a * e > 12:
                A, e = Poly(ctx, (rng.randrange(p), 1)), 2
            P = Poly.from_codes(ctx, _pmul(ctx.ops(), (A ** e).codes, B.codes))
        coeffs = [c.index for c in P.coeffs]
        ref = sympy.Poly(list(reversed(coeffs)), X, modulus=p)
        want = sorted(([c % p for c in reversed(f.all_coeffs())], e)
                      for f, e in ref.factor_list()[1])
        got = sorted(([c.index for c in Q.coeffs], e) for Q, e in factor_monic(P))
        assert got == want
        assert is_irreducible(P) == ref.is_irreducible


def _gauss_count(q, d):
    """Number of monic irreducibles of degree d over GF(q) (necklace formula)."""
    def mobius(n):
        out, f = 1, 2
        while f * f <= n:
            if n % f == 0:
                n //= f
                if n % f == 0:
                    return 0
                out = -out
            f += 1
        return -out if n > 1 else out
    return sum(mobius(d // e) * q ** e for e in range(1, d + 1) if d % e == 0) // d


@pytest.mark.parametrize("p,k,top", [(2, 1, 8), (3, 1, 5), (2, 2, 4), (2, 3, 3), (3, 2, 3),
                                     (5, 2, 2), (3, 3, 2), (2, 1, 16), (3, 1, 9)])
def test_irreducible_counts_match_gauss(p, k, top):
    """From an empty cache, in under two seconds (the per-cofactor sieve took
    3.3 s for GF(2) to degree 16): every degree's count is Gauss's
    (1/d) sum_{e|d} mu(e) q^(d/e), the list is grade-lex, and every
    polynomial passes Rabin's test and, over GF(p) up to degree 9, sympy's."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.galoistools import gf_irreducible_p
    gf.clear_memos()
    ctx = field(p, k)
    start = time.perf_counter()
    irr = enumerate_irreducibles(ctx, top)
    assert time.perf_counter() - start < 2.0
    for d in range(1, top + 1):
        assert sum(1 for Q in irr if Q.degree == d) == _gauss_count(ctx.order, d)
    assert all(is_irreducible(Q) for Q in irr)
    assert irr == sorted(irr, key=Poly.sort_key)
    if k == 1:
        assert all(gf_irreducible_p(list(reversed(Q.codes)), p, sympy.ZZ)
                   for Q in irr if Q.degree <= 9)


# (p, k, degree): the largest degree the benchmark's cycletype warm-up sieves
# over each of its fields; the construct workload's GF(3), GF(5) and GF(7)
# block multisets go to degrees 4, 3 and 3, inside these.
_WORKLOAD_SIEVES = [(2, 1, 6), (3, 1, 6), (5, 1, 5), (7, 1, 4), (2, 2, 3), (2, 3, 3),
                    (3, 2, 3), (5, 2, 2), (3, 3, 2)]


# GF(2)^10 marks residues of up to 2^5 by column masks and by indices,
# GF(17)^4 reads residues of 17^2 from two byte tables, GF(257)^2 has list
# tables (p > 256) and GF(251)^2 the widest byte rows.
@pytest.mark.parametrize("p,k,top", _WORKLOAD_SIEVES + [(11, 1, 3), (2, 4, 3), (7, 2, 2)]
                         + [(2, 1, 10), (67, 1, 2), (251, 1, 2), (257, 1, 2), (11, 2, 2),
                            (17, 1, 4)])
def test_irreducibles_match_the_cofactor_sieve(p, k, top):
    """The residue-table sieve gives the per-cofactor sieve's list, codes and
    order, from an empty cache and when extending a cached lower degree."""
    from helpers import cofactor_sieve_irreducibles
    ctx = field(p, k)
    want = [Q.codes for Q in cofactor_sieve_irreducibles(ctx, top)]
    gf.clear_memos()
    assert [Q.codes for Q in enumerate_irreducibles(ctx, top)] == want
    gf.clear_memos()
    enumerate_irreducibles(ctx, max(1, top // 2))
    assert [Q.codes for Q in enumerate_irreducibles(ctx, top)] == want
    assert gf._IRR_CACHE[(p, k, ctx.modulus)][0] == top


@pytest.mark.parametrize("p,k,top", [(2, 1, 8), (3, 1, 6), (5, 1, 4), (2, 2, 4), (3, 2, 3)])
def test_irreducibles_from_one_digit_residue_chunks(monkeypatch, p, k, top):
    """With one base-p digit per table entry, every residue of two or more
    digits is read from several chunk tables, and the list does not change."""
    want = [Q.codes for Q in enumerate_irreducibles(field(p, k), top)]
    monkeypatch.setattr(gf, "_residue_digits", lambda p: 1)
    gf.clear_memos()
    assert [Q.codes for Q in enumerate_irreducibles(field(p, k), top)] == want
    gf.clear_memos()


@pytest.mark.parametrize("p,k", EXTENSION_FIELDS)
def test_factor_monic_over_extensions_recovers_known_factors(p, k):
    ctx = field(p, k)
    q = ctx.order
    irr = enumerate_irreducibles(ctx, 3)
    rng = random.Random(q)
    for _ in range(25):
        # a product of random irreducibles with multiplicities, degree <= 8
        want = {}
        deg = 0
        while True:
            Q = rng.choice(irr)
            e = rng.choice([1, 1, 2, p])
            if deg + int(Q.degree) * e > 8:
                break
            want[Q] = want.get(Q, 0) + e
            deg += int(Q.degree) * e
        if not want:
            continue
        K = ctx.ops()
        P = [K.one]
        for Q, e in want.items():
            P = _pmul(K, P, (Q ** e).codes)
        P = Poly.from_codes(ctx, P)
        assert factor_monic(P) == sorted(want.items(), key=lambda t: t[0].sort_key())
        assert is_irreducible(P) == (list(want.values()) == [1])
