import copy
import pickle
import random

import pytest

from cosetmap import (MatrixQ, Poly, enumerate_irreducibles, factor_monic, field,
                      is_irreducible, poly_order)
from cosetmap.gf import MINUS_INFINITY
from cosetmap.kernel import _horner, _pcomb, _pmul, _ppow, prime_power
from helpers import descent_poly_order, scan_default_modulus

SMALL_FIELDS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49]


def test_prime_field_basics():
    F3 = field(3)
    assert F3.elem(2) + F3.elem(2) == F3.elem(1)
    F5 = field(5)
    assert F5.elem(3) * F5.elem(3).inverse() == F5.one()


def test_gf27_generator_cube():
    # modulus X^3 - X + 1 bundled: w^3 = w - 1
    F27 = field(3, 3)
    assert F27.modulus == (1, 2, 0, 1)
    w = F27.gen()
    assert (w ** 3).coeffs == (2, 1, 0)
    assert w ** 3 == w * w * w


def test_division_by_zero_and_ctx_mismatch():
    F3, F5 = field(3), field(5)
    with pytest.raises(ZeroDivisionError):
        F3.zero().inverse()
    with pytest.raises(ValueError):
        F3.one() + F5.one()


@pytest.mark.parametrize("q", SMALL_FIELDS)
def test_field_axioms(q):
    ctx = field(*prime_power(q))
    elems = [ctx.from_index(i) for i in range(q)]
    # inverses and commutativity over all pairs
    for a in elems:
        assert a + ctx.zero() == a
        assert a * ctx.one() == a
        assert (a + (-a)).is_zero()
        assert (ctx.one() - a) + a == ctx.one()
        if not a.is_zero():
            assert a * a.inverse() == ctx.one()
            assert a ** -3 == a.inverse() ** 3 and a ** -3 * a * a * a == ctx.one()
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
    # associativity and distributivity on random triples
    rng = random.Random(q)
    for _ in range(200):
        a, b, c = (ctx.from_index(rng.randrange(q)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_poly_basics():
    """Products and values by the kernel's `_pmul` and `_horner`, and
    `divmod` of two polynomials, whose quotient and remainder give back the
    dividend."""
    F3 = field(3)
    K = F3.ops()
    xm1 = Poly(F3, (-1, 1))
    sq = Poly(F3, (1, 1, 1))
    assert _pmul(K, xm1.codes, xm1.codes) == list(sq.codes)  # X^2 - 2X + 1 = X^2 + X + 1 mod 3
    assert _horner(K, Poly(F3, (2, 1, 1)).codes, K.one)[1] == F3.code(1)
    f = Poly(F3, (1, 2, 0, 2))  # 2X^3 + 2X + 1
    for a in (sq, f):
        q, r = divmod(a, xm1)
        assert _pcomb(K, _pmul(K, q.codes, xm1.codes), K.one, r.codes) == list(a.codes)
    assert Poly.zero(F3).degree == MINUS_INFINITY
    with pytest.raises(ZeroDivisionError):
        divmod(xm1, Poly.zero(F3))


def test_factor_monic_examples():
    F2 = field(2)
    fac = factor_monic(Poly(F2, (1, 0, 1)))  # X^2 + 1 = (X+1)^2
    assert fac == [(Poly(F2, (1, 1)), 2)]
    F3 = field(3)
    xm1 = Poly(F3, (-1, 1))
    Q2 = Poly(F3, (2, 1, 1))
    charpoly_a = Poly.from_codes(F3, _pmul(F3.ops(), (xm1 ** 5).codes, Q2.codes))
    assert factor_monic(charpoly_a) == [(xm1, 5), (Q2, 1)]
    F5 = field(5)
    assert factor_monic(Poly(F5, (0, 1))) == [(Poly(F5, (0, 1)), 1)]
    with pytest.raises(ValueError):
        factor_monic(Poly(F3, (1, 2)))  # not monic


@pytest.mark.parametrize("p", [2, 3])
def test_factor_monic_remultiplies_exhaustive_deg8(p):
    import itertools
    ctx = field(p)
    K = ctx.ops()
    for d in range(1, 9):
        for lower in itertools.product(range(p), repeat=d):
            P = Poly(ctx, lower + (1,))
            fac = factor_monic(P)
            prod = [K.one]
            for Q, e in fac:
                assert is_irreducible(Q)
                prod = _pmul(K, prod, _ppow(K, Q.codes, e))
            assert tuple(prod) == P.codes


def test_factor_monic_extension_field():
    F4 = field(2, 2)
    K = F4.ops()
    w = F4.gen()
    P = Poly.from_codes(F4, _pmul(K, (w.index, K.one), (Poly(F4, (w + 1, 1)) ** 2).codes))
    prod = [K.one]
    for Q, e in factor_monic(P):
        prod = _pmul(K, prod, (Q ** e).codes)
    assert tuple(prod) == P.codes


def test_poly_order_examples():
    F3 = field(3)
    assert poly_order(Poly(F3, (-1, 1))) == 1
    assert poly_order(Poly(F3, (2, 1, 1))) == 8
    F2 = field(2)
    # brute force check of the derived value
    Q = Poly(F2, (1, 1, 1))
    x = Poly(F2, (0, 1))
    brute = next(n for n in range(1, 8) if x.pow_mod(n, Q) == Poly(F2, (1,)))
    assert brute == 3
    assert poly_order(Q) == 3
    with pytest.raises(ValueError):
        poly_order(Poly(F2, (0, 1)))
    with pytest.raises(ValueError):
        poly_order(Poly(F2, (1, 0, 1)))  # reducible


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_poly_order_divides_group_order(p):
    ctx = field(*prime_power(p))
    x = Poly(ctx, (0, 1))
    one = Poly(ctx, (1,))
    for Q in enumerate_irreducibles(ctx, 3):
        if Q.coeff(0).is_zero():
            continue
        n = ctx.order ** int(Q.degree) - 1
        o = poly_order(Q)
        assert n % o == 0
        assert x.pow_mod(o, Q) == one
        for d in range(1, o):
            if o % d == 0:
                assert x.pow_mod(d, Q) != one


def test_pow_mod_refuses_negative_power_and_zero_modulus():
    F3 = field(3)
    x, Q = Poly(F3, (0, 1)), Poly(F3, (2, 1, 1))
    with pytest.raises(ValueError, match="negative polynomial power"):
        x.pow_mod(-1, Q)
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        x.pow_mod(3, Poly.zero(F3))
    assert x.pow_mod(0, Q) == Poly(F3, (1,))


# (q, largest degree) for the comparison with the descent
POLY_ORDER_SWEEP = [(2, 8), (3, 5), (5, 3), (7, 3), (4, 3), (8, 3), (9, 2), (25, 2), (27, 2)]


@pytest.mark.parametrize("q,max_degree", POLY_ORDER_SWEEP)
def test_poly_order_matches_descent(q, max_degree):
    ctx = field(*prime_power(q))
    x, one = Poly(ctx, (0, 1)), Poly(ctx, (1,))
    for Q in enumerate_irreducibles(ctx, max_degree):
        if Q == x:
            continue
        o = poly_order(Q)
        assert o == descent_poly_order(Q), Q
        n = q ** int(Q.degree) - 1
        if n < 729:
            power, least = divmod(x, Q)[1], 1
            while power != one:
                power = divmod(Poly.from_codes(ctx, (0,) + power.codes), Q)[1]  # power * X mod Q
                least += 1
            assert o == least, Q


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 27, 1000003])
def test_linear_poly_order_is_the_order_of_its_root(monkeypatch, q):
    """ord(X - a) is the multiplicative order of a, read from the factors of
    q - 1 with no Frobenius matrix and no Rabin test: equal to the descent for
    every a of GF(q)^*, and for GF(1000003) for a = 1, -1 and 300 seeded a."""
    from cosetmap import gf

    def unused(*args):
        raise AssertionError("a linear Q needs no Frobenius matrix or Rabin test")

    ctx = field(*prime_power(q))
    K = ctx.ops()
    roots = range(1, q) if q < 100 else [1, q - 1] + random.Random(q).sample(range(2, q - 1), 300)
    polys = [Poly.from_codes(ctx, (K.neg(a), K.one)) for a in roots]
    want = [descent_poly_order(Q) for Q in polys]
    gf.clear_memos()
    monkeypatch.setattr(gf, "_frobenius_matrix", unused)
    monkeypatch.setattr(gf, "_is_irreducible", unused)
    assert [poly_order(Q) for Q in polys] == want


def test_poly_order_refusals():
    F2, F3 = field(2), field(3)
    with pytest.raises(ValueError, match="irreducible"):
        poly_order(Poly(F3, (2, 1, 0, 1, 1)))  # (X^2+1)(X^2+X+2)
    with pytest.raises(ValueError, match="irreducible"):
        poly_order(Poly(F2, (1, 1, 1)) ** 2)
    with pytest.raises(ValueError, match="Q = X"):
        poly_order(Poly(F3, (0, 1)))
    with pytest.raises(ValueError, match="monic"):
        poly_order(Poly(F3, (1, 2)))  # 2X + 1


def test_poly_order_is_worked_out_once_per_polynomial(monkeypatch):
    """A second call reads the order kept in the order memo; the refusals
    still run on every call, and a reducible Q is refused each time, never
    kept."""
    from cosetmap import gf
    F5 = field(5)
    Q = Poly(F5, (2, 4, 0, 1))  # X^3 + 4X + 2, irreducible over GF(5)
    order = poly_order(Q)
    assert order == descent_poly_order(Q)

    def recompute(K, f):
        raise AssertionError("order worked out again")

    monkeypatch.setattr(gf, "_poly_order", recompute)
    assert poly_order(Poly(F5, (2, 4, 0, 1))) == order
    with pytest.raises(ValueError, match="monic"):
        poly_order(Poly(F5, (4, 2, 0, 2)))  # 2*Q
    with pytest.raises(ValueError, match="Q = X"):
        poly_order(Poly(F5, (0, 1)))
    reducible = Poly(F5, (2, 1, 2, 1))  # (X^2+1)(X+2)
    for _ in range(2):
        with pytest.raises(AssertionError, match="worked out again"):
            poly_order(reducible)
    assert (F5, reducible.codes) not in gf._ORDERS


ORBIT_FIELDS = {2: 2 ** 10, 3: 3 ** 6, 5: 5 ** 4, 7: 7 ** 3, 11: 11 ** 2, 13: 13 ** 2}


@pytest.mark.parametrize("p,m", [(p, m) for p, top in ORBIT_FIELDS.items()
                                 for m in range(2, top.bit_length()) if p ** m <= top])
def test_orbit_orders_match_poly_order(p, m):
    """One pass over the Frobenius orbits of GF(p^m) finds every irreducible
    of degree m in the sieve's list, each with the order `_poly_order` works
    out for it alone."""
    from cosetmap.gf import _poly_order, degree_orders
    K = field(p).ops()
    polys = [Q.codes for Q in enumerate_irreducibles(field(p), m) if Q.degree == m]
    orders = degree_orders(p, m, polys)
    assert sorted(orders) == sorted(polys)
    assert all(orders[f] == _poly_order(K, f) for f in polys)


def test_orbit_orders_refuse_a_list_that_is_not_every_irreducible():
    from cosetmap.gf import degree_orders
    polys = [Q.codes for Q in enumerate_irreducibles(field(3), 3) if Q.degree == 3]
    reducible = Poly(field(3), (2, 1, 2, 1)).codes  # (X^2+1)(X+2)
    for wrong in (polys[:-1], polys + [reducible], polys + polys[-1:], polys[:-1] + [reducible],
                  [f for f in polys if poly_order(Poly(field(3), f)) != 26]):
        with pytest.raises(ArithmeticError, match="degree-3 list over GF"):
            degree_orders(3, 3, wrong)


def test_enumerate_irreducibles():
    F2 = field(2)
    got = enumerate_irreducibles(F2, 2)
    assert got == [Poly(F2, (0, 1)), Poly(F2, (1, 1)), Poly(F2, (1, 1, 1))]
    F3 = field(3)
    deg1 = [Q for Q in enumerate_irreducibles(F3, 1)]
    assert deg1 == [Poly(F3, (0, 1)), Poly(F3, (1, 1)), Poly(F3, (2, 1))]
    # necklace count for quadratics over GF(3): (9 - 3) / 2 = 3
    quads = [Q for Q in enumerate_irreducibles(F3, 2) if Q.degree == 2]
    assert len(quads) == (9 - 3) // 2
    for Q in quads:
        for a in range(3):
            assert _horner(F3.ops(), Q.codes, a)[1]


def test_default_modulus_is_first_irreducible():
    F4 = field(2, 2)
    assert F4.modulus == (1, 1, 1)
    F9 = field(3, 2)
    # first monic irreducible quadratic over GF(3) in enumeration order
    assert F9.modulus == (1, 0, 1)
    with pytest.raises(ValueError):
        field(3, 2, (0, 0, 1))  # X^2 is reducible
    with pytest.raises(ValueError):
        field(4)  # not prime


def test_field_remembers_a_request_without_modulus(monkeypatch):
    from cosetmap import gf
    for p, k in [(2, 2), (2, 3), (3, 2), (5, 2), (5, 4)]:
        ctx = field(p, k)
        calls, real = [], gf._is_irreducible
        monkeypatch.setattr(gf, "_is_irreducible", lambda *args: calls.append(args) or real(*args))
        assert field(p, k) is ctx is field(p, k, ctx.modulus)
        assert calls == []
        monkeypatch.undo()
    # a refused request is not remembered
    for _ in range(2):
        with pytest.raises(ValueError, match="not prime"):
            field(4, 2)
    assert (4, 2, None) not in gf._CTX_CACHE


def test_field_interns_a_modulus_however_it_is_written():
    """A modulus with coefficients outside 0..p-1 or with trailing zeros
    names the one context of its normalized form, with one set of tables."""
    ctx = field(3, 2, (2, 2, 1))
    assert field(3, 2, (2, 2, 1, 0)) is ctx
    assert field(3, 2, (5, -1, 4, 3)) is ctx
    assert field(3, 2, [2, 2, 1, 0, 0]) is ctx


def test_field_is_one_object_however_it_is_reached():
    """Contexts compare by identity, so every spelling of one field, and the
    pickle and copies of a context or of a value over it, give back the one
    interned object."""
    ctx = field(3, 2, (2, 2, 1))
    assert field(3, 2, (2, 2, 1, 0)) is ctx
    assert field(3, 2, (-1, 5, 4)) is ctx
    assert field(3, 3) is field(3, 3, (1, 2, 0, 1)) is field(3, 3, [4, -1, 3, 1, 0])
    assert field(3, 3, (1, 2, 0, 1)) is not ctx
    M = MatrixQ(ctx, [[1, 2], [0, 1]])
    P = Poly(ctx, (1, ctx.gen(), 2))
    for copied in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        assert copied(ctx) is ctx
        assert copied(M).ctx is ctx and copied(M) == M
        assert copied(P).ctx is ctx and copied(P) == P


def test_field_refuses_p_zero_as_not_prime():
    """p = 0 is refused before the modulus is reduced mod p."""
    with pytest.raises(ValueError, match="^0 is not prime$"):
        field(0, 2, (1, 0, 1))


def test_default_modulus_matches_full_scan():
    # the search skips the candidates divisible by X, none irreducible for k >= 2
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(2, 17):
            if p ** k > 10 ** 5:
                break
            # GF(27) keeps its bundled X^3 - X + 1
            expected = (1, 2, 0, 1) if (p, k) == (3, 3) else scan_default_modulus(p, k)
            assert field(p, k).modulus == expected, (p, k)
