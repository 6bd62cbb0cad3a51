import random
import re

import pytest

from cosetmap import (CycleType, blow_up, ct, ct_format, ct_mul,
                      ct_of_permutation, ct_parse, weixu, weixu_all)
from cosetmap.cycletype import is_permutation


def test_ct_of_permutation():
    assert ct_of_permutation([0, 1, 2, 3]) == ct("x1^4")
    assert ct_of_permutation([1, 2, 3, 4, 0]) == ct("x5")
    assert ct_of_permutation([1, 0, 3, 4, 2]) == ct("x2 x3")
    with pytest.raises(ValueError):
        ct_of_permutation([0, 0, 1])


def test_is_permutation_matches_its_definition():
    """The one bijection test of an image table answers as sorting does, on
    lists and one-pass iterators, the empty table, negative values, values
    of n or more, and repeats."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.one_of(st.permutations(range(6)),
                                st.lists(st.integers(-3, 8), max_size=8)), st.booleans())
    def check(values, one_pass):
        n = len(values)
        want = sorted(values) == list(range(n))
        assert is_permutation(iter(values) if one_pass else values, n) == want

    check()
    assert is_permutation([], 0) and is_permutation(iter(()), 0)
    assert not is_permutation([-1, 0], 2) and not is_permutation([0, 10 ** 30], 2)


def test_ct_mul():
    assert ct("x1^3") * ct("x3") == ct("x1^3 x3")
    assert ct_mul(ct("x3^2"), ct("x3")) == ct("x3^3")
    assert ct("x1^9 x3^78") * ct("x8^9 x24^78") == ct("x1^9 x3^78 x8^9 x24^78")


def test_blow_up():
    assert blow_up(3, ct("x1^2 x2")) == ct("x3^2 x6")
    g = ct("x1^4 x2 x5^3")
    assert blow_up(1, g) == g
    assert blow_up(3, ct("x3")) == ct("x9")
    # algebra endomorphism: BU(a * b) = BU(a) * BU(b)
    rng = random.Random(1)
    for _ in range(50):
        a = CycleType({rng.randrange(1, 9): rng.randrange(1, 5) for _ in range(3)})
        b = CycleType({rng.randrange(1, 9): rng.randrange(1, 5) for _ in range(3)})
        l = rng.randrange(1, 6)
        assert blow_up(l, a * b) == blow_up(l, a) * blow_up(l, b)
        assert blow_up(l, a).degree == l * a.degree


def test_power_lengths_and_copy():
    g = ct("x1^2 x3")
    assert g ** 3 == g * g * g == ct("x1^6 x3^3")
    assert g ** 0 == CycleType()
    with pytest.raises(ValueError):
        g ** -1
    assert g.lengths() == (1, 3) and CycleType().lengths() == ()
    copy = CycleType(g)
    assert copy == g and hash(copy) == hash(g) and copy.cycles == ((1, 2), (3, 1))


def test_weixu_paper_products():
    assert weixu_all([ct("x1^3 x3^2"), ct("x1^3 x3^8"), ct("x1 x8")]) == ct("x1^9 x3^78 x8^9 x24^78")
    assert weixu_all([ct("x3^3"), ct("x9^3"), ct("x1 x8")]) == ct("x9^27 x72^27")
    assert weixu(ct("x2"), ct("x2")) == ct("x2^2")


def test_weixu_direct_sum_oracle():
    # the adopted gcd/lcm rule must match the action on a product set
    rng = random.Random(42)
    for _ in range(200):
        m = rng.randrange(1, 31)
        n = rng.randrange(1, 31)
        sigma = list(range(m))
        tau = list(range(n))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        prod = [0] * (m * n)
        for i in range(m):
            for j in range(n):
                prod[i * n + j] = sigma[i] * n + tau[j]
        assert weixu(ct_of_permutation(sigma), ct_of_permutation(tau)) == \
            ct_of_permutation(prod)


def test_weixu_commutative_associative_identity():
    rng = random.Random(7)
    one_point = ct("x1")
    for _ in range(100):
        a = CycleType({rng.randrange(1, 12): rng.randrange(1, 4) for _ in range(2)})
        b = CycleType({rng.randrange(1, 12): rng.randrange(1, 4) for _ in range(2)})
        c = CycleType({rng.randrange(1, 12): rng.randrange(1, 4) for _ in range(2)})
        assert weixu(a, b) == weixu(b, a)
        assert weixu(weixu(a, b), c) == weixu(a, weixu(b, c))
        assert weixu(a, one_point) == a
        assert weixu(a, b).degree == a.degree * b.degree
    # the empty star product is the type of the one-point space
    assert weixu_all([]) == one_point


def test_format_parse_round_trip():
    assert ct_format(ct_parse("x1^3 x3^8")) == "x1^3 x3^8"
    assert ct_parse("x27") == CycleType({27: 1})
    assert ct_format(CycleType({3: 1, 1: 2})) == "x1^2 x3"
    # "1" is the empty monomial, the unit of the disjoint-union product
    assert ct_parse("1") == CycleType() and ct_format(CycleType()) == "1"
    assert ct("1") * ct("x2") == ct("x2")
    with pytest.raises(ValueError):
        ct_parse("x3 x1")
    with pytest.raises(ValueError):
        ct_parse("x3 x3")
    with pytest.raises(ValueError):
        ct_parse("y3")
    for text in ("x0", "x1^0", "x2 x0"):
        with pytest.raises(ValueError, match="^cycle-type terms need positive length and count$"):
            ct_parse(text)
    rt = ct_parse(ct_format(CycleType({1: 9, 3: 78, 8: 9, 24: 78})))
    assert rt == CycleType({1: 9, 3: 78, 8: 9, 24: 78})


def test_json_round_trip():
    g = ct("x1^9 x3^78 x8^9 x24^78")
    assert CycleType.from_json(g.to_json()) == g
    assert g.to_json() == {"1": 9, "3": 78, "8": 9, "24": 78}


@pytest.mark.parametrize("obj,message", [
    ({"3": 1.9}, "the count of x3 must be an integer, not 1.9"),
    ({"3": "2"}, "the count of x3 must be an integer, not '2'"),
    ({"3": True}, "the count of x3 must be an integer, not True"),
    ([1], "a cycle type must be a JSON object, not list"),
    (None, "a cycle type must be a JSON object, not NoneType"),
    ({"x3": 1}, "a cycle length must be a string of digits, not 'x3'"),
    ({" 3": 1}, "a cycle length must be a string of digits, not ' 3'"),
    ({"\u0663": 1}, "a cycle length must be a string of digits, not '\u0663'"),
    ({3: 1}, "a cycle length must be a string of digits, not 3"),
])
def test_from_json_takes_only_json_integers(obj, message):
    """Lengths are digit strings as `to_json` writes them and counts are JSON
    integers; nothing is truncated or parsed."""
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        CycleType.from_json(obj)
