import itertools
import json
import random
import re

import pytest

from cosetmap import (MapTable, MatrixQ, Poly, VectorQ, analyze, ct, evaluate_poly_table, field,
                      interpolate, load_table)
from cosetmap.kernel import index_to_tuple, tuple_to_index
from cosetmap.oracle import is_complete_mapping
from helpers import (horner_poly_table, is_complete_table, lagrange_interpolate,
                     pointwise_affine_table, reference_analyze)


def test_index_round_trip():
    for p, n in [(2, 3), (3, 2), (5, 1)]:
        for i in range(p ** n):
            assert tuple_to_index(index_to_tuple(i, p, n), p) == i
    # first coordinate is most significant
    assert index_to_tuple(0, 3, 2) == (0, 0)
    assert index_to_tuple(1, 3, 2) == (0, 1)
    assert index_to_tuple(3, 3, 2) == (1, 0)


def test_plane_sums_match_one_digit_sum_pass_per_sign():
    """`_sums_bijective`'s verdicts, on byte planes for odd p <= 13 (13 the
    largest such prime, 17 the smallest past it) from `_PLANE_POINTS` points
    on (3^3, 5^2 and 7^2 below it, 3^4, 11^2 and 5^3 above) and from
    `digit_sums` otherwise, are those of one `digit_sums` pass per sign, for
    every order of the signs, and `analyze`'s cycle type, read from its cycles, is
    `ct_of_permutation`'s; p = 67 has chunks with no table.  x -> c*x + shift
    with c in -3..3 is complete and an orthomorphism or not, as c is -1, 1 or
    neither; two shuffled permutations per domain are mostly neither."""
    from cosetmap.cycletype import ct_of_permutation
    from cosetmap.kernel import digit_sums
    from cosetmap.oracle import _PLANE_POINTS, _sums_bijective

    assert 7 ** 2 < _PLANE_POINTS <= 3 ** 4
    rng = random.Random(0)
    for p, n in [(p, n) for p in (2, 3, 5, 7, 11, 13, 17, 67) for n in range(7)
                 if p ** n <= 67 ** 2]:
        size = p ** n
        tables = []
        for c in range(-3, 4):
            b = index_to_tuple(rng.randrange(size), p, n)
            tables.append([tuple_to_index([c * a + e for a, e in zip(index_to_tuple(x, p, n), b)],
                                          p) for x in range(size)])
        for _ in range(2):
            tables.append(rng.sample(range(size), size))
        for images in tables:
            one_pass = {s: len(set(digit_sums(images, range(size), p, n, s))) == size
                        for s in (1, -1)}
            for signs in ((1,), (-1,), (1, -1), (-1, 1)):
                assert _sums_bijective(images, p, n, signs) == [one_pass[s] for s in signs]
            report = analyze(MapTable(size, images), p, n)
            if report.is_bijection:
                assert [report.is_complete, report.is_orthomorphism] == [one_pass[1], one_pass[-1]]
                assert report.cycle_type == ct_of_permutation(images)


def test_analyze_shift_on_gf3():
    table = MapTable(3, (1, 2, 0))
    report = analyze(table, 3, 1)
    assert report.is_bijection and report.is_complete
    assert report.cycle_type == ct("x3")
    assert report.fixed_points == ()


def test_analyze_identity_on_gf2():
    report = analyze(MapTable(2, (0, 1)), 2, 1)
    assert report.is_bijection and not report.is_complete
    assert report.cycle_type == ct("x1^2")
    # the swap is not complete either: GF(2) has no complete mappings
    report = analyze(MapTable(2, (1, 0)), 2, 1)
    assert not report.is_complete


def test_analyze_non_bijection():
    report = analyze(MapTable(4, (0, 0, 1, 2)), 2, 2)
    assert not report.is_bijection
    assert report.cycle_type is None
    assert not report.is_complete


def test_orthomorphism_flag():
    # x -> 2x on GF(3): f - id = x is a bijection, f + id = 3x = 0 is not
    report = analyze(MapTable(3, (0, 2, 1)), 3, 1)
    assert report.is_orthomorphism
    assert report.is_bijection
    assert not report.is_complete
    # x -> x + 1 is complete but f - id is the constant 1
    report = analyze(MapTable(3, (1, 2, 0)), 3, 1)
    assert report.is_complete and not report.is_orthomorphism


def test_analyze_refuses_non_prime_p():
    # Z/4 addition is not the law of any GF(4)^dims
    for images in [(1, 2, 3, 0), (0, 0, 0, 0)]:
        with pytest.raises(ValueError, match="not prime"):
            analyze(MapTable(4, images), 4, 1)
    with pytest.raises(ValueError, match="not prime"):
        analyze(MapTable(1, (0,)), 1, 3)


def test_is_complete_mapping_matches_pointwise_decode():
    """The digit-sum test against the per-point decode loop, on
    permutations, affine maps (some complete), non-bijections and tables of
    the wrong length, up to GF(3)^7 and GF(2)^7."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    spaces = [(p, n) for p in (2, 3, 5, 7) for n in range(8 if p <= 3 else 5)]

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.sampled_from(spaces),
                      st.sampled_from(["perm", "affine", "map", "length"]), st.data())
    def check(space, kind, data):
        p, n = space
        size = p ** n
        # large tables come from a drawn seed, small ones shrink draw by draw
        rng = random.Random(data.draw(st.integers(0, 2 ** 32))) if size > 81 else None
        if kind == "perm" and rng:
            images = rng.sample(range(size), size)
        elif kind == "perm":
            images = data.draw(st.permutations(range(size)))
        elif kind == "affine":
            ctx = field(p)
            coords = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
            M = MatrixQ(ctx, data.draw(st.lists(coords, min_size=n, max_size=n)))
            images = pointwise_affine_table(M, VectorQ(ctx, data.draw(coords)))
        elif kind == "map" and rng:
            images = [rng.randrange(size) for _ in range(size)]
        elif kind == "map":
            images = data.draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
        else:
            images = list(range(size))
            images += data.draw(st.lists(st.integers(0, size), min_size=1, max_size=2))
            if data.draw(st.booleans()):
                images = images[:size - 1]
        assert is_complete_mapping(images, p, n) == is_complete_table(images, p, n)

    check()
    # identity maps: x + x = 2x is a bijection for odd p only
    for p, n in [(2, 2), (3, 3), (5, 2), (7, 1)]:
        identity = list(range(p ** n))
        assert is_complete_mapping(identity, p, n) == (p > 2)
    with pytest.raises(ValueError, match="dimension -1 is negative"):
        is_complete_mapping([0], 3, -1)


def test_analyze_matches_reference():
    """One bijection test and one digit decomposition for both sums give the
    report of each answer computed on its own, and the same refusals."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.sampled_from([2, 3, 5]), st.integers(0, 3), st.booleans(), st.data())
    def check(p, dims, bijective, data):
        size = p ** dims
        if bijective:
            images = data.draw(st.permutations(range(size)))
        else:
            images = data.draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
        table = MapTable(size, tuple(images))
        assert analyze(table, p, dims) == reference_analyze(table, p, dims)

    check()
    # the domain size is checked before the prime
    for table, p, dims in [(MapTable(4, (1, 0, 3, 2)), 2, 1), (MapTable(3, (0, 1, 2)), 4, 1),
                           (MapTable(4, (0, 1, 2, 3)), 4, 1)]:
        with pytest.raises(ValueError) as want:
            reference_analyze(table, p, dims)
        with pytest.raises(ValueError) as got:
            analyze(table, p, dims)
        assert str(got.value) == str(want.value)


def test_domain_guard():
    with pytest.raises(ValueError):
        MapTable(10 ** 6 + 1, tuple())


def test_interpolate_basics():
    F5 = field(5)
    # constant map
    P = interpolate(F5, [F5.elem(3)] * 5)
    assert P == Poly(F5, (3,))
    # x -> x^2
    vals = [F5.from_index(i) * F5.from_index(i) for i in range(5)]
    assert interpolate(F5, vals) == Poly(F5, (0, 0, 1))


@pytest.mark.parametrize("q,k", [(5, 1), (8, 3), (9, 2), (27, 3)])
def test_interpolate_round_trip_random(q, k):
    from cosetmap import field_of_order
    ctx = field_of_order(q)
    rng = random.Random(q)
    for _ in range(25):
        P = Poly(ctx, [ctx.from_index(rng.randrange(q)) for _ in range(q)])
        vals = [P(ctx.from_index(i)) for i in range(q)]
        assert interpolate(ctx, vals) == P


# GF(2), GF(3), GF(4), GF(8), GF(9), GF(25), GF(27), GF(49), GF(13), GF(343)
TRANSFORM_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2), (13, 1),
                    (7, 3)]


def test_transforms_match_horner_and_lagrange():
    """`evaluate_poly_table` and `interpolate`, one chirp-z transform each,
    give the Horner table at every point and the Lagrange polynomial: for any
    degree (q and beyond too), the zero polynomial and q = 2."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.sampled_from(TRANSFORM_FIELDS), st.integers(-1, 3), st.data())
    def check(pk, blocks, data):
        ctx = field(*pk)
        q = ctx.order
        # up to `blocks` times q coefficients; large fields from a drawn seed,
        # small ones draw by draw so that they shrink
        length = data.draw(st.integers(0, max(0, blocks * q + 1)))
        if q > 27:
            rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
            codes = [rng.randrange(q) for _ in range(length)]
            values = [rng.randrange(q) for _ in range(q)]
        else:
            codes = data.draw(st.lists(st.integers(0, q - 1), min_size=length, max_size=length))
            values = data.draw(st.lists(st.integers(0, q - 1), min_size=q, max_size=q))
        P = Poly.from_codes(ctx, codes)
        table = evaluate_poly_table(P)
        assert list(table.images) == horner_poly_table(P)
        points = [ctx.from_index(v) for v in values]
        assert interpolate(ctx, points) == lagrange_interpolate(ctx, points)
        back = interpolate(ctx, [ctx.from_index(v) for v in table.images])
        assert back.degree < q and evaluate_poly_table(back) == table

    check()
    for p, k in TRANSFORM_FIELDS:
        ctx = field(p, k)
        q = ctx.order
        zero = Poly.zero(ctx)
        assert evaluate_poly_table(zero) == MapTable(q, (0,) * q)
        assert interpolate(ctx, [ctx.zero()] * q) == zero
        for values in ([ctx.zero()] * (q - 1), [ctx.zero()] * (q + 1)):
            for fn in (interpolate, lagrange_interpolate):
                with pytest.raises(ValueError, match="needs all q values"):
                    fn(ctx, values)
    F2 = field(2)
    for images in itertools.product(range(2), repeat=2):
        P = interpolate(F2, [F2.elem(v) for v in images])
        assert evaluate_poly_table(P).images == images
        assert P == lagrange_interpolate(F2, [F2.elem(v) for v in images])


def test_json_and_csv_loading():
    t = load_table('{"n": 3, "images": [1, 2, 0]}')
    assert t == MapTable(3, (1, 2, 0))
    t = load_table("0,1\n1,2\n2,0\n")
    assert t == MapTable(3, (1, 2, 0))
    assert t.to_json() == {"n": 3, "images": [1, 2, 0]}
    assert MapTable.from_json(t.to_json()) == t
    assert load_table(json.dumps(t.to_json())) == t
    with pytest.raises(ValueError):
        load_table("0,1\n2,0\n")
    with pytest.raises(ValueError, match="exactly once"):
        load_table("0,1\n0,0\n1,0\n")
    report_json = analyze(t, 3, 1).to_json()
    assert report_json["cycle_type"] == {"3": 1}


def test_csv_cells_must_be_ascii_digits():
    """A CSV cell is ASCII digits, spaces around it aside, as a JSON entry
    must be a JSON integer; int() alone would read 0_0, an Arabic-Indic two
    and +1."""
    assert load_table(" 0 , 1\n1,2 \n 2,0\n") == MapTable(3, (1, 2, 0))
    for bad, row, cell in [("0,1\n1,2\n2,0_0\n", 3, "0_0"), ("0,1\n1,\u0662\n2,0\n", 2, "\u0662"),
                           ("0,1\n+1,2\n2,0\n", 2, "+1"), ("0,-1\n", 1, "-1"),
                           ("0,1\n\n1,\n", 3, ""), ("0,1\n1,2.0\n", 2, "2.0")]:
        with pytest.raises(ValueError, match="^" + re.escape(f"CSV row {row}: {cell!r} is not")):
            load_table(bad)


@pytest.mark.parametrize("n,images,message", [
    (3, [0, 1.0, 2], "an image must be an integer, not 1.0"),
    (3, [0, True, 2], "an image must be an integer, not True"),
    (2, ["1", 0], "an image must be an integer, not '1'"),
    (3.0, [0, 1, 2], "n must be an integer, not 3.0"),
])
def test_map_table_takes_only_ints(n, images, message):
    """An n or image that is not an int is refused at construction: a float
    image was once accepted, and `analyze` then raised TypeError."""
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        MapTable(n, images)
