"""The census of complete-mapping cycle types over small fields, and the part
of it the coset-wise construction reaches.

The census comes from `helpers.complete_mapping_census`, a backtracking
search that uses nothing of cosetmap; the counts of the prime fields are
OEIS A006717.  A map the package builds is tabulated and checked by
`analyze`, and its cycle type must be one the census has.
"""

import functools
import itertools

import pytest

from cosetmap import analyze, construct_main, ct, cw_to_table, gamma_dpl
from cosetmap.cycletype import cycles_of
from cosetmap.oracle import is_complete_mapping
from helpers import complete_mapping_census, complete_mappings

census = functools.cache(complete_mapping_census)

CENSUS = {
    (2, 1): (0, {}),
    (3, 1): (3, {"x1^3": 1, "x3": 2}),
    (5, 1): (15, {"x1^5": 1, "x1 x4": 10, "x5": 4}),
    (7, 1): (133, {"x1^7": 1, "x1^2 x5": 42, "x1 x3^2": 28, "x1 x6": 14, "x7": 48}),
    (2, 2): (8, {"x1 x3": 8}),
    (2, 3): (384, {"x1 x7": 384}),
    (3, 2): (2241, {"x1^9": 1, "x1^6 x3": 24, "x1^3 x3^2": 48, "x1^2 x7": 432,
                    "x1 x3 x5": 864, "x1 x4^2": 108, "x1 x8": 108, "x3^3": 224, "x9": 432}),
    (11, 1): (37851, {
        "x1^11": 1, "x1^6 x5": 44, "x1^5 x6": 220, "x1^4 x7": 440, "x1^4 x3 x4": 440,
        "x1^3 x8": 1430, "x1^3 x3 x5": 440, "x1^3 x4^2": 220, "x1^2 x9": 2970,
        "x1^2 x3 x6": 1980, "x1^2 x4 x5": 1980, "x1 x10": 6798, "x1 x3 x7": 3080,
        "x1 x3^2 x4": 440, "x1 x4 x6": 880, "x1 x5^2": 1628, "x11": 5400, "x3 x8": 3300,
        "x3 x4^2": 440, "x4 x7": 3520, "x5 x6": 2200}),
}

CENSUS_13 = (1030367, {
    "x1^13": 1, "x1^7 x6": 364, "x1^6 x7": 312, "x1^6 x3 x4": 624, "x1^5 x8": 2730,
    "x1^5 x3 x5": 1248, "x1^5 x4^2": 780, "x1^4 x9": 10556, "x1^4 x3 x6": 2496,
    "x1^4 x3^3": 1040, "x1^4 x4 x5": 4992, "x1^3 x10": 25584, "x1^3 x3 x7": 18096,
    "x1^3 x3^2 x4": 1248, "x1^3 x4 x6": 12480, "x1^3 x5^2": 8112, "x1^2 x11": 83304,
    "x1^2 x3 x8": 27768, "x1^2 x3^2 x5": 14976, "x1^2 x3 x4^2": 10608, "x1^2 x4 x7": 17784,
    "x1^2 x5 x6": 23712, "x1 x12": 130416, "x1 x3 x9": 71136, "x1 x3 x4 x5": 18720,
    "x1 x3^2 x6": 4992, "x1 x3^4": 4784, "x1 x4 x8": 62244, "x1 x4^3": 4264,
    "x1 x5 x7": 44304, "x1 x6^2": 28340, "x13": 148368, "x3 x10": 48984, "x3^2 x7": 19968,
    "x3 x4 x6": 29328, "x3 x5^2": 16848, "x4 x9": 36816, "x4^2 x5": 16224, "x5 x8": 40248,
    "x6 x7": 35568})

# The cycle types of GF(p^n) that no construct_main(p, d, t, ...) with d + t = n reaches.
MISSED = {(7, 1): {"x1^2 x5"}, (3, 2): {"x1 x3 x5", "x1^2 x7"}}


@pytest.mark.parametrize("p,n", sorted(CENSUS))
def test_census_counts_and_types(p, n):
    """Every complete mapping of GF(p)^n, and how many have each cycle type."""
    assert census(p, n) == CENSUS[(p, n)]


@pytest.mark.slow
def test_census_of_gf13():
    """GF(13): 1030367 complete mappings of 40 types (about 20 s)."""
    assert complete_mapping_census(13, 1) == CENSUS_13


@pytest.mark.parametrize("p,n", [(3, 1), (2, 2), (5, 1), (7, 1)])
def test_census_search_against_all_permutations(p, n):
    """The backtracking search finds exactly the permutations that
    `oracle.is_complete_mapping` accepts."""
    q = p ** n
    expected = [g for g in itertools.permutations(range(q)) if is_complete_mapping(g, p, n)]
    assert list(complete_mappings(p, n)) == expected


def built_types(p: int, d: int, t: int) -> set[str]:
    """The cycle types of construct_main(p, d, t, g, targets) over every
    complete base map g of GF(p)^t and every choice of a target in
    gamma_dpl(d, p, |c|) per cycle c of g, each map checked complete."""
    types = set()
    for g in complete_mappings(p, t):
        keys, seen = [], {}
        for cycle in cycles_of(g):
            seen[len(cycle)] = seen.get(len(cycle), 0) + 1
            keys.append((len(cycle), seen[len(cycle)]))
        choices = [sorted(gamma_dpl(d, p, length), key=str) for length, _ in keys]
        for targets in itertools.product(*choices):
            report = analyze(cw_to_table(construct_main(p, d, t, g, dict(zip(keys, targets)))),
                             p, d + t)
            assert report.is_complete
            types.add(str(report.cycle_type))
    return types


def test_constructed_types_lie_in_the_census():
    """t = 0 over every field of at most 11 elements, and (p, d, t) =
    (3, 1, 1): every type built is one the census has.  The construction
    reaches all types of GF(3), GF(4), GF(5) and GF(8), misses x1^2 x5 in
    GF(7) and x1 x3 x5 and x1^2 x7 in GF(9), and over GF(11) reaches the
    affine types only."""
    reach = {}
    for p, d, t in [(2, 1, 0), (2, 2, 0), (2, 3, 0), (3, 1, 0), (3, 2, 0), (5, 1, 0),
                    (7, 1, 0), (11, 1, 0), (3, 1, 1)]:
        reach.setdefault((p, d + t), set()).update(built_types(p, d, t))
    for (p, n), types in reach.items():
        assert types <= set(census(p, n)[1]), (p, n)
        if (p, n) != (11, 1):
            assert set(census(p, n)[1]) - types == MISSED.get((p, n), set()), (p, n)
    assert reach[(11, 1)] == {"x1^11", "x1 x10", "x1 x5^2", "x11"}


def test_characteristic_two_maps_have_one_fixed_point():
    """In characteristic 2, f(x) = x exactly when f(x) + x = 0, so a
    complete map has exactly one fixed point: every map built over GF(2)^n
    (t = 0 up to n = 6, and d = t = 2) and every census type of GF(4) and
    GF(8)."""
    for d, t in [(d, 0) for d in range(1, 7)] + [(2, 2)]:
        types = built_types(2, d, t)
        assert d == 1 or types
        assert all(ct(text).count(1) == 1 for text in types), (d, t)
    for n in (2, 3):
        assert all(ct(text).count(1) == 1 for text in census(2, n)[1])
