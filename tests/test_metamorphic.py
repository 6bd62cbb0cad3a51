"""Metamorphic relations for affine cycle types, checked where no value table
fits as well as where one does.

Each relation ties two answers of the library to each other instead of to a
tabulated oracle, so it holds at q^n far above the oracle's size limit:

- powers: the type of f^j (composed with `AffineMap.then`) is the type of f
  with each n-cycle split into gcd(n, j) cycles of length n / gcd(n, j);
- conjugation by a random invertible affine map leaves the type unchanged;
- the type of x -> x*M + v lies in `gamma_of_matrix(M)`;
- `ct_acgl(d, p)` is a subset of `ct_agl(d, p)`;
- `witness_map(gamma, ...)` has type gamma, also after conjugation, and its
  matrix is complete when asked for a complete witness.
"""

from __future__ import annotations

import math
import random

import pytest

from cosetmap import (AffineMap, CycleType, MatrixQ, VectorQ, affine_cycle_type, field,
                      gamma_of_matrix, is_cgl, sorted_types)
from cosetmap.affine_ct import ct_acgl, ct_agl, witness_map
from helpers import random_invertible

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# (p, k, largest dimension): q^n reaches 7^10 ~ 2.8e8 and 25^5 ~ 9.8e6 points
SHAPES = [(2, 1, 12), (3, 1, 10), (5, 1, 8), (7, 1, 10), (2, 2, 6), (3, 2, 5), (5, 2, 5)]


def random_affine(ctx, n: int, rng: random.Random) -> AffineMap:
    """x -> x*M + v for a random invertible M and a random shift."""
    return AffineMap(random_invertible(ctx, n, rng),
                     VectorQ.from_codes(ctx, [rng.randrange(ctx.order) for _ in range(n)]))


def inverse(g: AffineMap) -> AffineMap:
    """x -> (x - c)*T^-1 for g = x -> x*T + c."""
    T_inv = g.matrix.inverse()
    return AffineMap(T_inv, VectorQ(g.ctx, [-e for e in (g.shift * T_inv).entries]))


def power_type(ctype: CycleType, j: int) -> CycleType:
    """The cycle type of the j-th power of a permutation of type ctype."""
    return CycleType([(n // math.gcd(n, j), c * math.gcd(n, j)) for n, c in ctype.cycles])


@st.composite
def affine_maps(draw):
    p, k, nmax = draw(st.sampled_from(SHAPES))
    ctx = field(p, k)
    n = draw(st.integers(1, nmax))
    return random_affine(ctx, n, random.Random(draw(st.integers(0, 2 ** 32))))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(affine_maps(), st.integers(1, 40))
def test_power_splits_each_cycle_by_the_gcd(f, j):
    power = f
    for _ in range(j - 1):
        power = power.then(f)
    assert affine_cycle_type(power) == power_type(affine_cycle_type(f), j)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(affine_maps(), st.integers(0, 2 ** 32))
def test_conjugation_keeps_the_type(f, seed):
    g = random_affine(f.ctx, f.dim, random.Random(seed))
    assert affine_cycle_type(inverse(g).then(f).then(g)) == affine_cycle_type(f)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.sampled_from([(2, 1, 6), (3, 1, 5), (5, 1, 4), (7, 1, 3), (2, 2, 3),
                                   (3, 2, 3)]), st.data())
def test_type_lies_in_the_gamma_set_of_its_matrix(shape, data):
    p, k, nmax = shape
    ctx = field(p, k)
    n = data.draw(st.integers(1, nmax))
    codes = st.integers(0, ctx.order - 1)
    M = random_invertible(ctx, n, random.Random(data.draw(st.integers(0, 2 ** 32))))
    v = VectorQ.from_codes(ctx, data.draw(st.lists(codes, min_size=n, max_size=n)))
    assert affine_cycle_type(AffineMap(M, v)) in gamma_of_matrix(M)


@pytest.mark.parametrize("d,p", [(d, 2) for d in range(1, 8)] + [(d, 3) for d in range(1, 6)]
                         + [(d, 5) for d in range(1, 4)] + [(1, 7), (2, 7), (1, 11)])
def test_complete_affine_types_are_affine_types(d, p):
    assert ct_acgl(d, p) <= ct_agl(d, p)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.sampled_from([(d, 2) for d in range(1, 7)] + [(d, 3) for d in range(1, 5)]
                                  + [(1, 5), (2, 5), (3, 5), (1, 7), (2, 7)]),
                  st.booleans(), st.data())
def test_witness_map_has_its_type(dp, complete, data):
    d, p = dp
    types = sorted_types(ct_acgl(d, p) if complete else ct_agl(d, p))
    hypothesis.assume(types)
    gamma = types[data.draw(st.integers(0, len(types) - 1))]
    f = witness_map(gamma, d, p, complete)
    assert isinstance(f.matrix, MatrixQ) and f.dim == d
    if complete:
        assert is_cgl(f.matrix)
    g = random_affine(f.ctx, d, random.Random(data.draw(st.integers(0, 2 ** 32))))
    assert affine_cycle_type(inverse(g).then(f).then(g)) == gamma
