"""The wreath correspondence as a metamorphic relation.

An affine map x -> x*M + v of GF(p)^(d+t) with M = [[A, 0], [C, B]] keeps W,
the first d coordinates, invariant.  On the coset of u in GF(p)^t it acts as
the coset-wise affine map with alpha = A, omega = u*C + v1 and
nu = u*(B - I) + v2, where v = (v1, v2).  The cycle type from its forward
cycle products (`cw_cycle_type`, d-dimensional products blown up by cycle
length) must equal the one from the elementary divisors of the whole
(d+t)-dimensional map (`affine_cycle_type`).
"""

from __future__ import annotations

import itertools
import random

import pytest

from cosetmap import (AffineMap, MatrixQ, Splitting, VectorQ, affine_cycle_type, cw_cycle_type,
                      field)
from helpers import cw_map, random_invertible


def block_triangular_pair(p: int, d: int, t: int, rng: random.Random):
    """(the whole affine map, its coset-wise form) for random invertible A and
    B, a random C and random shifts."""
    ctx = field(p)
    A, B = random_invertible(ctx, d, rng), random_invertible(ctx, t, rng)
    C = MatrixQ(ctx, [[rng.randrange(p) for _ in range(d)] for _ in range(t)])
    v1 = VectorQ(ctx, [rng.randrange(p) for _ in range(d)])
    v2 = VectorQ(ctx, [rng.randrange(p) for _ in range(t)])
    rows = [a + (0,) * t for a in A.codes] + [c + b for c, b in zip(C.codes, B.codes)]
    whole = AffineMap(MatrixQ.from_codes(ctx, rows), VectorQ.from_codes(ctx, v1.codes + v2.codes))
    per = []
    for u in itertools.product(range(p), repeat=t):
        minus_u = VectorQ(ctx, [-c for c in u])
        u = VectorQ(ctx, u)
        per.append((A, u * C + v1, u * B + v2 + minus_u))
    return whole, cw_map(Splitting(p, d, t), per)


def test_coset_wise_cycle_type_equals_the_whole_maps():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(1, 5),
                      st.integers(0, 2 ** 32 - 1))
    def check(p, d, t, seed):
        whole, f = block_triangular_pair(p, d, t, random.Random(seed))
        assert cw_cycle_type(f) == affine_cycle_type(whole), (p, d, t, seed)

    check()


def test_fixed_instances_over_every_small_space():
    """One seeded instance per (p, d, t) with p <= 5, d <= 4 and t <= 5."""
    rng = random.Random(2024)
    for p, d, t in itertools.product([2, 3, 5], range(1, 5), range(1, 6)):
        whole, f = block_triangular_pair(p, d, t, rng)
        assert cw_cycle_type(f) == affine_cycle_type(whole), (p, d, t)
