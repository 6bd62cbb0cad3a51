"""Pinned digest of the coset-wise map outputs.

For every splitting with p in {2, 3, 5} and d + t <= 4 the inputs are seeded
random maps and random permutations, `construct_main` with and without
completeness, `one_cycle_map` and `construct_sylow_type`.  For each map the
digest covers `cw_to_table`, `conjugated_table` under a seeded basis change,
`cw_is_permutation`, `cw_is_complete`, `cw_cycle_type` (permutations only) and
the JSON text of `serialize.cwmap_to_json`, so any drift in the coset layout,
the tabulation or the constructors' choices shows up here.  The expected value
was computed by the implementation that keyed cosets by coordinate tuples and
tabulated maps point by point through `cw_eval`.
"""

import hashlib
import json
import random

from cosetmap import (conjugated_table, construct_main, construct_sylow_type,
                      ct_of_permutation, cw_cycle_type, cw_is_complete,
                      cw_is_permutation, cw_to_table, field, one_cycle_map,
                      sorted_types)
from cosetmap.affine_ct import ct_agl, gamma_dpl
from cosetmap.serialize import cwmap_to_json
from helpers import random_complete_mapping, random_invertible, sylow_type_targets
from test_cwaffine import random_cw_map, random_cw_permutation

SPLITS = [(p, d, t) for p in (2, 3, 5) for d in range(1, 5) for t in range(5 - d)]

EXPECTED_CASES = 233
EXPECTED_DIGEST = "0f4ac6136b54f2d58cb223f95c1b9f4eb410176fe492ad7aca9a1e462f5327fc"


def _cycle_keys(g):
    """(length, 1-based index) of every cycle of the permutation g."""
    return [(length, i) for length, count in ct_of_permutation(g).cycles
            for i in range(1, count + 1)]


def _construct(p, d, t, g, rng, require_complete):
    gammas = {}
    for key in _cycle_keys(g):
        opts = sorted_types(gamma_dpl(d, p, key[0]) if require_complete else ct_agl(d, p))
        gammas[key] = opts[rng.randrange(len(opts))]
    return construct_main(p, d, t, g, gammas, seed=rng.randrange(100),
                          require_complete=require_complete)


def maps_of(p, d, t, rng):
    """The seeded maps over one splitting."""
    for _ in range(2):
        yield random_cw_map(p, d, t, rng)
        yield random_cw_permutation(p, d, t, rng)
    n = p ** t
    g = list(range(n))
    rng.shuffle(g)
    yield _construct(p, d, t, g, rng, require_complete=False)
    bases = []  # GF(2)^1 has no complete linear map, so no complete lift
    if n <= 9 and (p > 2 or d > 1):
        bases.append(random_complete_mapping(p, t, rng))
    if p > 2 and t >= 1:
        bases.append(list(cw_to_table(one_cycle_map(p, t)).images))
    for g in bases:
        if g is not None:
            yield _construct(p, d, t, g, rng, require_complete=True)
    if d == 1:
        yield one_cycle_map(p, t + 1)
        if p > 2:
            targets = sylow_type_targets(p, t + 1)
            if len(targets) > 6:
                targets = rng.sample(targets, 6)
            for target in targets:
                yield construct_sylow_type(p ** (t + 1), target, seed=rng.randrange(100))


def cwaffine_digest():
    h = hashlib.sha256()
    cases = 0
    for p, d, t in SPLITS:
        rng = random.Random(1000 * p + 10 * d + t)
        for f in maps_of(p, d, t, rng):
            s = f.splitting
            T = random_invertible(field(p), s.n, rng)
            perm = cw_is_permutation(f)
            h.update(repr((s.p, s.d, s.t,
                           cw_to_table(f).images,
                           conjugated_table(f, T).images,
                           perm,
                           cw_is_complete(f),
                           cw_cycle_type(f).cycles if perm else None,
                           json.dumps(cwmap_to_json(f)))).encode())
            cases += 1
    return cases, h.hexdigest()


def test_cwaffine_digest_is_pinned():
    assert cwaffine_digest() == (EXPECTED_CASES, EXPECTED_DIGEST)
