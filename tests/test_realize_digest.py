"""Pinned digest of `realize_gamma` output over every reachable target.

For each small (d, p), each factor count ell and each target type, the digest
covers the integer rows of every factor and the shift w, so any drift in the
witness that a construction picks (conjugacy-class order, shift choice,
factorization) shows up here even when the realized cycle types stay right.
With require_complete the targets are gamma_dpl(d, p, ell); without it they
are all affine cycle types ct_agl(d, p).  The expected value was computed by
the implementation that preceded the merged realize routine, which answered
require_complete=False through a separate permutation-only function.
"""

import hashlib

from cosetmap import realize_gamma, sorted_types
from cosetmap.affine_ct import ct_agl, gamma_dpl

GRID = [(1, 2), (1, 3), (1, 5), (1, 7), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)]
ELLS = (1, 2, 3)
SEEDS = (0, 5)

EXPECTED_CASES = 724
EXPECTED_DIGEST = "33ad6b1ad7cd4650658adc6aa30f67b737dbd4cc246d7802c1007a1ad4f06265"


def realize_digest():
    h = hashlib.sha256()
    cases = 0
    for d, p in GRID:
        for ell in ELLS:
            for require_complete in (True, False):
                targets = gamma_dpl(d, p, ell) if require_complete else ct_agl(d, p)
                for gamma in sorted_types(targets):
                    for seed in SEEDS if require_complete else SEEDS[:1]:
                        factors, w = realize_gamma(gamma, d, p, ell, seed=seed,
                                                   require_complete=require_complete)
                        h.update(repr((d, p, ell, require_complete, seed, gamma.cycles,
                                       [F.int_rows() for F in factors],
                                       tuple(e.index for e in w.entries))).encode())
                        cases += 1
    return cases, h.hexdigest()


def test_realize_digest_is_pinned():
    assert realize_digest() == (EXPECTED_CASES, EXPECTED_DIGEST)
