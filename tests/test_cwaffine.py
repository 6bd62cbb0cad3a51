import collections
import copy
import itertools
import pickle
import random
import re

import pytest

from cosetmap import (AffineMap, CosetWiseAffineMap, CycleType, InfeasibleError, MatrixQ, Poly,
                      Splitting, VectorQ, analyze, blow_up, conjugated_table,
                      construct_main, construct_sylow_type, ct, ct_mul, cw_compose,
                      cw_cycle_type, cw_is_complete,
                      cw_is_permutation, cw_to_table,
                      evaluate_poly_table, field, is_cgl,
                      one_cycle_map, one_cycle_polynomial)
from cosetmap import affine_ct, cwaffine, gf, kernel
from cosetmap.cwaffine import _forward_codes
from cosetmap.cycletype import ct_format, ct_of_permutation, cycles_of
from cosetmap.kernel import _affine_table, index_to_tuple, is_prime, tuple_to_index
from cosetmap.oracle import is_complete_mapping
from helpers import (coordinate_functions, cw_eval, cw_map, forward_product_by_then,
                     one_cycle_closed_form_images, one_cycle_reference_tables,
                     pointwise_affine_table, random_complete_mapping, random_invertible,
                     reference_one_cycle_polynomial, sylow_type_targets, wreath_mul)


def random_cw_map(p, d, t, rng, invertible_only=False):
    ctx = field(p)
    per = []
    for _ in itertools.product(range(p), repeat=t):
        if invertible_only:
            alpha = random_invertible(ctx, d, rng)
        else:
            alpha = MatrixQ(ctx, tuple(tuple(rng.randrange(p) for _ in range(d))
                                       for _ in range(d)))
        omega = VectorQ(ctx, [rng.randrange(p) for _ in range(d)])
        nu = VectorQ(ctx, [rng.randrange(p) for _ in range(t)])
        per.append((alpha, omega, nu))
    return cw_map(Splitting(p, d, t), per)


def random_cw_permutation(p, d, t, rng):
    """Invertible blocks plus a shuffled coset permutation."""
    ctx = field(p)
    labels = list(itertools.product(range(p), repeat=t))
    perm = labels[:]
    rng.shuffle(perm)
    per = []
    for u, v in zip(labels, perm):
        alpha = random_invertible(ctx, d, rng)
        omega = VectorQ(ctx, [rng.randrange(p) for _ in range(d)])
        nu = VectorQ(ctx, tuple((b - a) % p for a, b in zip(u, v)))
        per.append((alpha, omega, nu))
    return cw_map(Splitting(p, d, t), per)


def test_cw_eval_identity_and_h2():
    F3 = field(3)
    s = Splitting(3, 1, 1)
    I1 = MatrixQ.identity(F3, 1)
    ident = cw_map(s, [(I1, VectorQ(F3, (0,)), VectorQ(F3, (0,)))] * 3)
    for i in range(9):
        v = VectorQ(F3, index_to_tuple(i, 3, 2))
        assert cw_eval(ident, v) == v
    h2 = one_cycle_map(3, 2)
    assert cw_eval(h2, VectorQ(F3, (1, 0))).codes == (2, 1)
    assert cw_eval(h2, VectorQ(F3, (1, 1))).codes == (1, 2)


def test_structural_predicates_vs_oracle():
    rng = random.Random(0)
    type_checked = 0
    for i in range(500):
        p = rng.choice([2, 3, 5])
        d = rng.choice([1, 2])
        t = rng.choice([1, 2])
        if i % 2:
            f = random_cw_permutation(p, d, t, rng)
        else:
            f = random_cw_map(p, d, t, rng)
        table = cw_to_table(f)
        report = analyze(table, p, d + t)
        assert cw_is_permutation(f) == report.is_bijection
        assert cw_is_complete(f) == report.is_complete
        if report.is_bijection:
            assert cw_cycle_type(f) == report.cycle_type
            type_checked += 1
    assert type_checked >= 250


def all_cw_maps(p, d, t, invertible_only):
    """Every coset-wise affine map of GF(p)^(d+t) over the standard
    splitting: per coset any alpha (or any invertible one), omega and nu."""
    ctx = field(p)
    alphas = [MatrixQ(ctx, (rows[i * d:(i + 1) * d] for i in range(d)))
              for rows in itertools.product(range(p), repeat=d * d)]
    if invertible_only:
        alphas = [M for M in alphas if M.is_invertible()]
    triples = list(itertools.product(
        alphas, [VectorQ(ctx, w) for w in itertools.product(range(p), repeat=d)],
        [VectorQ(ctx, u) for u in itertools.product(range(p), repeat=t)]))
    s = Splitting(p, d, t)
    for per in itertools.product(triples, repeat=p ** t):
        yield cw_map(s, per)


@pytest.mark.parametrize("p,d,t,invertible_only,counts", [
    (2, 1, 1, False, (64, 8, 0)),
    (2, 2, 0, False, (64, 24, 8)),
    (3, 1, 1, True, (5832, 1296, 81)),
    (2, 1, 2, True, (4096, 384, 0)),
    (2, 2, 1, True, (2304, 1152, 0)),
])
def test_completeness_criterion_on_every_map(p, d, t, invertible_only, counts):
    """The structural permutation and completeness tests (the paper's
    criterion: a coset-wise affine map is complete iff every alpha_u + I is
    invertible and the induced map of the cosets is complete) against the
    oracle on every map of a small space: (maps, bijections, complete) are
    pinned, and the cycle types of the 81 complete maps of GF(3)^2 too."""
    maps = bijections = complete = 0
    complete_types = collections.Counter()
    for f in all_cw_maps(p, d, t, invertible_only):
        report = analyze(cw_to_table(f), p, d + t)
        assert cw_is_permutation(f) == report.is_bijection
        assert cw_is_complete(f) == report.is_complete
        maps += 1
        bijections += report.is_bijection
        if report.is_complete:
            complete += 1
            complete_types[ct_format(cw_cycle_type(f))] += 1
            assert cw_cycle_type(f) == report.cycle_type
    assert (maps, bijections, complete) == counts
    if p == 3:
        assert complete_types == {"x9": 36, "x3^3": 26, "x1^3 x3^2": 12, "x1^6 x3": 6,
                                  "x1^9": 1}


@pytest.mark.parametrize("p,d,t", [(5, 1, 1), (3, 1, 2), (3, 2, 1)])
def test_completeness_criterion_on_sampled_maps(p, d, t):
    """The same comparison on random maps of GF(5)^2 and GF(3)^3, too many to
    walk: half with invertible alphas, so permutations and complete maps turn
    up, half with any alphas."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.booleans(), st.integers(0, 2 ** 32))
    def check(invertible_only, seed):
        f = random_cw_map(p, d, t, random.Random(seed), invertible_only=invertible_only)
        report = analyze(cw_to_table(f), p, d + t)
        assert cw_is_permutation(f) == report.is_bijection
        assert cw_is_complete(f) == report.is_complete
        if report.is_bijection:
            assert cw_cycle_type(f) == report.cycle_type

    check()


SPLITTINGS = [(p, d, t) for p in (2, 3, 5) for d in range(1, 5) for t in range(5 - d)]


@pytest.mark.parametrize("p,d,t", SPLITTINGS)
def test_cw_cycle_type_matches_table_cycles(p, d, t):
    """The structural cycle type against the cycles of the value table, on
    random coset-wise permutations and random maps over every splitting with
    p in {2, 3, 5} and d + t <= 4; a map that is not a permutation is refused
    by both."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=12, deadline=None)
    @hypothesis.given(st.booleans(), st.integers(0, 2 ** 32))
    def check(permutation, seed):
        rng = random.Random(seed)
        f = (random_cw_permutation if permutation else random_cw_map)(p, d, t, rng)
        table = cw_to_table(f).images
        if not cw_is_permutation(f):
            with pytest.raises(ValueError):
                cw_cycle_type(f)
            with pytest.raises(ValueError):
                ct_of_permutation(table)
            return
        expected = ct_of_permutation(table)
        assert cw_cycle_type(f) == expected
        assert sorted(len(c) for c in cycles_of(table)) == sorted(
            length for length, k in expected.cycles for _ in range(k))

    check()


def test_singular_alpha_is_not_permutation():
    F2 = field(2)
    s = Splitting(2, 1, 1)
    f = cw_map(s, [(MatrixQ.zeros(F2, 1, 1), VectorQ(F2, (0,)), VectorQ(F2, (0,))),
                   (MatrixQ.identity(F2, 1), VectorQ(F2, (0,)), VectorQ(F2, (0,)))])
    assert not cw_is_permutation(f)
    with pytest.raises(ValueError):
        cw_cycle_type(f)


def test_per_coset_data_over_another_field_is_refused():
    # GF(5) data on a p = 3 splitting used to pass cw_is_permutation and
    # fail only when cw_to_table wrote the coset slices
    F3, F5 = field(3), field(5)
    s = Splitting(3, 1, 1)
    good = (MatrixQ.identity(F3, 1), VectorQ(F3, (0,)))
    for bad in [(MatrixQ.identity(F5, 1), good[1]), (good[0], VectorQ(F5, (0,)))]:
        with pytest.raises(ValueError, match="mismatched contexts"):
            CosetWiseAffineMap(s, (0, 1, 2), [bad, good, good])


def test_data_refuses_a_label_outside_gf_p():
    # over GF(3) the labels (3,) and (-1,) used to read cosets (0,) and (2,),
    # (True,) coset (1,), and (1.0,) raised TypeError
    for f in [one_cycle_map(3, 2), one_cycle_map(5, 4), one_cycle_map(2, 3),
              random_cw_map(3, 2, 2, random.Random(4))]:
        s = f.splitting
        for i, u in enumerate(s.coset_labels()):
            alpha, omega, nu = f.data(u)
            assert (alpha, omega) == f.per_coset[i]
            image = index_to_tuple(f.top[i], s.p, s.t)
            assert nu.codes == tuple((b - a) % s.p for a, b in zip(u, image))
    f = one_cycle_map(3, 2)
    for u in [(3,), (-1,), (0, 0), (), (1.0,), (True,)]:
        with pytest.raises(KeyError):
            f.data(u)


def test_a_coset_label_listed_twice_is_refused():
    # the last entry used to win, loading another map without an error
    from cosetmap.serialize import cwmap_from_json, cwmap_to_json
    good = cwmap_to_json(one_cycle_map(3, 2))
    again = {**good["cosets"][0], "omega": [2]}
    with pytest.raises(ValueError, match=re.escape("cosets names the coset label [0] twice")):
        cwmap_from_json({**good, "cosets": good["cosets"] + [again]})


def test_the_json_reader_orders_the_cosets_and_reads_nu_into_the_top():
    """Entries in any order give the same map; a missing coset, a label
    outside GF(p)^t and a nu of the wrong length are refused."""
    from cosetmap.serialize import cwmap_from_json, cwmap_to_json
    f = random_cw_permutation(3, 1, 2, random.Random(8))
    good = cwmap_to_json(f)
    assert cwmap_from_json({**good, "cosets": good["cosets"][::-1]}) == f
    cover = "per-coset data must cover every coset exactly once"
    for cosets, message in [
            (good["cosets"][1:], cover),
            ([{**good["cosets"][0], "u": [0, 3]}] + good["cosets"][1:], cover),
            ([{**good["cosets"][0], "u": [0]}] + good["cosets"][1:], cover),
            ([{**good["cosets"][0], "nu": [0]}] + good["cosets"][1:],
             "omega is W-sized and nu is U-sized")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            cwmap_from_json({**good, "cosets": cosets})


def test_distinct_alphas_are_kept_on_the_map():
    """Pairs given as lists are kept as tuples, the map equal to the one built
    from tuples; the distinct alpha objects are kept in order of first
    appearance, also by a copy: the one-cycle map's 3^4 cosets share one."""
    f = one_cycle_map(3, 5)
    I1 = f.per_coset[0][0]
    assert len(f.per_coset) == 81 and f._alphas == (I1,) and f._alphas[0] is I1
    as_lists = CosetWiseAffineMap(f.splitting, f.top, [list(pair) for pair in f.per_coset])
    assert as_lists == f and all(type(pair) is tuple for pair in as_lists.per_coset)
    assert as_lists._alphas[0] is I1
    for g in [copy.deepcopy(f), pickle.loads(pickle.dumps(f))]:
        assert len(g._alphas) == 1 and g._alphas[0] is g.per_coset[0][0]
    F3 = field(3)
    A, B = MatrixQ(F3, [[2]]), MatrixQ(F3, [[1]])
    zero = VectorQ(F3, (0,))
    g = CosetWiseAffineMap(Splitting(3, 1, 1), (0, 1, 2), [(A, zero), (B, zero), (A, zero)])
    assert g._alphas == (A, B) and g._alphas[1] is B


def test_wreath_identity_correspondence():
    """The identity of GF(3)^2 built from zero shifts is the identity wreath
    element: the identity top and identity bottom maps."""
    F3 = field(3)
    s = Splitting(3, 1, 1)
    I1 = MatrixQ.identity(F3, 1)
    ident = cw_map(s, [(I1, VectorQ(F3, (0,)), VectorQ(F3, (0,)))] * 3)
    assert ident.top == (0, 1, 2)
    assert all(alpha == I1 and omega.is_zero() for alpha, omega in ident.per_coset)
    assert ident == CosetWiseAffineMap(s, range(3), [(I1, VectorQ(F3, (0,)))] * 3)


def test_wreath_round_trip_and_composition():
    """A map built from a top and bottom maps holds them unchanged, and
    `cw_compose` is the wreath multiplication rule and pointwise composition,
    on permutations and on any maps."""
    rng = random.Random(5)
    for _ in range(100):
        p = rng.choice([2, 3])
        d, t = rng.choice([(1, 1), (1, 2), (2, 1)])
        f = random_cw_permutation(p, d, t, rng)
        again = CosetWiseAffineMap(f.splitting, list(f.top), list(f.per_coset))
        assert again == f and again.top == f.top and again.per_coset == f.per_coset
    for trial in range(100):
        p = rng.choice([2, 3])
        d, t = rng.choice([(1, 1), (1, 2), (2, 1)])
        make = random_cw_permutation if trial % 2 else random_cw_map
        f1, f2 = make(p, d, t, rng), make(p, d, t, rng)
        composed = cw_compose(f1, f2)
        assert composed == wreath_mul(f1, f2)
        ctx = field(p)
        for i in range(p ** (d + t)):
            v = VectorQ(ctx, index_to_tuple(i, p, d + t))
            assert cw_eval(composed, v) == cw_eval(f2, cw_eval(f1, v))


def test_cw_cycle_type_h2_and_rotations():
    h2 = one_cycle_map(3, 2)
    assert cw_cycle_type(h2) == ct("x9")
    # forward cycle products from any rotation of any cycle share a cycle type
    from cosetmap import affine_cycle_type
    rng = random.Random(13)
    samples = [h2]
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        d, t = rng.choice([(1, 1), (1, 2), (2, 1)])
        samples.append(random_cw_permutation(p, d, t, rng))
    for f in samples:
        for cycle in cycles_of(f.top):
            types = set()
            for r in range(len(cycle)):
                rot = cycle[r:] + cycle[:r]
                types.add(affine_cycle_type(forward_product(f, rot)))
            assert len(types) == 1


def test_cw_cycle_type_is_worked_out_once_per_map(monkeypatch):
    """The second call reads the answer kept on the map; an equal map built
    afresh gets the same type from the kept forward-product types, with no
    new `affine_cycle_type`, and the kept answer changes neither equality nor
    copies.  Starting from an empty memo, each distinct forward cycle product
    gets one `affine_cycle_type`."""
    calls = []
    real = affine_ct.affine_cycle_type
    monkeypatch.setattr(affine_ct, "affine_cycle_type", lambda g: calls.append(g) or real(g))
    gf.clear_memos()
    rng = random.Random(29)
    for p, d, t in [(2, 1, 2), (3, 2, 1), (5, 1, 2), (3, 1, 3)]:
        calls.clear()
        f = random_cw_permutation(p, d, t, rng)
        fresh = CosetWiseAffineMap(f.splitting, f.top, f.per_coset)
        kept = [copy.deepcopy(f), pickle.loads(pickle.dumps(f))]
        first = cw_cycle_type(f)
        n = len(calls)
        assert n == len({forward_product_by_then(f, c) for c in cycles_of(f.top)})
        assert len(set(calls)) == n
        assert cw_cycle_type(f) is first and len(calls) == n
        assert f == fresh and fresh == f
        assert cw_cycle_type(fresh) == first and len(calls) == n
        kept += [copy.deepcopy(f), pickle.loads(pickle.dumps(f))]
        for g in kept:
            assert g == f and f == g
            assert cw_cycle_type(g) == first
        assert cw_cycle_type(f) == analyze(cw_to_table(f), p, d + t).cycle_type
    # a map that is not a permutation is refused every time
    f = cw_map(Splitting(3, 1, 1), [([[0]], [0], [1])] * 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="requires a permutation"):
            cw_cycle_type(f)


@pytest.mark.parametrize("p,d,t", [(2, 2, 2), (3, 1, 2), (3, 2, 1), (5, 1, 1), (5, 2, 1)])
def test_shared_and_equal_alphas_match_the_oracle(p, d, t):
    """The structural tests see each distinct alpha object once, and the
    forward products skip identity alphas: on maps whose alphas are one
    shared object, distinct objects with equal codes, or identities mixed
    with random blocks, the cycle type, bijectivity and completeness agree
    with the value table."""
    rng = random.Random(p * 100 + d * 10 + t)
    ctx = field(p)
    labels = list(itertools.product(range(p), repeat=t))
    I = MatrixQ.identity(ctx, d)
    for trial in range(12):
        perm = labels[:]
        rng.shuffle(perm)
        nus = [tuple((b - a) % p for a, b in zip(u, v)) for u, v in zip(labels, perm)]
        omegas = [VectorQ(ctx, [rng.randrange(p) for _ in range(d)]) for _ in labels]
        A = random_invertible(ctx, d, rng) if trial % 3 else MatrixQ.zeros(ctx, d, d)
        blocks = {
            "shared": [A] * len(labels),
            "equal codes": [MatrixQ.from_codes(ctx, A.codes) for _ in labels],
            "identities": [I if rng.random() < 0.7 else random_invertible(ctx, d, rng)
                           for _ in labels],
        }
        for kind, alphas in blocks.items():
            f = cw_map(Splitting(p, d, t), zip(alphas, omegas, nus))
            report = analyze(cw_to_table(f), p, d + t)
            assert cw_is_permutation(f) == report.is_bijection, kind
            assert cw_is_complete(f) == report.is_complete, kind
            if report.is_bijection:
                assert cw_cycle_type(f) == report.cycle_type, kind


def test_forward_types_are_kept_per_field(monkeypatch):
    """The memo of forward-product types, `affine_ct._AFFINE_TYPES`, is keyed
    by field as well as codes: x -> x + 1 has the codes ([[1]], [1]) over
    GF(3) and GF(5), and gets x3 and x5, each worked out once and read back
    for an equal map."""
    calls = []
    real = affine_ct.affine_cycle_type
    monkeypatch.setattr(affine_ct, "affine_cycle_type", lambda g: calls.append(g) or real(g))
    gf.clear_memos()

    def shift_by_one(p):
        return cw_map(Splitting(p, 1, 0), [([[1]], [1], [])])

    for _ in range(2):
        assert cw_cycle_type(shift_by_one(3)) == ct("x3")
        assert cw_cycle_type(shift_by_one(5)) == ct("x5")
    assert len(calls) == 2
    assert affine_ct._AFFINE_TYPES == {(field(3), ((1,),), (1,)): ct("x3"),
                                       (field(5), ((1,),), (1,)): ct("x5")}


def test_construct_main_works_out_each_witness_type_once(monkeypatch):
    """From empty memos, each distinct witness gets one `affine_cycle_type`:
    the check in `witness_map`, which stores the type where `cw_cycle_type`
    reads it for every cycle whose forward product is that witness.  The base
    map x -> x*[[1, 1], [0, 1]] of GF(3)^2 has three fixed points and two
    3-cycles; two fixed points share a target and so do the 3-cycles, so
    five cycles need three witnesses.  The walk's entries hold plain (blocks,
    units), and no memo of `cwaffine` is registered."""
    calls = []
    real = affine_ct.affine_cycle_type
    monkeypatch.setattr(affine_ct, "affine_cycle_type", lambda g: calls.append(g) or real(g))
    gf.clear_memos()
    g = [x0 * 3 + (x0 + x1) % 3 for x0 in range(3) for x1 in range(3)]
    acgl = sorted(affine_ct.ct_acgl(2, 3), key=lambda t: t.cycles)
    long = max(affine_ct.ct_agl(2, 3) - set(acgl), key=lambda t: t.cycles)
    gammas = {(1, 1): acgl[0], (1, 2): acgl[0], (1, 3): acgl[1], (3, 1): long, (3, 2): long}
    f = construct_main(3, 2, 2, g, gammas, seed=0)
    assert cw_cycle_type(f) == analyze(cw_to_table(f), 3, 4).cycle_type
    assert len(calls) == 3
    assert sorted(affine_ct._AFFINE_TYPES.values(), key=lambda t: t.cycles) == sorted(
        {acgl[0], acgl[1], long}, key=lambda t: t.cycles)
    entries = [w for _, first, _ in affine_ct._GAMMA_CACHE.values() for w in first.values()]
    assert entries and all(len(w) == 2 for w in entries)
    assert not [name for name in kernel._MEMOS if name.startswith("cosetmap.cwaffine")]


def test_construct_main_completeness_check_fires_on_one_bad_factor(monkeypatch):
    """With each distinct alpha tested once, one factor with eigenvalue -1
    among 24 good ones still fails the self-check, and as an internal error
    rather than an infeasible request."""
    ctx = field(5)
    realize = cwaffine.realize_gamma
    results = []

    def one_bad(*args, **kwargs):
        factors, w = realize(*args, **kwargs)
        if not results:
            factors = (MatrixQ(ctx, [[4]]),) + factors[1:]
        results.append(factors)
        return factors, w

    monkeypatch.setattr(cwaffine, "realize_gamma", one_bad)
    g = [u - u % 5 + (u + 1) % 5 for u in range(25)]  # u -> u + (0, 1): five 5-cycles
    assert is_complete_mapping(g, 5, 2)
    gammas = {(5, i): ct("x1^5") for i in range(1, 6)}
    with pytest.raises(ArithmeticError, match="completeness check"):
        construct_main(5, 1, 2, g, gammas, seed=0)
    assert len(results) == 5
    assert [is_cgl(F) for factors in results for F in factors].count(False) == 1
    monkeypatch.setattr(cwaffine, "realize_gamma", realize)
    assert cw_is_complete(construct_main(5, 1, 2, g, gammas, seed=0))


def forward_product(f, cycle):
    """The code-row fold of `_forward_codes` along one cycle, as an affine map."""
    ((A, v),) = _forward_codes(f, [cycle])
    ctx = f.splitting.ctx
    return AffineMap(MatrixQ.from_codes(ctx, A), VectorQ.from_codes(ctx, v))


def test_forward_product_matches_then_fold():
    """The code-row fold equals composing the coset maps with AffineMap.then,
    for singular, invertible and identity blocks (which the fold skips) and
    for any walk over the cosets."""
    rng = random.Random(23)
    for trial in range(60):
        p = rng.choice([2, 3, 5, 7])
        d, t = rng.choice([(1, 1), (2, 1), (3, 1), (2, 2)])
        f = random_cw_map(p, d, t, rng)
        if trial % 3 == 0:
            I = MatrixQ.identity(f.splitting.ctx, d)
            f = CosetWiseAffineMap(f.splitting, f.top, [(I if rng.random() < 0.6 else alpha, omega)
                                                        for alpha, omega in f.per_coset])
        walk = [rng.randrange(p ** t) for _ in range(rng.randrange(1, 8))]
        for cycle in (walk, *cycles_of(f.top)):
            assert forward_product(f, cycle) == forward_product_by_then(f, cycle)


def test_constructors_build_no_vector_per_coset(monkeypatch):
    """`construct_main` keeps its base map as the top, and the constructors
    build a few `VectorQ` per level of the Sylow-type recursion, not one or
    more per coset: from empty memos, 9 for GF(3^6) with 243 cosets and 9 for
    GF(3^7) with 729, where working out each coset's nu built 373 and 1102."""
    built = []
    init, from_codes = VectorQ.__init__, VectorQ.__dict__["from_codes"].__func__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(VectorQ, "__init__", counting_init)
    monkeypatch.setattr(VectorQ, "from_codes", classmethod(
        lambda cls, ctx, codes: built.append(codes) or from_codes(cls, ctx, codes)))
    for k, target in [(6, ct("x3^3 x9^80")), (7, ct("x2187"))]:
        gf.clear_memos()
        built.clear()
        f = construct_sylow_type(3 ** k, target)
        assert len(f.top) == 3 ** (k - 1) and len(built) <= 2 * k, (k, len(built))
        assert cw_cycle_type(f) == target
    g = [x0 * 3 + (x0 + x1) % 3 for x0 in range(3) for x1 in range(3)]
    f = construct_main(3, 1, 2, g, {key: ct("x1^3") if key[0] == 1 else ct("x3")
                                    for key in [(1, 1), (1, 2), (1, 3), (3, 1), (3, 2)]})
    assert f.top == tuple(g)


def test_construct_main_tests_the_base_map_for_completeness_once(monkeypatch):
    """The digit-sum test of g runs once, up front: the map's coset map is g,
    so the last self-check tests only the alphas, while `cw_is_complete`
    still tests both halves."""
    calls = []
    real = cwaffine.is_complete_mapping
    monkeypatch.setattr(cwaffine, "is_complete_mapping",
                        lambda *args: calls.append(args) or real(*args))
    f = construct_main(3, 1, 1, [1, 2, 0], {(3, 1): ct("x3")}, seed=0)
    assert len(calls) == 1
    assert cwaffine.cw_is_complete(f) and len(calls) == 2


def test_construct_main_examples():
    # p=3, d=1, t=1: base 3-cycle lifted to a 9-cycle
    f = construct_main(3, 1, 1, [1, 2, 0], {(3, 1): ct("x3")}, seed=0)
    report = analyze(cw_to_table(f), 3, 2)
    assert report.is_complete and report.cycle_type == ct("x9")
    # identity base: all fixed points
    f = construct_main(3, 1, 1, [0, 1, 2],
                       {(1, 1): ct("x1^3"), (1, 2): ct("x1^3"), (1, 3): ct("x1^3")},
                       seed=0)
    report = analyze(cw_to_table(f), 3, 2)
    assert report.is_complete and report.cycle_type == ct("x1^9")


def test_construct_main_permutation_variant_char2():
    # base swap of GF(2) is a permutation but not complete; the lifted map is
    # a permutation of GF(2)^3 of the blown-up type and is not complete
    f = construct_main(2, 2, 1, [1, 0], {(2, 1): ct("x1 x3")}, seed=0,
                       require_complete=False)
    report = analyze(cw_to_table(f), 2, 3)
    assert report.is_bijection
    assert report.cycle_type == blow_up(2, ct("x1 x3")) == ct("x2 x6")
    assert not report.is_complete
    assert len(report.fixed_points) == 0


def test_construct_main_rejects_incomplete_base():
    with pytest.raises(InfeasibleError):
        construct_main(2, 2, 1, [1, 0], {(2, 1): ct("x1 x3")}, seed=0)
    with pytest.raises(InfeasibleError):
        construct_main(3, 1, 1, [1, 0, 2], {(1, 1): ct("x1^3"), (2, 1): ct("x3")},
                       seed=0)  # base swap is not complete over GF(3)


def test_construct_main_rejects_bad_gammas():
    with pytest.raises(InfeasibleError):
        construct_main(3, 1, 1, [1, 2, 0], {(3, 1): ct("x2")}, seed=0)
    with pytest.raises(ValueError):
        construct_main(3, 1, 1, [1, 2, 0], {}, seed=0)
    with pytest.raises(ValueError):
        construct_main(3, 1, 1, [1, 2, 0], {(3, 1): ct("x3"), (1, 1): ct("x1^3")},
                       seed=0)


def test_construct_main_checks_every_key_before_realizing(monkeypatch):
    """Missing and extra targets are refused before any cycle is realized, and
    fixed points with one target share one realization, which no seed reaches."""
    from cosetmap import cwaffine
    calls = []
    realize = cwaffine.realize_gamma

    def counted(*args, **kwargs):
        calls.append(args)
        return realize(*args, **kwargs)

    monkeypatch.setattr(cwaffine, "realize_gamma", counted)
    fixed = ct("x1^3")
    for gammas, match in [({(1, 1): fixed, (1, 2): fixed}, r"cycle \(1, 3\)"),
                          ({(1, 1): fixed, (1, 2): fixed, (1, 3): fixed, (3, 1): ct("x3")},
                           r"nonexistent cycles: \[\(3, 1\)\]")]:
        with pytest.raises(ValueError, match=match):
            construct_main(3, 1, 1, [0, 1, 2], gammas, seed=0)
    assert calls == []
    construct_main(3, 1, 1, [0, 1, 2], {(1, i): fixed for i in (1, 2, 3)}, seed=0)
    assert len(calls) == 1


def test_construct_main_seeded_instances():
    rng = random.Random(99)
    from cosetmap import gamma_dpl
    for p, d, t in [(3, 1, 1), (5, 1, 1), (3, 2, 1)]:
        g = random_complete_mapping(p, t, rng)
        cycles = cycles_of(g)
        counters = {}
        gammas = {}
        from cosetmap.cycletype import CycleType
        expected = CycleType()
        for cyc in cycles:
            l = len(cyc)
            counters[l] = counters.get(l, 0) + 1
            opts = sorted(gamma_dpl(d, p, l), key=lambda t_: t_.cycles)
            gamma = opts[rng.randrange(len(opts))]
            gammas[(l, counters[l])] = gamma
            expected = ct_mul(expected, blow_up(l, gamma))
        f = construct_main(p, d, t, g, gammas, seed=7)
        report = analyze(cw_to_table(f), p, d + t)
        assert report.is_complete
        assert report.cycle_type == expected


def test_conjugated_table_preserves_completeness_and_type():
    f = construct_main(3, 1, 1, [1, 2, 0], {(3, 1): ct("x3")}, seed=0)
    rng = random.Random(1)
    F3 = field(3)
    for _ in range(5):
        T = random_invertible(F3, 2, rng)
        report = analyze(conjugated_table(f, T), 3, 2)
        assert report.is_complete and report.cycle_type == ct("x9")
    for T in [MatrixQ.zeros(F3, 2, 2), MatrixQ.identity(F3, 3),
              MatrixQ.identity(field(3, 2), 2)]:
        with pytest.raises(ValueError):
            conjugated_table(f, T)


@pytest.mark.parametrize("p,d,t", [(2, 2, 2), (2, 3, 1), (3, 1, 0), (3, 1, 2), (3, 2, 1),
                                   (3, 1, 3), (5, 1, 1), (5, 2, 1), (7, 1, 1)])
def test_value_tables_match_cw_eval_pointwise(p, d, t):
    """`cw_to_table(f).images[i]` is the index of `cw_eval(f, point i)` for
    every point, on maps whose cosets share one (alpha, omega) object, share
    alpha but not omega, hold equal but distinct objects, or all-distinct
    random blocks, with the cosets fewer than, as many as and more than the
    points of W.  One `conjugated_table` per map is T^-1 f T worked out point
    by point: x*T^-1, then f, then times T."""
    rng = random.Random(p * 100 + d * 10 + t)
    ctx, n = field(p), d + t
    labels = list(itertools.product(range(p), repeat=t))
    points = [VectorQ.from_codes(ctx, index_to_tuple(i, p, n)) for i in range(p ** n)]
    A = MatrixQ(ctx, tuple(tuple(rng.randrange(p) for _ in range(d)) for _ in range(d)))
    o = VectorQ(ctx, [rng.randrange(p) for _ in range(d)])
    for kind in ("shared pair", "shared alpha", "equal objects", "distinct"):
        nus = [VectorQ(ctx, [rng.randrange(p) for _ in range(t)]) for _ in labels]
        if kind == "shared pair":
            blocks = [(A, o)] * len(labels)
        elif kind == "shared alpha":
            blocks = [(A, VectorQ(ctx, [rng.randrange(p) for _ in range(d)])) for _ in labels]
        elif kind == "equal objects":
            blocks = [(MatrixQ.from_codes(ctx, A.codes), VectorQ.from_codes(ctx, o.codes))
                      for _ in labels]
        else:
            blocks = [(random_invertible(ctx, d, rng),
                       VectorQ(ctx, [rng.randrange(p) for _ in range(d)])) for _ in labels]
        f = cw_map(Splitting(p, d, t), [(a, w, nu) for (a, w), nu in zip(blocks, nus)])
        assert list(cw_to_table(f).images) == [tuple_to_index(cw_eval(f, x).codes, p)
                                               for x in points], kind
        T = random_invertible(ctx, n, rng)
        T_inv = T.inverse()
        assert list(conjugated_table(f, T).images) == [
            tuple_to_index((cw_eval(f, x * T_inv) * T).codes, p) for x in points], kind


def test_affine_table_matches_pointwise_products():
    """Tables against x*M + v worked out point by point, for singular and
    invertible M, up to GF(3)^7, and GF(67)^2, where a digit gets no sum
    table; several maps interleave.  One map of at most 256 points is
    tabulated by byte translation (as bytes, compared as a list): GF(13)^2,
    GF(251)^1 and a map with an all-zero row among them.  One-coordinate maps
    of GF(65537) have the shape of a prime field's x -> x*g."""
    rng = random.Random(11)
    sizes = [(p, n, 4) for p in (2, 3, 5) for n in range(1, 5)]
    sizes += [(p, n, 2) for p in (2, 3) for n in range(5, 8)]
    sizes += [(p, n, 3) for p in (7, 11) for n in range(1, 4)] + [(67, 1, 3), (67, 2, 2)]
    for p, n, count in sizes:
        ctx = field(p)
        maps = []
        for _ in range(count):
            M = MatrixQ(ctx, tuple(tuple(rng.randrange(p) for _ in range(n))
                                   for _ in range(n)))
            v = VectorQ(ctx, [rng.randrange(p) for _ in range(n)])
            assert list(_affine_table(p, n, [(M.codes, v.codes)])) == pointwise_affine_table(M, v)
            maps.append((M, v))
        zero = VectorQ.zero(ctx, n)
        assert list(_affine_table(p, n, [(M.codes, zero.codes)])) == pointwise_affine_table(M, zero)
        tables = [pointwise_affine_table(M, v) for M, v in maps]
        assert (_affine_table(p, n, [(M.codes, v.codes) for M, v in maps])
                == [table[x] for x in range(p ** n) for table in tables])
    for p, n in [(13, 1), (13, 2), (251, 1), (3, 5), (2, 8)]:
        ctx = field(p)
        for _ in range(3):
            M = MatrixQ(ctx, tuple(tuple(rng.randrange(p) for _ in range(n))
                                   for _ in range(n)))
            v = VectorQ(ctx, [rng.randrange(p) for _ in range(n)])
            assert list(_affine_table(p, n, [(M.codes, v.codes)])) == pointwise_affine_table(M, v)
    F5 = field(5)
    M, v = MatrixQ(F5, ((1, 2, 3), (0, 0, 0), (4, 0, 1))), VectorQ(F5, (2, 0, 3))
    assert list(_affine_table(5, 3, [(M.codes, v.codes)])) == pointwise_affine_table(M, v)
    F = field(65537)
    for g, c in [(3, 0), (rng.randrange(65537), rng.randrange(65537)), (0, 5)]:
        M, v = MatrixQ(F, ((g,),)), VectorQ(F, (c,))
        assert _affine_table(65537, 1, [(M.codes, v.codes)]) == pointwise_affine_table(M, v)


def test_a_value_table_above_the_limit_is_refused_before_it_is_built():
    """cw_to_table and conjugated_table check the p^(d+t) points first: two
    cosets of GF(2)^21 with identity blocks are refused at once."""
    import time
    F2 = field(2)
    f = cw_map(Splitting(2, 20, 1), [(MatrixQ.identity(F2, 20), VectorQ.zero(F2, 20),
                                      VectorQ(F2, (1,)))] * 2)
    start = time.perf_counter()
    message = "a value table of GF(2)^21 has 2^21 points, above the 1000000 limit"
    with pytest.raises(ValueError, match=re.escape(message)):
        cw_to_table(f)
    with pytest.raises(ValueError, match=re.escape(message)):
        conjugated_table(f, MatrixQ.identity(F2, 21))
    assert time.perf_counter() - start < 1.0


def test_sylow_constructor():
    # q = 3: the two base cases
    f = construct_sylow_type(3, ct("x3"))
    assert analyze(cw_to_table(f), 3, 1).cycle_type == ct("x3")
    f = construct_sylow_type(3, ct("x1^3"))
    report = analyze(cw_to_table(f), 3, 1)
    assert report.cycle_type == ct("x1^3") and report.is_complete
    # q = 9, all five targets
    targets9 = sylow_type_targets(3, 2)
    assert set(targets9) == {ct("x1^9"), ct("x1^6 x3"), ct("x1^3 x3^2"),
                             ct("x3^3"), ct("x9")}
    for t in targets9:
        f = construct_sylow_type(9, t, seed=3)
        report = analyze(cw_to_table(f), 3, 2)
        assert report.is_complete and report.cycle_type == t
    with pytest.raises(InfeasibleError):
        construct_sylow_type(4, ct("x4"))
    with pytest.raises(ValueError):
        construct_sylow_type(9, ct("x1^2 x3 x9"))  # degree 14, not 9
    with pytest.raises(ValueError):
        construct_sylow_type(9, ct("x1 x2^4"))  # parts not powers of p


def test_sylow_type_over_gf_p_is_the_shifted_identity():
    """For k = 1 the general step over GF(p)^0 gives the map x -> x + s of
    GF(p), s = 0 for x1^p and s = 1 for x_p, whatever the seed."""
    for p in (3, 5, 7, 11):
        ctx = field(p)
        I1 = MatrixQ.identity(ctx, 1)
        for target, s in ((CycleType({1: p}), 0), (CycleType({p: 1}), 1)):
            expected = CosetWiseAffineMap(Splitting(p, 1, 0), (0,), [(I1, VectorQ(ctx, (s,)))])
            for seed in (0, 1, 7):
                assert construct_sylow_type(p, target, seed=seed) == expected


def test_one_cycle_map_matches_recursion():
    for p in (2, 3, 5):
        kmax = 4
        refs = one_cycle_reference_tables(p, kmax)
        for k in range(1, kmax + 1):
            f = one_cycle_map(p, k)
            assert list(cw_to_table(f).images) == refs[k - 1]
            report = analyze(cw_to_table(f), p, k)
            assert report.cycle_type == ct(f"x{p ** k}")
            assert report.is_complete == (p > 2)
            assert cw_is_complete(f) == (p > 2)


def test_one_cycle_map_top_matches_closed_form():
    for p, kmax in [(2, 8), (3, 7), (5, 4), (7, 3)]:
        for k in range(1, kmax + 1):
            assert one_cycle_map(p, k).top == tuple(one_cycle_closed_form_images(p, k - 1))


def test_coordinate_functions_duality():
    for (p, k) in [(3, 3), (2, 3), (5, 2)]:
        ctx = field(p, k)
        pis = coordinate_functions(ctx)
        w = ctx.gen()
        for i in range(k):
            for j in range(k):
                val = pis[i](w ** j)
                assert val == (ctx.one() if i == j else ctx.zero())
        # each pi is GF(p)-linear and lands in the prime subfield
        rng = random.Random(p * k)
        for _ in range(20):
            x = ctx.from_index(rng.randrange(ctx.order))
            y = ctx.from_index(rng.randrange(ctx.order))
            for i in range(k):
                assert pis[i](x + y) == pis[i](x) + pis[i](y)
                assert pis[i](x).coeffs[1:] == (0,) * (k - 1)


def test_coordinate_functions_golden_gf27():
    ctx = field(3, 3)
    w = ctx.gen()
    pis = coordinate_functions(ctx)
    # pi2 = -x - x^3 - x^9; pi1 = w^14 x + w^16 x^3 + w^22 x^9
    m1 = -ctx.one()
    assert pis[2].coeff(1) == m1 and pis[2].coeff(3) == m1 and pis[2].coeff(9) == m1
    assert pis[1].coeff(1) == w ** 14
    assert pis[1].coeff(3) == w ** 16
    assert pis[1].coeff(9) == w ** 22


def test_one_cycle_polynomial():
    # k = 1
    F3 = field(3)
    assert one_cycle_polynomial(F3) == Poly(F3, (1, 1))
    # GF(9): 9-cycle complete mapping, degree < 9
    F9 = field(3, 2)
    P = one_cycle_polynomial(F9)
    assert P.degree < 9
    report = analyze(evaluate_poly_table(P), 3, 2)
    assert report.is_bijection and report.cycle_type == ct("x9") and report.is_complete
    # GF(4): 4-cycle, not complete
    F4 = field(2, 2)
    P = one_cycle_polynomial(F4)
    report = analyze(evaluate_poly_table(P), 2, 2)
    assert report.cycle_type == ct("x4") and not report.is_complete


def test_one_cycle_polynomial_matches_the_coordinate_functional_reference():
    """The power sums over nested subspaces give the polynomial that the
    products of the indicators 1 - pi_j^(p-1) give, on every GF(p^k) with
    q <= 3^7, and x + 1 on prime fields."""
    fields = [(p, k) for p in range(2, 47) if is_prime(p)
              for k in range(1, 12) if p ** k <= 3 ** 7]
    assert len(fields) == 46 and (2, 11) in fields and (43, 2) in fields
    for p, k in fields:
        ctx = field(p, k)
        assert one_cycle_polynomial(ctx) == reference_one_cycle_polynomial(ctx), (p, k)


def test_one_cycle_polynomial_tabulates_the_one_cycle_map():
    for p, k in [(3, 6), (5, 4), (7, 3), (2, 10), (5, 6), (3, 9)]:
        table = evaluate_poly_table(one_cycle_polynomial(field(p, k)))
        assert table == cw_to_table(one_cycle_map(p, k)), (p, k)


def test_field_vector_bridge():
    """GF(27) and GF(3)^3 share coordinates over the power basis: the
    vector-space one-cycle map, read through them, agrees pointwise with the
    polynomial form."""
    F27, F3 = field(3, 3), field(3)
    assert F27.gen().coeffs == (0, 1, 0)
    assert F27.elem(VectorQ(F3, (0, 1, 0)).codes) == F27.gen()
    f = one_cycle_map(3, 3)
    P = one_cycle_polynomial(F27)
    for x in F27.elements():
        assert F27.elem(VectorQ(F3, x.coeffs).codes) == x
        assert F27.elem(cw_eval(f, VectorQ(F3, x.coeffs)).codes) == P(x)


def test_no_two_cycles_and_char2_fixed_points():
    # complete mappings cannot have a 2-cycle; char-2 complete mappings have
    # exactly one fixed point
    rng = random.Random(31)
    g = random_complete_mapping(2, 2, rng)
    cycles = cycles_of(g)
    counters = {}
    gammas = {}
    from cosetmap import gamma_dpl
    for cyc in cycles:
        l = len(cyc)
        counters[l] = counters.get(l, 0) + 1
        opts = sorted(gamma_dpl(2, 2, l), key=lambda t_: t_.cycles)
        gammas[(l, counters[l])] = opts[rng.randrange(len(opts))]
    f = construct_main(2, 2, 2, g, gammas, seed=5)
    report = analyze(cw_to_table(f), 2, 4)
    assert report.is_complete
    assert report.cycle_type.count(2) == 0
    assert len(report.fixed_points) == 1
