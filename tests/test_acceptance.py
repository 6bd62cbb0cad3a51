"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; all comparisons are exact.
"""

import itertools
import random
import time

import pytest

from cosetmap import (CycleType, InfeasibleError, Poly, analyze,
                      block_cycle_type,
                      construct_main, construct_sylow_type, ct,
                      ct_of_permutation, cw_cycle_type, cw_is_complete,
                      cw_is_permutation, cw_to_table, enumerate_irreducibles,
                      evaluate_poly_table, field, gamma_dpl,
                      gamma_of_poly, interpolate, is_cgl, one_cycle_map,
                      one_cycle_polynomial, weixu,
                      weixu_all)
from cosetmap.affine_ct import product_members
from cosetmap.cycletype import cycles_of
from cosetmap.kernel import _horner, prime_power
from cosetmap.serialize import format_poly
from helpers import (all_invertible_matrices, blow_up, block_case, closed_form_counts, ct_mul,
                     is_complete_table, quotient_affine_cycle_counts,
                     random_complete_mapping, shift_class_representatives,
                     sylow_type_targets)
from test_cwaffine import random_cw_map, random_cw_permutation


def _report(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


_SWEEP_CACHE = {}


def _fripertinger_sweep():
    """Shared by criteria 1 and 10: compare the divisor-chain types with the
    orbit-walk oracle over all small blocks, recording the data needed for the
    closed-form resolution."""
    if "records" in _SWEEP_CACHE:
        return _SWEEP_CACHE["records"]
    records = []
    for q in (2, 3, 5):
        ctx = field(*prime_power(q))
        for Q in enumerate_irreducibles(ctx, 3):
            if Q.coeff(0).is_zero():
                continue
            degq = int(Q.degree)
            e = 1
            while q ** (e * degq) <= 10 ** 5:
                for label, U in shift_class_representatives(Q, e):
                    oracle = quotient_affine_cycle_counts(Q, e, U)
                    got = dict(block_cycle_type(*block_case(Q, e, U)).cycles)
                    records.append({
                        "q": q, "Q": Q, "e": e, "label": label,
                        "oracle": oracle, "divisor_chain": got,
                    })
                e += 1
    _SWEEP_CACHE["records"] = records
    return records


def test_criterion_1_fripertinger_oracle_sweep():
    t0 = time.time()
    records = _fripertinger_sweep()
    mismatches = [r for r in records if r["divisor_chain"] != r["oracle"]]
    elapsed = time.time() - t0
    _report(1, not mismatches and elapsed < 60 and len(records) > 100,
            f"{len(records)} block instances match the orbit-walk oracle "
            f"exactly in {elapsed:.1f}s")


def test_criterion_2_gamma_golden_and_star_products():
    F3 = field(3)
    xm1 = Poly(F3, (-1, 1))
    Q2 = Poly(F3, (2, 1, 1))
    ok = gamma_of_poly(xm1 ** 2) == frozenset({ct("x1^3 x3^2"), ct("x3^3")})
    ok &= gamma_of_poly(xm1 ** 3) == frozenset({ct("x1^3 x3^8"), ct("x9^3")})
    ok &= gamma_of_poly(Q2) == frozenset({ct("x1 x8")})
    p1 = weixu_all([ct("x1^3 x3^2"), ct("x1^3 x3^8"), ct("x1 x8")])
    p2 = weixu_all([ct("x1^3 x3^2"), ct("x9^3"), ct("x1 x8")])
    p3 = weixu_all([ct("x3^3"), ct("x1^3 x3^8"), ct("x1 x8")])
    p4 = weixu_all([ct("x3^3"), ct("x9^3"), ct("x1 x8")])
    ok &= p1 == ct("x1^9 x3^78 x8^9 x24^78")
    ok &= p2 == ct("x9^27 x72^27")
    ok &= p3 == ct("x3^81 x24^81")
    ok &= p4 == ct("x9^27 x72^27")
    ok &= p2 == p4
    _report(2, ok, "gamma sets and all four star products reproduce the "
                   "worked 7-dimensional example")


def test_criterion_3_product_sets_exhaustive():
    t0 = time.time()
    ok = True
    details = []
    for d, q in [(1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (2, 2), (2, 3), (3, 2)]:
        ctx = field(*prime_power(q))
        gl = list(all_invertible_matrices(ctx, d))
        cgl = [M for M in gl if is_cgl(M)]
        products = set()
        for A in cgl:
            for B in cgl:
                products.add(A * B)
        members = product_members(d, q)
        expected = set(gl) if members is None else set(members)
        good = products == expected
        ok &= good
        details.append(f"({d},{q}):{'ok' if good else 'MISMATCH'}|GL|={len(gl)}")
    elapsed = time.time() - t0
    ok &= elapsed < 30
    _report(3, ok, f"two-factor product sets match for all eight (d,q) pairs "
                   f"in {elapsed:.1f}s [{'; '.join(details)}]")


CONSTRUCTOR_TUPLES = [(3, 1, 1), (3, 1, 2), (5, 1, 1), (2, 2, 1), (3, 2, 1)]


def test_criterion_4_constructor_sweep():
    t0 = time.time()
    ok = True
    notes = []
    for p, d, t in CONSTRUCTOR_TUPLES:
        if (p, t) == (2, 1):
            # GF(2) has no complete mapping at all (both permutations of two
            # points fail), so no base map exists for this tuple; the
            # constructor must refuse every candidate base.
            assert all(not is_complete_table(list(perm), 2, 1)
                       for perm in itertools.permutations(range(2)))
            for perm in itertools.permutations(range(2)):
                with pytest.raises(InfeasibleError):
                    construct_main(p, d, t, list(perm), {(2, 1): ct("x1 x3")},
                                   seed=0)
            notes.append(f"({p},{d},{t}): vacuous, no complete base mapping "
                         f"exists and the constructor refuses")
            continue
        gammas_by_len = {}
        for seed in range(20):
            rng = random.Random(1000 * p + 100 * d + 10 * t + seed)
            g = random_complete_mapping(p, t, rng)
            assert g is not None
            cycles = cycles_of(g)
            counters = {}
            gammas = {}
            expected = CycleType()
            for cyc in cycles:
                l = len(cyc)
                counters[l] = counters.get(l, 0) + 1
                if l not in gammas_by_len:
                    gammas_by_len[l] = sorted(gamma_dpl(d, p, l),
                                              key=lambda x: x.cycles)
                opts = gammas_by_len[l]
                gamma = opts[rng.randrange(len(opts))]
                gammas[(l, counters[l])] = gamma
                expected = ct_mul(expected, blow_up(l, gamma))
            f = construct_main(p, d, t, g, gammas, seed=seed)
            report = analyze(cw_to_table(f), p, d + t)
            ok &= report.is_complete and report.cycle_type == expected
        notes.append(f"({p},{d},{t}): 20 seeded instances verified")
    elapsed = time.time() - t0
    ok &= elapsed < 120
    _report(4, ok, f"constructor sweep in {elapsed:.1f}s [{'; '.join(notes)}]")


def test_criterion_5_sylow_types():
    t0 = time.time()
    ok = True
    for q, p, k in [(9, 3, 2), (27, 3, 3)]:
        targets = sylow_type_targets(p, k)
        if q == 9:
            ok &= set(targets) == {ct("x1^9"), ct("x1^6 x3"), ct("x1^3 x3^2"),
                                   ct("x3^3"), ct("x9")}
        for target in targets:
            f = construct_sylow_type(q, target, seed=0)
            report = analyze(cw_to_table(f), p, k)
            ok &= report.is_complete and report.cycle_type == target
    elapsed = time.time() - t0
    ok &= elapsed < 60
    _report(5, ok, f"all 5 (q=9) and 23 (q=27) p-power cycle types realized "
                   f"as verified complete mappings in {elapsed:.1f}s")


def test_criterion_6_one_cycle_maps():
    ok = True
    for q in (3, 5, 7, 9, 25, 27, 49, 81, 125):
        fac = {q: None}
        from cosetmap.kernel import factorize
        (p, k), = factorize(q).items()
        f = one_cycle_map(p, k)
        report = analyze(cw_to_table(f), p, k)
        ok &= report.is_bijection and report.is_complete
        ok &= report.cycle_type == CycleType({q: 1})
    for q in (2, 4, 8, 16):
        from cosetmap.kernel import factorize
        (p, k), = factorize(q).items()
        f = one_cycle_map(p, k)
        report = analyze(cw_to_table(f), p, k)
        ok &= report.is_bijection and not report.is_complete
        ok &= report.cycle_type == CycleType({q: 1})
        # the obstruction: a q-cycle has no fixed point, but a complete
        # mapping in characteristic 2 must have exactly one
        ok &= len(report.fixed_points) == 0
    _report(6, ok, "one-cycle maps complete for odd q in {3..125}, q-cycles "
                   "but not complete for even q with the fixed-point "
                   "obstruction confirmed")


GOLDEN_F27 = ("x^24 + x^22 + x^20 + w^16*x^18 + x^16 + x^14 + w^9*x^12 "
              "+ w^9*x^10 + x^8 + w^16*x^6 + w^9*x^4 + w^16*x^2 + x + w^6")


def test_criterion_7_f27_golden():
    F27 = field(3, 3, (1, 2, 0, 1))
    P = one_cycle_polynomial(F27)
    w = F27.gen()
    ok = format_poly(P) == GOLDEN_F27
    # coefficient-level check against the published form
    expected = {24: F27.one(), 22: F27.one(), 20: F27.one(), 18: w ** 16,
                16: F27.one(), 14: F27.one(), 12: w ** 9, 10: w ** 9,
                8: F27.one(), 6: w ** 16, 4: w ** 9, 2: w ** 16,
                1: F27.one(), 0: w ** 6}
    for dth in range(25):
        ok &= P.coeff(dth) == expected.get(dth, F27.zero())
    table = evaluate_poly_table(P)
    report = analyze(table, 3, 3)
    ok &= report.is_bijection and report.is_complete
    ok &= report.cycle_type == ct("x27")
    vals = [F27.from_index(_horner(F27.ops(), P.codes, i)[1]) for i in range(27)]
    ok &= interpolate(F27, vals) == P
    _report(7, ok, "the 27-element one-cycle polynomial matches the published "
                   "coefficients byte-for-byte, is a 27-cycle complete "
                   "mapping, and interpolation returns it exactly")


def test_criterion_8_structural_vs_oracle():
    t0 = time.time()
    rng = random.Random(2024)
    shapes = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
    checked = 0
    types_checked = 0
    ok = True
    for i in range(500):
        p = rng.choice([2, 3, 5])
        d, t = rng.choice(shapes)
        if i % 2:
            f = random_cw_permutation(p, d, t, rng)
        else:
            f = random_cw_map(p, d, t, rng)
        table = cw_to_table(f)
        report = analyze(table, p, d + t)
        ok &= cw_is_permutation(f) == report.is_bijection
        ok &= cw_is_complete(f) == report.is_complete
        if report.is_bijection:
            ok &= cw_cycle_type(f) == report.cycle_type
            types_checked += 1
        checked += 1
    elapsed = time.time() - t0
    ok &= checked == 500 and types_checked >= 250 and elapsed < 60
    _report(8, ok, f"structural permutation/completeness/cycle-type answers "
                   f"match the oracle on 500 random maps ({types_checked} "
                   f"cycle types compared) in {elapsed:.1f}s")


def test_criterion_9_invariant_suite():
    ok = True
    # no constructed complete mapping has a 2-cycle
    constructions = []
    for target in sylow_type_targets(3, 2):
        constructions.append((construct_sylow_type(9, target, seed=1), 3, 2))
    constructions.append((one_cycle_map(5, 2), 5, 2))
    constructions.append((one_cycle_map(7, 1), 7, 1))
    rng = random.Random(77)
    g = random_complete_mapping(2, 2, rng)
    cycles = cycles_of(g)
    counters = {}
    gammas = {}
    for cyc in cycles:
        l = len(cyc)
        counters[l] = counters.get(l, 0) + 1
        opts = sorted(gamma_dpl(2, 2, l), key=lambda x: x.cycles)
        gammas[(l, counters[l])] = opts[rng.randrange(len(opts))]
    f_char2 = construct_main(2, 2, 2, g, gammas, seed=9)
    constructions.append((f_char2, 2, 4))
    char2_fixed = None
    for f, p, dims in constructions:
        report = analyze(cw_to_table(f), p, dims)
        ok &= report.is_complete
        ok &= 2 not in dict(report.cycle_type.cycles)
        if p == 2:
            char2_fixed = len(report.fixed_points)
    ok &= char2_fixed == 1
    # star-product direct-sum oracle on 200 random pairs
    for _ in range(200):
        m = rng.randrange(1, 25)
        n = rng.randrange(1, 25)
        sigma = list(range(m))
        tau = list(range(n))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        prod = [0] * (m * n)
        for i in range(m):
            for j in range(n):
                prod[i * n + j] = sigma[i] * n + tau[j]
        ok &= weixu(ct_of_permutation(sigma), ct_of_permutation(tau)) == \
            ct_of_permutation(prod)
    _report(9, ok, "no constructed complete mapping has a 2-cycle; the "
                   "characteristic-2 construction has exactly one fixed "
                   "point; the star product matches the product-set oracle "
                   "on 200 pairs")


def test_criterion_10_closed_form_resolution():
    records = _fripertinger_sweep()
    ok = True
    eligible = 0
    displayed_wins = 0
    corrected_wins = 0
    for r in records:
        # divisor chain must match the oracle everywhere (re-asserted here)
        ok &= r["divisor_chain"] == r["oracle"]
        if r["label"] != "generic" or r["e"] < 2:
            continue
        eligible += 1
        disp = closed_form_counts(r["Q"], r["e"], "generic", corrected_final=False)
        corr = closed_form_counts(r["Q"], r["e"], "generic", corrected_final=True)
        if disp == r["oracle"]:
            displayed_wins += 1
        if corr == r["oracle"]:
            corrected_wins += 1
    ok &= eligible >= 10
    # the resolution the data supports: the corrected leading exponent
    ok &= corrected_wins == eligible and displayed_wins == 0
    _report(10, ok, f"on {eligible} blocks with e >= 2 away from X-1 the "
                    f"corrected final-bullet exponent matches the oracle in "
                    f"all cases ({corrected_wins}/{eligible}); the displayed "
                    f"form matches in {displayed_wins}")
