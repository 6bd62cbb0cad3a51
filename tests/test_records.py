"""The value-record contract of the six immutable record classes.

Construction by position or keyword, refused assignment and deletion,
equality only within one class on the field tuple, hash of that tuple, the
`Name(field=value, ...)` repr, `__match_args__`, pickling and copying, and the
exact messages of every refusal; then a fresh-process check that importing
the package loads no introspection module.
"""

import copy
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cosetmap
from cosetmap import (AffineMap, AnalysisReport, CglFactorization, CosetWiseAffineMap, MapTable,
                      MatrixQ, Poly, Prcf, Splitting, VectorQ, analyze, blow_up, charpoly,
                      ct_of_permutation, cw_compose, enumerate_irreducibles, factor_into_cgl,
                      field, gamma_dpl, one_cycle_map, prcf, two_fpf_product)
from cosetmap._record import Record
from cosetmap.cycletype import CycleType, ct_parse
from cosetmap.kernel import MAX_DOMAIN, factorize, prime_power, read_json
from cosetmap.linalg import companion
from cosetmap.oracle import is_complete_mapping, load_table
from cosetmap.serialize import json_matrix, parse_poly

FIELDS = {
    AffineMap: ("matrix", "shift"),
    Prcf: ("blocks", "basis_change"),
    CglFactorization: ("factors", "product"),
    Splitting: ("p", "d", "t"),
    MapTable: ("n", "images"),
    AnalysisReport: ("is_bijection", "is_complete", "is_orthomorphism", "cycle_type",
                     "fixed_points"),
}


def check_record(cls, values):
    """Every part of the contract that one field tuple can show."""
    names = FIELDS[cls]
    values = tuple(values)
    a = cls(*values)
    b = cls(**dict(zip(names, values)))
    assert tuple(getattr(a, name) for name in names) == values
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    assert cls.__match_args__ == names
    # a different class with the same fields, or the bare field tuple, is not equal
    twin = type(cls.__name__, (cls,), {})(*values)
    assert twin.__class__ is not cls
    assert a != twin and twin != a and not a == twin
    assert a != values and a != None   # noqa: E711
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert tuple(getattr(a, name) for name in names) == values
    expected = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(a) == f"{cls.__name__}({expected})"
    copies = [copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))]
    for c in copies:
        assert c == a and hash(c) == hash(a) and c.__class__ is cls
    match a:
        case cls(first):
            assert first == values[0]
    return a


FIELD_SHAPES = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]


def _matrix(ctx, codes, d):
    return MatrixQ.from_codes(ctx, [codes[i * d:(i + 1) * d] for i in range(d)])


def test_hand_written_reprs():
    F3 = field(3)
    M = MatrixQ(F3, [[1, 2], [0, 1]])
    v = VectorQ(F3, (1, 0))
    assert repr(AffineMap(M, v)) == "AffineMap(matrix=[1 2; 0 1], shift=(1, 0))"
    assert repr(Splitting(3, 2, 1)) == "Splitting(p=3, d=2, t=1)"
    assert repr(MapTable(3, (1, 2, 0))) == "MapTable(n=3, images=(1, 2, 0))"
    assert repr(analyze(MapTable(3, (1, 2, 0)), 3, 1)) == (
        "AnalysisReport(is_bijection=True, is_complete=True, is_orthomorphism=False, "
        "cycle_type=x3, fixed_points=())")
    assert repr(prcf(M)) == "Prcf(blocks=((x + 2, 2),), basis_change=[1 0; 1 2])"
    assert repr(factor_into_cgl(M, 2, seed=1)) == (
        "CglFactorization(factors=([1 1; 1 0], [0 1; 1 1]), product=[1 2; 0 1])")
    assert (repr(field(3)), repr(field(3, 2))) == ("GF(3)", "GF(3^2)")
    assert repr(one_cycle_map(3, 2)) == "CosetWiseAffineMap(p=3, d=1, t=1)"


def test_records_have_no_instance_dict():
    F2 = field(2)
    one = AffineMap(MatrixQ(F2, [[1]]), VectorQ(F2, (0,)))
    records = [one, Splitting(2, 1, 0), MapTable(1, (0,)),
               analyze(MapTable(1, (0,)), 2, 0), prcf(MatrixQ(F2, [[1]])),
               CglFactorization((), MatrixQ.identity(F2, 1))]
    assert {r.__class__ for r in records} == set(FIELDS)
    for r in records:
        assert not hasattr(r, "__dict__")


def test_names_only_the_tests_called_are_gone():
    """Public names that no path of the package, no CLI subcommand and no
    benchmark workload called are not in the package; `cw_eval` and
    `sylow_type_targets` live on as test references in tests/helpers.py.
    Nor are the shift-class record and constants that a block's (Q, e, unit)
    replaced, nor the codec that `oracle` only re-exported from `gf`, nor
    the tagged product-set descriptor that `affine_ct.product_members`
    replaced, nor the wreath element and its conversions, which a
    `CosetWiseAffineMap` that is a permutation already is."""
    import importlib
    gone = {"affine_ct": ("classify_block", "BlockCase", "U_GENERIC", "U_NONUNIT",
                          "U_UNIT_NOT_PPOWER", "U_UNIT_PPOWER"),
            "oracle": ("table_of", "index_to_tuple", "tuple_to_index"),
            "cgl": ("is_fpf", "cgl_power_set"),
            "cwaffine": ("cw_eval", "field_to_vector", "vector_to_field", "sylow_type_targets",
                         "WreathElement", "cw_to_wreath", "wreath_to_cw", "wreath_mul"),
            "serialize": ("elem_from_json", "vector_from_json", "matrix_from_json",
                          "poly_from_json")}
    for module, names in gone.items():
        home = importlib.import_module(f"cosetmap.{module}")
        for name in names:
            assert not hasattr(home, name) and not hasattr(cosetmap, name), name
    assert not any(hasattr(VectorQ, name) for name in ("split", "concat", "ints"))
    assert not hasattr(cosetmap.FieldElement, "in_prime_subfield")
    assert cosetmap.FieldElement.__slots__ == ("ctx", "index")


def test_splitting_and_map_table_contract():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.integers(0, 3),
                      st.integers(0, 12), st.data())
    def run(p, d, t, n, data):
        s = check_record(Splitting, (p, d, t))
        assert s.n == d + t and s.ctx == field(p)
        images = tuple(data.draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)))
        table = check_record(MapTable, (n, images))
        other = tuple(data.draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)))
        assert (table == MapTable(n, other)) == (images == other)
        assert (s == Splitting(p, d + 1, t)) is False

    run()


def test_map_table_keeps_its_images_as_a_tuple():
    """A list, a range and a tuple of images give one equal, hashable record."""
    tables = [MapTable(3, images) for images in ([0, 1, 2], range(3), (0, 1, 2))]
    for table in tables:
        assert type(table.images) is tuple and table.images == (0, 1, 2)
        assert table == tables[0] and hash(table) == hash(tables[0]) == hash((3, (0, 1, 2)))
    assert len(set(tables)) == 1
    assert MapTable(3, [1, 2, 0]) == MapTable(3, (1, 2, 0)) != MapTable(3, range(3))


def test_analysis_report_contract():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.booleans(), st.booleans(), st.booleans(),
                      st.one_of(st.none(), st.permutations(range(6)).map(ct_of_permutation)),
                      st.lists(st.integers(0, 20), max_size=5).map(tuple))
    def run(bij, complete, ortho, cycle_type, fixed):
        report = check_record(AnalysisReport, (bij, complete, ortho, cycle_type, fixed))
        assert report.to_json()["fixed_points"] == list(fixed)

    run()


def test_affine_map_contract():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.sampled_from(FIELD_SHAPES), st.integers(1, 3), st.data())
    def run(shape, d, data):
        ctx = field(*shape)
        codes = st.integers(0, ctx.order - 1)
        M = _matrix(ctx, data.draw(st.lists(codes, min_size=d * d, max_size=d * d)), d)
        v = VectorQ(ctx, tuple(data.draw(st.lists(codes, min_size=d, max_size=d))))
        f = check_record(AffineMap, (M, v))
        assert f.then(f) == AffineMap(M * M, v * M + v)

    run()


def test_prcf_and_cgl_factorization_contract():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.sampled_from([(2, 1), (3, 1), (2, 2)]), st.integers(1, 3), st.data())
    def run_prcf(shape, d, data):
        ctx = field(*shape)
        codes = st.integers(0, ctx.order - 1)
        A = _matrix(ctx, data.draw(st.lists(codes, min_size=d * d, max_size=d * d)), d)
        form = prcf(A)
        check_record(Prcf, (form.blocks, form.basis_change))

    run_prcf()
    F3 = field(3)
    for rows in ([[1, 2], [0, 1]], [[0, 1], [1, 1]], [[2, 0], [0, 2]]):
        fac = factor_into_cgl(MatrixQ(F3, rows), 2, seed=3)
        check_record(CglFactorization, (fac.factors, fac.product))


def test_values_over_a_field_pickle_after_its_arithmetic_is_built():
    """A field context pickles as `field(p, k, modulus)` and loads as the
    interned context, so every record and value type that holds one pickles
    too, also once `ops()` has built local functions and tables."""
    for ctx in (field(3), field(2, 2), field(3, 2), field(3, 3)):
        ctx.ops()
        if ctx.k > 1:
            ctx.dlog(ctx.one())
        assert pickle.loads(pickle.dumps(ctx)) is ctx
        assert pickle.loads(pickle.dumps(Poly.x(ctx))).ctx is ctx
        p, d = ctx.p, 2
        A = _matrix(ctx, [1, 1, 1, 0] if p == 2 else [2, 0, 0, 2], d)
        v = VectorQ.from_codes(ctx, (1, 0))
        xm1 = Poly(ctx, (-1, 1))
        F = field(p)
        table = MapTable(3, (1, 2, 0))
        values = [ctx.gen() if ctx.k > 1 else ctx.one(), xm1, A, v, AffineMap(A, v),
                  prcf(A), factor_into_cgl(_matrix(F, [0, 1, 1, 1], 2), 2, seed=1),
                  Splitting(p, 1, 1), table, analyze(table, 3, 1)]
        assert {v.__class__ for v in values} >= set(FIELDS)
        for value in values:
            back = pickle.loads(pickle.dumps(value))
            assert back == value and hash(back) == hash(value)
            assert back.__class__ is value.__class__


def _refused(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_every_refusal_keeps_its_message():
    F2, F3, F5 = field(2), field(3), field(5)
    I2 = MatrixQ.identity(F3, 2)
    _refused(lambda: AffineMap(MatrixQ(F3, [[1]]), VectorQ(F5, (1,))), "mismatched contexts")
    _refused(lambda: AffineMap(MatrixQ(F3, [[1, 2]]), VectorQ(F3, (1,))),
             "affine map dimension mismatch")
    _refused(lambda: AffineMap(I2, VectorQ(F3, (1,))), "affine map dimension mismatch")
    _refused(lambda: CglFactorization((MatrixQ.identity(F2, 2),), MatrixQ.identity(F2, 2)),
             "factor is not a complete invertible matrix")
    A = MatrixQ(F3, [[0, 1], [1, 1]])
    _refused(lambda: CglFactorization((A,), I2),
             "factors do not multiply to the stated product")
    _refused(lambda: Splitting(3, 0, 1), "need d >= 1 and t >= 0")
    _refused(lambda: Splitting(3, 1, -1), "need d >= 1 and t >= 0")
    _refused(lambda: Splitting(4, 1, 1), "4 is not prime")
    assert Splitting(999983, 1, 1).t == 1  # the largest prime below the limit
    _refused(lambda: Splitting(1000003, 1, 1),
             f"a splitting of GF(1000003)^2 has 1000003^1 cosets, above the {MAX_DOMAIN} limit")
    _refused(lambda: Splitting(2, 1, 20),
             f"a splitting of GF(2)^21 has 2^20 cosets, above the {MAX_DOMAIN} limit")
    s, I1, zero = Splitting(3, 1, 1), MatrixQ.identity(F3, 1), VectorQ(F3, (0,))
    pair = (I1, zero)
    for top, per, message in [
            ((0, 1), [pair] * 3, "top must have one entry per coset"),
            ((0, 1, 2, 0), [pair] * 3, "top must have one entry per coset"),
            ((0, 1, 3), [pair] * 3, "top entry out of range"),
            ((0, -1, 2), [pair] * 3, "top entry out of range"),
            ((0, 1.0, 2), [pair] * 3, "top entry out of range"),
            ((0, True, 2), [pair] * 3, "top entry out of range"),
            ((0, 1, 2), [pair] * 2, "per-coset data must cover every coset exactly once"),
            ((0, 1, 2), [([[1]], [1])] + [pair] * 2,
             "per-coset data must be pairs of a MatrixQ and a VectorQ"),
            ((0, 1, 2), [(I1, (0,))] + [pair] * 2,
             "per-coset data must be pairs of a MatrixQ and a VectorQ"),
            ((0, 1, 2), [(MatrixQ.identity(F5, 1), zero)] + [pair] * 2, "mismatched contexts"),
            ((0, 1, 2), [(I1, VectorQ(F5, (0,)))] + [pair] * 2, "mismatched contexts"),
            ((0, 1, 2), [(I2, zero)] + [pair] * 2, "alpha blocks must be d x d"),
            ((0, 1, 2), [(I1, VectorQ(F3, (0, 0)))] + [pair] * 2,
             "omega is W-sized and nu is U-sized")]:
        _refused(lambda: CosetWiseAffineMap(s, top, per), message)
    _refused(lambda: MapTable(MAX_DOMAIN + 1, ()),
             f"a map table of {MAX_DOMAIN + 1} points, above the {MAX_DOMAIN} limit")
    _refused(lambda: MapTable(3, (0, 1)), "image list length does not match domain size")
    _refused(lambda: MapTable(2, (0, 2)), "image out of range")
    _refused(lambda: MapTable(2, (-1, 0)), "image out of range")
    for k in (10 ** 30, 3000):  # refused before the default-modulus search
        start = time.perf_counter()
        _refused(lambda: field(2, k),
                 f"GF(2^{k}) has 2^{k} elements, above the {MAX_DOMAIN} limit")
        assert time.perf_counter() - start < 1.0
    start = time.perf_counter()  # refused before a coefficient list is built
    _refused(lambda: parse_poly("x^100000000+1", F2),
             f"a polynomial of degree 100000000, above the {MAX_DOMAIN} limit")
    assert time.perf_counter() - start < 1.0
    # matrix entries go through the size rule, and a number with more digits
    # than the interpreter converts is refused naming the input
    huge, digits, F4 = "9" * 5000, sys.get_int_max_str_digits(), field(2, 2)
    for build, message in [
        (lambda: companion(Poly(F2, (1,) * 3001)),
         f"the companion matrix of degree 3000 has 3000^2 entries, above the {MAX_DOMAIN} limit"),
        (lambda: json_matrix(F3, [[1] * 1001] * 1001),
         f"matrix has 1002001 entries, above the {MAX_DOMAIN} limit"),
        (lambda: parse_poly(f"x^{huge}+1", F2),
         f"a polynomial whose degree has 5000 digits, above the {MAX_DOMAIN} limit"),
        (lambda: parse_poly(f"{huge}*x+1", F2),
         f"a coefficient in polynomial text has more than {digits} digits"),
        (lambda: parse_poly(f"w^{huge}*x+1", F4),
         f"an exponent of w in polynomial text has more than {digits} digits"),
        (lambda: parse_poly(f"[1,{huge}]*x+1", F4),
         f"a coordinate in polynomial text has more than {digits} digits"),
        (lambda: ct_parse(f"x{huge}"), f"a cycle length has more than {digits} digits"),
        (lambda: ct_parse(f"x3^{huge}"), f"a cycle count has more than {digits} digits"),
        (lambda: CycleType.from_json({huge: 1}), f"a cycle length has more than {digits} digits"),
        (lambda: load_table(f"0,{huge}\n"), f"a cell of CSV row 1 has more than {digits} digits"),
        (lambda: load_table(f'{{"n": 1, "images": [{huge}]}}'),
         f"an integer in a map table has more than {digits} digits"),
        (lambda: read_json(f"[[{huge}]]", "--matrix"),
         f"an integer in --matrix has more than {digits} digits"),
    ]:
        start = time.perf_counter()
        _refused(build, message)
        assert time.perf_counter() - start < 1.0
    # keyword construction runs the same checks
    _refused(lambda: Splitting(p=3, d=0, t=1), "need d >= 1 and t >= 0")
    _refused(lambda: MapTable(images=(5,), n=1), "image out of range")
    with pytest.raises(TypeError):
        Splitting(3, 1)
    with pytest.raises(TypeError):
        Splitting(3, 1, 1, p=3)
    with pytest.raises(TypeError):
        MapTable(n=1, images=(0,), extra=1)


def test_argument_refusals_keep_their_messages():
    """The refusals of bad arguments to the public functions and methods."""
    F3, F5, F9 = field(3), field(5), field(3, 2)
    I1, I2, row = MatrixQ.identity(F3, 1), MatrixQ.identity(F3, 2), MatrixQ(F3, [[1, 2]])
    for build, message in [
        (lambda: gamma_dpl(0, 3, 1), "dimension and factor count must be >= 1"),
        (lambda: gamma_dpl(1, 3, 0), "dimension and factor count must be >= 1"),
        (lambda: factor_into_cgl(I1, 0), "factor count must be >= 1"),
        (lambda: two_fpf_product(MatrixQ.zeros(F3, 1, 1)),
         "only invertible matrices can be factored"),
        (lambda: cw_compose(one_cycle_map(3, 1), one_cycle_map(3, 2)), "mismatched splittings"),
        (lambda: one_cycle_map(3, 0), "k must be >= 1"),
        (lambda: CycleType({0: 1}), "cycle lengths must be positive"),
        (lambda: CycleType({1: -1}), "cycle counts must be nonnegative"),
        (lambda: blow_up(0, CycleType({1: 1})), "blow-up factor must be positive"),
        (lambda: factorize(0), "factorize expects a positive integer"),
        (lambda: prime_power(6), "6 is not a prime power"),
        (lambda: field(3, 1, (1, 1)), "prime fields take no modulus"),
        (lambda: field(3, 2, (1, 0, 0, 1)), "modulus must be monic of degree k"),
        (lambda: F3.gen(), "prime field has no distinguished generator"),
        (lambda: F3.dlog(F3.one()), "prime field has no distinguished generator"),
        (lambda: F9.dlog(F9.zero()), "dlog of zero"),
        (lambda: F3.from_index(3), "index out of range"),
        (lambda: Poly(F3, (1,)) + Poly(F5, (1,)), "mismatched coefficient contexts"),
        (lambda: enumerate_irreducibles(F3, 0), "max_degree must be >= 1"),
        (lambda: VectorQ(F3, (1,)) + VectorQ(F5, (1,)), "mismatched contexts"),
        (lambda: VectorQ(F3, (1,)) + VectorQ(F3, (1, 1)), "dimension mismatch"),
        (lambda: VectorQ(F3, (1,)) * I2, "dimension mismatch in vector-matrix product"),
        (lambda: I1 + MatrixQ.identity(F5, 1), "mismatched contexts"),
        (lambda: I1 + I2, "dimension mismatch"),
        (lambda: I1 * I2, "dimension mismatch in matrix product"),
        (lambda: row.det(), "determinant needs a square matrix"),
        (lambda: row.has_no_eigenvalue(1), "eigenvalue test needs a square matrix"),
        (lambda: row.inverse(), "inverse needs a square matrix"),
        (lambda: charpoly(row), "characteristic polynomial needs a square matrix"),
        (lambda: prcf(row), "canonical form needs a square matrix"),
        (lambda: is_complete_mapping([0, 1, 2, 3], 4, 1), "4 is not prime"),
        (lambda: parse_poly("x++1", F3), "malformed polynomial text 'x++1'"),
        (lambda: parse_poly("w*x+1", F3), "generator powers need an extension field"),
        (lambda: parse_poly("2w+1", F9), "w denotes the field generator, not the variable"),
    ]:
        _refused(build, message)


def test_store_refuses_a_value_count_that_does_not_match_the_fields():
    class Pair(Record):
        __slots__ = ("a", "b")

        def __init__(self, *values):
            self._store(*values)

    pair = Pair(1, 2)
    assert (pair.a, pair.b, pair._values) == (1, 2, (1, 2))
    for values in [(1,), (1, 2, 3)]:
        with pytest.raises(ValueError):
            Pair(*values)


INTROSPECTION_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


@pytest.mark.parametrize("module", ["cosetmap.cli", "cosetmap"])
def test_fresh_import_loads_no_introspection_module(module):
    src = str(Path(cosetmap.__file__).resolve().parents[1])
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            f"import {module}\n"
            f"print(sorted((set(sys.modules) - before) & set({INTROSPECTION_MODULES!r})))\n")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.strip() == "[]"
