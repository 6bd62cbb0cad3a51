"""The one memo rule: every process-wide memo is registered by `kernel.memo`, and
`gf.clear_memos()` empties them all without changing an answer or the
interned field contexts."""

import ast
from pathlib import Path

import cosetmap
from cosetmap import (CosetWiseAffineMap, FieldCtx, MapTable, MatrixQ, Poly, Splitting, VectorQ,
                      analyze, block_cycle_type, cli, cw_cycle_type, enumerate_irreducibles, field,
                      gamma_dpl, gf, kernel, poly_order)
from cosetmap.affine_ct import ct_acgl, ct_agl, first_witness, sorted_types, witness_map

SRC = Path(cosetmap.__file__).resolve().parent


def _sizes() -> dict:
    return {name: len(kept) if isinstance(kept, dict) else kept.cache_info().currsize
            for name, kept in kernel._MEMOS.items()}


def _warm():
    """Gamma sets, witnesses, tables, irreducibles, orders, digit-sum plans,
    plane rows and forward types."""
    gamma = sorted_types(ct_agl(3, 3))[-1]
    assert first_witness(gamma, 3, 3) is not None and witness_map(gamma, 3, 3) is not None
    ct_acgl(2, 3)
    gamma_dpl(2, 2, 2)
    F9 = field(3, 2)
    assert F9.gen() * F9.gen() != F9.zero()
    for Q in enumerate_irreducibles(field(5), 2):
        if Q.codes[0]:
            poly_order(Q)
    block_cycle_type(Poly(field(3), (1, 1)), 2)
    for p, n in ((3, 4), (17, 1)):  # plane rows (from 64 points on), then digit-sum plans
        assert analyze(MapTable(p ** n, range(p ** n)), p, n).is_complete
    F3 = field(3)
    cw_cycle_type(CosetWiseAffineMap(Splitting(3, 1, 0), (0,),
                                     [(MatrixQ(F3, [[1]]), VectorQ(F3, [1]))]))


def test_clear_memos_empties_every_registered_memo():
    _warm()
    before = _sizes()
    assert all(before.values()), [name for name, n in before.items() if not n]
    gf.clear_memos()
    assert not any(_sizes().values())
    assert not any(kept is gf._CTX_CACHE for kept in kernel._MEMOS.values())


def test_contexts_survive_and_old_elements_mix_with_new():
    assert FieldCtx.__slots__ == ("p", "k", "modulus")
    F27 = field(3, 3)
    w = F27.gen()
    cube = w * w * w
    gf.clear_memos()
    assert field(3, 3) is F27
    w_new = field(3, 3).gen()
    assert w * w_new * w == cube and cube - w_new == F27.elem(-1)  # w^3 = w - 1
    assert (w + w_new) * w_new.inverse() == F27.elem(2)


def _outputs(capsys) -> list[str]:
    out = []
    for argv in (["gamma-dpl", "--d", "8", "--p", "5", "--l", "1"],
                 ["sylow-type", "--q", "243", "--type", "x243", "--verify"],
                 ["one-cycle-poly", "--p", "5", "--k", "3", "--verify"]):
        assert cli.main(argv) == 0
        out.append(capsys.readouterr().out)
    return out


def test_cli_output_is_byte_equal_after_clear_memos(capsys):
    first = _outputs(capsys)
    gf.clear_memos()
    assert _outputs(capsys) == first


def test_functools_caches_only_inside_memo():
    """`functools.cache` and `lru_cache` appear in the package source only
    inside `kernel.memo`."""
    memo = next(node for node in ast.parse((SRC / "kernel.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "memo")
    found = [(path.name, i) for path in sorted(SRC.glob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if "functools.cache" in line or "lru_cache" in line]
    assert found and all(name == "kernel.py" and memo.lineno <= i <= memo.end_lineno
                         for name, i in found), found
