"""The package imports its modules on first use: a fresh `import cosetmap`
loads no submodule, and a CLI request loads only what its subcommand calls,
while every public name stays the object its home module defines."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cosetmap

SRC = str(Path(cosetmap.__file__).resolve().parents[1])

PUBLIC = """
    AffineMap AnalysisReport CglFactorization CosetWiseAffineMap CycleType FieldCtx FieldElement
    InfeasibleError MapTable MatrixQ Poly Prcf Splitting VectorQ affine_ct affine_cycle_type
    analyze block_cycle_type cgl charpoly companion conjugated_table construct_main
    construct_sylow_type ct ct_format ct_of_permutation ct_parse cw_compose cw_cycle_type
    cw_is_complete cw_is_permutation cw_to_table cwaffine cycletype elementary_divisors
    enumerate_irreducibles errors evaluate_poly_table factor_into_cgl factor_monic field
    gamma_dpl gamma_of_matrix gamma_of_poly gf interpolate is_cgl is_irreducible
    kernel linalg load_table one_cycle_map one_cycle_polynomial oracle poly_order prcf realize_gamma
    sorted_types two_fpf_product weixu weixu_all
""".split()


def fresh(code: str) -> str:
    """Stdout of `code` run in a new interpreter with this package on its path."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True, timeout=60).stdout


def cli_loads(argv) -> set[str]:
    """The cosetmap submodules loaded by one fresh CLI request, which must exit 0."""
    code = ("import json, sys\n"
            "from cosetmap.cli import main\n"
            f"status = main({argv!r})\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('cosetmap.'))\n"
            "print(json.dumps([status, loaded]))\n")
    status, loaded = json.loads(fresh(code).splitlines()[-1])
    assert status == 0
    return set(loaded)


def test_import_cosetmap_loads_no_submodule():
    out = fresh("import sys, cosetmap\n"
                "print(sorted(m for m in sys.modules if m.startswith('cosetmap.')))\n")
    assert out.strip() == "[]"


def fresh_loads(module: str) -> list[str]:
    """The cosetmap submodules loaded by a fresh `import <module>`."""
    return json.loads(fresh(f"import json, sys, {module}\n"
                            "print(json.dumps(sorted(m for m in sys.modules "
                            "if m.startswith('cosetmap.'))))\n"))


def test_kernel_loads_no_other_module_of_the_package():
    assert fresh_loads("cosetmap.kernel") == ["cosetmap.kernel"]


def test_cycle_types_load_the_kernel_and_no_field():
    loaded = fresh_loads("cosetmap.cycletype")
    assert "cosetmap.kernel" in loaded and "cosetmap.gf" not in loaded


def _top_level_names(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets}
        elif isinstance(node, ast.AnnAssign):
            names.add(node.target.id)
    return names


def test_each_name_has_one_home_and_kernel_names_are_imported_from_kernel():
    """No name is defined in both `gf` and `kernel`, and no module of the
    package and no test imports a name that `kernel` defines through `gf`."""
    pkg = Path(cosetmap.__file__).resolve().parent
    kernel, gf = _top_level_names(pkg / "kernel.py"), _top_level_names(pkg / "gf.py")
    assert kernel and gf and not kernel & gf
    through_gf = [(path.name, alias.name)
                  for path in [*pkg.glob("*.py"), *Path(__file__).resolve().parent.glob("*.py")]
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.ImportFrom) and node.module in ("gf", "cosetmap.gf")
                  for alias in node.names if alias.name in kernel]
    assert not through_gf, through_gf


def test_gamma_dpl_loads_no_constructor_oracle_or_codec():
    loaded = cli_loads(["gamma-dpl", "--d", "3", "--p", "3", "--l", "1"])
    assert "cosetmap.affine_ct" in loaded
    assert not loaded & {"cosetmap.cwaffine", "cosetmap.cgl", "cosetmap.oracle",
                         "cosetmap.serialize"}


def test_verify_loads_no_linear_algebra_constructor_or_codec(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"n": 9, "images": [0, 2, 1, 6, 8, 7, 3, 5, 4]}))
    loaded = cli_loads(["verify", "--table", str(path), "--p", "3", "--dim", "2"])
    assert "cosetmap.oracle" in loaded
    assert not loaded & {"cosetmap.linalg", "cosetmap.affine_ct", "cosetmap.cgl",
                         "cosetmap.cwaffine", "cosetmap.serialize"}


def test_public_names_are_their_home_modules_objects():
    assert cosetmap.__all__ == sorted(PUBLIC)
    for name in cosetmap.__all__:
        value = getattr(cosetmap, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"cosetmap.{name}"]
        else:
            assert value is getattr(sys.modules[value.__module__], name), name
            assert value.__module__.startswith("cosetmap.")
    assert set(cosetmap.__all__) <= set(dir(cosetmap))


def test_submodule_and_star_imports_in_a_fresh_process():
    out = fresh("import cosetmap\n"
                "print(cosetmap.kernel.__name__)\n"
                "from cosetmap import cwaffine\n"
                "print(cwaffine.__name__, callable(cwaffine.construct_main))\n"
                "ns = {}\n"
                "exec('from cosetmap import *', ns)\n"
                "print(sorted(set(ns) - {'__builtins__'}) == cosetmap.__all__)\n"
                "print(all(ns[name] is getattr(cosetmap, name) for name in cosetmap.__all__))\n")
    assert out.split() == ["cosetmap.kernel", "cosetmap.cwaffine", "True", "True", "True"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cosetmap.no_such_name
