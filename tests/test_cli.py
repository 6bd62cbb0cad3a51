import io
import json
import random
import re
import sys
import time

import pytest

from cosetmap import cli, cwaffine, serialize
from cosetmap.cli import main
from cosetmap.serialize import cwmap_from_json, format_poly, parse_poly, poly_to_json
from cosetmap import CycleType, Poly, VectorQ, ct_parse, field
from helpers import cw_map, reference_elem_from_json, reference_from_json, reference_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_text_round_trip():
    F3 = field(3)
    P = parse_poly("X^2+X+2", F3)
    assert P == Poly(F3, (2, 1, 1))
    assert parse_poly("X^3-X+1", F3) == Poly(F3, (1, 2, 0, 1))
    assert parse_poly(format_poly(P), F3) == P
    F27 = field(3, 3)
    w = F27.gen()
    P = Poly(F27, (w ** 6, F27.one(), w ** 9))
    assert parse_poly(format_poly(P), F27) == P
    with pytest.raises(ValueError):
        parse_poly("x^2 + y", F3)
    with pytest.raises(ValueError):
        parse_poly("", F3)


def test_poly_text_round_trip_when_the_generator_is_not_primitive():
    """Coefficients outside the powers of X print as coordinate lists,
    constant coordinate first, and read back as the same polynomial."""
    for p, modulus in ((3, (1, 0, 1)), (5, (2, 0, 1)), (7, (1, 0, 1))):
        ctx = field(p, 2, modulus)
        X = Poly.x(ctx)
        for i in range(1, ctx.order):
            c = ctx.from_index(i)
            for P in (Poly(ctx, (c,)), X ** 3 + c * X + c, c * X ** 2 + X):
                assert parse_poly(format_poly(P), ctx) == P
    F9 = field(3, 2, (1, 0, 1))
    text = "x^6 + x^4 + x^2 + x + [1, 1]"
    assert format_poly(parse_poly(text, F9)) == text


def test_gamma_command(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--p", "3", "--poly", "X^2+X+2")
    assert code == 0
    assert out.strip() == "x1 x8"
    # (X-1)^2 = X^2 + X + 1 over GF(3)
    code, out, _ = run_cli(capsys, "--format", "json", "gamma", "--p", "3",
                           "--poly", "X^2+X+1")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == [{"1": 3, "3": 2}, {"3": 3}]


def test_gamma_dpl_exit_codes(capsys):
    code, out, err = run_cli(capsys, "gamma-dpl", "--d", "1", "--p", "2", "--l", "2")
    assert code == 1
    assert out.strip() == ""
    code, out, _ = run_cli(capsys, "gamma-dpl", "--d", "2", "--p", "2", "--l", "2")
    assert code == 0
    assert out.splitlines() == ["x1 x3", "x1^4", "x2^2"]
    # deeper than the default recursion limit allowed before
    code, out, _ = run_cli(capsys, "gamma-dpl", "--d", "8", "--p", "3", "--l", "1")
    assert code == 0
    assert len(out.splitlines()) == 458


def test_gamma_text_builds_no_json(capsys, monkeypatch):
    """gamma and gamma-dpl as text print the same lines without building a
    single type's JSON."""
    requests = [("gamma", "--p", "3", "--poly", "X^2+X+1"),
                ("gamma", "--p", "5", "--k", "2", "--poly", "X^3+X+1"),
                ("gamma-dpl", "--d", "6", "--p", "3", "--l", "1")]
    plain = [run_cli(capsys, *argv) for argv in requests]

    def fail(self):
        raise AssertionError("to_json called for text output")

    monkeypatch.setattr(CycleType, "to_json", fail)
    for argv, (code, out, err) in zip(requests, plain):
        assert code == 0 and out and not err
        assert run_cli(capsys, *argv) == (0, out, "")


def test_gamma_dpl_from_block_signatures_at_scale(capsys):
    """The sets come from the divisors of p^m - 1, not from a walk over the
    1,000,002 classes of GL_1(1000003) or the 390,480 classes of GL_8(5)."""
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "gamma-dpl", "--d", "1", "--p", "1000003", "--l", "1")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert len(out.splitlines()) == 8
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "gamma-dpl", "--d", "8", "--p", "5", "--l", "1")
    assert time.perf_counter() - start < 2
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3853
    assert {ct_parse(line).degree for line in lines} == {5 ** 8}


def test_field_of_a_prime_near_2_61_answers_at_once(capsys):
    """The Mersenne prime 2^61 - 1 is checked by Miller-Rabin, not by trial
    division up to its square root."""
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "one-cycle-poly", "--p", "2305843009213693951", "--k", "1")
    assert time.perf_counter() - start < 2
    assert (code, out) == (0, "x + 1\n")


def test_field_of_order_psi_13_exits_2(capsys):
    """From psi_13 on the Miller-Rabin bases do not decide primality, so the
    request is refused, naming the limit."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "one-cycle-poly", "--p", "3317044064679887385961981",
                             "--k", "1")
    assert time.perf_counter() - start < 2
    assert code == 2 and out == "" and "3317044064679887385961981" in err


def test_gamma_over_a_unit_group_of_prime_order_above_psi_13_exits_2(capsys):
    """GF(2^89)^* and GF(2^127)^* have prime orders above psi_13, which no
    Miller-Rabin base decides: each gamma request is refused at once with one
    `error:` line naming psi_13, where trial division ran without bound."""
    for poly in ("X^89+X^38+1", "X^127+X+1"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "gamma", "--p", "2", "--poly", poly)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("psi_13 = 3317044064679887385961981\n")


def test_field_and_factor_count_above_the_limit_exit_2_at_once(capsys):
    """GF(p^k) with k >= 2 is refused before it is built when it has more than
    MAX_DOMAIN elements, and cgl-factor's --l above MAX_DOMAIN likewise: a
    huge --k or --l no longer overflows an index (exit 3)."""
    huge = str(10 ** 30)
    limit = "elements, above the 1000000 limit\n"
    field_message = f"error: GF(2^{huge}) has 2^{huge} {limit}"
    runs = [(("cycle-type", "--p", "2", "--k", huge, "--map", "-"), field_message),
            (("gamma", "--p", "2", "--k", huge, "--poly", "X+1"), field_message),
            (("cgl-factor", "--p", "2", "--k", huge, "--l", "1", "--matrix", "-"), field_message),
            (("one-cycle-poly", "--p", "2", "--k", huge), field_message),
            (("gamma", "--p", "2", "--k", "20", "--poly", "X+1"),
             f"error: GF(2^20) has 2^20 {limit}"),
            (("cgl-factor", "--p", "3", "--l", huge, "--matrix", "-"),
             f"error: --l asks for {huge} factors, above the 1000000 limit\n")]
    for argv, message in runs:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", message), argv


@pytest.mark.parametrize("argv", [
    ("one-cycle", "--p", "3", "--k", "14"),
    ("one-cycle", "--p", "3", "--k", "40"),
    ("one-cycle", "--p", "3", "--k", str(10 ** 30)),
    ("one-cycle", "--p", "2", "--k", "21"),
    ("sylow-type", "--q", "4782969", "--type", "x4782969"),
    ("gamma-dpl", "--d", str(10 ** 30), "--p", "3", "--l", "1"),
    ("gamma", "--p", "2", "--poly", "x^100000000+1"),
    ("gamma", "--p", "2", "--k", "2", "--modulus", "x^100000000+1", "--poly", "x"),
    ("gamma", "--p", "2", "--poly", "x^3000+x+1"),
    ("gamma", "--p", "2", "--poly", "x^" + "9" * 5000 + "+1"),
])
def test_coset_counts_and_dimensions_above_the_limit_exit_2_at_once(capsys, argv):
    """More than MAX_DOMAIN cosets (3^13 for one-cycle --k 14 and for
    sylow-type over GF(3^14), 2^20 for one-cycle --p 2 --k 21), a gamma set
    in a dimension above it, polynomial text of a higher degree, or a
    companion matrix of more entries, is refused before any coset, type,
    coefficient or row is listed: these took seconds, gave no answer,
    overflowed an index, or (x^100000000 + 1) asked for several GB.  An
    exponent of 5000 digits is refused by its digit count, before the
    interpreter's limit on converting it could name itself."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(", above the 1000000 limit\n")
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("argv,want", [
    (("gamma-dpl", "--d", "1", "--p", "2305843009213691579", "--l", "1"),
     "x1 x1152921504606845789^2\nx1 x2305843009213691578\n"
     "x1^2305843009213691579\nx2305843009213691579\n"),
    (("gamma", "--p", "2", "--poly", "X^61+X^5+X^2+X+1"), "x1 x2305843009213693951\n"),
])
def test_a_prime_cofactor_of_the_group_order_answers_at_once(capsys, argv, want):
    """p - 1 = 2 * a prime near 2^60, and 2^61 - 1 itself: trial division
    runs to 1000 only, and Miller-Rabin (`_composite`) finds the cofactor
    prime, so neither rho nor a search to its square root runs."""
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert (code, out) == (0, want)


def test_a_cofactor_of_two_large_primes_is_split_by_rho(capsys):
    """p - 1 = 2 * 268435399 * 269484707: Brent's rho splits the cofactor
    left after trial division, which trial division alone took about 17 s
    over."""
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "gamma-dpl", "--d", "1", "--p", "144678469695886187",
                           "--l", "1")
    assert time.perf_counter() - start < 2
    assert code == 0
    assert out.splitlines() == [
        "x1 x268435399^538969414", "x1 x269484707^536870798", "x1 x536870798^269484707",
        "x1 x538969414^268435399", "x1 x72339234847943093^2", "x1 x144678469695886186",
        "x1^144678469695886187", "x144678469695886187"]


@pytest.mark.parametrize("exc,code,prefix", [
    (ArithmeticError("self-check failed"), 3, "internal error: "),
    (RecursionError("maximum recursion depth exceeded"), 3, "internal error: "),
    (ZeroDivisionError("division by zero"), 3, "internal error: "),
    (TypeError("unsupported operand type(s)"), 3, "internal error: "),
    (KeyError("images"), 3, "internal error: "),
    (AttributeError("'list' object has no attribute 'items'"), 3, "internal error: "),
])
def test_internal_errors_exit_3(monkeypatch, capsys, exc, code, prefix):
    def fail(args):
        raise exc
    monkeypatch.setattr(cli, "_cmd_gamma_dpl", fail)
    rc, out, err = run_cli(capsys, "gamma-dpl", "--d", "2", "--p", "2", "--l", "2")
    assert rc == code
    assert out == ""
    assert err == f"{prefix}{exc}\n"


@pytest.mark.parametrize("argv,message", [
    (("gamma", "--p", "3", "--poly", "-x+1"), "error: argument --poly: expected one argument\n"),
    (("gamma", "--p", "abc"), "error: argument --p: invalid int value: 'abc'\n"),
    (("gamma-dpl", "--d", "2", "--p", "3"), "error: the following arguments are required: --l\n"),
    (("--format", "xml", "gamma", "--p", "3"), None),
    (("bogus",), None),
    (("gamma", "--p", "3", "--poly", "X^2+X+2", "--matrix", "[[1]]"),  # was --poly's answer
     "error: argument --matrix: not allowed with argument --poly\n"),
    (("gamma", "--p", "3"), "error: one of the arguments --poly --matrix is required\n"),
])
def test_argument_errors_exit_2_with_one_line(capsys, argv, message):
    """What argparse refuses follows the contract of every other malformed
    request: exit 2, no stdout and one `error:` line, with no usage block."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert message is None or err == message


def test_seed_defaults_to_0_whatever_the_environment(monkeypatch, capsys):
    monkeypatch.delenv("COSETMAP_SEED", raising=False)
    code, seed0, _ = run_cli(capsys, "sylow-type", "--q", "9", "--type", "x9", "--seed", "0")
    assert code == 0 and "cycle type: x9" in seed0
    monkeypatch.setenv("COSETMAP_SEED", "abc")
    code, out, err = run_cli(capsys, "sylow-type", "--q", "9", "--type", "x9")
    assert (code, out, err) == (0, seed0, "")


def test_verify_refuses_bad_tables_and_moduli(tmp_path, capsys):
    path = tmp_path / "t.csv"
    # index 0 listed twice: not a 2-point table
    path.write_text("0,1\n0,0\n1,0\n")
    code, out, err = run_cli(capsys, "verify", "--table", str(path), "--p", "2",
                             "--dim", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: CSV must cover indices 0..n-1 exactly once")
    # Z/4 is not GF(4): a non-prime p is refused, not answered
    path.write_text("0,1\n1,2\n2,3\n3,0\n")
    code, out, err = run_cli(capsys, "verify", "--table", str(path), "--p", "4",
                             "--dim", "1")
    assert code == 2
    assert out == ""
    assert err == "error: 4 is not prime\n"


def test_verify_refuses_csv_cells_that_are_not_ascii_digits(tmp_path, capsys):
    """int() would read 0_0 as 0, an Arabic-Indic two as 2 and +1 as 1;
    each such table exits 2 naming the row, as a JSON "0" does."""
    path = tmp_path / "t.csv"
    for text, row, cell in [("0,1\n1,2\n2,0_0\n", 3, "'0_0'"),
                            ("0,1\n1,\u0662\n2,0\n", 2, "'\u0662'"),
                            ("0,1\n+1,2\n2,0\n", 2, "'+1'")]:
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--table", str(path), "--p", "3",
                                 "--dim", "1")
        assert (code, out) == (2, "")
        assert err == f"error: CSV row {row}: {cell} is not a nonnegative integer\n"
    path.write_text('{"n": 3, "images": [1, "0", 2]}')
    code, out, _ = run_cli(capsys, "verify", "--table", str(path), "--p", "3", "--dim", "1")
    assert (code, out) == (2, "")
    path.write_text(" 0 , 1\n1,2\n2,0\n")
    code, out, _ = run_cli(capsys, "verify", "--table", str(path), "--p", "3", "--dim", "1")
    assert code == 0 and "cycle type: x3" in out


def test_singular_matrix_exits_2(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[1, 1], [1, 1]]))
    code, out, err = run_cli(capsys, "cgl-factor", "--p", "2", "--l", "2",
                             "--matrix", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv,payload,message", [
    (("cycle-type", "--p", "2", "--map"), {"matrix": [[1, 1], [1, 1]], "shift": [0, 1]},
     "affine map is not a permutation (singular matrix)"),
    (("gamma", "--p", "2", "--matrix", "[[1, 1], [1, 1]]"), None,
     "gamma needs an invertible matrix"),
    (("gamma", "--p", "2", "--matrix", "[[1, 0]]"), None, "gamma needs an invertible matrix"),
])
def test_singular_or_non_square_matrix_refusals(tmp_path, capsys, argv, payload, message):
    if payload is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        argv = argv + (str(path),)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


HUGE = "9" * 5000


@pytest.mark.parametrize("argv,text,what", [
    (("cycle-type", "--p", "3", "--map"), f'{{"matrix": [[{HUGE}]], "shift": [0]}}',
     "an integer in --map"),
    (("gamma", "--p", "3", "--matrix", f"[[{HUGE}]]"), None, "an integer in --matrix"),
    (("cgl-factor", "--p", "3", "--l", "1", "--matrix"), f"[[{HUGE}]]",
     "an integer in --matrix"),
    (("construct", "--job"), f'{{"p": {HUGE}}}', "an integer in --job"),
    (("verify", "--p", "3", "--dim", "1", "--table"), f'{{"n": 1, "images": [{HUGE}]}}',
     "an integer in a map table"),
])
def test_json_integers_past_the_interpreter_digit_limit_exit_2_naming_the_input(
        tmp_path, capsys, argv, text, what):
    """A JSON integer of 5000 digits in any of the five JSON inputs is refused
    by their one reader in one error line that names the input, not with the
    interpreter's advice on raising its limit."""
    if text is not None:
        path = tmp_path / "in.txt"
        path.write_text(text)
        argv = argv + (str(path),)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    digits = sys.get_int_max_str_digits()
    assert (code, out, err) == (2, "", f"error: {what} has more than {digits} digits\n")


def test_one_cycle_poly_verify_of_a_non_bijection_exits_3(monkeypatch, capsys):
    """A polynomial whose table is no bijection fails the oracle check with
    exit 3 and no traceback."""
    monkeypatch.setattr(cwaffine, "one_cycle_polynomial", lambda ctx: Poly(ctx, (1,)))
    code, out, err = run_cli(capsys, "one-cycle-poly", "--p", "3", "--k", "2", "--verify")
    assert (code, out, err) == (3, "", "internal error: oracle verification failed\n")


@pytest.mark.parametrize("argv,payload", [
    (("cycle-type", "--p", "3", "--map"), {"matrix": [], "shift": []}),
    (("gamma", "--p", "3", "--matrix", "[]"), None),
    (("cgl-factor", "--p", "3", "--l", "2", "--matrix"), []),
])
def test_zero_dimension_exits_2(tmp_path, capsys, argv, payload):
    if payload is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        argv = argv + (str(path),)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: dimension must be >= 1\n")


@pytest.mark.parametrize("argv", [
    ("gamma", "--p", "3", "--k", "0", "--poly", "X+1"),
    ("one-cycle-poly", "--p", "3", "--k", "0"),
])
def test_zero_extension_degree_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: extension degree must be >= 1\n")


def test_cycle_type_command(tmp_path, capsys):
    job = {"matrix": [[0, 1], [1, 2]], "shift": [0, 0]}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(job))
    code, out, _ = run_cli(capsys, "cycle-type", "--p", "3", "--map", str(path))
    assert code == 0
    assert out.strip() == "x1 x8"


def test_cgl_factor_command(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[1, 0], [0, 1]]))
    code, out, _ = run_cli(capsys, "--format", "json", "cgl-factor", "--p", "2",
                           "--l", "2", "--matrix", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["factors"] == [[[0, 1], [1, 1]], [[1, 1], [1, 0]]]
    # infeasible: (1,2)
    path.write_text(json.dumps([[1]]))
    code, _, err = run_cli(capsys, "cgl-factor", "--p", "2", "--l", "2",
                           "--matrix", str(path))
    assert code == 1
    assert "infeasible" in err


def test_construct_command(tmp_path, capsys):
    job = {
        "p": 3, "d": 1, "t": 1,
        "g": [1, 2, 0],
        "gammas": [{"length": 3, "index": 1, "type": "x3"}],
        "seed": 0,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, out, _ = run_cli(capsys, "--format", "json", "construct", "--job",
                           str(path), "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["cycle_type"] == {"9": 1}
    assert payload["verified"]["is_complete"] is True
    f = cwmap_from_json(payload)
    from cosetmap import cw_cycle_type, ct
    assert cw_cycle_type(f) == ct("x9")


def test_sylow_command(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "sylow-type", "--q", "9",
                           "--type", "x1^3 x3^2", "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["cycle_type"] == {"1": 3, "3": 2}
    assert payload["verified"]["is_complete"] is True
    # malformed type text
    code, _, err = run_cli(capsys, "sylow-type", "--q", "9", "--type", "x3 x1")
    assert code == 2
    # infeasible: even q
    code, _, err = run_cli(capsys, "sylow-type", "--q", "4", "--type", "x4")
    assert code == 1


def test_one_cycle_commands(capsys):
    code, out, _ = run_cli(capsys, "one-cycle", "--p", "3", "--k", "2", "--verify")
    assert code == 0
    assert "cycle type: x9" in out
    code, out, _ = run_cli(capsys, "one-cycle-poly", "--p", "3", "--k", "3",
                           "--modulus", "X^3-X+1", "--verify")
    assert code == 0
    assert out.splitlines()[0] == (
        "x^24 + x^22 + x^20 + w^16*x^18 + x^16 + x^14 + w^9*x^12 + w^9*x^10 "
        "+ x^8 + w^16*x^6 + w^9*x^4 + w^16*x^2 + x + w^6")


def test_verify_above_domain_limit_exits_2_at_once(tmp_path, capsys):
    """--verify is refused before any construction when its table would
    exceed oracle.MAX_DOMAIN points."""
    import time
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"p": 3, "d": 2, "t": 11, "g": [], "gammas": []}))
    runs = [("one-cycle", "--p", "3", "--k", "13", "--verify"),
            ("one-cycle", "--p", "3", "--k", "1000000000", "--verify"),
            ("sylow-type", "--q", str(3 ** 13), "--type", f"x{3 ** 13}", "--verify"),
            ("construct", "--job", str(job), "--verify"),
            ("one-cycle-poly", "--p", "3", "--k", "13", "--verify")]
    for argv in runs:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: --verify tabulates ")
        assert err.endswith("points, above the 1000000 limit\n")


@pytest.mark.parametrize("argv,payload,message", [
    (("verify", "--p", "3", "--dim", "300000000", "--table"), {"n": 3, "images": [1, 2, 0]},
     "domain size must equal p^dims"),
    (("construct", "--job"), {"p": 3, "d": 1, "t": 300000000, "g": [1, 2, 0],
                              "gammas": [{"length": 3, "index": 1, "type": "x3"}]},
     "base map must be a bijection on GF(p)^t"),
])
def test_huge_dimension_of_a_small_table_exits_2_at_once(tmp_path, capsys, argv, payload,
                                                         message):
    """A dimension whose p^n cannot equal the table's length is refused
    before p^n is worked out."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_huge_dimension_is_refused_before_the_power():
    from cosetmap import MapTable, analyze, construct_main
    from cosetmap.oracle import is_complete_mapping
    start = time.perf_counter()
    assert not is_complete_mapping([1, 2, 0], 3, 300000000)
    with pytest.raises(ValueError, match="domain size"):
        analyze(MapTable(3, (1, 2, 0)), 3, 300000000)
    with pytest.raises(ValueError, match="bijection"):
        construct_main(3, 1, 300000000, [1, 2, 0], {})
    assert time.perf_counter() - start < 1.0
    # the guard passes every true dimension, down to one point
    assert is_complete_mapping([0], 3, 0) and not is_complete_mapping([0], 3, 1)
    assert analyze(MapTable(1, (0,)), 5, 0).is_complete


_JOB = {"p": 3, "d": 1, "t": 1, "g": [1, 2, 0],
        "gammas": [{"length": 3, "index": 1, "type": "x3"}], "seed": 0}


@pytest.mark.parametrize("argv,payload,message", [
    (("verify", "--p", "3", "--dim", "1", "--table"), {"n": 3.9, "images": [1.9, 2.2, 0.5]},
     "n must be an integer, not 3.9"),
    (("verify", "--p", "3", "--dim", "1", "--table"), {"n": 3, "images": [1, 2.0, 0]},
     "an entry of images must be an integer, not 2.0"),
    (("verify", "--p", "3", "--dim", "1", "--table"), {"n": 3, "images": [1, True, 0]},
     "an entry of images must be an integer, not True"),
    (("construct", "--job"), {**_JOB, "p": 3.7, "t": 1.2}, "p must be an integer, not 3.7"),
    (("construct", "--job"), {**_JOB, "t": 1.2}, "t must be an integer, not 1.2"),
    (("construct", "--job"), {**_JOB, "d": "1"}, "d must be an integer, not '1'"),
    (("construct", "--job"), {**_JOB, "g": [1, 2, 0.0]},
     "an entry of g must be an integer, not 0.0"),
    (("construct", "--job"), {**_JOB, "seed": 0.5}, "seed must be an integer, not 0.5"),
    (("construct", "--job"), {**_JOB, "gammas": [{"length": 3.0, "index": 1, "type": "x3"}]},
     "length must be an integer, not 3.0"),
    (("cycle-type", "--p", "3", "--map"), {"matrix": [[0, 1], [1, 2]], "shift": [0, 1.5]},
     "1.5 is not an integer, an element or a coordinate list"),
    (("cycle-type", "--p", "3", "--map"), {"matrix": [[0, 1], [1, 2]], "shift": [True, 0]},
     "True is not an integer, an element or a coordinate list"),
    (("cycle-type", "--p", "3", "--k", "2", "--map"),
     {"matrix": [[[0, 1]]], "shift": [[0.5, 1]]}, "a coordinate must be an integer, not 0.5"),
    (("cycle-type", "--p", "3", "--k", "2", "--map"),
     {"matrix": [["01"]], "shift": [[0, 1]]},
     "'01' is not an integer, an element or a coordinate list"),
    (("cycle-type", "--p", "3", "--k", "2", "--map"),
     {"matrix": [[["0", 1]]], "shift": [[0, 1]]}, "a coordinate must be an integer, not '0'"),
])
def test_json_non_integers_exit_2(tmp_path, capsys, argv, payload, message):
    """A float, bool or string where the input wants an integer is refused,
    never truncated or parsed."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("payload,message", [
    ({"n": 3}, "a map table needs the key 'images'"),
    ({"images": [1, 2, 0]}, "a map table needs the key 'n'"),
    ({"n": 3, "images": 5}, "images must be a list of integers, not int"),
    ({"n": 3, "images": "120"}, "images must be a list of integers, not str"),
    ({"n": 3, "images": {"0": 1}}, "images must be a list of integers, not dict"),
    ({"n": "3", "images": [1, 2, 0]}, "n must be an integer, not '3'"),
])
def test_verify_table_json_names_its_bad_key(tmp_path, capsys, payload, message):
    """A map table with a key missing or of another JSON type is refused with
    exit 2 and a message that names the key."""
    path = tmp_path / "table.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "verify", "--table", str(path), "--p", "3", "--dim", "1")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,payload,message", [
    (("cycle-type", "--p", "3", "--map"), None,
     "an affine map must be a JSON object, not NoneType"),
    (("cycle-type", "--p", "3", "--map"), [[1, 0], [0, 1]],
     "an affine map must be a JSON object, not list"),
    (("cycle-type", "--p", "3", "--map"), {"matrix": [[1, 0], [0, 1]]},
     "an affine map needs the key 'shift'"),
    (("cycle-type", "--p", "3", "--map"), {"shift": [0]}, "an affine map needs the key 'matrix'"),
    (("cycle-type", "--p", "3", "--map"), {"matrix": 5, "shift": [0]},
     "matrix must be a list, not int"),
    (("cycle-type", "--p", "3", "--map"), {"matrix": [5], "shift": [0]},
     "a row of matrix must be a list, not int"),
    (("cycle-type", "--p", "3", "--map"), {"matrix": [[1]], "shift": 0},
     "shift must be a list, not int"),
    (("construct", "--job"), [1, 2], "a construct job must be a JSON object, not list"),
    (("construct", "--job"), {k: v for k, v in _JOB.items() if k != "g"},
     "a construct job needs the key 'g'"),
    (("construct", "--job"), {**_JOB, "gammas": [5]},
     "an entry of gammas must be a JSON object, not int"),
    (("construct", "--job"), {**_JOB, "gammas": [{"length": 3, "index": 1}]},
     "an entry of gammas needs the key 'type'"),
    (("construct", "--job"), {**_JOB, "gammas": {}}, "gammas must be a list, not dict"),
    (("construct", "--job"), {**_JOB, "g": 5}, "g must be a list, not int"),
])
def test_affine_map_and_job_json_name_their_bad_key(tmp_path, capsys, argv, payload, message):
    """An affine map or construct job that is not a JSON object, lacks a key,
    or has a list where it wants one of another JSON type, is refused with
    exit 2 and a message that names the key."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("payload,message", [
    ({**_JOB, "gammas": [{"length": 3, "index": 1, "type": 3}]},
     "a cycle type must be a string, not 3"),
    ({**_JOB, "require_complete": "no"}, "require_complete must be true or false, not 'no'"),
])
def test_construct_job_fields_of_another_json_type_exit_2(tmp_path, capsys, payload, message):
    """A target type that is not a JSON string, and a require_complete that
    is not JSON true or false, are refused, never coerced."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "construct", "--job", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("types", [("x1 x2", "x3"), ("x3", "x1 x2")])
def test_construct_job_naming_a_cycle_twice_exits_2(tmp_path, capsys, monkeypatch, types):
    """A job with two targets for one (length, index) is refused before any
    construction, whichever target comes first; neither entry is dropped."""
    path = tmp_path / "job.json"
    gammas = [{"length": 3, "index": 1, "type": t} for t in types]
    path.write_text(json.dumps({"p": 3, "d": 1, "t": 1, "g": [1, 2, 0], "gammas": gammas}))
    monkeypatch.setattr(cwaffine, "construct_main", lambda *a, **k: pytest.fail("construct ran"))
    code, out, err = run_cli(capsys, "construct", "--job", str(path))
    assert (code, out, err) == (
        2, "", "error: gammas names the cycle of length 3 and index 1 twice\n")


@pytest.mark.parametrize("d", [2, 40])
def test_target_of_another_degree_exits_1_at_once(tmp_path, capsys, d):
    """A target whose degree is not p^d is infeasible, and is refused before
    any gamma set of dimension d is built."""
    path = tmp_path / "job.json"
    gammas = [{"length": 1, "index": i, "type": "x3"} for i in (1, 2, 3)]
    path.write_text(json.dumps({"p": 3, "d": d, "t": 1, "g": [0, 1, 2], "gammas": gammas}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "construct", "--job", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == (f"infeasible: x3 is not realizable with 1 complete factors "
                   f"in dimension {d} over GF(3)\n")


def test_class_walk_above_the_limit_exits_2_at_once(tmp_path, capsys):
    """A first witness over GF(1009)^3 would sieve 1009^3 candidate
    polynomials for the class walk; the walk refuses it by the size rule
    before the sieve allocates anything.  g = 2x has the fixed point 0 and
    two cycles of length 504, and x1 x504^2038182 (the type of x -> 2x) lies
    in the gamma sets of both lengths."""
    from cosetmap import gf
    gamma = "x1 x504^2038182"
    job = {"p": 1009, "d": 3, "t": 1, "g": [2 * x % 1009 for x in range(1009)],
           "gammas": [{"length": 1, "index": 1, "type": gamma},
                      {"length": 504, "index": 1, "type": gamma},
                      {"length": 504, "index": 2, "type": gamma}]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    gf.clear_memos()
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "construct", "--job", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: the class walk over GF(1009)^3 sieves 1009^3 polynomials, "
                   "above the 1000000 limit\n")


def test_target_for_a_huge_d_exits_1_at_once(tmp_path, capsys):
    """A d far beyond any table is refused by the first target's degree
    check, before a zero shift of length d is built."""
    path = tmp_path / "job.json"
    job = {"p": 3, "d": 10 ** 30, "t": 1, "g": [1, 2, 0],
           "gammas": [{"length": 3, "index": 1, "type": "x3"}]}
    for complete, why in ((True, "realizable with 3 complete factors"),
                          (False, "an affine cycle type")):
        path.write_text(json.dumps({**job, "require_complete": complete}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "construct", "--job", str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == f"infeasible: x3 is not {why} in dimension {10 ** 30} over GF(3)\n"


@pytest.mark.parametrize("argv,stdin,message", [
    (("verify", "--p", "3", "--dim", "1", "--table", "-"), "null",
     "a map table must be a JSON object, not NoneType"),
    (("verify", "--p", "3", "--dim", "1", "--table", "-"), "[1, 2]",
     "a map table must be a JSON object, not list"),
    (("verify", "--p", "3", "--dim", "1", "--table", "-"), ' "0,1"',
     "a map table must be a JSON object, not str"),
    (("gamma", "--p", "3", "--matrix", "5"), "", "matrix must be a list, not int"),
    (("gamma", "--p", "3", "--matrix", "[5]"), "", "a row of matrix must be a list, not int"),
    (("gamma", "--p", "3", "--matrix", '{"a": 1}'), "", "matrix must be a list, not dict"),
    (("cgl-factor", "--p", "3", "--l", "1", "--matrix", "-"), "[5]",
     "a row of matrix must be a list, not int"),
    (("cgl-factor", "--p", "3", "--l", "1", "--matrix", "-"), "null",
     "matrix must be a list, not NoneType"),
])
def test_tables_and_matrices_of_another_json_shape_exit_2(monkeypatch, capsys, argv, stdin,
                                                          message):
    """A table whose text does not start with a digit is read as JSON, and a
    matrix is read by one reader, so each wrong shape is named."""
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("reader,obj,message", [
    ("ctx", [1], "a field context must be a JSON object, not list"),
    ("ctx", {"k": 2}, "a field context needs the key 'p'"),
    ("ctx", {"p": 3, "k": 2, "modulus": 5}, "modulus must be a list, not int"),
    ("cwmap", {"p": 3, "d": 1, "t": 1}, "a coset-wise map needs the key 'cosets'"),
    ("cwmap", {"p": 3, "d": 1, "t": 1, "cosets": 5}, "cosets must be a list, not int"),
    ("cwmap", {"p": 3, "d": 1, "t": 1, "cosets": [[0]]},
     "an entry of cosets must be a JSON object, not list"),
    ("cwmap", {"p": 3, "d": 1, "t": 1, "cosets": [{"u": [0], "alpha": [[1]], "omega": [0]}]},
     "an entry of cosets needs the key 'nu'"),
    ("cwmap", {"p": 3, "d": 1, "t": 1, "cosets": [{"u": 0, "alpha": [[1]], "omega": [0],
                                                   "nu": [0]}]}, "u must be a list, not int"),
    ("cwmap", {"p": 3, "d": 1, "t": 1, "cosets": [{"u": [0], "alpha": [1], "omega": [0],
                                                   "nu": [0]}]},
     "a row of alpha must be a list, not int"),
    ("cwmap", {"p": 3, "d": 1, "t": 1, "cosets": [{"u": [0], "alpha": [[1]], "omega": 0,
                                                   "nu": [0]}]}, "omega must be a list, not int"),
])
def test_library_json_readers_name_the_bad_key(reader, obj, message):
    """ctx_from_json and cwmap_from_json read through the same checks as the
    CLI readers: a ValueError in their wording, never a KeyError, TypeError
    or AttributeError."""
    read = {"ctx": serialize.ctx_from_json, "cwmap": cwmap_from_json}[reader]
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        read(obj)


def test_json_readers_take_only_integers():
    from cosetmap import one_cycle_map
    from cosetmap.serialize import ctx_from_json, cwmap_to_json
    assert ctx_from_json({"p": 3, "k": 2, "modulus": [2, 2, 1]}) == field(3, 2, (2, 2, 1))
    for obj, message in [({"p": 3.0}, "p must be"), ({"p": 3, "k": 2.0}, "k must be"),
                         ({"p": 3, "k": 2, "modulus": [2, 2, 1.0]}, "a modulus coefficient")]:
        with pytest.raises(ValueError, match=message):
            ctx_from_json(obj)
    good = cwmap_to_json(one_cycle_map(3, 2))
    assert cwmap_from_json(good) == one_cycle_map(3, 2)
    for key in ("p", "d", "t"):
        with pytest.raises(ValueError, match=f"^{key} must be an integer, not 1.0$"):
            cwmap_from_json({**good, key: 1.0})
    label = {**good["cosets"][0], "u": [0.0]}
    with pytest.raises(ValueError, match="a coset label digit must be an integer"):
        cwmap_from_json({**good, "cosets": [label] + good["cosets"][1:]})


def test_verify_command(tmp_path, capsys):
    table = {"n": 3, "images": [1, 2, 0]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(table))
    code, out, _ = run_cli(capsys, "verify", "--table", str(path), "--p", "3",
                           "--dim", "1")
    assert code == 0
    assert "complete: True" in out
    assert "cycle type: x3" in out
    # malformed JSON
    path.write_text("{broken")
    code, _, err = run_cli(capsys, "verify", "--table", str(path), "--p", "3",
                           "--dim", "1")
    assert code == 2


def test_output_seed_stability(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "--format", "json", "sylow-type", "--q",
                               "27", "--type", "x1^3 x3^2 x9^2", "--seed", "5")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_json_poly_round_trip():
    F27 = field(3, 3)
    from cosetmap import one_cycle_polynomial
    P = one_cycle_polynomial(F27)
    assert Poly(F27, poly_to_json(P)) == P


def test_json_field_encodings():
    from cosetmap.serialize import ctx_from_json, ctx_to_json, elem_to_json
    F27 = field(3, 3)
    assert ctx_to_json(F27) == {"p": 3, "k": 3, "modulus": [1, 2, 0, 1]}
    assert ctx_from_json(ctx_to_json(F27)) == F27
    # extension elements encode as their coordinate array
    assert elem_to_json(F27.gen() ** 6) == [1, 1, 1]
    # prime-field elements encode as bare residues
    F3 = field(3)
    assert elem_to_json(F3.elem(2)) == 2
    assert ctx_to_json(F3) == {"p": 3, "k": 1}


def test_cwmap_json_cosets_sorted():
    from cosetmap import one_cycle_map
    from cosetmap.serialize import cwmap_to_json
    payload = cwmap_to_json(one_cycle_map(3, 3))
    labels = [tuple(c["u"]) for c in payload["cosets"]]
    assert labels == sorted(labels)


def test_text_mode_builds_no_json(monkeypatch, capsys):
    """Text output of a coset-wise map never builds its JSON payload."""
    def refuse(f):
        raise AssertionError("text output built the JSON payload")

    monkeypatch.setattr(serialize, "cwmap_to_json", refuse)
    code, out, _ = run_cli(capsys, "one-cycle", "--p", "3", "--k", "2", "--verify")
    assert code == 0
    assert out.splitlines() == ["p=3 d=1 t=1", "cycle type: x9",
                                "oracle: bijection=True complete=True type=x9"]


def test_json_and_value_tables_build_no_field_elements(monkeypatch):
    """The JSON encoders and decoders, the polynomial value table, the
    one-cycle polynomial and its text work on codes: no FieldElement is
    constructed."""
    from cosetmap import gf
    from cosetmap import (MatrixQ, VectorQ, evaluate_poly_table, one_cycle_map,
                          one_cycle_polynomial)
    rng = random.Random(14)
    cases = []
    for ctx, f in ((field(7), one_cycle_map(7, 1)), (field(3, 2), one_cycle_map(3, 2)),
                   (field(3, 3), one_cycle_map(3, 3))):
        q = ctx.order
        codes = [rng.randrange(q) for _ in range(9)]
        cases.append((ctx, VectorQ.from_codes(ctx, codes[:4]),
                      MatrixQ.from_codes(ctx, [codes[:3], codes[3:6], codes[6:]]),
                      Poly.from_codes(ctx, codes[:5] + [1]), f))
    P25 = Poly.from_codes(field(5, 2), [rng.randrange(25) for _ in range(8)])
    built = []
    init = gf.FieldElement.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(gf.FieldElement, "__init__", counting_init)
    for ctx, v, M, P, f in cases:
        assert VectorQ(ctx, serialize.vector_to_json(v)) == v
        assert MatrixQ(ctx, serialize.matrix_to_json(M)) == M
        assert Poly(ctx, serialize.poly_to_json(P)) == P
        assert cwmap_from_json(json.loads(json.dumps(serialize.cwmap_to_json(f)))) == f
    assert evaluate_poly_table(P25).n == 25
    for ctx in (field(3, 3), field(5, 2), field(3, 2, (1, 0, 1))):
        assert format_poly(one_cycle_polynomial(ctx))
    assert format_poly(P25)
    assert not built


def test_json_codecs_match_the_per_element_reference():
    """Encoding reads codes through one decoder and decoding builds codes
    directly; both give what one FieldElement per entry gave, byte for byte."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from cosetmap import MatrixQ, Splitting, VectorQ

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.sampled_from([(2, 1), (5, 1), (2, 2), (3, 2), (3, 3)]), st.data())
    def check(pk, data):
        ctx = field(*pk)
        q, k = ctx.order, ctx.k
        codes = st.integers(0, q - 1)
        n = data.draw(st.integers(1, 3))
        values = [
            VectorQ.from_codes(ctx, data.draw(st.lists(codes, max_size=4))),
            MatrixQ.from_codes(ctx, data.draw(st.lists(
                st.lists(codes, min_size=n, max_size=n), min_size=1, max_size=3))),
            Poly.from_codes(ctx, data.draw(st.lists(codes, max_size=5))),
        ]
        encoders = (serialize.vector_to_json, serialize.matrix_to_json, serialize.poly_to_json)
        for value, encode in zip(values, encoders):
            got, want = encode(value), reference_to_json(value)
            assert got == want and json.dumps(got) == json.dumps(want)
        # any integer is a residue: negative and out-of-range ones too
        entry = st.integers(-20, 20) if k == 1 else st.lists(
            st.integers(-20, 20), min_size=k, max_size=k)
        vec = data.draw(st.lists(entry, max_size=4))
        rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1,
                                  max_size=3))
        for kind, obj in ((VectorQ, vec), (MatrixQ, rows), (Poly, vec)):
            assert kind(ctx, obj) == reference_from_json(kind, ctx, obj)
        for e in vec:
            assert ctx.elem(e) == reference_elem_from_json(ctx, e)
        if k == 1:
            d, t = data.draw(st.integers(1, 2)), data.draw(st.integers(0, 2))
            s = Splitting(ctx.p, d, t)
            per = [(MatrixQ.from_codes(ctx, data.draw(st.lists(
                        st.lists(codes, min_size=d, max_size=d), min_size=d, max_size=d))),
                    VectorQ.from_codes(ctx, data.draw(st.lists(codes, min_size=d, max_size=d))),
                    VectorQ.from_codes(ctx, data.draw(st.lists(codes, min_size=t, max_size=t))))
                   for _ in s.coset_labels()]
            f = cw_map(s, per)
            got, want = serialize.cwmap_to_json(f), reference_to_json(f)
            assert got == want and json.dumps(got) == json.dumps(want)
            assert cwmap_from_json(got) == f

    check()


def test_field_value_refusals_keep_their_messages():
    F9, F27 = field(3, 2), field(3, 3)
    for bad in ([1, 2, 0], [1], []):
        for decode in (F9.code, F9.elem, lambda obj: VectorQ(F9, [obj])):
            with pytest.raises(ValueError, match=r"^expected 2 coordinates$"):
                decode(bad)
    for decode in (F9.code, F9.elem, lambda x: VectorQ(F9, [x]), lambda x: Poly(F9, [x])):
        with pytest.raises(ValueError, match=r"^mismatched field contexts$"):
            decode(F27.gen())
    assert F9.elem([-1, 7]) == F9.elem((2, 1))
    assert field(5).elem(-3) == field(5).elem(2)
