"""Command-line front end: constructions and verifications with JSON or text
output.

Exit codes: 0 success, 1 infeasible request (including empty gamma sets),
2 malformed input: an argument the parser refuses, or a ValueError or OSError
raised while reading or answering the request (including a singular matrix
where an invertible one is needed),
3 internal error: any other exception (a failed self-check, a recursion limit
hit), a bug in cosetmap rather than a statement about the request.
"""

from __future__ import annotations

import argparse
import json
import sys

# every subcommand uses these; each handler imports the other modules it calls
from .cycletype import CycleType, ct_format, ct_parse
from .errors import InfeasibleError
from .gf import field
from .kernel import check_size, exact_int, json_fields, json_list, read_json


def _field_from_args(args):
    """GF(p^k) of --p, --k and --modulus.  For k >= 2 every command needs its
    tables, so a field above MAX_DOMAIN elements is refused once p is known to
    be prime, before the default-modulus search or any other work."""
    base = field(args.p)
    if args.k >= 2:
        check_size(f"GF({args.p}^{args.k}) has {args.p}^{args.k} elements", args.p, args.k)
    modulus = None
    if getattr(args, "modulus", None):
        from . import serialize
        modulus = serialize.parse_poly(args.modulus, base).codes
    return field(args.p, args.k, modulus)


def _emit(args, payload: dict, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        for line in text_lines:
            print(line)


def _emit_types(args, types) -> int:
    """Print a sorted gamma set, its JSON built only under --format json;
    exit 1 when it is empty."""
    payload = {"gamma": [t.to_json() for t in types]} if args.format == "json" else {}
    _emit(args, payload, map(ct_format, types))
    if not types:
        print("gamma set is empty", file=sys.stderr)
        return 1
    return 0


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _cmd_cycle_type(args) -> int:
    from . import affine_ct, serialize
    ctx = _field_from_args(args)
    f = serialize.affine_from_json(ctx, read_json(_read_input(args.map), "--map"))
    ctype = affine_ct.affine_cycle_type(f)
    _emit(args, {"cycle_type": ctype.to_json(), "text": ct_format(ctype)}, [ct_format(ctype)])
    return 0


def _cmd_gamma(args) -> int:
    from . import affine_ct, serialize
    ctx = _field_from_args(args)
    if args.poly is not None:
        gs = affine_ct.gamma_of_poly(serialize.parse_poly(args.poly, ctx))
    else:
        M = serialize.json_matrix(ctx, read_json(args.matrix, "--matrix"))
        gs = affine_ct.gamma_of_matrix(M)
    return _emit_types(args, affine_ct.sorted_types(gs))


def _cmd_gamma_dpl(args) -> int:
    from . import affine_ct
    return _emit_types(args, affine_ct.sorted_types(affine_ct.gamma_dpl(args.d, args.p, args.l)))


def _cmd_cgl_factor(args) -> int:
    from . import cgl, serialize
    check_size(f"--l asks for {args.l} factors", args.l)
    ctx = _field_from_args(args)
    M = serialize.json_matrix(ctx, read_json(_read_input(args.matrix), "--matrix"))
    fac = cgl.factor_into_cgl(M, args.l, seed=args.seed)
    payload = {
        "factors": [serialize.matrix_to_json(F) for F in fac.factors],
        "product": serialize.matrix_to_json(fac.product),
    }
    lines = [json.dumps(serialize.matrix_to_json(F)) for F in fac.factors]
    _emit(args, payload, lines)
    return 0


def _check_verify_size(args, p: int, n: int) -> None:
    """Refuse --verify before any work when its table of p^n points is too large."""
    if args.verify:
        check_size(f"--verify tabulates {f'{p}^{n}' if n > 1 else p} points", p, n)


def _verify(table, p: int, n: int, ctype, expect_complete: bool, payload: dict, lines) -> None:
    """Oracle check of a map table of GF(p)^n: adds the report to the payload
    and an `oracle:` line, then fails unless the table is a bijection of
    cycle type ctype, and complete when expect_complete."""
    from . import oracle
    report = oracle.analyze(table, p, n)
    payload["verified"] = report.to_json()
    shown = ct_format(report.cycle_type) if report.cycle_type else "n/a"
    lines.append(f"oracle: bijection={report.is_bijection} "
                 f"complete={report.is_complete} type={shown}")
    if report.cycle_type != ctype or not report.is_bijection:
        raise ArithmeticError("oracle verification failed")
    if expect_complete and not report.is_complete:
        raise ArithmeticError("oracle verification failed: map is not complete")


def _emit_cwmap(args, f, verify_expected_complete=True) -> int:
    from . import cwaffine, serialize
    s = f.splitting
    ctype = cwaffine.cw_cycle_type(f)
    payload = serialize.cwmap_to_json(f) if args.format == "json" else {}
    payload["cycle_type"] = ctype.to_json()
    lines = [f"p={s.p} d={s.d} t={s.t}", f"cycle type: {ct_format(ctype)}"]
    if args.verify:
        _verify(cwaffine.cw_to_table(f), s.p, s.n, ctype, verify_expected_complete, payload, lines)
    _emit(args, payload, lines)
    return 0


def _cmd_construct(args) -> int:
    from . import cwaffine
    job = read_json(_read_input(args.job), "--job")
    p, d, t, items, g = json_fields(job, "a construct job", ("p", "d", "t", "gammas", "g"))
    p, d, t = exact_int(p, "p"), exact_int(d, "d"), exact_int(t, "t")
    _check_verify_size(args, p, d + t)
    gammas = {}
    for item in json_list(items, "gammas"):
        length, index, text = json_fields(item, "an entry of gammas", ("length", "index", "type"))
        key = exact_int(length, "length"), exact_int(index, "index")
        if key in gammas:
            raise ValueError(f"gammas names the cycle of length {key[0]} and index {key[1]} twice")
        gammas[key] = ct_parse(text)
    complete = job.get("require_complete", True)
    if type(complete) is not bool:
        raise ValueError(f"require_complete must be true or false, not {complete!r}")
    f = cwaffine.construct_main(
        p, d, t, [exact_int(v, "an entry of g") for v in json_list(g, "g")],
        gammas, seed=exact_int(job.get("seed", args.seed), "seed"),
        require_complete=complete,
    )
    return _emit_cwmap(args, f, verify_expected_complete=complete)


def _cmd_sylow_type(args) -> int:
    from . import cwaffine
    _check_verify_size(args, args.q, 1)
    target = ct_parse(args.type)
    f = cwaffine.construct_sylow_type(args.q, target, seed=args.seed)
    return _emit_cwmap(args, f)


def _cmd_one_cycle(args) -> int:
    from . import cwaffine
    _check_verify_size(args, args.p, args.k)
    f = cwaffine.one_cycle_map(args.p, args.k)
    return _emit_cwmap(args, f, verify_expected_complete=args.p > 2)


def _cmd_one_cycle_poly(args) -> int:
    from . import cwaffine, oracle, serialize
    _check_verify_size(args, args.p, args.k)
    ctx = _field_from_args(args)
    P = cwaffine.one_cycle_polynomial(ctx)
    text = serialize.format_poly(P)
    payload = {"field": serialize.ctx_to_json(ctx), "polynomial": serialize.poly_to_json(P),
               "text": text} if args.format == "json" else {}
    lines = [text]
    if args.verify:
        _verify(oracle.evaluate_poly_table(P), ctx.p, ctx.k, CycleType({ctx.order: 1}), ctx.p > 2,
                payload, lines)
    _emit(args, payload, lines)
    return 0


def _cmd_verify(args) -> int:
    from . import oracle
    table = oracle.load_table(_read_input(args.table))
    report = oracle.analyze(table, args.p, args.dim)
    lines = [
        f"bijection: {report.is_bijection}",
        f"complete: {report.is_complete}",
        f"orthomorphism: {report.is_orthomorphism}",
        f"cycle type: {ct_format(report.cycle_type) if report.cycle_type else 'n/a'}",
        f"fixed points: {len(report.fixed_points)}",
    ]
    _emit(args, report.to_json(), lines)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors, its subcommands' too, are ValueErrors:
    one `error:` line and exit 2, as for every other malformed request."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cosetmap",
        description="Cycle types of affine permutations and coset-wise affine "
                    "complete mappings of finite fields (exact arithmetic).",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_opts(p):
        p.add_argument("--p", type=int, required=True, help="field characteristic")
        p.add_argument("--k", type=int, default=1, help="extension degree")
        p.add_argument("--modulus", help="modulus polynomial text, e.g. 'X^3-X+1'")

    p = sub.add_parser("cycle-type", help="cycle type of an affine map from JSON")
    add_field_opts(p)
    p.add_argument("--map", required=True, help="path or - for JSON {matrix, shift}")
    p.set_defaults(fn=_cmd_cycle_type)

    p = sub.add_parser("gamma", help="all cycle types over shifts of a fixed matrix")
    add_field_opts(p)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--poly", help="use the companion matrix of this polynomial")
    which.add_argument("--matrix", help="inline JSON matrix")
    p.set_defaults(fn=_cmd_gamma)

    p = sub.add_parser("gamma-dpl", help="types realizable with l complete factors")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(fn=_cmd_gamma_dpl)

    p = sub.add_parser("cgl-factor", help="factor a matrix into complete factors")
    add_field_opts(p)
    p.add_argument("--l", type=int, required=True, help="number of factors")
    p.add_argument("--matrix", required=True, help="path or - for JSON matrix")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_cgl_factor)

    p = sub.add_parser("construct", help="run the coset-wise constructor from a job file")
    p.add_argument("--job", required=True, help="path or - for the JSON job")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("sylow-type", help="complete mapping with a p-power cycle type")
    p.add_argument("--q", type=int, required=True, help="odd prime power")
    p.add_argument("--type", required=True, help="target cycle type, e.g. 'x1^3 x3^2'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=_cmd_sylow_type)

    p = sub.add_parser("one-cycle", help="single-cycle map of GF(p)^k")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=_cmd_one_cycle)

    p = sub.add_parser("one-cycle-poly", help="single-cycle map of GF(p^k) as a polynomial")
    add_field_opts(p)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=_cmd_one_cycle_poly)

    p = sub.add_parser("verify", help="oracle analysis of a map table")
    p.add_argument("--table", required=True, help="path or - for JSON/CSV table")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--dim", type=int, required=True, help="dimension over GF(p)")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
