"""One in-process workload run in a fresh interpreter.

Usage (from the repository root, with src/ on PYTHONPATH):
    python3 bench/worker.py --workload cycletype --seed 0 --decks 4 [--setup-only]
        [--trace --spans PATH]

Set-up is the import of the package plus a warm-up that fills the module
caches for every field and size the workload uses.  The timed phase then runs
exactly --decks decks, so a seed always gives the same operations.  Each
operation is timed from building its cosetmap objects to its last check; the
answers go back to the parent as one JSON line for checking there.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import inputs
from speed import SpeedProbe


def _warm_cycletype():
    from cosetmap.gf import enumerate_irreducibles, field
    top: dict = {}
    for p, k, n in inputs.CYCLETYPE_SIZES:
        top[(p, k)] = max(top.get((p, k), 0), n)
    for (p, k), n in top.items():
        ctx = field(p, k)
        enumerate_irreducibles(ctx, max(1, n // 2))
        if k > 1:
            ctx.dlog(ctx.one())
    return None


def _warm_construct():
    """Fills the gamma sets (and with them the irreducibles they enumerate)
    and returns the sorted target pools; gamma_dpl(d, p, ell) is the same
    set for every ell >= 2."""
    from cosetmap.affine_ct import gamma_dpl, sorted_types
    from cosetmap.gf import field
    pools = {}
    for p, d, _ in inputs.CONSTRUCT_MAIN_SIZES:
        for ell in (1, 2):
            pools[(p, d, ell)] = sorted_types(gamma_dpl(d, p, ell))
    for p, k in inputs.POLY_SIZES:
        ctx = field(p, k)
        ctx.dlog(ctx.one())
    return pools


def _verify_cw(f, expect_complete: bool) -> dict:
    """The checks `cosetmap ... --verify` makes."""
    from cosetmap import cwaffine, oracle
    s = f.splitting
    ctype = cwaffine.cw_cycle_type(f)
    report = oracle.analyze(cwaffine.cw_to_table(f), s.p, s.n)
    if report.cycle_type != ctype or not report.is_bijection:
        raise ArithmeticError("oracle verification failed")
    if expect_complete and not report.is_complete:
        raise ArithmeticError("oracle verification failed: map is not complete")
    return {"ct": ctype.cycles, "complete": report.is_complete}


def _resolve_targets(op, pools):
    from cosetmap.cycletype import CycleType
    gammas = {}
    for ell, idx, sel in op["targets"]:
        if sel < 0:
            gammas[(ell, idx)] = CycleType(inputs.infeasible_type(op["p"], op["d"]))
        else:
            pool = pools[(op["p"], op["d"], min(ell, 2))]
            gammas[(ell, idx)] = pool[sel % len(pool)]
    return gammas


def _run_cycletype(op, _):
    from cosetmap import affine_ct, gf, linalg
    ctx = gf.field(op["p"], op["k"])
    M = linalg.MatrixQ(ctx, [[ctx.from_index(a) for a in row] for row in op["M"]])
    if op["kind"] == "gamma":
        return sorted(t.cycles for t in affine_ct.gamma_of_matrix(M))
    v = linalg.VectorQ(ctx, [ctx.from_index(a) for a in op["v"]])
    return affine_ct.affine_cycle_type(linalg.AffineMap(M, v)).cycles


def _run_construct(op, gammas):
    from cosetmap import cwaffine, gf, oracle
    from cosetmap.cycletype import CycleType
    kind = op["kind"]
    if kind == "main":
        f = cwaffine.construct_main(op["p"], op["d"], op["t"], op["g"], gammas, seed=op["seed"])
        return _verify_cw(f, True)
    if kind == "sylow":
        f = cwaffine.construct_sylow_type(op["q"], CycleType(op["target"]), seed=op["seed"])
        return _verify_cw(f, True)
    if kind == "onecycle":
        return _verify_cw(cwaffine.one_cycle_map(op["p"], op["k"]), op["p"] > 2)
    ctx = gf.field(op["p"], op["k"])
    P = cwaffine.one_cycle_polynomial(ctx)
    table = oracle.evaluate_poly_table(P)
    report = oracle.analyze(table, ctx.p, ctx.k)
    back = oracle.interpolate(ctx, [ctx.from_index(i) for i in table.images])
    return {"ct": report.cycle_type.cycles if report.cycle_type else None,
            "complete": report.is_complete, "roundtrip": back == P}


def _timed_phase(args, run, pools, probe):
    """Exactly --decks decks; the probe gets one segment per deck."""
    from cosetmap.errors import InfeasibleError
    results = []
    for deck in range(args.decks):
        for op in inputs.DECKS[args.workload](args.seed, deck):
            targets = _resolve_targets(op, pools) if op.get("kind") == "main" else None
            res = {}
            t = time.perf_counter()
            try:
                ans = run(op, targets)
                status = "ok"
            except InfeasibleError as exc:
                ans, status, res["err"] = None, "refused", str(exc)
            except Exception as exc:  # every failure is recorded and counted
                ans, status, res["err"] = None, "error", f"{type(exc).__name__}: {exc}"
            res["lat"] = time.perf_counter() - t
            res["status"] = status
            res["ans"] = ans
            if targets is not None:
                res["targets"] = [[ell, idx, ct.cycles] for (ell, idx), ct in targets.items()]
            results.append(res)
        probe.mark()
    return results, args.decks


WORKLOADS = {
    "cycletype": (_warm_cycletype, _run_cycletype),
    "construct": (_warm_construct, _run_construct),
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--decks", type=int, default=1, help="run exactly this many decks")
    ap.add_argument("--spans", help="write the trace spans here (gzip text)")
    args = ap.parse_args()
    warm, run = WORKLOADS[args.workload]

    with SpeedProbe() as setup_probe:
        t0 = time.perf_counter()
        import cosetmap.cli  # noqa: F401  (the whole package)
        import_s = time.perf_counter() - t0
        rec = None
        if args.trace:
            import tracing
            rec = tracing.install()
        pools = warm()
        setup_s = time.perf_counter() - t0
    setup = {"setup_s": setup_s, "setup_speed": setup_probe.factor(), "import_s": import_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    with SpeedProbe() as probe:
        results, decks = _timed_phase(args, run, pools, probe)
    out = dict(setup, decks=decks, results=results,
               deck_speed=[probe.factor(i) for i in range(decks)],
               rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if rec is not None:
        import tracing
        out["layers"] = rec.report()
        out["gauges"] = tracing.gauges()
        if args.spans:
            rec.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
