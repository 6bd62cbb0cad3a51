"""Alternating pairs of benchmark runs on two commits.

    python3 tools/pairs.py --base REV [--head REV] --pairs N --seed S \
        --workloads cycletype construct cli_cold --seconds X --out BENCH_<pr>.json

Run from anywhere inside the repository.  Each commit is exported with `git
archive` into its own temporary directory, so uncommitted changes take no part,
and the unchanged `bench/run.py` of each tree runs there.  Pair i runs every
workload once on each tree, the base first for even i and the head first for
odd i, so a cost that falls on the first run of a session (a cold file cache,
say) lands on both sides equally.

The output holds, per seed, workload and end-to-end metric of
BENCHMARK.json: the raw values of both sides, their medians, the distance
between the base's quartiles (its IQR), the pairs the head won (ties count for
neither side), whether the head's median is within the metric's bound of the
base's, and a verdict:
  unchanged     every run of both sides read the same value;
  unresolved    the medians differ by no more than the base IQR, or the base
                IQR is wider than the bound and not every head run beats every
                base run;
  regression    the head is worse than the bound allows;
  gain          the head is better and won at least nine pairs in ten, of
                ten pairs or more;
  within bound  none of these.
Each tree's bytecode state is recorded too: the number of .pyc files under it
before the first and after the last run (the runs write none, and `bench/run.py`
makes every child compile the package from source).  An existing output file
for the same two commits keeps its other seeds, so seeds can be run one
invocation at a time.  The exit status is 1 if any run was not `correct` or had
failed operations, and 2 if a run did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def commit_of(rev: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True, check=True).stdout.strip()


def export(commit: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(REPO), "archive", "--format=tar", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise RuntimeError(f"git archive {commit} exited {archive.returncode}")


def pyc_count(tree: Path) -> int:
    return sum(1 for _ in tree.rglob("*.pyc"))


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one `bench/run.py` run in `tree`."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"bench/run.py {workload} seed {seed} in {tree} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartile_distance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def judge(spec: dict, base: list[float], head: list[float]) -> dict:
    """Medians, base IQR, pairs won and the verdict of one metric; the bound
    is relative to the base median."""
    lower = spec["better"] == "lower"
    mb, mh = statistics.median(base), statistics.median(head)
    iqr = quartile_distance(base)
    allowed = spec["bound"] * abs(mb)
    worse = (mh - mb) if lower else (mb - mh)
    won = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
    all_better = all((h < b) if lower else (h > b) for b in base for h in head)
    if len(set(base) | set(head)) == 1:
        verdict = "unchanged"
    elif abs(mh - mb) <= iqr or (iqr > allowed and not all_better):
        verdict = "unresolved"
    elif worse > allowed:
        verdict = "regression"
    elif worse < 0 and len(base) >= 10 and won >= 0.9 * len(base):
        verdict = "gain"
    else:
        verdict = "within bound"
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "base": base, "head": head, "base_median": mb, "head_median": mh,
            "base_iqr": iqr, "change": (mh - mb) / mb if mb else None,
            "pairs_won": won, "pairs": len(base), "within_bound": worse <= allowed,
            "verdict": verdict}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="the parent commit")
    ap.add_argument("--head", default="HEAD", help="the changed commit")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workloads", nargs="+", required=True,
                    choices=("cycletype", "construct", "cli_cold"))
    ap.add_argument("--seconds", type=float, required=True, help="bench/run.py --seconds")
    ap.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    commits = {"base": commit_of(args.base), "head": commit_of(args.head)}
    specs = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {w: [] for w in args.workloads}
    bad = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(commits[side], trees[side])
        bytecode = {side: {"pyc_before": pyc_count(trees[side])} for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for w in args.workloads:
                pair = {"pair": i, "first": order[0]}
                for side in order:
                    try:
                        pair[side] = res = bench_run(trees[side], w, args.seed, args.seconds)
                    except (RuntimeError, ValueError, KeyError) as err:
                        print(f"error: {err}", file=sys.stderr)
                        return 2
                    if not res["correct"] or res["failed"]:
                        bad.append(f"{side} {w} pair {i}")
                    print(f"# pair {i} {w} {side}: " + ", ".join(
                        f"{k} {v:.4g}" for k, v in res["metrics"].items()), flush=True)
                runs[w].append(pair)
        for side in SIDES:
            bytecode[side]["pyc_after"] = pyc_count(trees[side])

    section = {"pairs": args.pairs, "seconds": args.seconds, "bytecode": bytecode,
               "workloads": {w: {"runs": pairs, "metrics": {
                   s["name"]: judge(s, [p["base"]["metrics"][s["name"]] for p in pairs],
                                    [p["head"]["metrics"][s["name"]] for p in pairs])
                   for s in specs}} for w, pairs in runs.items()}}
    out = {"base": {"rev": args.base, "commit": commits["base"]},
           "head": {"rev": args.head, "commit": commits["head"]}, "seeds": {}}
    if args.out.is_file():
        old = json.loads(args.out.read_text())
        if (old["base"]["commit"], old["head"]["commit"]) == (commits["base"], commits["head"]):
            out["seeds"] = old["seeds"]
    out["seeds"][str(args.seed)] = section
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for w, entry in section["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{w} seed {args.seed} {name}: base {m['base_median']:.4g}, head "
                  f"{m['head_median']:.4g}, IQR {m['base_iqr']:.3g}, won {m['pairs_won']}/"
                  f"{m['pairs']}: {m['verdict']}")
    if bad:
        print("error: not correct or with failures: " + "; ".join(bad), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
