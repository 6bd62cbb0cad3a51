"""cosetmap benchmark.

    python3 bench/run.py --workload {cycletype,construct,cli_cold} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  The last
line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Lines before it start with '#' and give the input fingerprint,
sample counts and the cause of every failure.

Workloads (see README.md for why each was chosen):
  cycletype  affine_cycle_type / gamma_of_matrix on warm caches, in process
  construct  constructors + cw_to_table + analyze (+ interpolate) on warm caches
  cli_cold   one fresh CLI process per request (bench/cli_child.py)

Each in-process run uses fresh interpreters (bench/worker.py), so one
workload's module caches never warm another's.  Every workload is a closed
loop with one caller; cli_cold runs one child process at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import inputs
import tracing
from speed import factor

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden_seed0.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 3        # set-ups per in-process run; setup_s is their median
CLI_SETUP_REPEATS = 9    # import-only processes per cli_cold run
CLI_TIMEOUT = 60.0       # per request
# A run executes a fixed number of decks, so a seed gives the same operations
# (and the same attempted and failed counts) on any host: --seconds over the
# time one deck takes on the 2-vCPU host this was written on, but at least
# enough decks for 100 operations, so that ten samples lie beyond the p90.
DECK_S = {"cycletype": 3.75, "construct": 5.0, "cli_cold": 45.0}
MIN_DECKS = {"cycletype": 2, "construct": 3, "cli_cold": 1}
RUN_BUDGET = 170.0       # a run never outlives this many seconds
SUBCOMMANDS = ("gamma", "gamma-dpl", "cycle-type", "cgl-factor", "construct", "sylow-type",
               "one-cycle", "one-cycle-poly", "verify")
CHECKS = {"cycletype": checks.check_cycletype, "construct": checks.check_construct}


def _env(**extra: str) -> dict:
    env = dict(os.environ)
    env.pop("COSETMAP_SEED", None)  # the CLI's default --seed must stay 0
    env["PYTHONPATH"] = str(ROOT / "src")
    # every process compiles the package from source, whatever the caller's
    # setting, so cold costs compare across machines and checkouts
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(extra)
    return env


def deck_count(workload: str, seconds: float) -> int:
    return max(MIN_DECKS[workload], round(seconds / DECK_S[workload]))


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("run budget exhausted")
        return left


# ---------------------------------------------------------------------------
# results and metrics
# ---------------------------------------------------------------------------

class Tally:
    """Attempted, failed and wrong operations with their causes; latencies
    are kept raw and scaled to the nominal host speed."""

    def __init__(self):
        self.lat: list[float] = []
        self.raw: list[float] = []
        self.causes: Counter = Counter()
        self.failed = 0
        self.wrong = 0

    def add(self, lat: float, cause: str | None, speed: float):
        self.raw.append(lat)
        self.lat.append(lat * speed)
        if cause is not None:
            self.failed += 1
            self.wrong += cause.startswith("wrong")
            self.causes[cause] += 1

    def report(self, label: str):
        print(f"# {label}: {len(self.lat)} ops, {self.failed} failed, {self.wrong} wrong")
        for cause, n in self.causes.most_common():
            print(f"#   {n} x {cause}")


def _timings(lat: list[float], setups: list[float]) -> dict:
    lat_ms = [x * 1000 for x in lat]
    p90 = statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) >= 2 else lat_ms[0]
    return {"setup_s": statistics.median(setups), "ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": statistics.median(lat_ms), "latency_p90_ms": p90}


def end_to_end(tally: Tally, setups: list[tuple[float, float]], rss_mb: float) -> dict:
    """`setups` holds (raw seconds, host-speed factor) pairs."""
    n = len(tally.lat)
    raw = _timings(tally.raw, [s for s, _ in setups])
    print(f"# latency samples {n} (p90 has {n - int(0.9 * n)} beyond it); raw wall clock: "
          + ", ".join(f"{k} {v:.4g}" for k, v in raw.items())
          + f"; setup samples {[round(s, 4) for s, _ in setups]}")
    units = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms"}
    timed = _timings(tally.lat, [s * f for s, f in setups])
    metrics = {k: {"value": v, "unit": units[k]} for k, v in timed.items()}
    metrics["ok_ratio"] = {"value": (n - tally.failed) / n, "unit": "ratio"}
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    return metrics


def per_layer(layers: dict, gauges: dict, import_s: float, sub_wall: dict,
              ops_untraced: float, ops_traced: float) -> dict:
    m = {}
    for name in tracing.span_names():
        rec = layers.get(name, {"calls": 0, "self_s": 0.0})
        m[f"{name}.calls"] = {"value": rec["calls"], "unit": "count"}
        m[f"{name}.self_s"] = {"value": rec["self_s"], "unit": "s"}
    for name in tracing.COUNTS:
        m[f"{name}.calls"] = {"value": layers.get(name, {"calls": 0})["calls"], "unit": "count"}
    for name, value in gauges.items():
        m[name] = {"value": value, "unit": "count"}
    m["cli.import_s"] = {"value": import_s, "unit": "s"}
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.wall_s"] = {"value": sub_wall.get(sub, 0.0), "unit": "s"}
    m["trace.ops_per_s_untraced"] = {"value": ops_untraced, "unit": "1/s"}
    m["trace.ops_per_s_traced"] = {"value": ops_traced, "unit": "1/s"}
    m["trace.traced_over_untraced"] = {"value": ops_traced / ops_untraced, "unit": "ratio"}
    return m


def merge_layers(total: dict, part: dict):
    for name, rec in part.items():
        acc = total.setdefault(name, {k: 0 for k in rec})
        for k, v in rec.items():
            acc[k] += v


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def _worker(deadline: Deadline, workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(), cwd=ROOT,
                          timeout=deadline.left())
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _judge(workload: str, seed: int, run: dict) -> Tally:
    tally = Tally()
    ops = [(op, run["deck_speed"][i]) for i in range(run["decks"])
           for op in inputs.DECKS[workload](seed, i)]
    for (op, speed), res in zip(ops, run["results"], strict=True):
        tally.add(res["lat"], CHECKS[workload](op, res), speed)
    print(f"# host speed per deck {[round(s, 3) for s in run['deck_speed']]}")
    return tally


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool, deadline: Deadline):
    decks = str(deck_count(workload, seconds))
    if not trace:
        setups = [_worker(deadline, workload, seed, "--setup-only")
                  for _ in range(SETUP_REPEATS - 1)]
        run = _worker(deadline, workload, seed, "--decks", decks)
        setups = [(s["setup_s"], s["setup_speed"]) for s in setups + [run]]
        tally = _judge(workload, seed, run)
        tally.report(f"{workload} seed {seed}, {run['decks']} decks")
        return tally, end_to_end(tally, setups, run["rss_mb"])

    run = _worker(deadline, workload, seed, "--decks", decks)
    spans = OUT / f"spans-{workload}-{seed}.txt.gz"
    traced = _worker(deadline, workload, seed, "--trace", "--decks", decks, "--spans", str(spans))
    tally = _judge(workload, seed, run)
    tally.report(f"{workload} seed {seed}, {run['decks']} decks, untraced pass")
    same = [(r["status"], r["ans"]) for r in run["results"]] == \
           [(r["status"], r["ans"]) for r in traced["results"]]
    if not same:
        tally.wrong += 1
        print("# wrong: traced answers differ from untraced ones")
    ops_untraced = len(tally.lat) / sum(tally.lat)
    per_deck = len(traced["results"]) // traced["decks"]
    ops_traced = len(traced["results"]) / sum(r["lat"] * traced["deck_speed"][i // per_deck]
                                              for i, r in enumerate(traced["results"]))
    print(f"# spans written to {spans.relative_to(ROOT)}")
    return tally, per_layer(traced["layers"], traced["gauges"], traced["import_s"], {},
                            ops_untraced, ops_traced)


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def _cli_call(args: list[str], deadline: Deadline, child_out: Path, trace: bool = False):
    """One fresh CLI process through cli_child.py; returns (exit code or None
    on timeout, stdout, stderr, wall seconds, the child's report)."""
    child_out.unlink(missing_ok=True)
    env = _env(BENCH_CHILD_OUT=str(child_out), BENCH_TRACE="1" if trace else "0")
    t = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "cli_child.py"), *args],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=min(CLI_TIMEOUT, deadline.left()))
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, out, err = None, "", "timeout"
    wall = time.perf_counter() - t
    report = json.loads(child_out.read_text()) if child_out.is_file() else {"speed": []}
    return code, out, err, wall, report


def _request_args(req: dict) -> list[str]:
    """Writes the request's input files; their paths replace the @names."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    for name, text in req["files"].items():
        (tmp / name).write_text(text)
    return [str(tmp / a[1:]) if a.startswith("@") else a for a in req["args"]]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(seed: int, seconds: float, trace: bool, deadline: Deadline, record_golden: bool):
    """Each request's wall time is scaled by the host speed its own deck's
    processes measured."""
    child_out = OUT / "tmp" / "child.json"
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    setups, speed = [], []
    for _ in range(0 if trace else CLI_SETUP_REPEATS):
        code, _, err, wall, report = _cli_call(["--import-only"], deadline, child_out)
        if code != 0:
            raise RuntimeError(f"importing cosetmap.cli failed: {err[-2000:]}")
        setups.append(wall)
        speed += report["speed"]
    setups = [(s, factor(speed)) for s in setups]
    golden = {}
    if seed == DEFAULT_SEED and GOLDEN.is_file() and not record_golden:
        golden = json.loads(GOLDEN.read_text())
    tally = Tally()
    done = []  # (request, exit code, stdout, cause)
    sub_wall: Counter = Counter()
    deck_speed = []
    for i in range(deck_count("cli_cold", seconds)):
        deck, speed = [], []
        for req in inputs.cli_deck(seed, i):
            code, out, err, wall, report = _cli_call(_request_args(req), deadline, child_out)
            cause = "timeout" if code is None else checks.check_cli(req, code, out, err)
            if cause is None and req["id"] in golden and _sha(out) != golden[req["id"]]:
                cause = "wrong: stdout differs from the bytes recorded for seed 0"
            deck.append((wall, cause))
            speed += report["speed"]
            sub_wall[req["sub"]] += wall
            done.append((req, code, out, cause))
        deck_speed.append(factor(speed))
        for wall, cause in deck:
            tally.add(wall, cause, deck_speed[-1])
    print(f"# host speed per deck {[round(s, 3) for s in deck_speed]}")
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    tally.report(f"cli_cold seed {seed}, {len(deck_speed)} decks")
    if record_golden:
        keep = {req["id"]: _sha(out) for req, code, out, cause in done
                if cause is None and req["id"].startswith("0-")}
        GOLDEN.write_text(json.dumps(keep, indent=1, sort_keys=True) + "\n")
        print(f"# recorded {len(keep)} stdout hashes in {GOLDEN.relative_to(ROOT)}")
    if not trace:
        return tally, end_to_end(tally, setups, rss_mb)

    span_dir = OUT / f"spans-cli_cold-{seed}"
    shutil.rmtree(span_dir, ignore_errors=True)
    span_dir.mkdir(parents=True)
    layers: dict = {}
    gauges: Counter = Counter()
    imports, speed, traced_wall = [], [], 0.0
    for req, code, out, _ in done:
        tcode, tout, _, wall, rec = _cli_call(_request_args(req), deadline,
                                              span_dir / f"{req['id']}.json", trace=True)
        traced_wall += wall
        speed += rec["speed"]
        if (tcode, tout) != (code, out):
            tally.wrong += 1
            print(f"# wrong: traced request {req['id']} differs from the untraced one")
        if "layers" in rec:
            merge_layers(layers, rec["layers"])
            gauges.update(rec["gauges"])
            imports.append(rec["import_s"])
    print(f"# spans written under {span_dir.relative_to(ROOT)}")
    return tally, per_layer(layers, dict(gauges), statistics.median(imports), sub_wall,
                            len(tally.lat) / sum(tally.lat),
                            len(done) / (traced_wall * factor(speed)))


# ---------------------------------------------------------------------------
# self-check of the harness
# ---------------------------------------------------------------------------

def self_check(workload: str, seed: int) -> list[str]:
    """The checkers must reject a wrong cycle type and a wrong exit code,
    and the same seed must give the same input fingerprint twice."""
    problems = []
    # x -> (x0, 2*x1) on GF(3)^2 fixes the 3 points with x1 = 0 and swaps the rest in pairs
    op = {"kind": "act", "p": 3, "k": 1, "n": 2, "M": [[1, 0], [0, 2]], "v": [0, 0]}
    if checks.check_cycletype(op, {"status": "ok", "ans": [[1, 3], [2, 3]]}) is not None:
        problems.append("checker rejects a right cycle type")
    if not str(checks.check_cycletype(op, {"status": "ok", "ans": [[1, 1], [2, 4]]})).startswith("wrong"):
        problems.append("checker accepts a wrong cycle type")
    req = {"expect": 0, "check": {"kind": "cycle_type", "degree": 9, "ct": [[1, 3], [2, 3]]}}
    if checks.check_cli(req, 0, "x1^3 x2^3\n", "") is not None:
        problems.append("checker rejects a right CLI answer")
    if checks.check_cli(req, 2, "", "error: boom\n") is None:
        problems.append("checker accepts a wrong CLI exit code")
    if not str(checks.check_cli(dict(req, expect=1), 0, "x1^3 x2^3\n", "")).startswith("wrong"):
        problems.append("checker accepts exit 0 on a request that must be refused")
    if inputs.fingerprint(workload, seed) != inputs.fingerprint(workload, seed):
        problems.append("the same seed gave two input fingerprints")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("cycletype", "construct", "cli_cold"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="cli_cold, seed 0: store the stdout hashes of deck 0 as the reference")
    args = ap.parse_args()
    if not (ROOT / "src" / "cosetmap" / "__init__.py").is_file():
        print("error: run from the repository root; src/cosetmap is missing", file=sys.stderr)
        return 2
    deadline = Deadline(RUN_BUDGET)
    OUT.mkdir(exist_ok=True)

    problems = self_check(args.workload, args.seed)
    if problems:
        print("error: harness self-check failed: " + "; ".join(problems), file=sys.stderr)
        return 3
    print(f"# inputs {args.workload} seed {args.seed}: sha256:"
          f"{inputs.fingerprint(args.workload, args.seed)}")

    if args.workload == "cli_cold":
        tally, metrics = run_cli(args.seed, args.seconds, bool(args.trace), deadline,
                                 args.record_golden)
    else:
        tally, metrics = run_inprocess(args.workload, args.seed, args.seconds, bool(args.trace),
                                       deadline)
    print(json.dumps({"correct": tally.wrong == 0, "attempted": len(tally.lat),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
