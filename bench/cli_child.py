"""`python3 bench/cli_child.py <cosetmap arguments>`: `python3 -m cosetmap.cli`
with the host-speed probe running.

Stdout and the exit code are those of the CLI.  On exit the probe samples go
to the JSON file named by BENCH_CHILD_OUT.  With BENCH_TRACE=1 the tracing
wrappers are installed after the import, and the per-function report, the
cache gauges and the import time go to the same file, with the spans beside
it (.txt.gz).  `--import-only` imports cosetmap.cli and exits.
"""

import atexit
import json
import os
import sys
import time

from speed import SpeedProbe

probe = SpeedProbe().__enter__()
out = os.environ["BENCH_CHILD_OUT"]
report = {}


@atexit.register
def _dump():
    probe.__exit__(None, None, None)
    report["speed"] = probe.samples
    if rec is not None:
        report.update(layers=rec.report(), gauges=tracing.gauges())
        rec.write_spans(out[:-len(".json")] + ".txt.gz")
    with open(out, "w") as fh:
        json.dump(report, fh)


rec = None
t0 = time.perf_counter()
import cosetmap.cli  # noqa: E402

report["import_s"] = time.perf_counter() - t0
if os.environ.get("BENCH_TRACE") == "1":
    import tracing
    rec = tracing.install()
if sys.argv[1:] != ["--import-only"]:
    sys.exit(cosetmap.cli.main())
