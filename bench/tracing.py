"""Per-layer tracing from outside the package.

`install()` rebinds the listed cosetmap functions, in every cosetmap module
that holds a reference to them, to wrappers that record one span (name,
start, end, parent) per call, and wraps a few hot methods with bare call
counters.  Spans stay in memory; `report()` turns them into per-function
call counts and self times (duration minus the time covered by child spans)
and `write_spans()` writes them out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import time
from array import array

MODULES = ("gf", "linalg", "cycletype", "affine_ct", "cgl", "cwaffine", "oracle",
           "serialize", "cli")

# layer -> functions given a span; "Class.method" entries patch the class
SPANS = {
    "gf": ("field", "enumerate_irreducibles", "is_irreducible", "factor_monic", "poly_order"),
    "linalg": ("charpoly", "prcf", "MatrixQ.inverse", "MatrixQ.rank", "MatrixQ.left_kernel"),
    "cycletype": ("weixu_all", "ct_of_permutation"),
    "affine_ct": ("affine_cycle_type", "gamma_of_matrix", "gamma_dpl", "block_cycle_type"),
    "cgl": ("realize_gamma", "factor_into_cgl", "is_cgl"),
    "cwaffine": ("construct_main", "construct_sylow_type", "cw_cycle_type", "cw_to_table",
                 "one_cycle_polynomial"),
    "oracle": ("analyze", "interpolate", "evaluate_poly_table"),
}

# counter name -> (module, class, method names); counts only, no spans
COUNTS = {
    "gf.elem_mul": ("gf", "FieldElement", ("__mul__", "__rmul__")),
    "gf.elem_inverse": ("gf", "FieldElement", ("inverse",)),
    "gf.poly_divmod": ("gf", "Poly", ("__divmod__",)),
    "linalg.vec_mat": ("linalg", "VectorQ", ("__mul__",)),
}


def span_names() -> list[str]:
    return [f"{layer}.{fn.split('.')[-1]}" for layer, fns in SPANS.items() for fn in fns]


class Recorder:
    """Spans as parallel arrays: name id, parent span, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, itertools.count] = {}

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                              self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return span

    def count(self, name: str, fn):
        counter = self.counters.setdefault(name, itertools.count())
        tick = counter.__next__

        @functools.wraps(fn)
        def counted(*args):
            tick()
            return fn(*args)

        return counted

    def report(self) -> dict:
        """{name: {"calls": n, "self_s": s}} for every span name, plus
        {counter: {"calls": n}}."""
        n = len(self.name_id)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name_id[i]]]
            rec["calls"] += 1
            rec["self_s"] += end[i] - start[i] - child[i]
        for name, counter in self.counters.items():
            out[name] = {"calls": next(counter)}
        return out

    def write_spans(self, path) -> None:
        """One `name start end parent` line per span, start-ordered."""
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.name_id)):
                fh.write(f"{self.names[self.name_id[i]]} {self.start[i]:.9f} "
                         f"{self.end[i]:.9f} {self.parent[i]}\n")


def install() -> Recorder:
    import cosetmap
    mods = [importlib.import_module(f"cosetmap.{m}") for m in MODULES] + [cosetmap]
    rec = Recorder()
    for layer, fns in SPANS.items():
        home = importlib.import_module(f"cosetmap.{layer}")
        for fn in fns:
            if "." in fn:
                cls_name, meth = fn.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, rec.wrap(f"{layer}.{meth}", getattr(cls, meth)))
                continue
            orig = getattr(home, fn)
            wrapper = rec.wrap(f"{layer}.{fn}", orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
    for name, (layer, cls_name, meths) in COUNTS.items():
        cls = getattr(importlib.import_module(f"cosetmap.{layer}"), cls_name)
        wrapper = rec.count(name, getattr(cls, meths[0]))
        for meth in meths:
            setattr(cls, meth, wrapper)
    return rec


def gauges() -> dict:
    """Cache sizes at the moment of the call."""
    from cosetmap import affine_ct, gf
    return {"gf.irr_cache.polys": sum(len(polys) for _, polys in gf._IRR_CACHE.values()),
            "affine_ct.gamma_cache.entries": len(affine_ct._GAMMA_CACHE)}
