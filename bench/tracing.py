"""Span tracing from outside the library.

``Tracer.install`` replaces each public function named in ``TARGETS`` by a
timing wrapper in every ``bicyclegeom`` module namespace that binds it, so
internal calls (``transform -> propagate -> bicycle_step``) become child
spans.  Classes are wrapped at ``__init__`` so that ``isinstance`` still
works.  ``bicycle_step`` is called once per vertex and is aggregated per
parent span instead of recorded one span per call.

A span is ``[name, start, end, parent, op, child_time, pass, raised]``; self
time is the duration minus ``child_time``, the sum of its direct children,
which never overlap because the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from workloads import SIZES

TARGETS = {
    "geometry": ["Polygon", "bicycle_step"],
    "monodromy": [
        "polygon_monodromy", "classify", "fixed_directions", "classification_scan",
        "refine_class_boundaries", "discriminant", "trace_polynomial",
    ],
    "dynamics": [
        "transform", "propagate", "correspondence_check", "BicyclePair", "angle_sequence",
        "verify_difference_equation",
    ],
    "invariants": [
        "area_bivector", "j_vector", "circumcenter_of_mass", "rear_track", "chain_reconstruct",
        "eigenvalue_products",
    ],
    "fileio": ["load_polygon", "save_polygon"],
    "cli": ["main"],
}
STEP = "geometry.bicycle_step"
# Functions whose median latency is reported per polygon size, and the sizes
# at which some workload calls them.
P50_SIZES = {
    "dynamics.transform": SIZES,
    "dynamics.propagate": SIZES,
    "monodromy.polygon_monodromy": SIZES,
    "dynamics.correspondence_check": SIZES,
    "invariants.rear_track": SIZES,
    "monodromy.classification_scan": (4,),
    "monodromy.refine_class_boundaries": (4,),
    "monodromy.trace_polynomial": (4, 24, 200),
}
# Failure causes counted per workload op; anything else lands in "other".
FAIL_CAUSES = {
    "dynamics.transform": ("DegenerateMonodromy", "ClosureFailure", "ValueError", "other", "check"),
    "dynamics.BicyclePair": ("ValueError", "GeometryError", "other", "check"),
    "cli.main": ("exit", "check"),
}
EXTRA = [
    ("geometry.bicycle_step.us_per_call", "us"),
    ("monodromy.classify.degenerate", "count"),
    ("monodromy.refine_class_boundaries.useful_ratio", "ratio"),
    ("monodromy.discriminant.per_boundary", "count"),
    ("cli.import_s", "s"),
    ("cli.propagate_per_transform", "count"),
    ("trace.overhead_frac", "ratio"),
]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for mod, names in TARGETS.items():
        for fn in names:
            out += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.busy_s", "s"), (f"{mod}.{fn}.self_s", "s")]
    for fn, sizes in P50_SIZES.items():
        out += [(f"{fn}.p50_ms.k{k}", "ms") for k in sizes]
    for fn, causes in FAIL_CAUSES.items():
        out += [(f"{fn}.fail.{c}", "count") for c in causes]
    return out + EXTRA


def fail_key(op_name: str, cause: str) -> str:
    """Per-layer counter name of one failure cause."""
    causes = FAIL_CAUSES[op_name]
    if cause.startswith("exit") and "exit" in causes:
        return f"{op_name}.fail.exit"
    if cause.startswith("check:"):
        return f"{op_name}.fail.check"
    if cause in causes:
        return f"{op_name}.fail.{cause}"
    return f"{op_name}.fail.other"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.pass_no = 0
        self.steps: dict[int, list] = defaultdict(lambda: [0, 0.0])
        self.degenerate = 0
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op, 0.0, self.pass_no, True]
            stack.append(len(spans))
            spans.append(rec)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                rec[7] = False
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                rec[1], rec[2] = t0, t1
                if parent >= 0:
                    spans[parent][5] += t1 - t0

        return wrapper

    def _wrap_step(self, fn):
        spans, stack, steps = self.spans, self.stack, self.steps

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                parent = stack[-1] if stack else -1
                agg = steps[parent]
                agg[0] += 1
                agg[1] += dt
                if parent >= 0:
                    spans[parent][5] += dt

        return wrapper

    def _wrap_classify(self, fn):
        inner = self._wrap("monodromy.classify", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            if getattr(out, "value", None) == "degenerate":
                self.degenerate += 1
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "bicyclegeom" or n.startswith("bicyclegeom.")]
        for modname, names in TARGETS.items():
            home = sys.modules[f"bicyclegeom.{modname}"]
            for fn_name in names:
                name = f"{modname}.{fn_name}"
                orig = getattr(home, fn_name)
                if isinstance(orig, type):
                    init = orig.__dict__["__init__"]
                    orig.__init__ = self._wrap(name, init)
                    self._restore.append((orig, "__init__", init))
                    continue
                if name == STEP:
                    wrapped = self._wrap_step(orig)
                elif name == "monodromy.classify":
                    wrapped = self._wrap_classify(orig)
                else:
                    wrapped = self._wrap(name, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for obj, attr, val in reversed(self._restore):
            setattr(obj, attr, val)
        self._restore.clear()

    def write(self, path) -> None:
        """Spans as JSON lines, then one line per aggregated step group."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, op, child, pass_no, raised) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1, "parent": parent, "op": op,
                                     "pass": pass_no, "child_s": child, "raised": raised}) + "\n")
            for parent, (count, total) in self.steps.items():
                fh.write(json.dumps({"name": STEP, "parent": parent, "calls": count, "busy_s": total}) + "\n")

    def layer_metrics(self, op_sizes: dict[int, int]) -> tuple[dict, dict]:
        """Per-layer calls, busy and self time, and per-size medians.

        A function's latency at size k is, for each op of that size, its
        fastest call that returned; the reported value is the median over
        ops.  Also returns, for the baseline comparison, the per-pass
        medians of the same calls keyed by (function, k)."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_t = defaultdict(float)
        best = defaultdict(dict)
        per_pass = defaultdict(lambda: defaultdict(list))
        for name, t0, t1, _parent, op, child, pass_no, raised in self.spans:
            dt = t1 - t0
            calls[name] += 1
            busy[name] += dt
            self_t[name] += dt - child
            if name in P50_SIZES and op in op_sizes and not raised:
                key = (name, op_sizes[op])
                best[key][op] = min(best[key].get(op, math.inf), 1e3 * dt)
                per_pass[key][pass_no].append(1e3 * dt)
        for count, total in self.steps.values():
            calls[STEP] += count
            busy[STEP] += total
            self_t[STEP] += total
        out = {}
        for mod, names in TARGETS.items():
            for fn in names:
                key = f"{mod}.{fn}"
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.busy_s"] = busy[key]
                out[f"{key}.self_s"] = self_t[key]
        for fn, sizes in P50_SIZES.items():
            for k in sizes:
                s = best.get((fn, k))
                out[f"{fn}.p50_ms.k{k}"] = statistics.median(s.values()) if s else 0.0
        out["geometry.bicycle_step.us_per_call"] = 1e6 * busy[STEP] / calls[STEP] if calls[STEP] else 0.0
        out["monodromy.classify.degenerate"] = self.degenerate
        pass_medians = {key: [statistics.median(v) for v in passes.values()] for key, passes in per_pass.items()}
        return out, pass_medians

    def step_us_per_pass(self) -> list[float]:
        """bicycle_step microseconds per call, one value per pass."""
        acc = defaultdict(lambda: [0, 0.0])
        for parent, (count, total) in self.steps.items():
            if parent >= 0:
                a = acc[self.spans[parent][6]]
                a[0] += count
                a[1] += total
        return [1e6 * total / count for count, total in acc.values() if count]

    def calls_under(self, name: str, ops: set[int], pass_no: int | None = None) -> int:
        """Calls of ``name`` made by the given ops (in one pass, if given)."""
        return sum(1 for s in self.spans if s[0] == name and s[4] in ops and pass_no in (None, s[6]))
