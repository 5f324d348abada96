"""Layered benchmark of bicyclegeom.

    python3 bench/run.py --workload {transform,pair,cli} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the library is imported from ``src/``
there and nowhere else.  One process, one thread, one client in a closed
loop; BLAS is pinned to one thread.  All instances and their references are
made from the seed before timing starts, every op's output is checked
outside the timed call, and ops are repeated in whole passes over the timed
pool until ``--seconds`` have elapsed.  Before that, every op of the census
pool (see ``workloads``) runs once, untimed; its failures are reported
beside the metrics and do not count in ``failed``, which counts the timed
ops only.

An op's time is the CPU time of this (single) thread, ``time.thread_time``:
it equals the op's wall time when the op has a core to itself and leaves
out time the thread waits descheduled.  Other tenants of a shared host
still slow it through shared cores and caches, in phases of seconds to
minutes.  The median wall time is printed next to it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the timed
pool untraced for half the time and traced for the other half, and prints
the per-layer metrics, the tracing overhead and the ROADMAP baseline table.
The last line of standard output is one JSON object; a results file with
provenance (and, traced, the spans) goes to ``bench/results/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, thread_time

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as wls  # noqa: E402

SETUP_REPS = 9
FIRST_FAILURES = 10
SETUP_CHILD = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import bicyclegeom as bg\n"
    "import numpy as np\n"
    "data = np.load(sys.argv[1])\n"
    "polys = [bg.Polygon(data[name]) for name in data.files]\n"
    "print(time.perf_counter() - t)\n"
)
CLI_IMPORT_CHILD = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import bicyclegeom.cli\n"
    "print(time.perf_counter() - t)\n"
)
# Seed baseline of the ROADMAP (north-star aim 1), measured with an ad-hoc
# script: (row, value, unit).
BASELINE = [
    ("bicycle_step per call", 56.0, "us"),
    ("transform k=2000", 133.0, "ms"),
    ("propagate inside transform k=2000", 114.0, "ms"),
    ("polygon_monodromy k=2000", 12.0, "ms"),
    ("trace_polynomial k=200", 54.0, "ms"),
    ("1000-length scan of the unit square", 120.0, "ms"),
    ("CLI transform on a square, wall", 0.21, "s"),
    ("CLI import", 0.14, "s"),
]


def import_library():
    """Import bicyclegeom from this checkout's src/, or stop."""
    src = ROOT / "src"
    if not (src / "bicyclegeom" / "__init__.py").is_file():
        sys.exit(f"error: no bicyclegeom sources under {src}")
    sys.path.insert(0, str(src))
    import bicyclegeom
    import bicyclegeom.cli  # noqa: F401  (bound as bicyclegeom.cli for in-process CLI ops)

    if Path(bicyclegeom.__file__).resolve().parent != (src / "bicyclegeom").resolve():
        sys.exit(f"error: imported bicyclegeom from {bicyclegeom.__file__}, not from {src}")
    return bicyclegeom


def run_child(code: str, *args: str) -> tuple[float, float]:
    """Run a Python child; return (wall seconds, the float it prints)."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=wls.child_env(), cwd=str(ROOT), timeout=120, check=True)
    return perf_counter() - t0, float(proc.stdout.strip().splitlines()[-1])


def setup_seconds(wl, ops, workdir: Path) -> tuple[float, list[float]]:
    """Median set-up time over SETUP_REPS fresh interpreters, and for the
    CLI the in-child import times of bicyclegeom.cli."""
    if wl.name == "cli":
        runs = [run_child(CLI_IMPORT_CHILD) for _ in range(SETUP_REPS)]
        return statistics.median(r[0] for r in runs), [r[1] for r in runs]
    arrays = [p for op in ops for p in (op.pts, op.other) if p is not None]
    path = workdir / "inputs.npz"
    np.savez(path, *arrays)
    return statistics.median(run_child(SETUP_CHILD, str(path))[1] for _ in range(SETUP_REPS)), []


def measure(wl, bg, ops, seconds, order, tracer=None):
    """Whole passes over ``order`` until ``seconds`` have elapsed (one pass
    when ``seconds`` is 0).

    Returns the CPU times (ms) of each op's repetitions that returned, by
    op index; their wall times, likewise; one (index, cause) per attempt;
    the pass count; and the outputs of the last pass by op index."""
    lat = defaultdict(list)
    wall = defaultdict(list)
    outcomes = []
    last_out = {}
    passes = 0
    t_end = perf_counter() + seconds
    while passes == 0 or perf_counter() < t_end:
        if tracer is not None:
            tracer.pass_no = passes
        for i in order:
            op = ops[i]
            if tracer is not None:
                tracer.op = i
            t0, c0 = perf_counter(), thread_time()
            try:
                out = wl.run(bg, op)
                cause = None
            except Exception as exc:  # the op's failure is what is counted
                out, cause = None, type(exc).__name__
            c1, t1 = thread_time(), perf_counter()
            if tracer is not None:
                tracer.op = -1
            if cause is None:
                cause = wl.raised(out)
            if cause is None:
                lat[i].append(1e3 * (c1 - c0))
                wall[i].append(1e3 * (t1 - t0))
                try:
                    bad = wl.check(op, out)
                except Exception as exc:  # a crash of the check on this output is a failed check
                    bad = f"error:{type(exc).__name__}"
                cause = None if bad is None else f"check:{bad}"
                last_out[i] = out
            outcomes.append((i, cause))
        passes += 1
    return lat, wall, outcomes, passes, last_out


def op_latencies(ops, lat, k):
    """Per op of size k, its fastest repetition; and all repetitions.

    Every op is repeated once per pass, so its repetitions are spread over
    the whole run.  Contention from other tenants of a shared host only
    ever adds time; the fastest repetition is the closest to the op's own
    cost."""
    best, every = [], []
    for i, samples in lat.items():
        if ops[i].k == k:
            best.append(min(samples))
            every += samples
    return best, every


def tail_percentile(samples):
    """Highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            s = sorted(samples)
            return p, s[min(n - 1, math.ceil(p / 100.0 * n) - 1)]
    return None


def quartile_spread(samples) -> float:
    if len(samples) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def blas_info() -> tuple[str, int | None]:
    """BLAS name and the thread count it reports, when it can be asked."""
    import ctypes
    import glob

    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # numpy builds differ in what show_config knows
        name = "unknown"
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def provenance(seed: int) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas, threads = blas_info()
    return {
        "git_sha": sha,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": threads,
        "platform": platform.platform(),
    }


def all_correct(outcomes) -> bool:
    """Whether every output that returned passed its check.  Ops that
    raised are counted in ``failed`` but returned no output to judge."""
    return not any(cause and cause.startswith("check:") for _, cause in outcomes)


def failure_report(ops, outcomes):
    counts = Counter(cause.split()[0] for _, cause in outcomes if cause)
    first, seen = [], set()
    for i, cause in outcomes:
        if cause and i not in seen:
            seen.add(i)
            first.append(f"op {i}: {ops[i].describe()} cause={cause}")
            if len(first) == FIRST_FAILURES:
                break
    return counts, first


def boundary_counts(ops, last_out, wl):
    """Boundaries returned by the ops, and how many match a closed form."""
    returned = useful = 0
    for i, out in last_out.items():
        bounds = wl.boundaries_of(ops[i], out)
        if bounds is not None:
            returned += len(bounds)
            useful += wls.boundary_matches(ops[i].closed.boundaries, bounds)
    return returned, useful


def layer_metrics(wl, bg, ops, tracer, outcomes, last_out, census, import_runs, overhead):
    """Per-layer metrics of the traced timed run; the failure counts, the
    DEGENERATE count and the useful ratio of refined boundaries come from
    the census (``census`` is its ops, outcomes, outputs and tracer)."""
    census_ops, census_outcomes, census_last, census_tracer = census
    op_sizes = {i: op.k for i, op in enumerate(ops)}
    metrics, samples = tracer.layer_metrics(op_sizes)
    geometry_errors = {c.__name__ for c in vars(bg).values() if isinstance(c, type) and issubclass(c, bg.GeometryError)}
    for fn, causes in tracing.FAIL_CAUSES.items():
        for c in causes:
            metrics[f"{fn}.fail.{c}"] = 0
    for _, cause in census_outcomes:
        if cause:
            name = "GeometryError" if cause in geometry_errors and cause not in tracing.FAIL_CAUSES[wl.op_name] else cause
            metrics[tracing.fail_key(wl.op_name, name)] += 1
    metrics["monodromy.classify.degenerate"] = census_tracer.degenerate
    returned, useful = boundary_counts(census_ops, census_last, wl)
    metrics["monodromy.refine_class_boundaries.useful_ratio"] = useful / returned if returned else 0.0
    returned, _ = boundary_counts(ops, last_out, wl)  # over the last pass
    disc_calls = tracer.calls_under("monodromy.discriminant", set(last_out), tracer.pass_no)
    metrics["monodromy.discriminant.per_boundary"] = disc_calls / returned if returned else 0.0
    metrics["cli.import_s"] = statistics.median(import_runs) if import_runs else 0.0
    ok_transforms = {i for i, cause in outcomes if cause is None and ops[i].kind == "cli-transform"}
    runs = sum(1 for i, cause in outcomes if i in ok_transforms)
    metrics["cli.propagate_per_transform"] = tracer.calls_under("dynamics.propagate", ok_transforms) / runs if runs else 0.0
    metrics["trace.overhead_frac"] = overhead
    return metrics, samples


def baseline_rows(ops, metrics, pass_medians, tracer, import_runs, cli_square):
    """(row, baseline, unit, measured or None, spread) for the ROADMAP table.

    The spread is the distance between the quartiles of the per-pass
    medians (of the repeated runs, for the subprocess rows), the closest
    this one run has to a run-to-run spread."""
    square = {i: op.closed.steps for i, op in enumerate(ops) if op.family == "square"}
    scan_square = defaultdict(list)
    for s in tracer.spans:
        if s[0] == "monodromy.classification_scan" and s[4] in square and not s[7]:
            scan_square[s[6]].append(1e3 * (s[2] - s[1]) * 1000 / square[s[4]])

    def row(values, value=None):
        if not values:
            return None, 0.0
        return (statistics.median(values) if value is None else value), quartile_spread(values)

    def p50(fn, k):
        name = f"{fn}.p50_ms.k{k}"
        return row(pass_medians.get((fn, k)), metrics[name])

    measured = [
        row(tracer.step_us_per_pass()),
        p50("dynamics.transform", 2000),
        p50("dynamics.propagate", 2000),
        p50("monodromy.polygon_monodromy", 2000),
        p50("monodromy.trace_polynomial", 200),
        row([statistics.median(v) for v in scan_square.values()]),
        row(cli_square),
        row(import_runs),
    ]
    return [(name, base, unit, m, spread) for (name, base, unit), (m, spread) in zip(BASELINE, measured)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny pools at k = 4 and 24 only")
    args = parser.parse_args(argv)

    bg = import_library()
    warnings.simplefilter("ignore", RuntimeWarning)  # numpy overflow warnings of the library under test
    wl = wls.WORKLOADS[args.workload](smoke=args.smoke)
    rng = np.random.default_rng(args.seed)
    ops = wl.build(rng)
    order = [int(i) for i in rng.permutation(np.repeat(np.arange(len(ops)), [wl.repeats(op) for op in ops]))]
    census_ops = wl.build(np.random.default_rng([args.seed, 1]), census=True)

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=ROOT / ".bench_tmp"))
    try:
        setup_s, import_runs = setup_seconds(wl, ops, workdir)
        wl.prepare(bg, ops, workdir)
        wl.prepare(bg, census_ops, workdir, tag="census")
        census_tracer = tracing.Tracer()
        if args.trace:
            census_tracer.install()
        try:
            _, _, census_outcomes, _, census_last = measure(wl, bg, census_ops, 0, range(len(census_ops)))
        finally:
            census_tracer.uninstall()
        census = (census_ops, census_outcomes, census_last, census_tracer)
        if not args.trace:
            lat, wall, outcomes, passes, _ = measure(wl, bg, ops, args.seconds, order)
            outcomes += wl.run_processes(ops)
            return report_end_to_end(args, wl, ops, lat, wall, outcomes, passes, setup_s, census)
        plain, _, _, _, _ = measure(wl, bg, ops, args.seconds / 2, order)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _, outcomes, _, last_out = measure(wl, bg, ops, args.seconds / 2, order, tracer)
        finally:
            tracer.uninstall()
        # Fastest traced repetition over fastest untraced one, median over ops.
        ratios = [min(traced[i]) / min(plain[i]) for i in traced if i in plain]
        overhead = statistics.median(ratios) - 1.0 if ratios else 0.0
        cli_square = []
        if wl.name == "cli":
            square = workdir / "square.json"
            square.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
            for _ in range(SETUP_REPS):
                t0 = perf_counter()
                subprocess.run([sys.executable, "-m", "bicyclegeom.cli", "transform", str(square), "--ell", "0.5"],
                               capture_output=True, env=wls.child_env(), cwd=str(workdir), timeout=120)
                cli_square.append(perf_counter() - t0)
        metrics, pass_medians = layer_metrics(wl, bg, ops, tracer, outcomes, last_out, census, import_runs, overhead)
        rows = baseline_rows(ops, metrics, pass_medians, tracer, import_runs, cli_square)
        return report_traced(args, wl, ops, metrics, rows, tracer, outcomes, census, overhead)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def results_path(args, suffix: str) -> Path:
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    return out / f"{args.workload}-seed{args.seed}-{suffix}"


def census_lines(census) -> tuple[list[str], dict]:
    """Report of the census: its failure fraction, the count per cause and
    the first failing instances; and the same as a dict."""
    ops, outcomes, _, _ = census
    failed = sum(1 for _, cause in outcomes if cause)
    counts, first = failure_report(ops, outcomes)
    lines = [f"  census fail_frac {failed / len(outcomes):12.6g} ratio   ({failed} of {len(outcomes)} ops, untimed)"]
    lines += [f"    fail {cause:<40} {n}" for cause, n in sorted(counts.items())]
    if first:
        lines.append("  first failing census instances:")
        lines += [f"    {line}" for line in first]
    return lines, {"attempted": len(outcomes), "failed": failed, "failures": dict(counts), "first_failures": first}


def report_end_to_end(args, wl, ops, lat, wall, outcomes, passes, setup_s, census) -> int:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF)
    attempted = len(outcomes)
    failed = sum(1 for _, cause in outcomes if cause)
    metrics = {}
    lines = [f"workload {wl.name}  seed {args.seed}  {passes} passes over {len(ops)} timed ops"]
    for k in wl.sizes:
        best, every = op_latencies(ops, lat, k)
        if not best:
            print(f"error: no op at k={k} returned; its median latency is undefined", file=sys.stderr)
            return 1
        wall_best, _ = op_latencies(ops, wall, k)
        metrics[f"op_p50_ms.k{k}"] = (statistics.median(best), "ms")
        tail = tail_percentile(every)
        tail_txt = f"  p{tail[0]:g} {tail[1]:.4f} ms (all repetitions)" if tail else ""
        lines.append(f"  op_p50_ms.k{k:<5} {statistics.median(best):12.4f} ms   wall {statistics.median(wall_best):.4f} ms  "
                     f"ops={len(best)} repetitions={len(every)}{tail_txt}")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (usage.ru_maxrss / 1024.0, "MiB")
    for name in ("setup_s", "peak_rss_mb"):
        lines.append(f"  {name:<16} {metrics[name][0]:12.6g} {metrics[name][1]}")
    lines.append(f"  timed fail_frac  {failed / attempted:12.6g} ratio   ({failed} of {attempted} ops)")
    counts, first = failure_report(ops, outcomes)
    lines += [f"    fail {cause:<40} {n}" for cause, n in sorted(counts.items())]
    lines += [f"    {line}" for line in first]
    c_lines, c_report = census_lines(census)
    print("\n".join(lines + c_lines))
    result = {
        "correct": all_correct(outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    path = results_path(args, "trace0.json")
    path.write_text(json.dumps({
        "provenance": provenance(args.seed), "workload": wl.name, "passes": passes, "ops": len(ops),
        "result": result, "repetitions": {str(k): len(op_latencies(ops, lat, k)[1]) for k in wl.sizes},
        "failures": dict(counts), "first_failures": first, "census": c_report,
    }, indent=2) + "\n")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def report_traced(args, wl, ops, metrics, rows, tracer, outcomes, census, overhead) -> int:
    names = tracing.metric_names()
    lines = [f"workload {wl.name}  seed {args.seed}  traced  overhead {overhead:+.3f}"]
    for name, unit in names:
        lines.append(f"  {name:<52} {metrics[name]:14.6g} {unit}")
    lines.append("  ROADMAP baseline            baseline   measured     spread  flag")
    for row, base, unit, measured, spread in rows:
        if measured is None:
            lines.append(f"  {row:<38} {base:8g} {unit:<3} not measured by this workload")
            continue
        flag = "DIFFERS" if abs(measured - base) > spread else ""
        lines.append(f"  {row:<38} {base:8g} {unit:<3} {measured:10.4g} {spread:10.3g}  {flag}")
    c_lines, c_report = census_lines(census)
    print("\n".join(lines + c_lines))
    attempted = len(outcomes)
    failed = sum(1 for _, cause in outcomes if cause)
    result = {
        "correct": all_correct(outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    spans = results_path(args, "spans.jsonl")
    tracer.write(spans)
    path = results_path(args, "trace1.json")
    path.write_text(json.dumps({"provenance": provenance(args.seed), "workload": wl.name, "result": result,
                                "census": c_report, "spans": spans.name}, indent=2) + "\n")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
