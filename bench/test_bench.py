"""Tests of the benchmark itself: smoke sizes of every workload, the checks
catching wrong outputs, and the reference agreeing with closed forms.

Run with ``python -m pytest bench`` from the root of the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bicyclegeom as bg
import bicyclegeom.cli  # noqa: F401
import reference as ref
import tracing
import workloads as wls

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(wls.WORKLOADS)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], capture_output=True, text=True, cwd=cwd,
                          timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"] is True
    assert "census fail_frac" in proc.stdout
    names = {f"op_p50_ms.k{k}" for k in wls.SMOKE_SIZES} | {"setup_s", "peak_rss_mb"}
    assert set(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "0.4", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc.stdout)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert "ROADMAP baseline" in proc.stdout


def test_spec_matches_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.metric_names()
    assert len(SPEC["per_layer"]) <= 128
    assert {w["name"] for w in SPEC["workloads"]} <= set(wls.WORKLOADS)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("--workload", "transform", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_timed_pools_are_well_conditioned_and_census_pools_are_not_filtered():
    rng = np.random.default_rng(5)
    for k in (4, 24):
        pts, length, r = wls.instance(rng, "generic", k, census=False)
        assert wls.well_conditioned(r)
    # The product of the ROADMAP's overflow recipe leaves the double range,
    # so such instances are in the census only.
    pts = np.random.default_rng(2).normal(size=(200, 2)) * 2
    r = ref.classify(pts, 3.0 * float(ref.side_lengths(pts).max()))
    assert not wls.in_double_range(r) and not wls.well_conditioned(r)
    census = wls.TransformWorkload(smoke=True).build(np.random.default_rng(5), census=True)
    assert {op.family for op in census} == {"inscribed", "noisy", "generic"}


def _first_passing(wl, ops):
    for op in ops:
        try:
            out = wl.run(bg, op)
        except Exception:  # failing ops of the seed are skipped here
            continue
        if wl.raised(out) is None and wl.check(op, out) is None:
            return op, out
    raise AssertionError("no op of the smoke pool passes its check")


def _smoke(name, seed=3, workdir=None):
    wl = wls.WORKLOADS[name](smoke=True)
    ops = wl.build(np.random.default_rng(seed))
    wl.prepare(bg, ops, workdir)
    return wl, ops


def test_transform_check_rejects_wrong_output():
    wl, ops = _smoke("transform")
    op, w = _first_passing(wl, ops)
    moved = w.copy()
    moved[len(w) // 2] += 1e-6
    assert wl.check(op, moved) is not None
    twin = next(o for o in ops if o.pts is op.pts and o.branch != op.branch)
    other = bg.transform(twin.polys[0], twin.length, bg.Branch(twin.branch)).vertices
    assert wl.check(op, other) == "branch"
    assert wl.check(op, w + 1e-3) is not None


def test_scan_check_rejects_wrong_output(tmp_path):
    wl, ops = _smoke("cli", workdir=tmp_path)
    op, (_, stdout) = _first_passing(wl, [o for o in ops if o.kind == "cli-scan"])
    data = json.loads(stdout)
    points = [(p["L"], p["class"], p["eigenvalues"]) for p in data["grid"]]
    bounds = data["boundaries"]
    assert wls.scan_check(op, points, bounds) is None
    i = next(j for j, p in enumerate(points) if p[1] == "hyperbolic")
    flipped = list(points)
    flipped[i] = (points[i][0], "elliptic", None)
    assert wls.scan_check(op, flipped, bounds).startswith("label")
    assert wls.scan_check(op, points, bounds[:-1]) == "boundary_missed"
    assert wls.scan_check(op, points, bounds + [0.75 * op.closed.lo + 0.25 * op.closed.hi]) == "boundary_spurious"
    j = min(op.sample_refs)
    bent = list(points)
    ell, klass, derivs = points[j]
    bent[j] = (ell, klass, (derivs[0] * (1 + 1e-5), derivs[1] / (1 + 1e-5)))
    assert wls.scan_check(op, bent, bounds) == "eigenvalues"


def test_pair_check_rejects_wrong_output():
    wl, ops = _smoke("pair")
    op, out = _first_passing(wl, ops)
    for key, wrong in (
        ("corresponding", False),
        ("alphas", out["alphas"] + 1e-6),
        ("eigenvalues", (out["eigenvalues"][0] * (1 + 1e-5), out["eigenvalues"][1])),
        ("chain", (out["chain"][0] + 1e-6, out["chain"][1])),
        ("trace_poly", [out["trace_poly"][0], np.array(out["trace_poly"][1]) * (1 + 1e-6)]),
    ):
        assert wl.check(op, {**out, key: wrong}) is not None, key


def test_cli_check_rejects_wrong_output(tmp_path):
    wl, ops = _smoke("cli", workdir=tmp_path)
    op, out = _first_passing(wl, [o for o in ops if o.kind == "cli-transform"])
    data = json.loads(Path(op.out_path).read_text())
    data["vertices"][1][0] += 1e-6
    Path(op.out_path).write_text(json.dumps(data))
    assert wl.check(op, out) is not None
    assert wl.raised((2, "")) == "exit2"
    scan_op, (code, stdout) = _first_passing(wl, [o for o in ops if o.kind == "cli-scan"])
    payload = json.loads(stdout)
    payload["boundaries"] = []
    assert wl.check(scan_op, (code, json.dumps(payload))) == "boundary_missed"


def test_subprocess_and_in_process_cli_agree(tmp_path):
    wl, ops = _smoke("cli", workdir=tmp_path)
    op = next(o for o in ops if o.kind == "cli-scan")
    assert wl.run_process(op) == wl.run(bg, op)


def test_reference_agrees_with_closed_forms():
    rng = np.random.default_rng(11)
    for j in range(3):
        pts, closed = wls.diagram_instance(rng, j, census=True)
        info = bg.classify_quadrilateral(bg.Polygon(pts))
        assert np.allclose(info.boundaries, closed.boundaries, rtol=1e-12)
        for ell in np.linspace(closed.lo, closed.hi, 9):
            want = wls.regime(closed, float(ell))
            got = ref.classify(pts, float(ell)).klass
            assert got == want or ell in np.asarray(ref.side_lengths(pts))
    pts = wls.circle(rng, 24)
    closed = wls.diagram((1.0,), wls.CYCLIC, *wls.FULL_RANGE, wls.FULL_STEPS)
    assert bg.classify_cyclic(bg.Polygon(pts)).diameter == pytest.approx(1.0, rel=1e-12)
    for ell in (0.3, 0.9, 1.1):
        assert ref.classify(pts, ell).klass == wls.regime(closed, ell)


def test_reference_pairs_are_pairs():
    rng = np.random.default_rng(12)
    for family in ("rotated", "noisy", "generic"):
        op = wls.pair_instance(rng, family, 24, census=False)
        assert ref.first_excess(ref.pair_defects(op.pts, op.other, op.length), 1e-13) is None
        assert bg.correspondence_check(bg.Polygon(op.pts), bg.Polygon(op.other))


def test_reference_directions_match_a_closed_transform():
    rng = np.random.default_rng(13)
    pts = wls.circle(rng, 24)
    r = ref.classify(pts, 0.6)
    w = bg.rotation_transform(bg.Polygon(pts), 0.6).vertices
    errs = [ref.direction_error(pts, w, 0.6, r.branch(b).direction) for b in ("attracting", "repelling")]
    assert min(errs) < 1e-12
