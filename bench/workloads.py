"""Workloads: instance generation, the timed op, and the check of its output.

Every workload makes two pools of instances from the seed before anything
is timed, and keeps or redraws an instance only on the verdict of the
50-digit reference (``reference.classify``), never on the library's.

* The **timed pool** holds well-conditioned instances only: hyperbolic with
  an eigenvalue ratio between 1e-4 and 0.9, and a side-matrix product whose
  largest entry and determinant lie within 1e-280..1e280.  A correct
  double-precision library handles all of them, so a timed op that fails is
  a regression.  Two parts of the pair op that fail at the seed whatever
  the instance are timed at small sizes only (see ``PairWorkload``).
  Circle families draw L in [0.86, 0.98] of the
  circumdiameter; the generic family (``normal * 1.5`` vertices, L in
  [0.2, 2] x the mean side: the survey recipe of the ROADMAP) takes part at
  k <= 24 only, since at k >= 200 its product leaves the double range.
* The **census pool** draws the same families over the whole ranges (circle
  L in [0.2, 1] of the diameter, generic at every size, regime diagrams over
  [0.02, 1.25] x the last boundary, random quadrilaterals) and keeps every
  instance the reference calls hyperbolic.  Each census op runs once,
  untimed; its failures are the library's known defects (overflow, strongly
  hyperbolic monodromies called DEGENERATE, repelling closure).

Each instance carries what its check needs: the reference, a closed form,
or plain-numpy quantities.  The check of an op never calls the function the
op timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

import reference as ref

SIZES = (4, 24, 200, 2000)
SMOKE_SIZES = (4, 24)
SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
CYCLIC = ("hyperbolic", "elliptic")  # regimes of an inscribed polygon
# Census regime diagrams span [0.02, 1.25] x their last boundary in 128
# points; timed ones span a window around the boundary at the
# circumdiameter.
FULL_RANGE = (0.02, 1.25)
FULL_STEPS = 128
WINDOW = (0.86, 1.14)
SCAN_STEPS = 48
# Lengths of the circle families, as shares of the circumdiameter.
TIMED_CIRCLE_L = (0.86, 0.98)
CENSUS_CIRCLE_L = (0.2, 1.0)
# Generic lengths, as shares of the mean side.
GENERIC_L = (0.2, 2.0)
# Well-conditioned: log10 of the eigenvalue ratio, and of the magnitudes of
# the product's determinant and largest entry.
LOG10_RATIO = (-4.0, math.log10(0.9))
LOG10_MAGNITUDE = 280.0
# Labels within this share of a closed-form boundary are not judged: the
# class flips there and float rounding may land on either side.
BOUNDARY_GUARD = 1e-6
# A refined boundary must lie within this share of the closed-form one.
BOUNDARY_TOL = 1e-7


class Diagram(NamedTuple):
    """Closed-form regime diagram and the grid a scan samples it on."""

    boundaries: tuple
    classes: tuple
    lo: float
    hi: float
    steps: int


@dataclass
class Op:
    """One timed operation and everything its check needs."""

    kind: str
    k: int
    family: str
    length: float
    branch: str | None = None
    pts: np.ndarray | None = None
    other: np.ndarray | None = None  # companion W of a pair
    ref: ref.Reference | None = None
    closed: Diagram | None = None
    sample_refs: dict = field(default_factory=dict)  # grid index -> Reference
    polys: tuple = ()  # Polygon objects built in-process before timing
    argv: list = field(default_factory=list)  # CLI arguments
    out_path: str | None = None
    census: bool = False

    def describe(self) -> str:
        parts = [f"{self.kind} k={self.k}", f"family={self.family}"]
        if self.closed is not None:
            parts.append(f"L-grid=[{self.closed.lo:.17g}, {self.closed.hi:.17g}]x{self.closed.steps}")
        else:
            parts.append(f"L={self.length:.17g}")
        if self.branch:
            parts.append(f"branch={self.branch}")
        return " ".join(parts)


# ------------------------------------------------------------------ families


def circle(rng, k: int, noise: float = 0.0) -> np.ndarray:
    """Convex polygon with vertices at jittered angles on a circle of
    diameter 1 (radial noise turns it into a noisy circle)."""
    th = 2.0 * np.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, k)) / k + rng.uniform(0.0, 2.0 * np.pi)
    r = 0.5 * (1.0 + noise * rng.normal(size=k)) if noise else np.full(k, 0.5)
    return rng.normal(size=2) + r[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)


def generic(rng, k: int) -> np.ndarray:
    return rng.normal(size=(k, 2)) * 1.5


def well_conditioned(r: ref.Reference) -> bool:
    """Hyperbolic with a moderate eigenvalue ratio, and a product whose
    entries and determinant a double holds with room to spare."""
    return r.klass == "hyperbolic" and LOG10_RATIO[0] <= r.attracting.log10_deriv <= LOG10_RATIO[1] and in_double_range(r)


def families(k: int, census: bool) -> tuple[str, ...]:
    return ("inscribed", "noisy", "generic") if census or k <= 24 else ("inscribed", "noisy")


def instance(rng, family: str, k: int, census: bool):
    """Polygon, length and reference of one transform instance: hyperbolic
    for the census, well-conditioned for the timed pool."""
    while True:
        if family == "generic":
            pts = generic(rng, k)
            length = rng.uniform(*GENERIC_L) * float(ref.side_lengths(pts).mean())
        else:
            pts = circle(rng, k, noise=0.02 if family == "noisy" else 0.0)
            length = rng.uniform(*(CENSUS_CIRCLE_L if census else TIMED_CIRCLE_L))
        r = ref.classify(pts, length)
        if r.klass == "hyperbolic" and (census or well_conditioned(r)):
            return pts, length, r


def quadrilateral_diagram(pts: np.ndarray):
    """Closed-form regime diagram of a quadrilateral ABCD: circles about the
    intersection of the perpendicular bisectors of the diagonals, elliptic
    below r1 - r2 and above r1 + r2, hyperbolic between."""
    a, b, c, d = pts
    m1, m2 = 0.5 * (a + c), 0.5 * (b + d)
    d1 = np.array([-(c - a)[1], (c - a)[0]])
    d2 = np.array([-(d - b)[1], (d - b)[0]])
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    rhs = m2 - m1
    center = m1 + (rhs[0] * d2[1] - rhs[1] * d2[0]) / cross * d1
    r_ac = 0.5 * (np.linalg.norm(a - center) + np.linalg.norm(c - center))
    r_bd = 0.5 * (np.linalg.norm(b - center) + np.linalg.norm(d - center))
    r1, r2 = max(r_ac, r_bd), min(r_ac, r_bd)
    if r1 - r2 > 1e-12 * r1:
        return (float(r1 - r2), float(r1 + r2)), ("elliptic", "hyperbolic", "elliptic")
    return (float(r1 + r2),), ("hyperbolic", "elliptic")


def regime(closed, ell: float) -> str | None:
    """Closed-form class at ell; None inside the guard band of a boundary."""
    for b in closed.boundaries:
        if abs(ell - b) <= BOUNDARY_GUARD * b:
            return None
    return closed.classes[sum(1 for b in closed.boundaries if ell > b)]


def diagram(boundaries, classes, lo: float, hi: float, steps: int) -> Diagram:
    """Grid of ``steps`` lengths over [lo, hi] x the last boundary."""
    top = boundaries[-1]
    return Diagram(tuple(boundaries), tuple(classes), lo * top, hi * top, steps)


def in_double_range(r: ref.Reference) -> bool:
    return abs(r.log10_det) <= LOG10_MAGNITUDE and abs(r.log10_scale) <= LOG10_MAGNITUDE / 2


def diagram_instance(rng, j: int, census: bool):
    """A quadrilateral with a closed-form regime diagram; the first one is
    the unit square.  The census scans random quadrilaterals
    (``classify_quadrilateral``'s boundaries) over the full range; the timed
    pool scans quadrilaterals inscribed in a circle of diameter 1
    (``classify_cyclic``) over the window around the circumdiameter,
    well-conditioned at its low end, in the double range at its high end,
    and with every side shorter than the window, so that no side-length
    pole lies in it."""
    if census:
        pts = SQUARE if j == 0 else rng.normal(size=(4, 2))
        return pts, diagram(*quadrilateral_diagram(pts), *FULL_RANGE, FULL_STEPS)
    while True:
        pts = SQUARE if j == 0 else circle(rng, 4)
        d = diagram((math.sqrt(2.0) if j == 0 else 1.0,), CYCLIC, *WINDOW, SCAN_STEPS)
        lo, hi = ref.classify(pts, d.lo), ref.classify(pts, d.hi)
        short = ref.side_lengths(pts).max() < 0.9 * d.lo
        if short and well_conditioned(lo) and hi.klass == "elliptic" and in_double_range(hi):
            return pts, d
        assert j != 0, "the unit square's scan window must be well-conditioned"


def scan_op(kind: str, family: str, pts: np.ndarray, closed: Diagram) -> Op:
    """A regime-diagram op, with the reference at two hyperbolic grid points
    for the eigenvalue check."""
    op = Op(kind, len(pts), family, float("nan"), pts=pts, closed=closed)
    grid = np.linspace(closed.lo, closed.hi, closed.steps)
    for idx in scan_sample_indices(closed, grid):
        op.sample_refs[idx] = ref.classify(pts, float(grid[idx]))
    return op


def rotated(pts: np.ndarray, length: float, sign: float) -> np.ndarray:
    """Closed-form companion of a polygon inscribed in a circle of diameter
    1: the rotation about the circumcenter whose chord is the length."""
    a, b, c = pts[0], pts[1], pts[2]
    d = 2.0 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    nb, nc = float((b - a) @ (b - a)), float((c - a) @ (c - a))
    center = a + np.array([(c - a)[1] * nb - (b - a)[1] * nc, (b - a)[0] * nc - (c - a)[0] * nb]) / d
    theta = sign * 2.0 * math.asin(length)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    return (pts - center) @ rot.T + center


# ---------------------------------------------------------------- workloads


class Workload:
    name = ""
    op_name = ""  # the layer function that names the op's failure counters
    rss_of_children = False  # report the peak RSS of child processes

    # Instances per size (and per family, where there are families) of the
    # timed pool; the census and the smoke pools have one each.
    counts: dict = {}

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.sizes = SMOKE_SIZES if smoke else SIZES

    def count(self, k: int, census: bool) -> int:
        return 1 if census or self.smoke else self.counts[k]

    def build(self, rng, census: bool = False) -> list[Op]:
        raise NotImplementedError

    def prepare(self, bg, ops: list[Op], workdir: Path, tag: str = "op") -> None:
        """Build the library inputs (untimed); files go to ``workdir``,
        named after ``tag``."""
        for op in ops:
            op.polys = tuple(bg.Polygon(p) for p in (op.pts, op.other) if p is not None)

    def run(self, bg, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> str | None:
        """None when the output is right, else the name of the failed check."""
        raise NotImplementedError

    def raised(self, out) -> str | None:
        """Failure cause of an op that returned but reports an error."""
        return None

    def boundaries_of(self, op: Op, out) -> list | None:
        """Class boundaries an op returned, when it returns any."""
        return None

    def repeats(self, op: Op) -> int:
        """How many times the op runs in one pass.  Ops at k <= 24 take at
        most a few ms and run three times, so that their fastest repetition
        rests on more samples of the host's fast phases."""
        return 3 if op.k <= 24 else 1

    def run_processes(self, ops: list[Op]) -> list[tuple[int, str | None]]:
        """Untimed runs of ops as processes, as (index, cause)."""
        return []


class TransformWorkload(Workload):
    name = "transform"
    op_name = "dynamics.transform"

    counts = {4: 8, 24: 8, 200: 2, 2000: 1}

    def build(self, rng, census=False):
        ops = []
        for k in self.sizes:
            for family in families(k, census):
                for _ in range(self.count(k, census)):
                    pts, length, r = instance(rng, family, k, census)
                    for branch in ("attracting", "repelling"):
                        ops.append(Op("transform", k, family, length, branch, pts=pts, ref=r))
        return ops

    def run(self, bg, op):
        return bg.transform(op.polys[0], op.length, bg.Branch(op.branch)).vertices

    def check(self, op, out):
        return transform_check(op, np.asarray(out, dtype=float))


def transform_check(op: Op, w: np.ndarray) -> str | None:
    if w.shape != op.pts.shape:
        return "shape"
    bad = ref.first_excess(ref.pair_defects(op.pts, w, op.length))
    if bad:
        return bad
    other = "repelling" if op.branch == "attracting" else "attracting"
    mine = ref.direction_error(op.pts, w, op.length, op.ref.branch(op.branch).direction)
    theirs = ref.direction_error(op.pts, w, op.length, op.ref.branch(other).direction)
    if not mine < theirs:
        return "branch"
    return None


def scan_sample_indices(closed, grid) -> list[int]:
    """Two grid points inside hyperbolic stretches, where the eigenvalues
    are compared with the reference."""
    hyper = [i for i, ell in enumerate(grid) if regime(closed, float(ell)) == "hyperbolic"]
    return sorted({hyper[len(hyper) // 3], hyper[(2 * len(hyper)) // 3]}) if hyper else []


def scan_check(op: Op, points, bounds) -> str | None:
    d = op.closed
    if len(points) != d.steps:
        return "grid"
    grid = np.linspace(d.lo, d.hi, d.steps)
    for i, (ell, klass, derivs) in enumerate(points):
        want = regime(op.closed, ell)
        if want is not None and klass != want:
            return f"label at L={ell:.17g}: {klass}, closed form {want}"
        if klass == "hyperbolic":
            if derivs is None or len(derivs) != 2 or not abs(derivs[0] * derivs[1] - 1.0) <= 1e-6:
                return "eigenvalues"
            r = op.sample_refs.get(i)
            if r is not None and ell == float(grid[i]):
                got = sorted(math.log10(abs(d)) if d else -math.inf for d in derivs)
                if not (abs(got[0] - r.attracting.log10_deriv) <= 1e-6 and abs(got[1] - r.repelling.log10_deriv) <= 1e-6):
                    return "eigenvalues"
    return boundary_check(d.boundaries, d.lo, d.hi, bounds)


def boundary_matches(boundaries, bounds) -> int:
    return sum(1 for x in bounds if any(abs(x - b) <= BOUNDARY_TOL * max(b, 1.0) for b in boundaries))


def boundary_check(boundaries, lo, hi, bounds) -> str | None:
    inside = [b for b in boundaries if lo < b < hi]
    for b in inside:
        if not any(abs(x - b) <= BOUNDARY_TOL * max(b, 1.0) for x in bounds):
            return "boundary_missed"
    if boundary_matches(inside, bounds) != len(bounds):
        return "boundary_spurious"
    return None


# eigenvalue_products multiplies k chain factors of 10..1e4 each without
# rescaling, which overflows beyond k ~ 100 whatever the instance; timed
# pair ops call it up to this size, census ops at every size.
EIGENVALUE_PRODUCTS_MAX_K = 24


class PairWorkload(Workload):
    name = "pair"
    op_name = "dynamics.BicyclePair"

    counts = {4: 4, 24: 4, 200: 1, 2000: 2}

    @staticmethod
    def families(k: int, census: bool) -> tuple[str, ...]:
        """Rotated inscribed polygons at every size; the noisy family up to
        k = 200 and the generic one up to k = 24 in the timed pool.  At
        k = 2000 consecutive frame lines of a noisy polygon are so nearly
        parallel that the chain's centres lose ~1e-7 and chain_reconstruct
        misses its tolerance: the census keeps that case."""
        if census or k <= 24:
            return ("rotated", "noisy", "generic")
        return ("rotated", "noisy") if k <= 200 else ("rotated",)

    def build(self, rng, census=False):
        ops = []
        for k in self.sizes:
            for family in self.families(k, census):
                for _ in range(self.count(k, census)):
                    ops.append(pair_instance(rng, family, k, census))
        return ops

    def run(self, bg, op):
        v, w = op.polys
        out = {"corresponding": bg.correspondence_check(v, w)}
        pair = bg.BicyclePair(v, w)
        out["alphas"] = bg.angle_sequence(pair)
        out["residual"] = bg.verify_difference_equation(pair)
        track = bg.rear_track(pair)
        out["chain"] = bg.chain_reconstruct(track, 0.5 * pair.length)
        if op.census or op.k <= EIGENVALUE_PRODUCTS_MAX_K:
            out["eigenvalues"] = bg.eigenvalue_products(pair, track)
        out["invariants"] = [
            (bg.area_bivector(p).scalar, bg.j_vector(p), bg.circumcenter_of_mass(p)) for p in (v, w)
        ]
        if op.k <= 200:
            out["trace_poly"] = [bg.trace_polynomial(p).coeffs for p in (v, w)]
        return out

    def check(self, op, out):
        return pair_check(op, out)


def pair_instance(rng, family: str, k: int, census: bool) -> Op:
    """A corresponding pair from a closed form (an inscribed polygon turned
    about its circumcenter) or from the 50-digit propagation along the
    attracting direction."""
    while True:
        if family == "rotated":
            pts = circle(rng, k)
            length = rng.uniform(*(CENSUS_CIRCLE_L if census else TIMED_CIRCLE_L))
            w = rotated(pts, length, 1.0 if rng.uniform() < 0.5 else -1.0)
            r = ref.classify(pts, length)
            if r.klass == "hyperbolic" and (census or well_conditioned(r)):
                return Op("pair", k, family, length, None, pts=pts, other=w, ref=r, census=census)
            continue
        pts, length, r = instance(rng, family, k, census)
        w = ref.propagate(pts, length, r.attracting.direction)[:-1]
        if ref.first_excess(ref.pair_defects(pts, w, length), 1e-14) is None:
            return Op("pair", k, family, length, "attracting", pts=pts, other=w, ref=r, census=census)


def _realized_log10(op: Op) -> float:
    """Reference log10 |derivative| at the fixed direction W_0 - V_0."""
    errs = {
        name: ref.direction_error(op.pts, op.other, op.length, op.ref.branch(name).direction)
        for name in ("attracting", "repelling")
    }
    return op.ref.branch(min(errs, key=errs.get)).log10_deriv


def signed_alphas(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    u = np.roll(v, 1, axis=0) - v
    x = w - v
    return np.arctan2(u[:, 0] * x[:, 1] - u[:, 1] * x[:, 0], (u * x).sum(axis=1))


def pair_check(op: Op, out) -> str | None:
    v, w, length = op.pts, op.other, op.length
    scale = ref.scale_of(v, w)
    if out["corresponding"] is not True:
        return "correspondence"
    diff = np.asarray(out["alphas"]) - signed_alphas(v, w)
    if not np.abs(np.mod(diff + math.pi, 2.0 * math.pi) - math.pi).max() <= ref.REL:
        return "angles"
    if not out["residual"] <= ref.REL * max(length, float(ref.side_lengths(v).max())):
        return "difference_equation"
    vs, ws = out["chain"]
    if not max(np.abs(vs - v).max(), np.abs(ws - w).max()) <= ref.REL * scale:
        return "chain_reconstruct"
    if "eigenvalues" in out and not all(ref.log10_close(x, _realized_log10(op)) for x in out["eigenvalues"]):
        return "eigenvalue_products"
    # A and J are conserved, so both polygons are judged against V's values.
    a_ref, a_mag = ref.area2(v)
    j_ref, j_mag = ref.j_vector(v)
    for area2, jvec, ccm in out["invariants"]:
        if not abs(area2 - a_ref) <= ref.REL * a_mag:
            return "area"
        if not np.abs(np.asarray(jvec) - j_ref).max() <= ref.REL * j_mag:
            return "j_vector"
        c_ref = np.array([-j_ref[1], j_ref[0]]) / (2.0 * a_ref)
        if not np.abs(np.asarray(ccm) - c_ref).max() <= ref.REL * (j_mag / abs(2.0 * a_ref) + np.abs(c_ref).max()):
            return "circumcenter_of_mass"
    if "trace_poly" in out:
        return trace_poly_check(v, out["trace_poly"])
    return None


def trace_poly_check(v: np.ndarray, coeffs) -> str | None:
    """Monic, odd coefficients zero, c_2 = -1/2 sum a_i^2, and equal for both
    polygons; coefficient j is judged against its bound P^j / j!."""
    sides = ref.side_lengths(v)
    perim = float(sides.sum())
    k = len(v)
    j = np.arange(k + 1)
    with np.errstate(over="ignore"):
        bound = np.exp(j * math.log(perim) - np.array([math.lgamma(i + 1.0) for i in j]))
    a, b = (np.asarray(c, dtype=float) for c in coeffs)
    if a.shape != (k + 1,) or b.shape != (k + 1,):
        return "trace_poly_degree"
    if a[0] != 1.0 or b[0] != 1.0:
        return "trace_poly_monic"
    if not np.all(np.abs(a[1::2]) <= ref.REL * bound[1::2]):
        return "trace_poly_odd"
    if not abs(a[2] + 0.5 * float((sides * sides).sum())) <= ref.REL * bound[2]:
        return "trace_poly_c2"
    if not np.all(np.abs(a - b) <= ref.REL * bound):
        return "trace_poly_conjugacy"
    return None


class CliWorkload(Workload):
    """One op is one CLI invocation, ``cli.main(argv)``, timed in-process.

    The wall time of a ``python -m bicyclegeom.cli`` process swings by a
    fifth or more from run to run on a shared host (process start-up is
    kernel work), far beyond what a bound can absorb; so the process's own
    cost is measured as set-up (an interpreter that imports the CLI), and
    after timing the first op of each command and size runs once more as a
    real process, untimed, whose output is checked and whose peak RSS is
    reported."""

    name = "cli"
    op_name = "cli.main"
    rss_of_children = True

    counts = {4: 4, 24: 4, 200: 2, 2000: 2}

    def build(self, rng, census=False):
        ops = []
        for k in self.sizes:
            n = 2 if k == 4 and (census or self.smoke) else self.count(k, census)
            for j in range(n):
                family = "inscribed" if j % 2 == 0 else "noisy"
                pts, length, r = instance(rng, family, k, census)
                branch = "attracting" if j % 2 == 0 else "repelling"
                ops.append(Op("cli-transform", k, family, length, branch, pts=pts, ref=r))
            if k == 4:
                for j in range(n):
                    pts, closed = diagram_instance(rng, j, census)
                    family = "square" if j == 0 else ("quad" if census else "inscribed")
                    ops.append(scan_op("cli-scan", family, pts, closed))
                for _ in range(n):
                    ops.append(pair_instance(rng, "rotated", 4, census))
                    ops[-1].kind = "cli-invariants"
        return ops

    def prepare(self, bg, ops, workdir, tag="op"):
        for i, op in enumerate(ops):
            vfile = workdir / f"{tag}{i}_v.json"
            vfile.write_text(json.dumps({"dim": 2, "vertices": op.pts.tolist()}))
            if op.kind == "cli-transform":
                op.out_path = str(workdir / f"{tag}{i}_out.json")
                op.argv = ["transform", str(vfile), "--ell", repr(op.length), "--branch", op.branch, "-o", op.out_path]
            elif op.kind == "cli-scan":
                d = op.closed
                op.argv = ["scan", str(vfile), "--grid", f"{d.lo!r}:{d.hi!r}:{d.steps}", "--json"]
            else:
                wfile = workdir / f"{tag}{i}_w.json"
                wfile.write_text(json.dumps({"dim": 2, "vertices": op.other.tolist()}))
                op.argv = ["invariants", str(vfile), str(wfile), "--ell", repr(op.length), "--json"]

    def run(self, bg, op):
        """In-process run; returns (exit code, stdout)."""
        if op.out_path and os.path.exists(op.out_path):
            os.remove(op.out_path)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = bg.cli.main(list(op.argv))
        return code, buf.getvalue()

    def run_process(self, op):
        """The same invocation as a ``python -m bicyclegeom.cli`` process."""
        if op.out_path and os.path.exists(op.out_path):
            os.remove(op.out_path)
        proc = subprocess.run(
            [sys.executable, "-m", "bicyclegeom.cli", *op.argv],
            capture_output=True, text=True, env=child_env(), cwd=os.path.dirname(op.out_path or op.argv[1]),
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def run_processes(self, ops):
        """The first op of each command and size, run as a process."""
        out = []
        first = {}
        for i, op in enumerate(ops):
            first.setdefault((op.kind, op.k), i)
        for i in first.values():
            op = ops[i]
            result = self.run_process(op)
            cause = self.raised(result)
            if cause is None:
                bad = self.check(op, result)
                cause = None if bad is None else f"check:{bad}"
            out.append((i, cause))
        return out

    def raised(self, out):
        return f"exit{out[0]}" if out[0] != 0 else None

    def check(self, op, out):
        try:
            return cli_check(op, out[1])
        except (ValueError, KeyError, TypeError, IndexError, OSError):
            return "malformed_output"

    def boundaries_of(self, op, out):
        return json.loads(out[1])["boundaries"] if op.kind == "cli-scan" else None

def cli_check(op: Op, stdout: str) -> str | None:
    if op.kind == "cli-transform":
        with open(op.out_path, encoding="utf-8") as fh:
            w = np.asarray(json.load(fh)["vertices"], dtype=float)
        bad = transform_check(op, w)
        if bad:
            return bad
        eig = [line for line in stdout.splitlines() if line.startswith("branch eigenvalue:")]
        if len(eig) != 1 or not ref.log10_close(float(eig[0].split(":")[1]), op.ref.branch(op.branch).log10_deriv):
            return "branch_eigenvalue"
        return None
    data = json.loads(stdout)
    if op.kind == "cli-scan":
        points = [(p["L"], p["class"], p["eigenvalues"]) for p in data["grid"]]
        return scan_check(op, points, data["boundaries"])
    return invariants_check(op, data)


def invariants_check(op: Op, data) -> str | None:
    v, w = op.pts, op.other
    scale = ref.scale_of(v, w)
    if data["is_bicycle_pair"] is not True:
        return "correspondence"
    for key, poly in (("polygon", v), ("second", w)):
        rep = data[key]
        if not abs(rep["perimeter"]["value"] - float(ref.side_lengths(poly).sum())) <= ref.REL * len(poly) * scale:
            return "perimeter"
        a_ref, a_mag = ref.area2(poly)
        if not abs(rep["area_bivector"]["value"] - a_ref) <= ref.REL * a_mag:
            return "area"
        j_ref, j_mag = ref.j_vector(poly)
        if not np.abs(np.asarray(rep["j_vector"]["value"]) - j_ref).max() <= ref.REL * j_mag:
            return "j_vector"
        if "eigenvalues_at_L" not in rep:
            return "eigenvalues"
        got = sorted(math.log10(abs(x)) for x in rep["eigenvalues_at_L"]["value"])
        if not (abs(got[0] - op.ref.attracting.log10_deriv) <= 1e-6 and abs(got[1] - op.ref.repelling.log10_deriv) <= 1e-6):
            return "eigenvalues"
    if abs(data["frame_length"]["value"] - op.length) > ref.REL * max(op.length, 1.0):
        return "frame_length"
    return None


def child_env() -> dict:
    """Environment of CLI child processes: the checkout's sources first and
    BLAS pinned to one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


WORKLOADS = {w.name: w for w in (TransformWorkload, PairWorkload, CliWorkload)}
