"""Shared generators and helpers for the test suite."""

import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import bicyclegeom as bg


@functools.cache
def bench_reference():
    """The benchmark's 50-digit mpmath reference (bench/reference.py), imported
    by path; it shares no code with bicyclegeom."""
    path = Path(__file__).resolve().parent.parent / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def overflow_recipe(k):
    """(v, L) of the ROADMAP overflow recipe: the raw side product passes 1e200
    near k = 150 and the double range near k = 500; the class is elliptic."""
    v = bg.Polygon(np.random.default_rng(2).normal(size=(k, 2)) * 2)
    return v, 3.0 * float(v.side_lengths().max())


def survey_cases():
    """The ROADMAP survey: 300 random 6-29-gons, vertices normal x 1.5, L
    uniform in [0.2, 2] x the mean side, drawn from default_rng(5)."""
    rng = np.random.default_rng(5)
    out = []
    for _ in range(300):
        k = int(rng.integers(6, 30))
        v = bg.Polygon(rng.normal(size=(k, 2)) * 1.5)
        out.append((v, float(rng.uniform(0.2, 2.0)) * float(v.side_lengths().mean())))
    return out


def generic_200gons():
    """The exact-determinant recipe: 30 generic 200-gons, vertices normal x 1.5,
    L uniform in [0.3, 2] x the mean side, drawn from default_rng(9)."""
    rng = np.random.default_rng(9)
    out = []
    for _ in range(30):
        v = bg.Polygon(rng.normal(size=(200, 2)) * 1.5)
        out.append((v, float(rng.uniform(0.3, 2.0)) * float(v.side_lengths().mean())))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_polygon(rng, k=None, dim=2, scale=2.0):
    """Random closed polygon with reasonably conditioned sides."""
    k = k or int(rng.integers(4, 9))
    while True:
        pts = rng.normal(size=(k, dim)) * scale
        try:
            v = bg.Polygon(pts)
        except bg.GeometryError:
            continue
        if v.side_lengths().min() > 0.05 * scale:
            return v


def random_butterfly(rng, scale=2.0):
    """Crossed quadrilateral from a random isosceles trapezoid, randomly placed."""
    p = rng.uniform(0.3, 1.8)
    q = rng.uniform(0.3, 1.8)
    y1 = rng.uniform(-1.0, 1.0)
    y2 = y1 + rng.uniform(0.4, 2.0)
    quad = np.array([(-p, y1), (-q, y2), (p, y1), (q, y2)])  # butterfly order A B D C
    th = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    return bg.Polygon(quad @ rot.T + rng.normal(size=2) * scale)


def random_nonbutterfly_quad(rng, scale=2.0):
    """Random quadrilateral that is far from the butterfly locus."""
    while True:
        v = random_polygon(rng, k=4, dim=2, scale=scale)
        mirrored = bg.perp_bisector_reflect(v.vertex(1), v.vertex(0), v.vertex(2))
        if np.linalg.norm(v.vertex(3) - mirrored) > 0.1 * scale:
            return v


def random_cyclic_convex(rng, k=None):
    """Convex polygon inscribed in a random circle."""
    k = k or int(rng.integers(3, 9))
    while True:
        angs = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
        gaps = np.diff(np.append(angs, angs[0] + 2.0 * math.pi))
        if gaps.min() > 0.2 and gaps.max() < 2.0 * math.pi - 0.2:
            break
    radius = rng.uniform(0.8, 2.5)
    center = rng.normal(size=2)
    pts = center + radius * np.stack([np.cos(angs), np.sin(angs)], axis=1)
    return bg.Polygon(pts)


def circle_polygon(rng, k, noise=0.0):
    """k-gon on the circle of diameter 1 about the origin, angles jittered;
    noise > 0 scales each vertex radius by a factor in [1 - noise, 1 + noise]."""
    angs = 2.0 * math.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, k)) / k
    rad = 0.5 * (1.0 + noise * rng.uniform(-1.0, 1.0, k))
    return bg.Polygon(rad[:, None] * np.stack([np.cos(angs), np.sin(angs)], axis=1))


# (k, radial noise, L) far above desk scale; smaller L underflows at k = 2000
LARGE_CIRCLES = [(k, noise, L) for k in (200, 2000) for noise in (0.0, 0.02) for L in (0.9, 0.95)]


def random_concentric(rng, k2=None, r1=None, r2=None):
    """2k-gon alternating between two concentric circles, ordered by angle."""
    k2 = k2 or 2 * int(rng.integers(2, 5))
    r1 = r1 or rng.uniform(1.5, 2.5)
    r2 = r2 or rng.uniform(0.6, 1.2)
    while True:
        angs = np.sort(rng.uniform(0.0, 2.0 * math.pi, k2))
        if np.diff(np.append(angs, angs[0] + 2 * math.pi)).min() > 0.15:
            break
    center = rng.normal(size=2)
    rad = np.where(np.arange(k2) % 2 == 0, r1, r2)
    pts = center + rad[:, None] * np.stack([np.cos(angs), np.sin(angs)], axis=1)
    return bg.Polygon(pts), center, r1, r2


def hyperbolic_length(v, rng, tries=120):
    """A length parameter inside a hyperbolic window of v, or None."""
    if len(v) == 4:
        info = bg.classify_quadrilateral(v)
        if info.kind == "generic" and info.r1 - info.r2 > 1e-3 * info.r1:
            lo, hi = info.r1 - info.r2, info.r1 + info.r2
            for frac in (0.5, 0.3, 0.7, 0.4, 0.6):
                L = lo + frac * (hi - lo)
                if _off_poles(v, L) and _is_hyperbolic(v, L):
                    return L
    sides = v.side_lengths()
    grid = np.linspace(0.15 * sides.min(), 1.2 * v.perimeter() / 2.0, tries)
    hits = [float(L) for L in grid if _off_poles(v, L) and _is_hyperbolic(v, L)]
    if not hits:
        return None
    return hits[len(hits) // 2]


def _off_poles(v, L, margin=1e-3):
    return all(abs(L - a) > margin * max(L, a) for a in v.side_lengths())


def _is_hyperbolic(v, L):
    try:
        return bg.classify(bg.polygon_monodromy(v, L)) is bg.MonodromyClass.HYPERBOLIC
    except bg.GeometryError:
        return False


def random_hyperbolic_pair(rng, k=4, scale=2.0):
    """(v, w, L) with w = transform(v, L) at a hyperbolic length."""
    while True:
        v = random_polygon(rng, k=k, dim=2, scale=scale)
        L = hyperbolic_length(v, rng)
        if L is None:
            continue
        try:
            w = bg.transform(v, L)
        except bg.GeometryError:
            continue
        return v, w, L


def propagated_pair_3d(rng, k=6):
    """A genuinely 3D corresponding pair built from a fixed direction of the
    Lorentz monodromy."""
    while True:
        v = random_polygon(rng, k=k, dim=3, scale=1.5)
        L = float(rng.uniform(0.6, 1.8) * v.side_lengths().mean())
        if not _off_poles(v, L):
            continue
        try:
            m = bg.lorentz_monodromy(v, L)
        except bg.GeometryError:
            continue
        for u, _lam in bg.lorentz_fixed_directions(m):
            res = bg.propagate(v, v.vertex(0) + L * u)
            if res.closure_defect < 1e-8 * v.perimeter():
                return v, res.closed_polygon(), L


def lambda_grid(v, n=50, lo=0.1, hi=None, margin=1e-3):
    """Spectral-parameter grid avoiding the side-length poles of v."""
    hi = hi or 1.5 * float(v.side_lengths().max())
    sides = v.side_lengths()
    out = []
    for lam in np.linspace(lo, hi, 2 * n):
        lam = float(lam)
        if all(abs(lam - a) > margin * max(lam, a) for a in sides):
            out.append(lam)
        if len(out) == n:
            break
    return out


def congruent(p, q, tol=1e-8):
    """Same shape up to rigid motion: compare sorted pairwise distance multisets."""
    dp = np.sort([np.linalg.norm(a - b) for a in p.vertices for b in p.vertices])
    dq = np.sort([np.linalg.norm(a - b) for a in q.vertices for b in q.vertices])
    return float(np.abs(dp - dq).max()) <= tol * max(1.0, dp.max())
