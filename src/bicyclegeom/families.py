"""Closed-form dynamics for special polygon families.

Convex polygons inscribed in a circle are rotated about the circumcenter;
2k-gons alternating between two concentric circles are pushed around by a
fixed angular shift; a plane quadrilateral's whole regime diagram follows
from two radii about the intersection of its diagonal bisectors; and
equilateral polygons with equal k-diagonals ("bicycle polygons") come in
two-circle families when k is odd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ChordTooLong,
    DegenerateTriangle,
    DimensionMismatch,
    NotConcentricAlternating,
    WrongArity,
)
from .geometry import (
    DEFAULT_TOL, Polygon, Tolerance, _bisector_reflect, _coincident, _cross, _cyc, _dot, _meet, _norm,
    check_positive, is_darboux_butterfly,
)
from .invariants import triangle_circumcenter
from .monodromy import MonodromyClass

RegimeMap = Callable[[float], MonodromyClass]


@dataclass(frozen=True)
class CyclicClassification:
    is_cyclic_convex: bool
    diameter: float | None
    center: np.ndarray | None
    regime: RegimeMap | None


def _banded_regime(boundaries: list[float], classes: list[MonodromyClass], eps_class: float) -> RegimeMap:
    """Piecewise-constant classification with parabolic bands at the boundaries."""

    def regime(ell: float) -> MonodromyClass:
        check_positive(ell)
        for b in boundaries:
            if abs(ell - b) <= eps_class * b:
                return MonodromyClass.PARABOLIC
        i = sum(1 for b in boundaries if ell > b)
        return classes[i]

    return regime


def classify_cyclic(v: Polygon, tol: Tolerance = DEFAULT_TOL) -> CyclicClassification:
    """Detect a convex polygon inscribed in a circle and return its regime map.

    The circle is fitted through three vertices and checked against the
    rest; convexity requires uniformly oriented turns with total turning
    of one full revolution (this excludes star traversals).
    """
    if v.dim != 2:
        raise DimensionMismatch("cyclic detection is a plane construction")
    no = CyclicClassification(False, None, None, None)
    try:
        center = triangle_circumcenter(v.vertex(0), v.vertex(1), v.vertex(2), tol)
    except DegenerateTriangle:
        return no
    radii = _norm(v.vertices - center)
    r = float(radii.mean())
    if not np.abs(radii - r).max() <= tol.eps_geom * r:  # NaN radii fail
        return no
    s1 = v.sides()
    s0 = _cyc(s1, -1)
    cross = _cross(s0, s1)
    # every turn after the first must share the first one's orientation
    if (cross[1:] * math.copysign(1.0, cross[0]) <= 0.0).any():
        return no
    if abs(abs(np.arctan2(cross, _dot(s0, s1)).sum()) - 2.0 * math.pi) > 1e-9:
        return no
    d = 2.0 * r
    regime = _banded_regime(
        [d], [MonodromyClass.HYPERBOLIC, MonodromyClass.ELLIPTIC], tol.eps_class
    )
    return CyclicClassification(True, d, center, regime)


def rotation_transform(v: Polygon, length: float, tol: Tolerance = DEFAULT_TOL) -> Polygon:
    """Rotate a convex inscribed polygon about its circumcenter by the angle
    whose chord is the frame length (counterclockwise branch).

    Realizes the bicycle transformation for every length in (0, circumdiameter];
    length equal to the diameter gives the antipodal map.
    """
    check_positive(length)
    info = classify_cyclic(v, tol)
    if not info.is_cyclic_convex:
        raise ValueError("not a convex inscribed polygon")
    if length > info.diameter * (1.0 + tol.eps_geom):
        raise ChordTooLong(f"chord {length} exceeds the circumdiameter {info.diameter}")
    theta = 2.0 * math.asin(min(length / info.diameter, 1.0))
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return Polygon((v.vertices - info.center) @ rot.T + info.center, name=v.name)


def _bisector_intersection(a, c, b, d, tol: Tolerance) -> np.ndarray | None:
    """Intersection of the perpendicular bisectors of segments ac and bd;
    None when the segments are parallel."""
    normals = np.stack([c - a, d - b])[:, ::-1] * (-1.0, 1.0)  # (x, y) -> (-y, x): bisector directions
    point, parallel = _meet(0.5 * (a + c), normals[0], 0.5 * (b + d), normals[1], tol)
    return None if parallel else point


def concentric_transform(v: Polygon, w1_angle: float, tol: Tolerance = DEFAULT_TOL) -> Polygon:
    """Bicycle transformation of a 2k-gon alternating between two concentric
    circles: the image alternates between the swapped circles and every
    vertex keeps the angular offset of the seed.

    The square of this map is a pure rotation about the common center.
    """
    if v.dim != 2:
        raise DimensionMismatch("concentric construction is a plane construction")
    k = len(v)
    if k % 2 != 0:
        raise NotConcentricAlternating("an alternating polygon has an even vertex count")
    center = _bisector_intersection(v.vertex(0), v.vertex(2), v.vertex(1), v.vertex(3), tol)
    if center is None:
        raise NotConcentricAlternating("same-parity vertices lie on parallel chords")
    radii = _norm(v.vertices - center)
    r_even = float(radii[0::2].mean())
    r_odd = float(radii[1::2].mean())
    spread = max(np.abs(radii[0::2] - r_even).max(), np.abs(radii[1::2] - r_odd).max())
    if spread > tol.eps_geom * max(r_even, r_odd):
        raise NotConcentricAlternating("vertices do not alternate between two concentric circles")
    angles = np.arctan2(v.vertices[:, 1] - center[1], v.vertices[:, 0] - center[0])
    shifts = w1_angle + (angles - angles[0])
    out_radii = np.where(np.arange(k) % 2 == 0, r_odd, r_even)
    pts = center + out_radii[:, None] * np.stack([np.cos(shifts), np.sin(shifts)], axis=1)
    return Polygon(pts, name=v.name)


@dataclass(frozen=True)
class QuadClassification:
    """Regime diagram of a plane quadrilateral.

    kind is one of "generic" (two concentric circles about the intersection
    of the diagonal bisectors), "parallel" (diagonals on two parallel
    lines, zero signed area, the gap playing the role of r1 - r2) or
    "butterfly" (identity monodromy at every length).
    """

    kind: str
    regime: RegimeMap
    center: np.ndarray | None = None
    r1: float | None = None
    r2: float | None = None
    direction: np.ndarray | None = None
    gap: float | None = None
    boundaries: tuple[float, ...] = field(default=())


def classify_quadrilateral(q: Polygon, tol: Tolerance = DEFAULT_TOL) -> QuadClassification:
    """Classify a quadrilateral ABCD by the circles through its diagonal
    endpoints: elliptic below r1 - r2 and above r1 + r2, hyperbolic in
    between, parabolic at the boundaries; butterflies are identity at
    every length; parallel-diagonal quadrilaterals use the line gap as the
    single boundary."""
    if q.dim != 2:
        raise DimensionMismatch("quadrilateral classification is a plane construction")
    if len(q) != 4:
        raise WrongArity("quadrilateral classification needs exactly 4 vertices")
    a, b, c, d = (q.vertex(i) for i in range(4))
    if is_darboux_butterfly(q, tol):
        return QuadClassification(
            kind="butterfly", regime=_banded_regime([], [MonodromyClass.IDENTITY], tol.eps_class)
        )
    center = _bisector_intersection(a, c, b, d, tol)
    if center is None:
        diag = (c - a) / np.linalg.norm(c - a)
        normal = np.array([-diag[1], diag[0]])
        gap = abs(float((b - a) @ normal))
        regime = _banded_regime(
            [gap], [MonodromyClass.ELLIPTIC, MonodromyClass.HYPERBOLIC], tol.eps_class
        )
        return QuadClassification(
            kind="parallel", regime=regime, direction=diag, gap=gap, boundaries=(gap,)
        )
    r_ac = 0.5 * (np.linalg.norm(a - center) + np.linalg.norm(c - center))
    r_bd = 0.5 * (np.linalg.norm(b - center) + np.linalg.norm(d - center))
    r1, r2 = max(r_ac, r_bd), min(r_ac, r_bd)
    boundaries = [r1 + r2]
    classes = [MonodromyClass.ELLIPTIC, MonodromyClass.ELLIPTIC]
    if r1 - r2 > tol.eps_geom * r1:
        boundaries.insert(0, r1 - r2)
        classes = [MonodromyClass.ELLIPTIC, MonodromyClass.HYPERBOLIC, MonodromyClass.ELLIPTIC]
    else:
        classes = [MonodromyClass.HYPERBOLIC, MonodromyClass.ELLIPTIC]
    regime = _banded_regime(boundaries, classes, tol.eps_class)
    return QuadClassification(
        kind="generic",
        regime=regime,
        center=center,
        r1=float(r1),
        r2=float(r2),
        boundaries=tuple(boundaries),
    )


@dataclass(frozen=True)
class NGonSpec:
    """Two-circle construction data for an equal-diagonal equilateral polygon:
    n even vertices alternating between radii r1 and r2, k odd."""

    n: int
    k: int
    r1: float
    r2: float
    phase: float = 0.0

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError("n must be even and at least 4")
        if self.k < 1 or self.k % 2 != 1 or self.k >= self.n // 2:
            raise ValueError("k must be odd with 1 <= k < n/2")
        check_positive(self.r1, "r1")
        check_positive(self.r2, "r2")


def ngon_construct(spec: NGonSpec) -> Polygon:
    """Vertices at angles phase + 2 pi i / n, radius r1 for even i and r2 for
    odd i.  Equilateral with all k-diagonals equal by the alternating
    symmetry, hence a verified bicycle polygon."""
    i = np.arange(spec.n)
    ang = spec.phase + 2.0 * math.pi * i / spec.n
    rad = np.where(i % 2 == 0, spec.r1, spec.r2)
    return Polygon(np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1))


def ngon_residuals(v: Polygon, k: int, tol: Tolerance = DEFAULT_TOL) -> tuple[float, int]:
    """Worst relative defect of the bicycle-polygon property and the index
    where it occurs.

    Checks equal sides, equal k-diagonals, and the butterfly condition on
    every quadruple (V_i, V_{i+1}, V_{i+k+1}, V_{i+k}).
    """
    if not (1 <= k < len(v) / 2):
        raise ValueError("need 1 <= k < n/2")
    pts = v.vertices
    sides = v.side_lengths()
    across = _cyc(pts, k)
    far = _cyc(pts, k + 1)
    diags = _norm(across - pts)
    scale = float(sides.mean())
    with np.errstate(divide="ignore", invalid="ignore"):
        mirrored = _bisector_reflect(_cyc(pts, 1), pts, far)
    fly_dev = _norm(across - mirrored) / scale
    fly_dev[_coincident(pts, far, tol)] = math.inf
    side_dev = np.abs(sides - sides.mean()) / scale
    diag_dev = np.abs(diags - diags.mean()) / max(float(diags.mean()), scale)
    dev = np.maximum(np.maximum(side_dev, diag_dev), fly_dev)
    worst_idx = int(np.argmax(dev))
    return float(dev[worst_idx]), worst_idx


def ngon_verify(v: Polygon, k: int, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether v is an equilateral polygon whose k-diagonals all have the
    same length, with every diagonal quadruple a Darboux butterfly."""
    worst, _ = ngon_residuals(v, k, tol)
    return worst <= tol.eps_geom


RANK_CUT = 1e-12  # a Jacobian singular value at most this times the largest counts as zero


@dataclass(frozen=True)
class RigidReport:
    """Deformations of the regular n-gon among (n, k)-polygons, similarities excluded, and the
    gap that decided the count: the largest zero and smallest nonzero singular value, over the largest."""

    n: int
    k: int
    deformations: int
    zero_sv: float
    nonzero_sv: float


def _rigidity_jacobian(n: int, k: int) -> np.ndarray:
    """Jacobian of |s_i|^2 = |s_0|^2 and |d_i|^2 = |d_0|^2, i = 1..n-1, with s_i =
    V_{i+1} - V_i and d_i = V_{i+k} - V_i, in (x_0, y_0, x_1, ...) at the
    regular n-gon of ngon_construct."""
    ang = 2.0 * math.pi * np.arange(n) / n
    pts, eye = np.stack([np.cos(ang), np.sin(ang)], axis=1), np.eye(n)
    # row i of a block: the gradient of |V_{i+m} - V_i|^2, 2 (V_{i+m} - V_i) at V_{i+m}, its negative at V_i
    grads = [
        ((_cyc(eye, m) - eye)[:, :, None] * 2.0 * (_cyc(pts, m) - pts)[:, None, :]).reshape(n, 2 * n)
        for m in (1, k)
    ]
    return np.concatenate([g[1:] - g[0] for g in grads])


def rigid_check(n: int, k: int) -> RigidReport:
    """Kernel dimension of the constraint Jacobian at the regular n-gon less the 4 similarities (two
    translations, a rotation, a scale).  0 certifies local rigidity: the solution set is then smooth
    there and is the similarity orbit.  ValueError when a singular value is within 100x of RANK_CUT."""
    if not 1 <= k < n / 2:
        raise ValueError(f"need 1 <= k < n/2, got n={n}, k={k}")
    rel = np.linalg.svd(_rigidity_jacobian(n, k), compute_uv=False)
    rel /= rel[0]
    rank = int(np.count_nonzero(rel > RANK_CUT))  # descending; the similarities keep rank < len(rel)
    zero_sv, nonzero_sv = float(rel[rank]), float(rel[rank - 1])
    if not zero_sv * 100.0 <= RANK_CUT <= nonzero_sv / 100.0:
        raise ValueError(f"rank undecided at n={n}, k={k}: largest zero singular value {zero_sv:.3g}, "
                         f"smallest nonzero {nonzero_sv:.3g}, cut {RANK_CUT:g}")
    return RigidReport(n, k, 2 * n - rank - 4, zero_sv, nonzero_sv)
