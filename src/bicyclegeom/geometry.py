"""Points, closed polygons, reflections, and the elementary bicycle step.

Coordinates are double precision throughout; predicates use the relative
tolerances collected in :class:`Tolerance`.  All operations are pure
functions of their inputs and all values are immutable, so everything in
this module is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLine, DimensionMismatch, WrongArity


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerances: eps_geom for geometric predicates, eps_class
    for monodromy class boundaries."""

    eps_geom: float = 1e-9
    eps_class: float = 1e-8

    def __post_init__(self):
        if self.eps_geom <= 0.0 or self.eps_class <= 0.0:
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerance()


def as_vec(p) -> np.ndarray:
    """Coerce to a finite float vector of dimension >= 2."""
    v = np.asarray(p, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise DimensionMismatch(f"expected a vector of dimension >= 2, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector coordinates must be finite")
    return v


def check_same_dim(*vectors: np.ndarray) -> int:
    dims = {v.shape[0] for v in vectors}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed dimensions {sorted(dims)}")
    return dims.pop()


class Polygon:
    """Closed polygon: cyclically indexed vertices in R^n, n >= 2.

    Vertex i+k is vertex i; consecutive vertices must be distinct so that
    every side has positive length.  The vertex array is read-only.
    """

    def __init__(self, vertices, name: str | None = None):
        pts = np.array(vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 3:
            raise WrongArity("a polygon needs at least 3 vertices")
        if pts.shape[1] < 2:
            raise DimensionMismatch("vertices must live in dimension >= 2")
        if not np.all(np.isfinite(pts)):
            raise ValueError("vertex coordinates must be finite")
        gaps = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        if gaps.min() <= 1e-12 * max(1.0, float(np.abs(pts).max())):
            raise DegenerateLine("consecutive vertices must be distinct")
        pts.setflags(write=False)
        self.vertices = pts
        self.name = name

    def __len__(self) -> int:
        return self.vertices.shape[0]

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def vertex(self, i: int) -> np.ndarray:
        return self.vertices[i % len(self)]

    def sides(self) -> np.ndarray:
        """Side vectors V_{i+1} - V_i, one row per side."""
        return np.roll(self.vertices, -1, axis=0) - self.vertices

    def side_lengths(self) -> np.ndarray:
        return np.linalg.norm(self.sides(), axis=1)

    def side_directions(self) -> np.ndarray:
        """Direction angles of the sides, counterclockwise from +x (dim 2 only)."""
        if self.dim != 2:
            raise DimensionMismatch("side directions are defined for plane polygons")
        s = self.sides()
        return np.arctan2(s[:, 1], s[:, 0])

    def perimeter(self) -> float:
        return float(self.side_lengths().sum())

    def scale(self) -> float:
        """Magnitude used to make tolerances relative."""
        return max(1.0, float(np.abs(self.vertices).max()))

    def with_vertex(self, i: int, p) -> "Polygon":
        pts = self.vertices.copy()
        pts[i % len(self)] = as_vec(p)
        return Polygon(pts, name=self.name)

    def translated(self, shift) -> "Polygon":
        return Polygon(self.vertices + as_vec(shift), name=self.name)

    def rolled(self, shift: int) -> "Polygon":
        """Cyclic relabeling V_i -> V_{i+shift}."""
        return Polygon(np.roll(self.vertices, -shift, axis=0), name=self.name)

    def reversed(self) -> "Polygon":
        return Polygon(self.vertices[::-1], name=self.name)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Polygon{label} k={len(self)} dim={self.dim}>"


def _reflect(p: np.ndarray, a: np.ndarray, b: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Reflection kernel on validated float arrays whose rows broadcast:
    reflect each p in the line through its a and b.

    Checks only the axis, which propagated data can collapse.
    """
    d = b - a
    length = np.sqrt((d * d).sum(-1, keepdims=True))
    reach = np.sqrt(np.maximum((a * a).sum(-1, keepdims=True), (b * b).sum(-1, keepdims=True)))
    if (length <= tol.eps_geom * np.maximum(reach, 1.0)).any():
        raise DegenerateLine("reflection axis through coincident points")
    d = d / length
    foot = a + d * ((p - a) * d).sum(-1, keepdims=True)
    return 2.0 * foot - p


def reflect_in_line(p, a, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Reflect point p in the line through a and b.

    Components along the line are kept, the perpendicular part is negated;
    the result stays in the affine span of {p, a, b}.
    """
    p, a, b = as_vec(p), as_vec(a), as_vec(b)
    check_same_dim(p, a, b)
    return _reflect(p, a, b, tol)


def perp_bisector_reflect(p, a, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Reflect p in the perpendicular bisector hyperplane of segment ab.

    Swaps distances: |result - a| = |p - b| and |result - b| = |p - a|.
    """
    p, a, b = as_vec(p), as_vec(a), as_vec(b)
    check_same_dim(p, a, b)
    n = b - a
    length = np.linalg.norm(n)
    if length <= tol.eps_geom * max(np.linalg.norm(a), np.linalg.norm(b), 1.0):
        raise DegenerateLine("perpendicular bisector of coincident points")
    n = n / length
    mid = 0.5 * (a + b)
    return p - 2.0 * np.dot(p - mid, n) * n


def bicycle_step(v1, v2, w1, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """One step of the discrete bicycle construction.

    Translates w1 along v1->v2 and reflects the result in the line (w1, v2),
    producing w2 with |v2 - w2| = |v1 - w1| and |w1 - w2| = |v1 - v2|.
    The quadruple (v2, v1, w1, w2) forms a crossed isosceles-trapezoid
    quadrilateral, so equivalently w2 = perp_bisector_reflect(v1, v2, w1).
    """
    v1, v2, w1 = as_vec(v1), as_vec(v2), as_vec(w1)
    check_same_dim(v1, v2, w1)
    if np.linalg.norm(w1 - v1) <= tol.eps_geom * max(1.0, np.linalg.norm(v1)):
        raise DegenerateLine("zero-length frame segment v1 w1")
    return _reflect(w1 + (v2 - v1), w1, v2, tol)


def is_darboux_butterfly(q, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether four points (P1, P2, P3, P4), in this order, form a Darboux
    butterfly: the crossed quadrilateral made of the lateral sides and the
    diagonals of an isosceles trapezoid.

    Characterization used: P4 is the reflection of P2 in the perpendicular
    bisector hyperplane of P1 P3.  Invariant under rigid motions; holds
    identically for collinear symmetric degenerations.
    """
    pts = q.vertices if isinstance(q, Polygon) else np.asarray(q, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != 4:
        raise WrongArity("a butterfly test needs exactly 4 vertices")
    p1, p2, p3, p4 = pts
    mirrored = perp_bisector_reflect(p2, p1, p3, tol)
    span = max(float(np.linalg.norm(pts[i] - pts[j])) for i in range(4) for j in range(i + 1, 4))
    return float(np.linalg.norm(p4 - mirrored)) <= tol.eps_geom * max(span, 1e-300)
