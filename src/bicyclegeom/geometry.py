"""Points, closed polygons, reflections, and the elementary bicycle step,
which (like recutting) is a reflection in a perpendicular bisector.  Three
unchecked row kernels, that reflection, the angle at a vertex and the meet
of two plane lines, serve functions that validate once.

Coordinates are double precision throughout; predicates use the relative
tolerances collected in :class:`Tolerance`.  All operations are pure
functions of their inputs and all values are immutable, so everything in
this module is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLine, DimensionMismatch, WrongArity


def check_positive(x: float, what: str = "length parameter") -> None:
    """The one rule for a positive parameter: ValueError, naming x, unless
    0 < x < inf (so NaN is refused too)."""
    if not 0.0 < x < np.inf:
        raise ValueError(f"{what} must be positive and finite, got {float(x)!r}")


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerances, each a multiple of a size the inputs carry with
    no absolute floor, so answers do not depend on the unit of length:
    eps_geom for geometric predicates, eps_class for class boundaries."""

    eps_geom: float = 1e-9
    eps_class: float = 1e-8

    def __post_init__(self):
        check_positive(self.eps_geom, "eps_geom")
        check_positive(self.eps_class, "eps_class")


DEFAULT_TOL = Tolerance()
_ROOT_HALF_MAX = float(np.sqrt(np.finfo(float).max / 2))  # below it a square stays in half the double range
_TINY = float(np.finfo(float).tiny)  # the smallest normal double, 2**-1022 = (2**-511)**2


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


def _cyc(x: np.ndarray, s: int) -> np.ndarray:
    """Cyclic shift along the first axis, row i of the result being row i + s
    of x: np.roll(x, -s, axis=0) as two slices, without np.roll's overhead."""
    s %= len(x)
    return np.concatenate((x[s:], x[:s]))


class Polygon:
    """Closed polygon: cyclically indexed vertices in R^n, n >= 2.

    Vertex i+k is vertex i; consecutive vertices must be distinct, and each
    squared coordinate and side a normal double.  The vertex array, the side
    vectors and the side lengths are computed once and read-only.
    """

    def __init__(self, vertices, name: str | None = None):
        pts = np.array(vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 3:
            raise WrongArity("a polygon needs at least 3 vertices")
        if pts.shape[1] < 2:
            raise DimensionMismatch("vertices must live in dimension >= 2")
        # top is NaN or inf where a coordinate is; |V|^2 and |side|^2 <= dim (2 top)^2 are the largest squares
        top, limit = float(np.abs(pts).max()), _ROOT_HALF_MAX / (2.0 * pts.shape[1] ** 0.5)
        if not top <= limit:
            raise ValueError(f"vertex coordinates must be finite and at most {limit:.6g}, got {top!r}")
        sides = _cyc(pts, 1) - pts
        sq = _dot(sides, sides)
        gaps = np.sqrt(sq)
        if not (gaps.min() > 1e-12 * top and sq.min() >= _TINY):
            e = -np.frexp(top)[1]  # over 2**-e, top lies in [0.5, 1) and no square underflows
            unit = _norm(np.ldexp(sides, e)).min()
            if not unit > 1e-12 * np.ldexp(top, e):
                raise DegenerateLine("consecutive vertices must be distinct")
            raise ValueError(f"side lengths must be at least {_TINY**0.5:.6g}, got {float(np.ldexp(unit, -e))!r}")
        for arr in (pts, sides, gaps):
            arr.setflags(write=False)
        self.vertices, self._sides, self._side_lengths = pts, sides, gaps
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
        return self._sides

    def side_lengths(self) -> np.ndarray:
        return self._side_lengths

    def side_directions(self) -> np.ndarray:
        """Direction angles of the sides, counterclockwise from +x (dim 2 only)."""
        if self.dim != 2:
            raise DimensionMismatch("side directions are defined for plane polygons")
        s = self.sides()
        return np.arctan2(s[:, 1], s[:, 0])

    def perimeter(self) -> float:
        return float(self._side_lengths.sum())

    def with_vertex(self, i: int, p) -> "Polygon":
        pts = self.vertices.copy()
        pts[i % len(self)] = as_vec(p)
        return Polygon(pts, name=self.name)

    def translated(self, shift) -> "Polygon":
        return Polygon(self.vertices + as_vec(shift), name=self.name)

    def rolled(self, shift: int) -> "Polygon":
        """Cyclic relabeling V_i -> V_{i+shift}."""
        return Polygon(_cyc(self.vertices, shift), name=self.name)

    def reversed(self) -> "Polygon":
        return Polygon(self.vertices[::-1], name=self.name)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Polygon{label} k={len(self)} dim={self.dim}>"


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row dot products over the last axis as column multiply-adds, in column
    order (so _norm is bit-equal to np.linalg.norm(x, axis=-1)), without
    np.vecdot's per-row dispatch; tests/test_row_dot.py lists where it stays."""
    out = x[..., 0] * y[..., 0]
    for j in range(1, x.shape[-1]):
        out += x[..., j] * y[..., j]
    return out


def _norm(x: np.ndarray) -> np.ndarray:
    """Row lengths over the last axis."""
    return np.sqrt(_dot(x, x))


def _coincident(a: np.ndarray, b: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Row mask of the degeneracy rule |b - a| <= eps_geom * max(|a|, |b|);
    a NaN row counts as coincident."""
    reach = np.sqrt(np.maximum(_dot(a, a), _dot(b, b)))
    return ~(_norm(b - a) > tol.eps_geom * reach)


def _bisector_reflect(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unchecked: reflect each row p in the perpendicular bisector of its a b,
    p - ((2p - a - b).n / n.n) n with n = b - a (NaN or inf if a = b)."""
    n = b - a
    return p - (np.vecdot(2.0 * p - a - b, n) / np.vecdot(n, n))[..., None] * n


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plane cross product a x b, row by row."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _angle_at(base: np.ndarray, p: np.ndarray, q: np.ndarray, signed: bool = False) -> np.ndarray:
    """Unchecked: angle at each row of base between the rays to p and to q.

    Signed (counterclockwise positive, in (-pi, pi]) in the plane when
    requested; unsigned in [0, pi] otherwise.  The signed convention is what
    makes the frame-angle difference equation hold on both monodromy
    branches; a 2 pi wrap in any one angle flips both sides of that
    equation together, so the branch cut is harmless.
    """
    u, w = p - base, q - base
    e = -np.frexp(max(np.abs(u).max(), np.abs(w).max()))[1]  # over 2**-e the rays give the same bits
    u, w = np.ldexp(u, e), np.ldexp(w, e)  # at every scale, and rej, of degree 4, stays in range
    dot = _dot(u, w)
    if base.shape[-1] == 2:
        cross = _cross(u, w)
        return np.arctan2(cross if signed else np.abs(cross), dot)
    rej = _dot(u, u) * _dot(w, w) - dot * dot
    return np.arctan2(np.sqrt(np.maximum(rej, 0.0)), dot)


def _meet(p: np.ndarray, d: np.ndarray, q: np.ndarray, e: np.ndarray, tol: Tolerance):
    """Unchecked: rows of the intersection of the plane lines p + t d and
    q + s e, and the parallel mask |d x e| <= eps_geom |d| |e|; parallel
    rows come out inf or NaN."""
    cross = _cross(d, e)
    parallel = np.abs(cross) <= tol.eps_geom * _norm(d) * _norm(e)
    with np.errstate(divide="ignore", invalid="ignore"):
        return p + (_cross(q - p, e) / cross)[..., None] * d, parallel


def perp_bisector_reflect(p, a, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Reflect p in the perpendicular bisector hyperplane of segment ab.

    Swaps distances: |result - a| = |p - b| and |result - b| = |p - a|.
    """
    p, a, b = as_vec(p), as_vec(a), as_vec(b)
    check_same_dim(p, a, b)
    if _coincident(a, b, tol):
        raise DegenerateLine("perpendicular bisector of coincident points")
    return _bisector_reflect(p, a, b)


def bicycle_step(v1, v2, w1, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """One step of the discrete bicycle construction.

    Reflects v1 in the perpendicular bisector of v2 w1, producing w2 with
    |v2 - w2| = |v1 - w1| and |w1 - w2| = |v1 - v2|: (v1, v2, w2, w1) is a
    Darboux butterfly.  Equivalently (the paper's line form), w2 is the
    reflection of w1 + (v2 - v1) in the line through w1 and v2.
    """
    v1, v2, w1 = as_vec(v1), as_vec(v2), as_vec(w1)
    check_same_dim(v1, v2, w1)
    if _coincident(np.stack([v1, v2]), w1, tol).any():
        raise DegenerateLine("w1 coincides with v1 (zero frame) or with v2 (no bisector)")
    return _bisector_reflect(v1, v2, w1)


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
