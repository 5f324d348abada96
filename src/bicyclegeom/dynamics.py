"""Whole-polygon bicycle dynamics.

Propagation carries a frame segment around a closed polygon one isosceles
trapezoid at a time; when the seed direction is fixed under the monodromy
the trace closes up and defines the transformation T_L.  transform does not
loop: the frame direction at each vertex is the seed direction pushed
through a partial product of the side matrices, so one prefix scan of the
side stack gives every frame at once, and the repelling branch runs the
scan backwards, on the inverses, where it contracts.  propagate keeps the
step loop for arbitrary seeds and any dimension, and is the oracle the scan
is tested against.  Recutting (vertex reflection in the bisector of its
neighbours) and the permutability construction both reduce to the same
trapezoid step.

Length convention: the public parameter L is always the full frame segment
length |V_i W_i|.  Formulas that are naturally written in terms of the half
length consume L/2 internally.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ClosureFailure, DegenerateLine, DegenerateMonodromy, DimensionMismatch, EllipticMonodromy
from .geometry import (
    DEFAULT_TOL, Polygon, Tolerance, _angle_at, _bisector_reflect, _coincident, as_vec,
    check_same_dim, perp_bisector_reflect,
)
from .monodromy import FixedDirection, MonodromyClass, _rescale, _side_matrices, _summary_at


@dataclass(frozen=True)
class PropagationResult:
    """Open trace of one trip around the polygon: k+1 points, the last of
    which returns to the start exactly when the seed direction is fixed."""

    points: np.ndarray
    closure_defect: float

    def closed_polygon(self, name: str | None = None) -> Polygon:
        return Polygon(self.points[:-1], name=name)


def propagate(v: Polygon, w1, tol: Tolerance = DEFAULT_TOL) -> PropagationResult:
    """Apply the bicycle step around the polygon once from seed point w1."""
    w1 = as_vec(w1)
    if w1.shape[0] != v.dim:
        raise DimensionMismatch("seed point dimension does not match the polygon")
    if _coincident(v.vertex(0), w1, tol):
        raise DegenerateLine("zero-length frame segment v1 w1")
    ahead = v.vertices + v.sides()
    trace = np.empty((len(v) + 1, v.dim))
    trace[0] = w1
    # unchecked steps; one check of all k bisectors follows the loop
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(len(v)):
            trace[i + 1] = _bisector_reflect(v.vertices[i], ahead[i], trace[i])
        if _coincident(ahead, trace[:-1], tol).any():
            raise DegenerateLine("reflection axis through coincident points")
    return PropagationResult(points=trace, closure_defect=float(np.linalg.norm(trace[-1] - trace[0])))


def _closure_bound(v: Polygon, length: float, tol: Tolerance) -> float:
    """Largest closing defect a closed companion at frame length L may have:
    eps_geom min(perimeter, max(L, longest side)).  The second term is the
    bound correspondence_check puts on every step, the closing one included,
    so a trace that passes here passes there."""
    return tol.eps_geom * min(v.perimeter(), max(length, float(v.side_lengths().max())))


class Branch(enum.Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"


_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
_HALF_ANGLE = np.array([1j, 1.0])  # (p, q) -> z = q + i p


def _companion(
    v: Polygon, length: float, angle: float, sides: np.ndarray, backwards: bool, tol: Tolerance
) -> tuple[np.ndarray, float]:
    """Unchecked kernel behind transform: the companion of plane polygon v
    seeded from the fixed direction at angle, and its closing-step residual.

    sides is the rescaled side stack (k, 2, 2), overwritten here.  The frame
    direction alpha_i at V_i is h_i = (sin alpha_i/2, cos alpha_i/2) up to
    scale, and h_{i+1} ~ S_i h_i, so every h_i is a prefix product of the side
    matrices applied to h_0; a Hillis-Steele doubling scan computes all of
    them in ceil(log2(k - 1)) rescaled matmul levels.  backwards runs the same
    scan on the reversed adjugates (the projective inverses) from the closing
    vertex down, the contracting direction of the repelling branch.  Raises
    DegenerateLine on a zero frame or a step with no bisector, and
    ClosureFailure where any step misses the bisector reflection by more
    than _closure_bound.
    """
    k = len(v)
    # h_0 is the seed and W_k = W_0 is checked, so S_0 ... S_{k-2} forwards,
    # or the adjugates [[d, -b], [-b, a]] of S_{k-1} ... S_1 backwards
    s = sides[:0:-1, ::-1, ::-1] * _ADJUGATE_SIGNS if backwards else sides[:-1]
    d = 1
    while d < len(s):
        s[d:] = _rescale(s[d:] @ s[:-d])[0]
        d *= 2
    h = np.empty((k + 1, 2))
    h[0] = h[k] = (math.sin(0.5 * angle), math.cos(0.5 * angle))
    h[1:k] = s[::-1] @ h[0] if backwards else s @ h[0]
    # V_0 ... V_{k-1}, V_0, V_0: rows i and i + 1 are step i's V_i and V_{i+1}
    at = np.concatenate([v.vertices, v.vertices[:1], v.vertices[:1]])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = h @ _HALF_ANGLE  # e^(i alpha/2) up to scale, so e^(i alpha) = z / conj(z)
        w = at[:-1] + length * (z / z.conj()).view(float).reshape(-1, 2)
        # rows (V_{i+1}, W_i): step i has no bisector; the last row is the seed frame
        if _coincident(at[1:], w, tol).any():
            raise DegenerateLine("zero frame segment or reflection axis through coincident points")
        miss = w[1:] - _bisector_reflect(at[:-2], at[1:-1], w[:-1])
        sq = np.vecdot(miss, miss)
    bound = _closure_bound(v, length, tol)
    worst = float(sq.max())
    if not worst <= bound * bound:
        raise ClosureFailure(f"companion step misses by {math.sqrt(worst):.3e} > {bound:.3e}")
    return w[:-1], math.sqrt(float(sq[0] if backwards else sq[-1]))


def _transform(
    v: Polygon, length: float, branch: Branch, tol: Tolerance
) -> tuple[Polygon, MonodromyClass, FixedDirection, float]:
    """transform, also returning the monodromy class, the branch's fixed
    direction and the closure defect it computed on the way."""
    if v.dim != 2:
        raise DimensionMismatch("the closed transformation is defined for plane polygons")
    leaves = _rescale(_side_matrices(v, np.array([length], dtype=float)))
    klass, _, dirs = _summary_at(v, length, tol, leaves)
    if klass is MonodromyClass.ELLIPTIC:
        raise EllipticMonodromy(f"monodromy is elliptic at L={length}; no real fixed direction")
    if dirs is None:  # identity (every seed closes; propagate from one) or singular
        raise DegenerateMonodromy(f"{klass.value} monodromy at L={length}: no isolated fixed direction")
    fd = dirs[0] if branch is Branch.ATTRACTING else dirs[-1]
    w, defect = _companion(v, length, fd.angle, leaves[0][0], branch is Branch.REPELLING, tol)
    return Polygon(w, name=v.name), klass, fd, defect


def transform(
    v: Polygon, length: float, branch: Branch = Branch.ATTRACTING, tol: Tolerance = DEFAULT_TOL
) -> Polygon:
    """The closed bicycle transformation T_L of a plane polygon.

    The monodromy's class and the branch's fixed direction come from the
    pairwise side-matrix tree; the companion comes from one prefix scan of
    the same side stack, the repelling branch run backwards, so both
    branches are computed in their contracting direction.  Every step is
    checked against the bisector reflection (correspondence_check's rule and
    bound), so the result is a pair with v under tol.  Requires the
    monodromy to be hyperbolic or parabolic (elliptic has no real fixed
    direction, so no closed companion exists).
    """
    return _transform(v, length, branch, tol)[0]


def correspondence_check(v: Polygon, w: Polygon, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether V and W are in the bicycle correspondence.

    All segments V_i W_i must share a common length and each quadruple
    (V_i, V_{i+1}, W_{i+1}, W_i) must be the isosceles-trapezoid branch of
    the step, i.e. W_{i+1} agrees with the bicycle step from (V_i, V_{i+1},
    W_i).  Pure translates of V fail: they realize the parallelogram branch.
    """
    if len(v) != len(w) or v.dim != w.dim:
        return False
    gaps = np.linalg.norm(v.vertices - w.vertices, axis=1)
    seg = float(gaps.mean())
    if np.abs(gaps - seg).max() > tol.eps_geom * max(seg, 1.0):
        return False
    ahead = np.roll(v.vertices, -1, axis=0)
    # zero frames V_i W_i, or steps whose bisector of V_{i+1} W_i collapses
    if _coincident(np.stack([v.vertices, ahead]), w.vertices, tol).any():
        return False
    scale = max(seg, float(v.side_lengths().max()))
    expected = _bisector_reflect(v.vertices, ahead, w.vertices)
    misfit = np.linalg.norm(np.roll(w.vertices, -1, axis=0) - expected, axis=1)
    return bool(misfit.max() <= tol.eps_geom * scale)


def frame_length(v: Polygon, w: Polygon) -> float:
    """Common segment length |V_i W_i| of a corresponding pair."""
    return float(np.linalg.norm(v.vertices - w.vertices, axis=1).mean())


def recut(v: Polygon, i: int) -> Polygon:
    """Replace V_i by its reflection in the perpendicular bisector hyperplane
    of V_{i-1} V_{i+1}.  An involution; generates the recutting group."""
    p = perp_bisector_reflect(v.vertex(i), v.vertex(i - 1), v.vertex(i + 1))
    return v.with_vertex(i, p)


def butterfly_fourth(v1, w1, s1, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Fourth vertex t1 making (v1, w1, t1, s1) a Darboux butterfly.

    t1 = reflection of v1 in the perpendicular bisector of w1 s1, so
    |t1 - w1| = |v1 - s1| and |t1 - s1| = |v1 - w1|.
    """
    return perp_bisector_reflect(as_vec(v1), as_vec(w1), as_vec(s1), tol)


def bianchi_fourth_polygon(
    v: Polygon,
    w: Polygon,
    s: Polygon,
    tol: Tolerance = DEFAULT_TOL,
    propagate_along: str = "s",
) -> Polygon:
    """Fourth polygon of the permutability square: T with S ~ T at the W
    parameter's partner length and W ~ T at the S parameter.

    Seeds t1 from the butterfly through (v1, w1, s1) and propagates along S
    (or along W with propagate_along="w"); closure is verified rather than
    assumed, so inconsistent inputs surface as ClosureFailure.
    """
    check_same_dim(v.vertex(0), w.vertex(0), s.vertex(0))
    if not (len(v) == len(w) == len(s)):
        raise DimensionMismatch("the three polygons must have the same vertex count")
    v1, w1, s1 = v.vertex(0), w.vertex(0), s.vertex(0)
    scale = max(float(np.linalg.norm(w1 - v1)), float(np.linalg.norm(s1 - v1)))
    if np.linalg.norm(w1 - s1) <= tol.eps_geom * scale:
        # equal length parameters degenerate the butterfly; its limit is t1 = v1
        t1 = v1
    else:
        t1 = butterfly_fourth(v1, w1, s1, tol)
    base = s if propagate_along == "s" else w
    res = propagate(base, t1, tol)
    if res.closure_defect > max(tol.eps_geom * base.perimeter(), 1e-12):
        raise ClosureFailure(
            f"permutability propagation did not close: defect {res.closure_defect:.3e}"
        )
    return res.closed_polygon()


class BicyclePair:
    """A polygon, its companion under the bicycle correspondence, the common
    frame segment length, and the per-vertex frame angles.

    alphas[i] is the angle at V_i between the rays to V_{i-1} and to W_i,
    which the trapezoid geometry makes equal to the angle at W_{i-1}
    between the rays to V_{i-1} and to W_i.  In the plane the angles are
    signed (counterclockwise positive), which fixes the branch in the
    difference equation and makes reconstruction of W from the angles
    unambiguous.
    """

    def __init__(self, v: Polygon, w: Polygon, tol: Tolerance = DEFAULT_TOL, check: bool = True):
        if check and not correspondence_check(v, w, tol):
            raise ValueError("polygons are not in the bicycle correspondence")
        self.v = v
        self.w = w
        self.length = frame_length(v, w)
        self.tol = tol
        self.alphas = _alpha_angles(v, w)

    def __repr__(self) -> str:
        return f"<BicyclePair k={len(self.v)} dim={self.v.dim} L={self.length:.6g}>"


def _alpha_angles(v: Polygon, w: Polygon) -> np.ndarray:
    return _angle_at(v.vertices, np.roll(v.vertices, 1, axis=0), w.vertices, signed=v.dim == 2)


def angle_sequence(pair: BicyclePair, tol: Tolerance | None = None) -> np.ndarray:
    """Frame angles alpha_i, validated against the second defining expression
    (the same angle read off at W_{i-1}).  Signed in the plane,
    counterclockwise positive."""
    tol = tol or pair.tol
    v, w = pair.v.vertices, pair.w.vertices
    alternate = _angle_at(np.roll(w, 1, axis=0), np.roll(v, 1, axis=0), w, signed=pair.v.dim == 2)
    wrapped = np.mod(pair.alphas - alternate + math.pi, 2.0 * math.pi) - math.pi
    if np.abs(wrapped).max() > max(tol.eps_geom, 1e-12) * 10.0:
        raise ValueError("frame-angle expressions disagree: not a genuine bicycle pair")
    return pair.alphas.copy()


def verify_difference_equation(pair: BicyclePair, tol: Tolerance | None = None) -> float:
    """Max residual of the first-order difference equation tying consecutive
    frame angles along the polygon:

        L cos((a_i - a_{i-1} + th_{i-1}) / 2) = c_i cos((a_i + a_{i-1} - th_{i-1}) / 2)

    with L the frame segment length, th_i the wedge angle of the polygon at
    V_i and c_i = |V_{i-1} V_i|.  Near zero exactly on genuine pairs.
    """
    v = pair.v
    if v.dim != 2:
        raise DimensionMismatch("the difference equation is a plane relation")
    alphas = pair.alphas
    pts = v.vertices
    th_prev = _angle_at(np.roll(pts, 1, axis=0), np.roll(pts, 2, axis=0), pts, signed=True)  # at V_{i-1}
    a_prev = np.roll(alphas, 1)
    c = np.roll(v.side_lengths(), 1)  # c[i] = |V_{i-1} V_i|
    lhs = pair.length * np.cos(0.5 * (alphas - a_prev + th_prev))
    rhs = c * np.cos(0.5 * (alphas + a_prev - th_prev))
    return float(np.abs(lhs - rhs).max())
