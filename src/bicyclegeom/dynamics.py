"""Whole-polygon bicycle dynamics.

Propagation carries a frame segment around a closed polygon one isosceles
trapezoid at a time; when the seed direction is fixed under the monodromy
the trace closes up and defines the transformation T_L.  Recutting (vertex
reflection in the bisector of its neighbours) and the permutability
construction both reduce to the same trapezoid step.

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
    DEFAULT_TOL,
    Polygon,
    Tolerance,
    _reflect,
    as_vec,
    check_same_dim,
    perp_bisector_reflect,
)
from .monodromy import FixedDirection, MonodromyClass, _fixed_directions, classify, polygon_monodromy


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
    if np.linalg.norm(w1 - v.vertex(0)) <= tol.eps_geom * max(1.0, np.linalg.norm(v.vertex(0))):
        raise DegenerateLine("zero-length frame segment v1 w1")
    sides = v.sides()
    ahead = np.roll(v.vertices, -1, axis=0)
    trace = np.empty((len(v) + 1, v.dim))
    trace[0] = w1
    for i in range(len(v)):
        trace[i + 1] = _reflect(trace[i] + sides[i], trace[i], ahead[i], tol)
    return PropagationResult(points=trace, closure_defect=float(np.linalg.norm(trace[-1] - trace[0])))


class Branch(enum.Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"


def _transform(
    v: Polygon, length: float, branch: Branch, tol: Tolerance
) -> tuple[Polygon, MonodromyClass, FixedDirection, float]:
    """transform, also returning the monodromy class, the branch's fixed
    direction and the closure defect it computed on the way."""
    if v.dim != 2:
        raise DimensionMismatch("the closed transformation is defined for plane polygons")
    mob = polygon_monodromy(v, length, tol)
    klass = classify(mob, tol)
    if klass is MonodromyClass.ELLIPTIC:
        raise EllipticMonodromy(f"monodromy is elliptic at L={length}; no real fixed direction")
    if klass is MonodromyClass.IDENTITY:
        raise DegenerateMonodromy(
            "identity monodromy: every seed closes; propagate from an explicit seed instead"
        )
    dirs = _fixed_directions(mob, klass)
    fd = dirs[0] if branch is Branch.ATTRACTING else dirs[-1]
    seed = v.vertex(0) + length * np.array([math.cos(fd.angle), math.sin(fd.angle)])
    res = propagate(v, seed, tol)
    if res.closure_defect > tol.eps_geom * v.perimeter():
        raise ClosureFailure(
            f"fixed-direction propagation did not close: defect {res.closure_defect:.3e}"
        )
    return res.closed_polygon(name=v.name), klass, fd, res.closure_defect


def transform(
    v: Polygon, length: float, branch: Branch = Branch.ATTRACTING, tol: Tolerance = DEFAULT_TOL
) -> Polygon:
    """The closed bicycle transformation T_L of a plane polygon.

    Seeds the propagation from the chosen fixed direction of the monodromy;
    requires the monodromy to be hyperbolic or parabolic (elliptic has no
    real fixed direction, so no closed companion exists).
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
    if np.any(gaps <= tol.eps_geom * np.maximum(1.0, np.linalg.norm(v.vertices, axis=1))):
        return False
    scale = max(seg, float(v.side_lengths().max()))
    ahead = np.roll(v.vertices, -1, axis=0)
    try:
        expected = _reflect(w.vertices + v.sides(), w.vertices, ahead, tol)
    except DegenerateLine:
        return False
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


def _angle_at(base: np.ndarray, p: np.ndarray, q: np.ndarray, signed: bool = False) -> float:
    """Angle at base between the rays to p and to q.

    Signed (counterclockwise positive, in (-pi, pi]) in the plane when
    requested; unsigned in [0, pi] otherwise.  The signed convention is what
    makes the frame-angle difference equation hold on both monodromy
    branches; a 2 pi wrap in any one angle flips both sides of that
    equation together, so the branch cut is harmless.
    """
    u = p - base
    w = q - base
    if base.shape[0] == 2:
        cross = float(u[0] * w[1] - u[1] * w[0])
        return math.atan2(cross if signed else abs(cross), float(u @ w))
    dot = float(u @ w)
    rej = float(u @ u) * float(w @ w) - dot * dot
    return math.atan2(math.sqrt(max(rej, 0.0)), dot)


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
    signed = v.dim == 2
    return np.array(
        [_angle_at(v.vertex(i), v.vertex(i - 1), w.vertex(i), signed=signed) for i in range(len(v))]
    )


def angle_sequence(pair: BicyclePair, tol: Tolerance | None = None) -> np.ndarray:
    """Frame angles alpha_i, validated against the second defining expression
    (the same angle read off at W_{i-1}).  Signed in the plane,
    counterclockwise positive."""
    tol = tol or pair.tol
    v, w = pair.v, pair.w
    signed = v.dim == 2
    primary = _alpha_angles(v, w)
    alternate = np.array(
        [
            _angle_at(w.vertex(i - 1), v.vertex(i - 1), w.vertex(i), signed=signed)
            for i in range(len(v))
        ]
    )
    wrapped = np.mod(primary - alternate + math.pi, 2.0 * math.pi) - math.pi
    if np.abs(wrapped).max() > max(tol.eps_geom, 1e-12) * 10.0:
        raise ValueError("frame-angle expressions disagree: not a genuine bicycle pair")
    return primary


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
    thetas = np.array(
        [_angle_at(v.vertex(i), v.vertex(i - 1), v.vertex(i + 1), signed=True) for i in range(len(v))]
    )
    lengths = v.side_lengths()  # lengths[j] = |V_j V_{j+1}|
    a_prev = np.roll(alphas, 1)
    th_prev = np.roll(thetas, 1)
    c = np.roll(lengths, 1)  # c[i] = |V_{i-1} V_i|
    lhs = pair.length * np.cos(0.5 * (alphas - a_prev + th_prev))
    rhs = c * np.cos(0.5 * (alphas + a_prev - th_prev))
    return float(np.abs(lhs - rhs).max())
