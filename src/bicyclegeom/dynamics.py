"""Whole-polygon bicycle dynamics.

Propagation carries a frame segment around a closed polygon one isosceles
trapezoid at a time; when the seed direction is fixed under the monodromy
the trace closes up and defines the transformation T_L.  transform does not
loop: monodromy's one companion reader, _branch_at, gives the class, the
fixed directions one eigenvector at a time, and the frame direction e_i at
every vertex (the seed through partial side products, one down-sweep of the
side tree that classified the monodromy, the repelling branch swept
backwards, where it contracts); transform adds the frame points V_i + L e_i
and checks every step.  A companion through a seed point
(transform --seed-angle, the permutability square) comes from the sweep
when the seed is on a fixed direction, else from propagate's step loop (any
dimension; the sweep's oracle), under one closure bound.  Recutting
reflects a vertex in its neighbours' bisector, the same step.

Length convention: the public parameter L is always the full frame segment
length |V_i W_i|.  Formulas that are naturally written in terms of the half
length consume L/2 internally.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ClosureFailure, DegenerateLine, DegenerateMonodromy, DimensionMismatch, EllipticMonodromy
from .geometry import (
    DEFAULT_TOL, Polygon, Tolerance, _angle_at, _bisector_reflect, _coincident, _cyc, _dot, _norm, as_vec,
    check_same_dim, perp_bisector_reflect,
)
from .monodromy import FixedDirection, MonodromyClass, _branch_at


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
    return PropagationResult(points=trace, closure_defect=math.hypot(*(trace[-1] - trace[0]).tolist()))


def _closure_bound(v: Polygon, length: float, tol: Tolerance) -> float:
    """Largest closing defect a closed companion at frame length L may have:
    eps_geom min(perimeter, max(L, longest side)).  The second term is the
    bound correspondence_check puts on every step, the closing one included,
    so a trace that passes here passes there."""
    return tol.eps_geom * min(v.perimeter(), max(length, float(v.side_lengths().max())))


def _closing_check(at: np.ndarray, w: np.ndarray, bound: float, tol: Tolerance) -> np.ndarray:
    """Misses (vectors) of frames W_0 ... W_k over at = V_0 ... V_{k-1}, V_0, V_0 from their
    bisector reflections, in column dots: W_i - V_{i+1} is formed once for _coincident's rule
    (DegenerateLine; row k is the seed frame), row by row only where the shortest does not clear
    every row's radius (1e-12 spare for rounding), and _bisector_reflect's residual (ClosureFailure)."""
    n = w - at[1:]
    nn = _dot(n, n)
    t = np.abs(w)  # at[:-1] holds every V; t is reused as the miss below
    top = float(np.maximum(t, np.abs(at[:-1]), out=t).max())  # |V|^2, |W|^2 <= dim top^2; NaN fails the test
    if not nn.min() > tol.eps_geom**2 * (w.shape[1] * top * top) * (1.0 + 1e-12):
        reach = np.sqrt(np.maximum(_dot(at[1:], at[1:]), _dot(w, w)))
        if not (np.sqrt(nn) > tol.eps_geom * reach).all():
            raise DegenerateLine("zero frame segment or reflection axis through coincident points")
    p, n, miss = at[:-2], n[:-1], t[:-1]
    np.multiply(2.0, p, out=miss)
    miss -= at[1:-1]
    miss -= w[:-1]
    c = _dot(miss, n)
    c /= nn[:-1]
    np.multiply(c[:, None], n, out=miss)  # step i misses by W_{i+1} - (V_i - c_i n_i)
    np.subtract(p, miss, out=miss)
    np.subtract(w[1:], miss, out=miss)
    sq = _dot(miss, miss)
    if not sq.max() <= bound * bound:
        raise ClosureFailure(f"companion step misses by {math.sqrt(sq.max()):.3e} > {bound:.3e}")
    return miss


class Branch(enum.Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"


def _companion(
    v: Polygon, length: float, angle: float, frames: Callable[..., np.ndarray], backwards: bool, tol: Tolerance
) -> tuple[np.ndarray, float]:
    """Unchecked kernel behind transform and the seeded companion: the companion W_i = V_i + L e_i
    of v, e_i the unit frames frames(angle, backwards) that _branch_at hands out at length (angle
    one of its fixed directions, backwards for the repelling one), and its closing-step residual;
    _closing_check raises DegenerateLine and ClosureFailure (a step missing its reflection by over
    _closure_bound)."""
    # V_0 ... V_{k-1}, V_0, V_0: rows i and i + 1 are step i's V_i and V_{i+1}; W_k = W_0 is checked
    k = len(v)
    at = np.empty((k + 2, v.dim))
    at[:k] = v.vertices
    at[k:] = v.vertices[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = frames(angle, backwards)
        w *= length
        w += at[:-1]
        miss = _closing_check(at, w, _closure_bound(v, length, tol), tol)
    return w[:-1], math.hypot(*miss[0 if backwards else -1].tolist())  # its square goes subnormal at small scale


def _transform(
    v: Polygon, length: float, branch: Branch, tol: Tolerance, derivative: bool = True
) -> tuple[Polygon, MonodromyClass, FixedDirection, float]:
    """transform, also returning the monodromy class, the branch's fixed
    direction (its derivative NaN unless asked for) and the closure defect
    it computed on the way."""
    if v.dim != 2:
        raise DimensionMismatch("the closed transformation is defined for plane polygons")
    backwards = branch is Branch.REPELLING
    klass, count, direction, frames = _branch_at(v, length, tol, derivative)
    if klass is MonodromyClass.ELLIPTIC:
        raise EllipticMonodromy(f"monodromy is elliptic at L={length}; no real fixed direction")
    if not count:  # identity (every seed closes; propagate from one) or singular
        raise DegenerateMonodromy(f"{klass.value} monodromy at L={length}: no isolated fixed direction")
    fd = direction(-1 if backwards else 0)
    w, defect = _companion(v, length, fd.angle, frames, backwards, tol)
    return Polygon(w, name=v.name), klass, fd, defect


def _seeded_companion(v: Polygon, length: float, seed: np.ndarray, tol: Tolerance) -> tuple[Polygon, float]:
    """The closed companion of v at frame length L through the seed point W_0,
    and its closing defect.  In the plane (L validated as by transform), a
    seed within _closure_bound of a fixed direction's frame point gets that
    branch's _companion, swept down the tree that gave the direction; every
    other seed, in any dimension, is propagated and must close within the
    same bound, or ClosureFailure is raised."""
    bound = _closure_bound(v, length, tol)
    if v.dim == 2:
        _, count, direction, frames = _branch_at(v, length, tol, False)
        for i in range(count):
            fd = direction(i)
            frame = v.vertex(0) + length * np.array([math.cos(fd.angle), math.sin(fd.angle)])
            if np.linalg.norm(seed - frame) <= bound:
                w, defect = _companion(v, length, fd.angle, frames, i > 0, tol)
                return Polygon(w, name=v.name), defect
    res = propagate(v, seed, tol)
    if not res.closure_defect <= bound:
        raise ClosureFailure(f"seeded companion does not close: defect {res.closure_defect:.3e} > {bound:.3e}; "
                             "only a seed on a fixed direction, or any seed on a butterfly polygon, closes")
    return res.closed_polygon(name=v.name), res.closure_defect


def transform(
    v: Polygon, length: float, branch: Branch = Branch.ATTRACTING, tol: Tolerance = DEFAULT_TOL
) -> Polygon:
    """The closed bicycle transformation T_L of a plane polygon.

    The monodromy's class and the branch's fixed direction come from the
    root of the pairwise side-matrix tree, and the companion from one
    down-sweep of the same tree, the repelling branch run backwards, so both
    branches are computed in their contracting direction.  Every step is
    checked against the bisector reflection (correspondence_check's rule and
    bound), so the result is a pair with v under tol.  Requires the
    monodromy to be hyperbolic or parabolic (elliptic has no real fixed
    direction, so no closed companion exists).
    """
    return _transform(v, length, branch, tol, derivative=False)[0]


def _pair_length(v: Polygon, w: Polygon, tol: Tolerance) -> float | None:
    """The common segment length |V_i W_i| of V and W (the mean of the gaps,
    formed once), or None where they are not in the bicycle correspondence
    by correspondence_check's rule."""
    if len(v) != len(w) or v.dim != w.dim:
        return None
    gaps = _norm(v.vertices - w.vertices)
    seg = float(gaps.mean())
    if np.abs(gaps - seg).max() > tol.eps_geom * seg:
        return None
    at = np.concatenate([v.vertices, v.vertices[:1], v.vertices[:1]])
    frames = np.concatenate([w.vertices, w.vertices[:1]])
    try:
        _closing_check(at, frames, tol.eps_geom * max(seg, float(v.side_lengths().max())), tol)
    except (DegenerateLine, ClosureFailure):
        return None
    return seg


def correspondence_check(v: Polygon, w: Polygon, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether V and W are in the bicycle correspondence.

    All segments V_i W_i must share a common length and each quadruple
    (V_i, V_{i+1}, W_{i+1}, W_i) must be the isosceles-trapezoid branch of
    the step, i.e. W_{i+1} agrees with the bicycle step from (V_i, V_{i+1},
    W_i).  The steps are transform's closing check, in any dimension, with
    bound eps_geom max(|V_i W_i|, longest side).  Pure translates of V
    fail: they realize the parallelogram branch.
    """
    return _pair_length(v, w, tol) is not None


def frame_length(v: Polygon, w: Polygon) -> float:
    """Common segment length |V_i W_i| of a corresponding pair."""
    if v.vertices.shape != w.vertices.shape:
        raise DimensionMismatch(f"the two polygons' vertices differ in shape: {v.vertices.shape} vs {w.vertices.shape}")
    return float(_norm(v.vertices - w.vertices).mean())


def recut(v: Polygon, i: int, tol: Tolerance = DEFAULT_TOL) -> Polygon:
    """Replace V_i by its reflection in the perpendicular bisector hyperplane
    of V_{i-1} V_{i+1}, coincident under tol.  An involution; generates the recutting group."""
    p = perp_bisector_reflect(v.vertex(i), v.vertex(i - 1), v.vertex(i + 1), tol)
    return v.with_vertex(i, p)


def butterfly_fourth(v1, w1, s1, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Fourth vertex t1 making (v1, w1, t1, s1) a Darboux butterfly.

    t1 = reflection of v1 in the perpendicular bisector of w1 s1, so
    |t1 - w1| = |v1 - s1| and |t1 - s1| = |v1 - w1|.
    """
    return perp_bisector_reflect(as_vec(v1), as_vec(w1), as_vec(s1), tol)


def bianchi_fourth_polygon(v: Polygon, w: Polygon, s: Polygon, tol: Tolerance = DEFAULT_TOL) -> Polygon:
    """Fourth polygon of the permutability square: T with S ~ T at the W
    parameter's length |V_0 W_0| and W ~ T at the S parameter.

    T is the closed companion of S through the butterfly point t1 of (v1, w1,
    s1), built as _seeded_companion builds it; W ~ T is then checked, so
    inconsistent inputs surface as ClosureFailure, never as a non-pair.
    """
    check_same_dim(v.vertex(0), w.vertex(0), s.vertex(0))
    if not (len(v) == len(w) == len(s)):
        raise DimensionMismatch("the three polygons must have the same vertex count")
    v1, w1, s1 = v.vertex(0), w.vertex(0), s.vertex(0)
    length = float(np.linalg.norm(w1 - v1))
    # equal length parameters degenerate the butterfly; its limit is t1 = v1
    if np.linalg.norm(w1 - s1) <= tol.eps_geom * max(length, float(np.linalg.norm(s1 - v1))):
        t1 = v1
    else:
        t1 = butterfly_fourth(v1, w1, s1, tol)
    t = _seeded_companion(s, length, t1, tol)[0]
    if not correspondence_check(w, t, tol):
        raise ClosureFailure("permutability: the companion of S through t1 is not a companion of W")
    return t


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

    def __init__(self, v: Polygon, w: Polygon, tol: Tolerance = DEFAULT_TOL):
        length = _pair_length(v, w, tol)
        if length is None:
            raise ValueError("polygons are not in the bicycle correspondence")
        self.v = v
        self.w = w
        self.length = length
        self.tol = tol
        self.alphas = _alpha_angles(v, w)

    def __repr__(self) -> str:
        return f"<BicyclePair k={len(self.v)} dim={self.v.dim} L={self.length:.6g}>"


def _alpha_angles(v: Polygon, w: Polygon) -> np.ndarray:
    return _angle_at(v.vertices, _cyc(v.vertices, -1), w.vertices, signed=v.dim == 2)


def angle_sequence(pair: BicyclePair) -> np.ndarray:
    """Frame angles alpha_i, validated under the pair's tolerance against the
    second defining expression (the same angle read off at W_{i-1}).  Signed
    in the plane, counterclockwise positive."""
    v, w = pair.v.vertices, pair.w.vertices
    alternate = _angle_at(_cyc(w, -1), _cyc(v, -1), w, signed=pair.v.dim == 2)
    wrapped = np.mod(pair.alphas - alternate + math.pi, 2.0 * math.pi) - math.pi
    if np.abs(wrapped).max() > max(pair.tol.eps_geom, 1e-12) * 10.0:
        raise ValueError("frame-angle expressions disagree: not a genuine bicycle pair")
    return pair.alphas.copy()


def verify_difference_equation(pair: BicyclePair) -> float:
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
    th_prev = _angle_at(_cyc(pts, -1), _cyc(pts, -2), pts, signed=True)  # at V_{i-1}
    a_prev = _cyc(alphas, -1)
    c = _cyc(v.side_lengths(), -1)  # c[i] = |V_{i-1} V_i|
    lhs = pair.length * np.cos(0.5 * (alphas - a_prev + th_prev))
    rhs = c * np.cos(0.5 * (alphas + a_prev - th_prev))
    return float(np.abs(lhs - rhs).max())
