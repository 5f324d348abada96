"""Conserved quantities of the bicycle transformation and recutting.

The bivector A(V) = sum V_i ^ V_{i+1} and the vector
J(V) = sum (|V_{i+1}|^2 - |V_{i-1}|^2) V_i are preserved by both maps.
In the plane, rotating J by 90 degrees and dividing by four times the
signed area yields a translation-equivariant conserved point, the
circumcenter of mass.  The rear track realizes a corresponding pair as a
chain of mutually tangent circles touching at the segment midpoints, with
centres where consecutive frame lines meet (one line-meet kernel call).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import BicyclePair
from .errors import (
    DegenerateTriangle,
    DimensionMismatch,
    PoleOnChain,
    SignAssignmentFailure,
    ZeroArea,
)
from .geometry import DEFAULT_TOL, Polygon, Tolerance, _meet

_LOG_NORMAL_MIN, _LOG_MAX = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)


class Bivector:
    """Antisymmetric rank-2 quantity with area units; only the strict upper
    triangle is stored, so antisymmetry is exact."""

    __slots__ = ("n", "upper")

    def __init__(self, n: int, upper):
        upper = np.array(upper, dtype=float)
        if upper.shape != (n * (n - 1) // 2,):
            raise DimensionMismatch("wrong number of upper-triangle components")
        upper.setflags(write=False)
        self.n = n
        self.upper = upper

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Bivector":
        n = m.shape[0]
        idx = np.triu_indices(n, k=1)
        return cls(n, m[idx])

    def as_matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        idx = np.triu_indices(self.n, k=1)
        m[idx] = self.upper
        return m - m.T

    @property
    def scalar(self) -> float:
        """The single component in dimension 2 (twice the signed area)."""
        if self.n != 2:
            raise DimensionMismatch("scalar component exists only in dimension 2")
        return float(self.upper[0])

    def __sub__(self, other: "Bivector") -> "Bivector":
        if self.n != other.n:
            raise DimensionMismatch("bivector dimensions differ")
        return Bivector(self.n, self.upper - other.upper)

    def __neg__(self) -> "Bivector":
        return Bivector(self.n, -self.upper)

    def norm(self) -> float:
        return float(np.linalg.norm(self.upper))

    def __repr__(self) -> str:
        return f"Bivector(n={self.n}, upper={self.upper.tolist()!r})"


def area_bivector(v: Polygon) -> Bivector:
    """Cyclic sum of wedge products V_i ^ V_{i+1}.

    In dimension 2 the scalar component equals twice the shoelace signed
    area of the polygon.
    """
    pts = v.vertices
    nxt = np.roll(pts, -1, axis=0)
    m = pts.T @ nxt  # sum of outer(V_i, V_{i+1})
    return Bivector.from_matrix(m - m.T)


def signed_area(v: Polygon) -> float:
    """Shoelace signed area of a plane polygon."""
    if v.dim != 2:
        raise DimensionMismatch("signed area is a plane quantity")
    return 0.5 * area_bivector(v).scalar


def j_vector(v: Polygon) -> np.ndarray:
    """Cyclic sum (|V_{i+1}|^2 - |V_{i-1}|^2) V_i.

    Equals sum |V_i|^2 (V_{i-1} - V_{i+1}) by summation by parts; not
    translation invariant, but its translation defect is controlled by the
    area bivector, which makes the circumcenter of mass equivariant.
    """
    pts = v.vertices
    sq = np.einsum("ij,ij->i", pts, pts)
    return ((np.roll(sq, -1) - np.roll(sq, 1))[:, None] * pts).sum(axis=0)


def circumcenter_of_mass(v: Polygon, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Rotate J(V) by 90 degrees counterclockwise and divide by four times
    the signed area.  Undefined (ZeroArea) for zero-area polygons."""
    if v.dim != 2:
        raise DimensionMismatch("the circumcenter of mass is a plane construction")
    area = signed_area(v)
    if abs(area) <= tol.eps_geom * v.scale() ** 2:
        raise ZeroArea("zero signed area: circumcenter of mass undefined")
    jx, jy = j_vector(v)
    return np.array([-jy, jx]) / (4.0 * area)


def triangle_circumcenter(a, b, c, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Circumcenter of a plane triangle; DegenerateTriangle when collinear."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    c = np.asarray(c, float)
    d = 2.0 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    span = max(np.linalg.norm(b - a), np.linalg.norm(c - a), 1e-300)
    if abs(d) <= tol.eps_geom * span * span:
        raise DegenerateTriangle("collinear points have no circumcenter")
    b2 = b - a
    c2 = c - a
    nb = float(b2 @ b2)
    nc = float(c2 @ c2)
    ux = (c2[1] * nb - b2[1] * nc) / d
    uy = (b2[0] * nc - c2[0] * nb) / d
    return a + np.array([ux, uy])


def ccm_triangulation_oracle(v: Polygon, fan_apex: int = 0, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Independent construction of the circumcenter of mass: fan-triangulate
    from one vertex and average the triangle circumcenters weighted by
    oriented triangle area.  The result does not depend on the apex."""
    if v.dim != 2:
        raise DimensionMismatch("triangulation oracle is a plane construction")
    apex = v.vertex(fan_apex)
    total = 0.0
    acc = np.zeros(2)
    for i in range(1, len(v) - 1):
        b, c = v.vertex(fan_apex + i), v.vertex(fan_apex + i + 1)
        weight = 0.5 * ((b[0] - apex[0]) * (c[1] - apex[1]) - (b[1] - apex[1]) * (c[0] - apex[0]))
        if abs(weight) <= (tol.eps_geom * v.scale()) ** 2:
            continue  # collinear fan triangle: zero weight, skip
        acc = acc + weight * triangle_circumcenter(apex, b, c, tol)
        total += weight
    if abs(total) <= tol.eps_geom * v.scale() ** 2:
        raise ZeroArea("zero signed area: circumcenter of mass undefined")
    return acc / total


@dataclass(frozen=True)
class ChainCircle:
    """One member of the rear-track chain: a circle with signed curvature,
    or a straight line (curvature 0, center at infinity along `direction`,
    the common direction of the two parallel frame lines)."""

    center: np.ndarray | None
    curvature: float
    direction: np.ndarray | None = None

    def __post_init__(self):
        if (self.center is None) != (self.curvature == 0.0):
            raise ValueError("finite center iff nonzero curvature")

    @property
    def is_line(self) -> bool:
        return self.curvature == 0.0

    @property
    def radius(self) -> float:
        """Signed radius; +-inf for a straight member."""
        return math.inf if self.is_line else 1.0 / self.curvature


@dataclass(frozen=True)
class RearTrack:
    """Chain of mutually tangent circles whose tangency points q[i] are the
    midpoints of the frame segments; e[i] is the unit vector from q[i]
    toward the front polygon vertex V_i.  circles[i] sits between segments
    i and i+1 (the half-integer slot)."""

    circles: tuple[ChainCircle, ...]
    q: np.ndarray
    e: np.ndarray


def rear_track(pair: BicyclePair, tol: Tolerance | None = None) -> RearTrack:
    """Build the chain: centers at the intersections of consecutive frame
    lines, signed radii read off along the frame directions.

    The signed radius of slot i+1/2 must agree when measured from segment i
    and from segment i+1; disagreement means no consistent orientation
    exists and raises SignAssignmentFailure.
    """
    tol = tol or pair.tol
    v, w = pair.v, pair.w
    if v.dim != 2:
        raise DimensionMismatch("the circle chain is a plane construction")
    pts = v.vertices
    q = 0.5 * (pts + w.vertices)
    e = (pts - w.vertices) / pair.length
    scale = max(pair.length, float(v.side_lengths().max()))
    # slot i + 1/2 sits where frame line i meets frame line i + 1
    d = w.vertices - pts
    centers, parallel = _meet(pts, d, np.roll(pts, -1, axis=0), np.roll(d, -1, axis=0), tol)
    e_next = np.roll(e, -1, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        r_from_i = np.vecdot(e, centers - q)
        r_from_j = -np.vecdot(e_next, centers - np.roll(q, -1, axis=0))
        r = 0.5 * (r_from_i + r_from_j)
        curvature = np.where(parallel, 0.0, 1.0 / r).tolist()
        mismatch = ~parallel & (
            np.abs(r_from_i - r_from_j) > math.sqrt(tol.eps_geom) * np.maximum(np.abs(r_from_i), scale)
        )
        flat = ~parallel & (np.abs(r) <= tol.eps_geom * scale)
    # straight members need opposite frame orientations; else the parallelogram branch
    aligned = parallel & (np.sqrt(np.vecdot(e + e_next, e + e_next)) > math.sqrt(tol.eps_geom))
    bad = aligned | mismatch | flat
    if bad.any():
        i = int(bad.argmax())
        if aligned[i]:
            message = "parallel frame segments with aligned orientation: parallelogram branch"
        elif mismatch[i]:
            message = f"signed radius mismatch at slot {i}+1/2: {r_from_i[i]:.6g} vs {r_from_j[i]:.6g}"
        else:
            message = "zero-radius chain member"
        raise SignAssignmentFailure(message)
    directions = d / np.sqrt(np.vecdot(d, d))[:, None]
    circles = tuple(
        ChainCircle(center=None, curvature=0.0, direction=directions[i])
        if parallel[i]
        else ChainCircle(center=centers[i], curvature=curvature[i])
        for i in range(len(v))
    )
    return RearTrack(circles=circles, q=q, e=e)


def chain_reconstruct(track: RearTrack, half_length: float) -> tuple[np.ndarray, np.ndarray]:
    """Recover the two polygons from the chain: the points at distance
    half_length from each tangency point along the frame line,

        ((r_after - l) P_before + (r_before + l) P_after) / (r_before + r_after),

    the positive sign giving the front polygon V and the negative sign W.
    Straight members fall back to the limit q_i +- l e_i.
    """
    l, q, e, circles = half_length, track.q, track.e, track.circles
    line = np.array([c.is_line for c in circles])
    straight = (line | np.roll(line, 1))[:, None]
    # slot i sits after vertex i, slot i - 1 before it; straight slots get NaN centers
    ra = np.array([c.radius for c in circles])[:, None]
    ca = np.array([np.full(q.shape[1], np.nan) if c.is_line else c.center for c in circles])
    rb, cb = np.roll(ra, 1, axis=0), np.roll(ca, 1, axis=0)
    with np.errstate(invalid="ignore"):
        vs = np.where(straight, q + l * e, ((ra - l) * cb + (rb + l) * ca) / (rb + ra))
        ws = np.where(straight, q - l * e, ((ra + l) * cb + (rb - l) * ca) / (rb + ra))
    return vs, ws


def eigenvalue_products(
    pair: BicyclePair, track: RearTrack | None = None, tol: Tolerance | None = None
) -> tuple[float, float]:
    """Two expressions for the monodromy eigenvalue at the fixed direction
    realized by the pair:

      lambda_vw    = prod |V_{i-1} W_i| / prod |V_i W_{i-1}|   (diagonal lengths)
      lambda_chain = prod |l - r_j| / prod |l + r_j|           (chain radii, l = L/2)

    The homothety centered at a chain point takes V_i to W_i with
    coefficient -(l + r)/(l - r), which makes these two products equal (the
    reciprocal pair of eigenvalues swaps both fractions simultaneously).
    Straight members contribute a factor 1.  PoleOnChain when some radius
    equals the half length (a rear-track cusp through a vertex); ValueError,
    naming log10 of both, when either leaves the range of normal doubles.
    """
    tol = tol or pair.tol
    if track is None:
        track = rear_track(pair, tol)
    v, w = pair.v, pair.w
    # products of k factors over- and underflow past k ~ 100: sum logs instead
    diag_in = np.linalg.norm(w.vertices - np.roll(v.vertices, 1, axis=0), axis=1)
    diag_out = np.linalg.norm(np.roll(w.vertices, 1, axis=0) - v.vertices, axis=1)
    half_curv = 0.5 * pair.length * np.array([circle.curvature for circle in track.circles])
    f_plus, f_minus = np.abs(1.0 + half_curv), np.abs(1.0 - half_curv)
    if min(f_plus.min(), f_minus.min()) <= tol.eps_geom:
        raise PoleOnChain("a chain radius equals the half frame length")
    logs = math.fsum(np.log(diag_in / diag_out)), math.fsum(np.log(f_minus / f_plus))
    if not all(_LOG_NORMAL_MIN <= x <= _LOG_MAX for x in logs):
        msg = "eigenvalue outside the double range: log10 lambda_vw = {:.6g}, log10 lambda_chain = {:.6g}"
        raise ValueError(msg.format(*(x / math.log(10.0) for x in logs)))
    return math.exp(logs[0]), math.exp(logs[1])
