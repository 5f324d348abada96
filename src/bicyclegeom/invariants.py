"""Conserved quantities of the bicycle transformation and recutting.

The bivector A(V) = sum V_i ^ V_{i+1} and the vector
J(V) = sum (|V_{i+1}|^2 - |V_{i-1}|^2) V_i are preserved by both maps.
In the plane, rotating J by 90 degrees and dividing by four times the
signed area yields a translation-equivariant conserved point, the
circumcenter of mass.  _conserved computes all three of a polygon once, as
one record that circumcenter_of_mass and the CLI's invariants report read.
The circumcenter of mass works in the frame of _ccm_frame, relative to the
vertex centroid and with a zero-area bound taken from the polygon's own
size, so it does not depend on where the polygon lies.  The area bivector is
summed in that frame too, and J is taken there as J(V - c) + 2 W(V - c) c,
summed at an exact power-of-two scale, so it overflows only where its value
leaves the double range.  The rear track realizes a corresponding pair as a
chain of mutually tangent circles touching at the segment midpoints, with
centres where consecutive frame lines meet (one line-meet kernel call).
RearTrack holds the chain as arrays, one row per slot: centres, signed
curvatures and the directions of straight members; rear_track,
chain_reconstruct and eigenvalue_products are row expressions over them,
under the pair's tolerance.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import BicyclePair
from .errors import (
    DegenerateTriangle,
    DimensionMismatch,
    PoleOnChain,
    SignAssignmentFailure,
    ZeroArea,
)
from .geometry import DEFAULT_TOL, Polygon, Tolerance, _cyc, _dot, _meet, _norm

_LOG_NORMAL_MIN, _LOG_MAX = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)


@functools.cache
def _upper_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of an n x n matrix."""
    idx = np.triu_indices(n, k=1)
    for arr in idx:
        arr.setflags(write=False)
    return idx


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
        return cls(n, m[_upper_index(n)])

    def as_matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        m[_upper_index(self.n)] = self.upper
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
        return math.hypot(*self.upper.tolist())

    def __repr__(self) -> str:
        return f"Bivector(n={self.n}, upper={self.upper.tolist()!r})"


def area_bivector(v: Polygon) -> Bivector:
    """Cyclic sum of wedge products V_i ^ V_{i+1}.

    In dimension 2 the scalar component equals twice the shoelace signed
    area of the polygon.  The sum is translation invariant, so it is taken
    over the vertices less their centroid (_ccm_frame): far from the origin
    the raw wedges cancel.
    """
    return Bivector.from_matrix(_wedges(_ccm_frame(v, DEFAULT_TOL)[1]))


def _wedges(pts: np.ndarray) -> np.ndarray:
    """The area bivector of the closed polygon pts as an antisymmetric matrix."""
    m = pts.T @ _cyc(pts, 1)  # sum of outer(V_i, V_{i+1})
    return m - m.T


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
    ValueError, naming log10 |J|, where J overflows.
    """
    origin, rel, _ = _ccm_frame(v, DEFAULT_TOL)
    return _j_of(origin, _wedges(rel), *_j(rel))


def _j(pts: np.ndarray) -> tuple[np.ndarray, int]:
    """J of pts as j 2**e: the differences of squares are scaled by the exact
    power of two 2**-e that puts the largest square in [0.5, 1) before they
    meet a coordinate, so no term overflows, and j 2**e keeps the plain sum's
    bits wherever the scaled values stay normal."""
    sq = _dot(pts, pts)
    e = math.frexp(float(sq.max()))[1]
    return (((_cyc(sq, 1) - _cyc(sq, -1)) * math.ldexp(1.0, -e))[:, None] * pts).sum(axis=0), e


def _j_of(origin: np.ndarray, w: np.ndarray, j: np.ndarray, e: int) -> np.ndarray:
    """J(V) = J(U) + 2 W c in any dimension, with c the vertex centroid, U = V - c,
    W = _wedges(U) and J(U) = j 2**e from _j, 2 W c summed in that frame (far out
    V's squares cancel); ValueError, naming log10 |J|, where J leaves the double range."""
    j = j + np.ldexp(w, 1 - e) @ origin
    try:
        return np.array([math.ldexp(x, e) for x in j.tolist()])
    except OverflowError:
        log10 = math.log10(math.hypot(*j.tolist())) + e * math.log10(2.0)
        raise ValueError(f"J outside the double range: log10 |J| = {log10:.6g}") from None


class _Conserved(NamedTuple):
    """One polygon's conserved quantities: the area bivector, J (None where it
    leaves the double range), and the circumcenter of mass (None at zero area
    and outside the plane)."""

    bivector: Bivector
    j: np.ndarray | None
    ccm: np.ndarray | None


def _ccm_frame(v: Polygon, tol: Tolerance) -> tuple[np.ndarray, np.ndarray, float]:
    """The vertex centroid c, the vertices less c, and the area at or below
    which the circumcenter of mass of v is undefined.

    The circumcenter of mass is translation-equivariant, so it is taken as
    c plus that of V - c: on raw coordinates far from the origin J cancels.
    The zero-area bound is eps_geom * max |V_i - c|**2, from the polygon's
    own size, not from the size of its coordinates.
    """
    origin = v.vertices.mean(axis=0)
    rel = v.vertices - origin
    return origin, rel, tol.eps_geom * float(_dot(rel, rel).max())


def _conserved(v: Polygon, tol: Tolerance = DEFAULT_TOL) -> _Conserved:
    """area_bivector, j_vector and the circumcenter of mass of v, each computed
    once; the ccm, of degree 1, stays in range where J, of degree 3, does not."""
    j, ccm = None, None
    origin, rel, min_area = _ccm_frame(v, tol)
    w, (j_rel, e) = _wedges(rel), _j(rel)
    with contextlib.suppress(ValueError):  # J past the double range stays None
        j = _j_of(origin, w, j_rel, e)
    if v.dim == 2:
        area = 0.5 * w[0, 1]
        if abs(area) > min_area:  # rot(J) / (4 area) with J and area both scaled by 2**-e: the same quotient
            ccm = origin + np.array([-j_rel[1], j_rel[0]]) / (4.0 * math.ldexp(area, -e))
    return _Conserved(Bivector.from_matrix(w), j, ccm)


def circumcenter_of_mass(v: Polygon, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Rotate J(V) by 90 degrees counterclockwise and divide by four times
    the signed area.  Undefined (ZeroArea) for zero-area polygons."""
    if v.dim != 2:
        raise DimensionMismatch("the circumcenter of mass is a plane construction")
    ccm = _conserved(v, tol).ccm
    if ccm is None:
        raise ZeroArea("zero signed area: circumcenter of mass undefined")
    return ccm


def triangle_circumcenter(a, b, c, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Circumcenter of a plane triangle; DegenerateTriangle when collinear.  Its cubes
    are formed over the power of two that puts max |b - a|, |c - a| in [0.5, 1)."""
    a = np.asarray(a, float)
    bc = np.array([b, c], dtype=float) - a
    e = math.frexp(float(np.abs(bc).max()))[1]
    b2, c2 = np.ldexp(bc, -e)
    d = 2.0 * (b2[0] * c2[1] - b2[1] * c2[0])
    nb, nc = float(b2 @ b2), float(c2 @ c2)
    if not abs(d) > tol.eps_geom * max(nb, nc):
        raise DegenerateTriangle("collinear points have no circumcenter")
    return a + np.ldexp(np.array([c2[1] * nb - b2[1] * nc, b2[0] * nc - c2[0] * nb]) / d, e)


@dataclass(frozen=True)
class RearTrack:
    """Chain of mutually tangent circles whose tangency points q[i] are the
    midpoints of the frame segments; e[i] is the unit vector from q[i]
    toward the front polygon vertex V_i.  Row i of the chain sits between
    segments i and i+1 (the half-integer slot): a circle with signed
    curvature[i] about center[i], or a straight member (curvature 0, a NaN
    center row) along direction[i], the common direction of the two parallel
    frame lines; direction rows are NaN at the circles."""

    center: np.ndarray
    curvature: np.ndarray
    direction: np.ndarray
    q: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        if (np.isfinite(self.center).all(axis=1) != (self.curvature != 0.0)).any():
            raise ValueError("finite center iff nonzero curvature")


def rear_track(pair: BicyclePair) -> RearTrack:
    """Build the chain: centers at the intersections of consecutive frame
    lines, signed radii read off along the frame directions, under the
    pair's tolerance.

    The signed radius of slot i+1/2 must agree when measured from segment i
    and from segment i+1; disagreement means no consistent orientation
    exists and raises SignAssignmentFailure.
    """
    v, w, tol = pair.v, pair.w, pair.tol
    if v.dim != 2:
        raise DimensionMismatch("the circle chain is a plane construction")
    pts = v.vertices
    q = 0.5 * (pts + w.vertices)
    e = (pts - w.vertices) / pair.length
    scale = max(pair.length, float(v.side_lengths().max()))
    # slot i + 1/2 sits where frame line i meets frame line i + 1
    d = w.vertices - pts
    centers, parallel = _meet(pts, d, _cyc(pts, 1), _cyc(d, 1), tol)
    e_next = _cyc(e, 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        r_from_i = _dot(e, centers - q)
        r_from_j = -_dot(e_next, centers - _cyc(q, 1))
        r = 0.5 * (r_from_i + r_from_j)
        curvature = np.where(parallel, 0.0, 1.0 / r)
        mismatch = ~parallel & (
            np.abs(r_from_i - r_from_j) > math.sqrt(tol.eps_geom) * np.maximum(np.abs(r_from_i), scale)
        )
        flat = ~parallel & (np.abs(r) <= tol.eps_geom * scale)
    # straight members need opposite frame orientations; else the parallelogram branch
    aligned = parallel & (_norm(e + e_next) > math.sqrt(tol.eps_geom))
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
    line = parallel[:, None]
    center = np.where(line, np.nan, centers)
    direction = np.where(line, d / _norm(d)[:, None], np.nan)
    return RearTrack(center=center, curvature=curvature, direction=direction, q=q, e=e)


def chain_reconstruct(track: RearTrack, half_length: float) -> tuple[np.ndarray, np.ndarray]:
    """Recover the two polygons from the chain: V_i, W_i = q_i +- l e_i with
    l = half_length, read off the two centres on frame line i.  There
    c_after - c_before = (r_after + r_before) e_i, so e_i is that difference
    over its norm, signed by the radius sum (never divided by: it nearly
    vanishes where neighbouring circles nearly coincide), and q_i the mean of
    c_after - r_after e_i and c_before + r_before e_i.  Straight members keep
    the track's own q_i +- l e_i.
    """
    l, line = half_length, track.curvature == 0.0
    straight = (line | _cyc(line, -1))[:, None]
    # slot i sits after vertex i, slot i - 1 before it
    ca, cb = track.center, _cyc(track.center, -1)
    with np.errstate(invalid="ignore", divide="ignore"):
        ra = (1.0 / track.curvature)[:, None]
        rb = _cyc(ra, -1)
        e = (ca - cb) * (np.sign(ra + rb) / _norm(ca - cb)[:, None])
        q = np.where(straight, track.q, 0.5 * ((ca - ra * e) + (cb + rb * e)))
        e = np.where(straight, track.e, e)
    return q + l * e, q - l * e


def eigenvalue_products(pair: BicyclePair, track: RearTrack | None = None) -> tuple[float, float]:
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
    The pole test uses the pair's tolerance.
    """
    if track is None:
        track = rear_track(pair)
    v, w = pair.v, pair.w
    # products of k factors over- and underflow past k ~ 100: sum logs instead
    diag_in = _norm(w.vertices - _cyc(v.vertices, -1))
    diag_out = _norm(_cyc(w.vertices, -1) - v.vertices)
    half_curv = 0.5 * pair.length * track.curvature
    f_plus, f_minus = np.abs(1.0 + half_curv), np.abs(1.0 - half_curv)
    if min(f_plus.min(), f_minus.min()) <= pair.tol.eps_geom:
        raise PoleOnChain("a chain radius equals the half frame length")
    log_vw, log_chain = math.fsum(np.log(diag_in / diag_out)), math.fsum(np.log(f_minus / f_plus))
    if not (_LOG_NORMAL_MIN <= log_vw <= _LOG_MAX and _LOG_NORMAL_MIN <= log_chain <= _LOG_MAX):
        raise ValueError(
            f"eigenvalue outside the double range: log10 lambda_vw = {log_vw / math.log(10.0):.6g}, "
            f"log10 lambda_chain = {log_chain / math.log(10.0):.6g}"
        )
    return math.exp(log_vw), math.exp(log_chain)
