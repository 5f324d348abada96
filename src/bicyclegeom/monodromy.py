"""Monodromy of the discrete bicycle construction.

In the plane, carrying a frame segment of length ell along one polygon side
acts on the circle of frame directions as a fractional-linear map.  With the
chart x = tan(alpha/2) (stereographic projection from (-1, 0), alpha measured
counterclockwise from +x), a side vector (dx, dy) = a (cos phi, sin phi) of
length a and direction phi acts as the 2x2 matrix

    [[ell + dx, -dy], [-dy, ell - dx]],

with determinant ell^2 - a^2.  The whole-polygon monodromy is the product of
these over the sides, later sides multiplying on the left.  In dimension n
the same step is a Lorentz matrix in O(n,1) acting projectively on the
sphere of directions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateMonodromy,
    DimensionMismatch,
    NoRealFixedPoint,
    PoleAtEllEqualsA,
    ProjectiveDenominatorZero,
)
from .geometry import DEFAULT_TOL, Polygon, Tolerance, as_vec, check_same_dim


class MonodromyClass(enum.Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    IDENTITY = "identity"
    DEGENERATE = "degenerate"


class Mobius2:
    """Real 2x2 matrix acting projectively on the circle of directions.

    Defined up to a nonzero scalar factor; comparisons are projective.
    """

    __slots__ = ("m",)

    def __init__(self, m):
        m = np.array(m, dtype=float)
        if m.shape != (2, 2):
            raise DimensionMismatch("Mobius2 wants a 2x2 matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        if np.abs(m).max() == 0.0:
            raise ValueError("the zero matrix is not a projective transformation")
        m.setflags(write=False)
        self.m = m

    @property
    def trace(self) -> float:
        return float(self.m[0, 0] + self.m[1, 1])

    @property
    def det(self) -> float:
        return float(self.m[0, 0] * self.m[1, 1] - self.m[0, 1] * self.m[1, 0])

    def __matmul__(self, other: "Mobius2") -> "Mobius2":
        return Mobius2(self.m @ other.m)

    def proj_distance(self, other: "Mobius2") -> float:
        """Frobenius distance between unit-normalized representatives, min over sign."""
        a = self.m / np.linalg.norm(self.m)
        b = other.m / np.linalg.norm(other.m)
        return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))

    def is_identity(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        s = float(np.abs(self.m).max())
        return (
            abs(self.m[0, 1]) <= tol.eps_geom * s
            and abs(self.m[1, 0]) <= tol.eps_geom * s
            and abs(self.m[0, 0] - self.m[1, 1]) <= tol.eps_geom * s
        )

    def trace_sq_over_det(self) -> float:
        """The projective-scale invariant Tr^2 / det (+-inf at degenerate points)."""
        det = self.det
        tr2 = self.trace ** 2
        if det == 0.0:
            return math.inf if tr2 > 0 else math.nan
        return tr2 / det

    def apply(self, x: float) -> float:
        """Fractional-linear action on the affine chart coordinate."""
        a, b, c, d = self.m.ravel()
        return (a * x + b) / (c * x + d)

    def __repr__(self) -> str:
        return f"Mobius2({self.m.tolist()!r})"


def edge_mobius(ell: float, a: float, phi: float) -> Mobius2:
    """Direction-chart matrix for one side of length a and direction phi."""
    if ell <= 0.0:
        raise ValueError("length parameter must be positive")
    if a < 0.0:
        raise ValueError("side length must be nonnegative")
    c, s = math.cos(phi), math.sin(phi)
    return Mobius2([[ell + a * c, -a * s], [-a * s, ell - a * c]])


def _side_matrices(v: Polygon, ells: np.ndarray) -> np.ndarray:
    """Side matrices [[ell + dx, -dy], [-dy, ell - dx]], shape (lengths, sides, 2, 2)."""
    dx, dy = v.sides().T
    ell = ells[:, None]
    out = np.empty((len(ells), len(dx), 2, 2))
    out[..., 0, 0] = ell + dx
    out[..., 0, 1] = out[..., 1, 0] = -dy
    out[..., 1, 1] = ell - dx
    return out


def _monodromy_matrix(v: Polygon, ells: np.ndarray) -> np.ndarray:
    """Raw side-matrix products (lengths, 2, 2), unchecked: a loop over the
    sides, later sides on the left, vectorized over the lengths."""
    if len(ells) > 1 and len(ells) * len(v) > 1 << 16:  # bound the side stack's memory
        half = len(ells) // 2
        return np.concatenate([_monodromy_matrix(v, ells[:half]), _monodromy_matrix(v, ells[half:])])
    m = np.eye(2)
    for side in _side_matrices(v, ells).swapaxes(0, 1):
        m = side @ m
    return m


def _pole_hits(v: Polygon, ells: np.ndarray, tol: Tolerance) -> np.ndarray:
    """(lengths x sides) mask of |ell - a| <= eps_geom max(ell, a)."""
    a, ell = v.side_lengths(), ells[:, None]
    return np.abs(ell - a) <= tol.eps_geom * np.maximum(ell, a)


def polygon_monodromy(v: Polygon, ell: float, tol: Tolerance = DEFAULT_TOL) -> Mobius2:
    """Whole-polygon monodromy: product of side matrices in traversal order,
    later sides on the left.

    Raises DegenerateMonodromy when ell coincides with a side length (the
    determinant prod(ell^2 - a_i^2) vanishes there).
    """
    if v.dim != 2:
        raise DimensionMismatch("plane monodromy needs a 2D polygon")
    if ell <= 0.0:
        raise ValueError("length parameter must be positive")
    ells = np.array([ell], dtype=float)
    if _pole_hits(v, ells, tol).any():
        raise DegenerateMonodromy(f"length parameter {ell} coincides with a side length")
    return Mobius2(_monodromy_matrix(v, ells)[0])


def _disc_terms(m: np.ndarray):
    """Discriminant Tr^2 - 4 det of a (2, 2) matrix or a stack (S, 2, 2) in the
    cancellation-free form (m00 - m11)^2 + 4 m01 m10, then its two terms.

    The naive Tr^2 - 4 det loses all significant digits on near-scalar
    matrices (large length parameters), where the two expressions differ by
    eight-plus digits of cancellation.
    """
    diff = m[..., 0, 0] - m[..., 1, 1]
    cross = 4.0 * (m[..., 0, 1] * m[..., 1, 0])
    return diff * diff + cross, diff * diff, cross


def classify(m: Mobius2, tol: Tolerance = DEFAULT_TOL) -> MonodromyClass:
    """Conjugacy class from the discriminant Tr^2 - 4 det.

    Identity and singular matrices are split off first; the remaining
    trichotomy is: positive discriminant hyperbolic, negative elliptic,
    zero (within the scale-aware eps_class band) parabolic.
    """
    if m.is_identity(tol):
        return MonodromyClass.IDENTITY
    s = float(np.abs(m.m).max())
    det = m.det
    if abs(det) <= (tol.eps_geom * s) * s:
        return MonodromyClass.DEGENERATE
    disc, square, cross = _disc_terms(m.m)
    band = tol.eps_class * max(square, abs(cross))
    if disc > band:
        return MonodromyClass.HYPERBOLIC
    if disc < -band:
        return MonodromyClass.ELLIPTIC
    return MonodromyClass.PARABOLIC


class FixedDirection(NamedTuple):
    angle: float
    derivative: float


class _AllDirections:
    """Marker: every direction is fixed (identity monodromy)."""

    def __repr__(self) -> str:
        return "ALL_DIRECTIONS"


ALL_DIRECTIONS = _AllDirections()


def fixed_directions(m: Mobius2, tol: Tolerance = DEFAULT_TOL):
    """Fixed directions of the projective action, with map derivatives.

    Works with homogeneous eigenvector pairs (p : q), so the chart's point
    at infinity (direction angle pi) needs no special casing.  Hyperbolic
    input yields two entries sorted attracting first (|derivative| < 1),
    parabolic one entry; identity returns the ALL_DIRECTIONS marker and
    elliptic raises NoRealFixedPoint.
    """
    return _fixed_directions(m, classify(m, tol))


def _fixed_directions(m: Mobius2, klass: MonodromyClass):
    """fixed_directions of m, given its class as classify computed it."""
    if klass is MonodromyClass.IDENTITY:
        return ALL_DIRECTIONS
    if klass is MonodromyClass.ELLIPTIC:
        raise NoRealFixedPoint("elliptic monodromy has no real fixed direction")
    if klass is MonodromyClass.DEGENERATE:
        raise DegenerateMonodromy("singular monodromy has no well-defined fixed directions")
    tr, det = m.trace, m.det
    if klass is MonodromyClass.PARABOLIC:
        eigs = [tr / 2.0]
    else:
        root = math.sqrt(_disc_terms(m.m)[0])
        eigs = [(tr + root) / 2.0, (tr - root) / 2.0]
    out = []
    for lam in eigs:
        # eigenvector of the matrix = homogeneous fixed point of the action
        cand1 = np.array([m.m[0, 1], lam - m.m[0, 0]])
        cand2 = np.array([lam - m.m[1, 1], m.m[1, 0]])
        p, q = cand1 if np.linalg.norm(cand1) >= np.linalg.norm(cand2) else cand2
        if q < 0.0 or (q == 0.0 and p < 0.0):
            p, q = -p, -q
        angle = 2.0 * math.atan2(p, q)
        out.append(FixedDirection(angle=angle, derivative=det / (lam * lam)))
    out.sort(key=lambda fd: abs(fd.derivative))
    return out


class TracePoly:
    """Half-trace of the monodromy as a polynomial in the length parameter.

    coeffs[0] = 1 (monic normalization); evaluating at ell gives
    ell^k + c_1 ell^(k-1) + ... + c_k = Tr(M)/2.
    """

    def __init__(self, coeffs):
        self.coeffs = tuple(float(c) for c in coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, ell: float) -> float:
        acc = 0.0
        for c in self.coeffs:
            acc = acc * ell + c
        return acc

    def __repr__(self) -> str:
        return f"TracePoly({list(self.coeffs)!r})"


def trace_polynomial(v: Polygon) -> TracePoly:
    """Expand the side-matrix product as a matrix polynomial and halve its trace.

    Guarantees c_0 = 1; the odd coefficients vanish and c_2 = -1/2 sum a_i^2
    for every closed polygon, which the tests assert.
    """
    if v.dim != 2:
        raise DimensionMismatch("the trace polynomial needs a 2D polygon")
    # side matrix = ell I + S_j; c[i] collects the ell^(k-i) terms of the product
    c = np.zeros((len(v) + 1, 2, 2))
    c[0] = np.eye(2)
    for j, step in enumerate(_side_matrices(v, np.zeros(1))[0]):
        c[1 : j + 2] += step @ c[: j + 1]
    return TracePoly(0.5 * (c[:, 0, 0] + c[:, 1, 1]))


def direction_step(u, x, a: float, ell: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """New unit frame direction after one side, from the reflection formula.

    u is the incoming frame direction, x the unit side direction, a the side
    length.  Cleared of intermediate poles, the update reads

        v = ((ell^2 - a^2) u + (2 a^2 (x.u) - 2 a ell) x) / (ell^2 + a^2 - 2 a ell x.u)

    and only degenerates when the denominator vanishes (ell = a with u = x).
    """
    u, x = as_vec(u), as_vec(x)
    check_same_dim(u, x)
    for name, w in (("u", u), ("x", x)):
        if abs(np.linalg.norm(w) - 1.0) > 1e-9:
            raise ValueError(f"{name} must be a unit vector")
    if a < 0.0 or ell <= 0.0:
        raise ValueError("need a >= 0 and ell > 0")
    xu = float(np.dot(x, u))
    den = ell * ell + a * a - 2.0 * a * ell * xu
    if den <= tol.eps_geom * (ell * ell + a * a):
        raise PoleAtEllEqualsA("direction step undefined: ell = a with u = x")
    out = ((ell * ell - a * a) * u + (2.0 * a * a * xu - 2.0 * a * ell) * x) / den
    return out / np.linalg.norm(out)


class LorentzMatrix:
    """(n+1)x(n+1) matrix preserving the form G = diag(1, ..., 1, -1).

    Acts projectively on the sphere of directions S^(n-1) through the
    spherization of the null cone.
    """

    __slots__ = ("m",)

    def __init__(self, m, check: bool = True):
        m = np.array(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 3:
            raise DimensionMismatch("LorentzMatrix wants a square matrix of size >= 3")
        m.setflags(write=False)
        self.m = m
        if check:
            defect = self.gram_defect()
            scale = max(1.0, float(np.abs(m).max()) ** 2)
            if defect > 1e-9 * scale:
                raise ValueError(f"not a Lorentz matrix: MtGM - G defect {defect:.3e}")

    @property
    def n(self) -> int:
        """Spatial dimension."""
        return self.m.shape[0] - 1

    def _metric(self) -> np.ndarray:
        g = np.eye(self.n + 1)
        g[-1, -1] = -1.0
        return g

    def gram_defect(self) -> float:
        g = self._metric()
        return float(np.abs(self.m.T @ g @ self.m - g).max())

    def __matmul__(self, other: "LorentzMatrix") -> "LorentzMatrix":
        return LorentzMatrix(self.m @ other.m, check=False)

    def __repr__(self) -> str:
        return f"<LorentzMatrix n={self.n}>"


def edge_lorentz(ell: float, a: float, x, tol: Tolerance = DEFAULT_TOL) -> LorentzMatrix:
    """Lorentz block matrix of one bicycle step in dimension n.

    Blocks: A = E + (2 a^2 / (ell^2 - a^2)) x x^t,
    xi = eta = -(2 a ell / (ell^2 - a^2)) x, lambda = (ell^2 + a^2) / (ell^2 - a^2).
    """
    x = as_vec(x)
    if abs(np.linalg.norm(x) - 1.0) > 1e-9:
        raise ValueError("x must be a unit vector")
    if a < 0.0 or ell <= 0.0:
        raise ValueError("need a >= 0 and ell > 0")
    if abs(ell - a) <= tol.eps_geom * max(ell, a):
        raise PoleAtEllEqualsA("edge matrix has a pole at ell = a")
    n = x.shape[0]
    c = ell * ell - a * a
    m = np.zeros((n + 1, n + 1))
    m[:n, :n] = np.eye(n) + (2.0 * a * a / c) * np.outer(x, x)
    m[:n, n] = m[n, :n] = -(2.0 * a * ell / c) * x
    m[n, n] = (ell * ell + a * a) / c
    return LorentzMatrix(m, check=False)


def lorentz_action(m: LorentzMatrix, u, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Projective action u -> (A u + xi) / (eta . u + lambda) on unit vectors."""
    u = as_vec(u)
    n = m.n
    if u.shape[0] != n:
        raise DimensionMismatch(f"expected dimension {n}, got {u.shape[0]}")
    if abs(np.linalg.norm(u) - 1.0) > 1e-9:
        raise ValueError("u must be a unit vector")
    den = float(m.m[n, :n] @ u + m.m[n, n])
    if abs(den) <= tol.eps_geom * max(1.0, float(np.abs(m.m).max())):
        raise ProjectiveDenominatorZero("projective denominator vanishes")
    out = (m.m[:n, :n] @ u + m.m[:n, n]) / den
    return out / np.linalg.norm(out)


def lorentz_monodromy(v: Polygon, ell: float, tol: Tolerance = DEFAULT_TOL) -> LorentzMatrix:
    """Whole-polygon monodromy in dimension n, later sides on the left."""
    if ell <= 0.0:
        raise ValueError("length parameter must be positive")
    m = np.eye(v.dim + 1)
    for side in v.sides():
        a = float(np.linalg.norm(side))
        m = edge_lorentz(ell, a, side / a, tol).m @ m
    return LorentzMatrix(m, check=False)


def lorentz_fixed_directions(m: LorentzMatrix, tol: Tolerance = DEFAULT_TOL):
    """Fixed unit directions of the projective Lorentz action.

    Fixed points correspond to real eigenvectors lying on the null cone.
    Repeated real eigenvalues get their null directions from the quadratic
    q(s, t) = (s b1 + t b2)^t G (s b1 + t b2) = 0 on the eigenplane.
    Returns a list of (unit_vector, eigenvalue) sorted by |eigenvalue|
    descending; empty only for badly degenerate input.
    """
    n = m.n
    g = np.eye(n + 1)
    g[-1, -1] = -1.0
    w, vecs = np.linalg.eig(m.m)
    scale = float(np.abs(w).max())
    real_idx = [i for i in range(len(w)) if abs(w[i].imag) <= 1e-9 * scale]
    # group (near-)equal real eigenvalues
    groups: list[list[int]] = []
    for i in sorted(real_idx, key=lambda j: w[j].real):
        if groups and abs(w[groups[-1][-1]].real - w[i].real) <= 1e-7 * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    found: list[tuple[np.ndarray, float]] = []

    def push(vec: np.ndarray, lam: float) -> None:
        if abs(vec[n]) <= 1e-9 * np.linalg.norm(vec):
            return
        u = vec[:n] / vec[n]
        nu = np.linalg.norm(u)
        if abs(nu - 1.0) > 1e-6:
            return
        u = u / nu
        if all(np.linalg.norm(u - prev) > 1e-7 for prev, _ in found):
            found.append((u, lam))

    for grp in groups:
        lam = float(np.mean([w[i].real for i in grp]))
        cols = []
        for i in grp:
            cols.append(vecs[:, i].real)
            if np.abs(vecs[:, i].imag).max() > 1e-12 * scale:
                cols.append(vecs[:, i].imag)
        basis = np.array(cols).T
        # orthonormal basis of the eigenspace, rank-revealing
        q, s, _ = np.linalg.svd(basis, full_matrices=False)
        rank = int((s > 1e-9 * max(s[0], 1e-300)).sum())
        basis = q[:, :rank]
        if rank == 1:
            b = basis[:, 0]
            if abs(b @ g @ b) <= 1e-7 * float(b @ b):
                push(b, lam)
        else:
            b1, b2 = basis[:, 0], basis[:, 1]
            qa, qb, qc = float(b1 @ g @ b1), float(b1 @ g @ b2), float(b2 @ g @ b2)
            qscale = max(abs(qa), abs(qb), abs(qc), 1e-300)
            # qa s^2 + 2 qb s t + qc t^2 = 0 on the eigenplane s b1 + t b2
            if abs(qa) <= 1e-12 * qscale:
                push(b1, lam)
                if abs(qb) > 1e-12 * qscale:
                    push(-qc * b1 + 2.0 * qb * b2, lam)
            else:
                disc = qb * qb - qa * qc
                if disc >= 0.0:
                    for root in ((-qb + math.sqrt(disc)) / qa, (-qb - math.sqrt(disc)) / qa):
                        push(root * b1 + b2, lam)
    found.sort(key=lambda t: -abs(t[1]))
    return found


@dataclass(frozen=True)
class ScanPoint:
    ell: float
    klass: MonodromyClass
    invariant: float
    derivatives: tuple[float, ...] | None


def classification_scan(
    v: Polygon, lmin: float, lmax: float, steps: int, tol: Tolerance = DEFAULT_TOL
) -> list[ScanPoint]:
    """Classify the monodromy over a grid of length parameters.

    Grid points within eps of a side length are nudged off the pole.
    """
    if steps < 2 or lmin <= 0 or lmax <= lmin:
        raise ValueError("need lmax > lmin > 0 and steps >= 2")
    if v.dim != 2:
        raise DimensionMismatch("plane monodromy needs a 2D polygon")
    spacing = (lmax - lmin) / (steps - 1)
    ells = np.linspace(lmin, lmax, steps)
    hits = _pole_hits(v, ells, tol)
    nudge = np.maximum(1e-9 * v.side_lengths()[hits.argmax(axis=1)], 1e-6 * spacing)
    ells = np.where(hits.any(axis=1), ells + nudge, ells)
    out = []
    for ell, row in zip(ells.tolist(), _monodromy_matrix(v, ells)):
        mob = Mobius2(row)
        klass = classify(mob, tol)
        derivs = None
        if klass in (MonodromyClass.HYPERBOLIC, MonodromyClass.PARABOLIC):
            derivs = tuple(fd.derivative for fd in _fixed_directions(mob, klass))
        out.append(ScanPoint(ell=ell, klass=klass, invariant=mob.trace_sq_over_det(), derivatives=derivs))
    return out


def discriminant(v: Polygon, ell: float) -> float:
    """Tr^2 - 4 det of the monodromy matrix, as a smooth function of ell
    (cancellation-free form, stable enough for boundary bisection)."""
    return float(_disc_terms(_monodromy_matrix(v, np.array([ell], dtype=float))[0])[0])


def refine_class_boundaries(
    v: Polygon, lmin: float, lmax: float, steps: int = 64, xtol: float = 1e-10, tol: Tolerance = DEFAULT_TOL
) -> list[float]:
    """Bisect the sign changes of the discriminant over [lmin, lmax].

    Returns the length parameters of the parabolic boundaries to within xtol.
    """
    if steps < 2 or lmin <= 0 or lmax <= lmin or not xtol > 0:
        raise ValueError("need lmax > lmin > 0, steps >= 2 and xtol > 0")
    grid = np.linspace(lmin, lmax, steps)
    vals = _disc_terms(_monodromy_matrix(v, grid))[0]
    start = (vals[:-1] == 0.0) | ~(vals[:-1] * vals[1:] >= 0.0)
    lo, hi, flo = grid[:-1][start], grid[1:][start], vals[:-1][start]
    hi[flo == 0.0] = lo[flo == 0.0]
    live = np.flatnonzero(hi - lo > xtol)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        fmid = _disc_terms(_monodromy_matrix(v, mid))[0]
        zero, left = fmid == 0.0, flo[live] * fmid < 0.0
        # a bracket one ulp wide cannot be split; it is done
        stuck = (mid == lo[live]) | (mid == hi[live])
        lo[live] = np.where(left, lo[live], mid)
        hi[live] = np.where(left | zero, mid, hi[live])
        flo[live] = np.where(left, flo[live], fmid)
        live = live[~(zero | stuck) & (hi[live] - lo[live] > xtol)]
    return (0.5 * (lo + hi)).tolist()
