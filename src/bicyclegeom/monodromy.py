"""Monodromy of the discrete bicycle construction.

In the plane, carrying a frame segment of length ell along one polygon side
acts on the circle of frame directions as a fractional-linear map.  With the
chart x = tan(alpha/2) (stereographic projection from (-1, 0), alpha measured
counterclockwise from +x), a side vector (dx, dy) = a (cos phi, sin phi) of
length a and direction phi acts as the 2x2 matrix

    [[ell + dx, -dy], [-dy, ell - dx]],

with determinant ell^2 - a^2.  The whole-polygon monodromy is the product of
these over the sides, later sides multiplying on the left, computed as a
pairwise tree and kept as m 2**e (exact power-of-two rescaling, so it cannot
overflow); scale-free answers are read off m by one row classifier and one
fixed-direction solver.  Where the polygon is known, the determinant is not
taken from m but from the sides, as the sign and log2 of prod(ell^2 - a^2):
on a strongly hyperbolic product a d - b c of m rounds to 0.  In dimension n
the same step is a Lorentz matrix in O(n,1) acting projectively on the
sphere of directions.  One unchecked row builder gives these matrices for
edge_lorentz and lorentz_monodromy, which validate once; the fixed directions
are the dominant eigenvectors of M and of its exact inverse G M^t G, with
the null lines of ker(M -+ I) where those give fewer than two.
"""

from __future__ import annotations

import enum
import math
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

_TINY = np.finfo(float).tiny  # smallest normal double


class MonodromyClass(enum.Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    IDENTITY = "identity"
    DEGENERATE = "degenerate"


class Mobius2:
    """Real 2x2 matrix acting projectively on the circle of directions.

    Defined up to a nonzero scalar factor; comparisons are projective.
    polygon_monodromy also records the exact determinant, as the sign, log2
    mantissa and integer log2 exponent of _log2_det; a bare Mobius2 takes
    a d - b c.
    """

    __slots__ = ("m", "_logdet")

    def __init__(self, m, _logdet: tuple[float, float, int] | None = None):
        m = np.array(m, dtype=float)
        if m.shape != (2, 2):
            raise DimensionMismatch("Mobius2 wants a 2x2 matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        if np.abs(m).max() == 0.0:
            raise ValueError("the zero matrix is not a projective transformation")
        m.setflags(write=False)
        self.m = m
        self._logdet = _logdet

    @property
    def trace(self) -> float:
        return float(self.m[0, 0] + self.m[1, 1])

    @property
    def det(self) -> float:
        if self._logdet is not None:
            sign, mant, exp = self._logdet
            return _pow2(sign, mant + exp)
        return float(self.m[0, 0] * self.m[1, 1] - self.m[0, 1] * self.m[1, 0])

    def _row(self):
        """The entries (a, b, c, d) rescaled to a largest entry in [0.5, 1), and
        the (sign, log2 |det|) of that rescaled matrix."""
        unit, shift = _rescale(self.m)
        row = unit.ravel().tolist()
        if self._logdet is None:
            return row, _row_det(row)
        sign, mant, exp = self._logdet
        return row, (sign, mant + (exp - 2 * int(shift)))

    def __matmul__(self, other: "Mobius2") -> "Mobius2":
        return Mobius2(self.m @ other.m)

    def proj_distance(self, other: "Mobius2") -> float:
        """Frobenius distance between unit-normalized representatives, min over sign."""
        a = self.m / np.linalg.norm(self.m)
        b = other.m / np.linalg.norm(other.m)
        return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))

    def is_identity(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return classify(self, tol) is MonodromyClass.IDENTITY

    def trace_sq_over_det(self) -> float:
        """The projective-scale invariant Tr^2 / det (+-inf at degenerate points)."""
        return _tr2_over_det(*self._row())

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


def _rescale(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each 2x2 matrix of a stack by the power of two that puts its
    largest entry in [0.5, 1), exactly; return it and the exponents taken out."""
    x = np.abs(a)
    x = np.maximum(x[..., 0], x[..., 1])  # elementwise: max over short axes is slow
    shift = np.frexp(np.maximum(x[..., 0], x[..., 1]))[1]
    return np.ldexp(a, -shift[..., None, None]), shift


def _pow2(sign: float, x: float) -> float:
    """sign 2**x, infinite past the double range (2.0 ** x raises there)."""
    return sign * 2.0**x if x < 1024.0 else sign * math.inf


def _row_det(row) -> tuple[float, float]:
    """(sign, log2 |det|) of row = (a, b, c, d) from a d - b c."""
    a, b, c, d = row
    det = a * d - b * c
    return (math.copysign(1.0, det), math.log2(abs(det))) if det else (0.0, -math.inf)


_MINUS_PLUS = np.array([[-1.0], [1.0]])  # rows ell - a_j and ell + a_j


def _log2_det(v: Polygon, ells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Determinant of the raw side product per length, exactly prod (ell - a_j)
    (ell + a_j), as its sign and log2 |det| = mant + exp: the log2 of the
    factors' frexp mantissas and the integer sum of their exponents, so no
    partial product leaves the double range and a power-of-two scale of the
    polygon changes exp alone.  The lengths must be off the poles ell = a_j."""
    mant, exp = np.frexp(ells[:, None, None] + _MINUS_PLUS * v.side_lengths())
    return np.sign(mant[:, 0]).prod(axis=1), np.log2(np.abs(mant)).sum(axis=(1, 2)), exp.sum(axis=(1, 2))


def _monodromy_product(v: Polygon, ells: np.ndarray, leaves=None) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked side-matrix products m 2**e per length, m (lengths, 2, 2) rescaled:
    a pairwise tree, later sides on the left, an identity pad on odd levels,
    every level rescaled, so any finite polygon gives a finite m.  leaves, when
    given, is the stack _rescale(_side_matrices(v, ells)) already built; the
    tree does not write to it."""
    if leaves is None:
        if len(ells) > 1 and len(ells) * len(v) > 1 << 16:  # bound the side stack's memory
            halves = zip(*(_monodromy_product(v, h) for h in np.array_split(ells, 2)))
            return tuple(np.concatenate(parts) for parts in halves)
        leaves = _rescale(_side_matrices(v, ells))
    a, e = leaves
    while a.shape[1] > 1:
        if a.shape[1] % 2:
            a = np.concatenate([a, np.broadcast_to(np.eye(2), (len(a), 1, 2, 2))], axis=1)
            e = np.concatenate([e, np.zeros_like(e[:, :1])], axis=1)
        a, shift = _rescale(a[:, 1::2] @ a[:, 0::2])
        e = e[:, 1::2] + e[:, 0::2] + shift
    return a[:, 0], e[:, 0]


def _pole_hits(v: Polygon, ells: np.ndarray, tol: Tolerance) -> np.ndarray:
    """(lengths x sides) mask of |ell - a| <= eps_geom max(ell, a)."""
    a, ell = v.side_lengths(), ells[:, None]
    return np.abs(ell - a) <= tol.eps_geom * np.maximum(ell, a)


def _product_at(v: Polygon, ell: float, tol: Tolerance, leaves=None):
    """The (m, e) of the monodromy at one length, validated as polygon_monodromy,
    and the (sign, mant, exp) of its raw determinant from _log2_det; leaves as
    for _monodromy_product."""
    if v.dim != 2:
        raise DimensionMismatch("plane monodromy needs a 2D polygon")
    if ell <= 0.0:
        raise ValueError("length parameter must be positive")
    ells = np.array([ell], dtype=float)
    if _pole_hits(v, ells, tol).any():
        raise DegenerateMonodromy(f"length parameter {ell} coincides with a side length")
    m, e = _monodromy_product(v, ells, leaves)
    sign, mant, exp = _log2_det(v, ells)
    return m[0], int(e[0]), (float(sign[0]), float(mant[0]), int(exp[0]))


def polygon_monodromy(v: Polygon, ell: float, tol: Tolerance = DEFAULT_TOL) -> Mobius2:
    """Whole-polygon monodromy: product of side matrices in traversal order,
    later sides on the left.

    Raises DegenerateMonodromy when ell coincides with a side length (the
    determinant prod(ell^2 - a_i^2) vanishes there), and ValueError where the
    raw product leaves the double range: its entries overflow, or its
    largest entry underflows to 0 or a subnormal (naming the length).
    """
    m, e, logdet = _product_at(v, ell, tol)
    with np.errstate(over="ignore"):
        raw = np.ldexp(m, e)
    if np.abs(raw).max() < _TINY:
        raise ValueError(f"monodromy entries underflow at length {ell!r}")
    return Mobius2(raw, logdet)


def _disc_terms(a, b, c, d):
    """Discriminant Tr^2 - 4 det of [[a, b], [c, d]] (floats or arrays) in the
    cancellation-free form (a - d)^2 + 4 b c, then its two terms; the naive
    form loses every digit on near-scalar matrices (large length parameters)."""
    diff = a - d
    square, cross = diff * diff, 4.0 * (b * c)
    return square + cross, square, cross


def _classify_row(row, tol: Tolerance, det: tuple[float, float]) -> MonodromyClass:
    """Class of [[a, b], [c, d]] from the floats row = (a, b, c, d) and the
    (sign, log2 |det|) of that matrix: identity, singular (det sign 0), then
    by the discriminant's sign outside the eps_class band; in the band
    parabolic, or singular if the double eigenvalue is 0."""
    a, b, c, d = row
    eps = tol.eps_geom * max(abs(a), abs(b), abs(c), abs(d))
    if abs(b) <= eps and abs(c) <= eps and abs(a - d) <= eps:
        return MonodromyClass.IDENTITY
    if not det[0]:
        return MonodromyClass.DEGENERATE
    disc, square, cross = _disc_terms(a, b, c, d)
    band = tol.eps_class * max(square, abs(cross))
    if disc > band:
        return MonodromyClass.HYPERBOLIC
    if disc < -band:
        return MonodromyClass.ELLIPTIC
    return MonodromyClass.PARABOLIC if a + d else MonodromyClass.DEGENERATE


def classify(m: Mobius2, tol: Tolerance = DEFAULT_TOL) -> MonodromyClass:
    """Conjugacy class from the discriminant Tr^2 - 4 det (scale-free)."""
    row, det = m._row()
    return _classify_row(row, tol, det)


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
    input yields two entries, attracting first (|derivative| < 1),
    parabolic one entry; identity returns the ALL_DIRECTIONS marker and
    elliptic raises NoRealFixedPoint.
    """
    row, det = m._row()
    return _fixed_row(row, _classify_row(row, tol, det), det)


def _eigen_row(row, klass: MonodromyClass, det: tuple[float, float]) -> list[tuple[float, float]]:
    """(eigenvalue, map derivative) per fixed direction of a hyperbolic or
    parabolic row = (a, b, c, d) with (sign, log2 |det|): the dominant
    eigenvalue lam attracts (derivative det / lam^2), det / lam repels; both
    derivatives taken in log2, so a det far below lam^2 neither rounds nor
    underflows on the way."""
    a, b, c, d = row
    sign, log2det = det
    tr = a + d
    if klass is MonodromyClass.PARABOLIC:
        lam = 0.5 * tr
        return [(lam, _pow2(sign, log2det - 2.0 * math.log2(abs(lam))))]
    lam = 0.5 * (tr + math.copysign(math.sqrt(_disc_terms(a, b, c, d)[0]), tr))
    log2lam = math.log2(abs(lam))
    return [
        (lam, _pow2(sign, log2det - 2.0 * log2lam)),
        ((a * d - b * c) / lam, _pow2(sign, 2.0 * log2lam - log2det)),
    ]


def _fixed_row(row, klass: MonodromyClass, det: tuple[float, float]):
    """fixed_directions of row = (a, b, c, d) given its class and (sign, log2
    |det|), the eigenvalues and derivatives from _eigen_row.  The
    eigenvectors need det / lam only next to a and d, to which a d - b c is
    exact enough."""
    if klass is MonodromyClass.IDENTITY:
        return ALL_DIRECTIONS
    if klass is MonodromyClass.ELLIPTIC:
        raise NoRealFixedPoint("elliptic monodromy has no real fixed direction")
    if klass is MonodromyClass.DEGENERATE:
        raise DegenerateMonodromy("singular monodromy has no well-defined fixed directions")
    a, b, c, d = row
    out = []
    for lam, derivative in _eigen_row(row, klass, det):
        # eigenvector of the matrix = homogeneous fixed point of the action
        p, q = (b, lam - a) if math.hypot(b, lam - a) >= math.hypot(lam - d, c) else (lam - d, c)
        if q < 0.0 or (q == 0.0 and p < 0.0):
            p, q = -p, -q
        out.append(FixedDirection(2.0 * math.atan2(p, q), derivative))
    return out


def _tr2_over_det(row, det: tuple[float, float]) -> float:
    a, b, c, d = row
    sign, log2det = det
    tr = a + d
    if not sign:
        return math.inf if tr else math.nan
    if not tr:
        return 0.0 * sign
    return _pow2(sign, 2.0 * math.log2(abs(tr)) - log2det)


_FIXED_CLASSES = (MonodromyClass.HYPERBOLIC, MonodromyClass.PARABOLIC)  # isolated fixed directions


def _row_summary(row, tol: Tolerance, det: tuple[float, float]):
    """Class, Tr^2/det and fixed directions (None unless hyperbolic or parabolic) of a row."""
    klass = _classify_row(row, tol, det)
    dirs = _fixed_row(row, klass, det) if klass in _FIXED_CLASSES else None
    return klass, _tr2_over_det(row, det), dirs


def _summary_at(v: Polygon, ell: float, tol: Tolerance, leaves=None):
    """_row_summary of the monodromy at one length, validated as polygon_monodromy;
    leaves as for _monodromy_product."""
    m, e, (sign, mant, exp) = _product_at(v, ell, tol, leaves)
    return _row_summary(m.ravel().tolist(), tol, (sign, mant + (exp - 2 * e)))


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


def _lorentz_sides(ell: float, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Unchecked Lorentz matrices of sides of lengths a (k,) and unit
    directions x (k, n), shape (k, n+1, n+1); the blocks are edge_lorentz's."""
    k, n = x.shape
    c = ell * ell - a * a
    out = np.zeros((k, n + 1, n + 1))
    out[:, :n, :n] = np.eye(n) + (2.0 * a * a / c)[:, None, None] * (x[:, :, None] * x[:, None, :])
    out[:, :n, n] = out[:, n, :n] = -(2.0 * a * ell / c)[:, None] * x
    out[:, n, n] = (ell * ell + a * a) / c
    return out


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
    return LorentzMatrix(_lorentz_sides(ell, np.array([a], dtype=float), x[None])[0], check=False)


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
    """Whole-polygon monodromy in dimension n, later sides on the left.

    Raises PoleAtEllEqualsA when ell coincides with a side length, and
    ValueError, naming the length, where the product overflows.
    """
    if ell <= 0.0:
        raise ValueError("length parameter must be positive")
    if _pole_hits(v, np.array([ell], dtype=float), tol).any():
        raise PoleAtEllEqualsA("edge matrix has a pole at ell = a")
    a = v.side_lengths()
    m = np.eye(v.dim + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for side in _lorentz_sides(ell, a, v.sides() / a[:, None]):
            m = side @ m
    if not np.isfinite(m).all():
        raise ValueError(f"Lorentz monodromy entries overflow at length {float(ell)!r}")
    return LorentzMatrix(m, check=False)


def lorentz_fixed_directions(m: LorentzMatrix, tol: Tolerance = DEFAULT_TOL):
    """Fixed unit directions u of the projective Lorentz action, with the
    eigenvalues of their null vectors (u, 1), sorted by |eigenvalue| descending:
    the dominant eigenvectors of M (attracting; eigenvalue exactly real) and of
    its exact inverse G M^t G (repelling).  Short of two, the null lines of
    ker(M -+ I) by SVD (singular values <= eps_geom |M| count as zero): one line
    (parabolic), two on a plane (quadratic roots), none on more (identity)."""
    n, g, cut = m.n, m._metric(), math.sqrt(tol.eps_geom)
    found = []

    def push(vec, mat, power):  # eigenvalue (mat (u, 1))_n ** power
        x, t = vec[:n], vec[n]
        if abs(x @ x - t * t) <= cut * t * t:  # null, so x / t stays finite
            u = x / math.copysign(np.linalg.norm(x), t)
            if all(np.linalg.norm(u - p) > cut for p, _ in found):
                found.append((u, float(mat[n, :n] @ u + mat[n, n]) ** power))
    for mat, power in ((m.m, 1.0), (g @ m.m.T @ g, -1.0)):
        w, vecs = np.linalg.eig(mat)
        i = np.abs(w).argmax()
        if w[i].imag == 0.0:
            push(vecs[:, i].real, mat, power)
    if len(found) < 2:
        found.clear()
        for lam in (1.0, -1.0):
            _, s, vt = np.linalg.svd(m.m - lam * np.eye(n + 1))
            b = vt[s <= tol.eps_geom * np.linalg.norm(m.m, 2)]
            if len(b) == 2:  # null lines of qa s^2 + 2 qb s t + qc t^2 = |s b0 + t b1|_G^2
                (qa, qb), (_, qc) = b @ g @ b.T
                r = -qb - math.copysign(math.sqrt(max(qb * qb - qa * qc, 0.0)), qb)
                b = [r * b[0] + qa * b[1], qc * b[0] + r * b[1]]
            for vec in b if len(b) <= 2 else ():  # a larger kernel isolates no line
                push(vec, m.m, 1.0)
    return sorted(found, key=lambda t: -abs(t[1]))


class ScanPoint(NamedTuple):
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
    m, e = _monodromy_product(v, ells)
    sign, mant, exp = _log2_det(v, ells)
    dets = zip(sign.tolist(), (mant + (exp - 2 * e)).tolist())
    out = []
    for ell, row, det in zip(ells.tolist(), m.reshape(-1, 4).tolist(), dets):
        klass = _classify_row(row, tol, det)
        derivs = tuple([x for _, x in _eigen_row(row, klass, det)]) if klass in _FIXED_CLASSES else None
        out.append(ScanPoint(ell, klass, _tr2_over_det(row, det), derivs))
    return out


def _discriminants(v: Polygon, ells: np.ndarray, raw: bool = False) -> np.ndarray:
    """Discriminants of the monodromy over a batch of lengths: of the rescaled
    m, which have the sign of the raw ones, or with raw of the product itself;
    ValueError, naming the first such length, where one is not finite, or
    where raw underflows a normal rescaled value to 0 or a subnormal."""
    m, e = _monodromy_product(v, ells)
    vals = _disc_terms(*m.reshape(-1, 4).T)[0]
    if raw:
        with np.errstate(over="ignore"):
            scaled, vals = vals, np.ldexp(vals, 2 * e)
        lost = ells[(np.abs(vals) < _TINY) & (np.abs(scaled) >= _TINY)]
        if lost.size:
            raise ValueError(f"discriminant underflows at length {float(lost[0])!r}")
    bad = ells[~np.isfinite(vals)]
    if bad.size:
        raise ValueError(f"discriminant is not finite at length {float(bad[0])!r}")
    return vals


def discriminant(v: Polygon, ell: float) -> float:
    """Tr^2 - 4 det of the monodromy matrix, as a smooth function of ell
    (cancellation-free form, stable enough for boundary bisection).
    Raises ValueError where it leaves the double range."""
    if v.dim != 2:
        raise DimensionMismatch("plane monodromy needs a 2D polygon")
    return float(_discriminants(v, np.array([ell], dtype=float), raw=True)[0])


def refine_class_boundaries(
    v: Polygon, lmin: float, lmax: float, steps: int = 64, xtol: float = 1e-10, tol: Tolerance = DEFAULT_TOL
) -> list[float]:
    """Bisect the sign changes of the discriminant over [lmin, lmax].

    Returns the length parameters of the parabolic boundaries to within xtol.
    Bisects the sign of the rescaled discriminant, which stays finite.
    """
    if steps < 2 or lmin <= 0 or lmax <= lmin or not xtol > 0:
        raise ValueError("need lmax > lmin > 0, steps >= 2 and xtol > 0")
    if v.dim != 2:
        raise DimensionMismatch("plane monodromy needs a 2D polygon")
    grid = np.linspace(lmin, lmax, steps)
    vals = _discriminants(v, grid)
    start = (vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)
    lo, hi, flo = grid[:-1][start], grid[1:][start], vals[:-1][start]
    hi[flo == 0.0] = lo[flo == 0.0]
    live = np.flatnonzero(hi - lo > xtol)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        fmid = _discriminants(v, mid)
        zero, left = fmid == 0.0, flo[live] * fmid < 0.0
        # a bracket one ulp wide cannot be split; it is done
        stuck = (mid == lo[live]) | (mid == hi[live])
        lo[live] = np.where(left, lo[live], mid)
        hi[live] = np.where(left | zero, mid, hi[live])
        flo[live] = np.where(left, flo[live], fmid)
        live = live[~(zero | stuck) & (hi[live] - lo[live] > xtol)]
    return (0.5 * (lo + hi)).tolist()
