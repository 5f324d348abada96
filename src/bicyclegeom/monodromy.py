"""Monodromy of the discrete bicycle construction.

In the plane, carrying a frame segment of length ell along one polygon side
acts on the circle of frame directions as a fractional-linear map.  With the
chart x = tan(alpha/2) (stereographic projection from (-1, 0), alpha measured
counterclockwise from +x), a side vector (dx, dy) = a (cos phi, sin phi) of
length a and direction phi acts as the 2x2 matrix

    [[ell + dx, -dy], [-dy, ell - dx]],

with determinant ell^2 - a^2.  The whole-polygon monodromy is the product of
these over the sides, later sides multiplying on the left, computed as a
pairwise tree kept as m 2**e (overflow-free: exact power-of-two scaling every
third level), the form Mobius2 holds; scale-free answers are read off m by one
row classifier and one fixed-direction solver.  The tree and the chart stay in
this module.  At one length _root_at builds the tree: polygon_monodromy adds
the exact determinant; _branch_at, the one reader of the companions, gives the
class, the number of fixed directions, a reader of direction i and one of the
frame directions e^(i alpha_j) at every vertex, one down-sweep of the same tree
(_frames).  _scan_point is the record (no eigenvector) that the scan and the
CLI's invariants report.  Where the polygon is known, the determinant is not
taken from m but from the sides, as the sign and log2 of prod(ell^2 - a^2): on
a strongly hyperbolic product a d - b c of m rounds to 0.  Its sign, all the
class reads, is the parity of the factors ell - a_j < 0.  In dimension n the
same step is a Lorentz matrix in O(n,1) acting projectively on the sphere of
directions.  One unchecked row builder gives these matrices for
edge_lorentz and lorentz_monodromy, which validate once; the fixed directions
are the dominant eigenvectors of M and of its exact inverse G M^t G, with
the null lines of ker(M -+ I) where those give fewer than two.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateMonodromy, DimensionMismatch, NoRealFixedPoint, PoleAtEllEqualsA
from .geometry import DEFAULT_TOL, Polygon, Tolerance, _TINY, as_vec, check_positive


class MonodromyClass(enum.Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    IDENTITY = "identity"
    DEGENERATE = "degenerate"


class Mobius2:
    """Real 2x2 matrix acting projectively on the circle of directions, up to a
    nonzero scalar factor, held as row 2**e: row its entries (a, b, c, d) with
    the largest in [0.5, 1), and log2det the (sign, log2 |det|) of row, from the
    sides in polygon_monodromy, else a d - b c.  The raw entries m are formed
    on demand; the scale-free readings use row and log2det alone."""

    __slots__ = ("row", "e", "log2det")

    def __init__(self, m):
        m = np.array(m, dtype=float)
        if m.shape != (2, 2):
            raise DimensionMismatch("Mobius2 wants a 2x2 matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        if np.abs(m).max() == 0.0:
            raise ValueError("the zero matrix is not a projective transformation")
        unit, shift = _rescale(m)
        a, b, c, d = self.row = unit.ravel().tolist()
        self.e, det = int(shift), a * d - b * c
        self.log2det = (math.copysign(1.0, det), math.log2(abs(det))) if det else (0.0, -math.inf)

    @classmethod
    def _root(cls, row: list[float], e: int, log2det: tuple[float, float]) -> Mobius2:
        """Unchecked: the value row 2**e, as the side tree gives it."""
        self = object.__new__(cls)
        self.row, self.e, self.log2det = row, e, log2det
        return self

    @property
    def m(self) -> np.ndarray:
        """The raw entries row 2**e; ValueError, naming the log2 scale e, where they
        overflow or their largest underflows to 0 or a subnormal."""
        with np.errstate(over="ignore"):
            raw = np.ldexp(np.reshape(self.row, (2, 2)), self.e)
        top = float(np.abs(raw).max())
        if not _TINY <= top < math.inf:
            raise ValueError(f"monodromy entries {'over' if top > 1 else 'under'}flow: log2 scale {self.e}")
        raw.setflags(write=False)
        return raw

    @property
    def trace(self) -> float:
        return float(np.trace(self.m))

    @property
    def det(self) -> float:
        """The determinant of m; ValueError, naming the log2 scale e, where it
        overflows or underflows to a subnormal (0.0 only for a singular row)."""
        sign, log2det = self.log2det
        x = log2det + 2 * self.e
        if sign and not -1022.0 <= x < 1024.0:
            raise ValueError(f"monodromy determinant {'over' if x > 0 else 'under'}flows: log2 scale {self.e}")
        return sign * 2.0**x

    def trace_sq_over_det(self) -> float:
        """The projective-scale invariant Tr^2 / det (+-inf at degenerate points)."""
        return _tr2_over_det(self.row, self.log2det)

    def __repr__(self) -> str:
        return f"Mobius2(row={self.row!r}, e={self.e})"


def _side_matrices(v: Polygon, ells: np.ndarray) -> np.ndarray:
    """Side matrices [[ell + dx, -dy], [-dy, ell - dx]], shape (lengths, sides, 2, 2)."""
    dx, dy = v.sides().T
    ell = ells[:, None]
    out = np.empty((len(ells), len(dx), 2, 2))
    np.add(ell, dx, out=out[..., 0, 0])
    np.negative(dy, out=out[..., 0, 1])
    out[..., 1, 0] = out[..., 0, 1]
    np.subtract(ell, dx, out=out[..., 1, 1])
    return out


def _rescale(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each 2x2 matrix of a stack by the power of two that puts its
    largest entry in [0.5, 1), exactly; return it and the exponents taken out."""
    x = np.abs(a)
    x = np.maximum(x[..., 0], x[..., 1])  # elementwise: max over short axes is slow
    shift = np.frexp(np.maximum(x[..., 0], x[..., 1]))[1]
    return np.ldexp(a, -shift[..., None, None]), shift


def _pow2(sign: float, x: float) -> float:
    """sign 2**x, infinite past the double range (2.0 ** x raises there), NaN for a NaN x."""
    return sign * math.inf if x >= 1024.0 else sign * 2.0**x


_MINUS_PLUS = np.array([[-1.0], [1.0]])  # rows ell - a_j and ell + a_j
_IDENTITY = np.eye(2)[None, None]  # the pad node of an odd tree level
_RESCALE_EVERY = 3  # _tree rescales every third level; the products between stay below 2**7
_HALF_ANGLE = (np.array([1j, 1.0]), np.array([1.0, -1j]))  # _frames: (p, q), and J (p, q) = (q, -p), -> z = q + i p


def _factors(v: Polygon, ells: np.ndarray) -> np.ndarray:
    """The side determinants' factors ell - a_j, ell + a_j, shape (lengths, 2, sides)."""
    return ells[:, None, None] + _MINUS_PLUS * v.side_lengths()


def _log2_det(f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Determinant of the raw side product per length, exactly the product of
    f = _factors, as its sign and log2 |det| = mant + exp: the log2 of the
    factors' frexp mantissas and the integer sum of their exponents, so no
    partial product leaves the double range and a power-of-two scale of the
    polygon changes exp alone.  The lengths must be off the poles ell = a_j."""
    mant, exp = np.frexp(f)
    return np.sign(mant[:, 0]).prod(axis=1), np.log2(np.abs(mant)).sum(axis=(1, 2)), exp.sum(axis=(1, 2))


def _tree(v: Polygon, ells: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Levels a (lengths, nodes, 2, 2) of the pairwise tree of v's side
    matrices per length, sides first and the one-node root last, and e with
    product = root 2**e: odd levels get an identity pad, and pairs, later
    sides on the left, form the next.  Only the leaves, every _RESCALE_EVERY-th
    level and the root are rescaled (exactly), so no entry reaches 2**7.  A leaf's
    largest entry is max(ell + |dx|, |dy|) as rounded (ell + |dx| the larger of
    ell + dx and ell - dx), read off the side matrices, which are scaled in place."""
    a = _side_matrices(v, ells)
    shift = np.frexp(np.maximum(np.maximum(a[..., 0, 0], a[..., 1, 1]), np.abs(a[..., 0, 1])))[1]
    np.ldexp(a, -shift[..., None, None], out=a)  # exact at any scale
    levels, shifts = [], [shift]
    while a.shape[1] > 1:
        if a.shape[1] % 2:
            a = np.concatenate([a, _IDENTITY.repeat(len(a), axis=0)], axis=1)
        levels.append(a)
        # @ rounds fma(a01, b10, a00 b00); elementwise put the wild 200-gon (D5) at 3.6e-10 > 2e-10 x scale
        a = a[:, 1::2] @ a[:, 0::2]
        if len(levels) % _RESCALE_EVERY == 0 or a.shape[1] == 1:
            a, shift = _rescale(a)
            shifts.append(shift)
    levels.append(a)
    return levels, np.concatenate(shifts, axis=1).sum(axis=1)  # every exponent taken out, summed once


def _frames(levels: list[np.ndarray], k: int, angle: float, backwards: bool) -> np.ndarray:
    """Unchecked: unit frame directions e^(i alpha_j), j = 0 ... k, rows (k + 1, 2), of the k-gon
    with _tree levels at one length, seeded at the fixed direction angle (alpha_0 = alpha_k).
    In the chart h_j = (sin alpha_j/2, cos alpha_j/2) up to scale, h_{j+1} ~ S_j h_j: the seed
    through a partial product.  One down-sweep of the tree gives every h over leaf positions,
    node i of level j spanning i 2**j ... (i + 1) 2**j (pads included), by two column
    multiply-adds per level, each h over its abs-sum (a node's power-of-two scale changes no
    bit).  Forwards h sits at node starts, a right child at its left sibling times h; backwards
    (the repelling branch's contracting direction) g = J h, J = [[0, 1], [-1, 0]], at node ends,
    a left child at its right sibling's transpose times g: J adj(R) = R^t J, the adjugate step.
    Floating-point errors are the caller's np.errstate (a zero step is NaN, for its check to catch)."""
    half = 0.5 * angle
    seed = (math.cos(half), -math.sin(half)) if backwards else (math.sin(half), math.cos(half))
    h = np.empty((2, (1 << len(levels) - 1) + 1))
    h[0, 0], h[1, 0] = seed
    h[:, -1] = h[:, 0]  # the root starts at 0 and ends at 2**D
    for j in range(len(levels) - 2, -1, -1):
        a, span, s = levels[j][0], 1 << j, 2 << j
        n = len(a) * span  # c[q, r, i]: node i's weight on its parent's h_q in row r
        if backwards:  # parents end at s, 2 s, ...; weights R[q, r] of the right sibling
            c, up = a[1::2].transpose(1, 2, 0), slice(s, n + 1, s)
        else:  # parents start at 0, s, ...; weights L[r, q] of the left sibling
            c, up = a[0::2].T, slice(0, n, s)
        # both weights' products in one call, in C order so that the nodes, not the 2 rows, run inside
        prod = np.multiply(c, h[:, None, up], order="C")
        step = prod[0] + prod[1]
        x = np.abs(step)
        np.divide(step, x[0] + x[1], out=h[:, span:n:s])
    # leaf i starts at position i and ends at i + 1; h_k = h_0 is the seed
    h[:, k] = h[:, 0]
    z = _HALF_ANGLE[backwards] @ h[:, : k + 1]  # e^(i alpha/2) up to scale, so e^(i alpha) = z / conj(z)
    return (z / z.conj()).view(float).reshape(-1, 2)


def _monodromy_product(v: Polygon, ells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked side-matrix products m 2**e per length, m (lengths, 2, 2)
    rescaled: the root of _tree."""
    if len(ells) > 1 and len(ells) * len(v) > 1 << 16:  # bound the side stack's memory
        halves = zip(*(_monodromy_product(v, h) for h in np.array_split(ells, 2)))
        return tuple(np.concatenate(parts) for parts in halves)
    levels, e = _tree(v, ells)
    return levels[-1][:, 0], e


def _pole_hits(v: Polygon, ell, tol: Tolerance, lo: np.ndarray) -> np.ndarray:
    """Mask of |ell - a| <= eps_geom max(ell, a) over lo = ell - a: ell one length, lo (sides,),
    or a column of lengths, lo (lengths, sides) read off _factors."""
    return np.abs(lo) <= tol.eps_geom * np.maximum(ell, v.side_lengths())


def _root_at(v: Polygon, ell: float, tol: Tolerance) -> tuple[list[float], int, np.ndarray, functools.partial]:
    """The monodromy at one length, validated as polygon_monodromy before any tree is built: the
    _tree's rescaled root row (a, b, c, d) with its exponent e (product row 2**e), the pole
    rule's factors ell - a_j (formed once) and frames(angle, backwards), _frames on that tree."""
    if v.dim != 2:
        raise DimensionMismatch("plane monodromy needs a 2D polygon")
    check_positive(ell)
    ells = np.array([ell], dtype=float)
    if np.count_nonzero(_pole_hits(v, ells[0], tol, lo := ells[0] - v.side_lengths())):
        raise DegenerateMonodromy(f"length parameter {ell} coincides with a side length")
    levels, e = _tree(v, ells)
    return levels[-1][0, 0].ravel().tolist(), int(e[0]), lo, functools.partial(_frames, levels, len(v))


def _log2det_at(v: Polygon, ell: float, lo: np.ndarray, e: int) -> tuple[float, float]:
    """(sign, log2 |det|) of _root_at's rescaled root m (product m 2**e), exact from the sides:
    _log2_det over the _factors, ell - a_j the pole rule's lo."""
    f = np.concatenate((lo, float(ell) + v.side_lengths())).reshape(1, 2, -1)
    (sign,), (mant,), (exp,) = (x.tolist() for x in _log2_det(f))
    return sign, mant + (exp - 2 * e)


def polygon_monodromy(v: Polygon, ell: float, tol: Tolerance = DEFAULT_TOL) -> Mobius2:
    """Whole-polygon monodromy: product of side matrices in traversal order,
    later sides on the left, as the side tree's root with the exact
    determinant; only its raw entries .m and .trace leave the double range.

    Raises DegenerateMonodromy when ell coincides with a side length (the
    determinant prod(ell^2 - a_i^2) vanishes there), and ValueError, naming
    the length, outside 0 < ell < inf.
    """
    row, e, lo, _ = _root_at(v, ell, tol)
    return Mobius2._root(row, e, _log2det_at(v, ell, lo, e))


def _disc_terms(a, b, c, d):
    """Discriminant Tr^2 - 4 det of [[a, b], [c, d]] (floats or arrays) in the
    cancellation-free form (a - d)^2 + 4 b c, then its two terms; the naive
    form loses every digit on near-scalar matrices (large length parameters)."""
    diff = a - d
    square, cross = diff * diff, 4.0 * (b * c)
    return square + cross, square, cross


_EPS_CLASS = 1e-8  # relative half-width of the parabolic band at a class boundary


def _classify_row(row, tol: Tolerance, sign: float) -> MonodromyClass:
    """Class of [[a, b], [c, d]] from the floats row = (a, b, c, d) and the
    sign of its determinant: identity, singular (sign 0), then
    by the discriminant's sign outside the _EPS_CLASS band; in the band
    parabolic, or singular if the double eigenvalue is 0."""
    a, b, c, d = row
    eps = tol.eps_geom * max(abs(a), abs(b), abs(c), abs(d))
    if abs(b) <= eps and abs(c) <= eps and abs(a - d) <= eps:
        return MonodromyClass.IDENTITY
    if not sign:
        return MonodromyClass.DEGENERATE
    disc, square, cross = _disc_terms(a, b, c, d)
    band = _EPS_CLASS * max(square, abs(cross))
    if disc > band:
        return MonodromyClass.HYPERBOLIC
    if disc < -band:
        return MonodromyClass.ELLIPTIC
    return MonodromyClass.PARABOLIC if a + d else MonodromyClass.DEGENERATE


def classify(m: Mobius2, tol: Tolerance = DEFAULT_TOL) -> MonodromyClass:
    """Conjugacy class from the discriminant Tr^2 - 4 det (scale-free)."""
    return _classify_row(m.row, tol, m.log2det[0])


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
    klass = _classify_row(m.row, tol, m.log2det[0])
    if klass is MonodromyClass.IDENTITY:
        return ALL_DIRECTIONS
    if klass is MonodromyClass.ELLIPTIC:
        raise NoRealFixedPoint("elliptic monodromy has no real fixed direction")
    if klass is MonodromyClass.DEGENERATE:
        raise DegenerateMonodromy("singular monodromy has no well-defined fixed directions")
    return [FixedDirection(_direction(m.row, lam), slope) for lam, slope in _eigen_row(m.row, klass, m.log2det)]


def _eigen_row(row, klass: MonodromyClass, det: tuple[float, float]) -> list[tuple[float, float]]:
    """(eigenvalue, map derivative) per isolated fixed direction of row = (a, b, c, d) with
    (sign, log2 |det|), none unless hyperbolic or parabolic: the dominant eigenvalue lam
    attracts (derivative det / lam^2), det / lam repels; both derivatives taken in log2, so a
    det far below lam^2 neither rounds nor underflows on the way (NaN for a NaN log2 |det|)."""
    a, b, c, d = row
    sign, log2det = det
    tr = a + d
    if klass is MonodromyClass.PARABOLIC:
        lam = 0.5 * tr
        return [(lam, _pow2(sign, log2det - 2.0 * math.log2(abs(lam))))]
    if klass is not MonodromyClass.HYPERBOLIC:
        return []
    lam = 0.5 * (tr + math.copysign(math.sqrt(_disc_terms(a, b, c, d)[0]), tr))
    log2lam = math.log2(abs(lam))
    return [(lam, _pow2(sign, log2det - 2.0 * log2lam)), ((a * d - b * c) / lam, _pow2(sign, 2.0 * log2lam - log2det))]


def _direction(row, lam: float) -> float:
    """Angle of the fixed direction of row = (a, b, c, d) with eigenvalue lam:
    the eigenvector of the matrix is the homogeneous fixed point (p : q) of
    the action, read as 2 atan2(p, q).  It needs det / lam only next to a and
    d, to which a d - b c is exact enough."""
    a, b, c, d = row
    p, q = (b, lam - a) if math.hypot(b, lam - a) >= math.hypot(lam - d, c) else (lam - d, c)
    if q < 0.0 or (q == 0.0 and p < 0.0):
        p, q = -p, -q
    return 2.0 * math.atan2(p, q)


def _tr2_over_det(row, det: tuple[float, float]) -> float:
    a, b, c, d = row
    sign, log2det = det
    tr = a + d
    if not sign:
        return math.inf if tr else math.nan
    if not tr:
        return 0.0 * sign
    return _pow2(sign, 2.0 * math.log2(abs(tr)) - log2det)


def _branch_at(v: Polygon, ell: float, tol: Tolerance, derivative: bool):
    """The one reader of the monodromy's companions at one length, validated as polygon_monodromy:
    the class, the number of isolated fixed directions, direction(i), fixed direction i (0
    attracting, -1 repelling) from one eigenvector solved on call, and _root_at's frame reader.
    The derivatives take the exact determinant; unasked, they are NaN and the class reads the
    determinant's sign alone, the parity of the factors ell - a_j < 0 (none 0 past the pole rule)."""
    row, e, lo, frames = _root_at(v, ell, tol)
    det = _log2det_at(v, ell, lo, e) if derivative else (-1.0 if np.count_nonzero(lo < 0.0) % 2 else 1.0, math.nan)
    klass = _classify_row(row, tol, det[0])
    eig = _eigen_row(row, klass, det)
    return klass, len(eig), lambda i: FixedDirection(_direction(row, eig[i][0]), eig[i][1]), frames


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
    check_positive(ell)
    if not 0.0 <= a < math.inf:
        raise ValueError(f"side length must be nonnegative and finite, got {float(a)!r}")
    if abs(ell - a) <= tol.eps_geom * max(ell, a):
        raise PoleAtEllEqualsA("edge matrix has a pole at ell = a")
    return LorentzMatrix(_lorentz_sides(ell, np.array([a], dtype=float), x[None])[0], check=False)


def lorentz_monodromy(v: Polygon, ell: float, tol: Tolerance = DEFAULT_TOL) -> LorentzMatrix:
    """Whole-polygon monodromy in dimension n, later sides on the left.

    Raises PoleAtEllEqualsA when ell coincides with a side length, and
    ValueError, naming the length, where the product overflows.
    """
    check_positive(ell)
    if _pole_hits(v, x := float(ell), tol, x - v.side_lengths()).any():
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


def _scan_point(ell: float, row, det: tuple[float, float], tol: Tolerance) -> ScanPoint:
    """The scan's record of the monodromy row 2**e at length ell, det the (sign, log2 |det|) of
    row: its class, Tr^2/det and the fixed directions' map derivatives (None unless hyperbolic or
    parabolic), with no eigenvector solved."""
    klass = _classify_row(row, tol, det[0])
    eig = _eigen_row(row, klass, det)
    return ScanPoint(ell, klass, _tr2_over_det(row, det), tuple([slope for _, slope in eig]) if eig else None)


def _grid(v: Polygon, lmin: float, lmax: float, steps: int) -> np.ndarray:
    """The steps-point grid over [lmin, lmax] of a scan of v's plane monodromy."""
    if not (isinstance(steps, (int, np.integer)) and steps >= 2 and 0 < lmin < lmax < math.inf):
        got = f"got lmin={lmin!r} lmax={lmax!r} steps={steps!r}"
        raise ValueError(f"need 0 < lmin < lmax < inf and integer steps >= 2, {got}")
    if v.dim != 2:
        raise DimensionMismatch("plane monodromy needs a 2D polygon")
    return np.linspace(lmin, lmax, steps)


def classification_scan(
    v: Polygon, lmin: float, lmax: float, steps: int, tol: Tolerance = DEFAULT_TOL
) -> list[ScanPoint]:
    """Classify the monodromy over a grid of length parameters.

    Grid points within eps of a side length are nudged off the pole.
    """
    ells = _grid(v, lmin, lmax, steps)
    spacing = (lmax - lmin) / (steps - 1)
    hits = _pole_hits(v, ells[:, None], tol, _factors(v, ells)[:, 0])
    nudge = np.maximum(1e-9 * v.side_lengths()[hits.argmax(axis=1)], 1e-6 * spacing)
    ells = np.where(hits.any(axis=1), ells + nudge, ells)
    m, e = _monodromy_product(v, ells)
    sign, mant, exp = _log2_det(_factors(v, ells))
    dets = zip(sign.tolist(), (mant + (exp - 2 * e)).tolist())
    return [_scan_point(ell, row, det, tol) for ell, row, det in zip(ells.tolist(), m.reshape(-1, 4).tolist(), dets)]


def discriminant(v: Polygon, ell: float) -> float:
    """Tr^2 - 4 det of the monodromy matrix, in the cancellation-free form.  Raises ValueError,
    naming the length, outside 0 < ell < inf and where the value is not finite or underflows a
    normal rescaled value."""
    if v.dim != 2:
        raise DimensionMismatch("plane monodromy needs a 2D polygon")
    check_positive(ell)
    m, e = _monodromy_product(v, np.array([ell], dtype=float))
    scaled = _disc_terms(*m[0].ravel().tolist())[0]
    with np.errstate(over="ignore"):
        raw = float(np.ldexp(scaled, 2 * e[0]))
    if (lost := abs(raw) < _TINY <= abs(scaled)) or not math.isfinite(raw):
        raise ValueError(f"discriminant {'underflows' if lost else 'is not finite'} at length {float(ell)!r}")
    return raw


def _delta(v: Polygon, ells: np.ndarray) -> np.ndarray:
    """disc / (Tr^2 + 4 |det|) per length, in [-1, 1]: disc's sign, smooth in ell and scale-free, read
    off the rescaled product; ValueError, naming the first such length, where it is not finite."""
    a, b, c, d = _monodromy_product(v, ells)[0].reshape(-1, 4).T
    vals = _disc_terms(a, b, c, d)[0] / ((a + d) ** 2 + 4.0 * np.abs(a * d - b * c))
    bad = ells[~np.isfinite(vals)]
    if bad.size:
        raise ValueError(f"discriminant is not finite at length {float(bad[0])!r}")
    return vals


def refine_class_boundaries(v: Polygon, lmin: float, lmax: float, steps: int = 64) -> list[float]:
    """The parabolic boundaries over [lmin, lmax], where the discriminant changes sign
    between points of a steps-point grid, each to about one ulp: Chandrupatla's method
    (Adv. Eng. Software 28, 1997) on _delta, all brackets in one product per round.  A
    bracket [x1, x2] is done, at its end of smaller |_delta|, when _delta is 0 or when
    tl = 2 eps max(|x1|, |x2|) / |x2 - x1| > 1/2, about one ulp wide."""
    grid = _grid(v, lmin, lmax, steps)
    vals = _delta(v, grid)
    start = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))
    roots, live = grid[start], np.flatnonzero(vals[start])  # a zero on the grid is its own root
    i = start[live]
    x1, x2, f1, f2, t = grid[i], grid[i + 1], vals[i], vals[i + 1], 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        while live.size:
            f = _delta(v, x := x1 + t * (x2 - x1))
            same = np.sign(f) == np.sign(f1)  # x3 is the end that drops out
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = x, f
            tl = 2.0 * np.finfo(float).eps * np.maximum(np.abs(x1), np.abs(x2)) / np.abs(x2 - x1)
            done = (tl > 0.5) | (f1 == 0.0)
            roots[live[done]] = np.where(np.abs(f1) < np.abs(f2), x1, x2)[done]
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)  # inverse quadratic where safe, else bisect
            t = f1 / (f2 - f1) * f3 / (f2 - f3) + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2)
            t = np.clip(np.where((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi), t, 0.5), tl, 1.0 - tl)
            live, x1, x2, f1, f2, t = (a[~done] for a in (live, x1, x2, f1, f2, t))
    return roots.tolist()
