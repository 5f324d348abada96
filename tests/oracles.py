"""Independent forms of the bicycle step and of the package's results, kept
for the tests to check the package against: the paper's line form of the
reflection, the direction update, the Moebius side matrix and its action,
the projective Lorentz action, the triangulation form of the circumcenter
of mass and a list-based writer of the polygon document.  The package
computes with one form of each; nothing here is imported by it.  This file
is a helper module, not a test module (its name does not start with test_).
"""

import math

import numpy as np

from bicyclegeom.errors import (
    DegenerateLine,
    DimensionMismatch,
    GeometryError,
    PoleAtEllEqualsA,
    ZeroArea,
)
from bicyclegeom.geometry import DEFAULT_TOL, Polygon, Tolerance, _coincident, _cyc, _dot, as_vec, check_same_dim
from bicyclegeom.invariants import _ccm_frame
from bicyclegeom.monodromy import LorentzMatrix, Mobius2


def reflect_in_line(p, a, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Reflect point p in the line through a and b.

    Components along the line are kept, the perpendicular part is negated;
    the result stays in the affine span of {p, a, b}.
    """
    p, a, b = as_vec(p), as_vec(a), as_vec(b)
    check_same_dim(p, a, b)
    if _coincident(a, b, tol):
        raise DegenerateLine("reflection axis through coincident points")
    d = b - a
    return 2.0 * (a + d * (np.vecdot(p - a, d) / np.vecdot(d, d))) - p


def edge_mobius(ell: float, a: float, phi: float) -> Mobius2:
    """Direction-chart matrix for one side of length a and direction phi."""
    if ell <= 0.0:
        raise ValueError("length parameter must be positive")
    if a < 0.0:
        raise ValueError("side length must be nonnegative")
    c, s = math.cos(phi), math.sin(phi)
    return Mobius2([[ell + a * c, -a * s], [-a * s, ell - a * c]])


def mobius_matmul(p: Mobius2, q: Mobius2) -> Mobius2:
    """The product p q: q acts first."""
    return Mobius2(p.m @ q.m)


def mobius_apply(m: Mobius2, x: float) -> float:
    """Fractional-linear action of m on the affine chart coordinate."""
    a, b, c, d = m.m.ravel()
    return (a * x + b) / (c * x + d)


def proj_distance(p: Mobius2, q: Mobius2) -> float:
    """Frobenius distance between unit-normalized representatives, min over sign."""
    a = p.m / np.linalg.norm(p.m)
    b = q.m / np.linalg.norm(q.m)
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))


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


class ProjectiveDenominatorZero(GeometryError):
    """The projective action's denominator vanishes for this input."""


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


def ccm_triangulation_oracle(v: Polygon, fan_apex: int = 0, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Independent construction of the circumcenter of mass: fan-triangulate
    from one vertex and average the triangle circumcenters weighted by
    oriented triangle area.  The result does not depend on the apex.

    Each triangle enters as its area times its circumcenter, in closed form:
    that product stays finite on a collinear fan triangle, whose circumcenter
    goes to infinity as its area goes to 0, so no triangle is skipped.
    """
    if v.dim != 2:
        raise DimensionMismatch("triangulation oracle is a plane construction")
    origin, rel, min_area = _ccm_frame(v, tol)
    fan = _cyc(rel, fan_apex)
    apex, b, c = fan[0], fan[1:-1] - fan[0], fan[2:] - fan[0]
    weight = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    nb, nc = _dot(b, b), _dot(c, c)
    # weight * (circumcenter - apex), from triangle_circumcenter's formula
    moment = 0.25 * np.stack([c[:, 1] * nb - b[:, 1] * nc, b[:, 0] * nc - c[:, 0] * nb], axis=1)
    total = float(weight.sum())
    if not abs(total) > min_area:
        raise ZeroArea("zero signed area: circumcenter of mass undefined")
    return origin + apex + moment.sum(axis=0) / total


def polygon_to_dict(v: Polygon) -> dict:
    """The polygon document with the vertices as nested lists."""
    out = {"dim": v.dim, "vertices": v.vertices.tolist()}
    if v.name:
        out["name"] = v.name
    return out
