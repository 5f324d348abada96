"""50-digit reference and plain-numpy checks.

Nothing here imports ``bicyclegeom``: the reference must not share code
with the library it judges.  The monodromy is the ordered product of the
side matrices ``[[L + dx, -dy], [-dy, L - dx]]`` (later sides on the left),
evaluated in mpmath at 50 significant digits from the exact binary values
of the float vertices.  Its determinant is the exact ``prod(L^2 - a_i^2)``.

The fixed point of the projective action in the chart ``x = tan(alpha/2)``
is the eigenvector ``(p : q)``; its direction is
``((q^2 - p^2), 2 p q) / (p^2 + q^2)`` and the derivative of the action
there is ``det / lambda^2``.  The attracting branch is the one with the
smaller ``|derivative|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

DPS = 50
# Relative tolerance of every float check: the square root of the double
# precision unit roundoff.  Correct float results at k <= 2000 carry errors
# near k * eps (< 1e-12); a wrong branch, an open polygon or a misread
# length is off by far more than this.
REL = math.sqrt(np.finfo(float).eps)
# The reference refuses to name a class when |Tr^2 - 4 det| is below this
# share of the squared entry scale; 50 digits leave ~1e-46 of headroom at
# k = 2000, so anything above 1e-30 is decided with margin.
UNDECIDED = mpmath.mpf("1e-30")


@dataclass(frozen=True)
class Branch:
    """One fixed direction: unit vector and log10 |derivative|."""

    direction: tuple[float, float]
    log10_deriv: float


@dataclass(frozen=True)
class Reference:
    """Class label, the log10 magnitudes of the product's determinant and
    largest entry, and, when hyperbolic, both fixed directions."""

    klass: str  # "hyperbolic", "elliptic" or "undecided"
    log10_det: float
    log10_scale: float
    attracting: Branch | None = None
    repelling: Branch | None = None

    def branch(self, name: str) -> Branch:
        return self.attracting if name == "attracting" else self.repelling


def _mp_points(pts: np.ndarray):
    return [mpmath.mpf(float(x)) for x in pts[:, 0]], [mpmath.mpf(float(y)) for y in pts[:, 1]]


def monodromy(pts: np.ndarray, length: float):
    """(m00, m01, m10, m11, det) of the side-matrix product, as mpf."""
    with mpmath.workdps(DPS):
        xs, ys = _mp_points(pts)
        ell = mpmath.mpf(float(length))
        k = len(xs)
        p00, p01, p10, p11 = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
        det = mpmath.mpf(1)
        for i in range(k):
            j = (i + 1) % k
            dx = xs[j] - xs[i]
            dy = ys[j] - ys[i]
            a, b, d = ell + dx, -dy, ell - dx
            p00, p01, p10, p11 = a * p00 + b * p10, a * p01 + b * p11, b * p00 + d * p10, b * p01 + d * p11
            det *= ell * ell - dx * dx - dy * dy
        return p00, p01, p10, p11, det


def classify(pts: np.ndarray, length: float) -> Reference:
    """Reference class and fixed directions of the monodromy at ``length``."""
    with mpmath.workdps(DPS):
        m00, m01, m10, m11, det = monodromy(pts, length)
        s = max(abs(m00), abs(m01), abs(m10), abs(m11))
        disc = (m00 - m11) ** 2 + 4 * m01 * m10
        log10_det = float(mpmath.log10(abs(det))) if det else -math.inf
        log10_scale = float(mpmath.log10(s))
        if abs(disc) <= UNDECIDED * s * s:
            return Reference("undecided", log10_det, log10_scale)
        if disc < 0:
            return Reference("elliptic", log10_det, log10_scale)
        tr = m00 + m11
        root = mpmath.sqrt(disc)
        lam1 = (tr + root) / 2 if tr >= 0 else (tr - root) / 2
        lam2 = det / lam1
        out = []
        for lam in (lam1, lam2):
            c1 = (m01, lam - m00)
            c2 = (lam - m11, m10)
            p, q = c1 if c1[0] ** 2 + c1[1] ** 2 >= c2[0] ** 2 + c2[1] ** 2 else c2
            nrm = p * p + q * q
            direction = (float((q * q - p * p) / nrm), float(2 * p * q / nrm))
            out.append(Branch(direction, float(mpmath.log10(abs(det) / (lam * lam)))))
        out.sort(key=lambda b: b.log10_deriv)
        return Reference("hyperbolic", log10_det, log10_scale, attracting=out[0], repelling=out[1])


def propagate(pts: np.ndarray, length: float, direction) -> np.ndarray:
    """Companion of ``pts`` seeded at ``V_0 + length * direction``, propagated
    at 50 digits by reflecting V_i in the perpendicular bisector of
    V_{i+1} W_i.  Returns k+1 points rounded to float; the last one is the
    return to the start."""
    with mpmath.workdps(DPS):
        xs, ys = _mp_points(pts)
        ell = mpmath.mpf(float(length))
        ux, uy = mpmath.mpf(float(direction[0])), mpmath.mpf(float(direction[1]))
        nrm = mpmath.sqrt(ux * ux + uy * uy)
        wx, wy = xs[0] + ell * ux / nrm, ys[0] + ell * uy / nrm
        k = len(xs)
        out = [(wx, wy)]
        for i in range(k):
            j = (i + 1) % k
            nx, ny = wx - xs[j], wy - ys[j]
            mx, my = (xs[j] + wx) / 2, (ys[j] + wy) / 2
            t = 2 * ((xs[i] - mx) * nx + (ys[i] - my) * ny) / (nx * nx + ny * ny)
            wx, wy = xs[i] - t * nx, ys[i] - t * ny
            out.append((wx, wy))
        return np.array([[float(x), float(y)] for x, y in out])


# ---------------------------------------------------------------- numpy checks


def scale_of(*polys: np.ndarray) -> float:
    return max(1.0, *(float(np.abs(p).max()) for p in polys))


def side_lengths(pts: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)


def area2(pts: np.ndarray) -> tuple[float, float]:
    """Twice the signed area (shoelace) and the sum of its term magnitudes."""
    nxt = np.roll(pts, -1, axis=0)
    terms = pts[:, 0] * nxt[:, 1] - pts[:, 1] * nxt[:, 0]
    return float(terms.sum()), float(np.abs(pts[:, 0] * nxt[:, 1]).sum() + np.abs(pts[:, 1] * nxt[:, 0]).sum())


def j_vector(pts: np.ndarray) -> tuple[np.ndarray, float]:
    """J = sum (|V_{i+1}|^2 - |V_{i-1}|^2) V_i and the sum of term magnitudes."""
    sq = (pts * pts).sum(axis=1)
    coef = np.roll(sq, -1) - np.roll(sq, 1)
    mag = (np.roll(sq, -1) + np.roll(sq, 1))[:, None] * np.abs(pts)
    return (coef[:, None] * pts).sum(axis=0), float(mag.sum())


def pair_defects(v: np.ndarray, w: np.ndarray, length: float) -> dict[str, float]:
    """Relative defects of the bicycle correspondence of (V, W) at ``length``:
    frame lengths, side lengths, the trapezoid relation (W_{i+1} is V_i
    reflected in the perpendicular bisector of V_{i+1} W_i) and the
    conserved A and J.  Each entry is a share of the scale it is judged
    against; a correct pair has every entry below REL."""
    scale = scale_of(v, w)
    out = {}
    out["frame_length"] = float(np.abs(np.linalg.norm(v - w, axis=1) - length).max()) / max(length, scale)
    out["side_lengths"] = float(np.abs(side_lengths(v) - side_lengths(w)).max()) / scale
    v_next = np.roll(v, -1, axis=0)
    w_next = np.roll(w, -1, axis=0)
    n = w - v_next
    mid = 0.5 * (v_next + w)
    t = 2.0 * ((v - mid) * n).sum(axis=1) / (n * n).sum(axis=1)
    mirrored = v - t[:, None] * n
    out["trapezoid"] = float(np.linalg.norm(mirrored - w_next, axis=1).max()) / scale
    av, av_mag = area2(v)
    aw, aw_mag = area2(w)
    out["area"] = abs(av - aw) / max(av_mag, aw_mag, 1e-300)
    jv, jv_mag = j_vector(v)
    jw, jw_mag = j_vector(w)
    out["j_vector"] = float(np.abs(jv - jw).max()) / max(jv_mag, jw_mag, 1e-300)
    return out


def first_excess(defects: dict[str, float], bound: float = REL) -> str | None:
    """Name of the first defect above ``bound`` (NaN counts as above)."""
    for name, value in defects.items():
        if not value <= bound:
            return name
    return None


def direction_error(v: np.ndarray, w: np.ndarray, length: float, direction) -> float:
    """Distance between the unit vector (W_0 - V_0) / L and ``direction``."""
    u = (w[0] - v[0]) / length
    return float(np.hypot(u[0] - direction[0], u[1] - direction[1]))


def log10_close(value: float, ref_log10: float, rel: float = 1e-6) -> bool:
    """Whether |value| matches 10**ref_log10 to a relative ``rel``, judged in
    log space so that references beyond the float range compare too."""
    if not math.isfinite(value) or value == 0.0:
        return False
    return abs(math.log10(abs(value)) - ref_log10) <= rel / math.log(10) + 1e-15 * abs(ref_log10)
