"""Acceptance suite: one test per headline property, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines; the whole suite is property-based at desk scale and
finishes in well under a minute.
"""

import math

import numpy as np
import pytest

import bicyclegeom as bg
from bicyclegeom.dynamics import _alpha_angles, _angle_at

from conftest import (
    hyperbolic_length,
    lambda_grid,
    polygon_scale,
    propagated_pair_3d,
    random_butterfly,
    random_concentric,
    random_cyclic_convex,
    random_hyperbolic_pair,
    random_nonbutterfly_quad,
    random_polygon,
)
from oracles import direction_step, lorentz_action, proj_distance

EYE = bg.Mobius2(np.eye(2))


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    extra = f"  ({detail})" if detail else ""
    print(f"[{tag}] criterion {num:2d}: {description}{extra}")
    assert ok, f"criterion {num} failed: {description} {extra}"


def test_c01_butterfly_characterization():
    rng = np.random.default_rng(101)
    worst_fly = 0.0
    for _ in range(200):
        fly = random_butterfly(rng)
        for _ in range(5):
            ell = float(rng.uniform(0.2, 4.0))
            worst_fly = max(worst_fly, proj_distance(bg.polygon_monodromy(fly, ell), EYE))
    worst_quad = math.inf
    for _ in range(200):
        quad = random_nonbutterfly_quad(rng)
        while True:
            ell = float(rng.uniform(0.3, 3.0))
            if all(abs(ell - a) > 1e-3 for a in quad.side_lengths()):
                break
        worst_quad = min(worst_quad, proj_distance(bg.polygon_monodromy(quad, ell), EYE))
    ok = worst_fly <= 1e-9 and worst_quad > 1e-6
    _report(1, "butterfly monodromy is the identity, and only for butterflies", ok,
            f"butterfly defect {worst_fly:.2e}, non-butterfly distance {worst_quad:.2e}")


def test_c02_lorentz_form_of_the_step():
    rng = np.random.default_rng(102)
    worst_gram = 0.0
    worst_action = 0.0
    count = 0
    while count < 100:
        n = int(rng.integers(2, 6))
        x = rng.normal(size=n)
        x /= np.linalg.norm(x)
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        a = float(rng.uniform(0.1, 2.5))
        ell = float(rng.uniform(0.1, 2.5))
        if abs(ell - a) < 0.05 * max(ell, a):
            continue
        m = bg.edge_lorentz(ell, a, x)
        worst_gram = max(worst_gram, m.gram_defect())
        act = lorentz_action(m, u)
        ref = direction_step(u, x, a, ell)
        worst_action = max(worst_action, float(np.linalg.norm(act - ref)))
        count += 1
    ok = worst_gram <= 1e-9 and worst_action <= 1e-10
    _report(2, "step matrices are Lorentz and act as the reflection formula", ok,
            f"gram {worst_gram:.2e}, action {worst_action:.2e}")


def test_c03_conjugacy_of_corresponding_monodromies():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(4, 9))
        v, w, _L = random_hyperbolic_pair(rng, k=k)
        for lam in lambda_grid(v, n=50):
            a = bg.polygon_monodromy(v, lam).trace_sq_over_det()
            b = bg.polygon_monodromy(w, lam).trace_sq_over_det()
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1.0))
    ok = worst <= 1e-8
    _report(3, "corresponding polygons share Tr^2/det at every length", ok,
            f"worst relative gap {worst:.2e}")


def test_c04_permutability_fourth_polygon():
    rng = np.random.default_rng(104)
    tol8 = bg.Tolerance(eps_geom=1e-8)
    done = 0
    ok = True
    while done < 50:
        v = random_polygon(rng, k=4)
        l1 = hyperbolic_length(v, rng)
        if l1 is None:
            continue
        try:
            w = bg.transform(v, l1)
            s = bg.transform(v, l1, bg.Branch.REPELLING)
        except bg.GeometryError:
            continue
        if np.linalg.norm(w.vertex(0) - s.vertex(0)) < 1e-5:
            continue
        try:
            t = bg.bianchi_fourth_polygon(v, w, s)
        except bg.ClosureFailure:
            ok = False
            break
        ok = bg.correspondence_check(s, t, tol8) and bg.correspondence_check(w, t, tol8)
        if not ok:
            break
        done += 1
    _report(4, "the permutability square closes with both correspondences", ok,
            f"{done} triples checked")


def test_c05_recutting_preserves_the_monodromy():
    rng = np.random.default_rng(105)
    worst_inv = 0.0
    worst_comm = 0.0
    for _ in range(50):
        v = random_polygon(rng, k=int(rng.integers(4, 8)))
        L = hyperbolic_length(rng=rng, v=v) or 0.8 * float(v.side_lengths().mean())
        for lam in lambda_grid(v, n=6):
            base = bg.polygon_monodromy(v, lam).trace_sq_over_det()
            for i in range(len(v)):
                other = bg.polygon_monodromy(bg.recut(v, i), lam).trace_sq_over_det()
                worst_inv = max(worst_inv, abs(other - base) / max(abs(base), 1.0))
    for _ in range(10):
        v, w, L = random_hyperbolic_pair(rng, k=5)
        for i in range(len(v)):
            left = bg.recut(w, i)
            right = bg.transform(bg.recut(v, i), L)
            worst_comm = max(
                worst_comm, float(np.abs(left.vertices - right.vertices).max()) / v.perimeter()
            )
    # a parallelogram and the kite obtained by recutting one vertex
    para = bg.Polygon([(0, 0), (3, 0), (4, 2), (1, 2)])
    kite = bg.recut(para, 1)
    worst_kite = 0.0
    for lam in (0.7, 1.3, 2.4, 3.1, 5.0):
        if any(abs(lam - a) < 1e-6 for a in para.side_lengths()):
            continue
        worst_kite = max(
            worst_kite,
            proj_distance(bg.polygon_monodromy(para, lam), bg.polygon_monodromy(kite, lam)),
        )
    ok = worst_inv <= 1e-8 and worst_comm <= 1e-8 and worst_kite <= 1e-9
    _report(5, "recutting preserves the monodromy and commutes with the transformation", ok,
            f"invariant {worst_inv:.2e}, commutation {worst_comm:.2e}, kite {worst_kite:.2e}")


def test_c06_conserved_quantities():
    rng = np.random.default_rng(106)
    worst = 0.0
    done = 0
    while done < 100:
        v = random_polygon(rng, k=int(rng.integers(4, 9)))
        L = hyperbolic_length(v, rng)
        if L is None:
            continue
        try:
            w = bg.transform(v, L)
        except bg.GeometryError:
            continue
        scale = polygon_scale(v)
        worst = max(
            worst,
            abs(bg.area_bivector(v).scalar - bg.area_bivector(w).scalar) / scale**2,
            float(np.abs(bg.j_vector(v) - bg.j_vector(w)).max()) / scale**3,
            abs(v.perimeter() - w.perimeter()) / scale,
            float(np.abs(np.sort(v.side_lengths()) - np.sort(w.side_lengths())).max()) / scale,
        )
        if abs(bg.signed_area(v)) > 0.05 * scale**2:
            worst = max(
                worst,
                float(np.abs(bg.circumcenter_of_mass(v) - bg.circumcenter_of_mass(w)).max()) / scale,
            )
        r = bg.recut(v, int(rng.integers(0, len(v))))
        worst = max(
            worst,
            float(np.abs((bg.area_bivector(v) - bg.area_bivector(r)).upper).max()) / scale**2,
            float(np.abs(bg.j_vector(v) - bg.j_vector(r)).max()) / scale**3,
        )
        done += 1
    worst3d = 0.0
    for _ in range(10):
        v, w, _L = propagated_pair_3d(rng)
        scale = polygon_scale(v)
        worst3d = max(
            worst3d,
            float(np.abs((bg.area_bivector(v) - bg.area_bivector(w)).upper).max()) / scale**2,
            float(np.abs(bg.j_vector(v) - bg.j_vector(w)).max()) / scale**3,
        )
    ok = worst <= 1e-9 and worst3d <= 1e-9
    _report(6, "area bivector, moment vector, center and side data are conserved", ok,
            f"plane {worst:.2e}, space {worst3d:.2e}")


def test_c07_trace_polynomial_structure():
    rng = np.random.default_rng(107)
    tri = bg.Polygon([(0, 0), (3, 0), (0, 4)])
    c2 = bg.trace_polynomial(tri).coeffs[2]
    ok = abs(c2 + 25.0) <= 1e-10 * 25.0
    worst_odd = 0.0
    worst_c2 = 0.0
    worst_free = 0.0
    for _ in range(100):
        k = int(rng.integers(3, 9))
        v = random_polygon(rng, k=k)
        poly = bg.trace_polynomial(v)
        a = v.side_lengths()
        scale = max(1.0, float(a.max()) ** poly.degree)
        for j in range(1, poly.degree + 1, 2):
            worst_odd = max(worst_odd, abs(poly.coeffs[j]) / scale)
        want_c2 = -0.5 * float((a * a).sum())
        worst_c2 = max(worst_c2, abs(poly.coeffs[2] - want_c2) / abs(want_c2))
        if k % 2 == 0:
            dirs = v.side_directions()
            alt = float(np.sum(dirs * np.where(np.arange(k) % 2 == 0, 1.0, -1.0)))
            want = float(np.prod(a)) * math.cos(alt)
            worst_free = max(worst_free, abs(poly.coeffs[-1] - want) / max(1.0, float(np.prod(a))))
    ok = ok and worst_odd <= 1e-9 and worst_c2 <= 1e-10 and worst_free <= 1e-9
    _report(7, "half-trace polynomial: monic, even, with the predicted coefficients", ok,
            f"odd {worst_odd:.2e}, c2 {worst_c2:.2e}, free {worst_free:.2e}")


def test_c08_inscribed_polygons_rotate():
    rng = np.random.default_rng(108)
    sq = bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    roots = bg.refine_class_boundaries(sq, 1.05, 2.2, steps=64)
    ok = len(roots) == 1 and abs(roots[0] - math.sqrt(2)) <= 1e-10
    worst = 0.0
    for _ in range(20):
        v = random_cyclic_convex(rng, k=int(rng.integers(3, 8)))
        info = bg.classify_cyclic(v)
        for frac in (0.15, 0.3, 0.5, 0.7, 0.85):
            L = frac * info.diameter
            if any(abs(L - a) < 1e-3 * max(L, a) for a in v.side_lengths()):
                continue
            rot = bg.rotation_transform(v, L)
            best = math.inf
            for branch in (bg.Branch.ATTRACTING, bg.Branch.REPELLING):
                w = bg.transform(v, L, branch)
                best = min(best, float(np.abs(w.vertices - rot.vertices).max()))
            worst = max(worst, best / polygon_scale(v))
    ok = ok and worst <= 1e-9
    _report(8, "inscribed convex polygons rotate about the circumcenter below the diameter", ok,
            f"boundary gap {abs(roots[0] - math.sqrt(2)):.2e}, rotation gap {worst:.2e}")


def test_c09_quadrilateral_regime_diagram():
    rng = np.random.default_rng(109)
    worst_boundary = 0.0
    done = 0
    while done < 50:
        q = random_polygon(rng, k=4)
        info = bg.classify_quadrilateral(q)
        if info.kind != "generic" or info.r1 - info.r2 < 0.05 * info.r1:
            continue
        lo, hi = info.boundaries
        roots = bg.refine_class_boundaries(q, 0.5 * lo, 1.3 * hi, steps=200)
        roots = [r for r in roots if not any(abs(r - a) < 1e-6 * max(r, a) for a in q.side_lengths())]
        gap_lo = min((abs(r - lo) for r in roots), default=math.inf)
        gap_hi = min((abs(r - hi) for r in roots), default=math.inf)
        worst_boundary = max(worst_boundary, gap_lo, gap_hi)
        done += 1
    # parallel diagonals: unbounded glide orbit with linear growth
    q = bg.Polygon([(0, 0), (1, 1), (4, 0), (3.5, 1)])
    cur = q
    drift = []
    for _ in range(50):
        cur = bg.transform(cur, 2.0)
        drift.append(float(np.linalg.norm(cur.vertex(0) - q.vertex(0))))
    even = np.array(drift[1::2])
    inc = np.diff(even)
    glide_ok = drift[-1] > 5 * q.perimeter() and np.abs(inc - inc.mean()).max() < 1e-9 * inc.mean()
    # butterflies close from every seed
    fly_ok = True
    for _ in range(20):
        fly = random_butterfly(rng)
        th = float(rng.uniform(0, 2 * math.pi))
        L = float(rng.uniform(0.2, 3.0))
        seed = fly.vertex(0) + L * np.array([math.cos(th), math.sin(th)])
        if bg.propagate(fly, seed).closure_defect > 1e-9 * fly.perimeter():
            fly_ok = False
    ok = worst_boundary <= 1e-8 and glide_ok and fly_ok
    _report(9, "quadrilateral classes switch at the two-circle radii sum and difference", ok,
            f"boundary gap {worst_boundary:.2e}, glide linear: {glide_ok}, butterflies: {fly_ok}")


def test_c10_eigenvalue_of_the_realized_fixed_point():
    rng = np.random.default_rng(110)
    worst_pair = 0.0
    worst_fp = 0.0
    for _ in range(50):
        k = int(rng.integers(4, 7))
        v, w, L = random_hyperbolic_pair(rng, k=k)
        pair = bg.BicyclePair(v, w)
        lam_vw, lam_chain = bg.eigenvalue_products(pair)
        worst_pair = max(worst_pair, abs(lam_vw - lam_chain) / abs(lam_vw))
        derivs = [fd.derivative for fd in bg.fixed_directions(bg.polygon_monodromy(v, L))]
        worst_fp = max(worst_fp, min(abs(abs(d) - lam_vw) for d in derivs) / max(lam_vw, 1.0))
    worst_parab = 0.0
    for _ in range(10):
        v, center, _r1, _r2 = random_concentric(rng, k2=int(2 * rng.integers(2, 5)))
        d0 = v.vertex(0) - center
        w = bg.concentric_transform(v, math.atan2(d0[1], d0[0]) + math.pi)
        lam_vw, lam_chain = bg.eigenvalue_products(bg.BicyclePair(v, w))
        worst_parab = max(worst_parab, abs(lam_vw - 1.0), abs(lam_chain - 1.0))
    ok = worst_pair <= 1e-8 and worst_fp <= 1e-7 and worst_parab <= 1e-7
    _report(10, "diagonal and chain products both give the fixed-point eigenvalue", ok,
            f"products {worst_pair:.2e}, fixed point {worst_fp:.2e}, parabolic {worst_parab:.2e}")


def test_c11_frame_angle_difference_equation():
    rng = np.random.default_rng(111)
    worst = 0.0
    pairs = []
    for _ in range(20):
        k = int(rng.integers(4, 8))
        pairs.append(random_hyperbolic_pair(rng, k=k))
    v = random_cyclic_convex(rng, k=6)
    info = bg.classify_cyclic(v)
    pairs.append((v, bg.rotation_transform(v, 0.6 * info.diameter), 0.6 * info.diameter))
    vc, _c, _r1, _r2 = random_concentric(rng, k2=6)
    wc = bg.concentric_transform(vc, 0.9)
    pairs.append((vc, wc, bg.frame_length(vc, wc)))
    for v, w, L in pairs:
        worst = max(worst, bg.verify_difference_equation(bg.BicyclePair(v, w)))
    worst_lin = 0.0
    for _ in range(10):
        v, w, L = random_hyperbolic_pair(rng, k=5)
        pair = bg.BicyclePair(v, w)
        shift = w.vertex(0) - v.vertex(0)
        th = math.atan2(shift[1], shift[0]) + 1e-6
        seed = v.vertex(0) + L * np.array([math.cos(th), math.sin(th)])
        pts = bg.propagate(v, seed).points[:-1]
        u = _alpha_angles(v, bg.Polygon(pts)) - pair.alphas
        u = np.mod(u + math.pi, 2 * math.pi) - math.pi
        for i in range(1, len(v)):
            lhs = abs(u[i]) * float(np.linalg.norm(w.vertex(i - 1) - v.vertex(i)))
            rhs = abs(u[i - 1]) * float(np.linalg.norm(w.vertex(i) - v.vertex(i - 1)))
            worst_lin = max(worst_lin, abs(lhs - rhs))
    ok = worst <= 1e-8 and worst_lin <= 1e-7
    _report(11, "frame angles satisfy the first-order difference equation", ok,
            f"residual {worst:.2e}, linearization {worst_lin:.2e}")


def test_c12_rear_track_chain():
    rng = np.random.default_rng(112)
    worst_tangency = 0.0
    worst_mid = 0.0
    worst_rec = 0.0
    done = 0
    while done < 100:
        k = int(rng.integers(4, 8))
        try:
            v, w, L = random_hyperbolic_pair(rng, k=k)
            pair = bg.BicyclePair(v, w)
            track = bg.rear_track(pair)  # raises if no consistent orientation
        except bg.GeometryError:
            continue
        scale = polygon_scale(v)
        worst_mid = max(
            worst_mid, float(np.abs(track.q - 0.5 * (v.vertices + w.vertices)).max()) / scale
        )
        for i in range(k):
            before, after = (i - 1) % k, i
            if track.curvature[before] == 0.0 or track.curvature[after] == 0.0:
                continue
            gap = float(np.linalg.norm(track.center[before] - track.center[after]))
            radii = 1.0 / track.curvature[before] + 1.0 / track.curvature[after]
            worst_tangency = max(worst_tangency, abs(gap - abs(radii)) / max(gap, 1.0))
        vs, ws = bg.chain_reconstruct(track, L / 2)
        worst_rec = max(
            worst_rec,
            float(np.abs(vs - v.vertices).max()) / scale,
            float(np.abs(ws - w.vertices).max()) / scale,
        )
        done += 1
    ok = worst_tangency <= 1e-9 and worst_mid <= 1e-12 and worst_rec <= 1e-9
    _report(12, "the rear track is an oriented chain of tangent circles through the midpoints", ok,
            f"tangency {worst_tangency:.2e}, midpoints {worst_mid:.2e}, reconstruction {worst_rec:.2e}")


def test_c13_equal_diagonal_polygons_with_n_equals_4k():
    fam_ok = True
    for k in (1, 3, 5):
        for ratio in np.linspace(0.25, 0.95, 10):
            v = bg.ngon_construct(bg.NGonSpec(n=4 * k, k=k, r1=1.0, r2=float(ratio)))
            if not bg.ngon_verify(v, k):
                fam_ok = False
    octagon = bg.rigid_check(8, 2)
    odd = [bg.rigid_check(4 * k, k).deformations for k in (1, 3, 5)]
    ok = fam_ok and octagon.deformations == 0 and odd == [1, 1, 1]
    _report(13, "odd-k two-circle families verify; the regular octagon is rigid", ok,
            f"families: {fam_ok}, octagon: {octagon.deformations} deformations "
            f"(singular-value gap {octagon.zero_sv:.1e} / {octagon.nonzero_sv:.1e}), "
            f"(4k, k) for k = 1, 3, 5: {odd}")


def test_c14_recutting_group_relations():
    rng = np.random.default_rng(114)
    worst = 0.0
    for _ in range(50):
        dim = 2 if rng.uniform() < 0.5 else 3
        v = random_polygon(rng, k=int(rng.integers(4, 8)), dim=dim)
        scale = polygon_scale(v)
        i = int(rng.integers(0, len(v)))
        j = (i + 2 + int(rng.integers(0, len(v) - 3))) % len(v)
        if min(abs(i - j), len(v) - abs(i - j)) < 2:
            j = (i + 2) % len(v)
        invol = bg.recut(bg.recut(v, i), i)
        worst = max(worst, float(np.abs(invol.vertices - v.vertices).max()) / scale)
        ab = bg.recut(bg.recut(v, i), j)
        ba = bg.recut(bg.recut(v, j), i)
        worst = max(worst, float(np.abs(ab.vertices - ba.vertices).max()) / scale)
        braid_l = bg.recut(bg.recut(bg.recut(v, i), i + 1), i)
        braid_r = bg.recut(bg.recut(bg.recut(v, i + 1), i), i + 1)
        worst = max(worst, float(np.abs(braid_l.vertices - braid_r.vertices).max()) / scale)
    ok = worst <= 1e-9
    _report(14, "recutting satisfies the involution, commutation and braid relations", ok,
            f"worst vertexwise gap {worst:.2e}")
