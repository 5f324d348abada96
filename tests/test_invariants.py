"""Conserved quantities, the circumcenter of mass, and the rear track."""

import math

import numpy as np
import pytest

import bicyclegeom as bg

from conftest import (
    LARGE_CIRCLES,
    circle_polygon,
    hyperbolic_length,
    propagated_pair_3d,
    random_concentric,
    random_cyclic_convex,
    random_hyperbolic_pair,
    random_polygon,
)


class TestAreaBivector:
    def test_unit_square_scalar(self):
        sq = bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert abs(bg.area_bivector(sq).scalar - 2.0) < 1e-15

    def test_reversal_negates(self, rng):
        for dim in (2, 3):
            v = random_polygon(rng, dim=dim)
            fwd = bg.area_bivector(v)
            bwd = bg.area_bivector(v.reversed())
            assert np.abs((fwd - (-bwd)).upper).max() < 1e-12 * max(1.0, fwd.norm())

    def test_translation_invariance(self, rng):
        for dim in (2, 3):
            v = random_polygon(rng, dim=dim)
            shifted = bg.area_bivector(v.translated(rng.normal(size=dim) * 3))
            assert np.abs((shifted - bg.area_bivector(v)).upper).max() <= 1e-12 * v.scale() ** 2


class TestJVector:
    def test_regular_polygon_centered_is_zero(self):
        k = 8
        ang = 2 * math.pi * np.arange(k) / k
        v = bg.Polygon(np.stack([np.cos(ang), np.sin(ang)], axis=1) * 1.7)
        assert np.abs(bg.j_vector(v)).max() < 1e-12

    def test_translation_identity(self, rng):
        """Shifting by xi changes J by 2 sum (V_i . xi)(V_{i-1} - V_{i+1})."""
        for _ in range(20):
            v = random_polygon(rng)
            xi = rng.normal(size=2) * 2
            got = bg.j_vector(v.translated(xi)) - bg.j_vector(v)
            pts = v.vertices
            want = (
                2.0
                * ((pts @ xi)[:, None] * (np.roll(pts, 1, axis=0) - np.roll(pts, -1, axis=0))).sum(axis=0)
            )
            assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())

    def test_345_triangle_against_plain_sum(self):
        tri = bg.Polygon([(1, 1), (4, 1), (1, 5)])
        got = bg.j_vector(tri)
        want = np.zeros(2)
        pts = tri.vertices
        for i in range(3):  # the other printed form of the same sum
            want += float(pts[i] @ pts[i]) * (pts[(i - 1) % 3] - pts[(i + 1) % 3])
        assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())


class TestCircumcenterOfMass:
    def test_right_triangle(self):
        tri = bg.Polygon([(0, 0), (2, 0), (0, 2)])
        assert np.allclose(bg.circumcenter_of_mass(tri), (1, 1), atol=1e-12)

    def test_quadrilateral_matches_diagonal_bisectors(self, rng):
        for _ in range(20):
            q = random_polygon(rng, k=4)
            if abs(bg.signed_area(q)) < 0.1:
                continue
            info = bg.classify_quadrilateral(q)
            if info.kind != "generic":
                continue
            assert np.abs(bg.circumcenter_of_mass(q) - info.center).max() < 1e-8 * q.scale()

    def test_equilateral_polygon_ccm_is_centroid(self, rng):
        v, _c, _r1, _r2 = random_concentric(rng, k2=6, r1=1.5, r2=1.5)
        # equal radii and equal angular gaps make it equilateral
        k = 6
        ang = 2 * math.pi * np.arange(k) / k + 0.3
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1) * 1.5 + np.array([2.0, -1.0])
        hexa = bg.Polygon(pts)
        got = bg.circumcenter_of_mass(hexa)
        assert np.abs(got - pts.mean(axis=0)).max() < 1e-10

    def test_irregular_equilateral_ccm_is_centroid(self, rng):
        # equilateral but not cyclic: reflect one vertex of a rhombus chain
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (1.5, math.sqrt(3) / 2), (0.5, math.sqrt(3) / 2)])
        rho = bg.Polygon(pts)  # rhombus, all sides 1
        assert np.abs(bg.circumcenter_of_mass(rho) - pts.mean(axis=0)).max() < 1e-12

    def test_translation_equivariance(self, rng):
        for _ in range(20):
            v = random_polygon(rng)
            if abs(bg.signed_area(v)) < 0.1:
                continue
            xi = rng.normal(size=2) * 3
            got = bg.circumcenter_of_mass(v.translated(xi))
            assert np.abs(got - (bg.circumcenter_of_mass(v) + xi)).max() < 1e-10 * v.scale()

    def test_zero_area_raises(self):
        flat = bg.Polygon([(0, 0), (1, 1), (4, 0), (3, 1)])  # butterfly: zero area
        with pytest.raises(bg.ZeroArea):
            bg.circumcenter_of_mass(flat)


class TestTriangulationOracle:
    def test_triangle_any_apex(self):
        tri = bg.Polygon([(0, 0), (2, 0), (0, 2)])
        for apex in range(3):
            assert np.allclose(bg.ccm_triangulation_oracle(tri, apex), (1, 1), atol=1e-12)

    def test_square_center(self):
        sq = bg.Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert np.allclose(bg.ccm_triangulation_oracle(sq), (1, 1), atol=1e-12)

    def test_apex_independence_pentagon(self, rng):
        for _ in range(10):
            v = random_polygon(rng, k=5)
            if abs(bg.signed_area(v)) < 0.2:
                continue
            a = bg.ccm_triangulation_oracle(v, 0)
            b = bg.ccm_triangulation_oracle(v, 2)
            assert np.abs(a - b).max() < 1e-10 * v.scale()

    def test_matches_closed_formula_every_apex(self, rng):
        for _ in range(20):
            v = random_polygon(rng, k=int(rng.integers(4, 8)))
            if abs(bg.signed_area(v)) < 0.2:
                continue
            want = bg.circumcenter_of_mass(v)
            for apex in range(len(v)):
                got = bg.ccm_triangulation_oracle(v, apex)
                assert np.abs(got - want).max() < 1e-9 * v.scale()


class TestRearTrack:
    def test_rotation_pair_midpoints_on_circle(self, rng):
        v = random_cyclic_convex(rng, k=6)
        info = bg.classify_cyclic(v)
        w = bg.rotation_transform(v, 0.55 * info.diameter)
        pair = bg.BicyclePair(v, w)
        track = bg.rear_track(pair)
        dist = np.linalg.norm(track.q - info.center, axis=1)
        assert np.abs(dist - dist.mean()).max() < 1e-9 * info.diameter

    def test_midpoints_exact(self, rng):
        v, w, _L = random_hyperbolic_pair(rng, k=5)
        track = bg.rear_track(bg.BicyclePair(v, w))
        assert np.abs(track.q - 0.5 * (v.vertices + w.vertices)).max() < 1e-12 * v.scale()

    def test_reconstruction_both_signs(self, rng):
        for k in (4, 5, 6):
            v, w, L = random_hyperbolic_pair(rng, k=k)
            pair = bg.BicyclePair(v, w)
            track = bg.rear_track(pair)
            vs, ws = bg.chain_reconstruct(track, L / 2)
            assert np.abs(vs - v.vertices).max() < 1e-9 * v.scale()
            assert np.abs(ws - w.vertices).max() < 1e-9 * v.scale()

    def test_tangency_rule(self, rng):
        v, w, _L = random_hyperbolic_pair(rng, k=6)
        track = bg.rear_track(bg.BicyclePair(v, w))
        k = len(v)
        for i in range(k):
            before = track.circles[(i - 1) % k]
            after = track.circles[i]
            if before.is_line or after.is_line:
                continue
            gap = np.linalg.norm(before.center - after.center)
            assert abs(gap - abs(before.radius + after.radius)) < 1e-9 * max(1.0, gap)

    def test_tangency_points_on_both_circles(self, rng):
        v, w, _L = random_hyperbolic_pair(rng, k=5)
        track = bg.rear_track(bg.BicyclePair(v, w))
        k = len(v)
        for i in range(k):
            after = track.circles[i]
            if after.is_line:
                continue
            d0 = np.linalg.norm(after.center - track.q[i])
            d1 = np.linalg.norm(after.center - track.q[(i + 1) % k])
            assert abs(d0 - abs(after.radius)) < 1e-9 * max(1.0, d0)
            assert abs(d1 - abs(after.radius)) < 1e-9 * max(1.0, d1)

    def test_straight_members(self):
        """Antipodal vertices of a rotated cyclic polygon give parallel frame
        segments; those chain slots become straight members and the
        reconstruction still returns the pair."""
        angs = np.array([0.0, math.pi, 3.9, 4.7, 5.5])
        v = bg.Polygon(2.0 * np.stack([np.cos(angs), np.sin(angs)], axis=1))
        w = bg.rotation_transform(v, 1.3)
        pair = bg.BicyclePair(v, w)
        track = bg.rear_track(pair)
        lines = [c for c in track.circles if c.is_line]
        assert lines, "expected at least one straight chain member"
        vs, ws = bg.chain_reconstruct(track, pair.length / 2)
        assert np.abs(vs - v.vertices).max() < 1e-9
        assert np.abs(ws - w.vertices).max() < 1e-9

    def test_parallelogram_branch_rejected(self):
        v = bg.Polygon([(0, 0), (2, 0), (2.5, 1.5), (0.4, 1.8)])
        w = v.translated((0.7, 0.4))
        pair = bg.BicyclePair.__new__(bg.BicyclePair)
        pair.v, pair.w, pair.length, pair.tol = v, w, float(np.linalg.norm([0.7, 0.4])), bg.DEFAULT_TOL
        pair.alphas = None
        with pytest.raises(bg.SignAssignmentFailure):
            bg.rear_track(pair)


class TestEigenvalueProducts:
    def test_agreement_and_fixed_point_match(self, rng):
        for _ in range(15):
            v, w, L = random_hyperbolic_pair(rng)
            pair = bg.BicyclePair(v, w)
            lam_vw, lam_chain = bg.eigenvalue_products(pair)
            assert abs(lam_vw - lam_chain) <= 1e-8 * abs(lam_vw)
            derivs = [fd.derivative for fd in bg.fixed_directions(bg.polygon_monodromy(v, L))]
            assert min(abs(abs(d) - lam_vw) for d in derivs) < 1e-7 * max(1.0, lam_vw)

    def test_parabolic_is_one(self, rng):
        for _ in range(10):
            v, _c, r1, r2 = random_concentric(rng, k2=6)
            angles = np.arctan2(*(v.vertices - _c).T[::-1])
            w = bg.concentric_transform(v, float(angles[0]) + math.pi)
            pair = bg.BicyclePair(v, w)
            lam_vw, lam_chain = bg.eigenvalue_products(pair)
            assert abs(lam_vw - 1.0) < 1e-7
            assert abs(lam_chain - 1.0) < 1e-7

    def test_concentric_symmetric_configuration(self, rng):
        k2 = 8
        ang = 2 * math.pi * np.arange(k2) / k2
        rad = np.where(np.arange(k2) % 2 == 0, 2.0, 1.2)
        v = bg.Polygon(np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1))
        w = bg.concentric_transform(v, 0.45)
        pair = bg.BicyclePair(v, w)
        lam_vw, lam_chain = bg.eigenvalue_products(pair)
        assert abs(lam_vw - lam_chain) < 1e-8 * lam_vw

    @pytest.mark.parametrize("k, noise, L", LARGE_CIRCLES)
    def test_large_circles_finite_and_exact(self, rng, k, noise, L):
        v = circle_polygon(rng, k, noise)
        w = bg.transform(v, L)  # attracting branch
        lam_vw, lam_chain = bg.eigenvalue_products(bg.BicyclePair(v, w))
        want = abs(bg.fixed_directions(bg.polygon_monodromy(v, L))[0].derivative)
        for lam in (lam_vw, lam_chain):
            assert math.isfinite(lam)
            assert abs(lam - want) <= 1e-12 * want

    def test_pole_on_chain(self, rng):
        v, w, L = random_hyperbolic_pair(rng)
        pair = bg.BicyclePair(v, w)
        track = bg.rear_track(pair)
        doctored = bg.RearTrack(
            circles=tuple(
                bg.ChainCircle(center=c.center, curvature=2.0 / L if not c.is_line else 0.0,
                               direction=c.direction)
                for c in track.circles
            ),
            q=track.q,
            e=track.e,
        )
        with pytest.raises(bg.PoleOnChain):
            bg.eigenvalue_products(pair, doctored)


class TestConservation:
    def test_transform_preserves_A_J_ccm_perimeter(self, rng):
        for _ in range(25):
            v, w, _L = random_hyperbolic_pair(rng, k=int(rng.integers(4, 8)))
            scale = v.scale() ** 2
            assert abs(bg.area_bivector(v).scalar - bg.area_bivector(w).scalar) < 1e-9 * scale
            assert np.abs(bg.j_vector(v) - bg.j_vector(w)).max() < 1e-9 * v.scale() ** 3
            assert abs(v.perimeter() - w.perimeter()) < 1e-9 * v.perimeter()
            assert np.abs(np.sort(v.side_lengths()) - np.sort(w.side_lengths())).max() < 1e-9
            if abs(bg.signed_area(v)) > 0.1:
                dcc = bg.circumcenter_of_mass(v) - bg.circumcenter_of_mass(w)
                assert np.abs(dcc).max() < 1e-9 * v.scale()

    def test_recut_preserves_A_and_J(self, rng):
        for dim in (2, 3):
            for _ in range(15):
                v = random_polygon(rng, dim=dim)
                i = int(rng.integers(0, len(v)))
                r = bg.recut(v, i)
                assert np.abs((bg.area_bivector(v) - bg.area_bivector(r)).upper).max() < 1e-9 * v.scale() ** 2
                assert np.abs(bg.j_vector(v) - bg.j_vector(r)).max() < 1e-9 * v.scale() ** 3

    def test_3d_pairs_preserve_A_and_J(self, rng):
        for _ in range(6):
            v, w, _L = propagated_pair_3d(rng)
            assert np.abs((bg.area_bivector(v) - bg.area_bivector(w)).upper).max() < 1e-9 * v.scale() ** 2
            assert np.abs(bg.j_vector(v) - bg.j_vector(w)).max() < 1e-9 * v.scale() ** 3


class TestBivectorType:
    def test_upper_triangle_storage(self):
        b = bg.Bivector(3, [1.0, 2.0, 3.0])
        m = b.as_matrix()
        assert np.allclose(m, -m.T)
        assert m[0, 1] == 1.0 and m[0, 2] == 2.0 and m[1, 2] == 3.0

    def test_scalar_requires_dim2(self):
        with pytest.raises(bg.DimensionMismatch):
            bg.Bivector(3, [1.0, 2.0, 3.0]).scalar
