"""Conserved quantities, the circumcenter of mass, and the rear track."""

import ast
import dataclasses
import inspect
import math
import re
import textwrap

import numpy as np
import pytest

import bicyclegeom as bg

from conftest import (
    LARGE_CIRCLES,
    bench_reference,
    circle_polygon,
    hyperbolic_length,
    polygon_scale,
    propagated_pair_3d,
    random_concentric,
    random_cyclic_convex,
    random_hyperbolic_pair,
    random_polygon,
)
from oracles import ccm_triangulation_oracle


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
            assert np.abs((shifted - bg.area_bivector(v)).upper).max() <= 1e-12 * polygon_scale(v) ** 2


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
            assert np.abs(bg.circumcenter_of_mass(q) - info.center).max() < 1e-8 * polygon_scale(q)

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
            assert np.abs(got - (bg.circumcenter_of_mass(v) + xi)).max() < 1e-10 * polygon_scale(v)

    def test_zero_area_raises(self):
        flat = bg.Polygon([(0, 0), (1, 1), (4, 0), (3, 1)])  # butterfly: zero area
        with pytest.raises(bg.ZeroArea):
            bg.circumcenter_of_mass(flat)


UNIT_SQUARE = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
FLAT_BUTTERFLY = np.array([(0.0, 0.0), (1.0, 1.0), (4.0, 0.0), (3.0, 1.0)])  # zero area


class TestCircumcenterAwayFromUnitScale:
    """Both constructions are translation-equivariant and decide zero area
    against the polygon's own size, at any scale and any distance from the
    origin."""

    @pytest.mark.parametrize("scale, shift", [(1.0, 1e8), (1e-5, 0.0), (1e-3, 1e4)])
    def test_scaled_translated_square(self, scale, shift):
        v = bg.Polygon(scale * UNIT_SQUARE + shift)
        want = np.full(2, 0.5 * scale + shift)
        atol = 1e-12 * scale + 2.0 * np.spacing(shift)
        assert np.abs(bg.circumcenter_of_mass(v) - want).max() <= atol
        for apex in range(4):
            assert np.abs(ccm_triangulation_oracle(v, apex) - want).max() <= atol

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_butterfly_stays_undefined(self, scale, shift):
        v = bg.Polygon(scale * FLAT_BUTTERFLY + shift)
        with pytest.raises(bg.ZeroArea):
            bg.circumcenter_of_mass(v)
        for apex in range(4):
            with pytest.raises(bg.ZeroArea):
                ccm_triangulation_oracle(v, apex)

    def test_collinear_fan_triangle_counts(self):
        """A vertex in the middle of a side makes one fan triangle collinear;
        its area times circumcenter is finite and is not dropped."""
        v = bg.Polygon([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])
        want = bg.circumcenter_of_mass(v)
        assert np.abs(want - (0.5, 0.5625)).max() < 1e-15
        for apex in range(5):
            assert np.abs(ccm_triangulation_oracle(v, apex) - want).max() < 1e-15
        bent = bg.Polygon([(0, 0), (0.5, 1e-9), (1, 0), (1, 1), (0, 1)])
        assert np.abs(ccm_triangulation_oracle(bent) - want).max() < 1e-8


def _plain_j(pts):
    """J as a plain cubic sum on raw coordinates, squares in column order."""
    sq = pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1]
    return ((np.roll(sq, -1) - np.roll(sq, 1))[:, None] * pts).sum(axis=0)


class TestLargeCoordinates:
    """J is a cube of the coordinates; its differences of squares are scaled
    by an exact power of two.  On the unit square scaled by 1e150, which
    Polygon accepts, j_vector and circumcenter_of_mass used to raise overflow
    RuntimeWarnings."""

    @pytest.mark.parametrize("scale", [1e100, 1e150, 3e153])
    def test_circumcenter_of_mass(self, scale):
        want = np.full(2, 0.5 * scale)
        assert np.abs(bg.circumcenter_of_mass(bg.Polygon(UNIT_SQUARE * scale)) - want).max() <= np.spacing(want[0])

    @pytest.mark.parametrize("scale, log10", [(1e150, "450.452"), (3e153, "460.883")])
    def test_j_outside_the_double_range_is_named(self, scale, log10):
        with pytest.raises(ValueError, match=re.escape(f"J outside the double range: log10 |J| = {log10}")):
            bg.j_vector(bg.Polygon(UNIT_SQUARE * scale))

    def test_j_at_the_edge_of_the_range(self):
        """|J| = 2 sqrt(2) 1e300 is a double; the cubes 1e300 are too."""
        assert bg.j_vector(bg.Polygon(UNIT_SQUARE * 1e100)).tolist() == [2e300, -2e300]

    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e50, 1e90, 1e95, 1e100])
    def test_scaling_keeps_the_bits(self, rng, scale):
        """Where the plain sum stays in range, the scaled one has its bits at
        every scale, and so does the circumcenter of mass formed from it."""
        for _ in range(40):
            pts = rng.normal(size=(int(rng.integers(3, 30)), 2)) * scale
            v = bg.Polygon(pts)
            assert bg.j_vector(v).tobytes() == _plain_j(pts).tobytes()
            rel = pts - pts.mean(axis=0)
            j, area = _plain_j(rel), bg.signed_area(bg.Polygon(rel))
            want = pts.mean(axis=0) + np.array([-j[1], j[0]]) / (4.0 * area)
            assert bg.circumcenter_of_mass(v).tobytes() == want.tobytes()


class TestTriangulationOracle:
    def test_triangle_any_apex(self):
        tri = bg.Polygon([(0, 0), (2, 0), (0, 2)])
        for apex in range(3):
            assert np.allclose(ccm_triangulation_oracle(tri, apex), (1, 1), atol=1e-12)

    def test_square_center(self):
        sq = bg.Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert np.allclose(ccm_triangulation_oracle(sq), (1, 1), atol=1e-12)

    def test_apex_independence_pentagon(self, rng):
        for _ in range(10):
            v = random_polygon(rng, k=5)
            if abs(bg.signed_area(v)) < 0.2:
                continue
            a = ccm_triangulation_oracle(v, 0)
            b = ccm_triangulation_oracle(v, 2)
            assert np.abs(a - b).max() < 1e-10 * polygon_scale(v)

    def test_matches_closed_formula_every_apex(self, rng):
        for _ in range(20):
            v = random_polygon(rng, k=int(rng.integers(4, 8)))
            if abs(bg.signed_area(v)) < 0.2:
                continue
            want = bg.circumcenter_of_mass(v)
            for apex in range(len(v)):
                got = ccm_triangulation_oracle(v, apex)
                assert np.abs(got - want).max() < 1e-9 * polygon_scale(v)


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
        assert np.abs(track.q - 0.5 * (v.vertices + w.vertices)).max() < 1e-12 * polygon_scale(v)

    def test_reconstruction_both_signs(self, rng):
        for k in (4, 5, 6):
            v, w, L = random_hyperbolic_pair(rng, k=k)
            pair = bg.BicyclePair(v, w)
            track = bg.rear_track(pair)
            vs, ws = bg.chain_reconstruct(track, L / 2)
            assert np.abs(vs - v.vertices).max() < 1e-9 * polygon_scale(v)
            assert np.abs(ws - w.vertices).max() < 1e-9 * polygon_scale(v)

    def test_tangency_rule(self, rng):
        v, w, _L = random_hyperbolic_pair(rng, k=6)
        track = bg.rear_track(bg.BicyclePair(v, w))
        k = len(v)
        for i in range(k):
            before, after = (i - 1) % k, i
            if track.curvature[before] == 0.0 or track.curvature[after] == 0.0:
                continue
            gap = np.linalg.norm(track.center[before] - track.center[after])
            radii = 1.0 / track.curvature[before] + 1.0 / track.curvature[after]
            assert abs(gap - abs(radii)) < 1e-9 * max(1.0, gap)

    def test_tangency_points_on_both_circles(self, rng):
        v, w, _L = random_hyperbolic_pair(rng, k=5)
        track = bg.rear_track(bg.BicyclePair(v, w))
        k = len(v)
        for i in range(k):
            if track.curvature[i] == 0.0:
                continue
            radius = 1.0 / track.curvature[i]
            d0 = np.linalg.norm(track.center[i] - track.q[i])
            d1 = np.linalg.norm(track.center[i] - track.q[(i + 1) % k])
            assert abs(d0 - abs(radius)) < 1e-9 * max(1.0, d0)
            assert abs(d1 - abs(radius)) < 1e-9 * max(1.0, d1)

    def test_straight_members(self):
        """Antipodal vertices of a rotated cyclic polygon give parallel frame
        segments; those chain slots become straight members, with a NaN
        centre row and a unit direction, and the reconstruction still
        returns the pair."""
        angs = np.array([0.0, math.pi, 3.9, 4.7, 5.5])
        v = bg.Polygon(2.0 * np.stack([np.cos(angs), np.sin(angs)], axis=1))
        w = bg.rotation_transform(v, 1.3)
        pair = bg.BicyclePair(v, w)
        track = bg.rear_track(pair)
        lines = track.curvature == 0.0
        assert lines.any(), "expected at least one straight chain member"
        assert (np.isnan(track.center).all(axis=1) == lines).all()
        assert (np.isfinite(track.direction).all(axis=1) == lines).all()
        assert np.abs(np.linalg.norm(track.direction[lines], axis=1) - 1.0).max() < 1e-15
        vs, ws = bg.chain_reconstruct(track, pair.length / 2)
        assert np.abs(vs - v.vertices).max() < 1e-9
        assert np.abs(ws - w.vertices).max() < 1e-9

    @pytest.mark.parametrize("k, noise, L", LARGE_CIRCLES)
    def test_large_circles_frame_angles(self, rng, k, noise, L):
        v = circle_polygon(rng, k, noise)
        pair = bg.BicyclePair(v, bg.transform(v, L))
        bg.angle_sequence(pair)  # raises if the two angle expressions disagree
        assert bg.verify_difference_equation(pair) <= 1e-12

    @pytest.mark.parametrize("k, L", [(k, L) for k, noise, L in LARGE_CIRCLES if noise == 0.0])
    def test_large_inscribed_chain_closed_form(self, rng, k, L):
        """A rotation pair on the circle of diameter 1: the midpoints q_i lie on
        the concentric circle of radius rho = sqrt(1/4 - L^2/4), the frame
        lines are tangent to it, so |r_i| = rho tan(Delta_i / 2) with Delta_i
        the angle of q_i q_{i+1} about the centre."""
        v = circle_polygon(rng, k)
        pair = bg.BicyclePair(v, bg.rotation_transform(v, L))
        track = bg.rear_track(pair)
        q, q_next = track.q, np.roll(track.q, -1, axis=0)
        delta = np.arctan2(np.abs(q[:, 0] * q_next[:, 1] - q[:, 1] * q_next[:, 0]), np.vecdot(q, q_next))
        want = math.sqrt(0.25 - 0.25 * L * L) * np.tan(0.5 * delta)
        radii = np.abs(1.0 / track.curvature)
        assert np.abs(radii / want - 1.0).max() <= 1e-9
        vs, ws = bg.chain_reconstruct(track, L / 2)
        assert np.abs(vs - pair.v.vertices).max() <= 1e-9
        assert np.abs(ws - pair.w.vertices).max() <= 1e-9
        bg.angle_sequence(pair)
        assert bg.verify_difference_equation(pair) <= 1e-12

    @pytest.mark.parametrize("k, noise, L", LARGE_CIRCLES)
    def test_large_circles_chain_reconstructs_the_pair(self, rng, k, noise, L):
        """The attracting companions of the large circles come back from their
        chain to 1e-9 x max(L, longest side).  On the noisy circles some
        neighbouring radii nearly cancel, and dividing by their sum, as the
        interpolation ((r_after - l) c_before + (r_before + l) c_after) /
        (r_before + r_after) did, missed by up to 8.2e-8 here (7.2e-6 on the
        circles of default_rng(1)); read off the centre line the worst is
        1.6e-11 (1.1e-10)."""
        v = circle_polygon(rng, k, noise)
        pair = bg.BicyclePair(v, bg.transform(v, L))
        vs, ws = bg.chain_reconstruct(bg.rear_track(pair), L / 2)
        bound = 1e-9 * max(L, float(v.side_lengths().max()))
        assert np.abs(vs - pair.v.vertices).max() <= bound
        assert np.abs(ws - pair.w.vertices).max() <= bound

    def test_hand_built_track_needs_nan_centres_at_zero_curvature(self):
        """A finite centre row exactly where the curvature is nonzero: a zero
        curvature under a finite centre, or a NaN centre under a nonzero
        curvature, is refused."""
        angs = np.array([0.0, math.pi, 3.9, 4.7, 5.5])
        v = bg.Polygon(2.0 * np.stack([np.cos(angs), np.sin(angs)], axis=1))
        track = bg.rear_track(bg.BicyclePair(v, bg.rotation_transform(v, 1.3)))
        line = int((track.curvature == 0.0).argmax())
        flat, hollow = track.curvature.copy(), track.center.copy()
        flat[line - 1] = 0.0
        hollow[line - 1, 1] = np.nan
        for change in ({"curvature": flat}, {"center": hollow}, {"curvature": np.ones(len(v))}):
            with pytest.raises(ValueError, match="finite center iff nonzero curvature"):
                dataclasses.replace(track, **change)

    def test_parallelogram_branch_rejected(self):
        v = bg.Polygon([(0, 0), (2, 0), (2.5, 1.5), (0.4, 1.8)])
        w = v.translated((0.7, 0.4))
        pair = bg.BicyclePair.__new__(bg.BicyclePair)
        pair.v, pair.w, pair.length, pair.tol = v, w, float(np.linalg.norm([0.7, 0.4])), bg.DEFAULT_TOL
        pair.alphas = None
        with pytest.raises(bg.SignAssignmentFailure):
            bg.rear_track(pair)

    def test_first_bad_slot_raises(self, rng):
        """Slots are checked in order and the first bad one names the failure.
        Moving W_3 so that q_3 = q_2 makes both frame lines of slot 2+1/2 pass
        through that midpoint (zero radius) and spoils slot 3+1/2; moving W_1
        off the pair spoils slot 0+1/2 first."""
        v, w, L = random_hyperbolic_pair(rng, k=6)
        zero, off = w.vertices.copy(), w.vertices.copy()
        zero[3] = v.vertex(2) + w.vertex(2) - v.vertex(3)
        off[1] += 0.1
        for pts, message in ((zero, "zero-radius chain member"), (off, "signed radius mismatch at slot 0+1/2")):
            pair = bg.BicyclePair.__new__(bg.BicyclePair)
            pair.v, pair.w, pair.length, pair.tol = v, bg.Polygon(pts), L, bg.DEFAULT_TOL
            with pytest.raises(bg.SignAssignmentFailure, match=re.escape(message)):
                bg.rear_track(pair)


@pytest.mark.parametrize("func", [bg.rear_track, bg.chain_reconstruct, bg.eigenvalue_products],
                         ids=lambda f: f.__name__)
def test_rear_track_layer_has_no_loop_over_slots(func):
    """The chain layer is row expressions over RearTrack's arrays: no
    comprehension or generator expression walks the slots one by one."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    loops = [type(node).__name__ for node in ast.walk(tree)
             if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))]
    assert not loops, f"{func.__name__} loops over slots: {loops}"


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

    @pytest.mark.parametrize("swap", [False, True], ids=["v-w", "w-v"])
    def test_outside_double_range_raises(self, swap):
        """A k = 2000 rotation pair at L = 0.005 has log10 lambda = -+568.8: one
        order used to raise a bare OverflowError, the other return (0.0, 0.0)."""
        v = circle_polygon(np.random.default_rng(1), 2000)
        w = bg.rotation_transform(v, 0.005)
        with pytest.raises(ValueError, match="outside the double range") as info:
            bg.eigenvalue_products(bg.BicyclePair(w, v) if swap else bg.BicyclePair(v, w))
        logs = [float(x) for x in re.findall(r"log10 lambda_\w+ = (\S+?)(?:,|$)", str(info.value))]
        want = (-1.0 if swap else 1.0) * bench_reference().classify(v.vertices, 0.005).repelling.log10_deriv
        assert len(logs) == 2 and all(abs(x - want) <= 1e-5 * abs(want) for x in logs)

    def test_pole_on_chain(self, rng):
        v, w, L = random_hyperbolic_pair(rng)
        pair = bg.BicyclePair(v, w)
        track = bg.rear_track(pair)
        doctored = dataclasses.replace(track, curvature=np.where(track.curvature == 0.0, 0.0, 2.0 / L))
        with pytest.raises(bg.PoleOnChain):
            bg.eigenvalue_products(pair, doctored)


class TestConservation:
    def test_transform_preserves_A_J_ccm_perimeter(self, rng):
        for _ in range(25):
            v, w, _L = random_hyperbolic_pair(rng, k=int(rng.integers(4, 8)))
            scale = polygon_scale(v) ** 2
            assert abs(bg.area_bivector(v).scalar - bg.area_bivector(w).scalar) < 1e-9 * scale
            assert np.abs(bg.j_vector(v) - bg.j_vector(w)).max() < 1e-9 * polygon_scale(v) ** 3
            assert abs(v.perimeter() - w.perimeter()) < 1e-9 * v.perimeter()
            assert np.abs(np.sort(v.side_lengths()) - np.sort(w.side_lengths())).max() < 1e-9
            if abs(bg.signed_area(v)) > 0.1:
                dcc = bg.circumcenter_of_mass(v) - bg.circumcenter_of_mass(w)
                assert np.abs(dcc).max() < 1e-9 * polygon_scale(v)

    def test_recut_preserves_A_and_J(self, rng):
        for dim in (2, 3):
            for _ in range(15):
                v = random_polygon(rng, dim=dim)
                i = int(rng.integers(0, len(v)))
                r = bg.recut(v, i)
                assert np.abs((bg.area_bivector(v) - bg.area_bivector(r)).upper).max() < 1e-9 * polygon_scale(v) ** 2
                assert np.abs(bg.j_vector(v) - bg.j_vector(r)).max() < 1e-9 * polygon_scale(v) ** 3

    def test_3d_pairs_preserve_A_and_J(self, rng):
        for _ in range(6):
            v, w, _L = propagated_pair_3d(rng)
            assert np.abs((bg.area_bivector(v) - bg.area_bivector(w)).upper).max() < 1e-9 * polygon_scale(v) ** 2
            assert np.abs(bg.j_vector(v) - bg.j_vector(w)).max() < 1e-9 * polygon_scale(v) ** 3


class TestBivectorType:
    def test_upper_triangle_storage(self):
        b = bg.Bivector(3, [1.0, 2.0, 3.0])
        m = b.as_matrix()
        assert np.allclose(m, -m.T)
        assert m[0, 1] == 1.0 and m[0, 2] == 2.0 and m[1, 2] == 3.0

    def test_scalar_requires_dim2(self):
        with pytest.raises(bg.DimensionMismatch):
            bg.Bivector(3, [1.0, 2.0, 3.0]).scalar
