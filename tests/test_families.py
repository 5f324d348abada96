"""Cyclic polygons, concentric 2k-gons, quadrilateral regimes, and
equal-diagonal equilateral polygons."""

import math
import re

import numpy as np
import pytest

import bicyclegeom as bg
from bicyclegeom.families import RANK_CUT, _rigidity_jacobian

from conftest import (
    congruent,
    polygon_scale,
    random_butterfly,
    random_concentric,
    random_cyclic_convex,
    random_polygon,
)
from oracles import proj_distance


class TestClassifyCyclic:
    def test_unit_square(self):
        sq = bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        info = bg.classify_cyclic(sq)
        assert info.is_cyclic_convex
        assert abs(info.diameter - math.sqrt(2)) < 1e-12
        assert np.allclose(info.center, (0.5, 0.5), atol=1e-12)

    def test_equilateral_triangle(self):
        tri = bg.Polygon([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
        info = bg.classify_cyclic(tri)
        assert info.is_cyclic_convex
        assert abs(info.diameter - 2.0 / math.sqrt(3)) < 1e-12

    def test_star_polygon_rejected(self):
        ang = 4 * math.pi * np.arange(5) / 5  # pentagram traversal
        star = bg.Polygon(np.stack([np.cos(ang), np.sin(ang)], axis=1))
        assert not bg.classify_cyclic(star).is_cyclic_convex

    def test_noncyclic_rejected(self, rng):
        v = random_polygon(rng, k=5)
        assert not bg.classify_cyclic(v).is_cyclic_convex

    def test_regime_agrees_with_direct_classification(self, rng):
        for _ in range(5):
            v = random_cyclic_convex(rng, k=int(rng.integers(3, 7)))
            info = bg.classify_cyclic(v)
            grid = np.linspace(0.05 * info.diameter, 1.8 * info.diameter, 40)
            for L in grid:
                L = float(L)
                if abs(L - info.diameter) < 1e-6 * info.diameter:
                    continue
                if any(abs(L - a) < 1e-6 * max(L, a) for a in v.side_lengths()):
                    continue
                got = bg.classify(bg.polygon_monodromy(v, L))
                assert got is info.regime(L)

    @pytest.mark.parametrize("factor", [1e120, 3e153])
    def test_square_far_above_unit_scale(self, factor):
        """The circumcenter's cubes are formed at a power-of-two scale.  The
        unit square x 1e120 was called cyclic with a NaN diameter, after raw
        RuntimeWarnings, and its regime map answered hyperbolic at every L."""
        sq = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
        unit = bg.classify_cyclic(bg.Polygon(sq))
        info = bg.classify_cyclic(bg.Polygon(sq * factor))
        assert info.is_cyclic_convex and info.diameter == unit.diameter * factor
        assert info.center.tolist() == [0.5 * factor, 0.5 * factor]
        assert info.regime(0.5 * info.diameter) is bg.MonodromyClass.HYPERBOLIC
        assert info.regime(2.0 * info.diameter) is bg.MonodromyClass.ELLIPTIC
        assert np.isfinite(bg.rotation_transform(bg.Polygon(sq * factor), factor).vertices).all()

    @pytest.mark.parametrize("s", [-400, 400])
    def test_power_of_two_scaling_is_exact(self, s):
        """A 7-gon x 2**400 had a NaN diameter, and x 2**-400 was called not
        cyclic; both now scale bit for bit."""
        v = random_cyclic_convex(np.random.default_rng(3))
        unit, info = bg.classify_cyclic(v), bg.classify_cyclic(bg.Polygon(np.ldexp(v.vertices, s)))
        assert len(v) == 7 and info.is_cyclic_convex
        assert info.diameter == math.ldexp(unit.diameter, s)
        assert info.center.tolist() == np.ldexp(unit.center, s).tolist()


class TestRotationTransform:
    def test_diameter_chord_is_antipodal_map(self, rng):
        v = random_cyclic_convex(rng, k=5)
        info = bg.classify_cyclic(v)
        w = bg.rotation_transform(v, info.diameter)
        want = 2 * np.asarray(info.center) - v.vertices
        assert np.abs(w.vertices - want).max() < 1e-9 * polygon_scale(v)

    def test_small_chord_small_angle(self, rng):
        v = random_cyclic_convex(rng, k=5)
        w = bg.rotation_transform(v, 1e-6)
        assert np.abs(w.vertices - v.vertices).max() < 1e-5

    def test_triangle_side_chord_is_relabeling(self):
        tri = bg.Polygon([(1, 0), (-0.5, math.sqrt(3) / 2), (-0.5, -math.sqrt(3) / 2)])
        w = bg.rotation_transform(tri, 1.0 * math.sqrt(3))  # chord = side length
        assert np.abs(w.vertices - tri.rolled(1).vertices).max() < 1e-12

    def test_chord_too_long(self, rng):
        v = random_cyclic_convex(rng)
        with pytest.raises(bg.ChordTooLong):
            bg.rotation_transform(v, 1.01 * bg.classify_cyclic(v).diameter)

    def test_matches_transform_up_to_branch(self, rng):
        for _ in range(8):
            v = random_cyclic_convex(rng, k=int(rng.integers(3, 7)))
            info = bg.classify_cyclic(v)
            L = float(rng.uniform(0.2, 0.9)) * info.diameter
            if any(abs(L - a) < 1e-3 for a in v.side_lengths()):
                continue
            rot = bg.rotation_transform(v, L)
            best = math.inf
            for branch in (bg.Branch.ATTRACTING, bg.Branch.REPELLING):
                w = bg.transform(v, L, branch)
                best = min(best, float(np.abs(w.vertices - rot.vertices).max()))
            assert best < 1e-9 * polygon_scale(v)
            assert bg.correspondence_check(v, rot)


class TestConcentricTransform:
    def test_angular_recurrence_example(self):
        r1, r2 = 2.0, 1.0
        angs = np.radians([0.0, 90.0, 180.0, 270.0])
        rad = [r1, r2, r1, r2]
        v = bg.Polygon([(r * math.cos(a), r * math.sin(a)) for r, a in zip(rad, angs)])
        w = bg.concentric_transform(v, math.radians(30.0))
        want_angles = np.radians([30.0, 120.0, 210.0, 300.0])
        want_rad = [r2, r1, r2, r1]
        want = np.array([(r * math.cos(a), r * math.sin(a)) for r, a in zip(want_rad, want_angles)])
        assert np.abs(w.vertices - want).max() < 1e-12

    def test_double_application_is_rotation(self, rng):
        v, center, _r1, _r2 = random_concentric(rng, k2=6)
        v_ang = math.atan2(v.vertex(0)[1] - center[1], v.vertex(0)[0] - center[0])
        w1_angle = v_ang + 0.7
        w = bg.concentric_transform(v, w1_angle)
        t2 = bg.concentric_transform(w, _first_angle(w, center) + 0.7)
        delta = 2 * 0.7
        rot = np.array([[math.cos(delta), -math.sin(delta)], [math.sin(delta), math.cos(delta)]])
        want = (v.vertices - center) @ rot.T + center
        assert np.abs(t2.vertices - want).max() < 1e-10 * polygon_scale(v)

    def test_rhombus_to_congruent_rhombus(self):
        rho = bg.Polygon([(2, 0), (0, 1), (-2, 0), (0, -1)])
        w = bg.concentric_transform(rho, 0.9)
        assert congruent(rho, w, tol=1e-10)
        assert bg.correspondence_check(rho, w)

    def test_output_closes_and_corresponds(self, rng):
        for _ in range(10):
            v, center, r1, r2 = random_concentric(rng)
            w = bg.concentric_transform(v, rng.uniform(0, 2 * math.pi))
            assert bg.correspondence_check(v, w)
            rads = np.linalg.norm(w.vertices - center, axis=1)
            want = np.where(np.arange(len(v)) % 2 == 0, r2, r1)
            assert np.abs(rads - want).max() < 1e-9 * max(r1, r2)

    def test_rejects_non_alternating(self, rng):
        v = random_polygon(rng, k=6)
        with pytest.raises(bg.NotConcentricAlternating):
            bg.concentric_transform(v, 0.3)


def _first_angle(v, center):
    d = v.vertex(0) - center
    return math.atan2(d[1], d[0])


class TestClassifyQuadrilateral:
    def test_rectangle_matches_cyclic_regime(self):
        rect = bg.Polygon([(0, 0), (3, 0), (3, 2), (0, 2)])
        info = bg.classify_quadrilateral(rect)
        assert info.kind == "generic"
        d = math.hypot(3, 2)
        assert abs(info.r1 - d / 2) < 1e-12
        assert abs(info.r2 - d / 2) < 1e-12
        assert info.regime(0.5 * d) is bg.MonodromyClass.HYPERBOLIC
        assert info.regime(1.5 * d) is bg.MonodromyClass.ELLIPTIC

    def test_butterfly_identity_at_random_lengths(self, rng):
        fly = random_butterfly(rng)
        info = bg.classify_quadrilateral(fly)
        assert info.kind == "butterfly"
        eye = bg.Mobius2(np.eye(2))
        for _ in range(5):
            L = rng.uniform(0.2, 4.0)
            assert info.regime(L) is bg.MonodromyClass.IDENTITY
            assert proj_distance(bg.polygon_monodromy(fly, L), eye) < 1e-9

    def test_parallel_diagonals_detected(self):
        # asymmetric, so not a butterfly; diagonals on y=0 and y=1
        q = bg.Polygon([(0, 0), (1, 1), (4, 0), (3.5, 1)])
        info = bg.classify_quadrilateral(q)
        assert info.kind == "parallel"
        assert abs(info.gap - 1.0) < 1e-12
        assert abs(bg.signed_area(q)) < 1e-12
        assert info.regime(0.5) is bg.MonodromyClass.ELLIPTIC
        assert info.regime(2.0) is bg.MonodromyClass.HYPERBOLIC

    def test_glide_reflection_orbit_unbounded(self):
        q = bg.Polygon([(0, 0), (1, 1), (4, 0), (3.5, 1)])
        L = 2.0
        drift = []
        cur = q
        for _ in range(50):
            cur = bg.transform(cur, L)
            drift.append(float(np.linalg.norm(cur.vertex(0) - q.vertex(0))))
        drift = np.array(drift)
        # the squared map is a pure translation, so the even iterates grow
        # in an exact arithmetic progression; the total dwarfs the polygon
        assert drift[-1] > 5 * q.perimeter()
        steps = np.diff(drift[25:])
        assert steps.min() > 0.5 * steps.max() > 0
        even = drift[1::2]
        increments = np.diff(even)
        assert np.abs(increments - increments.mean()).max() < 1e-9 * increments.mean()

    def test_regime_agrees_with_direct_classification(self, rng):
        done = 0
        while done < 10:
            q = random_polygon(rng, k=4)
            info = bg.classify_quadrilateral(q)
            if info.kind != "generic" or info.r1 - info.r2 < 0.05 * info.r1:
                continue
            lo, hi = info.boundaries[0], info.boundaries[-1]
            grid = np.concatenate(
                [
                    np.linspace(0.3 * lo, 0.97 * lo, 10),
                    np.linspace(1.03 * lo, 0.97 * hi, 20),
                    np.linspace(1.03 * hi, 2.0 * hi, 10),
                ]
            )
            for L in grid:
                L = float(L)
                if any(abs(L - a) < 1e-6 * max(L, a) for a in q.side_lengths()):
                    continue
                assert bg.classify(bg.polygon_monodromy(q, L)) is info.regime(L)
            for L in info.boundaries:  # at the boundary both sides say parabolic
                if any(abs(L - a) < 1e-6 * max(L, a) for a in q.side_lengths()):
                    continue
                assert info.regime(L) is bg.MonodromyClass.PARABOLIC
                assert bg.classify(bg.polygon_monodromy(q, L)) is bg.MonodromyClass.PARABOLIC
            done += 1

    def test_boundaries_match_bisected_discriminant(self, rng):
        done = 0
        while done < 5:
            q = random_polygon(rng, k=4)
            info = bg.classify_quadrilateral(q)
            if info.kind != "generic" or info.r1 - info.r2 < 0.1 * info.r1:
                continue
            lo, hi = info.boundaries
            roots = bg.refine_class_boundaries(q, 0.5 * lo, 1.5 * hi, steps=256)
            roots = [r for r in roots if not any(abs(r - a) < 1e-6 for a in q.side_lengths())]
            assert any(abs(r - lo) < 1e-8 for r in roots)
            assert any(abs(r - hi) < 1e-8 for r in roots)
            done += 1


class TestLengthRange:
    """Every regime map and rotation_transform refuse a length outside
    0 < L < inf by name: NaN used to read hyperbolic, inf elliptic, a
    butterfly's map answered identity at any value, and rotation_transform
    turned the polygon clockwise at a negative length."""

    BAD = [math.nan, math.inf, -math.inf, 0.0, -0.5]
    QUADS = {
        "generic": [(0, 0), (3, 0), (3, 2), (0, 2)],
        "parallel": [(0, 0), (1, 1), (4, 0), (3.5, 1)],
        "butterfly": [(0, 0), (1, 0), (0, 1), (1, 1)],
    }

    def _maps(self):
        square = bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        yield "cyclic", bg.classify_cyclic(square).regime
        for kind, pts in self.QUADS.items():
            info = bg.classify_quadrilateral(bg.Polygon(pts))
            assert info.kind == kind
            yield kind, info.regime

    @pytest.mark.parametrize("ell", BAD, ids=repr)
    def test_regime_maps(self, ell):
        for _, regime in self._maps():
            with pytest.raises(ValueError, match=re.escape(f"length parameter must be positive and finite, got {ell!r}")):
                regime(ell)

    def test_regime_maps_inside_the_range(self):
        want = {"cyclic": "hyperbolic", "generic": "hyperbolic", "parallel": "elliptic", "butterfly": "identity"}
        for kind, regime in self._maps():
            assert regime(0.5).value == want[kind], kind

    @pytest.mark.parametrize("length", BAD, ids=repr)
    def test_rotation_transform(self, length):
        square = bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(ValueError, match=re.escape(f"length parameter must be positive and finite, got {length!r}")):
            bg.rotation_transform(square, length)


class TestNGon:
    def test_equal_radii_gives_regular(self):
        v = bg.ngon_construct(bg.NGonSpec(n=8, k=3, r1=1.3, r2=1.3))
        info = bg.classify_cyclic(v)
        assert info.is_cyclic_convex
        assert np.abs(v.side_lengths() - v.side_lengths().mean()).max() < 1e-12

    def test_12_3_verifies(self):
        v = bg.ngon_construct(bg.NGonSpec(n=12, k=3, r1=1.0, r2=0.7))
        assert bg.ngon_verify(v, 3)
        for i in range(12):
            quad = [v.vertex(i), v.vertex(i + 1), v.vertex(i + 4), v.vertex(i + 3)]
            assert bg.is_darboux_butterfly(quad)

    def test_verification_matches_shift_correspondence(self):
        v = bg.ngon_construct(bg.NGonSpec(n=12, k=3, r1=1.0, r2=0.7))
        assert bg.correspondence_check(v, v.rolled(3))

    def test_regular_ngon_verifies_for_any_k(self, rng):
        ang = 2 * math.pi * np.arange(9) / 9
        v = bg.Polygon(np.stack([np.cos(ang), np.sin(ang)], axis=1))
        for k in (2, 3, 4):
            assert bg.ngon_verify(v, k)

    def test_perturbed_polygon_fails(self, rng):
        v = bg.ngon_construct(bg.NGonSpec(n=12, k=3, r1=1.0, r2=0.7))
        pts = v.vertices.copy()
        pts[4] += (1e-4, -2e-4)
        assert not bg.ngon_verify(bg.Polygon(pts), 3)

    def test_collapsed_bisector_is_infinite_defect(self):
        # V_2 = V_4 = V_{2+k+1} with k = 1: the quadruple at index 2 has no bisector
        v = bg.Polygon([(0, -1), (1, 0), (0, 0), (0, 1), (0, 0), (-1, 0)])
        assert bg.ngon_residuals(v, 1) == (math.inf, 2)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            bg.NGonSpec(n=7, k=3, r1=1.0, r2=0.7)
        with pytest.raises(ValueError):
            bg.NGonSpec(n=12, k=2, r1=1.0, r2=0.7)
        with pytest.raises(ValueError):
            bg.NGonSpec(n=12, k=7, r1=1.0, r2=0.7)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0], ids=repr)
    def test_radii_outside_the_range(self, bad):
        """Refused by name: an infinite radius used to warn in ngon_construct
        and a NaN one to fail there as a vertex coordinate."""
        for field in ("r1", "r2"):
            with pytest.raises(ValueError, match=re.escape(f"{field} must be positive and finite, got {bad!r}")):
                bg.NGonSpec(n=12, k=3, **{"r1": 1.0, "r2": 0.7, field: bad})

    def test_construct_verify_lattice(self, rng):
        """Every even n up to 24, every odd k, a few radius ratios and phases:
        construction and verification round-trip."""
        for n in range(4, 25, 2):
            for k in range(1, n // 2, 2):
                for ratio in (0.55, 0.8):
                    spec = bg.NGonSpec(
                        n=n, k=k, r1=1.0, r2=ratio, phase=float(rng.uniform(0, 2 * math.pi))
                    )
                    assert bg.ngon_verify(bg.ngon_construct(spec), k)


# (n, k) -> deformations of the regular n-gon, for 5 <= n <= 40 and 2 <= k < n/2, where it is not 0
# (0 for odd n and for even k, 1 for even n and odd k: the two-circle family of ngon_construct)
EXTRA_DEFORMATIONS = {(30, 4): 2, (24, 5): 3, (24, 7): 3, (30, 11): 3, (40, 9): 3, (40, 11): 3}


def _regular(n: int) -> np.ndarray:
    """The regular n-gon of rigid_check: vertex i at angle 2 pi i / n on the unit circle."""
    ang = 2.0 * math.pi * np.arange(n) / n
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


class TestRigidity:
    def test_k1_two_circle_family(self):
        """Equilateral quadrilaterals are the rhombi: one deformation, the two-circle family."""
        report = bg.rigid_check(4, 1)
        assert (report.n, report.k, report.deformations) == (4, 1, 1)

    def test_k2_regular_octagon_rigid(self):
        assert bg.rigid_check(8, 2).deformations == 0

    def test_k3_figure_family(self):
        assert bg.rigid_check(12, 3).deformations == 1

    def test_table_to_n40(self):
        counts = {}
        for n in range(5, 41):
            for k in range(2, (n + 1) // 2):
                report = bg.rigid_check(n, k)
                assert report.zero_sv <= 1e-3 * RANK_CUT, (n, k, report)
                assert report.nonzero_sv >= 1e3 * RANK_CUT, (n, k, report)
                counts[n, k] = report.deformations
        assert len(counts) == 342
        expected = {
            (n, k): EXTRA_DEFORMATIONS.get((n, k), int(n % 2 == 0 and k % 2 == 1)) for n, k in counts
        }
        assert counts == expected

    @pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
    def test_two_circle_tangent_in_kernel(self, k):
        """The radius r2 of the two-circle family is a deformation of the regular 4k-gon, and not a
        similarity: the tangent is far from the span of translations, rotation and scale."""
        n = 4 * k
        pts = _regular(n)
        assert np.abs(bg.ngon_construct(bg.NGonSpec(n=n, k=k, r1=1.0, r2=1.0)).vertices - pts).max() < 1e-15
        t = (pts * (np.arange(n) % 2)[:, None]).ravel()  # odd vertices sit at radius r2
        t /= np.linalg.norm(t)
        jac = _rigidity_jacobian(n, k)
        assert np.linalg.norm(jac @ t) <= 1e-14 * np.linalg.norm(jac, 2)
        rotation = (pts[:, ::-1] * (-1.0, 1.0)).ravel()
        similarities = np.stack([np.tile([1.0, 0.0], n), np.tile([0.0, 1.0], n), rotation, pts.ravel()], axis=1)
        coef = np.linalg.lstsq(similarities, t, rcond=None)[0]
        assert np.linalg.norm(t - similarities @ coef) > 0.5

    @pytest.mark.parametrize("n, k", [(11, 3), (12, 5), (30, 4)])
    def test_jacobian_matches_central_differences(self, n, k):
        """The constraints are quadratic, so central differences are exact up to rounding."""
        h = 1e-4

        def constraints(x):
            pts = x.reshape(n, 2)
            sq = [np.sum((np.roll(pts, -m, axis=0) - pts) ** 2, axis=1) for m in (1, k)]
            return np.concatenate([q[1:] - q[0] for q in sq])

        x = _regular(n).ravel()
        fd = np.stack([constraints(x + h * e) - constraints(x - h * e) for e in np.eye(2 * n)], axis=1) / (2 * h)
        assert np.abs(fd - _rigidity_jacobian(n, k)).max() <= 1e-10

    @pytest.mark.parametrize("n, k", [(8, 0), (8, -1), (8, 4), (9, 5), (4, 2), (3, 2)])
    def test_k_out_of_range(self, n, k):
        with pytest.raises(ValueError, match=f"n={n}, k={k}"):
            bg.rigid_check(n, k)

    def test_rhombus_orbit_congruent(self):
        """The four k-spaced vertices of a verified polygon form a rhombus
        whose bicycle orbit steps through congruent rhombi."""
        k = 3
        v = bg.ngon_construct(bg.NGonSpec(n=4 * k, k=k, r1=1.0, r2=0.8))
        assert bg.ngon_verify(v, k)
        rhombi = [
            bg.Polygon([v.vertex(j), v.vertex(j + k), v.vertex(j + 2 * k), v.vertex(j + 3 * k)])
            for j in range(k + 1)
        ]
        for rho in rhombi:
            sides = rho.side_lengths()
            assert np.abs(sides - sides.mean()).max() < 1e-12
        for a, b in zip(rhombi, rhombi[1:]):
            assert congruent(a, b, tol=1e-10)
            assert bg.correspondence_check(a, b)
