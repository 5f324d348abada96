"""Reflections, the bicycle step, and the butterfly predicate."""

import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bicyclegeom as bg
from bicyclegeom.geometry import _coincident, _cyc, as_vec

from conftest import polygon_scale, random_butterfly, random_nonbutterfly_quad
from oracles import reflect_in_line


def planar_points(n):
    return st.integers(min_value=0, max_value=2**31 - 1).map(
        lambda seed: np.random.default_rng(seed).uniform(-5.0, 5.0, size=(n, 2))
    )


def spatial_points(n, dim=3):
    return st.integers(min_value=0, max_value=2**31 - 1).map(
        lambda seed: np.random.default_rng(seed).uniform(-5.0, 5.0, size=(n, dim))
    )


class TestReflectInLine:
    def test_hand_example(self):
        out = reflect_in_line((1, 1), (0, 1), (1, 0))
        assert np.allclose(out, (0, 0), atol=1e-12)

    def test_point_on_its_own_line(self):
        p = np.array([0.3, -1.2])
        assert np.allclose(reflect_in_line(p, p, (2.0, 2.0)), p, atol=1e-12)

    def test_axis_reflection(self):
        assert np.allclose(reflect_in_line((0, 2), (0, 0), (1, 0)), (0, -2), atol=1e-12)

    def test_degenerate_axis(self):
        with pytest.raises(bg.DegenerateLine):
            reflect_in_line((1, 1), (2, 2), (2, 2))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(bg.DimensionMismatch):
            reflect_in_line((1, 1, 1), (0, 0), (1, 0))

    @given(planar_points(3))
    @settings(max_examples=60, deadline=None)
    def test_involution(self, pts):
        p, a, b = pts
        if np.linalg.norm(b - a) < 1e-3:
            return
        twice = reflect_in_line(reflect_in_line(p, a, b), a, b)
        assert np.linalg.norm(twice - p) <= 1e-12 * max(1.0, np.linalg.norm(p))

    @given(spatial_points(3))
    @settings(max_examples=60, deadline=None)
    def test_distance_to_line_preserved(self, pts):
        p, a, b = pts
        if np.linalg.norm(b - a) < 1e-3:
            return
        out = reflect_in_line(p, a, b)
        d = (b - a) / np.linalg.norm(b - a)

        def dist(x):
            r = x - a
            return np.linalg.norm(r - d * (r @ d))

        assert abs(dist(out) - dist(p)) <= 1e-10 * max(1.0, dist(p))


class TestPerpBisectorReflect:
    def test_hand_example(self):
        assert np.allclose(bg.perp_bisector_reflect((0, 1), (0, 0), (2, 0)), (2, 1), atol=1e-12)

    def test_fixed_on_bisector(self):
        p = np.array([1.0, 7.0])  # equidistant from the two endpoints
        assert np.allclose(bg.perp_bisector_reflect(p, (0, 0), (2, 0)), p, atol=1e-12)

    @given(spatial_points(3))
    @settings(max_examples=60, deadline=None)
    def test_involution_and_distance_swap(self, pts):
        p, a, b = pts
        if np.linalg.norm(b - a) < 1e-3:
            return
        out = bg.perp_bisector_reflect(p, a, b)
        assert abs(np.linalg.norm(out - a) - np.linalg.norm(p - b)) < 1e-10
        assert abs(np.linalg.norm(out - b) - np.linalg.norm(p - a)) < 1e-10
        back = bg.perp_bisector_reflect(out, a, b)
        assert np.linalg.norm(back - p) <= 1e-12 * max(1.0, np.linalg.norm(p))

    def test_degenerate(self):
        with pytest.raises(bg.DegenerateLine):
            bg.perp_bisector_reflect((0, 1), (1, 1), (1, 1))


class TestBicycleStep:
    def test_hand_example(self):
        assert np.allclose(bg.bicycle_step((0, 0), (1, 0), (0, 1)), (0, 0), atol=1e-12)

    def test_trapezoid_identities(self):
        v1, v2, w1 = np.array([0.0, 0.0]), np.array([2.0, 0.0]), np.array([0.0, 3.0])
        w2 = bg.bicycle_step(v1, v2, w1)
        assert abs(np.linalg.norm(v2 - w2) - 3.0) < 1e-12
        assert abs(np.linalg.norm(w1 - w2) - 2.0) < 1e-12

    def test_degenerate_when_w1_equals_v2(self):
        with pytest.raises(bg.DegenerateLine):
            bg.bicycle_step((0, 0), (1, 0), (1, 0))

    def test_matches_bisector_reflection(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v1, v2, w1 = rng.normal(size=(3, 2)) * 2
            if min(np.linalg.norm(w1 - v2), np.linalg.norm(w1 - v1)) < 1e-2:
                continue
            got = bg.bicycle_step(v1, v2, w1)
            alt = bg.perp_bisector_reflect(v1, v2, w1)
            assert np.linalg.norm(got - alt) < 1e-10
            line = reflect_in_line(w1 + (v2 - v1), w1, v2)
            assert np.linalg.norm(got - line) < 1e-10

    @given(spatial_points(3))
    @settings(max_examples=80, deadline=None)
    def test_invariants_in_space(self, pts):
        v1, v2, w1 = pts
        if min(np.linalg.norm(w1 - v2), np.linalg.norm(w1 - v1), np.linalg.norm(v2 - v1)) < 1e-2:
            return
        w2 = bg.bicycle_step(v1, v2, w1)
        scale = max(np.linalg.norm(v2 - v1), np.linalg.norm(w1 - v1))
        assert abs(np.linalg.norm(v2 - w2) - np.linalg.norm(v1 - w1)) <= 1e-9 * scale
        assert abs(np.linalg.norm(w1 - w2) - np.linalg.norm(v1 - v2)) <= 1e-9 * scale
        # coplanarity: the three difference vectors have rank <= 2
        diffs = np.array([v2 - v1, w1 - v1, w2 - v1])
        gram = diffs @ diffs.T
        assert abs(np.linalg.det(gram)) <= 1e-9 * max(1.0, scale**6)


class TestCoincidenceRule:
    def test_one_relative_rule_in_every_entry_point(self):
        """|b - a| <= eps_geom max(|a|, |b|) raises DegenerateLine; just
        outside it every entry point computes."""
        a = np.array([3.0, 4.0])  # |a| = 5, so the bound is about 5e-9
        square = bg.Polygon([a, a + (1, 0), a + (1, 1), a + (0, 1)])
        for gap, degenerate in ((4e-9, True), (6e-9, False)):
            b = a + (0.0, gap)
            calls = [
                lambda: reflect_in_line((0.0, 1.0), a, b),
                lambda: bg.perp_bisector_reflect((0.0, 1.0), a, b),
                lambda: bg.bicycle_step((0.0, 1.0), a, b),  # no bisector of v2 w1
                lambda: bg.bicycle_step(a, (0.0, 1.0), b),  # zero frame v1 w1
                lambda: bg.propagate(square, b).points,
            ]
            for call in calls:
                if degenerate:
                    with pytest.raises(bg.DegenerateLine):
                        call()
                else:
                    assert np.all(np.isfinite(call()))

    def test_nan_counts_as_coincident(self):
        rows = np.array([[np.nan, 0.0], [0.0, 0.0]])
        assert _coincident(rows, np.array([1.0, 1.0]), bg.DEFAULT_TOL).tolist() == [True, False]


class TestDarbouxButterfly:
    def test_trapezoid_example(self):
        assert bg.is_darboux_butterfly([(0, 0), (1, 2), (4, 0), (3, 2)])

    def test_square_is_not(self):
        assert not bg.is_darboux_butterfly([(0, 0), (1, 0), (1, 1), (0, 1)])

    @pytest.mark.parametrize("s", [-600, -540, -537, 500])
    def test_tiny_and_huge_coordinates(self, s):
        """Squared lengths of raw coordinates underflow below about 2^-537;
        the test used to raise DegenerateLine there on a valid butterfly."""
        fly = np.ldexp([(0.0, 0.0), (1.0, 2.0), (4.0, 0.0), (3.0, 2.0)], s)
        assert bg.is_darboux_butterfly(fly)
        assert not bg.is_darboux_butterfly(np.ldexp([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], s))

    def test_collinear_symmetric(self):
        assert bg.is_darboux_butterfly([(0, 0), (1, 0), (3, 0), (2, 0)])

    def test_wrong_arity(self):
        with pytest.raises(bg.WrongArity):
            bg.is_darboux_butterfly([(0, 0), (1, 0), (1, 1)])

    def test_rigid_motion_invariance(self, rng):
        for _ in range(50):
            fly = random_butterfly(rng)
            th = rng.uniform(0, 2 * math.pi)
            rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
            moved = fly.vertices @ rot.T + rng.normal(size=2) * 3
            assert bg.is_darboux_butterfly(moved)

    def test_cross_check_concyclic_zero_area(self, rng):
        """The bisector characterization agrees with concyclicity plus zero
        signed area on generic quadruples."""
        for _ in range(50):
            fly = random_butterfly(rng)
            assert bg.is_darboux_butterfly(fly)
            assert abs(bg.signed_area(fly)) < 1e-9 * polygon_scale(fly) ** 2
            center = bg.triangle_circumcenter(fly.vertex(0), fly.vertex(1), fly.vertex(2))
            dists = np.linalg.norm(fly.vertices - center, axis=1)
            assert np.abs(dists - dists.mean()).max() < 1e-8 * dists.mean()
        for _ in range(50):
            quad = random_nonbutterfly_quad(rng)
            concyclic = True
            try:
                center = bg.triangle_circumcenter(quad.vertex(0), quad.vertex(1), quad.vertex(2))
                dists = np.linalg.norm(quad.vertices - center, axis=1)
                concyclic = np.abs(dists - dists.mean()).max() < 1e-8 * dists.mean()
            except bg.DegenerateTriangle:
                concyclic = False
            flat = abs(bg.signed_area(quad)) < 1e-9 * polygon_scale(quad) ** 2
            assert not (concyclic and flat)


class TestPositiveParameters:
    """One rule, geometry.check_positive, refuses a positive parameter
    outside 0 < x < inf by name; Tolerance used to accept NaN and inf."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-9], ids=repr)
    def test_tolerance_fields(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"eps_geom must be positive and finite, got {bad!r}")):
            bg.Tolerance(eps_geom=bad)

    def test_the_rule_is_written_once(self):
        src = pathlib.Path(bg.__file__).parent
        sites = {p.name: n for p in src.glob("*.py") if (n := p.read_text(encoding="utf-8").count("positive and finite"))}
        assert sites == {"geometry.py": 1}, sites


class TestPolygonType:
    def test_cyclic_indexing(self):
        v = bg.Polygon([(0, 0), (1, 0), (0, 1)])
        assert np.allclose(v.vertex(3), v.vertex(0))
        assert np.allclose(v.vertex(-1), v.vertex(2))

    def test_rejects_too_few_vertices(self):
        with pytest.raises(bg.WrongArity):
            bg.Polygon([(0, 0), (1, 1)])

    def test_rejects_repeated_consecutive(self):
        with pytest.raises(bg.DegenerateLine):
            bg.Polygon([(0, 0), (0, 0), (1, 1)])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            bg.Polygon([(0, 0), (np.inf, 0), (1, 1)])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_read_off_the_largest_coordinate(self, bad):
        """max |V| is NaN or inf exactly when a coordinate is."""
        with pytest.raises(ValueError, match="vertex coordinates must be finite"):
            bg.Polygon([(0, 0), (1, bad), (1, 1)])

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_coordinates_whose_squares_overflow(self, dim):
        """The largest square formed from the vertices is |side|^2 <= dim (2
        max |V|)^2; a polygon at max |V| = sqrt(max double / (8 dim)) keeps it
        within half the double range and loads, with finite side lengths, one
        ulp further is refused naming the coordinate.  The unit square scaled
        by 1e155 had infinite side lengths and a RuntimeWarning."""
        limit = bg.geometry._ROOT_HALF_MAX / (2.0 * dim**0.5)
        assert math.isclose(limit, math.sqrt(np.finfo(float).max / (8 * dim)), rel_tol=4e-16)
        pts = np.full((3, dim), limit)
        pts[1] = -limit
        pts[2, 1] = -limit  # sides (-2, ..., -2) limit and (0, 2, 0, ...) limit: the worst case
        v = bg.Polygon(pts)
        assert np.isfinite(v.side_lengths()).all() and math.isfinite(v.perimeter())
        assert not _coincident(v.vertices, _cyc(v.vertices, 1), bg.DEFAULT_TOL).any()
        pts[0, 0] = np.nextafter(limit, np.inf)
        with pytest.raises(ValueError, match=re.escape(f"at most {limit:.6g}, got {float(pts[0, 0])!r}")):
            bg.Polygon(pts)
        with pytest.raises(ValueError, match="must be finite and at most 3.35195e[+]153, got 1e[+]155"):
            bg.Polygon(np.array([(0, 0), (1, 0), (1, 1), (0, 1)]) * 1e155)

    def test_vertices_read_only(self):
        v = bg.Polygon([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(ValueError):
            v.vertices[0, 0] = 5.0

    def test_side_arrays_computed_once_and_read_only(self):
        v = bg.Polygon([(0, 0), (2, 0), (3, 1), (1, 2.5)])
        for p in (v, v.rolled(1), v.reversed(), v.with_vertex(2, (4, 3))):
            sides = np.roll(p.vertices, -1, axis=0) - p.vertices
            assert np.array_equal(p.sides(), sides)
            assert np.array_equal(p.side_lengths(), np.linalg.norm(sides, axis=1))
            assert p.sides() is p.sides() and p.side_lengths() is p.side_lengths()
            for arr in (p.sides(), p.side_lengths()):
                with pytest.raises(ValueError):
                    arr[0] = 5.0

    def test_with_vertex_of_another_dimension(self):
        """A space point put into a plane polygon used to raise numpy's broadcast ValueError."""
        v = bg.Polygon([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(bg.DimensionMismatch, match=re.escape("vertex of shape (3,) for vertices of shape (2,)")):
            v.with_vertex(0, (1, 2, 3))

    def test_as_vec_rejects_scalars(self):
        with pytest.raises(bg.DimensionMismatch):
            as_vec(3.0)
