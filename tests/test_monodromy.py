"""Edge matrices, classification, fixed directions, the trace polynomial,
and the Lorentz form of the monodromy."""

import math
import re

import numpy as np
import pytest

import bicyclegeom as bg
from bicyclegeom import monodromy

from conftest import (
    LARGE_CIRCLES,
    bench_reference,
    circle_polygon,
    generic_200gons,
    lambda_grid,
    random_butterfly,
    random_cyclic_convex,
    random_polygon,
    overflow_recipe,
    survey_cases,
)
from oracles import (
    bisected_boundaries, direction_step, edge_mobius, lorentz_action, mobius_apply, mobius_matmul, proj_distance,
)

SQUARE = bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
TRIANGLE_345 = bg.Polygon([(0, 0), (3, 0), (3, 4)])  # sides 3, 4, 5


class TestEdgeMobius:
    def test_horizontal_edge_is_diagonal(self):
        m = edge_mobius(2.0, 1.0, 0.0)
        assert np.allclose(m.m, [[3, 0], [0, 1]], atol=1e-15)

    def test_zero_length_edge_is_identity(self):
        m = edge_mobius(1.7, 0.0, 1.234)
        assert proj_distance(m, bg.Mobius2(np.eye(2))) < 1e-15

    def test_pole_structure_at_ell_equals_a(self):
        m = edge_mobius(1.0, 1.0, math.pi / 2)
        assert np.allclose(m.m, [[1, -1], [-1, 1]], atol=1e-12)
        assert abs(m.det) < 1e-15

    def test_determinant_identity(self, rng):
        for _ in range(200):
            ell = rng.uniform(0.1, 5.0)
            a = rng.uniform(0.0, 5.0)
            phi = rng.uniform(-math.pi, math.pi)
            m = edge_mobius(ell, a, phi)
            assert abs(m.det - (ell * ell - a * a)) <= 1e-12 * max(1.0, ell * ell, a * a)

    def test_chart_matches_geometry(self, rng):
        """The matrix acts on tan(alpha/2) exactly as the geometric step."""
        for _ in range(100):
            v1, v2 = rng.normal(size=(2, 2)) * 2
            if np.linalg.norm(v2 - v1) < 0.05:
                continue
            ell = rng.uniform(0.3, 3.0)
            alpha = rng.uniform(-math.pi, math.pi)
            w1 = v1 + ell * np.array([math.cos(alpha), math.sin(alpha)])
            if np.linalg.norm(w1 - v2) < 1e-3:
                continue
            w2 = bg.bicycle_step(v1, v2, w1)
            beta = math.atan2(*(w2 - v2)[::-1])
            e = v2 - v1
            m = edge_mobius(ell, np.linalg.norm(e), math.atan2(e[1], e[0]))
            assert abs(mobius_apply(m, math.tan(alpha / 2)) - math.tan(beta / 2)) < 1e-7 * (
                1.0 + math.tan(beta / 2) ** 2
            )


class TestPolygonMonodromy:
    def test_butterfly_identity_for_every_length(self, rng):
        fly = random_butterfly(rng)
        eye = bg.Mobius2(np.eye(2))
        for ell in (0.35, 0.8, 1.7, 4.4, 11.0):
            assert proj_distance(bg.polygon_monodromy(fly, ell), eye) < 1e-9

    def test_two_edge_product_closed_form(self, rng):
        """Along a two-edge path with horizontal closing segment of length g
        the product is [[l^2 + l g + ab cos(da), -ab sin(da)],
                        [ab sin(da), l^2 - l g + ab cos(da)]]."""
        for _ in range(50):
            a = rng.uniform(0.5, 2.0)
            alpha = rng.uniform(0.1, math.pi - 0.1)
            start = np.zeros(2)
            middle = start + a * np.array([math.cos(alpha), math.sin(alpha)])
            g = rng.uniform(-1.0, 3.0)
            end = np.array([g, 0.0])  # closing side start -> end is horizontal
            b = float(np.linalg.norm(end - middle))
            beta = math.atan2(end[1] - middle[1], end[0] - middle[0])
            ell = rng.uniform(0.3, 3.0)
            prod = mobius_matmul(edge_mobius(ell, b, beta), edge_mobius(ell, a, alpha))
            da = alpha - beta
            want = np.array(
                [
                    [ell**2 + ell * g + a * b * math.cos(da), -a * b * math.sin(da)],
                    [a * b * math.sin(da), ell**2 - ell * g + a * b * math.cos(da)],
                ]
            )
            assert np.abs(prod.m - want).max() < 1e-10 * max(1.0, ell**2)

    def test_large_length_limit_is_identity(self):
        tri = bg.Polygon([(0, 0), (3, 0), (0, 4)])
        m = bg.polygon_monodromy(tri, 1e6)
        assert proj_distance(m, bg.Mobius2(np.eye(2))) < 1e-4

    def test_pole_at_side_length(self):
        with pytest.raises(bg.DegenerateMonodromy):
            bg.polygon_monodromy(SQUARE, 1.0)

    @pytest.mark.parametrize("a", [3.0, 4.0, 5.0])
    def test_pole_at_every_side_length(self, a):
        with pytest.raises(bg.DegenerateMonodromy):
            bg.polygon_monodromy(TRIANGLE_345, a * (1.0 + 1e-10))

    def test_start_vertex_invariance(self, rng):
        for _ in range(20):
            v = random_polygon(rng)
            ell = 0.77 * float(v.side_lengths().mean())
            if any(abs(ell - a) < 1e-3 for a in v.side_lengths()):
                continue
            base = bg.polygon_monodromy(v, ell).trace_sq_over_det()
            for shift in range(1, len(v)):
                other = bg.polygon_monodromy(v.rolled(shift), ell).trace_sq_over_det()
                assert abs(other - base) <= 1e-9 * abs(base)

    @pytest.mark.parametrize("k, noise, L", LARGE_CIRCLES)
    def test_large_product_matches_edge_mobius(self, rng, k, noise, L):
        v = circle_polygon(rng, k, noise)
        prod = bg.Mobius2(np.eye(2))
        for a, phi in zip(v.side_lengths(), v.side_directions()):
            prod = mobius_matmul(edge_mobius(L, a, phi), prod)
        assert proj_distance(bg.polygon_monodromy(v, L), prod) <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k, noise, L", [c for c in LARGE_CIRCLES if c[0] == 2000])
    def test_conjugacy_below_the_double_range(self, k, noise, L):
        """c03 at k = 2000: V and T_L(V) share the class and Tr^2/det at 0.6 L,
        where the raw entries underflow (log2 scale -1771 and -1615); measured
        gap 3.3e-13 relative, bound 1e-11."""
        v = circle_polygon(np.random.default_rng(1), k, noise)
        mv, mw = (bg.polygon_monodromy(p, 0.6 * L) for p in (v, bg.transform(v, L)))
        assert bg.classify(mv) is bg.classify(mw) is bg.MonodromyClass.HYPERBOLIC
        a, b = mv.trace_sq_over_det(), mw.trace_sq_over_det()
        assert abs(a - b) <= 1e-11 * abs(a)
        with pytest.raises(ValueError, match=re.escape(f"monodromy entries underflow: log2 scale {mv.e}")):
            mv.m


class TestClassify:
    def test_square_regimes(self):
        assert bg.classify(bg.polygon_monodromy(SQUARE, 1.2)) is bg.MonodromyClass.HYPERBOLIC
        assert bg.classify(bg.polygon_monodromy(SQUARE, math.sqrt(2))) is bg.MonodromyClass.PARABOLIC
        assert bg.classify(bg.polygon_monodromy(SQUARE, 2.0)) is bg.MonodromyClass.ELLIPTIC

    def test_identity_and_degenerate(self):
        assert bg.classify(bg.Mobius2(3.0 * np.eye(2))) is bg.MonodromyClass.IDENTITY
        assert bg.classify(bg.Mobius2([[1, 1], [1, 1]])) is bg.MonodromyClass.DEGENERATE


class TestFixedDirections:
    def test_diagonal_matrix(self):
        out = bg.fixed_directions(bg.Mobius2([[3, 0], [0, 1]]))
        assert len(out) == 2
        # attracting first: the direction at angle pi, where the chart map
        # y = 3x has derivative 1/3
        assert abs(abs(out[0].angle) - math.pi) < 1e-12
        assert abs(out[0].derivative - 1.0 / 3.0) < 1e-12
        assert abs(out[1].angle - 0.0) < 1e-12
        assert abs(out[1].derivative - 3.0) < 1e-12

    def test_identity_marker(self):
        assert bg.fixed_directions(bg.Mobius2(np.eye(2) * 2.0)) is bg.ALL_DIRECTIONS

    def test_elliptic_raises(self):
        with pytest.raises(bg.NoRealFixedPoint):
            bg.fixed_directions(bg.polygon_monodromy(SQUARE, 2.0))

    def test_reciprocal_derivatives(self, rng):
        for _ in range(50):
            v = random_polygon(rng)
            ell = 0.9 * float(v.side_lengths().mean())
            try:
                m = bg.polygon_monodromy(v, ell)
            except bg.DegenerateMonodromy:
                continue
            if bg.classify(m) is not bg.MonodromyClass.HYPERBOLIC:
                continue
            d1, d2 = (fd.derivative for fd in bg.fixed_directions(m))
            assert abs(d1 * d2 - 1.0) <= 1e-9

    def test_fixed_direction_closes_square(self):
        m = bg.polygon_monodromy(SQUARE, 1.2)
        for fd in bg.fixed_directions(m):
            seed = SQUARE.vertex(0) + 1.2 * np.array([math.cos(fd.angle), math.sin(fd.angle)])
            assert bg.propagate(SQUARE, seed).closure_defect < 1e-12


def _oracle_frames(v, ell, angle, backwards):
    """Unit frames (cos alpha_j, sin alpha_j), j = 0 ... k, from the Mobius
    oracle: the seed h = (sin angle/2, cos angle/2) through the prefix products
    S_{j-1} ... S_0 forwards, through the adjugates of the suffix products
    S_{k-1} ... S_j backwards; frames 0 and k are the seed's, as _frames sets them."""
    k = len(v)
    sides = [edge_mobius(ell, math.hypot(dx, dy), math.atan2(dy, dx)) for dx, dy in v.sides().tolist()]
    h = np.array([math.sin(0.5 * angle), math.cos(0.5 * angle)])
    angles, prod = [angle] * (k + 1), bg.Mobius2(np.eye(2))
    if backwards:
        for j in range(k - 1, 0, -1):
            prod = mobius_matmul(prod, sides[j])
            (a, b), (c, d) = prod.m
            p, q = np.array([[d, -b], [-c, a]]) @ h
            angles[j] = 2.0 * math.atan2(p, q)
    else:
        for j in range(1, k):
            prod = mobius_matmul(sides[j - 1], prod)
            p, q = prod.m @ h
            angles[j] = 2.0 * math.atan2(p, q)
    return np.array([[math.cos(t), math.sin(t)] for t in angles])


class TestFrames:
    """monodromy._frames, the down-sweep behind transform, against the seed
    pushed through the oracle's side products; odd side counts put identity
    pads on the tree's levels."""

    @pytest.mark.parametrize("k", [3, 4, 5, 7, 24])
    def test_partial_products_of_the_seed(self, k):
        """Arbitrary seeds, not fixed directions, on 30 random k-gons per k at
        L = U(0.3, 2) x mean side: both sweeps within 1e-11 of the oracle (worst
        measured 4.5e-13 forwards at k = 24 and 3.3e-14 at k <= 7, so 22x
        headroom; a seed near a product's repelling direction amplifies both
        sides' rounding); every row a unit vector to 4 ulp (measured 1)."""
        rng = np.random.default_rng(k)
        for _ in range(30):
            v = bg.Polygon(rng.normal(size=(k, 2)))
            ell = float(rng.uniform(0.3, 2.0) * v.side_lengths().mean())
            levels, _ = monodromy._tree(v, np.array([ell]))
            for backwards in (False, True):
                angle = float(rng.uniform(-math.pi, math.pi))
                got = monodromy._frames(levels, k, angle, backwards)
                assert got.shape == (k + 1, 2)
                assert np.abs(got - _oracle_frames(v, ell, angle, backwards)).max() <= 1e-11
                assert np.abs(np.hypot(*got.T) - 1.0).max() <= 4.0 * np.finfo(float).eps

    def test_summary_hands_out_the_frames_of_its_tree(self):
        """_branch_at's frame reader is _frames on the tree the class was read from, and its
        direction reader gives fixed_directions(polygon_monodromy) angle for angle."""
        v, L = circle_polygon(np.random.default_rng(0), 24, 0.02), 0.95
        _, count, direction, frames = monodromy._branch_at(v, L, bg.DEFAULT_TOL, False)
        dirs = bg.fixed_directions(bg.polygon_monodromy(v, L))
        levels, _ = monodromy._tree(v, np.array([L]))
        assert count == len(dirs) == 2
        for i, fd in enumerate(dirs):
            assert direction(i).angle == fd.angle
            assert frames(fd.angle, i > 0).tobytes() == monodromy._frames(levels, 24, fd.angle, i > 0).tobytes()


class TestTracePolynomial:
    def test_345_triangle_c2(self):
        tri = bg.Polygon([(0, 0), (3, 0), (0, 4)])
        poly = bg.trace_polynomial(tri)
        assert poly.coeffs[0] == 1.0
        assert abs(poly.coeffs[2] + 25.0) < 1e-10 * 25.0
        assert abs(poly.coeffs[1]) < 1e-12
        assert abs(poly.coeffs[3]) < 1e-12

    def test_square_free_term(self):
        s = 1.7
        sq = bg.Polygon([(0, 0), (s, 0), (s, s), (0, s)])
        poly = bg.trace_polynomial(sq)
        dirs = sq.side_directions()
        alt = dirs[0] - dirs[1] + dirs[2] - dirs[3]
        want = s**4 * math.cos(alt)
        assert abs(poly.coeffs[4] - want) < 1e-9 * max(1.0, abs(want))

    def test_matches_half_trace(self, rng):
        cases = [(v, lambda_grid(v, n=8)) for v in (random_polygon(rng) for _ in range(30))]
        # 200-gons; lengths past the diameter keep |Tr/2| >= 1, where the bound is relative
        cases += [(circle_polygon(rng, 200, noise), (0.95, 1.05, 1.2)) for noise in (0.0, 0.02)]
        for v, lengths in cases:
            poly = bg.trace_polynomial(v)
            for ell in lengths:
                m = bg.polygon_monodromy(v, ell)
                half_tr = 0.5 * m.trace
                assert abs(poly(ell) - half_tr) <= 1e-9 * max(1.0, abs(half_tr))

    def test_odd_coefficients_vanish(self, rng):
        for _ in range(100):
            v = random_polygon(rng)
            poly = bg.trace_polynomial(v)
            scale = max(1.0, float(v.side_lengths().max()) ** poly.degree)
            for j in range(1, poly.degree + 1, 2):
                assert abs(poly.coeffs[j]) <= 1e-9 * scale

    def test_even_gon_free_term(self, rng):
        for _ in range(100):
            k = 2 * int(rng.integers(2, 5))
            v = random_polygon(rng, k=k)
            poly = bg.trace_polynomial(v)
            a = v.side_lengths()
            dirs = v.side_directions()
            alt = float(np.sum(dirs * np.where(np.arange(k) % 2 == 0, 1.0, -1.0)))
            want = float(np.prod(a)) * math.cos(alt)
            assert abs(poly.coeffs[-1] - want) <= 1e-9 * max(1.0, float(np.prod(a)))


class TestDirectionStep:
    def test_zero_side(self, rng):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        assert np.allclose(direction_step(u, x, 0.0, 1.3), u, atol=1e-12)

    def test_riding_straight(self, rng):
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        out = direction_step(x, x, 0.7, 1.9)
        assert np.allclose(out, x, atol=1e-12)

    def test_pole(self):
        x = np.array([1.0, 0.0])
        with pytest.raises(bg.PoleAtEllEqualsA):
            direction_step(x, x, 1.0, 1.0)

    def test_agrees_with_bicycle_step(self, rng):
        for _ in range(100):
            v1, v2 = rng.normal(size=(2, 2)) * 2
            if np.linalg.norm(v2 - v1) < 0.05:
                continue
            ell = rng.uniform(0.3, 3.0)
            th = rng.uniform(0, 2 * math.pi)
            u = np.array([math.cos(th), math.sin(th)])
            w1 = v1 + ell * u
            if np.linalg.norm(w1 - v2) < 1e-3:
                continue
            w2 = bg.bicycle_step(v1, v2, w1)
            e = v2 - v1
            a = np.linalg.norm(e)
            got = direction_step(u, e / a, a, ell)
            assert np.linalg.norm(got - (w2 - v2) / ell) < 1e-10

    def test_unit_output(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            x = rng.normal(size=n)
            x /= np.linalg.norm(x)
            a, ell = rng.uniform(0.2, 2.0), rng.uniform(2.2, 4.0)
            out = direction_step(u, x, a, ell)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestLorentz:
    def test_zero_side_is_identity(self):
        m = bg.edge_lorentz(1.5, 0.0, np.array([0.0, 1.0, 0.0]))
        assert np.allclose(m.m, np.eye(4), atol=1e-15)

    def test_gram_identity_dims_2_to_5(self, rng):
        for n in (2, 3, 4, 5):
            for _ in range(25):
                x = rng.normal(size=n)
                x /= np.linalg.norm(x)
                a = rng.uniform(0.2, 2.0)
                ell = a + rng.uniform(0.1, 2.0)
                m = bg.edge_lorentz(ell, a, x)
                assert m.gram_defect() <= 1e-9

    def test_pole(self, rng):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        with pytest.raises(bg.PoleAtEllEqualsA):
            bg.edge_lorentz(1.0, 1.0, x)

    def test_action_matches_direction_step(self, rng):
        for n in (2, 3, 4, 5):
            for _ in range(25):
                x = rng.normal(size=n)
                x /= np.linalg.norm(x)
                u = rng.normal(size=n)
                u /= np.linalg.norm(u)
                a = rng.uniform(0.2, 2.0)
                ell = a + rng.uniform(0.1, 2.0)
                m = bg.edge_lorentz(ell, a, x)
                got = lorentz_action(m, u)
                want = direction_step(u, x, a, ell)
                assert np.linalg.norm(got - want) < 1e-10

    def test_identity_action(self, rng):
        m = bg.LorentzMatrix(np.eye(4))
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        assert np.allclose(lorentz_action(m, u), u, atol=1e-12)

    def test_butterfly_identity_in_space(self, rng):
        """The planar butterfly embedded in 3D acts trivially on every
        spatial test direction."""
        fly2 = random_butterfly(rng)
        emb = np.hstack([fly2.vertices, np.zeros((4, 1))])
        th = rng.uniform(0, 2 * math.pi)
        rot = np.array(
            [
                [1, 0, 0],
                [0, math.cos(th), -math.sin(th)],
                [0, math.sin(th), math.cos(th)],
            ]
        )
        fly = bg.Polygon(emb @ rot.T + rng.normal(size=3))
        m = bg.lorentz_monodromy(fly, 1.3)
        for _ in range(20):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            assert np.linalg.norm(lorentz_action(m, u) - u) < 1e-9

    def test_products_stay_lorentz(self, rng):
        done = 0
        while done < 20:
            v = random_polygon(rng, k=5, dim=3)
            ell = 0.8 * float(v.side_lengths().mean())
            # stay away from the poles so the entries keep desk scale
            if any(abs(ell - a) < 0.15 * max(ell, a) for a in v.side_lengths()):
                continue
            assert bg.lorentz_monodromy(v, ell).gram_defect() <= 1e-9
            done += 1

    def test_3d_conjugacy_invariants(self, rng):
        """Spatial pairs share the characteristic polynomial of the Lorentz
        monodromy at every spectral parameter."""
        from conftest import propagated_pair_3d

        for _ in range(5):
            v, w, _L = propagated_pair_3d(rng)
            for lam in lambda_grid(v, n=8):
                try:
                    cv = np.poly(bg.lorentz_monodromy(v, lam).m)
                    cw = np.poly(bg.lorentz_monodromy(w, lam).m)
                except bg.GeometryError:
                    continue
                assert np.abs(cv - cw).max() <= 1e-7 * max(1.0, np.abs(cv).max())


class TestLengthRange:
    """A length parameter outside 0 < L < inf is refused with a ValueError
    naming it, before any side tree is built: NaN used to surface as a zero
    frame or an underflow, inf as a RuntimeWarning from the tree's matmul,
    and a scan to NaN returned NaN-length points; discriminant gave 16.0 for
    the square at -1 and 0.0, a parabolic boundary, at 0."""

    BAD = [math.nan, math.inf, -math.inf, 0.0, -1.0]

    @pytest.mark.parametrize("ell", BAD, ids=repr)
    def test_refused_before_any_tree(self, monkeypatch, ell):
        def no_tree(v, ells):
            raise AssertionError("a side tree was built")

        monkeypatch.setattr(monodromy, "_tree", no_tree)
        calls = [
            lambda: bg.transform(SQUARE, ell),
            lambda: bg.transform(SQUARE, ell, bg.Branch.REPELLING),
            lambda: bg.polygon_monodromy(SQUARE, ell),
            lambda: bg.discriminant(SQUARE, ell),
            lambda: bg.lorentz_monodromy(SQUARE, ell),
            lambda: bg.dynamics._seeded_companion(SQUARE, ell, np.array([0.0, 0.5]), bg.DEFAULT_TOL),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"positive and finite, got {ell!r}")):
                call()

    @pytest.mark.parametrize("ell", BAD, ids=repr)
    def test_edge_lorentz_length(self, ell):
        """NaN used to give a NaN matrix and inf a pole at ell = a."""
        with pytest.raises(ValueError, match=re.escape(f"length parameter must be positive and finite, got {ell!r}")):
            bg.edge_lorentz(ell, 1.0, [1.0, 0.0])

    @pytest.mark.parametrize("a", [math.nan, math.inf, -1.0], ids=repr)
    def test_edge_lorentz_side_length(self, a):
        """A NaN side length used to give a NaN matrix; 0 stays allowed."""
        with pytest.raises(ValueError, match=re.escape(f"side length must be nonnegative and finite, got {a!r}")):
            bg.edge_lorentz(1.0, a, [1.0, 0.0])
        assert bg.edge_lorentz(1.0, 0.0, [1.0, 0.0]).m.tolist() == np.eye(3).tolist()

    @pytest.mark.parametrize("lmin, lmax", [(0.1, math.nan), (math.nan, 2.0), (0.1, math.inf), (-0.1, 2.0), (2.0, 0.1)])
    def test_scan_and_refine_ranges(self, lmin, lmax):
        named = re.escape(f"got lmin={lmin!r} lmax={lmax!r}")
        with pytest.raises(ValueError, match=named):
            bg.classification_scan(SQUARE, lmin, lmax, 4)
        with pytest.raises(ValueError, match=named):
            bg.refine_class_boundaries(SQUARE, lmin, lmax, 4)
        assert len(bg.classification_scan(SQUARE, 1e-300, 1e300, 3)) == 3  # any finite range passes

    @pytest.mark.parametrize("steps", [1, 0, 3.5, 4.0], ids=repr)
    def test_scan_and_refine_steps(self, steps):
        """The grid check names steps: too few or not an integer (3.5 used to
        raise numpy's TypeError from linspace, 1 to name lmin and lmax only)."""
        named = re.escape(f"got lmin=0.5 lmax=2 steps={steps!r}")
        with pytest.raises(ValueError, match=named):
            bg.classification_scan(SQUARE, 0.5, 2, steps)
        with pytest.raises(ValueError, match=named):
            bg.refine_class_boundaries(SQUARE, 0.5, 2, steps)


class TestScan:
    def test_discriminant_needs_a_plane_polygon(self):
        with pytest.raises(bg.DimensionMismatch):
            bg.discriminant(bg.Polygon(np.random.default_rng(0).normal(size=(5, 3))), 1.0)

    def test_refine_class_boundaries_needs_a_plane_polygon(self):
        with pytest.raises(bg.DimensionMismatch):
            bg.refine_class_boundaries(bg.Polygon(np.random.default_rng(0).normal(size=(5, 3))), 0.5, 2.0)

    def test_square_boundary_bisection(self):
        roots = bg.refine_class_boundaries(SQUARE, 1.05, 2.2, steps=64)
        assert len(roots) == 1
        assert abs(roots[0] - math.sqrt(2)) < 1e-10

    def test_scan_grid_classes(self):
        points = bg.classification_scan(SQUARE, 1.05, 2.2, 24)
        for p in points:
            want = (
                bg.MonodromyClass.HYPERBOLIC if p.ell < math.sqrt(2) else bg.MonodromyClass.ELLIPTIC
            )
            if abs(p.ell - math.sqrt(2)) > 1e-6:
                assert p.klass is want

    def test_scan_matches_scalar_path(self, rng):
        cases = []
        for _ in range(12):
            v = random_polygon(rng, k=int(rng.integers(4, 30)))
            cases.append((v, 0.1 * float(v.side_lengths().min()), 0.6 * v.perimeter(), 40))
        # the k = 2000 grid spans two blocks of the batched product
        cases += [(circle_polygon(rng, 200, noise=0.02), 0.5, 1.2, 30), (circle_polygon(rng, 2000), 0.9, 1.05, 40)]
        for v, lmin, lmax, steps in cases:
            for p in bg.classification_scan(v, lmin, lmax, steps):
                mob = bg.polygon_monodromy(v, p.ell)
                klass = bg.classify(mob)
                derivs = None
                if klass in (bg.MonodromyClass.HYPERBOLIC, bg.MonodromyClass.PARABOLIC):
                    derivs = tuple(fd.derivative for fd in bg.fixed_directions(mob))
                assert (p.klass, p.invariant, p.derivatives) == (klass, mob.trace_sq_over_det(), derivs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scan_is_exactly_scale_free(self):
        """A power-of-two scale multiplies every side matrix exactly; the raw
        product leaves the double range, the scan's answers do not change a bit."""
        scale = 2.0**500
        big = bg.Polygon(SQUARE.vertices * scale)
        small = bg.classification_scan(SQUARE, 0.05, 3.0, 40)
        large = bg.classification_scan(big, 0.05 * scale, 3.0 * scale, 40)
        assert [(p.ell * scale, p.klass, p.invariant, p.derivatives) for p in small] == [
            (p.ell, p.klass, p.invariant, p.derivatives) for p in large
        ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scan_at_lengths_past_the_square_root_of_the_double_range(self):
        """Side matrices with entries near 2^600: their raw products overflow at
        once; the rescaled product is the identity a closed polygon tends to."""
        points = bg.classification_scan(SQUARE, 2.0**600, 2.0**601, 3)
        assert [p.klass for p in points] == [bg.MonodromyClass.IDENTITY] * 3

    def test_scan_nudges_grid_point_off_pole(self):
        points = bg.classification_scan(SQUARE, 0.5, 1.5, 3)
        assert [p.ell for p in points] == [0.5, 1.0 + 1e-6 * 0.5, 1.5]
        points = bg.classification_scan(TRIANGLE_345, 2.0, 5.0, 4)
        assert [p.ell for p in points] == [2.0, 3.0 + 1e-6, 4.0 + 1e-6, 5.0 + 1e-6]

    def test_refine_matches_scalar_bisection(self, rng):
        """Every boundary within 1e-13 relative of one-ulp scalar bisection of
        the raw discriminant's sign (measured: 2.0e-14 over 980 boundaries of
        the survey and the D9 recipe)."""
        cases = [(SQUARE, 0.2, 3.0, 64)]
        for _ in range(12):
            v = random_polygon(rng, k=int(rng.integers(4, 30)))
            cases.append((v, 0.1 * float(v.side_lengths().min()), 0.6 * v.perimeter(), 48))
        found = 0
        for v, lmin, lmax, steps in cases:
            roots = bg.refine_class_boundaries(v, lmin, lmax, steps=steps)
            want = bisected_boundaries(v, lmin, lmax, steps)
            assert len(roots) == len(want)
            assert all(abs(x - y) <= 1e-13 * y for x, y in zip(roots, want))
            found += len(roots)
        assert found >= 12

    def test_one_kernel_call_per_grid_and_search_round(self, monkeypatch):
        """One batched product per grid and per round of the search: the
        square's boundary takes six rounds (bisection to 1e-10 took 30)."""
        sizes = []
        real = monodromy._monodromy_product

        def counted(v, ells):
            sizes.append(len(ells))
            return real(v, ells)

        monkeypatch.setattr(monodromy, "_monodromy_product", counted)
        bg.classification_scan(SQUARE, 0.2, 3.0, 40)
        assert sizes == [40]
        sizes.clear()
        assert bg.refine_class_boundaries(SQUARE, 0.2, 3.0, steps=40) == [1.4142135623730947]
        assert sizes == [40, 1, 1, 1, 1, 1, 1]

    def test_refine_stops_at_one_ulp(self):
        """No tolerance knob: the search stops when its bracket is about one
        ulp wide; on a 64-point grid over [0.2, 3] it lands on sqrt(2)."""
        roots = bg.refine_class_boundaries(SQUARE, 1.05, 2.2)
        assert len(roots) == 1 and abs(roots[0] - math.sqrt(2)) <= math.ulp(math.sqrt(2))
        assert bg.refine_class_boundaries(SQUARE, 0.2, 3.0) == [math.sqrt(2)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("call", ["discriminant", "polygon_monodromy"])
    def test_overflowing_product_raises_without_warnings(self, call):
        """ROADMAP overflow recipe at k = 500: the raw discriminant leaves the
        double range and raises ValueError naming the length.  The monodromy
        is the side tree's root, elliptic as the reference says; only its raw
        entries raise, naming their log2 scale.  The overflow warns nobody."""
        v, L = overflow_recipe(500)
        if call == "discriminant":
            with pytest.raises(ValueError, match=re.escape(f"discriminant is not finite at length {L!r}")):
                bg.discriminant(v, L)
            return
        mob = bg.polygon_monodromy(v, L)
        assert bg.classify(mob) is bg.MonodromyClass.ELLIPTIC
        for raw in (lambda: mob.m, lambda: mob.trace):
            with pytest.raises(ValueError, match=re.escape("monodromy entries overflow: log2 scale 2516")):
                raw()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_discriminant_overflow_of_finite_product(self):
        """The same recipe at k = 200: the product is finite, its discriminant
        is not; ValueError, again without a warning."""
        v = bg.Polygon(np.random.default_rng(2).normal(size=(200, 2)) * 2)
        L = 3.0 * float(v.side_lengths().max())
        assert np.isfinite(bg.polygon_monodromy(v, L).m).all()
        with pytest.raises(ValueError, match=re.escape(f"discriminant is not finite at length {L!r}")):
            bg.discriminant(v, L)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_discriminant_underflow_raises(self):
        """A k = 2000 circle at L = 0.5: the rescaled product is hyperbolic
        (exponent -1992) and its raw discriminant is below the double range;
        ValueError naming the length, not 0.0 (a parabolic boundary)."""
        v = circle_polygon(np.random.default_rng(0), 2000)
        assert bg.classification_scan(v, 0.5, 0.6, 2)[0].klass is bg.MonodromyClass.HYPERBOLIC
        with pytest.raises(ValueError, match=re.escape("discriminant underflows at length 0.5")):
            bg.discriminant(v, 0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_monodromy_underflow_raises(self):
        """The same case through polygon_monodromy: the value exists and is
        hyperbolic; its raw entries raise, naming their log2 scale, not the
        zero-matrix error of an all-zero product."""
        mob = bg.polygon_monodromy(circle_polygon(np.random.default_rng(0), 2000), 0.5)
        assert bg.classify(mob) is bg.MonodromyClass.HYPERBOLIC
        assert [fd.derivative > 1.0 for fd in bg.fixed_directions(mob)] == [False, True]
        with pytest.raises(ValueError, match=re.escape("monodromy entries underflow: log2 scale -1992")):
            mob.m

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case, word", [("circle", "underflow"), ("overflow", "overflow")])
    def test_monodromy_errors_name_a_numpy_length_as_a_float(self, case, word):
        """A numpy length gives the value the plain float it holds gives, and
        the raw entries' error names their log2 scale."""
        if case == "circle":
            v, L, klass, e = circle_polygon(np.random.default_rng(0), 2000), 0.5, bg.MonodromyClass.HYPERBOLIC, -1992
        else:
            (v, L), klass, e = overflow_recipe(500), bg.MonodromyClass.ELLIPTIC, 2516
        mob, plain = bg.polygon_monodromy(v, np.float64(L)), bg.polygon_monodromy(v, L)
        assert (mob.row, mob.e, mob.log2det) == (plain.row, plain.e, plain.log2det)
        assert bg.classify(mob) is klass
        with pytest.raises(ValueError, match=re.escape(f"monodromy entries {word}: log2 scale {e}")):
            mob.m

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case, word", [("circle", "under"), ("overflow", "over")])
    def test_det_raises_where_the_entries_do(self, case, word):
        """det used to read inf on the overflow recipe at k = 500 and 0.0 on the
        k = 2000 circle at L = 0.5; like the raw entries it raises, naming the
        log2 scale, and the scale-free log2det stays finite."""
        if case == "circle":
            (v, L), e = (circle_polygon(np.random.default_rng(0), 2000), 0.5), -1992
        else:
            (v, L), e = overflow_recipe(500), 2516
        mob = bg.polygon_monodromy(v, L)
        assert math.isfinite(mob.log2det[1])
        with pytest.raises(ValueError, match=re.escape(f"monodromy determinant {word}flows: log2 scale {e}")):
            mob.det

    def test_refine_rejects_non_finite_midpoint(self, monkeypatch):
        real = monodromy._monodromy_product

        def poisoned(v, ells):  # finite on the grid, NaN at every midpoint
            if len(ells) == 64:
                return real(v, ells)
            return np.full((len(ells), 2, 2), np.nan), np.zeros(len(ells), int)

        monkeypatch.setattr(monodromy, "_monodromy_product", poisoned)
        grid = np.linspace(1.05, 2.2, 64)
        i = int(np.searchsorted(grid, math.sqrt(2)))
        mid = float(0.5 * (grid[i - 1] + grid[i]))
        with pytest.raises(ValueError, match=re.escape(f"not finite at length {mid!r}")):
            bg.refine_class_boundaries(SQUARE, 1.05, 2.2, steps=64)

    @pytest.mark.parametrize(
        "lmin, lmax, steps",
        [(0.0, 2.0, 64), (-1.0, 2.0, 64), (2.0, 2.0, 64), (2.0, 1.0, 64), (1.0, 2.0, 1)],
        ids=["lmin-zero", "lmin-negative", "empty-range", "reversed-range", "one-step"],
    )
    def test_refine_rejects_bad_arguments(self, lmin, lmax, steps):
        with pytest.raises(ValueError):
            bg.refine_class_boundaries(SQUARE, lmin, lmax, steps=steps)


# survey cases that the old singularity rule |det| <= eps_geom s^2 called DEGENERATE
# (eigenvalue ratios 1e-8 to 1e-11); the 50-digit reference calls them hyperbolic
SURVEY_STRONGLY_HYPERBOLIC = (18, 58, 63, 71, 205, 259, 296)


# draws of generic_200gons whose rescaled product has a d - b c rounding to 0.0,
# which made them DEGENERATE before the determinant was taken from the sides
GENERIC_200GONS_DET_ROUNDED_TO_ZERO = (8, 9, 20, 21, 22, 25, 26, 28)


class TestAgainstReference:
    """Regression checks against the benchmark's 50-digit reference."""

    @pytest.mark.parametrize("index", GENERIC_200GONS_DET_ROUNDED_TO_ZERO)
    def test_exact_determinant_of_strongly_hyperbolic_product(self, index):
        """classify, the scan and transform call these hyperbolic, with both
        derivatives within 1e-12 of the reference in log10 (worst measured
        over the 30 draws: 3.2e-13)."""
        v, L = generic_200gons()[index]
        r = bench_reference().classify(v.vertices, L)
        assert r.klass == "hyperbolic"
        mob = bg.polygon_monodromy(v, L)
        assert bg.classify(mob) is bg.MonodromyClass.HYPERBOLIC
        derivs = tuple(fd.derivative for fd in bg.fixed_directions(mob))
        for got, want in zip(derivs, (r.attracting.log10_deriv, r.repelling.log10_deriv)):
            assert abs(math.log10(abs(got)) - want) <= 1e-12
        point = bg.classification_scan(v, L, 2.0 * L, 2)[0]
        assert (point.klass, point.derivatives) == (bg.MonodromyClass.HYPERBOLIC, derivs)
        for branch in bg.Branch:
            assert bg.correspondence_check(v, bg.transform(v, L, branch))

    def test_polygon_monodromy_det_is_the_side_product(self):
        """det of a polygon's monodromy is prod (L^2 - a^2), not a d - b c of
        its entries; checked on the survey against the reference's det."""
        ref = bench_reference()
        for v, L in survey_cases()[:60]:
            want = float(ref.monodromy(v.vertices, L)[4])
            assert abs(bg.polygon_monodromy(v, L).det - want) <= 1e-13 * abs(want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [150, 200, 500])
    def test_overflow_recipe_is_elliptic(self, k):
        ref = bench_reference()
        v, L = overflow_recipe(k)
        assert ref.classify(v.vertices, L).klass == "elliptic"
        points = bg.classification_scan(v, 0.9 * L, 1.1 * L, 5)
        assert [p.klass.value for p in points] == [ref.classify(v.vertices, p.ell).klass for p in points]
        with pytest.raises(bg.EllipticMonodromy):
            bg.transform(v, L)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [150, 200])
    def test_trace_sq_over_det_of_huge_product(self, k):
        """Entries near 1e209 (k = 150) and 1e281 (k = 200): Tr^2 and det
        overflow when taken from the raw entries."""
        v, L = overflow_recipe(k)
        m00, _, _, m11, det = bench_reference().monodromy(v.vertices, L)
        want = float((m00 + m11) ** 2 / det)
        assert abs(bg.polygon_monodromy(v, L).trace_sq_over_det() - want) <= 1e-12 * abs(want)

    def test_survey_classes(self):
        ref = bench_reference()
        decided = 0
        for v, L in survey_cases():
            want = ref.classify(v.vertices, L).klass
            if want != "undecided":
                decided += 1
                assert bg.classify(bg.polygon_monodromy(v, L)).value == want
        assert decided == 300

    @pytest.mark.parametrize("index", SURVEY_STRONGLY_HYPERBOLIC)
    def test_strongly_hyperbolic_survey_case(self, index):
        v, L = survey_cases()[index]
        assert bench_reference().classify(v.vertices, L).klass == "hyperbolic"
        assert bg.classify(bg.polygon_monodromy(v, L)) is bg.MonodromyClass.HYPERBOLIC
        assert bg.correspondence_check(v, bg.transform(v, L))

    def test_square_scan_has_no_degenerate_label(self):
        """Near the pole at 1 the square's monodromy is strongly hyperbolic."""
        ref = bench_reference()
        points = bg.classification_scan(SQUARE, 0.05, 3.0, 1000)
        assert all(p.klass is not bg.MonodromyClass.DEGENERATE for p in points)
        near = [p for p in points if abs(p.ell - 1.0) < 0.006]
        assert len(near) == 4
        for p in near:
            assert (p.klass.value, ref.classify(SQUARE.vertices, p.ell).klass) == ("hyperbolic", "hyperbolic")
