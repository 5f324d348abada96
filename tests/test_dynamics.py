"""Propagation, the closed transformation, recutting, permutability,
and the frame-angle difference equation."""

import math

import numpy as np
import pytest

import bicyclegeom as bg
from bicyclegeom import dynamics, geometry, monodromy

from conftest import (
    LARGE_CIRCLES,
    bench_reference,
    circle_polygon,
    congruent,
    generic_200gons,
    hyperbolic_length,
    polygon_scale,
    propagated_pair_3d,
    random_butterfly,
    random_cyclic_convex,
    random_hyperbolic_pair,
    random_polygon,
    survey_cases,
)
from oracles import proj_distance, reflect_in_line

# survey cases whose REPELLING closing defect under forward propagation (8.8e-9
# to 5.8e-8) lies between correspondence_check's step bound eps max(L, max side)
# and eps perimeter
SURVEY_CLOSING_BETWEEN_BOUNDS = (27, 47, 58, 124, 259, 266, 293)


class TestPropagate:
    def test_chord_rotation_seed_closes(self, rng):
        v = random_cyclic_convex(rng, k=6)
        info = bg.classify_cyclic(v)
        L = 0.6 * info.diameter
        w = bg.rotation_transform(v, L)
        res = bg.propagate(v, w.vertex(0))
        assert res.closure_defect < 1e-9 * v.perimeter()

    def test_generic_seed_does_not_close(self, rng):
        v, w, L = random_hyperbolic_pair(rng)
        th = rng.uniform(0, 2 * math.pi)
        seed = v.vertex(0) + L * np.array([math.cos(th), math.sin(th)])
        defects = [bg.propagate(v, seed).closure_defect]
        assert max(defects) > 1e-6 or np.linalg.norm(seed - w.vertex(0)) < 1e-6

    def test_butterfly_closes_from_every_seed(self, rng):
        fly = random_butterfly(rng)
        for _ in range(10):
            th = rng.uniform(0, 2 * math.pi)
            L = rng.uniform(0.3, 3.0)
            seed = fly.vertex(0) + L * np.array([math.cos(th), math.sin(th)])
            res = bg.propagate(fly, seed)
            assert res.closure_defect < 1e-9 * fly.perimeter()

    def test_trapezoid_identities_along_the_way(self, rng):
        v, w, L = random_hyperbolic_pair(rng, k=5)
        res = bg.propagate(v, w.vertex(0))
        pts = res.points
        for i in range(len(v)):
            assert abs(np.linalg.norm(pts[i + 1] - pts[i]) - v.side_lengths()[i]) < 1e-9
            assert abs(np.linalg.norm(pts[i] - v.vertex(i)) - L) < 1e-9

    def test_closure_defect_linear_in_seed_perturbation(self, rng):
        """Rotating the fixed seed direction by delta leaves a closure defect
        of L |lambda - 1| delta to first order, lambda the branch eigenvalue."""
        v, w, L = random_hyperbolic_pair(rng, k=5)
        mob = bg.polygon_monodromy(v, L)
        lam = bg.fixed_directions(mob)[0].derivative
        shift = w.vertex(0) - v.vertex(0)
        alpha = math.atan2(shift[1], shift[0])
        slopes = []
        for delta in (1e-6, 1e-5, 1e-4):
            seed = v.vertex(0) + L * np.array([math.cos(alpha + delta), math.sin(alpha + delta)])
            slopes.append(bg.propagate(v, seed).closure_defect / delta)
        want = L * abs(lam - 1.0)
        for slope in slopes:
            assert abs(slope - want) < 2e-3 * want

    @pytest.mark.parametrize("k, noise, L", LARGE_CIRCLES)
    def test_large_matches_reflection_loop(self, rng, k, noise, L):
        """From each branch's seed, the trace agrees with two loops: the
        bisector reflection W_{i+1} = reflection of V_i in the bisector of
        V_{i+1} W_i, and the paper's line form, the reflection of
        W_i + (V_{i+1} - V_i) in the line through W_i and V_{i+1}."""
        v = circle_polygon(rng, k, noise)
        dirs = bg.fixed_directions(bg.polygon_monodromy(v, L))
        for fd in (dirs[0], dirs[-1]):
            want = [v.vertex(0) + L * np.array([math.cos(fd.angle), math.sin(fd.angle)])]
            line = [want[0]]
            for i in range(k):
                want.append(bg.perp_bisector_reflect(v.vertex(i), v.vertex(i + 1), want[-1]))
                side = v.vertex(i + 1) - v.vertex(i)
                line.append(reflect_in_line(line[-1] + side, line[-1], v.vertex(i + 1)))
            got = bg.propagate(v, want[0]).points
            assert np.abs(got - np.array(want)).max() <= 1e-11
            assert np.abs(got - np.array(line)).max() <= 1e-11

    def test_degenerate_first_step(self):
        """Seeding at V_1 puts W_0 on V_1: the first step has no bisector."""
        sq = bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(bg.DegenerateLine):
            bg.propagate(sq, sq.vertex(1))

    def test_degenerate_mid_loop_step(self):
        """A seed built backwards from W_3 = V_4 reaches a step with no
        bisector after three good ones."""
        v = bg.Polygon([(0, 0), (2, 0), (2.5, 1.5), (1, 2.5), (-0.5, 1)])
        ws = [v.vertex(4)]
        for i in (3, 2, 1):
            ws.insert(0, bg.bicycle_step(v.vertex(i), v.vertex(i - 1), ws[0]))
        assert min(np.linalg.norm(ws[i] - v.vertex(i + 1)) for i in range(3)) > 0.1
        with pytest.raises(bg.DegenerateLine):
            bg.propagate(v, ws[0])


class TestTransform:
    def test_equilateral_triangle_is_rotation(self):
        tri = bg.Polygon([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
        center = np.array([0.5, math.sqrt(3) / 6])
        w = bg.transform(tri, 0.9)
        assert np.abs(np.linalg.norm(w.vertices - center, axis=1) - math.sqrt(1 / 3)).max() < 1e-9

    def test_rhombus_goes_to_congruent_rhombus(self):
        rho = bg.Polygon([(2, 0), (0, 1), (-2, 0), (0, -1)])
        L = hyperbolic_length(rho, None)
        w = bg.transform(rho, L)
        assert congruent(rho, w, tol=1e-9)

    def test_round_trip_attracting_then_repelling(self, rng):
        for _ in range(10):
            v, w, L = random_hyperbolic_pair(rng)
            back = bg.transform(w, L, bg.Branch.REPELLING)
            assert np.abs(back.vertices - v.vertices).max() < 1e-8 * v.perimeter()

    def test_elliptic_raises(self):
        sq = bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(bg.EllipticMonodromy):
            bg.transform(sq, 2.0)

    def test_butterfly_raises_identity(self, rng):
        fly = random_butterfly(rng)
        with pytest.raises(bg.DegenerateMonodromy):
            bg.transform(fly, 1.1)

    def test_perimeter_and_sides_preserved(self, rng):
        v, w, _L = random_hyperbolic_pair(rng, k=6)
        assert np.abs(v.side_lengths() - w.side_lengths()).max() < 1e-9 * v.perimeter()


class TestClosureRule:
    """transform checks every step against the bound correspondence_check puts
    on it, so whatever it returns is a pair under the same tol; each branch is
    computed in its contracting direction, so it closes."""

    def test_every_survey_companion_is_a_pair(self):
        ref = bench_reference()
        returned = 0
        for v, L in survey_cases():
            if ref.classify(v.vertices, L).klass != "hyperbolic":
                continue
            for branch in bg.Branch:
                assert bg.correspondence_check(v, bg.transform(v, L, branch))
                returned += 1
        assert returned == 2 * 275

    @pytest.mark.parametrize("k, noise, L", LARGE_CIRCLES)
    def test_large_circle_companions_are_pairs(self, rng, k, noise, L):
        v = circle_polygon(rng, k, noise)
        for branch in bg.Branch:
            assert bg.correspondence_check(v, bg.transform(v, L, branch))

    @pytest.mark.parametrize("index", SURVEY_CLOSING_BETWEEN_BOUNDS)
    def test_defect_between_old_and_step_bound_fails(self, index):
        """Forward propagation from the repelling seed closes to within the old
        bound eps perimeter, and that polygon fails correspondence_check; the
        backward scan of transform returns a pair."""
        v, L = survey_cases()[index]
        fd = bg.fixed_directions(bg.polygon_monodromy(v, L))[-1]
        seed = v.vertex(0) + L * np.array([math.cos(fd.angle), math.sin(fd.angle)])
        res = bg.propagate(v, seed)
        eps = bg.DEFAULT_TOL.eps_geom
        assert eps * max(L, v.side_lengths().max()) < res.closure_defect <= eps * v.perimeter()
        assert not bg.correspondence_check(v, res.closed_polygon())
        assert bg.correspondence_check(v, bg.transform(v, L, bg.Branch.REPELLING))


def _closing_frames(monkeypatch, cases):
    """(at, w, bound) of every closing check transform runs on the cases,
    both branches."""
    seen = []
    real = dynamics._closing_check

    def record(at, w, bound, tol):
        seen.append((at.copy(), w.copy(), bound))
        return real(at, w, bound, tol)

    monkeypatch.setattr(dynamics, "_closing_check", record)
    for v, L in cases:
        for branch in bg.Branch:
            try:
                bg.transform(v, L, branch)
            except bg.GeometryError:
                pass
    monkeypatch.undo()
    return seen


def _closing_oracle(at, w):
    """_coincident's mask over the rows (V_{i+1}, W_i) and the misses from
    _bisector_reflect: the closing check as _companion spelled it before."""
    with np.errstate(divide="ignore", invalid="ignore"):
        miss = w[1:] - geometry._bisector_reflect(at[:-2], at[1:-1], w[:-1])
    return geometry._coincident(at[1:], w, bg.DEFAULT_TOL), np.sqrt(geometry._dot(miss, miss))


def _closing_raises(at, w):
    """The error _closing_check raises with no closure bound, or None."""
    try:
        dynamics._closing_check(at, w, math.inf, bg.DEFAULT_TOL)
    except bg.GeometryError as exc:
        return type(exc)
    return None


class TestClosingCheck:
    """_companion's closing check runs in one pass of column dots, the
    bisector normal W_i - V_{i+1} formed once for the coincidence rule and
    the reflection residual; _coincident and _bisector_reflect are its oracle.
    The rule runs row by row only when the shortest normal fails a bound on
    every row's radius, so a flagged row must never pass that bound."""

    ULPS = 4  # worst measured 2.4 ulps of max(L, longest side) on the three case sets

    def test_matches_the_oracle_on_the_case_sets(self, monkeypatch):
        """On the survey, the generic 200-gons and LARGE_CIRCLES, both
        branches: no row is flagged where _coincident flags none, and every
        step's miss is _bisector_reflect's to within a few ulps of the scale
        the closure bound is taken from."""
        circles = [(circle_polygon(np.random.default_rng(1), k, noise), L) for k, noise, L in LARGE_CIRCLES]
        frames = _closing_frames(monkeypatch, survey_cases() + generic_200gons() + circles)
        assert len(frames) == 626
        for at, w, bound in frames:
            flags, want = _closing_oracle(at, w)
            assert not flags.any()
            got = geometry._norm(dynamics._closing_check(at, w, math.inf, bg.DEFAULT_TOL))
            scale = bound / bg.DEFAULT_TOL.eps_geom
            assert np.abs(got - want).max() <= self.ULPS * np.finfo(float).eps * scale

    def test_flags_the_rows_the_oracle_flags(self, monkeypatch):
        """One frame point at a time is moved onto, just inside, exactly on
        and just outside the coincidence radius eps_geom max(|V|, |W|) of
        its V_{i+1} (the last row is the seed frame's): the check raises
        DegenerateLine exactly where _coincident flags that row, on frames
        as transform makes them, moved 1e6 from the origin and scaled by
        2**-30 (where a radius floored at eps_geom would miss every row)."""
        frames = _closing_frames(monkeypatch, survey_cases()[:60] + generic_200gons()[:4])
        rng = np.random.default_rng(21)
        outcomes = set()
        frames += [(at + 1e6, w + 1e6, bound) for at, w, bound in frames[::8]] + [
            (np.ldexp(at, -30), np.ldexp(w, -30), math.ldexp(bound, -30)) for at, w, bound in frames[::8]
        ]
        for at, w, _ in frames:
            k = len(w) - 1
            for i in (0, int(rng.integers(1, k)), k):
                u = rng.normal(size=2)
                u /= np.linalg.norm(u)
                radius = bg.DEFAULT_TOL.eps_geom * max(np.linalg.norm(at[i + 1]), np.linalg.norm(w[i]))
                for factor in (0.0, 0.5, 1.0, 1.0 + 1e-15, 2.0):
                    moved = w.copy()
                    moved[i] = at[i + 1] + factor * radius * u
                    flagged = bool(_closing_oracle(at, moved)[0].any())
                    assert _closing_raises(at, moved) is (bg.DegenerateLine if flagged else None)
                    outcomes.add((factor, flagged))
        assert {(0.0, True), (0.5, True), (2.0, False)} <= outcomes

    def _frames(self):
        """A survey companion's frames W_0 ... W_k over V_0 ... V_{k-1}, V_0, V_0,
        and its closure bound."""
        v, L = survey_cases()[3]
        t = bg.transform(v, L).vertices
        at = np.concatenate([v.vertices, v.vertices[:1], v.vertices[:1]])
        return at, np.concatenate([t, t[:1]]), dynamics._closure_bound(v, L, bg.DEFAULT_TOL)

    def test_hand_built_frames(self):
        at, w, bound = self._frames()
        assert geometry._norm(dynamics._closing_check(at, w, bound, bg.DEFAULT_TOL)).max() <= bound
        nan_row, on_vertex, zero_seed_frame = w.copy(), w.copy(), w.copy()
        nan_row[3, 1] = np.nan
        on_vertex[2] = at[3]  # W_2 on V_3: step 2 has no bisector
        zero_seed_frame[-1] = at[-1]  # W_k on V_0
        for bad in (nan_row, on_vertex, zero_seed_frame):
            with np.errstate(invalid="ignore"):
                assert _closing_oracle(at, bad)[0].any()
            with pytest.raises(bg.DegenerateLine, match="zero frame segment or reflection axis"):
                dynamics._closing_check(at, bad, bound, bg.DEFAULT_TOL)

    def test_one_step_past_the_bound(self):
        """W_4 moved by a quarter of the bound passes; moved by three bounds
        it misses step 3's reflection by more than the bound."""
        at, w, bound = self._frames()
        u = np.array([0.6, 0.8])
        for factor, fails in ((0.25, False), (3.0, True)):
            moved = w.copy()
            moved[4] += factor * bound * u
            assert bool(_closing_oracle(at, moved)[1].max() > bound) is fails
            if fails:
                with pytest.raises(bg.ClosureFailure, match="companion step misses by"):
                    dynamics._closing_check(at, moved, bound, bg.DEFAULT_TOL)
            else:
                assert geometry._norm(dynamics._closing_check(at, moved, bound, bg.DEFAULT_TOL)).max() <= bound

    def test_space_frames_use_the_dimension_bound(self):
        """In R^3 |V|^2 reaches 3 top^2.  A normal W_0 - V_1 of 1.6 eps top,
        with |V_1| ~ |W_0| ~ sqrt(3) top, is coincident by _coincident's rule;
        a radius bound of 2 top^2 would wave it through."""
        eps = bg.DEFAULT_TOL.eps_geom
        at = np.array([(0, 0, 0), (1, 1, 1), (1, 0, 0), (0, 0, 0), (0, 0, 0)], dtype=float)
        w = np.array([at[1] + 1.6 * eps * np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0), (0, 1, 0), (0, 0, 1), (0, 0, 0)])
        w[-1] = w[0]
        normal = np.linalg.norm(w[0] - at[1])
        top = np.abs(w).max()
        assert 2.0 * (eps * top) ** 2 < normal**2 < 3.0 * (eps * top) ** 2
        assert _closing_oracle(at, w)[0][0]
        with pytest.raises(bg.DegenerateLine):
            dynamics._closing_check(at, w, math.inf, bg.DEFAULT_TOL)


def _reversed(pts):
    """V_0, V_{k-1}, ..., V_1: the same polygon traversed the other way."""
    return np.roll(pts[::-1], 1, axis=0)


def _contracting_loop(v, w0, branch):
    """The trace of propagate from W_0 in the branch's contracting direction:
    forwards on the attracting branch, on the reversed polygon (relabelled
    back) on the repelling one; and the closing defect."""
    if branch is bg.Branch.ATTRACTING:
        res = bg.propagate(v, w0)
        return res.points[:-1], res.closure_defect
    res = bg.propagate(bg.Polygon(_reversed(v.vertices)), w0)
    return _reversed(res.points[:-1]), res.closure_defect


class TestCompanionScan:
    """transform's companion is one down-sweep of the side tree that gives
    its class and fixed direction, each level two column multiply-adds; the
    repelling branch is swept backwards, carrying J h through transposes,
    which is the adjugate step.  The reflection loop and the 50-digit
    reference are its oracles."""

    @pytest.mark.parametrize("k, noise, L", LARGE_CIRCLES)
    def test_large_circles_match_reference_propagation(self, rng, k, noise, L):
        """50-digit propagation from the reference's own fixed directions; the
        worst vertex error measured is 5.6e-15, at k = 2000 on both branches."""
        ref = bench_reference()
        v = circle_polygon(rng, k, noise)
        r = ref.classify(v.vertices, L)
        for branch in bg.Branch:
            want = ref.propagate(v.vertices, L, r.branch(branch.value).direction)[:-1]
            assert np.abs(bg.transform(v, L, branch).vertices - want).max() <= 2e-14

    def test_loop_in_the_contracting_direction_closes_on_the_companion(self):
        """From W_0 of each reference-hyperbolic survey companion, propagate
        closes and traces it: forwards on the attracting branch, and on the
        reversed polygon on the repelling one.  Worst measured deviation
        3.1e-13 of max(L, longest side)."""
        ref = bench_reference()
        for v, L in survey_cases():
            if ref.classify(v.vertices, L).klass != "hyperbolic":
                continue
            scale = max(L, float(v.side_lengths().max()))
            bound = dynamics._closure_bound(v, L, bg.DEFAULT_TOL)
            for branch in bg.Branch:
                w = bg.transform(v, L, branch)
                points, defect = _contracting_loop(v, w.vertex(0), branch)
                assert defect <= bound
                assert np.abs(points - w.vertices).max() <= 1e-12 * scale

    @pytest.mark.parametrize("noise", (0.0, 0.02))
    @pytest.mark.parametrize("k", (3, 5, 7, 8, 9, 17, 33, 1023, 1024, 1025, 2047, 2049))
    def test_padded_trees_match_the_loop(self, k, noise):
        """Side counts on and around powers of two put the tree's identity pads
        on different levels, or on none; on both branches the down-sweep gives
        the loop's companion in the contracting direction, to 1e-12 of
        max(L, longest side) (worst measured 1.4e-14)."""
        v, L = circle_polygon(np.random.default_rng(k), k, noise), 0.95
        scale = max(L, float(v.side_lengths().max()))
        for branch in bg.Branch:
            w = bg.transform(v, L, branch)
            points, defect = _contracting_loop(v, w.vertex(0), branch)
            assert defect <= dynamics._closure_bound(v, L, bg.DEFAULT_TOL)
            assert np.abs(points - w.vertices).max() <= 1e-12 * scale

    def test_repelling_step_is_the_adjugate_step_bit_for_bit(self):
        """The backwards sweep carries g = J h, J = [[0, 1], [-1, 0]], and steps
        with the right sibling's transpose, as J adj(R) = R^t J.  Written as
        the sweep writes it, R^t (J h) is J (adj(R) h) bit for bit, on entries
        spread over 1e-20 ... 1e20."""
        rng = np.random.default_rng(19)
        n = 100_000
        r = rng.normal(size=(n, 2, 2)) * 10.0 ** rng.uniform(-20.0, 20.0, size=(n, 2, 2))
        h = rng.normal(size=(2, n))
        g = np.stack([h[1], -h[0]])  # J h
        c = r.transpose(1, 2, 0)  # the sweep's weights: c[q, row] = R[q, row]
        step = c[0] * g[0] + c[1] * g[1]
        (a, b), (cc, d) = r[:, 0].T, r[:, 1].T
        adj_h = np.stack([d * h[0] - b * h[1], -cc * h[0] + a * h[1]])
        want = np.stack([adj_h[1], -adj_h[0]])  # J (adj(R) h)
        assert step.tobytes() == want.tobytes()

    def test_one_side_tree_per_call(self, monkeypatch):
        """transform classifies and sweeps on one tree; so does
        _seeded_companion for a seed on a fixed direction."""
        built = []
        real = monodromy._tree

        def counted(v, ells):
            built.append((len(v), len(ells)))
            return real(v, ells)

        monkeypatch.setattr(monodromy, "_tree", counted)
        v, L = circle_polygon(np.random.default_rng(0), 2000, 0.02), 0.95
        for branch in bg.Branch:
            built.clear()
            w = bg.transform(v, L, branch)
            assert built == [(2000, 1)]
            built.clear()
            assert dynamics._seeded_companion(v, L, w.vertex(0), bg.DEFAULT_TOL)[0].vertices.tolist() == (
                w.vertices.tolist()
            )
            assert built == [(2000, 1)]

    def test_wild_polygon_closes_near_the_reference(self):
        """S, the repelling companion of generic 200-gon draw 1 at 1.15 L, at
        W's frame length: the Hillis-Steele prefix scan missed its step bound
        there (2.137e-08 > 8.182e-09).  The down-sweep's companion is a pair,
        1.3e-10 of max(L, longest side) from the 50-digit propagation.  That
        is the conditioning of the polygon: moving S's vertices by one ulp
        moves the 50-digit companion by up to 5.7e-11 of the same scale."""
        v, L = generic_200gons()[1]
        s = bg.transform(v, 1.15 * L, bg.Branch.REPELLING)
        length = bg.frame_length(v, bg.transform(v, L))
        t = bg.transform(s, length)
        assert bg.correspondence_check(s, t)
        ref = bench_reference()
        want = ref.propagate(s.vertices, length, ref.classify(s.vertices, length).attracting.direction)[:-1]
        scale = max(length, float(s.side_lengths().max()))
        assert np.abs(t.vertices - want).max() <= 2e-10 * scale

    def test_class_and_direction_agree_with_polygon_monodromy(self, rng):
        """The tree that classifies for transform is the one polygon_monodromy
        builds: the same class and fixed direction, bit for bit."""
        cases = [(circle_polygon(rng, k, noise), L) for k, noise, L in LARGE_CIRCLES] + survey_cases()
        checked = 0
        for v, L in cases:
            mob = bg.polygon_monodromy(v, L)
            if bg.classify(mob) is not bg.MonodromyClass.HYPERBOLIC:
                continue
            dirs = bg.fixed_directions(mob)
            for branch, fd in zip(bg.Branch, (dirs[0], dirs[-1])):
                _, klass, got, _ = dynamics._transform(v, L, branch, bg.DEFAULT_TOL)
                assert (klass, got) == (bg.MonodromyClass.HYPERBOLIC, fd)
                checked += 1
        assert checked == 2 * (len(LARGE_CIRCLES) + 275)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", ["circle", "strongly-hyperbolic"])
    def test_exactly_scale_free(self, rng, case):
        """A power-of-two scale leaves the rescaled side tree, and so its
        down-sweep, bit for bit the same; the companion scales exactly, far
        past the range where the raw product is a double."""
        if case == "circle":
            v, L = circle_polygon(rng, 200, noise=0.02), 0.95
        else:
            v, L = generic_200gons()[8]  # log10 derivative -51.9
        scale = 2.0**500
        big = bg.Polygon(v.vertices * scale)
        for branch in bg.Branch:
            w, klass, fd, defect = dynamics._transform(v, L, branch, bg.DEFAULT_TOL)
            w_big, klass_big, fd_big, defect_big = dynamics._transform(big, L * scale, branch, bg.DEFAULT_TOL)
            assert w_big.vertices.tolist() == (w.vertices * scale).tolist()
            assert (klass_big, fd_big, defect_big) == (klass, fd, defect * scale)


class TestCorrespondenceCheck:
    def test_transform_pair_passes(self, rng):
        v, w, _ = random_hyperbolic_pair(rng)
        assert bg.correspondence_check(v, w)
        assert bg.correspondence_check(w, v)  # the relation is symmetric

    def test_translate_fails(self, rng):
        v = random_polygon(rng)
        assert not bg.correspondence_check(v, v.translated((0.8, -0.3)))

    def test_concentric_construction_passes(self, rng):
        from conftest import random_concentric

        v, _center, _r1, _r2 = random_concentric(rng, k2=6)
        w = bg.concentric_transform(v, rng.uniform(0, 2 * math.pi))
        assert bg.correspondence_check(v, w)

    @pytest.mark.parametrize("k", (200, 2000))
    @pytest.mark.parametrize("L", (0.9, 0.95))
    def test_large_rotation_pair(self, rng, k, L):
        v = circle_polygon(rng, k)
        w = bg.rotation_transform(v, L)
        assert bg.correspondence_check(v, w)
        # a translate by L keeps every |V_i W_i| = L but is the parallelogram branch
        assert not bg.correspondence_check(v, v.translated((0.6 * L, 0.8 * L)))
        # turning one W_j about V_j keeps |V_j W_j| = L but breaks two trapezoids
        j = k // 2
        turn = np.array([[math.cos(1e-6), -math.sin(1e-6)], [math.sin(1e-6), math.cos(1e-6)]])
        moved = w.with_vertex(j, v.vertex(j) + turn @ (w.vertex(j) - v.vertex(j)))
        assert not bg.correspondence_check(v, moved)

    def test_relabeled_square_fails(self):
        """W_i = V_{i+1}: equal frames, but every step's bisector collapses."""
        sq = bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert not bg.correspondence_check(sq, sq.rolled(1))

    def test_space_pairs_pass(self, rng):
        for _ in range(3):
            v, w, _L = propagated_pair_3d(rng)
            assert bg.correspondence_check(v, w) and bg.correspondence_check(w, v)

    @pytest.mark.parametrize("factor, passes", [(0.5, True), (2.0, False)])
    def test_one_frame_point_moved_against_the_step_bound(self, factor, passes):
        """The step bound is eps_geom max(L, longest side), here eps_geom.  On
        the unit square's attracting pair at L = 0.5, whose steps contract,
        each W_j moved across its frame by half the bound still passes, and by
        twice the bound misses the step into it."""
        sq = bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        w = bg.transform(sq, 0.5)
        for j in range(4):
            frame = w.vertex(j) - sq.vertex(j)
            across = np.array([-frame[1], frame[0]]) / np.linalg.norm(frame)
            moved = w.with_vertex(j, w.vertex(j) + factor * bg.DEFAULT_TOL.eps_geom * across)
            assert bg.correspondence_check(sq, moved) is passes

    def test_zero_frames_fail(self):
        """One zero frame breaks the common length; with every frame zero the
        seed frame's coincidence rule refuses the pair."""
        sq = bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert not bg.correspondence_check(sq, bg.transform(sq, 0.5).with_vertex(2, sq.vertex(2)))
        assert not bg.correspondence_check(sq, sq)

    def test_mismatched_counts_fail(self, rng):
        v = random_polygon(rng, k=4)
        u = random_polygon(rng, k=5)
        assert not bg.correspondence_check(v, u)


class TestRecut:
    def test_involution(self, rng):
        for dim in (2, 3):
            v = random_polygon(rng, dim=dim)
            for i in range(len(v)):
                back = bg.recut(bg.recut(v, i), i)
                assert np.abs(back.vertices - v.vertices).max() < 1e-12 * polygon_scale(v)

    def test_coincidence_under_the_given_tolerance(self):
        v = bg.Polygon([(1, 0), (2, 1), (1 + 1e-6, 0), (1.5, -1)])
        with pytest.raises(bg.DegenerateLine, match="coincident"):
            bg.recut(v, 1, bg.Tolerance(1e-3))
        assert bg.recut(v, 1).vertices.tolist() == bg.recut(v, 1, bg.DEFAULT_TOL).vertices.tolist()

    def test_distant_indices_commute(self, rng):
        for dim in (2, 3):
            v = random_polygon(rng, k=6, dim=dim)
            a = bg.recut(bg.recut(v, 0), 2)
            b = bg.recut(bg.recut(v, 2), 0)
            assert np.abs(a.vertices - b.vertices).max() < 1e-12 * polygon_scale(v)

    def test_braid_relation(self, rng):
        for dim in (2, 3):
            for _ in range(20):
                v = random_polygon(rng, dim=dim)
                i = int(rng.integers(0, len(v)))
                a = bg.recut(bg.recut(bg.recut(v, i), i + 1), i)
                b = bg.recut(bg.recut(bg.recut(v, i + 1), i), i + 1)
                assert np.abs(a.vertices - b.vertices).max() < 1e-9 * polygon_scale(v)

    def test_preserves_monodromy(self, rng):
        v, _w, L = random_hyperbolic_pair(rng, k=5)
        base = bg.polygon_monodromy(v, L)
        for i in range(len(v)):
            other = bg.polygon_monodromy(bg.recut(v, i), L)
            if i == 0:
                # recutting the base vertex conjugates the matrix; the
                # conjugacy invariant still agrees
                want = base.trace_sq_over_det()
                assert abs(other.trace_sq_over_det() - want) < 1e-9 * abs(want)
            else:
                assert proj_distance(base, other) < 1e-9

    def test_commutes_with_transform(self, rng):
        for _ in range(10):
            v, w, L = random_hyperbolic_pair(rng, k=5)
            for i in range(len(v)):
                left = bg.recut(w, i)
                right = bg.transform(bg.recut(v, i), L)
                assert np.abs(left.vertices - right.vertices).max() < 1e-8 * v.perimeter()


class TestButterflyFourth:
    def test_equal_parameter_seed_degenerates_to_start(self):
        # |v1 w1| = |v1 s1| puts v1 on the mirror, so the fourth point is v1
        out = bg.butterfly_fourth((0, 0), (0, 2), (2, 0))
        assert np.allclose(out, (0, 0), atol=1e-12)

    def test_collinear_inputs(self):
        out = bg.butterfly_fourth((1, 0), (0, 0), (3, 0))
        assert abs(out[1]) < 1e-12
        assert abs(np.linalg.norm(out - np.array([0.0, 0.0])) - 2.0) < 1e-12
        assert abs(np.linalg.norm(out - np.array([3.0, 0.0])) - 1.0) < 1e-12

    def test_distance_swap_and_butterfly_property(self, rng):
        for _ in range(100):
            v1, w1, s1 = rng.normal(size=(3, 2)) * 2
            if np.linalg.norm(w1 - s1) < 0.05:
                continue
            t1 = bg.butterfly_fourth(v1, w1, s1)
            assert abs(np.linalg.norm(t1 - w1) - np.linalg.norm(v1 - s1)) < 1e-10
            assert abs(np.linalg.norm(t1 - s1) - np.linalg.norm(v1 - w1)) < 1e-10
            if np.linalg.norm(t1 - v1) > 1e-6:
                assert bg.is_darboux_butterfly([v1, w1, t1, s1])


class TestBianchi:
    def test_rotations_compose(self, rng):
        v = random_cyclic_convex(rng, k=6)
        info = bg.classify_cyclic(v)
        l1, l2 = 0.45 * info.diameter, 0.7 * info.diameter
        w = bg.rotation_transform(v, l1)
        s = bg.rotation_transform(v, l2)
        t = bg.bianchi_fourth_polygon(v, w, s)
        th1 = 2 * math.asin(l1 / info.diameter)
        th2 = 2 * math.asin(l2 / info.diameter)
        th = th1 + th2
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        want = (v.vertices - info.center) @ rot.T + info.center
        assert np.abs(t.vertices - want).max() < 1e-8 * v.perimeter()

    def test_equal_parameters_return_start(self, rng):
        v, w, L = random_hyperbolic_pair(rng)
        t = bg.bianchi_fourth_polygon(v, w, w)
        assert np.abs(t.vertices - v.vertices).max() < 1e-9 * v.perimeter()

    def test_both_output_correspondences(self, rng):
        done = 0
        while done < 10:
            v = random_polygon(rng, k=4)
            l1 = hyperbolic_length(v, rng)
            if l1 is None:
                continue
            l2 = hyperbolic_length(v, rng, tries=240)
            try:
                w = bg.transform(v, l1)
                s = bg.transform(v, l2, bg.Branch.REPELLING)
            except bg.GeometryError:
                continue
            if np.linalg.norm(w.vertex(0) - s.vertex(0)) < 1e-6:
                continue
            t = bg.bianchi_fourth_polygon(v, w, s)
            assert bg.correspondence_check(s, t)
            assert bg.correspondence_check(w, t)
            done += 1

    def test_order_independence(self, rng):
        done = 0
        while done < 5:
            v = random_polygon(rng, k=4)
            l1 = hyperbolic_length(v, rng)
            if l1 is None:
                continue
            try:
                w = bg.transform(v, l1)
                s = bg.transform(v, l1, bg.Branch.REPELLING)
            except bg.GeometryError:
                continue
            if np.linalg.norm(w.vertex(0) - s.vertex(0)) < 1e-6:
                continue
            t1 = bg.bianchi_fourth_polygon(v, w, s)
            t2 = bg.bianchi_fourth_polygon(v, s, w)
            assert np.abs(t1.vertices - t2.vertices).max() < 1e-8 * v.perimeter()
            done += 1

    def test_inconsistent_inputs_raise(self, rng):
        """S a butterfly unrelated to V: its companion through t1 closes (every
        seed does), but it is no companion of W, so ClosureFailure is raised
        rather than a non-pair returned."""
        for _ in range(10):
            v, w, _ = random_hyperbolic_pair(rng)
            with pytest.raises(bg.ClosureFailure):
                bg.bianchi_fourth_polygon(v, w, random_butterfly(rng))

    @staticmethod
    def _squares(cases):
        """(case index, W branch, S branch, V, W, S, T) for each case and all
        four branch orders, W at L and S at 1.15 L; T is None where
        bianchi_fourth_polygon raised ClosureFailure.  Cases where either
        transform raises are skipped."""
        branches = (bg.Branch.ATTRACTING, bg.Branch.REPELLING)
        for index, (v, L) in enumerate(cases):
            for b1 in branches:
                for b2 in branches:
                    try:
                        w, s = bg.transform(v, L, b1), bg.transform(v, 1.15 * L, b2)
                    except bg.GeometryError:
                        continue
                    try:
                        t = bg.bianchi_fourth_polygon(v, w, s)
                    except bg.ClosureFailure:
                        t = None
                    yield index, b1, b2, v, w, s, t

    def test_repelling_w_survey_gives_pairs(self):
        """The fourth polygon is S's companion through t1 from the down-sweep
        in its contracting direction, so a repelling W (S's repelling companion
        at W's length) closes as the attracting one does: every branch order
        of the 257 survey cases that transform on both lengths is a pair."""
        pairs = 0
        for _, _, _, _, w, s, t in self._squares(survey_cases()):
            assert t is not None
            assert bg.correspondence_check(s, t) and bg.correspondence_check(w, t)
            pairs += 1
        assert pairs == 4 * 257

    def test_generic_200gons_give_pairs(self):
        """Every branch order of the 30 generic 200-gons is a pair, draw 1
        with W attracting and S repelling included: there the Hillis-Steele
        prefix scan missed its step bound, and the down-sweep closes."""
        pairs = 0
        for _, _, _, _, w, s, t in self._squares(generic_200gons()):
            assert t is not None
            assert bg.correspondence_check(s, t) and bg.correspondence_check(w, t)
            pairs += 1
        assert pairs == 4 * 30

    @pytest.mark.parametrize("k, noise, L", LARGE_CIRCLES)
    def test_large_circles_give_pairs(self, rng, k, noise, L):
        """All four branch orders on the large circles, S at min(1.15 L, 0.97)
        (the circles have diameter 1, above which the monodromy is elliptic):
        each fourth polygon is a pair with both W and S."""
        v = circle_polygon(rng, k, noise)
        for b1 in bg.Branch:
            for b2 in bg.Branch:
                w, s = bg.transform(v, L, b1), bg.transform(v, min(1.15 * L, 0.97), b2)
                t = bg.bianchi_fourth_polygon(v, w, s)
                assert bg.correspondence_check(s, t) and bg.correspondence_check(w, t)

    def test_space_squares_through_the_loop(self):
        """Survey squares embedded in R^3 by a random rotation go through the
        step loop.  With W attracting, T is the rotated plane T; with W
        repelling, each result is a pair or raises ClosureFailure (forward
        propagation on S's repelling companion; the plane W and S come from
        transform, so the tally moves with its rounding)."""
        q = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]

        def lift(p):
            return bg.Polygon(np.pad(p.vertices, ((0, 0), (0, 1))) @ q.T)

        outcomes = {"match": 0, "pair": 0, "failure": 0}
        for _, b1, _, v, w, s, t in self._squares(survey_cases()[:120]):
            w3, s3 = lift(w), lift(s)
            try:
                t3 = bg.bianchi_fourth_polygon(lift(v), w3, s3)
            except bg.ClosureFailure:
                assert b1 is bg.Branch.REPELLING
                outcomes["failure"] += 1
                continue
            assert bg.correspondence_check(s3, t3) and bg.correspondence_check(w3, t3)
            if b1 is bg.Branch.ATTRACTING:
                assert np.abs(t3.vertices - lift(t).vertices).max() <= 1e-9 * v.perimeter()
                outcomes["match"] += 1
            else:
                outcomes["pair"] += 1
        assert outcomes == {"match": 212, "pair": 187, "failure": 25}


class TestAngleSequence:
    def test_regular_polygon_rotation_constant(self, rng):
        k = 7
        ang = 2 * math.pi * np.arange(k) / k
        v = bg.Polygon(np.stack([np.cos(ang), np.sin(ang)], axis=1) * 2.0)
        w = bg.transform(v, 1.1)
        pair = bg.BicyclePair(v, w)
        alphas = bg.angle_sequence(pair)
        assert np.abs(alphas - alphas.mean()).max() < 1e-10

    def test_right_angle_case(self):
        # frame perpendicular to the incoming side gives |alpha| = pi/2
        v = bg.Polygon([(0, 0), (4, 0), (4, 3), (0, 3)])
        w = bg.transform(v, 2.0)
        pair = bg.BicyclePair(v, w)
        alphas = bg.angle_sequence(pair)
        d_in = v.vertex(-1) - v.vertex(0)
        d_fr = w.vertex(0) - v.vertex(0)
        cross = d_in[0] * d_fr[1] - d_in[1] * d_fr[0]
        want = math.atan2(cross, float(d_in @ d_fr))
        assert abs(alphas[0] - want) < 1e-12
        if abs(float(d_in @ d_fr)) < 1e-9:
            assert abs(abs(alphas[0]) - math.pi / 2) < 1e-9

    def test_round_trip_reconstruction(self, rng):
        """The signed angle sequence determines the companion: rotating the
        incoming side direction by alpha_i and walking the frame length
        recovers W with no branch choice."""
        v, w, L = random_hyperbolic_pair(rng, k=5)
        pair = bg.BicyclePair(v, w)
        alphas = bg.angle_sequence(pair)
        for i in range(len(v)):
            incoming = v.vertex(i - 1) - v.vertex(i)
            base = math.atan2(incoming[1], incoming[0])
            rebuilt = v.vertex(i) + L * np.array(
                [math.cos(base + alphas[i]), math.sin(base + alphas[i])]
            )
            assert np.linalg.norm(rebuilt - w.vertex(i)) < 1e-8


class TestDifferenceEquation:
    def test_constructed_pairs_satisfy_it(self, rng):
        for k in (4, 5, 6, 7):
            v, w, _ = random_hyperbolic_pair(rng, k=k)
            pair = bg.BicyclePair(v, w)
            assert bg.verify_difference_equation(pair) < 1e-8

    def test_regular_rotation_case(self):
        k = 6
        ang = 2 * math.pi * np.arange(k) / k
        v = bg.Polygon(np.stack([np.cos(ang), np.sin(ang)], axis=1) * 2.0)
        w = bg.transform(v, 1.3)
        assert bg.verify_difference_equation(bg.BicyclePair(v, w)) < 1e-12

    def test_perturbation_grows_residual(self, rng):
        v, w, L = random_hyperbolic_pair(rng, k=4)
        pair = bg.BicyclePair(v, w)
        base = bg.verify_difference_equation(pair)
        delta = 1e-3
        shift = w.vertex(0) - v.vertex(0)
        th = math.atan2(shift[1], shift[0]) + delta
        seed = v.vertex(0) + L * np.array([math.cos(th), math.sin(th)])
        open_w = bg.propagate(v, seed).points[:-1]
        perturbed = BicyclePairLoose(v, bg.Polygon(open_w), L)
        res = bg.verify_difference_equation(perturbed)
        assert res > 50 * max(base, 1e-12)
        assert res < 10 * delta * max(L, v.side_lengths().max())

    def test_linearized_transport_relation(self, rng):
        """Under a small seed rotation, the angle variations are carried by
        the trapezoid diagonals: |u_i| |V_i W_{i-1}| = |u_{i-1}| |V_{i-1} W_i|,
        the per-index sign depending on the trapezoid's configuration."""
        from bicyclegeom.dynamics import _angle_at

        v, w, L = random_hyperbolic_pair(rng, k=5)
        pair = bg.BicyclePair(v, w)
        k = len(v)
        alphas = pair.alphas
        thetas = np.array(
            [_angle_at(v.vertex(i), v.vertex(i - 1), v.vertex(i + 1), signed=True) for i in range(k)]
        )
        c = np.roll(v.side_lengths(), 1)
        half_diff = 0.5 * (alphas - np.roll(alphas, 1) + np.roll(thetas, 1))
        half_sum = 0.5 * (alphas + np.roll(alphas, 1) - np.roll(thetas, 1))
        d = L * np.sin(half_diff) - c * np.sin(half_sum)
        e = L * np.sin(half_diff) + c * np.sin(half_sum)
        delta = 1e-6
        shift = w.vertex(0) - v.vertex(0)
        th = math.atan2(shift[1], shift[0]) + delta
        seed = v.vertex(0) + L * np.array([math.cos(th), math.sin(th)])
        pts = bg.propagate(v, seed).points[:-1]
        u = BicyclePairLoose(v, bg.Polygon(pts), L).alphas - alphas
        u = np.mod(u + math.pi, 2 * math.pi) - math.pi
        for i in range(1, k):
            diag_wi_prev = np.linalg.norm(w.vertex(i - 1) - v.vertex(i))
            diag_vprev_wi = np.linalg.norm(w.vertex(i) - v.vertex(i - 1))
            # the signed transport coefficients are the diagonal lengths
            assert abs(abs(d[i]) - diag_wi_prev) < 1e-12 * max(1.0, diag_wi_prev)
            assert abs(abs(e[i]) - diag_vprev_wi) < 1e-12 * max(1.0, diag_vprev_wi)
            assert abs(u[i] * d[i] - u[i - 1] * e[i]) < 1e-9
            assert abs(abs(u[i]) * diag_wi_prev - abs(u[i - 1]) * diag_vprev_wi) < 1e-7


def BicyclePairLoose(v, w, length):
    """Pair container without the correspondence validation, for perturbed
    open traces."""
    pair = bg.BicyclePair.__new__(bg.BicyclePair)
    pair.v = v
    pair.w = w
    pair.length = length
    pair.tol = bg.DEFAULT_TOL
    from bicyclegeom.dynamics import _alpha_angles

    pair.alphas = _alpha_angles(v, w)
    return pair
