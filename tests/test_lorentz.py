"""The Lorentz path: one side formula for edge_lorentz and lorentz_monodromy,
and fixed directions from dominant eigenvectors of M and of its exact inverse,
with the null lines of ker(M -+ I) where those give fewer than two."""

import math
import re

import numpy as np
import pytest

import bicyclegeom as bg

from conftest import LARGE_CIRCLES, bench_reference, circle_polygon, random_butterfly, random_polygon, survey_cases
from test_dynamics import _reversed

SQUARE = bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def _angle_gap(u, angle):
    """Distance between the plane direction u and the direction angle, mod 2 pi."""
    return abs((math.atan2(u[1], u[0]) - angle + math.pi) % (2.0 * math.pi) - math.pi)


def _oracle_product(v, ell):
    """The monodromy as a loop over the validating per-side edge_lorentz."""
    m = np.eye(v.dim + 1)
    for side in v.sides():
        a = float(np.linalg.norm(side))
        m = bg.edge_lorentz(ell, a, side / a).m @ m
    return m


def _space_draws():
    """400 random 4-29-gons in 3-D, vertices normal x 1.5, L uniform in
    [0.2, 2] x the mean side, drawn from default_rng(20260809)."""
    rng = np.random.default_rng(20260809)
    out = []
    for _ in range(400):
        v = random_polygon(rng, k=int(rng.integers(4, 30)), dim=3, scale=1.5)
        out.append((v, float(rng.uniform(0.2, 2.0)) * float(v.side_lengths().mean())))
    return out


class TestPlaneTie:
    """In the plane the Lorentz monodromy is the SO(2,1) image of the 2x2
    product: the same fixed directions, and eigenvalues 1 / derivative."""

    def test_survey(self):
        """Before, 13 of the 275 reference-hyperbolic cases got one or three
        directions, and the repelling eigenvalue was off by up to 4e9 where the
        ratio passed 1e8.  Worst measured: angle 7.1e-12, |lam deriv - 1| 4.5e-11."""
        ref = bench_reference()
        counts = {"hyperbolic": 0, "elliptic": 0}
        for v, L in survey_cases():
            klass = ref.classify(v.vertices, L).klass
            counts[klass] += 1
            dirs = bg.lorentz_fixed_directions(bg.lorentz_monodromy(v, L))
            if klass == "elliptic":
                assert dirs == []
                continue
            assert len(dirs) == 2 and abs(dirs[0][1]) > abs(dirs[1][1])
            for (u, lam), fd in zip(dirs, bg.fixed_directions(bg.polygon_monodromy(v, L))):
                assert _angle_gap(u, fd.angle) <= 1e-10
                assert abs(lam * fd.derivative - 1.0) <= 1e-9
        assert counts == {"hyperbolic": 275, "elliptic": 25}

    @pytest.mark.parametrize("k", [24, 200])
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_circles_get_both_directions(self, k, noise):
        """One direction each before."""
        v = circle_polygon(np.random.default_rng(20260809), k, noise)
        dirs = bg.lorentz_fixed_directions(bg.lorentz_monodromy(v, 0.3))
        assert len(dirs) == 2
        for (u, lam), fd in zip(dirs, bg.fixed_directions(bg.polygon_monodromy(v, 0.3))):
            assert _angle_gap(u, fd.angle) <= 1e-10
            assert abs(lam * fd.derivative - 1.0) <= 1e-9

    def test_parabolic_square(self):
        """ker(M - I) is one null line; the angle was 6.9e-6 off before."""
        dirs = bg.lorentz_fixed_directions(bg.lorentz_monodromy(SQUARE, math.sqrt(2.0)))
        assert len(dirs) == 1
        assert _angle_gap(dirs[0][0], math.pi / 4.0) <= 1e-12


class TestSpace:
    def test_random_space_polygons_close_from_each_direction(self):
        """Every draw gets two directions (29 loxodromic draws got one before)
        and closes from each in its contracting direction: the attracting one
        forwards, the repelling one on the reversed polygon.  The 7 elliptic
        draws are 3-D quadrilaterals, whose two directions come from a plane
        kernel of M - I."""
        elliptic = []
        for v, L in _space_draws():
            dirs = bg.lorentz_fixed_directions(bg.lorentz_monodromy(v, L))
            assert len(dirs) == 2
            if abs(abs(dirs[0][1]) - 1.0) <= 1e-9:
                elliptic.append(len(v))
            forward = bg.propagate(v, v.vertex(0) + L * dirs[0][0])
            backward = bg.propagate(bg.Polygon(_reversed(v.vertices)), v.vertex(0) + L * dirs[1][0])
            assert max(forward.closure_defect, backward.closure_defect) <= 1e-8 * v.perimeter()
        assert elliptic == [4] * 7

    def test_identity_has_no_isolated_direction(self):
        assert bg.lorentz_fixed_directions(bg.LorentzMatrix(np.eye(4))) == []

    def test_embedded_butterfly_is_the_identity(self, rng):
        """A planar butterfly placed in 3-D: M = I to rounding, so every
        direction is fixed and none is returned (two arbitrary ones before)."""
        fly = random_butterfly(rng)
        emb = np.hstack([fly.vertices, np.zeros((4, 1))])
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        m = bg.lorentz_monodromy(bg.Polygon(emb @ q.T + rng.normal(size=3)), 1.3)
        assert np.abs(m.m - np.eye(4)).max() <= 1e-12
        assert bg.lorentz_fixed_directions(m) == []


class TestProduct:
    @pytest.mark.parametrize("k, noise, L", LARGE_CIRCLES)
    def test_matches_per_side_oracle(self, rng, k, noise, L):
        v = circle_polygon(rng, k, noise)
        got, want = bg.lorentz_monodromy(v, L), _oracle_product(v, L)
        assert np.abs(got.m - want).max() <= 1e-14 * np.abs(want).max()
        assert got.gram_defect() <= 2.0 * bg.LorentzMatrix(want, check=False).gram_defect()

    def test_pole(self):
        with pytest.raises(bg.PoleAtEllEqualsA):
            bg.lorentz_monodromy(SQUARE, 1.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_overflow_raises_naming_the_length(self, dim):
        """The product used to overflow to a non-finite LorentzMatrix with a
        RuntimeWarning."""
        v = bg.Polygon(np.random.default_rng(0).normal(size=(2000, dim)))
        L = 0.7 * float(v.side_lengths().mean())
        with pytest.raises(ValueError, match=re.escape(repr(L))):
            bg.lorentz_monodromy(v, L)
