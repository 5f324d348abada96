"""Exact rational oracles for the side-matrix layer, at k <= 12.

Dyadic vertices (integers over a power of two) make every side vector and
every entry l +- dx of a side matrix an exact double, so a Fraction product
of the side matrices is the polygon's monodromy itself, with no input
rounding.  Against it: the tree's root m 2**e, the exact determinant of
_log2_det on polygons whose side lengths are integers (Pythagorean sides),
and the trace polynomial, whose double coefficients are exact when the
vertices are small integers.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import bicyclegeom as bg
from bicyclegeom import monodromy

# (p, q, r) with p^2 + q^2 = r^2, as (p, q)
TRIPLES = [(3, 4), (5, 12), (8, 15), (7, 24), (20, 21)]


def dyadic_polygon(rng, k, radius, bits):
    """k vertices with coordinates n / 2**bits, |n| <= radius 2**bits, consecutive ones distinct."""
    while True:
        n = rng.integers(-(radius << bits), (radius << bits) + 1, size=(k, 2))
        if (np.roll(n, -1, axis=0) != n).any(axis=1).all():
            return bg.Polygon(n / 2.0**bits)


def pythagorean_polygon(rng, k):
    """k sides of integer length over 4: k - 2 legs of Pythagorean triples
    and an axis-parallel pair that closes them, in random order."""
    while True:
        sides = []
        for _ in range(k - 2):
            p, q = TRIPLES[rng.integers(len(TRIPLES))][:: rng.choice((-1, 1))]
            sides.append((p * rng.choice((-1, 1)), q * rng.choice((-1, 1))))
        rx, ry = -np.sum(sides, axis=0)
        if rx and ry:
            sides = np.array(sides + [(rx, 0), (0, ry)])[rng.permutation(k)]
            return bg.Polygon(np.cumsum(sides, axis=0) / 4.0)


def _matmul(s, m):
    return [[s[i][0] * m[0][j] + s[i][1] * m[1][j] for j in range(2)] for i in range(2)]


def _add(m, n):
    return [[x + y for x, y in zip(r, t)] for r, t in zip(m, n)]


IDENTITY = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def exact_sides(v, ell):
    """Side matrices [[ell + dx, -dy], [-dy, ell - dx]] in Fractions."""
    ell = Fraction(ell)
    return [[[ell + Fraction(dx), -Fraction(dy)], [-Fraction(dy), ell - Fraction(dx)]] for dx, dy in v.sides().tolist()]


def exact_product(v, ell):
    """The side product, later sides on the left, in Fractions."""
    m = IDENTITY
    for s in exact_sides(v, ell):
        m = _matmul(s, m)
    return m


def exact_trace_coefficients(v):
    """Half-traces of the coefficients c_0, c_1, ... of ell^k, ell^(k-1), ...
    in prod (ell I + S_j), S_j the side matrix at ell = 0."""
    c = [IDENTITY] + [[[Fraction(0)] * 2] * 2] * len(v)
    for j, s in enumerate(exact_sides(v, 0)):
        terms = [_matmul(s, m) for m in c[: j + 1]]
        c[1 : j + 2] = [_add(m, t) for m, t in zip(c[1 : j + 2], terms)]
    return [(m[0][0] + m[1][1]) / 2 for m in c]


def _log2(x: Fraction) -> float:
    return math.log2(x.numerator) - math.log2(x.denominator)


# worst measured over 2000 draws of this recipe (default_rng(31)): 3.4e-15,
# reached within the first 300, the ones checked below
ROOT_BOUND = 1e-14


def test_root_matches_the_exact_product():
    """m 2**e of the tree's root is the exact Fraction product to ROOT_BOUND
    relative to its largest entry, on 300 dyadic 3-12-gons (18-bit
    coordinates, |x| <= 4) at dyadic lengths off the poles."""
    rng = np.random.default_rng(31)
    worst, checked = 0.0, 0
    while checked < 300:
        v = dyadic_polygon(rng, int(rng.integers(3, 13)), 4, 18)
        ell = Fraction(int(rng.integers(1, 96)), 8)
        if np.any(np.abs(float(ell) - v.side_lengths()) <= 1e-9):
            continue
        levels, e = monodromy._tree(v, np.array([float(ell)]))
        got = [[Fraction(x) * Fraction(2) ** int(e[0]) for x in row] for row in levels[-1][0, 0].tolist()]
        want = exact_product(v, ell)
        top = max(abs(x) for row in want for x in row)
        worst = max(worst, float(max(abs(g - w) for gr, wr in zip(got, want) for g, w in zip(gr, wr)) / top))
        checked += 1
    assert worst <= ROOT_BOUND


# worst measured over 2000 draws x 8 lengths (default_rng(41)): 1.4e-14, one
# ulp of log2 |det| near 100, reached within the first 200, the ones checked below
LOG2_DET_BOUND = 4e-14


def test_log2_det_matches_the_exact_determinant():
    """_log2_det's sign and log2 are those of the exact prod (ell^2 - a_j^2)
    on 200 Pythagorean 3-12-gons, whose side lengths are exact doubles, at 8
    dyadic lengths each, poles left out."""
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(200):
        v = pythagorean_polygon(rng, int(rng.integers(3, 13)))
        a = [Fraction(x) for x in v.side_lengths().tolist()]
        assert [x * x for x in a] == [Fraction(dx) ** 2 + Fraction(dy) ** 2 for dx, dy in v.sides().tolist()]
        ells = [ell for ell in (Fraction(int(n), 8) for n in rng.integers(1, 200, size=8)) if ell not in a]
        sign, mant, exp = monodromy._log2_det(monodromy._factors(v, np.array([float(ell) for ell in ells])))
        for i, ell in enumerate(ells):
            det = math.prod(ell * ell - x * x for x in a)
            assert sign[i] == math.copysign(1.0, det)
            worst = max(worst, abs(mant[i] + exp[i] - _log2(abs(det))))
    assert worst <= LOG2_DET_BOUND


@pytest.mark.parametrize("k", range(3, 13))
def test_trace_polynomial_is_exact(k):
    """On integer vertices in [-4, 4] every coefficient's products and sums
    are exact doubles, so trace_polynomial equals the Fraction expansion; that
    is monic, its odd coefficients vanish, and c_2 = -1/2 sum a_i^2."""
    rng = np.random.default_rng(100 + k)
    for _ in range(10):
        v = dyadic_polygon(rng, k, 4, 0)
        want = exact_trace_coefficients(v)
        assert list(bg.trace_polynomial(v).coeffs) == [float(c) for c in want]
        assert want[0] == 1
        assert all(c == 0 for c in want[1::2])
        assert want[2] == -sum(Fraction(dx) ** 2 + Fraction(dy) ** 2 for dx, dy in v.sides().tolist()) / 2
