"""The side tree rescales every third level, not every level.

_every_level_tree below rescales every level's products, each node carrying
its own exponent; it is the oracle for _tree.  A power-of-two scale
commutes exactly with every rounded product and sum, and the sweep divides
each computed h by its abs-sum, so the cadence must change no bit: not the
root (m, e), nor any companion.  These tests compare the two trees
bitwise and pin the bounds that keep the unrescaled levels finite.
"""

import math

import numpy as np
import pytest

import bicyclegeom as bg
from bicyclegeom import dynamics, monodromy
from conftest import LARGE_CIRCLES, circle_polygon, generic_200gons, overflow_recipe, survey_cases


def _every_level_tree(v, ells):
    """Levels (a, e), nodes a times 2**e, every level rescaled."""
    a, e = monodromy._rescale(monodromy._side_matrices(v, ells))
    levels = []
    while a.shape[1] > 1:
        if a.shape[1] % 2:
            a = np.concatenate([a, monodromy._IDENTITY.repeat(len(a), axis=0)], axis=1)
            e = np.concatenate([e, np.zeros_like(e[:, :1])], axis=1)
        levels.append((a, e))
        a, shift = monodromy._rescale(a[:, 1::2] @ a[:, 0::2])
        e = e[:, 1::2] + e[:, 0::2] + shift
    levels.append((a, e))
    return levels


def _oracle_tree(v, ells):
    """_every_level_tree in _tree's return form: the levels and the root's exponent."""
    levels = _every_level_tree(v, ells)
    return [a for a, _ in levels], levels[-1][1][:, 0]


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


def _root_cases():
    """(name, polygon, L): LARGE_CIRCLES, the overflow recipe and the D6 recipe."""
    out = [(f"circle-{k}-{noise}-{L}", circle_polygon(np.random.default_rng(1), k, noise), L)
           for k, noise, L in LARGE_CIRCLES]
    out += [(f"overflow-{k}", *overflow_recipe(k)) for k in (200, 500, 2000)]
    v = bg.Polygon(np.random.default_rng(9).normal(size=(2000, 2)) * 1.5)
    return out + [("d6", v, float(v.side_lengths().mean()))]


ROOT_CASES = _root_cases()


@pytest.mark.parametrize("name, v, L", ROOT_CASES, ids=[c[0] for c in ROOT_CASES])
def test_root_matches_the_every_level_tree(name, v, L):
    """On a 258-length scan grid, 0.2 L to 3 L, the root's m and e are the
    every-level tree's, bit for bit (lengths in chunks, as
    _monodromy_product splits them)."""
    for ells in np.array_split(np.linspace(0.2 * L, 3.0 * L, 258), 8):
        levels, e = monodromy._tree(v, ells)
        want = _every_level_tree(v, ells)[-1]
        assert _bits(levels[-1]) == _bits(want[0])
        assert e.tolist() == want[1][:, 0].tolist()


def _companion_cases():
    circles = [(circle_polygon(np.random.default_rng(1), k, noise), L) for k, noise, L in LARGE_CIRCLES]
    return survey_cases() + generic_200gons() + circles


def _outcome(v, L, branch):
    try:
        w, klass, fd, defect = dynamics._transform(v, L, branch, bg.DEFAULT_TOL)
    except bg.GeometryError as exc:
        return type(exc).__name__, str(exc)
    return _bits(w.vertices), klass, fd, defect


def test_companions_match_the_every_level_tree(monkeypatch):
    """Both branches' companions, classes, fixed directions and closing
    defects on the survey, the generic 200-gons and LARGE_CIRCLES are the
    every-level tree's, bit for bit; errors are the same errors."""
    cases = _companion_cases()
    got = [_outcome(v, L, branch) for v, L in cases for branch in bg.Branch]
    monkeypatch.setattr(monodromy, "_tree", _oracle_tree)
    want = [_outcome(v, L, branch) for v, L in cases for branch in bg.Branch]
    assert len(got) == 2 * (300 + 30 + len(LARGE_CIRCLES))
    assert sum(isinstance(g[1], bg.MonodromyClass) for g in got) > 500
    assert got == want


class _Sides:
    """A stand-in polygon for _tree, which reads only sides(): side vectors
    at scales Polygon refuses (every side must exceed 1e-12)."""

    def __init__(self, sides):
        self._sides = sides

    def __len__(self):
        return len(self._sides)

    def sides(self):
        return self._sides


def _leaf_cases():
    """(name, polygon, typical length): the root cases' polygons, a ring
    scaled to 1e150, and the same ring's sides at 1e-150 and at subnormal
    1e-310 (stand-ins)."""
    out = [(name, v, L) for name, v, L in ROOT_CASES if name != "d6"]
    ring = circle_polygon(np.random.default_rng(7), 2000, 0.02)
    out.append(("ring-1e150", bg.Polygon(ring.vertices * 1e150), 0.9e150))
    for scale in (1e-150, 1e-310):
        out.append((f"sides-{scale:g}", _Sides(ring.sides() * scale), 0.9 * scale))
    return out


LEAF_CASES = _leaf_cases()


@pytest.mark.parametrize("name, v, L", LEAF_CASES, ids=[c[0] for c in LEAF_CASES])
def test_leaves_match_the_rescaled_side_matrices(name, v, L):
    """_tree's leaves take their powers of two from the side columns, the
    largest entry being max(ell + |dx|, |dy|); they are _rescale of the side
    matrices bit for bit, and so is the root's exponent, on a 258-length
    scan grid and at subnormal, tiny and huge lengths."""
    k = len(v)
    grid = np.linspace(0.2 * L, 3.0 * L, 258)
    extremes = np.array([5e-324, 1e-310, 2.0**-1022, 1e-200, 1e200, 1e300])
    for ells in [*np.array_split(grid, 4), extremes]:
        levels, e = monodromy._tree(v, ells)
        want = monodromy._rescale(monodromy._side_matrices(v, ells))[0]
        assert _bits(levels[0][:, :k]) == _bits(want)
        assert e.tolist() == _every_level_tree(v, ells)[-1][1][:, 0].tolist()


def _node_counts(k):
    """Node counts of _tree's levels before padding, the leaves first."""
    counts = [k]
    while counts[-1] > 1:
        counts.append(math.ceil(counts[-1] / 2))
    return counts


@pytest.mark.parametrize("name, v, L", ROOT_CASES, ids=[c[0] for c in ROOT_CASES])
def test_unrescaled_levels_stay_below_2_to_7(name, v, L):
    """Levels 0, 3, 6, ... and the root are rescaled: each node's largest entry
    is in [0.5, 1), the identity pad of an odd level aside.  Every other node
    stays below 2**7, so no product overflows."""
    ells = np.linspace(0.2 * L, 3.0 * L, 8)
    levels, _ = monodromy._tree(v, ells)
    counts = _node_counts(len(v))
    assert [lv.shape[1] for lv in levels] == [c + c % 2 if c > 1 else 1 for c in counts]
    for j, (a, count) in enumerate(zip(levels, counts)):
        top = np.abs(a).max(axis=(2, 3))
        if j % monodromy._RESCALE_EVERY and j < len(levels) - 1:
            assert top.max() < 2.0**7
            continue
        assert np.all((top[:, :count] >= 0.5) & (top[:, :count] < 1.0))
        assert _bits(a[:, count:]) == _bits(np.broadcast_to(np.eye(2), a[:, count:].shape))


@pytest.mark.parametrize("k, arrays", [(3, 2), (4, 2), (8, 2), (9, 3), (24, 3), (200, 4), (2000, 5), (2049, 5)])
def test_rescale_calls_per_tree(monkeypatch, k, arrays):
    """_tree rescales the leaves, levels 3, 6, 9, ... and the root: 5 arrays
    at k = 2000, where the every-level tree rescales 12.  The leaves take
    their powers of two from the side columns, so _rescale is called for the
    others alone: 4 calls at k = 2000."""
    made = []
    real = monodromy._rescale

    def counted(a):
        made.append(a.shape)
        return real(a)

    monkeypatch.setattr(monodromy, "_rescale", counted)
    v = circle_polygon(np.random.default_rng(k), k)
    monodromy._tree(v, np.array([0.95]))
    assert len(made) == arrays - 1
    made.clear()
    _every_level_tree(v, np.array([0.95]))
    assert len(made) == len(_node_counts(k))
