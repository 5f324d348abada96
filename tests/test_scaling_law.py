"""Power-of-two scaling as an exact law.

The bicycle correspondence commutes with similarities, T_{cL}(cV) = c T_L(V).
Multiplying by c = 2**s commutes with every rounded sum, product, quotient
and square root, short of underflow and overflow, and every tolerance in the
package is relative.  So each result below is bit-identical to the unscaled
one times 2**(degree s), or the same named refusal, at every s in SCALES.
Polygon refuses by name below the scales where a squared side stays normal.
"""

import functools
import json
import math
import re

import numpy as np
import pytest

import bicyclegeom as bg
from bicyclegeom import dynamics
from bicyclegeom.cli import main
from bicyclegeom.fileio import save_polygon

from conftest import generic_200gons, random_butterfly, random_nonbutterfly_quad, survey_cases

SCALES = (-500, -200, -30, 30, 200, 500)
BELOW = "side lengths must be at least 1.49167e-154, got "


def _scaled(v, s):
    return bg.Polygon(np.ldexp(v.vertices, s))


@functools.cache
def _branch_ops():
    """(v, L, branch, T_L(v), closure defect) over the first 60 survey cases
    and the generic 200-gons, both branches, wherever transform closes at
    unit scale."""
    out = []
    for v, L in survey_cases()[:60] + generic_200gons():
        for branch in bg.Branch:
            try:
                w, _, _, defect = dynamics._transform(v, L, branch, bg.DEFAULT_TOL)
            except bg.GeometryError:
                continue
            out.append((v, L, branch, w, defect))
    return out


@functools.cache
def _survey():
    """The first 40 survey cases, each with its attracting pair or None."""
    out = []
    for v, L in survey_cases()[:40]:
        try:
            w = bg.transform(v, L)
        except bg.GeometryError:
            w = None
        out.append((v, L, w))
    return out


def _same(call, scaled_call, expect):
    """scaled_call() == expect(call()), or both raise the same error class and message."""
    try:
        want = call()
    except bg.GeometryError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            scaled_call()
        return
    assert scaled_call() == expect(want)


@pytest.mark.parametrize("s", SCALES)
def test_transform(s):
    """The companion and the closure defect the CLI prints, both degree 1 (the
    defect's square, which it used to be read from, goes subnormal at 2**-500)."""
    ops = _branch_ops()
    assert len(ops) == 172
    for v, L, branch, w, defect in ops:
        got, _, _, got_defect = dynamics._transform(_scaled(v, s), math.ldexp(L, s), branch, bg.DEFAULT_TOL)
        assert got.vertices.tolist() == np.ldexp(w.vertices, s).tolist()
        assert got_defect == math.ldexp(defect, s)


@pytest.mark.parametrize("s", SCALES)
def test_invariants_and_recutting(s):
    """The area (degree 2), J (degree 3; the named ValueError where 2**(3 s)
    J leaves the double range), the circumcenter of mass and every recut."""
    for v, _, _ in _survey():
        vs = _scaled(v, s)
        assert bg.signed_area(vs) == math.ldexp(bg.signed_area(v), 2 * s)
        try:
            want = [math.ldexp(x, 3 * s) for x in bg.j_vector(v).tolist()]
        except OverflowError:
            with pytest.raises(ValueError, match="J outside the double range"):
                bg.j_vector(vs)
        else:
            assert bg.j_vector(vs).tolist() == want
        _same(lambda: bg.circumcenter_of_mass(v), lambda: bg.circumcenter_of_mass(vs).tolist(),
              lambda c: np.ldexp(c, s).tolist())
        for i in range(len(v)):
            assert bg.recut(vs, i).vertices.tolist() == np.ldexp(bg.recut(v, i).vertices, s).tolist()


@pytest.mark.parametrize("s", SCALES)
def test_classification_scan(s):
    """Lengths scale; classes, Tr^2/det and the derivatives do not."""
    for v, L, _ in _survey():
        got = bg.classification_scan(_scaled(v, s), math.ldexp(0.25 * L, s), math.ldexp(2.0 * L, s), 16)
        want = bg.classification_scan(v, 0.25 * L, 2.0 * L, 16)
        assert [p._replace(ell=math.ldexp(p.ell, -s)) for p in got] == want


@pytest.mark.parametrize("s", SCALES)
def test_refine_class_boundaries(s):
    """The boundaries scale: the search runs on the scale-free discriminant and
    stops at a relative width, so no tolerance is tied to the unit of length."""
    found = 0
    for v, L, _ in _survey():
        got = bg.refine_class_boundaries(_scaled(v, s), math.ldexp(0.25 * L, s), math.ldexp(2.0 * L, s))
        want = bg.refine_class_boundaries(v, 0.25 * L, 2.0 * L)
        assert got == [math.ldexp(x, s) for x in want]
        found += len(want)
    assert found >= 40


@pytest.mark.parametrize("s", SCALES)
def test_darboux_butterflies(s):
    """Butterflies, the same moved off the locus by 0.5 and 2 eps_geom x their
    span, and quadrilaterals far from it: the same verdict at every scale."""
    rng = np.random.default_rng(7)
    eps = bg.DEFAULT_TOL.eps_geom
    for _ in range(20):
        fly = random_butterfly(rng).vertices
        span = max(float(np.linalg.norm(p - q)) for p in fly for q in fly)
        for factor, want in ((0.0, True), (0.5, True), (2.0, False)):
            moved = fly.copy()
            moved[3, 0] += factor * eps * span
            assert bg.is_darboux_butterfly(np.ldexp(moved, s)) is bg.is_darboux_butterfly(moved) is want
        far = random_nonbutterfly_quad(rng).vertices
        assert bg.is_darboux_butterfly(np.ldexp(far, s)) is bg.is_darboux_butterfly(far) is False


@pytest.mark.parametrize("s", SCALES)
def test_pairs(s):
    """correspondence_check and BicyclePair on transform pairs, the rear
    track's curvatures (degree -1) and the eigenvalue products (degree 0)."""
    pairs = 0
    for v, _, w in _survey():
        if w is None:
            continue
        vs, ws = _scaled(v, s), _scaled(w, s)
        assert bg.correspondence_check(vs, ws) and bg.correspondence_check(ws, vs)
        pair, scaled = bg.BicyclePair(v, w), bg.BicyclePair(vs, ws)
        assert scaled.length == math.ldexp(pair.length, s)
        assert scaled.alphas.tolist() == pair.alphas.tolist()
        _same(lambda: bg.rear_track(pair).curvature, lambda: bg.rear_track(scaled).curvature.tolist(),
              lambda c: np.ldexp(c, -s).tolist())
        _same(lambda: bg.eigenvalue_products(pair), lambda: bg.eigenvalue_products(scaled), lambda x: x)
        pairs += 1
    assert pairs == 38


def _normal(x):
    """Whether x is a normal double, where the law holds bit for bit."""
    return np.finfo(float).tiny <= abs(x) < math.inf


def _pentagon_pair():
    """A pentagon off the origin and its companion at L = 1.1."""
    angs = np.array([0.0, 1.3, 2.9, 4.1, 5.2])
    v = bg.Polygon(1.7 * np.stack([np.cos(angs), np.sin(angs)], axis=1) + (0.3, -0.2))
    return v, bg.transform(v, 1.1)


@pytest.mark.parametrize("s", SCALES)
def test_reported_lengths(s, tmp_path, capsys):
    """Lengths of differences, taken by hypot, not as the root of a square
    that leaves the double range first: the invariants report's deltas
    (perimeter, side multiset and circumcenter of mass degree 1, area
    bivector 2, J 3) on a pentagon pair, the bivector norm of the survey pairs'
    area differences and propagate's closure defect on butterflies (every seed
    closes).  Wherever the scaled value is a normal double it is 2**(degree s)
    times the unscaled one; the report used to read 0.0 (J from s = -200) and
    exit 2 on an inf J delta at s = 200.  At s = 500 J itself leaves the range,
    and the report refuses it by name."""
    degrees = {"perimeter": 1, "area_bivector": 2, "j_vector": 3, "circumcenter_of_mass": 1, "side_multiset": 1}
    deltas = {}
    for scale in (0, s):
        for name, poly in zip("vw", _pentagon_pair()):
            save_polygon(tmp_path / f"{name}.json", _scaled(poly, scale))
        code = main(["invariants", str(tmp_path / "v.json"), str(tmp_path / "w.json"), "--json"])
        out, err = capsys.readouterr()
        if s == 500 and scale:
            assert code == 2 and err.startswith("error: J outside the double range")
            break
        assert code == 0, err
        deltas[scale] = {key: x["value"] for key, x in json.loads(out)["deltas"].items()}
    assert all(x > 0.0 for x in deltas[0].values())
    checked = 0
    for key, unit in deltas[0].items() if s != 500 else ():
        if _normal(want := math.ldexp(unit, degrees[key] * s)):
            assert deltas[s][key] == want, key
            checked += 1
    assert checked == (3 if s == -500 else 0 if s == 500 else 5)  # at -500 the area's and J's are subnormal
    for v, _, w in _survey():
        if w is not None:
            unit = (bg.area_bivector(v) - bg.area_bivector(w)).norm()
            got = (bg.area_bivector(_scaled(v, s)) - bg.area_bivector(_scaled(w, s))).norm()
            assert got == math.ldexp(unit, 2 * s) or not _normal(math.ldexp(unit, 2 * s))
    rng = np.random.default_rng(13)
    flies = [np.array([(0, 0), (1, 2), (4, 0), (3, 2)], dtype=float)]
    flies += [random_butterfly(rng).vertices for _ in range(20)]
    for i, pts in enumerate(flies):
        L, angle = (0.7, 0.3) if i == 0 else (rng.uniform(0.3, 2.0), rng.uniform(-3.0, 3.0))
        seed = pts[0] + L * np.array([math.cos(angle), math.sin(angle)])
        unit = bg.propagate(bg.Polygon(pts), seed).closure_defect
        assert unit > 0.0 or i  # 1.57e-16 on the first; it read 0.0 at s = -500
        assert bg.propagate(_scaled(bg.Polygon(pts), s), np.ldexp(seed, s)).closure_defect == math.ldexp(unit, s)


@pytest.mark.parametrize("s", (-30, 30))
def test_trace_polynomial(s):
    """c_i, the coefficient of ell^(k-i), has degree i."""
    for v, _, _ in _survey():
        want = [math.ldexp(c, i * s) for i, c in enumerate(bg.trace_polynomial(v).coeffs)]
        assert list(bg.trace_polynomial(_scaled(v, s)).coeffs) == want


def test_trace_polynomial_overflows_at_large_scale():
    """A pin on a known defect: the coefficients of every survey polygon x
    2**200 leave the double range in the matrix products, with a raw
    RuntimeWarning; the fix that keeps them as mantissa and exponent has to
    flip this test."""
    for v, _, _ in _survey():
        with pytest.warns(RuntimeWarning):
            bg.trace_polynomial(_scaled(v, 200))


def test_below_the_side_bound_polygon_refuses_by_name():
    """Squared sides must stay normal doubles: the unit square of side 2**-511
    loads, one ulp smaller it is refused naming the bound, as is every
    polygon of the transform law at 2**-540 (it used to be told that its
    consecutive vertices coincide).  A repeated vertex is still degenerate."""
    unit = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    assert bg.Polygon(unit * 2.0**-511).side_lengths().tolist() == [2.0**-511] * 4
    for side in (float(np.nextafter(2.0**-511, 0.0)), 2.0**-540, 2.0**-1070):
        with pytest.raises(ValueError, match=re.escape(f"{BELOW}{side!r}")) as exc:
            bg.Polygon(unit * side)
        assert not isinstance(exc.value, bg.GeometryError)
    for v, *_ in _branch_ops():
        with pytest.raises(ValueError, match=re.escape(BELOW)):
            _scaled(v, -540)
    with pytest.raises(bg.DegenerateLine):
        bg.Polygon(np.ldexp([(0, 0), (0, 0), (1, 1)], -540))
