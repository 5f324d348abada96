"""Power-of-two scaling as an exact law.

The bicycle correspondence commutes with similarities, T_{cL}(cV) = c T_L(V).
Multiplying by c = 2**s commutes with every rounded sum, product, quotient
and square root, short of underflow and overflow, and every tolerance in the
package is relative.  So each result below is bit-identical to the unscaled
one times 2**(degree s), or the same named refusal, at every s in SCALES.
Polygon refuses by name below the scales where a squared side stays normal.
"""

import functools
import math
import re

import numpy as np
import pytest

import bicyclegeom as bg

from conftest import generic_200gons, survey_cases

SCALES = (-500, -200, -30, 30, 200, 500)
BELOW = "side lengths must be at least 1.49167e-154, got "


def _scaled(v, s):
    return bg.Polygon(np.ldexp(v.vertices, s))


@functools.cache
def _branch_ops():
    """(v, L, branch, T_L(v)) over the first 60 survey cases and the generic
    200-gons, both branches, wherever transform closes at unit scale."""
    out = []
    for v, L in survey_cases()[:60] + generic_200gons():
        for branch in bg.Branch:
            try:
                out.append((v, L, branch, bg.transform(v, L, branch)))
            except bg.GeometryError:
                continue
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
    ops = _branch_ops()
    assert len(ops) == 172
    for v, L, branch, w in ops:
        got = bg.transform(_scaled(v, s), math.ldexp(L, s), branch)
        assert got.vertices.tolist() == np.ldexp(w.vertices, s).tolist()


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
    for v, _, _, _ in _branch_ops():
        with pytest.raises(ValueError, match=re.escape(BELOW)):
            _scaled(v, -540)
    with pytest.raises(bg.DegenerateLine):
        bg.Polygon(np.ldexp([(0, 0), (0, 0), (1, 1)], -540))
