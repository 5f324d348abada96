"""Each quantity computed once: the invariants report reads one record of
conserved quantities per polygon and checks the pair once, the length scan
reports derivatives without solving for eigenvectors, and the row code
shifts cyclically by slicing instead of np.roll."""

import json
import sys

import numpy as np
import pytest

import bicyclegeom as bg
from bicyclegeom import cli, monodromy
from bicyclegeom.cli import main
from bicyclegeom.fileio import save_polygon
from bicyclegeom.geometry import _cyc

from conftest import propagated_pair_3d, random_butterfly, random_hyperbolic_pair

SQUARE = bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
UNDEFINED = "undefined (zero area)"


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _butterfly_pair(rng):
    """A zero-area butterfly and a companion: its monodromy is the identity,
    so every seed closes, and the companion keeps the zero area."""
    v = random_butterfly(rng)
    length = 0.7 * float(v.side_lengths().min())
    w = bg.propagate(v, v.vertex(0) + length * np.array([0.6, 0.8])).closed_polygon()
    return v, w, length


def _pair(kind, rng):
    if kind == "transform":
        return random_hyperbolic_pair(rng)
    if kind == "butterfly":
        return _butterfly_pair(rng)
    return propagated_pair_3d(rng)


def _bind_all(monkeypatch, name):
    """Count the calls of bicyclegeom's function name through every module
    binding; returns the list of first arguments."""
    calls = []
    real = getattr(bg, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if modname.startswith("bicyclegeom") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def _expected(v, w, tol=bg.DEFAULT_TOL):
    """The report's conserved-quantity entries from the public functions."""

    def entry(x):
        return {"value": x, "tol": tol.eps_geom}

    def ccm(p):
        try:
            return bg.circumcenter_of_mass(p, tol)
        except bg.ZeroArea:
            return None

    sections = {}
    for section, p in (("polygon", v), ("second", w)):
        rep = {}
        biv = bg.area_bivector(p)
        rep["area_bivector"] = entry(biv.scalar if p.dim == 2 else biv.upper)
        if p.dim == 2:
            rep["signed_area"] = entry(bg.signed_area(p))
        rep["j_vector"] = entry(bg.j_vector(p))
        if p.dim == 2:
            rep["circumcenter_of_mass"] = UNDEFINED if ccm(p) is None else entry(ccm(p))
        sections[section] = rep
    deltas = {
        "area_bivector": entry((bg.area_bivector(v) - bg.area_bivector(w)).norm()),
        "j_vector": entry(float(np.linalg.norm(bg.j_vector(v) - bg.j_vector(w)))),
    }
    if v.dim == 2:
        cv, cw = ccm(v), ccm(w)
        deltas["circumcenter_of_mass"] = (
            UNDEFINED if cv is None or cw is None else entry(float(np.linalg.norm(cv - cw)))
        )
    sections["deltas"] = deltas
    return sections


def _text_sections(text):
    """Lines of the text report grouped under their unindented heading."""
    out, heading = {}, None
    for line in text.splitlines():
        if line.startswith("  "):
            out[heading].append(line)
        else:
            heading = line.split()[0]
            out[heading] = []
    return out


@pytest.fixture
def pair_files(tmp_path):
    def write(v, w):
        vfile, wfile = tmp_path / "v.json", tmp_path / "w.json"
        save_polygon(vfile, v)
        save_polygon(wfile, w)
        return str(vfile), str(wfile)

    return write


class TestReportEqualsPublicFunctions:
    @pytest.mark.parametrize("kind", ["transform", "butterfly", "dim3"])
    def test_json(self, kind, rng, pair_files, capsys):
        v, w, length = _pair(kind, rng)
        assert main(["invariants", *pair_files(v, w), "--ell", repr(length), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["is_bicycle_pair"] is True
        for section, entries in _expected(v, w).items():
            for key, want in entries.items():
                got = data[section][key]
                if want == UNDEFINED:
                    assert got == UNDEFINED, (section, key)
                else:
                    assert _bits(got["value"]) == _bits(want["value"]), (section, key)
        if kind == "butterfly":
            assert data["polygon"]["circumcenter_of_mass"] == UNDEFINED
            assert data["deltas"]["circumcenter_of_mass"] == UNDEFINED

    @pytest.mark.parametrize("kind", ["transform", "butterfly", "dim3"])
    def test_text(self, kind, rng, pair_files, capsys):
        v, w, length = _pair(kind, rng)
        assert main(["invariants", *pair_files(v, w), "--ell", repr(length)]) == 0
        lines = _text_sections(capsys.readouterr().out)
        for section, entries in _expected(v, w).items():
            for key, want in entries.items():
                rendered = cli._render_report({section: {key: want}}, False).splitlines()[1]
                assert rendered in lines[section], (section, key)


class TestComputedOnce:
    @pytest.fixture
    def counts(self, monkeypatch):
        return {name: _bind_all(monkeypatch, name) for name in ("area_bivector", "j_vector", "correspondence_check")}

    @pytest.mark.parametrize("kind", ["transform", "butterfly", "dim3"])
    def test_two_polygons(self, kind, rng, pair_files, counts, capsys):
        v, w, length = _pair(kind, rng)
        assert main(["invariants", *pair_files(v, w), "--ell", repr(length), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["is_bicycle_pair"] is True
        for name in ("area_bivector", "j_vector"):
            polys = counts[name]
            assert len(polys) == 2 and polys[0] is not polys[1], name
        assert len(counts["correspondence_check"]) == 1

    def test_one_polygon(self, tmp_path, counts, capsys):
        path = tmp_path / "square.json"
        save_polygon(path, SQUARE)
        assert main(["invariants", str(path), "--ell", "1.2"]) == 0
        assert [len(counts[name]) for name in counts] == [1, 1, 0]

    def test_rear_track_checks_the_pair_once(self, rng, pair_files, counts, capsys):
        v, w, _length = random_hyperbolic_pair(rng)
        assert main(["rear-track", *pair_files(v, w), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["tangency_points"]
        assert len(counts["correspondence_check"]) == 1

    @pytest.mark.parametrize("command", ["invariants", "rear-track"])
    def test_non_pair_checked_once(self, pair_files, counts, capsys, command):
        """BicyclePair's own check decides: a non-pair is reported (invariants)
        or refused with exit 1 (rear-track), after one correspondence_check."""
        other = bg.Polygon(SQUARE.vertices * 1.5)
        code = main([command, *pair_files(SQUARE, other), "--json"])
        captured = capsys.readouterr()
        if command == "invariants":
            assert code == 0
            data = json.loads(captured.out)
            assert data["is_bicycle_pair"] is False and "frame_length" not in data
        else:
            assert code == 1 and captured.out == ""
            assert captured.err == "error: polygons are not in the bicycle correspondence\n"
        assert len(counts["correspondence_check"]) == 1

    def test_circumcenter_of_mass_reads_one_record(self, counts):
        assert _bits(bg.circumcenter_of_mass(SQUARE)) == _bits([0.5, 0.5])
        assert [len(counts[name]) for name in counts] == [1, 1, 0]


class TestMismatchedInputs:
    """Two polygons that cannot be compared fail before any report, naming both sizes."""

    def test_vertex_counts(self, pair_files, capsys):
        triangle = bg.Polygon([(0, 0), (1, 0), (0, 1)])
        assert main(["invariants", *pair_files(SQUARE, triangle)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the two polygons differ in vertex count: 4 vs 3\n"

    def test_dimensions(self, pair_files, capsys):
        space = bg.Polygon(np.c_[SQUARE.vertices, np.zeros(4)])
        assert main(["invariants", *pair_files(SQUARE, space), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the two polygons differ in dimension: 2 vs 3\n"


class TestScanSkipsEigenvectors:
    def test_scan_points_are_tuples(self):
        assert monodromy.ScanPoint._fields == ("ell", "klass", "invariant", "derivatives")
        point = bg.classification_scan(SQUARE, 1.05, 2.2, 8)[0]
        assert isinstance(point, tuple)
        assert point == (point.ell, point.klass, point.invariant, point.derivatives)

    def test_no_fixed_directions_solved(self, monkeypatch):
        calls = []
        real = monodromy._fixed_row
        monkeypatch.setattr(monodromy, "_fixed_row", lambda *a: calls.append(a) or real(*a))
        points = bg.classification_scan(SQUARE, 0.2, 3.0, 40)
        assert sum(p.derivatives is not None for p in points) > 0
        assert calls == []


class TestCyclicShift:
    @pytest.mark.parametrize("k", [3, 4, 2000])
    def test_equals_roll(self, k):
        rng = np.random.default_rng(k)
        arrays = [
            rng.normal(size=k),
            rng.normal(size=k) > 0.0,
            rng.normal(size=(k, 2)),
            rng.normal(size=(k, 3)),
        ]
        for x in arrays:
            for s in range(-k - 1, k + 2):
                got, want = _cyc(x, s), np.roll(x, -s, axis=0)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (x.shape, s)
