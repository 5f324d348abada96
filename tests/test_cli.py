"""Command-line driver: file round trips, exit codes, report output, SVG
determinism."""

import itertools
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest

import bicyclegeom as bg
from bicyclegeom import cli, dynamics, monodromy
from bicyclegeom.cli import main
from bicyclegeom.fileio import PolygonFileError, load_polygon, polygon_from_dict, save_polygon
from bicyclegeom.svg import PALETTE

from conftest import bench_reference, circle_polygon, overflow_recipe, polygon_scale, random_butterfly, random_polygon

SQUARE = bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    save_polygon(path, bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)], name="square"))
    return str(path)


class TestFileRoundTrip:
    def test_exact_round_trip(self, tmp_path, rng):
        v = random_polygon(rng, k=6)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_polygon(p1, v)
        loaded = load_polygon(p1)
        assert loaded.vertices.tolist() == v.vertices.tolist()
        save_polygon(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["invariants", str(bad)]) == 2

    def test_declared_dim_mismatch(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 3, "vertices": [[0, 0], [1, 0], [0, 1]]}))
        assert main(["invariants", str(bad)]) == 2

    @pytest.mark.parametrize("dim", [[2], "2", 2.9, True], ids=["list", "string", "fraction", "bool"])
    def test_declared_dim_must_be_the_number(self, tmp_path, capsys, dim):
        """Only a JSON number equal to the vertex dimension passes: a list, a
        numeric string, a fraction or a boolean exits 2 naming the value."""
        data = {"dim": dim, "vertices": [[0, 0], [1, 0], [0, 1]]}
        with pytest.raises(PolygonFileError, match="does not match vertices of dim 2"):
            polygon_from_dict(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["invariants", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: declared dim {dim!r} does not match vertices of dim 2\n"

    @pytest.mark.parametrize("dim", [2, 2.0])
    def test_declared_dim_as_a_number_passes(self, dim):
        assert polygon_from_dict({"dim": dim, "vertices": [[0, 0], [1, 0], [0, 1]]}).dim == 2


class TestTransformCommand:
    def test_hyperbolic_transform_writes_output(self, square_file, tmp_path, capsys):
        out = tmp_path / "w.json"
        code = main(["transform", square_file, "--ell", "1.2", "-o", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "closure defect" in text
        assert "branch eigenvalue" in text
        w = load_polygon(out)
        v = load_polygon(square_file)
        assert bg.correspondence_check(v, w)

    def test_elliptic_exits_2_with_range(self, square_file, capsys):
        code = main(["transform", square_file, "--ell", "2.0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "elliptic" in err
        assert f"{math.sqrt(2):.6f}"[:6] in err  # names the boundary

    @pytest.mark.parametrize("branch", list(bg.Branch))
    def test_3d_polygon_exits_2(self, tmp_path, rng, capsys, branch):
        v = random_polygon(rng, k=5, dim=3)
        with pytest.raises(bg.DimensionMismatch):
            bg.transform(v, 0.3, branch)
        path = tmp_path / "v3.json"
        save_polygon(path, v)
        assert main(["transform", str(path), "--ell", "0.3", "--branch", branch.value]) == 2
        assert capsys.readouterr().err == "error: the closed transformation is defined for plane polygons\n"

    def test_butterfly_any_seed_closes(self, tmp_path, rng, capsys):
        path = tmp_path / "fly.json"
        save_polygon(path, random_butterfly(rng))
        out = tmp_path / "w.json"
        code = main(
            ["transform", str(path), "--ell", "1.4", "--seed-angle", "37.0", "-o", str(out)]
        )
        assert code == 0
        assert "closure defect" in capsys.readouterr().out

    @pytest.mark.parametrize("ell", ["nan", "inf", "0", "-1"])
    def test_length_outside_the_range_exits_2(self, square_file, capsys, ell):
        """Refused by name, with no RuntimeWarning on the way: NaN used to exit
        2 with the zero-frame message, inf to warn from the side tree."""
        for extra in ([], ["--seed-angle", "30"], ["--branch", "repelling"]):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                assert main(["transform", square_file, "--ell", ell, *extra]) == 2
            assert not seen
            err = capsys.readouterr().err
            assert err == f"error: length parameter must be positive and finite, got {float(ell)!r}\n"

    def test_coordinates_whose_squares_overflow_exit_2(self, tmp_path, capsys):
        """The unit square scaled by 1e155 had infinite side lengths: transform
        warned and called the length a side length, invariants warned seven
        times and named an infinite perimeter."""
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"vertices": [[0, 0], [1e155, 0], [1e155, 1e155], [0, 1e155]]}))
        for argv in (["transform", str(path), "--ell", "1.2e155"], ["invariants", str(path), "--json"]):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                assert main(argv) == 2
            assert not seen
            assert "vertex coordinates must be finite and at most 3.35195e+153, got 1e+155" in capsys.readouterr().err

    def test_seed_angle_on_3d_polygon_exits_2(self, tmp_path, rng, capsys):
        """The seed angle is a plane angle: refused by name before any seed
        is built, not with numpy's broadcast error."""
        path = tmp_path / "v3.json"
        save_polygon(path, random_polygon(rng, k=5, dim=3))
        assert main(["transform", str(path), "--ell", "0.3", "--seed-angle", "30"]) == 2
        assert capsys.readouterr().err == "error: --seed-angle is a plane angle; the polygon has dimension 3\n"

    def test_generic_seed_fails_closure(self, square_file, capsys):
        code = main(["transform", square_file, "--ell", "1.2", "--seed-angle", "10.0"])
        assert code == 1

    @pytest.mark.parametrize("branch", ["attracting", "repelling"])
    def test_report_matches_library_from_one_propagation(
        self, tmp_path, rng, capsys, monkeypatch, branch
    ):
        v = circle_polygon(rng, 200, noise=0.02)
        path = tmp_path / "v.json"
        save_polygon(path, v)
        L = 0.95
        mob = bg.polygon_monodromy(v, L)
        dirs = bg.fixed_directions(mob)
        fd = dirs[0] if branch == "attracting" else dirs[-1]
        defect = dynamics._transform(v, L, bg.Branch(branch), bg.DEFAULT_TOL)[3]
        calls = []
        real = dynamics.propagate

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):  # count calls through every binding
            if name.startswith("bicyclegeom") and getattr(module, "propagate", None) is real:
                monkeypatch.setattr(module, "propagate", counted)
        assert main(["transform", str(path), "--ell", str(L), "--branch", branch]) == 0
        out = capsys.readouterr().out
        assert f"monodromy class: {bg.classify(mob).value}\n" in out
        assert f"branch eigenvalue: {fd.derivative:.12g}\n" in out
        assert f"closure defect: {defect:.6e}\n" in out
        assert len(calls) == 0  # the companion comes from the tree's down-sweep, not the loop


PENTAGON = np.stack([np.cos(0.4 * math.pi * np.arange(5)), np.sin(0.4 * math.pi * np.arange(5))], axis=1)


def _two_ranges(v):
    info = bg.classify_quadrilateral(v)
    return f"elliptic for L in (0, {info.r1 - info.r2:.12g}) and ({info.r1 + info.r2:.12g}, inf)"


class TestEllipticHint:
    """The error of an elliptic transform names where the class is elliptic."""

    @pytest.mark.parametrize(
        "vertices, ell, hint",
        [
            ([(0, 0), (3, 0.5), (2.5, 2), (0.2, 1.5)], 0.05, _two_ranges),
            ([(0, 0), (0.3, 1), (2, 0), (1.5, 1)], 0.5, lambda v: "elliptic for L in (0, 1)"),
            (PENTAGON, 2.5, lambda v: "elliptic for L > 2 (circumdiameter)"),
            (PENTAGON * [[1], [1.2], [1], [0.9], [1.1]], 2.5, lambda v: "no real fixed direction at this length"),
        ],
        ids=["generic-quadrilateral", "parallel-diagonals", "cyclic", "other"],
    )
    def test_message(self, tmp_path, capsys, vertices, ell, hint):
        v = bg.Polygon(vertices)
        path = tmp_path / "v.json"
        save_polygon(path, v)
        assert main(["transform", str(path), "--ell", str(ell)]) == 2
        assert capsys.readouterr().err == f"error: monodromy is elliptic at L={ell}: {hint(v)}\n"


class TestPolygonStdout:
    @pytest.mark.parametrize("command", [["transform", "--ell", "1.2"], ["recut", "-i", "1"]])
    def test_stdout_matches_output_file(self, square_file, tmp_path, capsys, command):
        """The printed polygon is the document -o writes, name included."""
        out = tmp_path / "w.json"
        assert main([command[0], square_file, *command[1:], "-o", str(out)]) == 0
        assert main([command[0], square_file, *command[1:]]) == 0
        printed = polygon_from_dict(json.loads(capsys.readouterr().out.splitlines()[-1]))
        saved = load_polygon(out)
        assert printed.name == saved.name == "square"
        assert printed.vertices.tolist() == saved.vertices.tolist()


class TestInvariantsCommand:
    def test_pair_deltas_near_zero(self, square_file, tmp_path, capsys):
        v = load_polygon(square_file)
        w = bg.transform(v, 1.2)
        wfile = tmp_path / "w.json"
        save_polygon(wfile, w)
        code = main(["invariants", square_file, str(wfile), "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["is_bicycle_pair"] is True
        for key in ("perimeter", "area_bivector", "j_vector", "circumcenter_of_mass"):
            assert abs(data["deltas"][key]["value"]) < 1e-9

    def test_trace_poly_odd_coefficients(self, square_file, capsys):
        code = main(["invariants", square_file, "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        coeffs = data["polygon"]["trace_poly_coeffs"]["value"]
        assert abs(coeffs[1]) < 1e-12 and abs(coeffs[3]) < 1e-12

    def test_ccm_of_far_translated_square(self, tmp_path, capsys):
        path = tmp_path / "far.json"
        save_polygon(path, bg.Polygon(SQUARE.vertices + 1e8))
        assert main(["invariants", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["polygon"]["circumcenter_of_mass"]["value"] == [1e8 + 0.5, 1e8 + 0.5]

    def test_zero_area_ccm_reported_undefined(self, tmp_path, rng, capsys):
        path = tmp_path / "fly.json"
        save_polygon(path, random_butterfly(rng))
        code = main(["invariants", str(path)])
        assert code == 0
        assert "undefined (zero area)" in capsys.readouterr().out


class TestScanCommand:
    def test_square_boundary_bracketed(self, square_file, capsys):
        code = main(["scan", square_file, "--grid", "1.05:2.2:25", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert any(abs(b - math.sqrt(2)) < 1e-9 for b in data["boundaries"])
        classes = {row["class"] for row in data["grid"]}
        assert {"hyperbolic", "elliptic"} <= classes

    @pytest.mark.parametrize("grid", ["0.1:nan:4", "nan:2:4", "0.1:inf:4"])
    def test_non_finite_grid_exits_2(self, square_file, capsys, grid):
        """A NaN end used to return NaN-length points classed parabolic."""
        assert main(["scan", square_file, "--grid", grid, "--json"]) == 2
        lmin, lmax, _ = grid.split(":")
        assert f"got lmin={float(lmin)!r} lmax={float(lmax)!r}" in capsys.readouterr().err

    def test_butterfly_scan_identity_everywhere(self, tmp_path, rng, capsys):
        path = tmp_path / "fly.json"
        save_polygon(path, random_butterfly(rng))
        code = main(["scan", str(path), "--grid", "0.5:3.0:11", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert all(row["class"] == "identity" for row in data["grid"])


class TestSvgCommand:
    def test_byte_identical_reruns(self, square_file, tmp_path):
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        for out in (out1, out2):
            assert main(["svg", square_file, "--ell", "1.2", "-o", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().startswith("<?xml")

    def test_rear_track_figure(self, square_file, tmp_path):
        v = load_polygon(square_file)
        w = bg.transform(v, 1.2)
        wfile = tmp_path / "w.json"
        save_polygon(wfile, w)
        out = tmp_path / "chain.svg"
        code = main(["svg", square_file, str(wfile), "--rear-track", "-o", str(out)])
        assert code == 0
        assert "<circle" in out.read_text()

    def test_ngon_figure(self, tmp_path):
        out = tmp_path / "ngon.svg"
        assert main(["svg", "--ngon", "12", "3", "-o", str(out)]) == 0
        assert "<polygon" in out.read_text()

    @pytest.mark.parametrize(
        "argv, error",
        [
            ([], "nothing to draw: give polygon files or --ngon N K"),
            (["{sq}", "--rear-track"], "--rear-track needs two polygon files (the corresponding pair)"),
        ],
        ids=["nothing", "rear-track-one-file"],
    )
    def test_missing_inputs_exit_2(self, square_file, tmp_path, capsys, argv, error):
        out = tmp_path / "fig.svg"
        assert main(["svg", *[a.format(sq=square_file) for a in argv], "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_rejects_3d(self, tmp_path, rng):
        path = tmp_path / "v3.json"
        save_polygon(path, random_polygon(rng, dim=3))
        assert main(["svg", str(path)]) == 2

    def test_rear_track_of_a_non_pair_exits_1(self, square_file, tmp_path, capsys):
        """A verification failure, as in rear-track: the unit square against
        its translate by 1e4, with BicyclePair's message and no figure."""
        other = tmp_path / "far.json"
        save_polygon(other, load_polygon(square_file).translated((1e4, 0.0)))
        out = tmp_path / "chain.svg"
        assert main(["rear-track", square_file, str(other)]) == 1
        expected = capsys.readouterr().err
        assert expected == "error: polygons are not in the bicycle correspondence\n"
        assert main(["svg", square_file, str(other), "--rear-track", "-o", str(out)]) == 1
        assert capsys.readouterr().err == expected
        assert not out.exists()


class TestNgonCommand:
    def test_construct_and_write(self, tmp_path, capsys):
        out = tmp_path / "ngon.json"
        code = main(["ngon", "12", "3", "1.0", "0.7", "-o", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "PASS" in text and "worst residual" in text
        v = load_polygon(out)
        assert bg.ngon_verify(v, 3)

    def test_verify_regular_octagon(self, tmp_path, capsys):
        ang = 2 * math.pi * np.arange(8) / 8
        octagon = bg.Polygon(np.stack([np.cos(ang), np.sin(ang)], axis=1))
        path = tmp_path / "oct.json"
        save_polygon(path, octagon)
        assert main(["ngon", "--verify", str(path), "8", "2"]) == 0

    def test_verify_perturbed_octagon_fails(self, tmp_path, capsys):
        ang = 2 * math.pi * np.arange(8) / 8
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        pts[3] += (1e-3, -5e-4)
        path = tmp_path / "oct.json"
        save_polygon(path, bg.Polygon(pts))
        code = main(["ngon", "--verify", str(path), "8", "2"])
        assert code == 1
        text = capsys.readouterr().out
        assert "FAIL" in text and "worst residual" in text and "index" in text


class TestRecutCommand:
    def test_double_recut_restores(self, tmp_path, rng):
        v = random_polygon(rng, k=5)
        path = tmp_path / "v.json"
        save_polygon(path, v)
        out = tmp_path / "r.json"
        assert main(["recut", str(path), "-i", "2", "-i", "2", "-o", str(out)]) == 0
        back = load_polygon(out)
        assert np.abs(back.vertices - v.vertices).max() < 1e-12 * polygon_scale(v)

    def test_follows_the_tolerance(self, tmp_path, capsys):
        """Neighbours 1e-6 apart are coincident under --tol 1e-3, not under the
        default; recut used to take the default whatever --tol said."""
        path = tmp_path / "v.json"
        save_polygon(path, bg.Polygon([(1, 0), (2, 1), (1 + 1e-6, 0), (1.5, -1)]))
        assert main(["recut", str(path), "-i", "1", "--tol", "1e-3"]) == 2
        assert capsys.readouterr().err == "error: perpendicular bisector of coincident points\n"
        assert main(["recut", str(path), "-i", "1"]) == 0


class TestRearTrackCommand:
    def test_reports_midpoint_tangencies(self, square_file, tmp_path, capsys):
        v = load_polygon(square_file)
        w = bg.transform(v, 1.2)
        wfile = tmp_path / "w.json"
        save_polygon(wfile, w)
        code = main(["rear-track", square_file, str(wfile), "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        q = np.array(data["tangency_points"])
        assert np.abs(q - 0.5 * (v.vertices + w.vertices)).max() < 1e-12
        assert abs(data["eigenvalue_vw"] - data["eigenvalue_chain"]) < 1e-10

    def test_non_pair_exits_1(self, square_file, tmp_path, rng):
        other = tmp_path / "other.json"
        save_polygon(other, random_polygon(rng, k=4))
        assert main(["rear-track", square_file, str(other)]) == 1

    @pytest.fixture
    def straight_files(self, tmp_path):
        """The straight-member pair of TestRearTrack: vertices 0 and pi are
        antipodal, so slot 0+1/2 of the chain is a straight line."""
        angs = np.array([0.0, math.pi, 3.9, 4.7, 5.5])
        v = bg.Polygon(2.0 * np.stack([np.cos(angs), np.sin(angs)], axis=1))
        paths = [tmp_path / "v.json", tmp_path / "w.json"]
        save_polygon(paths[0], v)
        save_polygon(paths[1], bg.rotation_transform(v, 1.3))
        return [str(path) for path in paths]

    def test_straight_member_json(self, straight_files, capsys):
        assert main(["rear-track", *straight_files, "--json"]) == 0
        circles = json.loads(capsys.readouterr().out)["circles"]
        assert [c["radius"] is None for c in circles] == [True, False, False, False, False]
        for c in circles:
            straight = c["radius"] is None
            assert (c["center"] is None) == straight
            assert (c["line_direction"] is None) != straight
            assert (c["curvature"] == 0.0) == straight
        assert abs(math.hypot(*circles[0]["line_direction"]) - 1.0) < 1e-15
        assert main(["invariants", *straight_files, "--json"]) == 0
        radii = json.loads(capsys.readouterr().out)["rear_track_radii"]["value"]
        assert radii == [c["radius"] for c in circles]

    def test_straight_member_text(self, straight_files, capsys):
        assert main(["rear-track", *straight_files]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines.index("circles") + 1
        assert lines[header].split() == ["center", "curvature", "radius", "line_direction"]
        rows = [re.split(r"\s{2,}", line.strip()) for line in lines[header + 1 : header + 6]]
        assert [row[0] == "-" and row[2] == "-" for row in rows] == [True, False, False, False, False]
        for row in rows:
            assert len(row) == 4
            assert (row[3] == "-") != (row[0] == "-")
        assert lines[header + 6].startswith("tangency_points")

    def test_straight_member_figure(self, straight_files, tmp_path):
        """One straight member drawn as a line between its tangency points,
        four circles, all in the chain's colour."""
        out = tmp_path / "chain.svg"
        assert main(["svg", *straight_files, "--rear-track", "-o", str(out)]) == 0
        text = out.read_text()
        assert len(re.findall(f'<circle [^>]*fill="none" stroke="{PALETTE[1]}"', text)) == 4
        assert len(re.findall(f'<line [^>]*stroke="{PALETTE[1]}"', text)) == 1

    def test_eigenvalue_outside_double_range_exits_2(self, tmp_path, capsys):
        v = circle_polygon(np.random.default_rng(1), 2000)
        paths = [tmp_path / "v.json", tmp_path / "w.json"]
        save_polygon(paths[0], v)
        save_polygon(paths[1], bg.rotation_transform(v, 0.005))
        assert main(["rear-track", *map(str, paths)]) == 2
        assert "eigenvalue outside the double range" in capsys.readouterr().err


def _numeric_leaves(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for item in doc for x in _numeric_leaves(item)]
    return [doc] if isinstance(doc, (int, float)) else []


class TestTextReports:
    """scan and rear-track print the document their --json writes, through
    the one report renderer: lists of records as tables."""

    def test_records_render_as_table(self):
        doc = {
            "rows": [
                {"L": 0.5, "class": "hyperbolic", "eig": [1.0, 2.0]},
                {"L": 1.25, "class": "elliptic", "eig": None},
            ]
        }
        assert cli._render_report(doc, False) == (
            "rows\n"
            "  L     class       eig\n"
            "  0.5   hyperbolic  [1, 2]\n"
            "  1.25  elliptic    -\n"
        )

    @pytest.mark.parametrize(
        "argv, records",
        [(["scan", "{v}", "--grid", "1.05:2.2:25"], "grid"), (["rear-track", "{v}", "{w}"], "circles")],
        ids=["scan", "rear-track"],
    )
    @pytest.mark.parametrize("polygon", ["square", "noisy-circle"])
    def test_text_shows_every_json_number(self, tmp_path, capsys, argv, records, polygon):
        if polygon == "square":
            v, ell = SQUARE, 1.2
        else:
            v, ell = circle_polygon(np.random.default_rng(0), 200, noise=0.02), 0.95
        paths = {"v": tmp_path / "v.json", "w": tmp_path / "w.json"}
        save_polygon(paths["v"], v)
        save_polygon(paths["w"], bg.transform(v, ell))
        argv = [a.format(**paths) for a in argv]
        assert main([*argv, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert text == cli._render_report(doc, False)
        leaves = _numeric_leaves(doc)
        assert leaves and all(cli._scalar(x) in text for x in leaves)
        lines = text.splitlines()
        header = lines.index(records) + 1
        assert lines[header].split() == list(doc[records][0])
        rows = itertools.takewhile(lambda line: line.startswith("  "), lines[header + 1 :])
        assert len(list(rows)) == len(doc[records])


class TestOverflowRecipe:
    """The raw side product passes 1e200 (k = 150) and the double range
    (k = 500); the 50-digit reference calls every length here elliptic."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [150, 200, 500])
    def test_scan_and_invariants_elliptic(self, tmp_path, capsys, k):
        v, L = overflow_recipe(k)
        path = str(tmp_path / "v.json")
        save_polygon(path, v)
        assert main(["scan", path, "--grid", f"{0.9 * L!r}:{1.1 * L!r}:5", "--json"]) == 0
        grid = json.loads(capsys.readouterr().out)["grid"]
        ref = bench_reference()
        want = [ref.classify(v.vertices, p["L"]).klass for p in grid]
        assert [p["class"] for p in grid] == want == ["elliptic"] * 5
        assert main(["invariants", path, "--ell", repr(L), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["polygon"]["monodromy_class_at_L"] == "elliptic"


class TestBianchiCommand:
    @staticmethod
    def _triple(tmp_path):
        """Files of a pentagon V and its rotation companions W and S."""
        ang = 2 * math.pi * np.arange(5) / 5
        v = bg.Polygon(np.stack([np.cos(ang), np.sin(ang)], axis=1) * 2.0)
        polys = (v, bg.rotation_transform(v, 1.0), bg.rotation_transform(v, 1.6))
        paths = []
        for name, poly in zip("vws", polys):
            p = tmp_path / f"{name}.json"
            save_polygon(p, poly)
            paths.append(str(p))
        return polys, paths

    def test_valid_triple(self, tmp_path, capsys):
        (_, w, s), paths = self._triple(tmp_path)
        out = tmp_path / "t.json"
        code = main(["bianchi", *paths, "-o", str(out)])
        assert code == 0
        assert capsys.readouterr().out == f"correspondence S~T and W~T: PASS\nwrote {out}\n"
        t = load_polygon(out)
        assert bg.correspondence_check(s, t)
        assert bg.correspondence_check(w, t)

    def test_three_pair_checks_per_call(self, tmp_path, monkeypatch):
        """V ~ W and V ~ S are checked on input and W ~ T inside
        bianchi_fourth_polygon, which builds S ~ T under the step bound; the
        command checks nothing again."""
        _, paths = self._triple(tmp_path)
        calls = []
        real = dynamics.correspondence_check

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dynamics, "correspondence_check", counted)
        monkeypatch.setattr(cli, "correspondence_check", counted)
        assert main(["bianchi", *paths, "-o", str(tmp_path / "t.json")]) == 0
        assert len(calls) == 3

    def test_non_pair_inputs_exit_2(self, tmp_path, rng):
        paths = []
        for name in "vws":
            p = tmp_path / f"{name}.json"
            save_polygon(p, random_polygon(rng, k=4))
            paths.append(str(p))
        assert main(["bianchi", *paths]) == 2


class TestUnwritableOutput:
    """An -o path that cannot be opened for writing exits 2 with one stderr
    line naming it, as the reader does for a file it cannot read; the lines
    printed before the write stay on stdout."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["transform", "{sq}", "--ell", "1.2"],
            ["svg", "{sq}", "--ell", "1.2"],
            ["ngon", "12", "3"],
            ["recut", "{sq}", "-i", "1"],
            ["bianchi", "{sq}", "{w}", "{w}"],
        ],
        ids=["transform", "svg", "ngon", "recut", "bianchi"],
    )
    def test_exits_2_naming_the_path(self, square_file, tmp_path, capsys, argv):
        companion = tmp_path / "w.json"
        save_polygon(companion, bg.transform(SQUARE, 1.2))
        argv = [a.format(sq=square_file, w=companion) for a in argv]
        good, out = tmp_path / "out", tmp_path / "missing" / "out"
        capsys.readouterr()
        assert main([*argv, "-o", str(good)]) == 0
        printed = capsys.readouterr().out.removesuffix(f"wrote {good}\n")
        assert main([*argv, "-o", str(out)]) == 2
        assert capsys.readouterr() == (
            printed, f"error: cannot write {out}: [Errno 2] No such file or directory: '{out}'\n"
        )
        assert not out.parent.exists()

    def test_save_polygon_raises_the_file_error(self, tmp_path):
        out = tmp_path / "missing" / "v.json"
        with pytest.raises(PolygonFileError, match=re.escape(f"cannot write {out}: [Errno 2]")):
            save_polygon(out, SQUARE)


class TestToleranceEnv:
    def test_not_a_number_is_named(self, square_file, monkeypatch, capsys):
        """Used to exit 2 with float()'s "could not convert string to float"."""
        monkeypatch.setenv("BICYCLE_TOL", "abc")
        assert main(["invariants", square_file]) == 2
        assert capsys.readouterr() == ("", "error: BICYCLE_TOL must be a number, got 'abc'\n")

    def test_env_override(self, square_file, monkeypatch, capsys):
        monkeypatch.setenv("BICYCLE_TOL", "1e-6")
        code = main(["invariants", square_file, "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tolerance"] == 1e-6

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
    def test_tolerance_outside_the_range_exits_2(self, square_file, monkeypatch, capsys, tol):
        """Refused by name: --tol nan used to exit 2 with "zero frame segment",
        --tol inf with "coincides with a side length"."""
        want = f"error: eps_geom must be positive and finite, got {float(tol)!r}\n"
        assert main(["transform", square_file, "--ell", "1.2", f"--tol={tol}"]) == 2
        assert capsys.readouterr().err == want
        monkeypatch.setenv("BICYCLE_TOL", tol)
        assert main(["invariants", square_file]) == 2
        assert capsys.readouterr().err == want


@pytest.fixture
def classify_calls(monkeypatch):
    """Rows passed to the one row classifier, counted through every bicyclegeom binding."""
    calls = []
    real = monodromy._classify_row

    def counted(row, *args, **kwargs):
        calls.append(row)
        return real(row, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("bicyclegeom") and getattr(module, "_classify_row", None) is real:
            monkeypatch.setattr(module, "_classify_row", counted)
    return calls


class TestClassifyOncePerMonodromy:
    """Each monodromy is classified once; its fixed directions reuse that class."""

    @pytest.mark.parametrize("branch", list(bg.Branch))
    def test_transform(self, classify_calls, branch):
        bg.transform(SQUARE, 1.2, branch)
        assert len(classify_calls) == 1

    def test_classification_scan(self, classify_calls):
        points = bg.classification_scan(SQUARE, 0.2, 3.0, 40)
        assert any(p.klass is bg.MonodromyClass.HYPERBOLIC for p in points)
        assert len(classify_calls) == 40

    @pytest.mark.parametrize(
        "argv, monodromies",
        [
            (["transform", "{sq}", "--ell", "1.2"], 1),
            (["invariants", "{sq}", "--ell", "1.2"], 1),
            (["invariants", "{sq}", "{sq}", "--ell", "1.2", "--json"], 2),
            (["scan", "{sq}", "--grid", "0.2:3.0:40"], 40),
            (["svg", "{sq}", "--ell", "1.2", "-o", "{out}"], 1),
        ],
        ids=["transform", "invariants", "invariants-two", "scan", "svg"],
    )
    def test_cli(self, square_file, tmp_path, classify_calls, capsys, argv, monodromies):
        out = str(tmp_path / "out.svg")
        assert main([a.format(sq=square_file, out=out) for a in argv]) == 0
        assert len(classify_calls) == monodromies
