"""Command-line driver: file round trips, exit codes, report output, SVG
determinism."""

import json
import math
import sys

import numpy as np
import pytest

import bicyclegeom as bg
from bicyclegeom import dynamics, monodromy
from bicyclegeom.cli import main
from bicyclegeom.fileio import load_polygon, polygon_from_dict, save_polygon

from conftest import bench_reference, circle_polygon, overflow_recipe, random_butterfly, random_polygon

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

    def test_butterfly_any_seed_closes(self, tmp_path, rng, capsys):
        path = tmp_path / "fly.json"
        save_polygon(path, random_butterfly(rng))
        out = tmp_path / "w.json"
        code = main(
            ["transform", str(path), "--ell", "1.4", "--seed-angle", "37.0", "-o", str(out)]
        )
        assert code == 0
        assert "closure defect" in capsys.readouterr().out

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
        assert len(calls) == 0  # the companion comes from the prefix scan, not the loop


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

    def test_rejects_3d(self, tmp_path, rng):
        path = tmp_path / "v3.json"
        save_polygon(path, random_polygon(rng, dim=3))
        assert main(["svg", str(path)]) == 2


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
        assert np.abs(back.vertices - v.vertices).max() < 1e-12 * v.scale()


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

    def test_eigenvalue_outside_double_range_exits_2(self, tmp_path, capsys):
        v = circle_polygon(np.random.default_rng(1), 2000)
        paths = [tmp_path / "v.json", tmp_path / "w.json"]
        save_polygon(paths[0], v)
        save_polygon(paths[1], bg.rotation_transform(v, 0.005))
        assert main(["rear-track", *map(str, paths)]) == 2
        assert "eigenvalue outside the double range" in capsys.readouterr().err


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
    def test_valid_triple(self, tmp_path, capsys):
        ang = 2 * math.pi * np.arange(5) / 5
        v = bg.Polygon(np.stack([np.cos(ang), np.sin(ang)], axis=1) * 2.0)
        w = bg.rotation_transform(v, 1.0)
        s = bg.rotation_transform(v, 1.6)
        paths = []
        for name, poly in (("v", v), ("w", w), ("s", s)):
            p = tmp_path / f"{name}.json"
            save_polygon(p, poly)
            paths.append(str(p))
        out = tmp_path / "t.json"
        code = main(["bianchi", *paths, "-o", str(out)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        t = load_polygon(out)
        assert bg.correspondence_check(s, t)
        assert bg.correspondence_check(w, t)

    def test_non_pair_inputs_exit_2(self, tmp_path, rng):
        paths = []
        for name in "vws":
            p = tmp_path / f"{name}.json"
            save_polygon(p, random_polygon(rng, k=4))
            paths.append(str(p))
        assert main(["bianchi", *paths]) == 2


class TestToleranceEnv:
    def test_env_override(self, square_file, monkeypatch, capsys):
        monkeypatch.setenv("BICYCLE_TOL", "1e-6")
        code = main(["invariants", square_file, "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tolerance"] == 1e-6


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
