"""The CLI's fixed costs: one argparse parser per process, reused by every
in-process main() call without carrying state between calls, and one
compact JSON writer for polygon files and --json reports; and the closure
rule that transform --seed-angle shares with the library."""

import json
import math

import numpy as np
import pytest

import bicyclegeom as bg
from bicyclegeom import cli
from bicyclegeom.cli import main
from bicyclegeom.fileio import load_polygon, save_polygon, to_json

from conftest import bench_reference, circle_polygon, random_polygon, survey_cases

SQUARE = bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)], name="square")


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    save_polygon(path, SQUARE)
    return str(path)


class TestParserReuse:
    def test_parser_built_once_across_calls(self, square_file, tmp_path, capsys):
        cli._build_parser.cache_clear()
        assert main(["transform", square_file, "-l", "1.2", "-o", str(tmp_path / "w.json")]) == 0
        assert main(["scan", square_file, "--grid", "1.05:2.2:8", "--json"]) == 0
        assert main(["recut", square_file, "-i", "1"]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_append_option_starts_empty_each_call(self, tmp_path, rng):
        path = tmp_path / "v.json"
        v = random_polygon(rng, k=6)
        save_polygon(path, v)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["recut", str(path), "-i", "1", "-i", "2", "-o", str(first)]) == 0
        assert main(["recut", str(path), "-i", "3", "-o", str(second)]) == 0
        assert _bits(load_polygon(first).vertices) == _bits(bg.recut(bg.recut(v, 1), 2).vertices)
        assert _bits(load_polygon(second).vertices) == _bits(bg.recut(v, 3).vertices)

    def test_parse_returns_a_fresh_namespace(self, square_file):
        parser = cli._build_parser()
        a = parser.parse_args(["recut", square_file, "-i", "1", "-i", "2"])
        b = parser.parse_args(["recut", square_file, "-i", "3"])
        assert a is not b and a.index is not b.index
        assert (a.index, b.index) == ([1, 2], [3])

    def test_seed_angle_does_not_carry_over(self, square_file, tmp_path, capsys):
        """A generic seed does not close on the square (exit 1); the next call
        without --seed-angle seeds from the fixed direction and succeeds."""
        out = tmp_path / "w.json"
        assert main(["transform", square_file, "-l", "1.2", "--seed-angle", "30"]) == 1
        assert main(["transform", square_file, "-l", "1.2", "-o", str(out)]) == 0
        assert _bits(load_polygon(out).vertices) == _bits(bg.transform(SQUARE, 1.2).vertices)
        assert cli._build_parser().parse_args(["transform", square_file, "-l", "1.2"]).seed_angle is None


class TestJsonWriter:
    def test_polygon_file_bit_exact_at_k2000(self, tmp_path):
        """Signed zero, the smallest subnormal and a ring of radius ~1e150 (the
        largest scale whose squared side lengths stay finite; a Polygon cannot
        hold 1e300) survive a save and load bit for bit, with the name."""
        pts = circle_polygon(np.random.default_rng(7), 2000, 0.02).vertices * 1e150
        pts[0] = (-0.0, 5e-324)
        pts[1000] = (-1e-300, 2.0 ** -1022)
        v = bg.Polygon(pts, name='ring "2000" ω')
        path = tmp_path / "v.json"
        save_polygon(path, v)
        w = load_polygon(path)
        assert w.name == v.name
        assert _bits(w.vertices) == _bits(v.vertices)
        assert np.signbit(w.vertices[0, 0])
        text = path.read_text(encoding="utf-8")
        assert text.count("\n") == 1 and text.endswith("\n")
        save_polygon(tmp_path / "again.json", w)
        assert (tmp_path / "again.json").read_text(encoding="utf-8") == text

    def test_writer_round_trips_extreme_floats(self):
        values = [-0.0, 5e-324, 2.0 ** -1022, 1e300, 1.7976931348623157e308, 0.1, 1 / 3]
        data = {"value": np.array(values), "scalar": np.float64(1e300), "count": np.int64(3)}
        back = json.loads(to_json(data))
        assert _bits(back["value"]) == _bits(values)
        assert back["scalar"] == 1e300 and back["count"] == 3

    def test_writer_key_order_and_unknown_types(self):
        assert to_json({"b": 1, "a": [1.5, None]}) == '{"b": 1, "a": [1.5, null]}'
        with pytest.raises(TypeError):
            to_json({"x": object()})

    @pytest.mark.parametrize(
        "argv",
        [
            ["invariants", "{v}", "--json"],
            ["invariants", "{v}", "{w}", "--ell", "1.2", "--json"],
            ["scan", "{v}", "--grid", "1.05:2.2:25", "--json"],
            ["rear-track", "{v}", "{w}", "--json"],
            ["recut", "{v}", "-i", "2"],
        ],
        ids=["invariants", "invariants-pair", "scan", "rear-track", "recut-stdout"],
    )
    def test_each_json_output_is_one_document(self, square_file, tmp_path, capsys, argv):
        companion = tmp_path / "w.json"
        save_polygon(companion, bg.transform(SQUARE, 1.2))
        argv = [a.format(v=square_file, w=str(companion)) for a in argv]
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n")
        data = json.loads(out)
        assert isinstance(data, dict) and data

    def test_scan_json_values_match_library(self, square_file, capsys):
        assert main(["scan", square_file, "--grid", "1.05:2.2:25", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        points = bg.classification_scan(SQUARE, 1.05, 2.2, 25)
        assert [p["L"] for p in data["grid"]] == [p.ell for p in points]
        assert [p["class"] for p in data["grid"]] == [p.klass.value for p in points]
        assert data["boundaries"] == bg.refine_class_boundaries(SQUARE, 1.05, 2.2, steps=64)


class TestSeedAngleClosure:
    def test_written_companions_are_pairs(self, tmp_path):
        """Seeded at each fixed direction of the reference-hyperbolic survey
        cases, transform --seed-angle writes only polygons that pass
        correspondence_check; seven repelling seeds close to between the
        step bound and eps perimeter and now exit 1."""
        ref = bench_reference()
        path, out = tmp_path / "v.json", tmp_path / "w.json"
        written = 0
        for v, L in survey_cases():
            if ref.classify(v.vertices, L).klass != "hyperbolic":
                continue
            save_polygon(path, v)
            for fd in bg.fixed_directions(bg.polygon_monodromy(v, L)):
                out.unlink(missing_ok=True)
                argv = ["transform", str(path), "-l", repr(L), "--seed-angle", repr(math.degrees(fd.angle))]
                if main([*argv, "-o", str(out)]) == 0:
                    written += 1
                    assert bg.correspondence_check(v, load_polygon(out))
        assert written >= 275 + 261
