"""The CLI's fixed costs: one argparse parser per process, reused by every
in-process main() call without carrying state between calls, a command's
arguments parsed by that command's own subparser, and one compact JSON
writer and one reader for polygon files and --json reports, which refuse
non-finite values; and the closure rule that transform --seed-angle shares
with the library."""

import json
import math
import re

import numpy as np
import orjson
import pytest

import bicyclegeom as bg
from bicyclegeom import cli, monodromy
from bicyclegeom.cli import main
from bicyclegeom.fileio import (
    PolygonFileError, check_finite, load_polygon, polygon_from_dict, polygon_json, save_polygon, to_json,
)

from conftest import bench_reference, circle_polygon, overflow_recipe, random_polygon, survey_cases
from oracles import polygon_to_dict

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


USAGE = (
    "usage: bicyclegeom [-h]\n"
    "                   {transform,invariants,scan,svg,ngon,recut,rear-track,bianchi}\n"
    "                   ...\n"
)
TRANSFORM_USAGE = (
    "usage: bicyclegeom transform [-h] [--tol TOL] --ell ELL\n"
    "                             [--branch {attracting,repelling}]\n"
    "                             [--seed-angle SEED_ANGLE] [--output OUTPUT]\n"
    "                             input\n"
)
HELP = USAGE + """
Command-line driver. Subcommands: transform, invariants, scan, svg, ngon,
recut, rear-track, bianchi. Polygon files are JSON ({"dim": n, "vertices":
[...], "name": optional}); angles on the command line are degrees, library
angles are radians. Exit codes: 0 success, 1 verification failure, 2 input or
precondition error. BICYCLE_TOL overrides the default tolerance.

positional arguments:
  {transform,invariants,scan,svg,ngon,recut,rear-track,bianchi}
    transform           closed bicycle transformation of a polygon
    invariants          conserved-quantity report (one or two polygons)
    scan                monodromy class over a grid of lengths
    svg                 deterministic SVG figure
    ngon                construct / verify an equal-diagonal equilateral
                        polygon
    recut               reflect vertices in the bisector of their neighbours
    rear-track          chain of tangent circles of a corresponding pair
    bianchi             fourth polygon of the permutability square

options:
  -h, --help            show this help message and exit
"""


class TestDispatch:
    """main hands a command's arguments to that command's subparser; the
    top-level parser runs only when the first argument names no command.
    The texts below are the output of the parser run whole, at 80 columns."""

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            (["--help"], 0, HELP, ""),
            ([], 2, "", USAGE + "bicyclegeom: error: the following arguments are required: command\n"),
            (["nosuch"], 2, "", USAGE + (
                "bicyclegeom: error: argument command: invalid choice: 'nosuch' (choose from 'transform', "
                "'invariants', 'scan', 'svg', 'ngon', 'recut', 'rear-track', 'bianchi')\n"
            )),
            (["transform"], 2, "", TRANSFORM_USAGE + (
                "bicyclegeom transform: error: the following arguments are required: input, --ell/-l\n"
            )),
            (["transform", "{sq}", "--ell", "1.2", "--bogus"], 2, "",
             USAGE + "bicyclegeom: error: unrecognized arguments: --bogus\n"),
            (["transform", "{sq}", "--ell", "x"], 2, "",
             TRANSFORM_USAGE + "bicyclegeom transform: error: argument --ell/-l: invalid float value: 'x'\n"),
        ],
        ids=["help", "no-arguments", "no-such-command", "no-input", "unrecognized", "bad-float"],
    )
    def test_parser_messages_unchanged(self, square_file, monkeypatch, capsys, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            main([a.format(sq=square_file) for a in argv])
        assert exit_.value.code == code
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["transform", "{sq}", "-l", "1.2", "-o", "{out}"],
            ["invariants", "{sq}", "--json"],
            ["scan", "{sq}", "--grid", "1.05:2.2:8"],
            ["svg", "{sq}", "-o", "{out}"],
            ["ngon", "--verify-only"],
            ["recut", "{sq}", "-i", "1"],
            ["rear-track", "{sq}", "{sq}"],
            ["bianchi", "{sq}", "{sq}", "{sq}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_command_skips_the_top_level_parse(self, square_file, tmp_path, monkeypatch, capsys, argv):
        """Each command runs, on valid and invalid input alike, without the
        top-level parse, from the Namespace that parse would give."""
        argv = [a.format(sq=square_file, out=tmp_path / "out") for a in argv]
        top = cli._build_parser()
        assert top.commands[argv[0]].parse_args(argv[1:]) == top.parse_args(argv)

        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser ran")

        monkeypatch.setattr(top, "parse_known_args", refuse)
        assert main(argv) in (0, 1, 2)


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

    @pytest.mark.parametrize(
        "v, text",
        [
            (bg.Polygon([(0.1, 0), (1e-05, 1e3), (1e6, 1 / 3), (-0.0, 2.5e4)]),
             '{"dim":2,"vertices":[[0.1,0.0],[0.00001,1000.0],[1000000.0,0.3333333333333333],[-0.0,25000.0]]}'),
            (bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)], name='sq "1" ω'),
             '{"dim":2,"vertices":[[0.0,0.0],[1.0,0.0],[1.0,1.0],[0.0,1.0]],"name":"sq \\"1\\" ω"}'),
            (bg.Polygon([(0, 0, 0), (1, 0, 0.5), (1, 1, -1e-300), (0, 1, 5e-324)]),
             '{"dim":3,"vertices":[[0.0,0.0,0.0],[1.0,0.0,0.5],[1.0,1.0,-1e-300],[0.0,1.0,5e-324]]}'),
        ],
        ids=["plane", "named", "3d"],
    )
    def test_file_bytes_are_the_text_and_the_list_writers(self, tmp_path, v, text):
        """save_polygon writes bytes: polygon_json's text and a newline, the
        pinned file of the text writer it replaced, and the bytes of the
        list-based writer."""
        path = tmp_path / "v.json"
        save_polygon(path, v)
        data = path.read_bytes()
        assert data == (polygon_json(v) + "\n").encode() == (text + "\n").encode()
        assert data == (to_json(polygon_to_dict(v)) + "\n").encode()

    def test_writer_round_trips_extreme_floats(self):
        values = [-0.0, 5e-324, 2.0 ** -1022, 1e300, 1.7976931348623157e308, 0.1, 1 / 3]
        data = {"value": np.array(values), "scalar": np.float64(1e300), "count": np.int64(3)}
        back = json.loads(to_json(data))
        assert _bits(back["value"]) == _bits(values)
        assert back["scalar"] == 1e300 and back["count"] == 3

    def test_writer_key_order_and_unknown_types(self):
        assert to_json({"b": 1, "a": [1.5, None]}) == '{"b":1,"a":[1.5,null]}'
        with pytest.raises(TypeError):
            to_json({"x": object()})

    def test_writer_round_trips_random_bit_patterns(self):
        """Random finite float64 bit patterns, and values spread over the
        decimal exponents where the writer switches between plain and
        exponent notation, read back bit for bit through both readers."""
        rng = np.random.default_rng(20261018)
        bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        values = np.concatenate([values[np.isfinite(values)], 10.0 ** rng.uniform(-30, 30, 20_000)])
        text = to_json({"x": values})
        for loads in (json.loads, orjson.loads):
            assert _bits(loads(text)["x"]) == _bits(values)

    def test_polygon_file_round_trips_exponent_forms(self, tmp_path):
        v = bg.Polygon([(1e-05, 0.0), (1e16, 5e-324), (2.0 ** -1022, 1.0), (-0.0, 1e16)])
        path = tmp_path / "v.json"
        save_polygon(path, v)
        assert _bits(load_polygon(path).vertices) == _bits(v.vertices)
        assert path.read_text(encoding="utf-8") == (
            '{"dim":2,"vertices":[[0.00001,0.0],[1e16,5e-324],'
            '[2.2250738585072014e-308,1.0],[-0.0,1e16]]}\n'
        )

    @pytest.mark.parametrize("indent", [None, 2])
    def test_spaced_stdlib_files_still_load(self, tmp_path, indent):
        """Files written by json.dumps with its default separators (and
        \\u escapes) load bit for bit."""
        v = circle_polygon(np.random.default_rng(3), 200, 0.02)
        v = bg.Polygon(v.vertices, name='ring "200" ω')
        path = tmp_path / "v.json"
        path.write_text(json.dumps(polygon_to_dict(v), indent=indent), encoding="utf-8")
        w = load_polygon(path)
        assert w.name == v.name
        assert _bits(w.vertices) == _bits(v.vertices)

    def test_array_and_lists_write_the_same_bytes(self):
        """Files and stdout pass the vertex array to orjson; it writes the
        bytes of the lists polygon_to_dict returns, plain and exponent forms,
        subnormals, signed zero and a Fortran-ordered array included."""
        rng = np.random.default_rng(16)
        special = np.array([[0.00001, 1e16], [5e-324, -0.0], [1e-300, 1e22], [0.1, 123456789.0]])
        arrays = [special, np.asfortranarray(special)]
        for _ in range(300):
            k, n = int(rng.integers(3, 40)), int(rng.integers(2, 4))
            pts = rng.normal(size=(k, n))
            arrays.append((100.0 * pts).round(int(rng.integers(0, 4))) if rng.random() < 0.3
                          else pts * 10.0 ** int(rng.integers(-10, 150)))
        for i, pts in enumerate(arrays):
            v = bg.Polygon(pts, name="p" if i % 2 else None)
            assert polygon_json(v) == to_json(polygon_to_dict(v))

    def test_reader_matches_the_nested_array(self):
        """The flat pass over equal-length rows gives np.array's bits, ints
        and floats mixed."""
        rows = np.random.default_rng(5).normal(size=(2000, 3)).tolist()
        rows[7] = [1, -2, 3]
        got = polygon_from_dict({"vertices": rows})
        assert _bits(got.vertices) == _bits(np.array(rows, dtype=float))

    @pytest.mark.parametrize(
        "vertices",
        [
            [[0, 0], [1, 0], [1]],
            [[0, 0], [1, 0], [1, 1, 1]],
            [[0, 0], [1, 0], ["a", 1]],
            [[0, 0], [1, 0], [None, 1]],
            [[0, 0], [1, 0], [math.nan, 1]],
            [[0, 0], [1, 0], [[1, 1]]],
            ["00", "10", "01"],
            [{"x": 0, "y": 0}, {"x": 1, "y": 0}, {"x": 0, "y": 1}],
            [[], [], []],
            [],
            5,
        ],
        ids=[
            "short-row", "long-row", "string", "null", "nan", "nested",
            "string-rows", "dict-rows", "empty-rows", "empty", "number",
        ],
    )
    def test_reader_refuses_malformed_vertices(self, vertices):
        with pytest.raises(PolygonFileError):
            polygon_from_dict({"dim": 2, "vertices": vertices})

    @pytest.mark.parametrize(
        "vertices",
        [
            [["0", "0"], ["1", "0"], ["0", "1"]],
            [[0, 0], [1, "0"], [0, 1]],
            [[0.0, 0.0], [1.0, 0.0], [0.0, "1e0"]],
        ],
        ids=["all-strings", "one-string", "exponent-string"],
    )
    def test_reader_refuses_numeric_strings(self, vertices):
        """The schema's coordinates are numbers; a string that parses as one is refused."""
        with pytest.raises(PolygonFileError, match="invalid polygon data"):
            polygon_from_dict({"vertices": vertices})

    @pytest.mark.parametrize(
        "vertices",
        [[[False, False], [True, False], [False, True]], [[0.0, 0.0], [1.0, 0.5], [0.5, True]]],
        ids=["all-booleans", "one-boolean"],
    )
    def test_reader_refuses_booleans(self, vertices):
        """JSON true and false are not coordinates, though Python counts them as ints."""
        with pytest.raises(PolygonFileError, match="invalid polygon data: coordinates must be numbers"):
            polygon_from_dict({"vertices": vertices})

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_reader_refuses_non_finite_literals(self, tmp_path, capsys, literal):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"dim": 2, "vertices": [[0, 0], [1, 0], [{literal}, 1]]}}')
        with pytest.raises(PolygonFileError, match=f"cannot read polygon file {re.escape(str(path))}"):
            load_polygon(path)
        assert main(["invariants", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

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

    @pytest.mark.parametrize("case", ["square", "inscribed"])
    def test_scan_at_k4_builds_at_most_five_products(self, tmp_path, capsys, monkeypatch, case):
        """The benchmark's k = 4 scan: 48 points over the window [0.86, 1.14] x
        the boundary.  One side-tree product for the grid, one for the
        64-point bracketing grid, and at most three rounds of the boundary
        search (bisection to 1e-10 took 26)."""
        if case == "square":
            v, lo, hi = SQUARE, 0.86 * math.sqrt(2.0), 1.14 * math.sqrt(2.0)
        else:  # inscribed in the circle of diameter 1, so the boundary is at 1
            v, lo, hi = circle_polygon(np.random.default_rng(3), 4), 0.86, 1.14
        path = tmp_path / "v.json"
        save_polygon(path, v)
        sizes = []
        real = monodromy._monodromy_product
        monkeypatch.setattr(monodromy, "_monodromy_product", lambda v, ells: sizes.append(len(ells)) or real(v, ells))
        assert main(["scan", str(path), "--grid", f"{lo!r}:{hi!r}:48", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["boundaries"]) == 1
        assert sizes[:2] == [48, 64] and len(sizes) <= 5


class TestNonFiniteRefused:
    """JSON has no NaN or Infinity: to_json names the first non-finite
    value's path instead of writing it, and the CLI exits 2."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "make, where",
        [
            (lambda x: {"x": x}, "$.x"),
            (lambda x: {"x": np.float64(x)}, "$.x"),
            (lambda x: {"a": [1.0, {"b": [2.0, x]}]}, "$.a[1].b[1]"),
            (lambda x: {"m": np.array([[1.0, 2.0], [3.0, x]])}, "$.m[1][1]"),
            (lambda x: {"m": np.array([[1.0, x], [2.0, 3.0]]).T}, "$.m[1][0]"),
        ],
        ids=["float", "float64", "nested", "ndarray", "transposed-ndarray"],
    )
    def test_path_is_named(self, make, where, value):
        with pytest.raises(ValueError, match=re.escape(f"{where} is {value!r}")):
            to_json(make(value))

    def test_inf_is_named_among_nulls(self):
        """A None makes the bytes hold null, so the document is walked: the
        inf after it is named, not the None."""
        data = {"center": None, "grid": [{"eigenvalues": None, "t": 1.0}, {"eigenvalues": [2.0, math.inf]}]}
        for check in (to_json, check_finite):
            with pytest.raises(ValueError, match=re.escape("non-finite value: $.grid[1].eigenvalues[1] is inf")):
                check(data)

    def test_polygon_writer_names_a_non_finite_vertex(self, tmp_path):
        """A Polygon's array is finite and read-only; one made writable and
        given a NaN is refused by name, and no file is written."""
        v = bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        v.vertices.setflags(write=True)
        v.vertices[2, 1] = math.nan
        path = tmp_path / "v.json"
        for write in (polygon_json, lambda v: save_polygon(path, v)):
            with pytest.raises(ValueError, match=re.escape("non-finite value: $.vertices[2][1] is nan")):
                write(v)
        assert not path.exists()

    def test_legitimate_nulls_still_serialize(self):
        data = {"center": None, "radius": [None, 1.0], "name": "null"}
        assert to_json(data) == '{"center":null,"radius":[null,1.0],"name":"null"}'

    def _cli(self, capsys, argv):
        capsys.readouterr()
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    def test_scan_of_the_k2000_recipe_exits_2(self, tmp_path, capsys):
        """Tr^2/det and the derivatives of this 2000-gon leave the double
        range at the mean side; the text report refuses what --json refuses."""
        v = bg.Polygon(np.random.default_rng(9).normal(size=(2000, 2)) * 1.5)
        ell = float(v.side_lengths().mean())
        path = tmp_path / "v.json"
        save_polygon(path, v)
        argv = ["scan", str(path), "--grid", f"{ell!r}:{2 * ell!r}:2"]
        code, out, err = self._cli(capsys, argv + ["--json"])
        assert code == 2
        assert out == ""
        assert "$.grid[0].trace_sq_over_det is inf" in err
        assert self._cli(capsys, argv) == (code, out, err)

    def test_invariants_of_the_overflow_recipe_exits_2(self, tmp_path, capsys):
        v, _ = overflow_recipe(2000)
        path = tmp_path / "v.json"
        save_polygon(path, v)
        with pytest.warns(RuntimeWarning):
            code, out, err = self._cli(capsys, ["invariants", str(path), "--json"])
        assert code == 2
        assert out == ""
        assert "$.polygon.trace_poly_coeffs" in err


class TestSeedAngleClosure:
    def test_written_companions_are_pairs(self, tmp_path):
        """Seeded at each fixed direction of the reference-hyperbolic survey
        cases, transform --seed-angle writes a polygon that passes
        correspondence_check for every seed: a seed on a fixed direction gets
        that branch's companion in its contracting direction, the repelling
        one included."""
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
        assert written == 2 * 275

    def test_hint_only_where_the_seed_is_propagated(self, square_file, tmp_path, capsys):
        """A seed on no fixed direction is propagated, and its ClosureFailure
        says which seeds close; a seed on a fixed direction is swept down the
        side tree, and its ClosureFailure (a step past the bound of --tol
        1e-16) carries no such hint."""
        assert main(["transform", square_file, "-l", "1.2", "--seed-angle", "30"]) == 1
        err = capsys.readouterr().err
        assert "seeded companion does not close" in err and "only a seed on a fixed direction" in err
        v, L = circle_polygon(np.random.default_rng(0), 2000, 0.02), 0.95
        path = tmp_path / "v.json"
        save_polygon(path, v)
        for fd in bg.fixed_directions(bg.polygon_monodromy(v, L)):
            seed = ["--seed-angle", repr(math.degrees(fd.angle)), "--tol", "1e-16"]
            assert main(["transform", str(path), "-l", repr(L), *seed]) == 1
            err = capsys.readouterr().err
            assert "companion step misses" in err and "fixed direction" not in err
