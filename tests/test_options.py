"""No single-valued options.  Every defaulted parameter of a public
bicyclegeom name, and of svg.Figure's drawing methods, is on ALLOWED with a
caller in src/ or bench/ that passes it a second value; a parameter every
caller leaves at one value is a constant, not an option.  The geometric
tolerance is one option shared by every predicate: cli.main resolves --tol /
BICYCLE_TOL once and passes it down, and each tol defaults to DEFAULT_TOL,
never to None (a second tolerance beside a BicyclePair's own)."""

import enum
import inspect
import math
import pathlib

import numpy as np
import pytest

import bicyclegeom as bg
from bicyclegeom import cli
from bicyclegeom.cli import main
from bicyclegeom.fileio import save_polygon
from bicyclegeom.svg import Figure

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLI, FAMILIES = "src/bicyclegeom/cli.py", "src/bicyclegeom/families.py"

# "owner.parameter": (file, the source text that passes the second value)
ALLOWED = {
    "LorentzMatrix.check": ("src/bicyclegeom/monodromy.py", "check=False"),
    "NGonSpec.phase": (CLI, "phase=math.radians(args.phase)"),
    "Polygon.name": ("src/bicyclegeom/dynamics.py", "Polygon(w, name=v.name)"),
    "PropagationResult.closed_polygon.name": ("src/bicyclegeom/dynamics.py", "res.closed_polygon(name=v.name)"),
    "QuadClassification.center": (FAMILIES, "center=center,"),
    "QuadClassification.r1": (FAMILIES, "r1=float(r1),"),
    "QuadClassification.r2": (FAMILIES, "r2=float(r2),"),
    "QuadClassification.gap": (FAMILIES, "gap=gap,"),
    "QuadClassification.boundaries": (FAMILIES, "boundaries=tuple(boundaries),"),
    "Tolerance.eps_geom": (CLI, "Tolerance(eps_geom=eps)"),
    "eigenvalue_products.track": (CLI, "eigenvalue_products(pair, track)"),
    "refine_class_boundaries.steps": (CLI, "steps=max(steps, 64)"),
    "transform.branch": ("bench/workloads.py", "bg.transform(op.polys[0], op.length, bg.Branch(op.branch))"),
    "Figure.polyline.color": (CLI, "fig.polyline(v.vertices, color=PALETTE[idx % len(PALETTE)])"),
    "Figure.dot.color": (CLI, "fig.dot(track.q[i], color=PALETTE[1])"),
    "Figure.segment.color": (CLI, 'color="#9aa0a6", width=0.6'),
    "Figure.segment.width": (CLI, 'color="#9aa0a6", width=0.6'),
}
TOLERANCE = (CLI, "return args.func(args, _tolerance(args))")


def _defaulted() -> dict:
    """{"owner.parameter": default} over the public functions, the public
    classes' constructors and public methods, and svg.Figure."""
    owners = [
        (name, obj)
        for name, obj in vars(bg).items()
        if not name.startswith("_") and callable(obj)
        and not (inspect.isclass(obj) and issubclass(obj, (BaseException, enum.Enum)))
    ]
    found = {}
    for name, obj in [*owners, ("Figure", Figure)]:
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [(f"{name}.{m}", getattr(obj, m)) for m in vars(obj)
                        if not m.startswith("_") and inspect.isroutine(getattr(obj, m))]
        for qual, func in members:
            for p in inspect.signature(func).parameters.values():
                if p.default is not p.empty:
                    found[f"{qual}.{p.name}"] = p.default
    return found


def test_every_option_has_a_second_value():
    found = _defaulted()
    tols = {key: default for key, default in found.items() if key.endswith(".tol")}
    assert {"transform.tol", "BicyclePair.tol"} <= set(tols)
    assert {key for key, default in tols.items() if default is not bg.DEFAULT_TOL} == set()
    assert set(found) - set(tols) == set(ALLOWED)
    for key, (path, text) in [*ALLOWED.items(), ("tol", TOLERANCE)]:
        assert text in (ROOT / path).read_text(encoding="utf-8"), key


class TestOneTolerancePerPair:
    def test_pair_functions_read_the_pairs_tolerance(self):
        """A frame line 1e-7 off antipodal: a BicyclePair at Tolerance(1e-6)
        makes its slot a straight member, one at the default a circle, and the
        pair functions take no tolerance of their own."""
        for func in (bg.rear_track, bg.angle_sequence, bg.eigenvalue_products):
            assert "tol" not in inspect.signature(func).parameters, func.__name__
        angs = np.array([0.0, math.pi + 1e-7, 3.9, 4.7, 5.5])
        v = bg.Polygon(2.0 * np.stack([np.cos(angs), np.sin(angs)], axis=1))
        w = bg.rotation_transform(v, 1.3)
        loose, default = bg.BicyclePair(v, w, bg.Tolerance(1e-6)), bg.BicyclePair(v, w)
        got, ref = bg.rear_track(loose), bg.rear_track(default)
        assert got.curvature[0] == 0.0 and np.isnan(got.center[0]).all() and ref.curvature[0] > 0.0
        assert got.curvature[1:].tolist() == ref.curvature[1:].tolist()
        assert bg.angle_sequence(loose).tolist() == bg.angle_sequence(default).tolist()
        assert bg.eigenvalue_products(loose, got) == bg.eigenvalue_products(loose)

    @pytest.mark.parametrize("argv", [
        ["transform", "{sq}", "--ell", "1.2"], ["invariants", "{sq}"], ["scan", "{sq}", "--grid", "1:2:3"],
        ["svg", "{sq}"], ["ngon"], ["recut", "{sq}", "-i", "1"], ["rear-track", "{sq}", "{sq}"],
        ["bianchi", "{sq}", "{sq}", "{sq}"],
    ], ids=lambda argv: argv[0])
    def test_every_command_refuses_a_malformed_tolerance_once(self, tmp_path, monkeypatch, capsys, argv):
        """recut used to run with BICYCLE_TOL=abc; main resolves the tolerance
        once, before any command runs."""
        square = tmp_path / "square.json"
        save_polygon(square, bg.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]))
        calls = []
        real = cli._tolerance
        monkeypatch.setattr(cli, "_tolerance", lambda args: calls.append(args) or real(args))
        monkeypatch.setenv("BICYCLE_TOL", "abc")
        assert main([a.format(sq=square) for a in argv]) == 2
        assert capsys.readouterr() == ("", "error: BICYCLE_TOL must be a number, got 'abc'\n")
        assert len(calls) == 1
