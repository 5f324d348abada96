"""Command-line driver.

Subcommands: transform, invariants, scan, svg, ngon, recut, rear-track,
bianchi.  Polygon files are JSON ({"dim": n, "vertices": [...], "name":
optional}); angles on the command line are degrees, library angles are
radians.  Exit codes: 0 success, 1 verification failure, 2 input or
precondition error.  BICYCLE_TOL overrides the default tolerance.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .dynamics import (
    BicyclePair,
    Branch,
    _seeded_companion,
    _transform,
    bianchi_fourth_polygon,
    correspondence_check,
    recut,
)
from .errors import ClosureFailure, DimensionMismatch, EllipticMonodromy, GeometryError
from .families import (
    NGonSpec,
    classify_cyclic,
    classify_quadrilateral,
    ngon_construct,
    ngon_residuals,
)
from .fileio import PolygonFileError, check_finite, load_polygon, polygon_json, save_polygon, to_json, write_file
from .geometry import DEFAULT_TOL, Polygon, Tolerance
from .invariants import RearTrack, _conserved, eigenvalue_products, j_vector, rear_track
from .monodromy import (
    _branch_at, _scan_point, classification_scan, polygon_monodromy, refine_class_boundaries, trace_polynomial,
)
from .svg import PALETTE, Figure


def _radii(track: RearTrack) -> list[float | None]:
    """The signed radii of the chain, None at its straight members."""
    return [None if c == 0.0 else 1.0 / c for c in track.curvature.tolist()]


def _tolerance(args) -> Tolerance:
    """--tol, else BICYCLE_TOL, else the default; main reads it once per call, for every command."""
    eps = args.tol
    if eps is None and (env := os.environ.get("BICYCLE_TOL")):
        try:
            eps = float(env)
        except ValueError:
            raise ValueError(f"BICYCLE_TOL must be a number, got {env!r}") from None
    return DEFAULT_TOL if eps is None else Tolerance(eps_geom=eps)


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _save_or_print(v: Polygon, output: str | None) -> None:
    if output:
        save_polygon(output, v)
        print(f"wrote {output}")
    else:
        print(polygon_json(v))


def _val(x, tol: Tolerance):
    return {"value": x, "tol": tol.eps_geom}


def _render_report(data: dict, as_json: bool) -> str:
    if as_json:
        return to_json(data) + "\n"
    check_finite(data)
    lines: list[str] = []

    def emit(prefix: str, obj) -> None:
        if isinstance(obj, dict) and set(obj) == {"value", "tol"}:
            lines.append(f"{prefix:<28} {_scalar(obj['value'])}   (tol {obj['tol']:g})")
        elif isinstance(obj, dict):
            if prefix:
                lines.append(prefix)
            for key, sub in obj.items():
                emit(("  " if prefix else "") + str(key), sub)
        elif isinstance(obj, list) and obj and all(isinstance(rec, dict) for rec in obj):
            rows = [list(obj[0])] + [[_scalar(x) for x in rec.values()] for rec in obj]
            widths = [max(map(len, col)) for col in zip(*rows)]
            lines.append(prefix)
            for row in rows:
                lines.append("  " + "  ".join(c.ljust(n) for c, n in zip(row, widths)).rstrip())
        else:
            lines.append(f"{prefix:<28} {_scalar(obj)}")

    emit("", data)
    return "\n".join(lines) + "\n"


def _scalar(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.12g}"
    if isinstance(x, (list, tuple, np.ndarray)):
        return "[" + ", ".join("line" if v is None else _scalar(v) for v in x) + "]"
    return str(x)


def _elliptic_hint(v: Polygon, tol: Tolerance) -> str:
    if len(v) == 4:
        info = classify_quadrilateral(v, tol)
        if info.kind == "generic":
            if info.r1 - info.r2 > tol.eps_geom * info.r1:
                return (
                    f"elliptic for L in (0, {info.r1 - info.r2:.12g}) "
                    f"and ({info.r1 + info.r2:.12g}, inf)"
                )
            return f"elliptic for L > {info.r1 + info.r2:.12g} (circumdiameter)"
        if info.kind == "parallel":
            return f"elliptic for L in (0, {info.gap:.12g})"
    cyc = classify_cyclic(v, tol)
    if cyc.is_cyclic_convex:
        return f"elliptic for L > {cyc.diameter:.12g} (circumdiameter)"
    return "no real fixed direction at this length"


def cmd_transform(args, tol: Tolerance) -> int:
    v = load_polygon(args.input)
    length = args.ell
    if args.seed_angle is not None:
        if v.dim != 2:
            raise DimensionMismatch(f"--seed-angle is a plane angle; the polygon has dimension {v.dim}")
        ang = math.radians(args.seed_angle)
        seed = v.vertex(0) + length * np.array([math.cos(ang), math.sin(ang)])
        try:
            w, defect = _seeded_companion(v, length, seed, tol)
        except ClosureFailure as exc:
            _err(str(exc))
            return 1
        print(f"closure defect: {defect:.6e}")
    else:
        branch = Branch.REPELLING if args.branch == "repelling" else Branch.ATTRACTING
        try:
            w, klass, fd, defect = _transform(v, length, branch, tol)
        except EllipticMonodromy:
            _err(f"monodromy is elliptic at L={length}: {_elliptic_hint(v, tol)}")
            return 2
        print(f"monodromy class: {klass.value}")
        print(f"branch eigenvalue: {fd.derivative:.12g}")
        print(f"closure defect: {defect:.6e}")
    _save_or_print(w, args.output)
    return 0


def _polygon_report(v: Polygon, conserved, tol: Tolerance, ell: float | None) -> dict:
    """The report on one polygon; conserved is its _conserved record."""
    rep: dict = {
        "k": len(v),
        "dim": v.dim,
        "perimeter": _val(v.perimeter(), tol),
        "side_lengths": _val(v.side_lengths(), tol),
    }
    biv = conserved.bivector
    if v.dim == 2:
        rep["area_bivector"] = _val(biv.scalar, tol)
        rep["signed_area"] = _val(0.5 * biv.scalar, tol)
    else:
        rep["area_bivector"] = _val(biv.upper, tol)
    rep["j_vector"] = _val(j_vector(v) if conserved.j is None else conserved.j, tol)  # None: raises, naming |J|
    if v.dim == 2:
        ccm = conserved.ccm
        rep["circumcenter_of_mass"] = "undefined (zero area)" if ccm is None else _val(ccm, tol)
        coeffs = trace_polynomial(v).coeffs
        rep["trace_poly_coeffs"] = _val(list(coeffs), tol)
        if ell is not None:
            m = polygon_monodromy(v, ell, tol)
            point = _scan_point(ell, m.row, m.log2det, tol)  # scan's record at this length
            rep["monodromy_class_at_L"] = point.klass.value
            rep["trace_sq_over_det_at_L"] = _val(point.invariant, tol)
            if point.derivatives is not None:
                rep["eigenvalues_at_L"] = _val(point.derivatives, tol)
    return rep


def cmd_invariants(args, tol: Tolerance) -> int:
    v = load_polygon(args.input)
    w = load_polygon(args.second) if args.second else None
    if w is not None:
        for what, a, b in (("vertex count", len(v), len(w)), ("dimension", v.dim, w.dim)):
            if a != b:
                _err(f"the two polygons differ in {what}: {a} vs {b}")
                return 2
    cv = _conserved(v, tol)
    report: dict = {"tolerance": tol.eps_geom, "polygon": _polygon_report(v, cv, tol, args.ell)}
    if w is not None:
        cw = _conserved(w, tol)
        report["second"] = _polygon_report(w, cw, tol, args.ell)
        deltas: dict = {
            "perimeter": _val(abs(v.perimeter() - w.perimeter()), tol),
            "area_bivector": _val((cv.bivector - cw.bivector).norm(), tol),
            "j_vector": _val(math.hypot(*(cv.j - cw.j).tolist()), tol),
        }
        if v.dim == 2:
            if cv.ccm is None or cw.ccm is None:
                deltas["circumcenter_of_mass"] = "undefined (zero area)"
            else:
                deltas["circumcenter_of_mass"] = _val(math.hypot(*(cv.ccm - cw.ccm).tolist()), tol)
        deltas["side_multiset"] = _val(
            float(np.abs(np.sort(v.side_lengths()) - np.sort(w.side_lengths())).max()), tol
        )
        report["deltas"] = deltas
        try:
            pair = BicyclePair(v, w, tol)
        except ValueError:  # not in the bicycle correspondence
            pair = None
        report["is_bicycle_pair"] = pair is not None
        if pair is not None:
            report["frame_length"] = _val(pair.length, tol)
            if v.dim == 2:
                report["rear_track_radii"] = _val(_radii(rear_track(pair)), tol)
    sys.stdout.write(_render_report(report, args.json))
    return 0


def _parse_grid(spec: str) -> tuple[float, float, int]:
    try:
        lo, hi, steps = spec.split(":")
        return float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise PolygonFileError(f"bad grid spec {spec!r}, want min:max:steps") from exc


def cmd_scan(args, tol: Tolerance) -> int:
    v = load_polygon(args.input)
    lmin, lmax, steps = _parse_grid(args.grid)
    points = classification_scan(v, lmin, lmax, steps, tol)
    boundaries = refine_class_boundaries(v, lmin, lmax, steps=max(steps, 64))
    payload = {
        "grid": [
            {
                "L": p.ell,
                "class": p.klass.value,
                "trace_sq_over_det": p.invariant,
                "eigenvalues": p.derivatives,
            }
            for p in points
        ],
        "boundaries": boundaries,
    }
    sys.stdout.write(_render_report(payload, args.json))
    return 0


def cmd_svg(args, tol: Tolerance) -> int:
    fig = Figure()
    polys: list[Polygon] = []
    if args.ngon:
        n, k = args.ngon
        spec = NGonSpec(n=n, k=k, r1=args.r1, r2=args.r2)
        ng = ngon_construct(spec)
        polys.append(ng)
        for i in range(n):
            fig.segment(ng.vertex(i), ng.vertex(i + k), color="#9aa0a6", width=0.6)
    for path in args.inputs:
        polys.append(load_polygon(path))
    if not polys:
        _err("nothing to draw: give polygon files or --ngon N K")
        return 2
    for v in polys:
        if v.dim != 2:
            _err("svg output needs 2D polygons")
            return 2
    for idx, v in enumerate(polys):
        fig.polyline(v.vertices, color=PALETTE[idx % len(PALETTE)])
        for p in v.vertices:
            fig.dot(p, color=PALETTE[idx % len(PALETTE)])
    if args.rear_track:
        if len(polys) < 2:
            _err("--rear-track needs two polygon files (the corresponding pair)")
            return 2
        try:
            pair = BicyclePair(polys[0], polys[1], tol)
        except ValueError as exc:  # not in the bicycle correspondence: exit 1, as rear-track
            _err(str(exc))
            return 1
        track = rear_track(pair)
        for i, (center, radius) in enumerate(zip(track.center, _radii(track))):
            if radius is None:
                q0, q1 = track.q[i], track.q[(i + 1) % len(track.q)]
                fig.segment(q0, q1, color=PALETTE[1], width=1.0)
            else:
                fig.circle(center, abs(radius))
        for i in range(len(polys[0])):
            fig.segment(polys[0].vertex(i), polys[1].vertex(i), color="#9aa0a6", width=0.6)
            fig.dot(track.q[i], color=PALETTE[1])
    if args.ell is not None:
        v = polys[0]
        _, count, direction, _ = _branch_at(v, args.ell, tol, False)
        for i in range(count):
            fig.arrow(v.vertex(0), direction(i).angle, args.ell)
    if args.output:
        write_file(args.output, fig.render().encode())
    else:
        sys.stdout.write(fig.render())
    return 0


def cmd_ngon(args, tol: Tolerance) -> int:
    if args.verify:
        v = load_polygon(args.verify)
    else:
        spec = NGonSpec(n=args.n, k=args.k, r1=args.r1, r2=args.r2, phase=math.radians(args.phase))
        v = ngon_construct(spec)
    worst, idx = ngon_residuals(v, args.k, tol)
    ok = worst <= tol.eps_geom
    print(f"worst residual: {worst:.6e} at index {idx}")
    if not ok:
        print("verdict: FAIL")
        return 1
    print("verdict: PASS")
    if not args.verify and not args.verify_only:
        _save_or_print(v, args.output)
    return 0


def cmd_recut(args, tol: Tolerance) -> int:
    v = load_polygon(args.input)
    for i in args.index:
        v = recut(v, i, tol)
    _save_or_print(v, args.output)
    return 0


def cmd_rear_track(args, tol: Tolerance) -> int:
    v = load_polygon(args.front)
    w = load_polygon(args.companion)
    try:
        pair = BicyclePair(v, w, tol)
    except ValueError as exc:  # not in the bicycle correspondence
        _err(str(exc))
        return 1
    track = rear_track(pair)
    lam_vw, lam_chain = eigenvalue_products(pair, track)
    payload = {
        "frame_length": pair.length,
        "circles": [
            {
                "center": None if radius is None else center,
                "curvature": curvature,
                "radius": radius,
                "line_direction": direction if radius is None else None,
            }
            for center, curvature, radius, direction in zip(
                track.center, track.curvature.tolist(), _radii(track), track.direction
            )
        ],
        "tangency_points": track.q,
        "eigenvalue_vw": lam_vw,
        "eigenvalue_chain": lam_chain,
    }
    sys.stdout.write(_render_report(payload, args.json))
    return 0


def cmd_bianchi(args, tol: Tolerance) -> int:
    v = load_polygon(args.v)
    w = load_polygon(args.w)
    s = load_polygon(args.s)
    for name, other in (("W", w), ("S", s)):
        if not correspondence_check(v, other, tol):
            _err(f"V and {name} are not in the bicycle correspondence")
            return 2
    t = bianchi_fourth_polygon(v, w, s, tol)  # S ~ T and W ~ T, or ClosureFailure
    print("correspondence S~T and W~T: PASS")
    _save_or_print(t, args.output)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process, and in its ``commands`` each
    subparser by name; each parse call still returns a fresh Namespace."""
    top = argparse.ArgumentParser(prog="bicyclegeom", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    top.commands = {}

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = top.commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(func=func, command=name)
        p.add_argument("--tol", type=float, default=None, help="geometric tolerance (default 1e-9)")
        return p

    p = command("transform", cmd_transform, "closed bicycle transformation of a polygon")
    p.add_argument("input")
    p.add_argument("--ell", "-l", type=float, required=True, help="frame segment length L")
    p.add_argument("--branch", choices=["attracting", "repelling"], default="attracting")
    p.add_argument("--seed-angle", type=float, default=None, help="explicit seed direction (degrees)")
    p.add_argument("--output", "-o", default=None)

    p = command("invariants", cmd_invariants, "conserved-quantity report (one or two polygons)")
    p.add_argument("input")
    p.add_argument("second", nargs="?", default=None)
    p.add_argument("--ell", "-l", type=float, default=None)
    p.add_argument("--json", action="store_true")

    p = command("scan", cmd_scan, "monodromy class over a grid of lengths")
    p.add_argument("input")
    p.add_argument("--grid", required=True, help="min:max:steps")
    p.add_argument("--json", action="store_true")

    p = command("svg", cmd_svg, "deterministic SVG figure")
    p.add_argument("inputs", nargs="*")
    p.add_argument("--rear-track", action="store_true")
    p.add_argument("--ngon", type=int, nargs=2, metavar=("N", "K"), default=None)
    p.add_argument("--r1", type=float, default=1.0)
    p.add_argument("--r2", type=float, default=0.7)
    p.add_argument("--ell", "-l", type=float, default=None, help="draw fixed directions at this L")
    p.add_argument("--output", "-o", default=None)

    p = command("ngon", cmd_ngon, "construct / verify an equal-diagonal equilateral polygon")
    p.add_argument("n", type=int, nargs="?", default=12)
    p.add_argument("k", type=int, nargs="?", default=3)
    p.add_argument("r1", type=float, nargs="?", default=1.0)
    p.add_argument("r2", type=float, nargs="?", default=0.7)
    p.add_argument("--phase", type=float, default=0.0, help="construction phase (degrees)")
    p.add_argument("--verify", default=None, metavar="FILE", help="verify this polygon instead")
    p.add_argument("--verify-only", action="store_true", help="construct but do not write")
    p.add_argument("--output", "-o", default=None)

    p = command("recut", cmd_recut, "reflect vertices in the bisector of their neighbours")
    p.add_argument("input")
    p.add_argument("--index", "-i", type=int, action="append", required=True)
    p.add_argument("--output", "-o", default=None)

    p = command("rear-track", cmd_rear_track, "chain of tangent circles of a corresponding pair")
    p.add_argument("front")
    p.add_argument("companion")
    p.add_argument("--json", action="store_true")

    p = command("bianchi", cmd_bianchi, "fourth polygon of the permutability square")
    p.add_argument("v")
    p.add_argument("w")
    p.add_argument("s")
    p.add_argument("--output", "-o", default=None)

    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    top = _build_parser()
    if argv and argv[0] in top.commands:
        args, extra = top.commands[argv[0]].parse_known_args(argv[1:])
        if extra:  # named as the top-level parser names them
            top.error(f"unrecognized arguments: {' '.join(extra)}")
    else:  # --help, no arguments or no such command: the top-level parser's output
        args = top.parse_args(argv)
    try:
        return args.func(args, _tolerance(args))
    except (GeometryError, ValueError) as exc:
        _err(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
