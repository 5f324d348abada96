"""Deterministic SVG figures: polygons, rear-track chains, direction arrows.

Output is a pure function of the drawing commands: no timestamps, fixed
element order, fixed decimal formatting.  Geometry is drawn in the usual
mathematical orientation (y up) via one explicit flip transform.
"""

from __future__ import annotations

import math

import numpy as np

PALETTE = ("#1f2d7a", "#b03a2e", "#1e8449", "#7d3c98", "#b7950b", "#117a8b")

MARGIN = 24.0

DOT_RADIUS = 2.0


def _fmt(x: float) -> str:
    return f"{x:.6f}"


class Figure:
    """Accumulates drawing commands, then renders a byte-stable SVG document."""

    def __init__(self):
        self._elements: list[str] = []
        self._xs: list[float] = []
        self._ys: list[float] = []

    def _touch(self, x: float, y: float, pad: float = 0.0) -> None:
        self._xs.extend([x - pad, x + pad])
        self._ys.extend([y - pad, y + pad])

    def polyline(self, points, color: str = PALETTE[0]) -> None:
        pts = np.asarray(points, float)
        for x, y in pts:
            self._touch(float(x), float(y))
        coords = " ".join(f"{_fmt(float(x))},{_fmt(float(y))}" for x, y in pts)
        self._elements.append(f'<polygon points="{coords}" fill="none" stroke="{color}" stroke-width="{_fmt(1.5)}"/>')

    def circle(self, center, radius: float) -> None:
        cx, cy = float(center[0]), float(center[1])
        self._touch(cx, cy, pad=abs(radius))
        self._elements.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(abs(radius))}" '
            f'fill="none" stroke="{PALETTE[1]}" stroke-width="{_fmt(1.0)}"/>'
        )

    def dot(self, point, color: str = "#202020") -> None:
        cx, cy = float(point[0]), float(point[1])
        self._touch(cx, cy, pad=DOT_RADIUS)
        self._elements.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(DOT_RADIUS)}" fill="{color}" stroke="none"/>'
        )

    def segment(self, a, b, color: str = "#606060", width: float = 0.8) -> None:
        self._touch(float(a[0]), float(a[1]))
        self._touch(float(b[0]), float(b[1]))
        self._elements.append(
            f'<line x1="{_fmt(float(a[0]))}" y1="{_fmt(float(a[1]))}" '
            f'x2="{_fmt(float(b[0]))}" y2="{_fmt(float(b[1]))}" '
            f'stroke="{color}" stroke-width="{_fmt(width)}"/>'
        )

    def arrow(self, base, angle: float, length: float) -> None:
        bx, by = float(base[0]), float(base[1])
        tx = bx + length * math.cos(angle)
        ty = by + length * math.sin(angle)
        self.segment((bx, by), (tx, ty), color=PALETTE[2], width=1.2)
        for side in (+1.0, -1.0):
            hx = tx + 0.18 * length * math.cos(angle + side * (math.pi - 0.45))
            hy = ty + 0.18 * length * math.sin(angle + side * (math.pi - 0.45))
            self.segment((tx, ty), (hx, hy), color=PALETTE[2], width=1.2)

    def render(self) -> str:
        if not self._xs:
            self._touch(0.0, 0.0, pad=1.0)
        xmin, xmax = min(self._xs), max(self._xs)
        ymin, ymax = min(self._ys), max(self._ys)
        width = (xmax - xmin) + 2.0 * MARGIN
        height = (ymax - ymin) + 2.0 * MARGIN
        # flip to y-up: translate geometry so its bbox sits inside the margin
        tx = MARGIN - xmin
        ty = MARGIN - ymin
        body = "\n".join("    " + el for el in self._elements)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_fmt(width)} {_fmt(height)}" '
            f'width="{_fmt(width)}" height="{_fmt(height)}">\n'
            f'  <g transform="translate(0,{_fmt(height)}) scale(1,-1) translate({_fmt(tx)},{_fmt(ty)})">\n'
            f"{body}\n"
            "  </g>\n"
            "</svg>\n"
        )
