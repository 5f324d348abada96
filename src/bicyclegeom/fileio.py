"""JSON polygon files.

Schema: {"dim": n, "vertices": [[x, y, ...], ...], "name": optional string}.
Files are compact JSON from one writer, ``to_json``, which the CLI's
reports share.  Floats are serialized with shortest round-trip precision,
so load(save(p)) == p exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .geometry import Polygon


class PolygonFileError(ValueError):
    """Malformed polygon file."""


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def to_json(obj) -> str:
    """Compact JSON of obj, numpy arrays and scalars included; without an
    indent json.dumps runs its C encoder."""
    return json.dumps(obj, default=_jsonable)


def polygon_to_dict(v: Polygon) -> dict:
    out = {"dim": v.dim, "vertices": v.vertices.tolist()}
    if v.name:
        out["name"] = v.name
    return out


def polygon_from_dict(data: dict) -> Polygon:
    if not isinstance(data, dict) or "vertices" not in data:
        raise PolygonFileError("polygon file must be an object with a 'vertices' field")
    vertices = data["vertices"]
    try:
        poly = Polygon(vertices, name=data.get("name"))
    except Exception as exc:
        raise PolygonFileError(f"invalid polygon data: {exc}") from exc
    declared = data.get("dim")
    if declared is not None and int(declared) != poly.dim:
        raise PolygonFileError(f"declared dim {declared} does not match vertices of dim {poly.dim}")
    return poly


def load_polygon(path) -> Polygon:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise PolygonFileError(f"cannot read polygon file {path}: {exc}") from exc
    return polygon_from_dict(data)


def save_polygon(path, v: Polygon) -> None:
    Path(path).write_text(to_json(polygon_to_dict(v)) + "\n", encoding="utf-8")
