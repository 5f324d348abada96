"""JSON polygon files, and the one JSON codec of the CLI.

Schema: {"dim": n, "vertices": [[x, y, ...], ...], "name": optional string}.
Files are compact JSON (no spaces) from one writer, ``to_json``, which the
CLI's reports share; ``load_polygon`` is the one reader.  Both run on
orjson.  Floats are written shortest round-trip (Ryu), so
load(save(p)) == p exactly; 1e16 is written ``1e16`` and 1e-05 ``0.00001``.

JSON has no NaN or Infinity.  ``to_json`` raises ``ValueError`` naming the
path of the first non-finite value (``$.grid[0].trace_sq_over_det is inf``)
instead of writing it, and the reader refuses ``NaN``, ``Infinity`` and
literals beyond the double range.
"""

from __future__ import annotations

import math
from itertools import chain
from pathlib import Path

import numpy as np
import orjson

from .geometry import Polygon


class PolygonFileError(ValueError):
    """Malformed polygon file."""


def _jsonable(x):
    """What orjson refuses natively: non-C-contiguous or 0-d arrays and
    numpy scalars such as float16 and longdouble."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def check_finite(obj, path: str = "$") -> None:
    """Raise ValueError naming the path of obj's first non-finite float in
    document order: JSON has none, and the CLI's text reports refuse what
    their JSON refuses."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = _jsonable(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"non-finite value: {path} is {obj!r}")
    if isinstance(obj, dict):
        for key, value in obj.items():
            check_finite(value, f"{path}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            check_finite(value, f"{path}[{i}]")


def to_json(obj) -> str:
    """Compact JSON of obj, numpy arrays and scalars included.

    orjson writes a non-finite float as ``null``, so a document holding
    ``null`` is walked for one; a document without it cannot hold one.
    """
    data = orjson.dumps(obj, default=_jsonable, option=orjson.OPT_SERIALIZE_NUMPY)
    if b"null" in data:
        check_finite(obj)
    return data.decode()


def polygon_json(v: Polygon) -> str:
    """The polygon file's text, the vertex array handed to orjson whole: the
    bytes orjson writes for the same document with the vertices as lists."""
    return to_json({"dim": v.dim, "vertices": v.vertices} | ({"name": v.name} if v.name else {}))


def polygon_from_dict(data: dict) -> Polygon:
    if not isinstance(data, dict) or "vertices" not in data:
        raise PolygonFileError("polygon file must be an object with a 'vertices' field")
    vertices = data["vertices"]
    try:
        if isinstance(vertices, list) and {*map(type, vertices)} == {list} and len({*map(len, vertices)}) == 1:
            # JSON numbers only: fromiter parses "1" and takes true as 1
            if not {*map(type, flat := [*chain.from_iterable(vertices)])} <= {float, int}:
                raise TypeError("coordinates must be numbers")
            vertices = np.fromiter(flat, float).reshape(len(vertices), -1)
        poly = Polygon(vertices, name=data.get("name"))
    except Exception as exc:
        raise PolygonFileError(f"invalid polygon data: {exc}") from exc
    declared = data.get("dim")
    # a JSON number equal to the dimension; type(), not isinstance, so true is not 1
    if declared is not None and not (type(declared) in (int, float) and declared == poly.dim):
        raise PolygonFileError(f"declared dim {declared!r} does not match vertices of dim {poly.dim}")
    return poly


def load_polygon(path) -> Polygon:
    try:
        data = orjson.loads(Path(path).read_bytes())
    except (OSError, orjson.JSONDecodeError) as exc:
        raise PolygonFileError(f"cannot read polygon file {path}: {exc}") from exc
    return polygon_from_dict(data)


def save_polygon(path, v: Polygon) -> None:
    Path(path).write_text(polygon_json(v) + "\n", encoding="utf-8")
