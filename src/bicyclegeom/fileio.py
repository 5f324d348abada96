"""JSON polygon files, and the one JSON codec of the CLI.

Schema: {"dim": n, "vertices": [[x, y, ...], ...], "name": optional string}.
Polygon files and the CLI's reports are compact JSON (no spaces) written by
orjson, numpy arrays passed whole, files as bytes through ``write_file``;
``load_polygon`` is the one reader, also on orjson.  Floats are written
shortest round-trip (Ryu), so load(save(p)) == p exactly; 1e16 is written
``1e16`` and 1e-05 ``0.00001``.

JSON has no NaN or Infinity.  ``to_json`` and the polygon writer raise
``ValueError`` naming the path of the first non-finite value
(``$.grid[0].trace_sq_over_det is inf``) instead of writing it, and the
reader refuses ``NaN``, ``Infinity`` and literals beyond the double range.
"""

from __future__ import annotations

import math
from itertools import chain

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
    their JSON refuses.  Only containers are given a path on the way."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = _jsonable(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"non-finite value: {path} is {obj!r}")
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, (list, tuple)) else ()
    for key, x in items:
        if not (isinstance(x, float) and math.isfinite(x) or x is None or isinstance(x, (str, int))):
            check_finite(x, f"{path}.{key}" if isinstance(obj, dict) else f"{path}[{key}]")


def to_json(obj) -> str:
    """Compact JSON of obj, numpy arrays and scalars included.

    orjson writes a non-finite float as ``null``, so a document holding
    ``null`` is walked for one; a document without it cannot hold one.
    """
    data = orjson.dumps(obj, default=_jsonable, option=orjson.OPT_SERIALIZE_NUMPY)
    if b"null" in data:
        check_finite(obj)
    return data.decode()


def _polygon_bytes(v: Polygon) -> bytes:
    """The polygon file's bytes, its vertex array handed to orjson whole."""
    if not np.isfinite(v.vertices).all():
        check_finite({"vertices": v.vertices})
    doc = {"dim": v.dim, "vertices": v.vertices} | ({"name": v.name} if v.name else {})
    return orjson.dumps(doc, default=_jsonable, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)


def polygon_json(v: Polygon) -> str:
    """The polygon file's text, without its closing newline."""
    return _polygon_bytes(v)[:-1].decode()


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
        with open(path, "rb") as fh:
            data = orjson.loads(fh.read())
    except (OSError, orjson.JSONDecodeError) as exc:
        raise PolygonFileError(f"cannot read polygon file {path}: {exc}") from exc
    return polygon_from_dict(data)


def write_file(path, data: bytes) -> None:
    """The one file writer of the CLI; an unwritable path is a PolygonFileError."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise PolygonFileError(f"cannot write {path}: {exc}") from exc


def save_polygon(path, v: Polygon) -> None:
    write_file(path, _polygon_bytes(v))
