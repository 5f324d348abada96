"""The NumPy floor declared in pyproject.toml covers every NumPy name the
package uses: each `np.<name>` under src/ is looked up in the installed NumPy,
and the newest `.. versionadded::` tag in the name's own description (the
docstring before its Parameters section, so tags of single parameters do not
count) must not be newer than the floor."""

import pathlib
import re
import tomllib

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"\bnp((?:\.[A-Za-z_]\w*)+)")
TAG = re.compile(r"\.\. versionadded:: *(\d+(?:\.\d+)*)")
PARAMETERS = re.compile(r"\n\s*Parameters\n\s*-+\n")


def _version(text: str) -> tuple[int, int, int]:
    major, minor, micro = (text.split(".") + ["0", "0"])[:3]
    return int(major), int(minor), int(micro)


def _numpy_floor() -> tuple[int, int, int]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    (floor,) = [m.group(1) for d in deps if (m := re.fullmatch(r"numpy>=([\d.]+)", d.replace(" ", "")))]
    return _version(floor)


def _used_names() -> set[str]:
    names: set[str] = set()
    for path in (ROOT / "src").rglob("*.py"):
        names |= set(NAME.findall(path.read_text(encoding="utf-8")))
    return {name.lstrip(".") for name in names}


def _added_in(name: str) -> tuple[int, int, int]:
    obj = np
    for part in name.split("."):
        obj = getattr(obj, part)
    description = PARAMETERS.split(obj.__doc__ or "", maxsplit=1)[0]
    return max((_version(tag) for tag in TAG.findall(description)), default=(0, 0, 0))


def test_names_are_found():
    names = _used_names()
    assert {"vecdot", "linalg.norm"} <= names
    assert _added_in("vecdot") == (2, 0, 0)
    assert _added_in("array") < (2, 0, 0)  # only its parameters carry newer tags


def test_floor_covers_every_name():
    added = {name: _added_in(name) for name in _used_names()}
    newest = max(added.values())
    assert _numpy_floor() >= newest, sorted(n for n, v in added.items() if v > _numpy_floor())
