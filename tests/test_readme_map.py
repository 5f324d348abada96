"""README's module map names what each module holds: every backticked
Python identifier in a row's contents is an attribute of a module in that
row, so a name moved out of the package cannot stay listed."""

import importlib
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
IDENTIFIER = re.compile(r"`([A-Za-z_]\w*)`")


def _module_map() -> list[tuple[list[str], list[str]]]:
    """(modules, identifiers) per row of the table under '## Module map'."""
    text = README.read_text(encoding="utf-8").split("## Module map", 1)[1]
    rows = []
    for line in text.split("\n## ", 1)[0].splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and (modules := IDENTIFIER.findall(cells[0])):
            rows.append((modules, IDENTIFIER.findall(cells[1])))
    return rows


def test_the_map_is_read():
    rows = dict((tuple(modules), names) for modules, names in _module_map())
    assert {"Polygon", "bicycle_step"} <= set(rows[("geometry",)])
    assert ("fileio", "svg", "cli") in rows
    assert IDENTIFIER.findall("`rigid_check` (count for any `(n, k)`)") == ["rigid_check"]


def test_every_listed_name_is_in_its_module():
    missing = []
    for modules, names in _module_map():
        loaded = [importlib.import_module(f"bicyclegeom.{name}") for name in modules]
        missing += [f"{'/'.join(modules)}.{name}" for name in names if not any(hasattr(m, name) for m in loaded)]
    assert not missing, f"README's module map lists names its modules lack: {missing}"
