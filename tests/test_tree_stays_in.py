"""The side tree and its half-angle chart live in monodromy alone, and the
monodromy at one length has one reader.

monodromy builds the pairwise tree of side matrices, rescales it, sweeps it
down (_frames) and reads directions off the chart x = tan(alpha/2).  Every
other module gets what it needs through the public API or one of two
readers: _branch_at (the class, the number of fixed directions, a reader of
fixed direction i and a frame reader) and _scan_point (the scan's record of
one length: class, Tr^2/det and derivatives).  So no other module under src/
may name the tree's internals or take a complex conjugate (the chart's
e^(i alpha) = z / conj(z)), a second arithmetic for the tree changes one
module, and dynamics and cli import no other private name of monodromy, so
a second one-length reader cannot creep back."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bicyclegeom"

TREE = {"_tree", "_rescale", "_frames", "_HALF_ANGLE", "_IDENTITY", "_RESCALE_EVERY", "_side_matrices"}
CHART = {"conj", "conjugate"}
READERS = {"_branch_at", "_scan_point"}  # the private names dynamics and cli may take from monodromy


def _referenced(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name in tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def test_the_detector_sees_every_reference():
    text = "from .monodromy import _tree\nimport x._frames\nm._rescale(a)\nb = _HALF_ANGLE\nz.conj()"
    assert {"_tree", "_frames", "_rescale", "_HALF_ANGLE", "conj"} <= _referenced(ast.parse(text))


def test_monodromy_defines_what_the_guard_names():
    defined = _referenced(ast.parse((SRC / "monodromy.py").read_text(encoding="utf-8")))
    assert TREE | {"conj"} <= defined


def test_only_monodromy_touches_the_tree_and_the_chart():
    stray = {
        path.name: sorted(found)
        for path in sorted(SRC.rglob("*.py"))
        if path.stem != "monodromy"
        and (found := (TREE | CHART) & _referenced(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert not stray, f"side-tree internals or the half-angle chart outside monodromy: {stray}"


def _from_monodromy(tree: ast.AST) -> set[str]:
    """Names imported from monodromy, or read as attributes of a name monodromy, in tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "monodromy":
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "monodromy":
            found.add(node.attr)
    return found


def test_the_import_detector_sees_every_spelling():
    text = "from .monodromy import _a, b\nfrom bicyclegeom.monodromy import _c\nmonodromy._d(x)"
    assert _from_monodromy(ast.parse(text)) == {"_a", "b", "_c", "_d"}


def test_monodromy_defines_the_readers():
    tree = ast.parse((SRC / "monodromy.py").read_text(encoding="utf-8"))
    assert READERS <= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_dynamics_and_cli_read_one_length_through_the_readers():
    for stem in ("dynamics", "cli"):
        names = _from_monodromy(ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8")))
        stray = sorted(name for name in names if name.startswith("_") and name not in READERS)
        assert not stray, f"{stem} takes private monodromy names beyond {sorted(READERS)}: {stray}"
