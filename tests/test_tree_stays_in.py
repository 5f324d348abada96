"""The side tree and its half-angle chart live in monodromy alone.

monodromy builds the pairwise tree of side matrices, rescales it, sweeps it
down (_frames) and reads directions off the chart x = tan(alpha/2); every
other module gets what it needs through _summary_at: the class, Tr^2/det,
the fixed directions and a frame reader.  So no other module under src/ may
name the tree's internals or take a complex conjugate (the chart's
e^(i alpha) = z / conj(z)), and a second arithmetic for the tree changes one
module."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bicyclegeom"

TREE = {"_tree", "_rescale", "_frames", "_HALF_ANGLE", "_IDENTITY", "_RESCALE_EVERY", "_side_matrices"}
CHART = {"conj", "conjugate"}


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
