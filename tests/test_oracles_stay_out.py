"""One working representation per concept in the package: the independent
forms the tests check it against live in tests/oracles.py and nowhere else.
No function, class or method defined there may be defined under src/, and
bicyclegeom may not export any of them."""

import ast
import pathlib

import bicyclegeom as bg

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _defined(tree: ast.AST) -> set[str]:
    """Names of every function, class and method defined in tree, nested ones included."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def _oracle_names() -> set[str]:
    return _defined(ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8")))


def test_the_detector_sees_every_definition():
    text = "def f(): pass\nclass C:\n    def m(self):\n        def inner(): pass\nasync def g(): pass\nx = 1"
    assert _defined(ast.parse(text)) == {"f", "C", "m", "inner", "g"}


def test_oracles_are_defined_only_in_the_tests():
    names = _oracle_names()
    assert {"reflect_in_line", "direction_step", "proj_distance"} <= names
    clashes = {
        str(path.relative_to(SRC)): sorted(found)
        for path in sorted(SRC.rglob("*.py"))
        if (found := names & _defined(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert not clashes, f"test oracles defined in the package: {clashes}"


def test_the_package_exports_no_oracle():
    exported = sorted(name for name in _oracle_names() if hasattr(bg, name))
    assert not exported, f"bicyclegeom exports test oracles: {exported}"
