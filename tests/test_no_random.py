"""Every operation of the package is a pure function (README): nothing under
src/ draws random numbers.  Each source file is parsed, and an import of the
stdlib random module or of numpy.random, an attribute `np.random` or
`numpy.random`, and any name `default_rng` are refused."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _random_uses(tree: ast.AST) -> list[str]:
    """Source text of every random-number use in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(alias.name == "random" or alias.name.startswith("numpy.random") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module == "random" or module.startswith("numpy.random") or (
                module == "numpy" and any(alias.name == "random" for alias in node.names)
            )
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "default_rng" or (
                node.attr == "random" and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            )
        elif isinstance(node, ast.Name):
            hit = node.id == "default_rng"
        else:
            hit = False
        if hit:
            found.append(ast.unparse(node))
    return found


def test_the_detector_sees_every_spelling():
    for text in [
        "import random",
        "from random import uniform",
        "import numpy.random",
        "from numpy import random",
        "from numpy.random import default_rng",
        "np.random.normal(size=3)",
        "numpy.random.seed(0)",
        "rng = default_rng(0)",
        "gen = np.random.default_rng",
    ]:
        assert _random_uses(ast.parse(text)), text
    for text in ["import numpy as np", "x = np.linalg.norm(a)", "random_walk = 1", "obj.random"]:
        assert not _random_uses(ast.parse(text)), text


def test_src_draws_no_random_numbers():
    uses = {
        str(path.relative_to(SRC)): found
        for path in sorted(SRC.rglob("*.py"))
        if (found := _random_uses(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert not uses, uses
