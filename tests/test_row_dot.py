"""One spelling of the row dot product in the package: geometry._dot, column
multiply-adds over the last axis.  np.vecdot, np.einsum with the same
subscripts on both operands ("ij,ij->i") and np.linalg.norm along an axis
dispatch per row; they may appear under src/ only at the sites allowed
below, each with the reason it keeps that spelling.  np.matvec and
np.vecmat dispatch per 2x2 node of a stack; they may appear nowhere (the
companion sweep spells its step as column multiply-adds)."""

import ast
import functools
import pathlib
import re

import numpy as np
import pytest

from bicyclegeom.geometry import _dot, _norm

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bicyclegeom"

# (module, enclosing function) -> why the site keeps np.vecdot, which rounds differently from _dot
ALLOWED = {
    ("geometry", "_bisector_reflect"): "returned values keep their bits (its callers propagate, recut, "
    "bicycle_step, correspondence_check and ngon_residuals; transform's closing check no longer is one); "
    "in column form the defect of test_defect_between_old_and_step_bound_fails[266] leaves its window",
}
PER_NODE = {"matvec", "vecmat"}
SAME_OPERANDS = re.compile(r"^\s*([\w.]+)\s*,\s*\1\s*->")


def _np_attr(node: ast.expr) -> str | None:
    """'vecdot' for np.vecdot, 'linalg.norm' for np.linalg.norm, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join(reversed(parts)) if isinstance(node, ast.Name) and node.id == "np" else None


def _is_row_dot(call: ast.Call) -> bool:
    name = _np_attr(call.func)
    if name == "vecdot":
        return True
    if name == "einsum" and call.args and isinstance(call.args[0], ast.Constant):
        return bool(SAME_OPERANDS.match(str(call.args[0].value)))
    if name == "linalg.norm":
        return len(call.args) >= 3 or any(kw.arg == "axis" for kw in call.keywords)
    return False


def _is_per_node(call: ast.Call) -> bool:
    return _np_attr(call.func) in PER_NODE


def _flagged_sites(flagged=_is_row_dot) -> dict[tuple[str, str], int]:
    """(module, innermost enclosing function or '<module>') -> number of flagged calls."""
    sites: dict[tuple[str, str], int] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if isinstance(node, ast.Call) and flagged(node):
                key = (path.stem, where)
                sites[key] = sites.get(key, 0) + 1
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(tree, "<module>")
    return sites


def test_the_detector_sees_every_spelling():
    calls = [
        "np.vecdot(a, b)",
        'np.einsum("ij,ij->i", a, a)',
        'np.einsum("...i,...i->...", a, b)',
        "np.linalg.norm(a, axis=1)",
        "np.linalg.norm(a, None, 1)",
    ]
    for text in calls:
        assert _is_row_dot(ast.parse(text, mode="eval").body), text
    for text in ["np.linalg.norm(a)", 'np.einsum("ij,jk->ik", a, b)', "np.dot(a, b)", "_dot(a, b)"]:
        assert not _is_row_dot(ast.parse(text, mode="eval").body), text
    for text in ["np.matvec(m, h)", "np.vecmat(h, m)"]:
        assert _is_per_node(ast.parse(text, mode="eval").body), text
    for text in ["np.vecdot(a, b)", "np.linalg.matmul(m, h)"]:
        assert not _is_per_node(ast.parse(text, mode="eval").body), text


# the closing check of transform's companion: no per-row dispatch, the bisector normal formed once
COMPANION_FORBIDDEN = {"_bisector_reflect", "_coincident", "np.vecdot"}


@functools.cache
def _module_scope(module: str) -> tuple[dict, dict]:
    """The module's top-level functions by name, and the names it imports
    from sibling modules, each mapped to that module."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    imported = {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }
    return defs, imported


def _reachable_calls(module: str, root: str) -> tuple[set[str], set[tuple[str, str]]]:
    """Names called in module.root and, transitively, in the package functions
    it calls, its own or imported from a sibling module; numpy calls as
    'np.<name>'.  functools.partial(f, ...) counts as a call of f, the call
    its caller makes later.  Also returns the (module, function) pairs visited."""
    called, todo, seen = set(), [(module, root)], set()
    while todo:
        where = todo.pop()
        seen.add(where)
        defs, imported = _module_scope(where[0])
        for node in ast.walk(defs[where[1]]):
            if not isinstance(node, ast.Call):
                continue
            np_name, target = _np_attr(node.func), node.func
            if np_name:
                called.add(f"np.{np_name}")
                continue
            if isinstance(target, ast.Attribute) and target.attr == "partial" and node.args:
                target = node.args[0]
            if not isinstance(target, ast.Name):
                continue
            called.add(target.id)
            home = where[0] if target.id in defs else imported.get(target.id)
            if home and (home, target.id) not in seen and target.id in _module_scope(home)[0]:
                todo.append((home, target.id))
    return called, seen


def test_companion_closing_check_has_no_per_row_dispatch():
    """From transform's entry, through the down-sweep _branch_at hands out
    (monodromy._frames) and the closing check."""
    called, seen = _reachable_calls("dynamics", "_transform")
    assert {("monodromy", "_branch_at"), ("monodromy", "_frames"), ("dynamics", "_companion")} <= seen
    assert {"_dot", "np.divide"} <= called  # np.divide: the sweep's step, inside monodromy._frames
    stray = sorted(called & COMPANION_FORBIDDEN)
    assert not stray, f"dynamics._transform reaches {stray}; check with one pass of geometry._dot"


def test_no_per_node_products():
    sites = sorted(_flagged_sites(_is_per_node))
    assert not sites, f"np.matvec / np.vecmat dispatch per 2x2 node; use column multiply-adds: {sites}"


def test_row_dots_only_at_allowed_sites():
    sites = _flagged_sites()
    stray = sorted(site for site in sites if site not in ALLOWED)
    assert not stray, f"use geometry._dot / _norm, or allow the site with its reason: {stray}"


def test_every_allowed_site_is_still_used():
    stale = sorted(set(ALLOWED) - set(_flagged_sites()))
    assert not stale, f"remove these from ALLOWED: {stale}"


class TestDot:
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    def test_norm_bit_equal_to_linalg_norm(self, n, scale):
        x = np.random.default_rng(n).normal(size=(2000, n)) * scale
        assert _norm(x).tobytes() == np.linalg.norm(x, axis=1).tobytes()
        assert _norm(x[0]).tobytes() == np.linalg.norm(x[0], axis=-1).tobytes()

    def test_rows_broadcast(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(3, 7, 2)), rng.normal(size=2)
        got = _dot(a, b)
        assert got.shape == (3, 7)
        assert np.allclose(got, a @ b, rtol=1e-14, atol=0.0)
        assert float(_dot(b, b)) == b[0] * b[0] + b[1] * b[1]

    def test_non_finite_rows_pass_through(self):
        x = np.array([[np.nan, 1.0], [np.inf, 0.0], [3.0, 4.0]])
        got = _norm(x)
        assert np.isnan(got[0]) and got[1] == np.inf and got[2] == 5.0
