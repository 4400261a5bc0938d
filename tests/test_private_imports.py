"""No package module imports a private name from a sibling module.

A ``_name`` is a module's own business; another module that needs it should
get a public name instead, so that each job keeps one entry point.
"""

import ast
import pathlib

PACKAGE = (pathlib.Path(__file__).resolve().parent.parent
           / "src" / "surfaceflow")


def private_imports(source: str) -> list:
    """``(module, name)`` of every private name imported from the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("surfaceflow"):
            continue
        found.extend((module, alias.name) for alias in node.names
                     if alias.name.startswith("_"))
    return found


def test_detects_private_import():
    assert private_imports("from .lp import solve_lp, _simplex_exact\n"
                           "from surfaceflow.flows import _x\n"
                           "from . import _y\n"
                           "from os import _exit\n") == [
        ("lp", "_simplex_exact"), ("surfaceflow.flows", "_x"), ("", "_y")]


def test_no_private_cross_module_imports():
    bad = {path.name: private_imports(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in bad.items() if found} == {}
