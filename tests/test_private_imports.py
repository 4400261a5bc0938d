"""No package module imports a private name from a sibling module, or a
name it never reads, or asks an object what attributes it has, or checks
with ``assert``, or rebinds a module global from a function, or decides
from the text of an exception it caught.

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


def unused_imports(source: str) -> list:
    """Names a module imports but never reads; an import line marked
    ``# noqa: F401`` is exempt (``test_trace_bindings`` holds each such
    name to a binding the benchmark's tracer patches)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and "# noqa: F401" not in lines[node.end_lineno - 1]:
            imported.extend((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_detects_unused_import():
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\n"
                          "from math import gcd, lcm\n"
                          "from .lp import solve_lp  # noqa: F401\n"
                          "x: gcd = os.sep\n") == ["lcm"]


def test_no_unused_imports():
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}


def hasattr_calls(source: str) -> list:
    """Line numbers of the ``hasattr`` calls in a module."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "hasattr"]


def test_detects_hasattr():
    assert hasattr_calls("x = 1\n"
                         "if hasattr(x, 'darts'):\n"
                         "    y = [hasattr(z, 'edge_set') for z in x]\n"
                         "attr = getattr(x, 'darts', None)\n") == [2, 3]


def test_no_hasattr():
    """Every cycle the package handles is a ``DCycle``; duck-typed inputs
    stay in the tests."""
    found = {path.name: hasattr_calls(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def assertions(source: str) -> list:
    """Line numbers of the ``assert`` statements and of every use of
    ``AssertionError`` in a module."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Name)
                  and node.id == "AssertionError")


def test_detects_assertions():
    assert assertions("assert x, 'why'\n"
                      "if x:\n"
                      "    raise AssertionError('mismatch')\n"
                      "y = 'assert'\n"
                      "try:\n"
                      "    pass\n"
                      "except AssertionError:\n"
                      "    pass\n") == [1, 3, 7]


def test_no_assertions():
    """``python -O`` strips ``assert``, and ``cli.main`` reports only the
    package's own errors: a failed invariant raises
    ``InternalInvariantError`` with a witness."""
    found = {path.name: assertions(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def global_statements(source: str) -> list:
    """Line numbers of the ``global`` statements in a module."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Global))


def test_detects_global_statements():
    assert global_statements("_last = None\n"
                             "def keep(x):\n"
                             "    global _last\n"
                             "    _last = x\n"
                             "def count():\n"
                             "    n = 0\n"
                             "    def up():\n"
                             "        nonlocal n\n"
                             "        n += 1\n"
                             "    global_x = 1\n") == [3]


def test_no_global_statements():
    """Module state that a function rebinds is a hidden side channel; a
    kept answer is ``functools.lru_cache``'s business."""
    found = {path.name: global_statements(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


TEXT_TESTS = {"startswith", "endswith", "find", "index", "count", "search",
              "match", "fullmatch"}


def exception_text_tests(source: str) -> list:
    """Line numbers where an ``except`` body decides from the text of the
    exception it caught: a comparison (``in``, ``==``, ...) or a string or
    ``re`` test (``startswith``, ``search``, ...) reading ``str(exc)``,
    ``repr(exc)``, a format of ``exc``, ``exc.args``, or a name bound from
    one of these in that body.  Passing the text on, or reading another
    attribute such as ``exc.code``, decides nothing."""
    found = set()
    for handler in ast.walk(ast.parse(source)):
        if not isinstance(handler, ast.ExceptHandler) or not handler.name:
            continue
        body = [node for stmt in handler.body for node in ast.walk(stmt)]
        # exc itself, but not as the object of an attribute other than args
        owners = {id(node.value) for node in body
                  if isinstance(node, ast.Attribute) and node.attr != "args"}
        texts = {handler.name}

        def reads_text(expr):
            return any(isinstance(node, ast.Name) and node.id in texts
                       and (node.id != handler.name or id(node) not in owners)
                       for node in ast.walk(expr))

        grown = True
        while grown:  # names bound from the text, to a fixed point
            grown = False
            for node in body:
                if isinstance(node, ast.Assign) and reads_text(node.value):
                    new = {t.id for t in node.targets
                           if isinstance(t, ast.Name)} - texts
                    texts |= new
                    grown = grown or bool(new)
        for node in body:
            if isinstance(node, ast.Compare) \
                    and reads_text(ast.Tuple([node.left, *node.comparators])):
                found.add(node.lineno)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in TEXT_TESTS \
                    and reads_text(ast.Tuple([node.func.value, *node.args])):
                found.add(node.lineno)
    return sorted(found)


def test_detects_exception_text_tests():
    assert exception_text_tests(
        "try:\n"
        "    pass\n"
        "except ValueError as exc:\n"
        "    msg = str(exc)\n"
        "    if 'disconnected' in msg:\n"
        "        raise KeyError(msg)\n"
        "    if repr(exc).startswith('x') or re.search('y', msg):\n"
        "        pass\n"
        "    note = 'why: %s' % exc\n"
        "    if note == 'why: x' or exc.code == 'rotation':\n"
        "        pass\n"
        "    if 'x' in exc.args:\n"
        "        pass\n"
        "except KeyError as err:\n"
        "    raise ValueError(err.code, str(err)) from err\n"
        "except OSError:\n"
        "    pass\n"
        "if 'x' in str(ValueError()):\n"
        "    pass\n") == [5, 7, 10, 12]


def test_no_decision_from_exception_text():
    """A fault's family travels as data (``StructuralError.code``), so no
    caller has to keep in step with the wording of another module's
    messages."""
    found = {path.name: exception_text_tests(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
