"""The benchmark's span tracer still finds every function it patches.

``perfbench/spans.py`` names the traced functions by module and name and
wraps ``surface.EmbeddedGraph.__init__`` to count maps; a renamed or deleted
function would only break a traced benchmark run, so Tier-1 checks the
names here.  A package module may keep an import it never reads
(``# noqa: F401``) only as a binding the tracer patches, and says so.
"""

import ast
import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import surfaceflow

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "surfaceflow"


@pytest.fixture(scope="module")
def spans():
    for info in pkgutil.iter_modules(surfaceflow.__path__):
        importlib.import_module("surfaceflow." + info.name)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(spans):
    missing = [
        "%s.%s" % (mod, fn) for mod, fn, _hook in spans.TRACED
        if not callable(getattr(importlib.import_module("surfaceflow." + mod),
                                fn, None))]
    assert missing == []
    from surfaceflow.surface import EmbeddedGraph
    assert isinstance(EmbeddedGraph, type)


def test_tracer_installs_and_restores(spans):
    import surfaceflow.surface as surface

    init = surface.EmbeddedGraph.__init__
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert set(tracer.bindings) == {
            "%s.%s" % (mod, fn) for mod, fn, _hook in spans.TRACED}
    finally:
        tracer.uninstall()
    assert surface.EmbeddedGraph.__init__ is init


def pinned_imports(source: str) -> list:
    """``(module, name, comment)`` for each name of every import marked
    ``# noqa: F401``; ``comment`` joins the comment lines right above it."""
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and "# noqa: F401" in lines[node.end_lineno - 1]:
            k = node.lineno - 1
            while k and lines[k - 1].lstrip().startswith("#"):
                k -= 1
            comment = " ".join(lines[k:node.lineno - 1])
            found.extend((getattr(node, "module", None), alias.name, comment)
                         for alias in node.names)
    return found


def test_detects_pinned_imports():
    assert pinned_imports("import os  # noqa: F401\n"
                          "# kept for perfbench\n"
                          "# and its tracer\n"
                          "from .lp import solve_lp, check_certificate"
                          "  # noqa: F401\n"
                          "from .flows import decompose\n") == [
        (None, "os", ""),
        ("lp", "solve_lp", "# kept for perfbench # and its tracer"),
        ("lp", "check_certificate", "# kept for perfbench # and its tracer")]


def test_pinned_imports_are_traced_bindings(spans):
    traced = {(mod, fn) for mod, fn, _hook in spans.TRACED}
    pinned = {path.name: pinned_imports(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))}
    bad = {name: [(mod, fn) for mod, fn, comment in found
                  if (mod, fn) not in traced or "perfbench" not in comment]
           for name, found in pinned.items()}
    assert {name: found for name, found in bad.items() if found} == {}
