"""The benchmark's span tracer still finds every function it patches.

``perfbench/spans.py`` names the traced functions by module and name and
wraps ``surface.EmbeddedGraph.__init__`` to count maps; a renamed or deleted
function would only break a traced benchmark run, so Tier-1 checks the
names here.
"""

import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import surfaceflow

SPANS = (pathlib.Path(__file__).resolve().parent.parent
         / "perfbench" / "spans.py")


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
