"""The committed output manifest against the package, on a few instances.

``tools/output_manifest.py`` writes the sha256 of the report and solution
bytes (and, at ``full-oracle``, the minimum multicut) of every seeds 1-2
instance of the benchmark pools, and of each such instance's JSON bytes;
here the first instances of each pool at seed 1 are generated again and
solved at each of the pool's verify levels, and the ``torus`` pool's on
each forced branch, and must give the recorded digests (the oracle pool's
mix puts a 3x3 torus fourth in every four).
"""

import importlib.util
import json
import pathlib

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
FIRST = {"torus": 10, "planar": 20, "oracle": 12}


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "output_manifest", TOOLS / "output_manifest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


TOOL = load_tool()
RECORDED = json.loads(TOOL.MANIFEST.read_text(encoding="utf-8"))


def test_manifest_covers_the_pools():
    assert sorted(RECORDED) == sorted(TOOL.keys())
    assert TOOL.key("oracle", 1, "full-oracle") in RECORDED
    assert TOOL.key("torus", 2, "off", "improved") in RECORDED
    assert TOOL.key("planar", 2, TOOL.INSTANCE) in RECORDED
    mods = TOOL.import_modules()
    for name, digests in RECORDED.items():
        workload = mods["workloads"].WORKLOADS[name.split("/")[0]]
        assert len(digests) == workload.groups * len(workload.mix)


@pytest.mark.parametrize("pool, verify, branch", TOOL.runs())
def test_first_instances_match(pool, verify, branch):
    got = TOOL.digests(TOOL.import_modules(), pool, 1, verify,
                       limit=FIRST[pool], branch=branch)
    assert got == RECORDED[TOOL.key(pool, 1, verify, branch)][:FIRST[pool]]


@pytest.mark.parametrize("pool", TOOL.POOLS)
def test_first_instance_bytes_match(pool):
    got = TOOL.instance_digests(TOOL.import_modules(), pool, 1,
                                limit=FIRST[pool])
    assert got == RECORDED[TOOL.key(pool, 1, TOOL.INSTANCE)][:FIRST[pool]]
