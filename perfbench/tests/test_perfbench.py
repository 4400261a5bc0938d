"""Self-test of the benchmark runner on reduced-size workloads.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REDUCED = "4"   # instances per reduced run: one whole oracle mix


def run_bench(workload: str, trace: int, hashseed: str = "0",
              cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env.pop("PYTHONPATH", None)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--instances", REDUCED],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return result


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    proc = run_bench(workload, trace=0)
    result = result_of(proc)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert units(result["metrics"]) == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[1]: line.split()[-1]
               for line in proc.stdout.splitlines()
               if line.startswith("metric ")}
    expected.update({"fail_rate": "1", "solve_s.p90": "s",
                     "solve_s.max": "s", "wall_s.measured": "s",
                     "setup_s.measured": "s", "host.solve_scale": "1",
                     "host.setup_scale": "1"})
    assert printed == expected
    assert "instances=" + REDUCED in proc.stdout
    assert '"rational_backend"' in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = result_of(run_bench(workload, trace=1, hashseed="1"))["metrics"]
    second = result_of(run_bench(workload, trace=1, hashseed="2"))["metrics"]
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counted = [name for name, m in first.items() if m["unit"] != "s"]
    assert counted
    assert {n: first[n]["value"] for n in counted} == \
        {n: second[n]["value"] for n in counted}


def test_runner_defines_the_listed_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    assert sorted(workloads.WORKLOADS) == sorted(WORKLOADS)


def test_local_scales_follow_the_probes_around_each_instance(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import hostspeed

    ref, window = hostspeed.REFERENCE_S, hostspeed.WINDOW
    assert hostspeed.local_scales([ref] * 3) == [1.0] * 3
    slow_then_fast = [2 * ref] * (2 * window) + [ref / 2] * (2 * window)
    scales = hostspeed.local_scales(slow_then_fast)
    assert len(scales) == len(slow_then_fast)
    assert scales[0] == scales[window] == 0.5
    assert scales[-1] == scales[-window] == 2.0
    assert hostspeed.probe() > 0


def test_refuses_to_run_without_the_package_source():
    stripped = ROOT / ".perfbench" / "selftest-stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", stripped / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped / "BENCHMARK.json")
    try:
        proc = run_bench(WORKLOADS[0], trace=0, cwd=stripped)
    finally:
        shutil.rmtree(stripped)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture
def spans_module(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import importlib
    import pkgutil

    for info in pkgutil.iter_modules([str(ROOT / "src" / "surfaceflow")]):
        importlib.import_module("surfaceflow." + info.name)
    import spans
    return spans


def test_every_binding_is_traced_and_restored(spans_module):
    import surfaceflow.lp as lp
    import surfaceflow.oracle as oracle

    original = lp.solve_lp
    tracer = spans_module.Tracer()
    tracer.install()
    try:
        assert oracle.solve_lp is lp.solve_lp is not original
        bound = tracer.bindings
        assert {"surfaceflow.lp.solve_lp", "surfaceflow.flows.solve_lp",
                "surfaceflow.oracle.solve_lp"} <= set(bound["lp.solve_lp"])
        for mod in ("uncross", "topology", "round_nonseparating"):
            assert "surfaceflow.%s.cr" % mod in bound["uncross.cr"]
        for fn in ("disjointify", "cut_along"):
            for mod in ("surface", "topology", "round_nonseparating"):
                assert "surfaceflow.%s.%s" % (mod, fn) in \
                    bound["surface." + fn]
    finally:
        tracer.uninstall()
    assert oracle.solve_lp is lp.solve_lp is original


def test_a_function_without_binding_fails_the_traced_run(spans_module,
                                                         monkeypatch):
    import surfaceflow.lp as lp

    original = lp.solve_lp
    monkeypatch.setattr(spans_module, "TRACED", spans_module.TRACED + (
        ("lp", "no_such_function", None),))
    with pytest.raises(spans_module.TraceError):
        spans_module.Tracer().install()
    assert lp.solve_lp is original
