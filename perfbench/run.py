"""surfaceflow benchmark: one workload, one seed, one closed-loop client.

Usage, from the repository root::

    python3 perfbench/run.py --workload torus --seed 1 --seconds 30 --trace 0

Set-up imports the package from ``src/`` (no install step) and generates
the workload's instances with the package's own generators, serialised to
JSON files under ``.perfbench/``.  Each instance is then handled as
``surfaceflow solve --report --solution`` would handle it: ``load_instance``
-> ``pipeline.run`` -> ``render_report`` / ``solution_wire`` (plus
``exact_min_multicut`` on the oracle workload), one after another in this
process.  Every answer is checked outside the timed region.  A host-speed
probe runs after every instance generated or solved; times are reported in
reference seconds (see ``hostspeed``), the measured ones alongside.

``--trace 0`` solves one instance untimed, then times at least one pass over
all instances, more while the next one would end within ``--seconds``, and
prints the end-to-end metrics.
``--trace 1`` makes one untraced pass and one traced pass, prints the
per-layer metrics and the tracing overhead, and writes the spans to
``.perfbench/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import pkgutil
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import hostspeed
from spans import Tracer, TraceError, layer_metrics
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_PASSES = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    pass


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(("_s", ".s", ".measured")) or name.startswith("solve_s."):
        return "s"
    return "1" if name.endswith(("_ratio", "_rate", "_scale")) else "count"


def import_package() -> dict:
    """Import every surfaceflow module from ``src/``, as the tests do."""
    if not (SRC / "surfaceflow").is_dir():
        raise SetupError("no package source at %s" % (SRC / "surfaceflow"))
    sys.path.insert(0, str(SRC))
    importlib.import_module("surfaceflow")
    mods = {}
    for info in pkgutil.iter_modules([str(SRC / "surfaceflow")]):
        mod = importlib.import_module("surfaceflow." + info.name)
        if Path(mod.__file__).resolve().parent != SRC / "surfaceflow":
            raise SetupError("surfaceflow.%s was imported from %s"
                             % (info.name, mod.__file__))
        mods[info.name] = mod
    return mods


def environment(mods: dict) -> dict:
    import numpy

    qq = mods["rational"].QQ
    return {
        "rational_backend": "%s.%s" % (qq.__module__, qq.__qualname__),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def write_instances(mods: dict, workload, seed: int, limit, workdir: Path):
    """Generate and serialise the instances; the instance files, the time
    each took, and a host-speed probe after each."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths, times, probes = [], [], []
    instances = generate(mods["instances"], workload, seed, limit)
    while True:
        start = time.perf_counter()
        inst = next(instances, None)
        if inst is None:
            break
        path = workdir / ("%04d.json" % len(paths))
        path.write_text(mods["instances"].serialize_instance(inst),
                        encoding="utf-8")
        times.append(time.perf_counter() - start)
        paths.append(path)
        probes.append(hostspeed.probe())
    return paths, times, probes


def scaled(times: list, probes: list) -> list:
    """``times`` in reference seconds, each by the probes around it."""
    return [t * s for t, s in zip(times, hostspeed.local_scales(probes))]


class Bench:
    """Solves and checks a workload's instances; one pass at a time."""

    def __init__(self, mods: dict, workload, paths: list):
        self.mods = mods
        self.workload = workload
        self.paths = paths
        self.config = mods["pipeline"].PipelineConfig(
            epsilon=workload.epsilon, verify=workload.verify)

    def solve(self, path):
        # module attributes are looked up per call so traced bindings apply
        instances, pipeline = self.mods["instances"], self.mods["pipeline"]
        inst = instances.load_instance(path)
        flow, report = pipeline.run(inst, self.config)
        multicut = None
        if self.workload.verify == "full-oracle":
            multicut, _ = self.mods["oracle"].exact_min_multicut(inst)
        pipeline.render_report(report)
        solution = json.dumps(pipeline.solution_wire(flow), sort_keys=True,
                              indent=1) + "\n"
        return inst, report, solution, multicut

    def check(self, inst, report, solution, multicut) -> list:
        """Why the answer is wrong; empty when it passes every check."""
        problems = []
        verdict = self.mods["pipeline"].verify_solution(inst,
                                                        json.loads(solution))
        if not verdict["ok"]:
            problems.append("verify_solution: %s" % verdict["problems"])
        failed = [c["name"] for c in report["checks"] if not c["ok"]]
        if failed:
            problems.append("report checks failed: %s" % failed)
        lp = Fraction(report["stages"]["lp"]["value"])
        out = Fraction(report["output"]["value"])
        if out > lp:
            problems.append("output %s > LP %s" % (out, lp))
        if multicut is not None:
            opt = report["oracle"]["value"]
            if not out <= opt <= lp <= multicut:
                problems.append("sandwich pipeline %s <= OPT %s <= LP %s <= "
                                "multicut %s fails" % (out, opt, lp, multicut))
        return problems

    def run_pass(self, tracer: Tracer | None = None) -> dict:
        """Solve and check every instance once, probing the host speed after
        each."""
        times, probes, failures = [], [], []
        lp_total = out_total = Fraction(0)
        for i, path in enumerate(self.paths):
            if tracer is not None:
                tracer.instance = i
            scope = tracer.span("bench.instance") if tracer \
                else contextlib.nullcontext()
            with scope:
                start = time.perf_counter()
                elapsed = None
                try:
                    got = self.solve(path)
                    elapsed = time.perf_counter() - start
                    problems = self.check(*got)
                except Exception as exc:  # counted as a failure, never fatal
                    if elapsed is None:
                        elapsed = time.perf_counter() - start
                    traceback.print_exc(file=sys.stderr)
                    problems = ["%s: %s" % (type(exc).__name__, exc)]
                times.append(elapsed)
            probes.append(hostspeed.probe())
            if problems:
                failures.append((i, "; ".join(problems)))
                continue
            report = got[1]
            lp_total += Fraction(report["stages"]["lp"]["value"])
            out_total += Fraction(report["output"]["value"])
        ratio = float(out_total / lp_total) if lp_total else 0.0
        return {"times": times, "wall": sum(times), "probes": probes,
                "failures": failures, "value_ratio": ratio}


def measure(bench: Bench, seconds: float) -> list:
    """Untraced passes: at least ``MIN_PASSES``, more while one still fits."""
    with contextlib.suppress(Exception):  # a failure counts in the pass
        bench.solve(bench.paths[0])     # untimed warm-up: lazy imports, caches
    passes = []
    began = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - began + passes[-1]["wall"] <= seconds):
        passes.append(bench.run_pass())
    return passes


def end_to_end(passes: list, setup: dict) -> tuple:
    """The bounded end-to-end metrics, and the informational ones.

    Times are in reference seconds (see ``hostspeed``); ``setup`` holds the
    set-up times, scaled already.
    """
    # the median over passes damps short stalls of a shared host, and unlike
    # the minimum it does not fall as more passes fit into the run
    raw = [statistics.median(ts) for ts in zip(*(p["times"] for p in passes))]
    per_instance = [statistics.median(ts) for ts in zip(
        *(scaled(p["times"], p["probes"]) for p in passes))]
    attempted = len(per_instance) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    bounded = {
        "setup_s": setup["setup_s"],
        "wall_s": sum(per_instance),
        "solve_s.p50": statistics.median(per_instance),
        "value_ratio": passes[0]["value_ratio"],
        "ok_rate": 1 - failed / attempted,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "solve_s.p90": statistics.quantiles(per_instance, n=10,
                                            method="inclusive")[8]
        if len(per_instance) > 1 else per_instance[0],
        "solve_s.max": max(per_instance),
        "fail_rate": failed / attempted,
        "wall_s.measured": sum(raw),
        "host.solve_scale": hostspeed.scale(
            [x for p in passes for x in p["probes"]]),
        "setup_s.measured": setup["measured"],
        "host.setup_scale": setup["scale"],
    }
    return bounded, info


def traced(bench: Bench, trace_path: Path, header: dict) -> tuple:
    """One untraced and one traced pass; the per-layer metrics."""
    untraced = bench.run_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced_pass = bench.run_pass(tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans, tracer.counts)
    # in reference seconds, so that host drift between the passes cancels
    walls = [sum(scaled(p["times"], p["probes"]))
             for p in (untraced, traced_pass)]
    metrics["trace.untraced_wall_s"] = walls[0]
    metrics["trace.wall_s"] = walls[1]
    metrics["trace.overhead_s"] = walls[1] - walls[0]
    tracer.dump(trace_path, dict(header, metrics=metrics))
    return [untraced, traced_pass], metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instances", type=int, default=None,
                        help="solve only the first N instances (self-tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    for var in THREAD_VARS:     # before numpy is imported with the package
        os.environ[var] = "1"
    start = time.perf_counter()
    try:
        mods = import_package()
    except (SetupError, ImportError) as exc:
        print("perfbench: cannot import surfaceflow: %s" % exc,
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    env = environment(mods)

    workdir = OUT / ("%s-seed%d-%d" % (workload.name, args.seed, os.getpid()))
    trace_path = OUT / ("trace-%s-seed%d.json" % (workload.name, args.seed))
    info = {}
    try:
        gen_times, gen_scaled, probes = [], [], []
        for _ in range(SETUP_REPEATS):
            paths, times, more = write_instances(mods, workload, args.seed,
                                                 args.instances, workdir)
            gen_times.append(sum(times))
            gen_scaled.append(sum(scaled(times, more)))
            probes += more
        setup_scale = hostspeed.scale(probes[:hostspeed.WINDOW])
        setup = {
            "setup_s": import_s * setup_scale + statistics.median(gen_scaled),
            "measured": import_s + statistics.median(gen_times),
            "scale": hostspeed.scale(probes),
        }
        bench = Bench(mods, workload, paths)
        if args.trace:
            passes, metrics = traced(bench, trace_path, {
                "workload": workload.name, "seed": args.seed, "env": env})
        else:
            passes = measure(bench, args.seconds)
            metrics, info = end_to_end(passes, setup)
    except TraceError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(paths) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    print("perfbench workload=%s seed=%d trace=%d instances=%d passes=%d "
          "attempted=%d failed=%d" % (workload.name, args.seed, args.trace,
                                      len(paths), len(passes), attempted,
                                      failed))
    print("env %s" % json.dumps(env, sort_keys=True))
    print("setup import_s=%.4f generate_s=%s" % (
        import_s, ",".join("%.4f" % t for t in gen_times)))
    for n, p in enumerate(passes):
        for i, reason in p["failures"]:
            print("failure pass=%d instance=%d %s: %s"
                  % (n, i, paths[i].name, reason))
    for name, value in {**metrics, **info}.items():
        print("metric %s %r %s" % (name, value, unit_of(name)))
    if args.trace:
        print("trace %s" % trace_path.relative_to(ROOT))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
