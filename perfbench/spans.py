"""Span tracing of surfaceflow from outside the package.

``Tracer.install`` replaces every ``surfaceflow.*`` module attribute that is
one of the traced public functions with a wrapper that records a span
(name, start, end, parent span, instance id).  Functions imported by name
into several modules are therefore traced at every call site.  Spans stay
in memory; ``layer_metrics`` folds them into the per-layer metrics and
``Tracer.dump`` writes them out.

``lp.*`` metrics cover ``lp.solve_lp`` only:
``round_separating.half_integralize`` calls the private
``lp._simplex_exact`` directly, and that time is reported as
``round_separating.half_integralize_s``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter


class TraceError(RuntimeError):
    """A traced function could not be found or bound anywhere."""


def _count(key, value_of):
    def hook(counts, args, kwargs, result):
        counts[key] += value_of(result)
    return hook


# (module, function, counter hook or None); the span name is "module.function"
TRACED = (
    ("lp", "solve_lp", lambda counts, args, kwargs, result: (
        counts.update({"lp.columns": len(args[0] if args else kwargs["c"]),
                       "lp.exact_calls": int(result.engine == "exact")}))),
    ("lp", "check_certificate", None),
    ("flows", "solve_fractional", None),
    ("flows", "decompose", _count("flows.support", lambda r: len(r.values))),
    ("uncross", "uncross_flow",
     _count("uncross.support_out", lambda r: len(r.values))),
    ("uncross", "discretize",
     _count("uncross.quanta", lambda r: sum(r[0].values()))),
    ("uncross", "uncross_pair", None),
    ("uncross", "cr", None),
    ("topology", "split_support", None),
    ("topology", "classify_homotopy", None),
    ("topology", "freely_homotopic", _count("topology.homotopic", bool)),
    ("surface", "disjointify", None),
    ("surface", "cut_along", None),
    ("round_separating", "round_separating", None),
    ("round_separating", "half_integralize", None),
    ("round_nonseparating", "select_class_and_round", None),
    ("oracle", "enumerate_d_cycles", _count("oracle.cycles", len)),
    ("oracle", "exact_integral_multiflow", None),
    ("oracle", "exact_min_multicut", None),
    ("instances", "load_instance", None),
    ("pipeline", "run", None),
    ("pipeline", "render_report", None),
    ("pipeline", "solution_wire", None),
    ("pipeline", "verify_solution", None),
)


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index, instance]
        self.counts: Counter = Counter()
        self.instance = None
        self.bindings: dict = {}
        self._stack: list = []
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.instance])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Trace every binding of every function in ``TRACED``."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "surfaceflow" or name.startswith("surfaceflow.")}
        try:
            for mod_name, fn_name, hook in TRACED:
                home = modules.get("surfaceflow." + mod_name)
                original = getattr(home, fn_name, None)
                if original is None:
                    raise TraceError("surfaceflow.%s.%s does not exist"
                                     % (mod_name, fn_name))
                traced = self.wrap("%s.%s" % (mod_name, fn_name), original,
                                   hook)
                bound = []
                for name, mod in sorted(modules.items()):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
                            self._undo.append((mod, attr, original))
                            bound.append("%s.%s" % (name, attr))
                if not bound:
                    raise TraceError("no binding of surfaceflow.%s.%s"
                                     % (mod_name, fn_name))
                self.bindings["%s.%s" % (mod_name, fn_name)] = bound
            self._count_maps(modules["surfaceflow.surface"].EmbeddedGraph)
        except BaseException:
            self.uninstall()
            raise

    def _count_maps(self, cls) -> None:
        original = cls.__init__
        counts = self.counts

        @functools.wraps(original)
        def init(graph, *args, **kwargs):
            counts["surface.maps_built"] += 1
            original(graph, *args, **kwargs)

        cls.__init__ = init
        self._undo.append((cls, "__init__", original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path, header: dict) -> None:
        doc = dict(header)
        doc["bindings"] = self.bindings
        doc["span_fields"] = ["name", "start", "end", "parent", "instance"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(spans: list, counts: Counter) -> dict:
    """Per-layer sums: inclusive and self times, call counts, work counts."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    total, self_time, calls = Counter(), Counter(), Counter()
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] += 1
        self_time[name] += dur[i] - child[i]
        if name not in ancestors(i):   # count recursive time once
            total[name] += dur[i]

    cr_in_uncross = lp_in_oracle = 0
    for i, s in enumerate(spans):
        if s[0] == "uncross.cr" and "uncross.uncross_flow" in ancestors(i):
            cr_in_uncross += 1
        if s[0] == "lp.solve_lp" and any(a.startswith("oracle.")
                                         for a in ancestors(i)):
            lp_in_oracle += 1
    tests = calls["topology.freely_homotopic"]
    return {
        "lp.solve_s": total["lp.solve_lp"],
        "lp.calls": calls["lp.solve_lp"],
        "lp.exact_calls": counts["lp.exact_calls"],
        "lp.certify_s": total["lp.check_certificate"],
        "lp.certify_calls": calls["lp.check_certificate"],
        "lp.columns": counts["lp.columns"],
        "flows.solve_fractional_self_s": self_time["flows.solve_fractional"],
        "flows.decompose_s": total["flows.decompose"],
        "flows.support": counts["flows.support"],
        "uncross.s": total["uncross.uncross_flow"],
        "uncross.self_s": self_time["uncross.uncross_flow"],
        "uncross.quanta": counts["uncross.quanta"],
        "uncross.rewrites": calls["uncross.uncross_pair"],
        "uncross.cr_calls": cr_in_uncross,
        "uncross.support_out": counts["uncross.support_out"],
        "topology.split_s": total["topology.split_support"],
        "topology.classify_s": total["topology.classify_homotopy"],
        "topology.homotopy_tests": tests,
        "topology.homotopy_hit_ratio":
            counts["topology.homotopic"] / tests if tests else 0.0,
        "surface.maps_built": counts["surface.maps_built"],
        "surface.disjointify_s": total["surface.disjointify"],
        "surface.cut_along_s": total["surface.cut_along"],
        "round_separating.s": total["round_separating.round_separating"],
        "round_separating.half_integralize_s":
            total["round_separating.half_integralize"],
        "round_nonseparating.s":
            total["round_nonseparating.select_class_and_round"],
        "oracle.enumerate_s": total["oracle.enumerate_d_cycles"],
        "oracle.enumerate_calls": calls["oracle.enumerate_d_cycles"],
        "oracle.cycles": counts["oracle.cycles"],
        "oracle.flow_s": total["oracle.exact_integral_multiflow"],
        "oracle.multicut_s": total["oracle.exact_min_multicut"],
        "oracle.lp_calls": lp_in_oracle,
        "instances.load_s": total["instances.load_instance"],
        "pipeline.run_s": total["pipeline.run"],
        "pipeline.self_s": self_time["pipeline.run"],
        "pipeline.render_s":
            total["pipeline.render_report"] + total["pipeline.solution_wire"],
        "pipeline.verify_solution_s": total["pipeline.verify_solution"],
        "trace.spans": n,
    }
