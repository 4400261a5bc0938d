"""End-to-end approximation pipeline and its machine-readable report.

Stages: fractional LP, decomposition into D-cycles, uncrossing, branch
selection by the exact comparison ``2 |f̄(separating)| >= |f̄|``, then either
the separating rounding (half-integralize, unit reduction, coloring) or the
non-separating one (heaviest homotopy class, cyclic order, greedy); the
improved branch rounds a whole color class of homotopy classes instead.
Every stage's guaranteed bound is recorded in the report; the pipeline
re-checks on the actual numbers those its stages do not raise on.

The flows are int numerators over one denominator each
(``flows.Multiflow``), and the bounds are compared in ints.  The only
``QQ``s read here are the LP's value, the multicut's cost and ``epsilon``;
the report's ``p/q`` strings are written from ints (``rat_str``).
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import dataclass

from .errors import InternalInvariantError, PreconditionError
from .flows import Multiflow, edge_loads, solve_and_decompose
from .instances import Instance
from .oracle import DEFAULT_BUDGET, exact_integral_multiflow
from .rational import QQ, rat, rat_str
from .round_nonseparating import improved_g2, select_class_and_round
from .round_separating import round_separating
from .topology import classify_homotopy, laminar_family, split_support
from .uncross import uncross_flow

BRANCHES = ("auto", "separating", "nonseparating", "improved")
VERIFY_LEVELS = ("off", "invariants", "full-oracle")


@dataclass(frozen=True)
class PipelineConfig:
    epsilon: object = "1/2"
    branch: str = "auto"
    verify: str = "off"

    def __post_init__(self):
        try:
            eps = self.eps
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise PreconditionError("epsilon %r is not a rational p/q: %s"
                                    % (self.epsilon, exc)) from exc
        if not 0 < eps < 1:
            raise PreconditionError("epsilon must lie strictly in (0, 1)")
        if self.branch not in BRANCHES:
            raise PreconditionError("unknown branch %r" % (self.branch,))
        if self.verify not in VERIFY_LEVELS:
            raise PreconditionError("unknown verify level %r" % (self.verify,))

    @functools.cached_property
    def eps(self):
        """``epsilon`` as a ``QQ``, parsed once per config."""
        return rat(self.epsilon)


@contextlib.contextmanager
def _stage(name):
    """Prefix an ``InternalInvariantError`` with the stage it came from."""
    try:
        yield
    except InternalInvariantError as exc:
        raise InternalInvariantError(
            "[stage %s] %s" % (name, exc), witness=exc.witness) from exc


def _check(report, name: str, ok: bool, witness) -> None:
    """Record a check; ``witness()`` gives the failing values."""
    report["checks"].append({"name": name, "ok": bool(ok)})
    if not ok:
        raise InternalInvariantError(
            "pipeline bound %r failed" % name, witness=witness())


def run(instance: Instance, config: PipelineConfig = PipelineConfig()):
    """Run the full pipeline; returns ``(integral Multiflow, report dict)``."""
    invariants = config.verify != "off"
    report: dict = {
        "schema": "surfaceflow-report/1",
        "config": {"epsilon": rat_str(config.eps), "branch": config.branch,
                   "verify": config.verify},
        "instance": {"vertices": instance.graph.n,
                     "edges": len(instance.graph.edges),
                     "demands": len(instance.demand_edges),
                     "genus": instance.graph.genus},
        "stages": {},
        "checks": [],
    }

    with _stage("lp+decompose"):
        flow, sol = solve_and_decompose(instance)
    lp_num, lp_den = sol.value.numerator, sol.value.denominator
    report["stages"]["lp"] = {"value": rat_str(sol.value),
                              "engine": sol.engine,
                              "multicut_value": rat_str(sol.multicut_value)}
    report["stages"]["decompose"] = {"value": rat_str(flow.total,
                                                      flow.denom),
                                     "support": len(flow.values)}

    eps = config.eps
    with _stage("uncross"):
        fbar = uncross_flow(flow, eps, check_invariants=invariants)
    # the values below are numerators over the uncrossed flow's denominator
    denom, fbar_total = fbar.denom, fbar.total
    report["stages"]["uncross"] = {"value": rat_str(fbar_total, denom),
                                   "support": len(fbar.values)}
    _check(report, "uncross value >= (1 - epsilon) * LP",
           fbar_total * eps.denominator * lp_den
           >= (eps.denominator - eps.numerator) * lp_num * denom,
           lambda: (fbar.value, sol.value))

    sep, sep_v, nonsep, nonsep_v = split_support(fbar)
    sep_total = sum(sep_v)
    nonsep_total = sum(nonsep_v)
    branch = config.branch
    if branch == "auto":
        branch = "separating" if 2 * sep_total >= fbar_total \
            else "nonseparating"
    report["stages"]["split"] = {
        "separating_value": rat_str(sep_total, denom),
        "nonseparating_value": rat_str(nonsep_total, denom),
        "branch": branch,
    }

    if branch == "separating":
        if invariants:
            # laminar_family raises InternalInvariantError on a
            # non-laminar family, so reaching the check means it held
            with _stage("split"):
                laminar_family(instance.graph, [c.darts for c in sep])
            _check(report, "separating support is laminar", True, None)
        with _stage("round_separating"):
            rounding = round_separating(fbar.restrict(sep))
        out, half = rounding.integral, rounding.half
        report["stages"]["round"] = {
            "branch": "separating",
            "half_value": rat_str(half.total, half.denom),
            "banked_value": rat_str(rounding.banked_value),
            "colors_used": rounding.colors_used,
            "class_sizes": rounding.class_sizes,
        }
        # half_integralize and round_separating raise on these two bounds,
        # with the same operands, so reaching the checks means they held
        _check(report, "half-integral value >= separating value / 2",
               True, None)
        _check(report, "integral value >= 2 * half value / color limit",
               True, None)
    else:
        with _stage("classify"):
            classification = classify_homotopy(instance.graph, nonsep,
                                               nonsep_v)
        report["stages"]["classify"] = {
            "classes": [sorted(c) for c in classification.classes],
            "totals": [rat_str(t, denom) for t in classification.totals],
        }
        if branch == "improved":
            with _stage("round_improved"):
                out = improved_g2(fbar, classification)
            report["stages"]["round"] = {"branch": "improved",
                                         "value": rat_str(out.total,
                                                          out.denom)}
        else:
            with _stage("round_nonseparating"):
                out = select_class_and_round(fbar, classification)
            report["stages"]["round"] = {"branch": "nonseparating",
                                         "value": rat_str(out.total,
                                                          out.denom)}
            # greedy raises on this bound, with the same operands
            _check(report, "greedy value >= class value / 2", True, None)

    with _stage("output"):
        out.verify_feasible()
        for c, v in out.values.items():
            if v % out.denom:
                raise InternalInvariantError(
                    "non-integral output value",
                    witness=(c.darts, QQ(v, out.denom)))
    out_total = out.total
    report["output"] = {"value": rat_str(out_total, out.denom),
                        "flow": out.to_wire()}

    if config.verify == "full-oracle":
        opt, _ = exact_integral_multiflow(instance, DEFAULT_BUDGET)
        report["oracle"] = {"value": opt}
        _check(report, "pipeline value <= exact optimum",
               out_total <= opt * out.denom, lambda: (out.value, opt))
        _check(report, "exact optimum <= LP value",
               opt * lp_den <= lp_num, lambda: (opt, sol.value))
    return out, report


def render_report(report: dict) -> str:
    """Byte-stable JSON rendering of a report."""
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


SOLUTION_SCHEMA = "surfaceflow-solution/1"


def solution_wire(flow: Multiflow) -> dict:
    return {"schema": SOLUTION_SCHEMA,
            "value": rat_str(flow.total, flow.denom),
            "flow": flow.to_wire()}


def solution_text(flow: Multiflow) -> str:
    """Byte-stable JSON rendering of a solution, as ``render_report``'s."""
    return json.dumps(solution_wire(flow), sort_keys=True, indent=1) + "\n"


def _malformed(witness: str) -> dict:
    return {"ok": False,
            "problems": [{"kind": "malformed", "witness": witness}]}


def verify_solution(instance: Instance, data) -> dict:
    """Independent check of a serialized solution against an instance.

    Recomputes feasibility, integrality and the total value; any mismatch
    is reported with a witness instead of raising.  A document that is not
    a solution is ``malformed``: the top level must be an object with a
    ``flow`` list, and its ``schema``, if present, must be
    ``SOLUTION_SCHEMA``.  So is one with a value this check cannot write
    out, a number past Python's int-to-string digit limit.
    """
    if not isinstance(data, dict):
        return _malformed("solution is not a JSON object")
    if data.get("schema", SOLUTION_SCHEMA) != SOLUTION_SCHEMA:
        return _malformed("schema %r is not %r"
                          % (data["schema"], SOLUTION_SCHEMA))
    if not isinstance(data.get("flow"), list):
        return _malformed("flow is missing or not a list")
    try:
        flow = Multiflow.from_wire(instance, data["flow"])
    except Exception as exc:  # malformed cycles are a verdict, not a crash
        return _malformed(str(exc))
    denom = flow.denom
    problems = []
    try:
        for e, load in sorted(edge_loads(flow.values).items()):
            if load > instance.caps[e] * denom:
                problems.append({"kind": "capacity", "witness":
                                 {"edge": e, "load": rat_str(load, denom),
                                  "cap": instance.caps[e]}})
        fractional = [v for v in flow.values.values() if v % denom]
        if fractional:
            problems.append({"kind": "integrality", "witness":
                             [rat_str(v, denom) for v in fractional]})
        value = rat_str(flow.total, denom)
    except ValueError as exc:  # past the int-to-string digit limit
        return _malformed("a value cannot be written out: %s" % exc)
    declared = data.get("value")
    if declared is not None:
        try:
            declared_value = rat(declared)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            problems.append({"kind": "malformed", "witness":
                             "value %r: %s" % (declared, exc)})
        else:
            if declared_value.numerator * denom \
                    != flow.total * declared_value.denominator:
                problems.append({"kind": "value", "witness":
                                 {"declared": declared,
                                  "recomputed": value}})
    return {"ok": not problems, "problems": problems, "value": value}
