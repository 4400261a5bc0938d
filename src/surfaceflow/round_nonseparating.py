"""Rounding the non-separating part of a multiflow to an integral one.

The non-separating cycles in an uncrossed support fall into free homotopy
classes of pairwise non-crossing cycles.  Each class admits a cyclic order:
cutting the surface along a vertex-disjoint re-routing of the class leaves
components whose incidence graph with the cycles is a single cycle, and any
edge shared by two class members is shared by a whole arc between them.  On
a cyclically ordered family the greatest-feasible-integer greedy keeps at
least half of the fractional value.

The refined rounding colors the class cross-graph (classes adjacent when
their representatives cross), keeps the heaviest color class, and isolates
its homotopy classes from one another by capping every edge of a class's
two extreme cycles at the floor of the class's own load, losing at most two
units per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InternalInvariantError, PreconditionError
from .flows import DCycle, Multiflow
from .instances import Instance
from .rational import ZERO, floor_rat
from .round_separating import degeneracy_coloring
from .surface import cut_along, disjointify
from .topology import HomotopyClassification
from .uncross import cr


def _darts(cycle) -> tuple:
    return cycle.darts if hasattr(cycle, "darts") else tuple(cycle)


def _edges(cycle) -> frozenset:
    if hasattr(cycle, "edge_set"):
        return cycle.edge_set
    return frozenset(d >> 1 for d in cycle)


def _is_cyclic_arc(positions: set, k: int) -> bool:
    """True iff the position set is contiguous modulo ``k``."""
    if len(positions) in (0, k):
        return True
    return sum(1 for i in positions if (i + 1) % k not in positions) == 1


def check_cyclic_order(edge_sets: Sequence) -> bool:
    """Every shared edge must be carried by a contiguous cyclic arc."""
    k = len(edge_sets)
    by_edge: dict[int, set] = {}
    for i, es in enumerate(edge_sets):
        for e in es:
            by_edge.setdefault(e, set()).add(i)
    return all(_is_cyclic_arc(s, k) for s in by_edge.values())


@dataclass(frozen=True)
class CyclicOrder:
    """A homotopy class arranged so shared edges span contiguous arcs."""

    cycles: tuple

    def __post_init__(self):
        if not check_cyclic_order([_edges(c) for c in self.cycles]):
            raise InternalInvariantError(
                "sequence is not cyclically ordered",
                witness=tuple(_darts(c) for c in self.cycles))


def cyclic_order(cycles: Sequence[DCycle], instance: Instance) -> CyclicOrder:
    """Cyclically order a class of freely homotopic non-separating cycles.

    The cycles are re-routed to vertex-disjoint copies; the components of
    the surface cut along the copies, together with the copies, form a
    bipartite incidence graph which must be a single cycle.  The order of
    the cycles along it is returned (up to rotation/reflection); the walk
    starts at cycle 0 towards the smaller-numbered of its two components,
    the one holding the smaller face.
    """
    cycles = list(cycles)
    k = len(cycles)
    if k <= 2:
        return CyclicOrder(tuple(cycles))
    q, qcycles = disjointify(instance.graph, [_darts(c) for c in cycles])
    complex_ = cut_along(q, qcycles)
    cycle_inc = [{complex_.side_component[(i, side)] for side in (0, 1)}
                 for i in range(k)]
    comp_inc = [comp.boundary_cycles for comp in complex_.components]
    for i, inc in enumerate(cycle_inc):
        if len(inc) != 2:
            raise InternalInvariantError(
                "cycle is not incident to exactly two cut components",
                witness=(i, sorted(inc)))
    for ci, inc in enumerate(comp_inc):
        if len(inc) != 2:
            raise InternalInvariantError(
                "cut component is not incident to exactly two cycles",
                witness=(ci, sorted(inc)))
    if len(comp_inc) != k:
        raise InternalInvariantError(
            "incidence graph cannot be a single cycle",
            witness=(k, len(comp_inc)))
    order = [0]
    comp = min(cycle_inc[0])
    while True:
        (nxt,) = comp_inc[comp] - {order[-1]}
        if nxt == 0:
            break
        order.append(nxt)
        (comp,) = cycle_inc[nxt] - {comp}
    if len(order) != k:
        raise InternalInvariantError(
            "incidence graph is disconnected", witness=order)
    return CyclicOrder(tuple(cycles[i] for i in order))


def greedy_values(edge_sets: Sequence, caps: dict) -> list:
    """Greatest-feasible-integer greedy over abstract cycle edge sets."""
    load: dict[int, object] = {}
    out = []
    for es in edge_sets:
        x = min(floor_rat(caps[e] - load.get(e, ZERO)) for e in es)
        x = max(x, 0)
        out.append(x)
        if x:
            for e in es:
                load[e] = load.get(e, ZERO) + x
    return out


def greedy(order, flow: Multiflow, caps: dict | None = None,
           fractional_bound=None) -> Multiflow:
    """Route each cycle in turn at the greatest feasible integer value.

    With default capacities the result is checked to carry at least half of
    ``flow``'s value on the ordered family; with reduced capacities the
    caller supplies the fractional value the bound is checked against.
    """
    cycles = order.cycles if isinstance(order, CyclicOrder) else tuple(order)
    if not check_cyclic_order([_edges(c) for c in cycles]):
        raise PreconditionError("input sequence is not cyclically ordered")
    inst = flow.instance
    if caps is None:
        caps = dict(enumerate(inst.caps))
        if fractional_bound is None:
            fractional_bound = sum(
                (flow.values.get(c, ZERO) for c in cycles), ZERO)
    vals = greedy_values([_edges(c) for c in cycles], caps)
    out = Multiflow(inst)
    for c, x in zip(cycles, vals):
        if x:
            out.add(c, x)
    if fractional_bound is not None and 2 * out.value < fractional_bound:
        raise InternalInvariantError(
            "greedy lost more than half of the fractional value",
            witness=(out.value, fractional_bound))
    return out


def _nonseparating_cycles(classification: HomotopyClassification) -> tuple:
    """The classified non-separating cycles; there must be some."""
    if not classification.cycles:
        raise PreconditionError(
            "support has no non-separating cycles; use the separating branch")
    return classification.cycles


def select_class_and_round(flow: Multiflow,
                           classification: HomotopyClassification
                           ) -> Multiflow:
    """Keep the heaviest homotopy class and round it greedily.

    ``classification`` classifies the non-separating cycles of ``flow``'s
    support.  The classes are ordered by total flow value (ties by smallest
    member index), so the first one is the argmax; the flow on every other
    cycle is dropped.
    """
    nonsep = _nonseparating_cycles(classification)
    best = [nonsep[i] for i in classification.classes[0]]
    return greedy(cyclic_order(best, flow.instance), flow)


def extreme_pair(instance: Instance, cls_cycles: Sequence[DCycle]):
    """The two cycles bounding the class's sole positive-genus component.

    Cutting along a vertex-disjoint re-routing of the class leaves annuli
    plus at most one component of negative Euler characteristic; any cycle
    of another non-crossing class sharing an edge with this class shares
    one with that component's boundary.  Returns ``None`` when every
    component is an annulus (the class wraps the whole surface).
    """
    if len(cls_cycles) == 1:
        return (cls_cycles[0], cls_cycles[0])
    q, qcycles = disjointify(instance.graph,
                             [_darts(c) for c in cls_cycles])
    complex_ = cut_along(q, qcycles)
    big = [comp for comp in complex_.components if comp.chi < 0]
    if not big:
        return None
    if len(big) > 1:
        raise InternalInvariantError(
            "several positive-genus components after cutting along a class",
            witness=[comp.chi for comp in big])
    idx = sorted(big[0].boundary_cycles)
    if len(idx) > 2:
        raise InternalInvariantError(
            "positive-genus component bounded by more than two cycles",
            witness=idx)
    if len(idx) == 1:
        return (cls_cycles[idx[0]], cls_cycles[idx[0]])
    return (cls_cycles[idx[0]], cls_cycles[idx[1]])


def class_cross_adjacency(graph, representatives: Sequence[DCycle]) -> list:
    """Adjacency lists of the class cross-graph (representatives crossing)."""
    adj = [set() for _ in representatives]
    for i in range(len(representatives)):
        for j in range(i + 1, len(representatives)):
            if cr(graph, representatives[i].darts,
                  representatives[j].darts) > 0:
                adj[i].add(j)
                adj[j].add(i)
    return [sorted(s) for s in adj]


def improved_g2(flow: Multiflow,
                classification: HomotopyClassification) -> Multiflow:
    """Round several mutually non-crossing homotopy classes at once.

    ``classification`` classifies the non-separating cycles of ``flow``'s
    support.  The class cross-graph is greedily colored; the color class
    with the largest total value is kept.  Within it, every extreme-cycle
    edge a class shares with another kept class is capped at the floor of
    this class's own load, which decouples the classes at a cost of at most
    two units each; the greedy rounding then runs per class and the results
    are summed.  Edges no other kept class uses keep their capacity: any
    edge shared between two kept classes lies on extreme cycles of both, so
    per-class floors already sum to at most the original capacity.
    """
    inst = flow.instance
    nonsep = _nonseparating_cycles(classification)
    classes = classification.classes
    reps = [nonsep[cls[0]] for cls in classes]
    color = degeneracy_coloring(class_cross_adjacency(inst.graph, reps))
    totals: dict[int, object] = {}
    for i, c in enumerate(color):
        totals[c] = totals.get(c, ZERO) + classification.totals[i]
    best = max(sorted(totals), key=lambda c: (totals[c], -c))
    kept = [i for i, c in enumerate(color) if c == best]

    out = Multiflow(inst)
    kept_edges = [
        {e for j in classes[i] for e in nonsep[j].edge_set} for i in kept]
    for pos, i in enumerate(kept):
        cls_cycles = [nonsep[j] for j in classes[i]]
        caps = dict(enumerate(inst.caps))
        others = set().union(*(kept_edges[p] for p in range(len(kept))
                               if p != pos)) if len(kept) > 1 else set()
        pair = extreme_pair(inst, cls_cycles)
        if pair is None:
            # the class fills the surface; no other class may touch it
            if kept_edges[pos] & others:
                raise InternalInvariantError(
                    "annular class shares edges with another kept class",
                    witness=i)
        else:
            loads = Multiflow(
                inst, {c: flow.values[c] for c in cls_cycles}).edge_loads()
            for c in {pair[0], pair[1]}:
                for e in c.edge_set & others:
                    caps[e] = min(caps[e], floor_rat(loads.get(e, ZERO)))
        bound = classification.totals[i] - 2
        part = greedy(cyclic_order(cls_cycles, inst), flow, caps=caps,
                      fractional_bound=max(bound, ZERO))
        for c, v in part.values.items():
            out.add(c, v)
    out.verify_feasible()
    return out
