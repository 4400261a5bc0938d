"""Rounding the non-separating part of a multiflow to an integral one.

The non-separating cycles in an uncrossed support fall into free homotopy
classes of pairwise non-crossing cycles.  ``topology.classify_homotopy``
lists each class in the cyclic order its annuli give it, with its two end
cycles, so the rounding reads both and makes no surgery.  Any edge shared
by two class members is shared by a whole arc between them, and on such a
cyclically ordered family the greatest-feasible-integer ``greedy`` keeps at
least half of the fractional value.

The refined rounding colors the class cross-graph (classes adjacent when
their representatives cross), keeps the heaviest color class, and isolates
its homotopy classes from one another by capping every edge of a class's
two end cycles at the floor of the class's own load, losing at most two
units per class.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InternalInvariantError, PreconditionError
from .flows import DCycle, Multiflow, edge_loads
from .instances import Instance
from .rational import QQ
from .round_separating import degeneracy_coloring
# unused here (the classification's cut gives each class's order and
# ends); perfbench's tracer test looks for these bindings
from .surface import cut_along, disjointify  # noqa: F401
from .topology import HomotopyClassification
from .uncross import cr


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


def greedy_values(edge_sets: Sequence, caps) -> list:
    """Greatest-feasible-integer greedy over abstract cycle edge sets,
    with int capacities ``caps[e]``."""
    load: dict[int, int] = {}
    out = []
    for es in edge_sets:
        x = max(min(caps[e] - load.get(e, 0) for e in es), 0)
        out.append(x)
        if x:
            for e in es:
                load[e] = load.get(e, 0) + x
    return out


def greedy(cycles: Sequence[DCycle], instance: Instance, caps: Sequence[int],
           bound: int, denom: int) -> Multiflow:
    """Route each cycle in turn at the greatest feasible integer value.

    ``cycles`` must be cyclically ordered and the int ``caps[e]`` bounds
    edge ``e``; the result is checked to carry at least half of the
    fractional value ``bound / denom``.
    """
    edge_sets = [c.edges for c in cycles]
    if not check_cyclic_order(edge_sets):
        raise PreconditionError("input sequence is not cyclically ordered")
    out = Multiflow(instance)
    for c, x in zip(cycles, greedy_values(edge_sets, caps)):
        if x:
            out.add(c, x)
    if 2 * out.total * denom < bound:
        raise InternalInvariantError(
            "greedy lost more than half of the fractional value",
            witness=(out.value, QQ(bound, denom)))
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
    support, with their numerators over ``flow.denom`` as values.  The
    classes are ordered by total flow value (ties by smallest member
    index), so the first one is the argmax; the flow on every other cycle
    is dropped.
    """
    inst = flow.instance
    nonsep = _nonseparating_cycles(classification)
    return greedy([nonsep[i] for i in classification.classes[0]], inst,
                  inst.caps, classification.totals[0], flow.denom)


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
    support, with their numerators over ``flow.denom`` as values.  The
    class cross-graph is greedily colored; the color class
    with the largest total value is kept.  Each kept class comes in cyclic
    order with its end pair (``classification.ends``; a single cycle is its
    own pair).  Every end-cycle edge a class shares with another kept class
    is capped at the floor of this class's own load, which decouples the
    classes at a cost of at most two units each; the greedy rounding then
    runs per class and the results are summed.  Edges no other kept class
    uses keep their capacity: any edge shared between two kept classes lies
    on end cycles of both, so per-class floors already sum to at most the
    original capacity.
    """
    inst, denom = flow.instance, flow.denom
    nonsep = _nonseparating_cycles(classification)
    classes = classification.classes
    reps = [nonsep[cls[0]] for cls in classes]
    color = degeneracy_coloring(class_cross_adjacency(inst.graph, reps))
    totals: dict[int, int] = {}
    for i, c in enumerate(color):
        totals[c] = totals.get(c, 0) + classification.totals[i]
    best = max(sorted(totals), key=lambda c: (totals[c], -c))
    kept = [i for i, c in enumerate(color) if c == best]

    out = Multiflow(inst)
    kept_edges = [
        {e for j in classes[i] for e in nonsep[j].edges} for i in kept]
    for pos, i in enumerate(kept):
        cls_cycles = [nonsep[j] for j in classes[i]]
        caps = list(inst.caps)
        others = set().union(*(kept_edges[p] for p in range(len(kept))
                               if p != pos)) if len(kept) > 1 else set()
        pair = classification.ends[i]
        if pair is None:
            # the class fills the surface; no other class may touch it
            if kept_edges[pos] & others:
                raise InternalInvariantError(
                    "annular class shares edges with another kept class",
                    witness=i)
        else:
            loads = edge_loads({c: flow.values[c] for c in cls_cycles})
            for j in set(pair):
                for e in others.intersection(nonsep[j].edges):
                    caps[e] = min(caps[e], loads.get(e, 0) // denom)
        bound = classification.totals[i] - 2 * denom
        part = greedy(cls_cycles, inst, caps, max(bound, 0), denom)
        for c, v in part.values.items():
            out.add(c, v)
    out.verify_feasible()
    return out
