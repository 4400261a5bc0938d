"""Rounding the non-separating part of a multiflow to an integral one.

The non-separating cycles in an uncrossed support fall into free homotopy
classes of pairwise non-crossing cycles.  Cutting the surface along a
vertex-disjoint re-routing of a class, ``cut_along(*disjointify(graph,
darts))``, is read once per class: the components and the cycles form an
incidence graph that is a single cycle, which gives the class's cyclic
order (``cyclic_order``), and at most one component has negative Euler
characteristic, whose boundary gives the class's two extreme cycles
(``extreme_pair``).  Both answer with indices into the class.  Any edge
shared by two class members is shared by a whole arc between them, and on
such a cyclically ordered family the greatest-feasible-integer ``greedy``
keeps at least half of the fractional value.

The refined rounding colors the class cross-graph (classes adjacent when
their representatives cross), keeps the heaviest color class, and isolates
its homotopy classes from one another by capping every edge of a class's
two extreme cycles at the floor of the class's own load, losing at most two
units per class.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InternalInvariantError, PreconditionError
from .flows import DCycle, Multiflow, edge_loads
from .instances import Instance
from .rational import QQ
from .round_separating import degeneracy_coloring
from .surface import CutComplex, cut_along, disjointify
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


def cyclic_order(complex_: CutComplex) -> list:
    """Cyclic order of a class, read off the surface cut along it.

    The components of the cut surface, together with the cut cycles, form a
    bipartite incidence graph which must be a single cycle.  The cycle
    indices along it are returned (up to rotation/reflection); the walk
    starts at cycle 0 towards the smaller-numbered of its two components,
    the one holding the smaller face.  Two cycles or fewer are returned as
    they are.
    """
    k = len(complex_.side_component) // 2
    if k <= 2:
        return list(range(k))
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
    return order


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
    best = [nonsep[i] for i in classification.classes[0]]
    if len(best) > 2:  # two cycles are in cyclic order uncut
        cut = cut_along(*disjointify(inst.graph, [c.darts for c in best]))
        best = [best[i] for i in cyclic_order(cut)]
    return greedy(best, inst, inst.caps, classification.totals[0],
                  flow.denom)


def extreme_pair(complex_: CutComplex):
    """The two cycles bounding the sole positive-genus cut component.

    ``complex_`` is the surface cut along a class of two or more cycles.
    It has annuli plus at most one component of negative Euler
    characteristic; any cycle of another non-crossing class sharing an edge
    with the class shares one with that component's boundary.  Returns the
    two boundary cycle indices, equal when one cycle bounds it, or ``None``
    when every component is an annulus (the class wraps the whole surface).
    """
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
    return (idx[0], idx[-1])


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
    with the largest total value is kept.  Each kept class of two or more
    cycles is cut along once, for its cyclic order and its extreme pair; a
    single cycle is its own extreme pair.  Every extreme-cycle edge a class
    shares with another kept class is capped at the floor of this class's
    own load, which decouples the classes at a cost of at most two units
    each; the greedy rounding then runs per class and the results are
    summed.  Edges no other kept class uses keep their capacity: any edge
    shared between two kept classes lies on extreme cycles of both, so
    per-class floors already sum to at most the original capacity.
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
        cut, pair = None, (0, 0)
        if len(cls_cycles) > 1:
            cut = cut_along(*disjointify(inst.graph,
                                         [c.darts for c in cls_cycles]))
            pair = extreme_pair(cut)
        if pair is None:
            # the class fills the surface; no other class may touch it
            if kept_edges[pos] & others:
                raise InternalInvariantError(
                    "annular class shares edges with another kept class",
                    witness=i)
        else:
            loads = edge_loads({c: flow.values[c] for c in cls_cycles})
            for j in set(pair):
                for e in others.intersection(cls_cycles[j].edges):
                    caps[e] = min(caps[e], loads.get(e, 0) // denom)
        order = [0] if cut is None else cyclic_order(cut)
        bound = classification.totals[i] - 2 * denom
        part = greedy([cls_cycles[j] for j in order], inst, caps,
                      max(bound, 0), denom)
        for c, v in part.values.items():
            out.add(c, v)
    out.verify_feasible()
    return out
