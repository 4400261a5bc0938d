"""Topological uncrossing of D-cycle multiflows.

Two simple cycles *cross* at a maximal shared subpath (possibly a single
vertex) when, after contracting the shared path, their four divergent edges
alternate around the contracted vertex.  ``uncross_all`` takes a discretized
multiflow (an integer multiset of D-cycles) and repeatedly reroutes pairs
that cross at least twice, swapping the cycle segments between two crossings,
until every pair crosses at most once.  Each rewrite preserves the multiset
size, never increases any edge load, and strictly decreases the potential
``(total edge count, total crossing count)`` lexicographically, which bounds
the number of iterations.

Where two cycles meet comes from ``surface.shared_paths``, the walk that
``disjointify`` also orders its bands by, and whether they cross there from
``surface.crosses``: this module never reads the rotation order itself.
``shared_elements`` lists the common paths as crossings or touchings, in
order along the first cycle, and ``cr`` counts the crossings without
ordering them.

A rewrite is a deterministic function of its pair of cycles.  When the scan
picks the pair it rewrote in the previous iteration and the four cycles
involved are distinct, the multiset keys are unchanged, so the scan would
keep picking that pair until one of its cycles runs out; ``uncross_all``
then moves all those quanta in one step, with the same result and key order
as unit steps.  It takes these steps at every verify level:
``check_invariants`` only adds checks, and a batched step of ``k`` quanta
must lower the potential as the ``k`` unit steps it stands for would.

No ``QQ`` is made here: ``discretize`` reads the flow's int numerators and
gives the quantum as a pair ``(qn, qd)`` of ints, the multiset is int
counts, and ``multiset_to_flow`` writes ``k * qn`` over ``qd``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .errors import InternalInvariantError, PreconditionError
from .flows import DCycle, Multiflow, edge_loads
from .instances import Instance
from .rational import rat
from .surface import EmbeddedGraph, crosses, shared_paths


# ---------------------------------------------------------------------------
# crossings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharedPath:
    """A maximal common subpath of two cycles (single vertices allowed).

    ``is_crossing`` is ``surface.crosses`` of the path; a shared path that
    does not cross is a touching.
    """

    vertices: tuple
    edges: tuple
    is_crossing: bool


def _classified(graph: EmbeddedGraph, darts1: Sequence[int],
                darts2: Sequence[int]) -> list:
    """``shared_elements`` unordered.  Identical cycles (equal edge sets)
    share everything and cross nowhere: the result is empty."""
    cycles = ({d >> 1 for d in darts1}, {d >> 1 for d in darts2})
    if cycles[0] == cycles[1]:
        return []
    return [SharedPath(verts, edges, crosses(graph, cycles, verts, edges))
            for verts, edges in shared_paths(graph, cycles)]


def shared_elements(graph: EmbeddedGraph, darts1: Sequence[int],
                    darts2: Sequence[int]) -> list:
    """All maximal shared subpaths of two simple cycles, classified by
    ``surface.crosses``, ordered by first appearance along ``darts1``."""
    out = _classified(graph, darts1, darts2)
    pos = {graph.head(d): i for i, d in reversed(list(enumerate(darts1)))}
    out.sort(key=lambda s: min(pos[v] for v in s.vertices))
    return out


def crossings(graph: EmbeddedGraph, darts1: Sequence[int],
              darts2: Sequence[int]) -> list:
    return [s for s in shared_elements(graph, darts1, darts2)
            if s.is_crossing]


def cr(graph: EmbeddedGraph, darts1: Sequence[int],
       darts2: Sequence[int]) -> int:
    """``len(crossings(...))``, counted without ordering the paths."""
    return sum(s.is_crossing for s in _classified(graph, darts1, darts2))


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def discretize(flow: Multiflow, epsilon) -> tuple:
    """Round the flow down to integer multiples of a quantum.

    The quantum is ``epsilon * |f| / (|E| * |D|)``, so the loss is at most
    ``epsilon * |f|`` whenever the support has size at most ``|E| * |D|``.
    Returns ``(counts, (qn, qd))`` where counts maps each D-cycle to the
    integer number of quanta it carries and ``qn / qd`` is the quantum, in
    lowest terms (``(0, 1)`` for an empty flow).  A cycle of value
    ``num / denom`` carries ``(num * qd) // (denom * qn)`` quanta.
    """
    epsilon = rat(epsilon)
    if epsilon <= 0:
        raise PreconditionError("epsilon must be positive")
    total = flow.total
    if total == 0:
        return {}, (0, 1)
    inst = flow.instance
    qn = epsilon.numerator * total
    qd = (epsilon.denominator * flow.denom * len(inst.graph.edges)
          * max(1, len(inst.demand_edges)))
    g = gcd(qn, qd)
    qn, qd = qn // g, qd // g
    per = flow.denom * qn
    counts = {}
    for c, v in flow.values.items():
        k = v * qd // per
        if k:
            counts[c] = k
    return counts, (qn, qd)


def multiset_to_flow(instance: Instance, counts: dict, quantum) -> Multiflow:
    """The flow carrying ``k`` quanta ``qn / qd`` on each cycle of the
    multiset: ``k * qn`` over ``qd``."""
    qn, qd = quantum
    return Multiflow(instance, {c: k * qn for c, k in counts.items() if k},
                     qd)


# ---------------------------------------------------------------------------
# the uncrossing operation
# ---------------------------------------------------------------------------

def _reverse_cycle(darts: Sequence[int]) -> tuple:
    return tuple(d ^ 1 for d in reversed(darts))


def _rotate_to(darts: Sequence[int], i: int) -> tuple:
    return tuple(darts[i:]) + tuple(darts[:i])


def _orient_demand_before(graph: EmbeddedGraph, darts, path: SharedPath,
                          q_verts: set, demand: int):
    """Orient a cycle so that, traversing all of the shared path and then
    walking onward, the demand edge is met before any vertex of ``q_verts``.

    Returns the oriented cycle rotated to start at the first path vertex.
    """
    pv = set(path.vertices)
    for seq in (tuple(darts), _reverse_cycle(darts)):
        n = len(seq)
        start = None
        for i, d in enumerate(seq):
            if graph.head(d) in pv and graph.head(seq[i - 1]) not in pv:
                start = i
                break
        if start is None:
            raise InternalInvariantError("shared path spans the whole cycle",
                                         witness=path)
        seq = _rotate_to(seq, start)
        ok = None
        for d in seq:
            if (d >> 1) == demand:
                ok = True
                break
            if graph.tail(d) in q_verts:
                ok = False
                break
        if ok:
            return seq
    raise InternalInvariantError(
        "no orientation reaches the demand edge before the second crossing",
        witness=(tuple(darts), path, tuple(sorted(q_verts))))


def _orient_agree_on_path(graph: EmbeddedGraph, darts,
                          path: SharedPath, first_vertex: int):
    """Orient a cycle so it traverses the shared path starting at the given
    end, rotated to start there."""
    pv = set(path.vertices)
    for seq in (tuple(darts), _reverse_cycle(darts)):
        for i, d in enumerate(seq):
            if graph.head(d) == first_vertex \
                    and graph.head(seq[i - 1]) not in pv:
                return _rotate_to(seq, i)
    raise InternalInvariantError("cycle does not enter the shared path at "
                                 "the requested end", witness=path)


def _split_at(graph: EmbeddedGraph, seq, b: int) -> tuple:
    """Split an oriented cycle starting at ``a`` into the ``a -> b`` prefix
    and the ``b -> a`` suffix."""
    for i, d in enumerate(seq):
        if graph.tail(d) == b:
            return seq[:i + 1], seq[i + 1:]
    raise InternalInvariantError("split vertex not on cycle", witness=b)


def _extract_demand_cycle(graph: EmbeddedGraph, walk,
                          demand: int) -> tuple:
    """Simple cycle through the demand edge contained in a closed walk.

    Starts at the demand dart and keeps a stack of darts, popping any loop
    that returns to an already-visited vertex; terminates on returning to
    the start vertex.  Discarded loops are exactly the demand-free cycles.
    """
    try:
        k = next(i for i, d in enumerate(walk) if (d >> 1) == demand)
    except StopIteration:
        raise InternalInvariantError(
            "rerouted walk lost its demand edge", witness=tuple(walk))
    walk = _rotate_to(tuple(walk), k)
    start = graph.head(walk[0])
    stack = []
    arrived = {}
    for d in walk:
        stack.append(d)
        v = graph.tail(d)
        if v == start:
            return tuple(stack)
        if v in arrived:
            idx = arrived[v]
            for dd in stack[idx + 1:]:
                arrived.pop(graph.tail(dd), None)
            del stack[idx + 1:]
            arrived[v] = idx
        else:
            arrived[v] = len(stack) - 1
    raise InternalInvariantError("walk is not closed", witness=tuple(walk))


def uncross_pair(instance: Instance, c1: DCycle, c2: DCycle,
                 p: SharedPath, q: SharedPath) -> tuple:
    """One uncrossing rewrite of two cycles at crossings ``p`` and ``q``.

    ``q`` must contain no demand edge.  Returns the two replacement
    D-cycles; together they use a sub-multiset of the original edges, so
    every edge load weakly decreases.
    """
    g = instance.graph
    if any(instance.is_demand(e) for e in q.edges):
        raise PreconditionError("second crossing must avoid demand edges")
    q_verts = set(q.vertices)

    o1 = _orient_demand_before(g, c1.darts, p, q_verts, c1.demand)
    a = g.head(o1[0])
    # b: first vertex of q met when walking the oriented first cycle from a
    b = next(g.tail(d) for d in o1 if g.tail(d) in q_verts)

    if any(instance.is_demand(e) for e in p.edges):
        o2 = _orient_agree_on_path(g, c2.darts, p, a)
    else:
        o2 = _orient_demand_before(g, c2.darts, p, q_verts, c2.demand)
        # the second cycle may enter the shared path at the other end; only
        # the split vertices a and b matter, so re-root the orientation at a
        o2 = _rotate_to(o2, next(i for i, d in enumerate(o2)
                                 if g.head(d) == a))

    c1_plus, c1_minus = _split_at(g, o1, b)
    c2_plus, c2_minus = _split_at(g, o2, b)
    new1 = _extract_demand_cycle(g, c1_plus + c2_minus, c1.demand)
    new2 = _extract_demand_cycle(g, c2_plus + c1_minus, c2.demand)
    return (DCycle.from_darts(instance, new1),
            DCycle.from_darts(instance, new2))


# ---------------------------------------------------------------------------
# the full loop
# ---------------------------------------------------------------------------

def _pick_crossings(instance: Instance, c1: DCycle, c2: DCycle, cross):
    """Deterministic choice of the two crossings to uncross at.

    The crossing containing the (necessarily shared) demand edge is
    preferred as the first one; the second is the next crossing, in order
    along the first cycle, that avoids demand edges.
    """
    demand_cross = [s for s in cross
                    if any(instance.is_demand(e) for e in s.edges)]
    p = demand_cross[0] if demand_cross else cross[0]
    q = next(s for s in cross
             if s is not p
             and not any(instance.is_demand(e) for e in s.edges))
    return p, q


def _potentials(graph: EmbeddedGraph, counts: dict, cr_cache: dict):
    phi1 = sum(k * len(c) for c, k in counts.items())
    phi2 = 0
    cycles = list(counts)
    for i, ci in enumerate(cycles):
        for cj in cycles[i + 1:]:
            phi2 += 2 * counts[ci] * counts[cj] * _cr_cached(
                graph, ci, cj, cr_cache)
    return phi1, phi2


def _cr_cached(graph: EmbeddedGraph, c1: DCycle, c2: DCycle,
               cache: dict) -> int:
    key = (c1.darts, c2.darts) if c1.darts <= c2.darts \
        else (c2.darts, c1.darts)
    if key not in cache:
        cache[key] = cr(graph, c1.darts, c2.darts)
    return cache[key]


def uncross_all(instance: Instance, counts: dict,
                check_invariants: bool = False) -> tuple:
    """Rewrite the multiset until every pair of cycles crosses at most once.

    Returns ``(counts, potentials)``.  A pair picked again right after its
    own rewrite reuses that rewrite.  If its four cycles are distinct, the
    keys of ``counts`` did not change, so unit steps would repeat the
    rewrite until one of the pair runs out: all ``min(counts[c1],
    counts[c2])`` quanta move at once, and ``guard`` counts them as that
    many iterations.

    ``check_invariants`` changes no step; it verifies the multiset size,
    every edge load, and the lexicographic decrease of the potential after
    every step, batched or not, and ``potentials`` lists ``(phi1, phi2)``
    after each step; without it the list is empty.
    """
    g = instance.graph
    counts = dict(counts)
    cache: dict = {}
    potentials: list = []
    size0 = sum(counts.values())
    loads0 = edge_loads(counts)
    phi = _potentials(g, counts, cache) if check_invariants else None

    guard = 0
    limit = 16 * (sum(k * len(c) for c, k in counts.items()) + 1) ** 2
    last_pair = last_new = None
    while True:
        guard += 1
        if guard > limit:
            raise InternalInvariantError("uncrossing failed to terminate",
                                         witness=guard)
        pair = None
        cycles = list(counts)
        for i, ci in enumerate(cycles):
            for cj in cycles[i + 1:]:
                if _cr_cached(g, ci, cj, cache) >= 2:
                    pair = (ci, cj)
                    break
            if pair:
                break
        if pair is None:
            break
        c1, c2 = pair
        k = 1
        if pair == last_pair:
            new1, new2 = last_new
            if len({c1, c2, new1, new2}) == 4:
                k = min(counts[c1], counts[c2])
                guard += k - 1
        else:
            cross = crossings(g, c1.darts, c2.darts)
            p, q = _pick_crossings(instance, c1, c2, cross)
            new1, new2 = uncross_pair(instance, c1, c2, p, q)
            last_pair, last_new = pair, (new1, new2)
        for c in (c1, c2):
            counts[c] -= k
            if counts[c] == 0:
                del counts[c]
        for c in (new1, new2):
            counts[c] = counts.get(c, 0) + k

        if check_invariants:
            if sum(counts.values()) != size0:
                raise InternalInvariantError("multiset size changed")
            loads = edge_loads(counts)
            for e, load in loads.items():
                if load > loads0.get(e, 0):
                    raise InternalInvariantError(
                        "edge load increased during uncrossing",
                        witness=(e, load, loads0.get(e, 0)))
            new_phi = _potentials(g, counts, cache)
            if not (new_phi < phi):
                raise InternalInvariantError(
                    "potential did not decrease", witness=(phi, new_phi))
            phi = new_phi
            potentials.append(new_phi)
    return counts, potentials


def uncross_flow(flow: Multiflow, epsilon,
                 check_invariants: bool = False) -> Multiflow:
    """Discretize and fully uncross a multiflow.

    The result has value at least ``(1 - epsilon)`` times the input value
    and any two cycles in its support cross at most once.
    """
    counts, quantum = discretize(flow, epsilon)
    counts, _ = uncross_all(flow.instance, counts, check_invariants)
    out = multiset_to_flow(flow.instance, counts, quantum)
    out.verify_feasible()
    return out
