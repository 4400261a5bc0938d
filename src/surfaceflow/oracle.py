"""Exact ground truth for desk-scale instances.

Both oracles first enumerate every D-cycle of the instance and then run a
deterministic branch-and-bound: over integral cycle values for the maximum
integral multiflow (``pack_cycles``, which ``half_integralize`` also runs on
a flow's support), over covering edges for the minimum multicut.  They are
deliberately exponential and guarded by an explicit work budget; exceeding
it is a refusal (:class:`OracleBudgetExceeded`), never a wrong answer.

The two oracles share one enumeration: ``enumerate_d_cycles`` keeps its
last answer (``functools.lru_cache(maxsize=1)``), so a ``full-oracle``
pipeline run followed by ``exact_min_multicut`` enumerates once.  Both
oracles read each ``DCycle``'s edges, edge bitmask and least capacity,
never rebuilding per-cycle data: a cycle meets an edge set exactly when its
mask ANDs nonzero with the set's mask, which is how the multicut search
drops covered cycles and how the packing search skips every cycle through
a saturated edge without reading its residuals.

The budget is made of counts only (enumerated cycles, depth-first dart
extensions, search nodes), so whether an instance is refused depends on the
instance and the budget alone, never on the machine or its load.

The flow search solves one LP, the cycle LP at the root, and prunes every
node with its dual ``y``.  A node keeps a subset of the root's cycles and
lowers the capacities to the residual ``r``, so ``y`` stays dual-feasible
for the node's LP and ``value + floor(sum_e r[e] * y[e])`` bounds every
completion of the node.  The incumbent moves only on a strict improvement,
so the answer is the first node in depth-first preorder that attains the
optimum; a valid bound never prunes that node, whichever bound is used, so
any valid bound gives the same answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

from .errors import (InternalInvariantError, OracleBudgetExceeded,
                     PreconditionError)
from .flows import DCycle, Multiflow, cycle_lp
from .instances import Instance
# unused here (the one LP is flows.cycle_lp); perfbench's tracer test
# looks for this binding
from .lp import solve_lp  # noqa: F401
from .rational import floor_rat


@dataclass(frozen=True)
class OracleBudget:
    """Work limits, all of them counts.

    ``max_cycles`` bounds the enumerated D-cycles.  ``max_nodes`` bounds the
    depth-first dart extensions of the enumeration and, separately, the
    nodes of each branch-and-bound search.  A negative limit is a usage
    error.
    """

    max_cycles: int = 20000
    max_nodes: int = 500000

    def __post_init__(self):
        for name in ("max_cycles", "max_nodes"):
            if getattr(self, name) < 0:
                raise PreconditionError("%s must be non-negative, got %d"
                                        % (name, getattr(self, name)))


DEFAULT_BUDGET = OracleBudget()


def enumerate_d_cycles(instance: Instance,
                       budget: OracleBudget = DEFAULT_BUDGET) -> tuple:
    """All D-cycles of the instance, as a tuple sorted by canonical darts.

    The last successful answer is kept and returned again for the same
    instance under an equal budget.  An ``Instance`` hashes its map by
    identity, so an equal instance parsed again is enumerated again.  A
    refusal is not kept, and the kept answer stays.
    """
    # positional, so that every call has the same cache key
    return _search_d_cycles(instance, budget)


@lru_cache(maxsize=1)
def _search_d_cycles(instance: Instance, budget: OracleBudget) -> tuple:
    """The depth-first enumeration behind ``enumerate_d_cycles``.

    For each demand edge, simple supply paths between its endpoints are
    enumerated by depth-first search over the darts at each vertex, in
    ascending order, with an on-path flag per vertex; each path closes to
    a D-cycle through the demand dart.  A demand edge has two distinct ends
    (``Instance`` refuses loops), so such a cycle is simple, chained and has
    exactly one demand dart, and every simple path is listed once, so the
    cycles are built without revalidation.  Each step is one dart tried.
    A pushed dart also ORs its edge onto the path's edge bitmask and lowers
    the path's least capacity, which a cycle's record takes as they are.
    """
    graph = instance.graph
    edges = graph.edges
    caps = instance.caps
    # (dart, the vertex it leads to) for the supply darts at each vertex,
    # in ascending dart order
    out: list = [[] for _ in range(graph.n)]
    for e in instance.supply_edges:
        u, v = edges[e]
        out[u].append((2 * e, v))
        out[v].append((2 * e + 1, u))
    max_nodes, max_cycles = budget.max_nodes, budget.max_cycles
    on_path = [False] * graph.n
    found: list = []
    steps = 0
    for d_edge in instance.demand_edges:
        # the demand dart 2e+1 runs s -> t; close it with supply paths t -> s
        t, s = edges[d_edge]
        path = [2 * d_edge + 1]
        back = [2 * d_edge]         # back[k] == path[k] ^ 1
        # masks[k] and least[k]: the edge bitmask and the least capacity
        # of path[:k + 1]
        masks = [1 << d_edge]
        least = [caps[d_edge]]
        verts = [t]
        on_path[t] = True
        stack = [iter(out[t])]
        while stack:
            for d, w in stack[-1]:
                steps += 1
                if steps > max_nodes:
                    raise OracleBudgetExceeded(
                        "more than %d cycle enumeration steps" % max_nodes)
                if w == s:
                    e = d >> 1
                    cap = caps[e]
                    found.append(DCycle(_canonical(path, back, d), d_edge,
                                        masks[-1] | 1 << e,
                                        cap if cap < least[-1] else least[-1]))
                    if len(found) > max_cycles:
                        raise OracleBudgetExceeded(
                            "more than %d D-cycles" % max_cycles)
                elif not on_path[w]:
                    on_path[w] = True
                    path.append(d)
                    back.append(d ^ 1)
                    e = d >> 1
                    cap = caps[e]
                    masks.append(masks[-1] | 1 << e)
                    least.append(cap if cap < least[-1] else least[-1])
                    verts.append(w)
                    stack.append(iter(out[w]))
                    break
            else:
                stack.pop()
                path.pop()
                back.pop()
                masks.pop()
                least.pop()
                on_path[verts.pop()] = False
    # canonical dart tuples of distinct cycles differ, so no two keys tie
    found.sort(key=attrgetter("darts"))
    return tuple(found)


def _canonical(path: list, back: list, d: int) -> tuple:
    """``flows.canonical_darts`` of the simple cycle ``path + [d]``, where
    ``back`` holds each dart of ``path`` reversed.

    A simple cycle never holds both darts of one edge, so with ``m`` its
    least dart, the least rotation of its reversal starts at ``m ^ 1`` and
    wins exactly when ``m`` is odd.
    """
    m = min(path)
    if d < m:
        return (d ^ 1, *back[::-1]) if d & 1 else (d, *path)
    i = path.index(m)
    if m & 1:
        return (*back[i::-1], d ^ 1, *back[:i:-1])
    return (*path[i:], d, *path[:i])


def pack_cycles(cycles, leasts, caps, root, rows, budget: OracleBudget):
    """Maximum integral packing of ``DCycle``s under positive int edge
    capacities.

    ``leasts[i]`` is the least capacity of ``cycles[i]`` in ``caps``: its
    ``least`` when ``caps`` are those of the instance that made it.
    ``root`` and ``rows`` are the optimal cycle LP of the cycles' edges and
    ``caps`` as ``flows.cycle_lp`` returns it.  Returns
    ``(value, {cycle index: positive int})`` from the search of the module
    docstring, over the cycles by decreasing root value, ties by index.
    """
    # explore large fractional values first, ties by index (a reversed
    # sort keeps ties in order); the LP value caps the optimum.  The root
    # x is root.X over one denominator, so its order is that of root.X
    order = sorted(range(len(cycles)), key=root.X.__getitem__,
                   reverse=True)
    cycle_edges = [cycles[i].edges for i in order]
    masks = [cycles[i].mask for i in order]
    leasts = [leasts[i] for i in order]
    n = len(cycle_edges)
    ceiling = floor_rat(root.value)
    # the root dual: price / denom = y[e]
    denom = root.dy
    prices = [(e, p) for e, p in zip(rows, root.Y_ub) if p]
    best_value = -1
    best: dict = {}
    current: dict = {}
    nodes = 0

    def search(start, residual, zero, value):
        # branch on the index of the next cycle with positive value, so
        # the depth is the support size, not the number of cycles.
        # ``zero`` is the mask of the saturated edges: residuals never go
        # negative, so a cycle has a positive least residual exactly when
        # its mask misses ``zero``
        nonlocal nodes, best_value, best
        nodes += 1
        if nodes > budget.max_nodes:
            raise OracleBudgetExceeded(
                "more than %d search nodes" % budget.max_nodes)
        if value > best_value:
            best_value = value
            best = dict(current)
        if best_value == ceiling:
            return
        if value + sum(residual[e] * p for e, p in prices) // denom \
                <= best_value:
            return
        if start:
            choices = [(j, min([residual[e] for e in cycle_edges[j]]))
                       for j in range(start, n) if not masks[j] & zero]
        else:
            # the root, where every residual is its capacity
            choices = list(enumerate(leasts))
        if value + sum(m for _, m in choices) <= best_value:
            return
        for j, m in choices:
            for x in range(m, 0, -1):
                nxt = residual[:]
                for e in cycle_edges[j]:
                    nxt[e] -= x
                # only the cycle's least residual can reach 0, at x == m
                saturated = zero
                if x == m:
                    for e in cycle_edges[j]:
                        if not nxt[e]:
                            saturated |= 1 << e
                current[j] = x
                search(j + 1, nxt, saturated, value + x)
                del current[j]
                if best_value == ceiling:
                    return

    search(0, list(caps), 0, 0)
    return best_value, {order[j]: x for j, x in best.items()}


def exact_integral_multiflow(instance: Instance,
                             budget: OracleBudget = DEFAULT_BUDGET):
    """Provably maximum integral multiflow, as ``(value, Multiflow)``."""
    cycles = enumerate_d_cycles(instance, budget)
    if not cycles:
        return 0, Multiflow(instance)
    # the cycles come sorted by darts, so index ties are dart ties
    best_value, best = pack_cycles(
        cycles, [c.least for c in cycles], instance.caps,
        *cycle_lp([c.edges for c in cycles], instance.caps), budget)
    flow = Multiflow(instance)
    for i, x in best.items():
        flow.add(cycles[i], x)
    flow.verify_feasible()
    if flow.total != best_value:
        raise InternalInvariantError("oracle bookkeeping mismatch",
                                     witness=(flow.total, best_value))
    return best_value, flow


def exact_min_multicut(instance: Instance,
                       budget: OracleBudget = DEFAULT_BUDGET):
    """Minimum-capacity edge set meeting every D-cycle.

    Branch-and-bound hitting set: branch on the edges of an uncovered
    cycle with the fewest edges, bound by a greedy packing of edge-disjoint
    uncovered cycles (a valid lower bound by weak duality).  Each cycle is
    searched by its ``edges``, ``mask`` and ``least``, in ``(length,
    darts)`` order, and branched on in edge order.
    """
    cycles = enumerate_d_cycles(instance, budget)
    if not cycles:
        return 0, ()
    caps = instance.caps
    # the cycles are in darts order and a D-cycle, being simple, has as
    # many edges as darts, so a stable sort on the length gives the
    # (length, darts) order
    uncovered = sorted(cycles, key=len)
    # start from the trivial cut: every demand edge
    demand_cut = tuple(sorted(instance.demand_edges))
    best_cost = sum(caps[e] for e in demand_cut)
    best_edges = demand_cut
    nodes = 0

    def packing_bound(uncovered):
        used = 0
        total = 0
        for c in uncovered:
            if not c.mask & used:
                used |= c.mask
                total += c.least
        return total

    def search(chosen: set, cost: int, uncovered):
        nonlocal nodes, best_cost, best_edges
        nodes += 1
        if nodes > budget.max_nodes:
            raise OracleBudgetExceeded(
                "more than %d search nodes" % budget.max_nodes)
        if not uncovered:
            if cost < best_cost or (cost == best_cost and
                                    tuple(sorted(chosen)) < best_edges):
                best_cost = cost
                best_edges = tuple(sorted(chosen))
            return
        if cost + packing_bound(uncovered) >= best_cost:
            return
        for e in sorted(uncovered[0].edges):
            bit = 1 << e
            rest = [c for c in uncovered if not c.mask & bit]
            search(chosen | {e}, cost + caps[e], rest)

    search(set(), 0, uncovered)
    return best_cost, best_edges
