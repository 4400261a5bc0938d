"""Rounding the separating part of a multiflow to an integral one.

Pipeline: a laminar multiflow on separating cycles is first re-optimized
over its own support to a half-integral optimum (the one cycle LP,
``flows.cycle_lp``, certified by ``lp.solve_lp``, and the oracle's packing
search when its vertex is not half-integral); integer parts are banked and
the remaining half-cycles are ordered into strands along every edge they
use, innermost first.  Strands ``2k`` and ``2k + 1`` share the ``k``-th
unit parallel of the edge in the paper's unit-capacity reduction, so the
pairs alone give its intersection graph; the unit map itself is never
built.  That graph embeds on the same surface, so a degeneracy-greedy
coloring needs at most ``chi(g)`` colors (five for the plane, with an exact
five-coloring fallback); the largest color class is routed at value one on
top of the banked flow.

The flows stay int numerators over one denominator each: the half-integral
flow is the LP's ``X`` over ``dx`` (or the packing over 2), the banked and
integral flows are over 1, and every bound is compared in ints.  A ``QQ``
is made only for the witness of a failed check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import (InternalInvariantError, OracleBudgetExceeded,
                     PreconditionError)
from .flows import Multiflow, cycle_lp, edge_loads
from .oracle import DEFAULT_BUDGET, pack_cycles
from .rational import QQ
from .topology import inside_faces


def heawood_bound(genus: int) -> int:
    """Chromatic bound for graphs of the given positive genus."""
    if genus < 1:
        raise PreconditionError("bound applies to positive genus")
    return (7 + math.isqrt(1 + 48 * genus)) // 2


def color_limit(genus: int) -> int:
    """Colors we guarantee: five in the plane (greedy on a 5-degenerate
    graph plus an exact fallback), the map color bound otherwise."""
    return 5 if genus == 0 else heawood_bound(genus)


# ---------------------------------------------------------------------------
# half-integralization
# ---------------------------------------------------------------------------

def half_integralize(flow: Multiflow) -> Multiflow:
    """Best multiflow on the same support with half-integral values.

    Re-solves the cycle LP restricted to the support, ``flows.cycle_lp``
    as the oracle uses it.  A laminar support has a half-integral optimum,
    but not every optimal vertex is one: such a vertex is replaced by half
    the oracle's packing under doubled capacities, whose root LP is this
    one scaled by 2 (``x`` doubles, the dual stays optimal).  A packing
    refused by the oracle's default budget raises
    ``InternalInvariantError``.  The LP's int answer is read as it is:
    ``x`` is half-integral when ``2 X`` is a multiple of ``dx``, and the
    result holds ``X`` over ``dx``, or the packing over 2.
    """
    inst = flow.instance
    cycles = flow.support()
    if not cycles:
        return Multiflow(inst)
    lp, rows = cycle_lp([c.edges for c in cycles], inst.caps)
    X, dx = lp.X, lp.dx
    if any(2 * v % dx for v in X):
        doubled = replace(lp, X=[2 * v for v in X], value=2 * lp.value)
        caps = [2 * u for u in inst.caps]
        # not ``c.least``, which holds for the instance that made ``c``
        leasts = [min([caps[e] for e in c.edges]) for c in cycles]
        try:
            _, best = pack_cycles(cycles, leasts, caps, doubled, rows,
                                  DEFAULT_BUDGET)
        except OracleBudgetExceeded as exc:
            raise InternalInvariantError(
                "no half-integral optimum within the packing budget",
                witness=[QQ(v, dx) for v in X]) from exc
        X, dx = [best.get(i, 0) for i in range(len(cycles))], 2
    out = Multiflow(inst, {c: v for c, v in zip(cycles, X) if v}, dx)
    out.verify_feasible()
    if 2 * out.total * flow.denom < flow.total * out.denom:
        raise InternalInvariantError(
            "half-integral flow below half the input value",
            witness=(out.value, flow.value))
    return out


# ---------------------------------------------------------------------------
# reduction to the unit-capacity setting
# ---------------------------------------------------------------------------

@dataclass
class UnitReduction:
    """Banked integer parts plus the residual half-cycles in strand order.

    ``residual`` lists the half-cycles in support order; ``strands[e]``
    lists the indices of those using edge ``e`` in strand order.  In the
    unit-capacity setting strands ``2k`` and ``2k + 1`` share the ``k``-th
    unit parallel of ``e``, so every parallel carries at most two halves.
    """

    banked: Multiflow
    residual: list
    strands: dict = field(default_factory=dict)

    def adjacency(self) -> list:
        """Adjacency lists of the intersection graph: two half-cycles are
        adjacent iff they share a unit parallel of some edge."""
        adj = [set() for _ in self.residual]
        for s in self.strands.values():
            for i, j in zip(s[::2], s[1::2]):
                adj[i].add(j)
                adj[j].add(i)
        return [sorted(a) for a in adj]


def reduce_to_unit(flow_half: Multiflow) -> UnitReduction:
    """Split off integer parts and pair the residual halves on each edge.

    Residual cycles claim strands innermost-first on each shared edge, two
    halves per unit parallel, which keeps the paired family non-crossing.
    """
    inst = flow_half.instance
    g = inst.graph
    denom = flow_half.denom
    banked = Multiflow(inst)
    residual = []
    for c in flow_half.support():
        ip, rest = divmod(flow_half.values[c], denom)
        if rest and 2 * rest != denom:
            raise PreconditionError("flow is not half-integral")
        if ip:
            banked.add(c, ip)
        if rest:
            residual.append(c)
    red = UnitReduction(banked, residual)
    insides = [inside_faces(g, c.darts) for c in residual]
    users: dict[int, list] = {}
    for i, c in enumerate(residual):
        for e in c.edges:
            users.setdefault(e, []).append(i)
    banked_loads = edge_loads(banked.values)
    for e, ids in users.items():
        if (len(ids) + 1) // 2 + banked_loads.get(e, 0) > inst.caps[e]:
            raise InternalInvariantError(
                "residual halves exceed leftover capacity",
                witness=(e, len(ids)))

    # strand order along each edge: cycles whose inside touches the face of
    # the traversal dart first (innermost first), then the others outermost
    # first; nesting makes each group a chain
    key = lambda i: (len(insides[i]), residual[i].darts)
    for e in sorted(users):
        f0 = g.face_of[2 * e]
        side0 = [i for i in users[e] if f0 in insides[i]]
        side1 = [i for i in users[e] if f0 not in insides[i]]
        red.strands[e] = (sorted(side0, key=key)
                          + sorted(side1, key=key, reverse=True))
    return red


# ---------------------------------------------------------------------------
# coloring and selection
# ---------------------------------------------------------------------------

def degeneracy_coloring(adj: list) -> list:
    """Greedy coloring along a reverse degeneracy order."""
    n = len(adj)
    deg = [len(a) for a in adj]
    alive = set(range(n))
    order = []
    neigh = [set(a) for a in adj]
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        order.append(v)
        alive.discard(v)
        for w in neigh[v]:
            if w in alive:
                deg[w] -= 1
    color = [-1] * n
    for v in reversed(order):
        used = {color[w] for w in adj[v] if color[w] >= 0}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return color


def _backtrack_coloring(adj: list, k: int):
    """Exact k-coloring by backtracking on a most-constrained-first order."""
    n = len(adj)
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    color = [-1] * n

    def go(i):
        if i == n:
            return True
        v = order[i]
        used = {color[w] for w in adj[v] if color[w] >= 0}
        for c in range(k):
            if c not in used:
                color[v] = c
                if go(i + 1):
                    return True
                color[v] = -1
        return False

    return color if go(0) else None


def color_and_select(red: UnitReduction, genus: int):
    """Color the intersection graph, route the largest class at value one.

    Returns ``(integral_flow, colors_used, class_sizes)``; the flow lives on
    the original instance and includes the banked integer parts.
    """
    out = Multiflow(red.banked.instance, dict(red.banked.values))
    if not red.residual:
        return out, 0, []
    adj = red.adjacency()
    color = degeneracy_coloring(adj)
    limit = color_limit(genus)
    used = max(color) + 1
    if used > limit:
        if genus == 0:
            color = _backtrack_coloring(adj, limit)
            if color is None:
                raise InternalInvariantError(
                    "planar intersection graph is not 5-colorable",
                    witness=adj)
            used = max(color) + 1
        else:
            raise InternalInvariantError(
                "coloring exceeded the map color bound",
                witness=(used, limit))
    classes: dict[int, list] = {}
    for i, c in enumerate(color):
        classes.setdefault(c, []).append(i)
    sizes = [len(classes[c]) for c in sorted(classes)]
    best = max(sorted(classes), key=lambda c: len(classes[c]))
    for i in classes[best]:
        out.add(red.residual[i], 1)
    out.verify_feasible()
    return out, used, sizes


@dataclass
class SeparatingRounding:
    """Full result of the separating branch."""

    half: Multiflow
    integral: Multiflow
    banked_value: int
    colors_used: int
    class_sizes: list


def round_separating(flow_sep: Multiflow) -> SeparatingRounding:
    """Half-integralize, reduce to unit parallels, color, and select."""
    half = half_integralize(flow_sep)
    red = reduce_to_unit(half)
    genus = flow_sep.instance.graph.genus
    integral, used, sizes = color_and_select(red, genus)
    limit = color_limit(genus)
    if limit * integral.total * half.denom \
            < 2 * half.total * integral.denom:
        raise InternalInvariantError(
            "integral value below the guaranteed fraction",
            witness=(integral.value, half.value))
    return SeparatingRounding(half, integral, red.banked.total, used, sizes)
