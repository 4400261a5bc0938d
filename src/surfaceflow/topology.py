"""Topological predicates on cycles of an embedded graph.

A simple cycle is separating when its dual edges form a cut of the dual
graph, i.e. removing them leaves exactly two dual components.  Non-crossing
separating cycles induce a laminar family of face sets (the side not
containing a fixed outer face).  Non-separating, non-crossing cycles are
tested for free homotopy by the annulus criterion: after re-routing the pair
onto vertex-disjoint curves, the two are freely homotopic exactly when they
cobound an annulus component of the cut surface.

Dual components come from ``surface.face_components`` and cut surfaces from
``surface.cut_along``; crossings are counted by ``uncross.cr``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InternalInvariantError, PreconditionError
from .flows import DCycle, Multiflow
from .rational import ZERO
from .surface import EmbeddedGraph, cut_along, disjointify, face_components
from .uncross import cr

OUTER_FACE = 0  # fixed reference face playing the role of infinity


def _dual_components(graph: EmbeddedGraph, removed_edges: set) -> list:
    """Connected components of the dual graph minus the given dual edges,
    as face sets in the order of their smallest face."""
    comps: list[set] = []
    for f, k in enumerate(face_components(graph, removed_edges)):
        if k == len(comps):
            comps.append(set())
        comps[k].add(f)
    return [frozenset(s) for s in comps]


@dataclass(frozen=True)
class SeparationCertificate:
    """The two dual components witnessing that a cycle separates; the
    outer face always lies in ``outside``."""

    inside: frozenset
    outside: frozenset


def is_separating(graph: EmbeddedGraph, darts: Sequence[int]):
    """Whether the cycle's dual edges form a dual cut.

    Returns ``(flag, certificate)`` where the certificate carries the two
    dual components for a separating cycle and is ``None`` otherwise.
    """
    comps = _dual_components(graph, {d >> 1 for d in darts})
    if len(comps) == 1:
        return False, None
    if len(comps) != 2:
        raise InternalInvariantError(
            "a simple cycle cannot split the dual into %d parts" % len(comps),
            witness=comps)
    a, b = comps
    inside, outside = (b, a) if OUTER_FACE in a else (a, b)
    return True, SeparationCertificate(inside, outside)


def inside_faces(graph: EmbeddedGraph, darts: Sequence[int]) -> frozenset:
    flag, cert = is_separating(graph, darts)
    if not flag:
        raise PreconditionError("cycle is not separating")
    return cert.inside


def laminar_family(graph: EmbeddedGraph, cycles: Sequence) -> tuple:
    """Face sets ``inside(C)`` for non-crossing separating cycles.

    Returns ``(insides, below)`` where ``insides[i]`` is the face set of
    cycle ``i`` and ``below[i]`` lists the indices of cycles strictly nested
    inside cycle ``i``.  Raises an internal error if the family is not
    laminar, which would indicate an uncrossing bug upstream.
    """
    insides = [inside_faces(graph, c) for c in cycles]
    below = [[] for _ in cycles]
    for i, a in enumerate(insides):
        for j, b in enumerate(insides):
            if i == j:
                continue
            if not (a <= b or b <= a or not (a & b)):
                raise InternalInvariantError(
                    "separating cycles are not laminar", witness=(i, j))
            if a < b or (a == b and i < j):
                below[j].append(i)
    return tuple(insides), tuple(tuple(b) for b in below)


def is_dual_cut(graph: EmbeddedGraph, edges: set) -> bool:
    """Whether an edge set is a dual cut: the dual components obtained by
    removing it can be two-colored so that exactly its edges cross colors."""
    comps = _dual_components(graph, set(edges))
    comp_of = {}
    for i, s in enumerate(comps):
        for f in s:
            comp_of[f] = i
    # every removed edge must join two distinct components, and the
    # component graph they span must be bipartite with all of them crossing
    color = {}
    adj: dict[int, list] = {}
    for e in edges:
        a = comp_of[graph.face_of[2 * e]]
        b = comp_of[graph.face_of[2 * e + 1]]
        if a == b:
            return False
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for start in sorted(adj):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def freely_homotopic(graph: EmbeddedGraph, darts1: Sequence[int],
                     darts2: Sequence[int]) -> bool:
    """Free-homotopy test for two non-separating, non-crossing cycles.

    Equal edge sets short-circuit to true.  Otherwise the pair is re-routed
    onto vertex-disjoint curves and the cut surface is inspected: the cycles
    are freely homotopic exactly when some component is an annulus with one
    boundary circle from each.
    """
    if {d >> 1 for d in darts1} == {d >> 1 for d in darts2}:
        return True
    if cr(graph, darts1, darts2) > 0:
        return False
    g2, (a, b) = disjointify(graph, [darts1, darts2])
    complex_ = cut_along(g2, [a, b])
    for comp in complex_.components:
        if comp.is_annulus and comp.boundary_cycles == frozenset({0, 1}):
            return True
    return False


@dataclass(frozen=True)
class HomotopyClassification:
    """Partition of non-separating cycles into free homotopy classes.

    ``classes`` holds tuples of cycle indices, sorted by total flow value
    (descending, ties by smallest index); ``totals`` the matching values.
    """

    classes: tuple
    totals: tuple


def classify_homotopy(graph: EmbeddedGraph, cycles: Sequence[DCycle],
                      values: Sequence) -> HomotopyClassification:
    """Group cycles by free homotopy; pairs that cross are never homotopic.

    All inputs must be non-separating with pairwise at most one crossing.
    """
    darts = [c.darts if hasattr(c, "darts") else tuple(c) for c in cycles]
    n = len(cycles)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if find(i) == find(j):
                continue
            if freely_homotopic(graph, darts[i], darts[j]):
                parent[find(i)] = find(j)
    groups: dict[int, list] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    members = sorted(groups.values(), key=lambda g: g[0])
    totals = [sum((values[i] for i in g), ZERO) for g in members]
    order = sorted(range(len(members)),
                   key=lambda k: (-totals[k], members[k][0]))
    return HomotopyClassification(
        tuple(tuple(members[k]) for k in order),
        tuple(totals[k] for k in order))


def split_support(flow: Multiflow):
    """Split a multiflow's support into separating and non-separating parts.

    Returns ``(sep_cycles, sep_values, nonsep_cycles, nonsep_values)`` in
    the deterministic support order.
    """
    sep, sep_v, nonsep, nonsep_v = [], [], [], []
    for c in flow.support():
        flag, _ = is_separating(flow.instance.graph, c.darts)
        if flag:
            sep.append(c)
            sep_v.append(flow.values[c])
        else:
            nonsep.append(c)
            nonsep_v.append(flow.values[c])
    return sep, sep_v, nonsep, nonsep_v
