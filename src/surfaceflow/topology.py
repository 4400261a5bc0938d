"""Topological predicates on cycles of an embedded graph.

A simple cycle is separating when its dual edges form a cut of the dual
graph, i.e. removing them leaves exactly two dual components.  Non-crossing
separating cycles induce a laminar family of face sets (the side not
containing a fixed outer face).  Non-separating, non-crossing cycles are
tested for free homotopy by the annulus criterion: after re-routing the pair
onto vertex-disjoint curves, the two are freely homotopic exactly when they
cobound an annulus component of the cut surface.

Freely homotopic cycles are homologous, so ``classify_homotopy`` first gives
every cycle its Z2-homology class, read off a tree-cotree decomposition
(``homology_signatures``), and runs the annulus test only on pairs inside
one class.

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


def homology_signatures(graph: EmbeddedGraph) -> list[int]:
    """A ``2g``-bit Z2-homology signature for every edge.

    A BFS tree ``T`` of the primal from vertex 0 and a BFS tree ``C`` of the
    dual from face 0 over the edges not in ``T`` leave exactly ``2g`` edges;
    they get bits ``0..2g-1`` in edge-id order.  Tree edges get 0.  Every
    face boundary is null-homologous, so a cotree edge, processed leaves
    first, gets the XOR of the other edges on its child face.  The XOR of a
    cycle's edge signatures is its Z2-homology class: 0 exactly for
    separating simple cycles, equal for homologous cycles.
    """
    m = len(graph.edges)
    in_tree = [False] * m
    reached = [False] * graph.n
    reached[0] = True
    queue = [0]
    for x in queue:
        for d in graph.rotation[x]:
            y = graph.tail(d)
            if not reached[y]:
                reached[y] = True
                in_tree[d >> 1] = True
                queue.append(y)

    face_of = graph.face_of
    parent_edge = [-1] * len(graph.faces)
    reached = [False] * len(graph.faces)
    reached[0] = True
    order = [0]
    for f in order:
        for d in graph.faces[f]:
            e, across = d >> 1, face_of[d ^ 1]
            if not in_tree[e] and not reached[across]:
                reached[across] = True
                parent_edge[across] = e
                order.append(across)

    in_cotree = set(parent_edge[1:])
    leftover = [e for e in range(m)
                if not in_tree[e] and e not in in_cotree]
    if len(leftover) != 2 * graph.genus:
        raise InternalInvariantError(
            "tree-cotree decomposition leaves %d edges on genus %d"
            % (len(leftover), graph.genus), witness=leftover)
    sig = [0] * m
    for bit, e in enumerate(leftover):
        sig[e] = 1 << bit
    for f in reversed(order[1:]):
        e = parent_edge[f]
        h = 0
        for d in graph.faces[f]:
            if d >> 1 != e:
                h ^= sig[d >> 1]
        sig[e] = h
    return sig


def homology_class(signatures: Sequence[int], darts: Sequence[int]) -> int:
    """Z2-homology class of a cycle: the XOR of its edges' signatures."""
    h = 0
    for d in darts:
        h ^= signatures[d >> 1]
    return h


@dataclass(frozen=True)
class HomotopyClassification:
    """Partition of non-separating cycles into free homotopy classes.

    ``cycles`` are the partitioned cycles, ``classes`` holds tuples of
    indices into them, sorted by total flow value (descending, ties by
    smallest index); ``totals`` the matching values.
    """

    cycles: tuple
    classes: tuple
    totals: tuple


def classify_homotopy(graph: EmbeddedGraph, cycles: Sequence[DCycle],
                      values: Sequence) -> HomotopyClassification:
    """Group cycles by free homotopy; pairs that cross are never homotopic.

    All inputs must be non-separating with pairwise at most one crossing.
    Only pairs with equal Z2-homology classes can be freely homotopic, so
    the annulus test runs inside each homology class only.
    """
    darts = [c.darts if hasattr(c, "darts") else tuple(c) for c in cycles]
    n = len(cycles)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    signatures = homology_signatures(graph)
    buckets: dict[int, list] = {}
    for i, c in enumerate(darts):
        buckets.setdefault(homology_class(signatures, c), []).append(i)
    for bucket in buckets.values():
        for a, i in enumerate(bucket):
            for j in bucket[a + 1:]:
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
        tuple(cycles),
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
