"""Topological predicates on cycles of an embedded graph.

A simple cycle on an orientable surface separates it exactly when its
Z2-homology class is 0.  ``homology_signatures`` gives every edge a 2g-bit
signature from a tree-cotree decomposition, and a cycle's class is the XOR
over its edges (``homology_class``); ``split_support`` flags separating
cycles this way, and on the plane every class is 0.

The two sides of a separating cycle are the two dual components left by
removing its edges (``surface.face_components``); ``inside_faces`` is the
side without the fixed outer face, and non-crossing separating cycles give a
laminar family of insides (``laminar_family`` checks it).  Freely homotopic
cycles are homologous, and homologous cycles cross an even number of times
(the Z2 intersection form is alternating), so after uncrossing never.
``classify_homotopy`` re-routes each homology class onto vertex-disjoint
curves and cuts the surface along them once (``surface.cut_along``); two
cycles are freely homotopic exactly when a chain of annuli joins them
(Epstein's annulus criterion for disjoint curves).  The chain is walked
once per class: it lists the class in the cyclic order the rounding needs,
and its two ends are the boundary of the cut's one component of negative
Euler characteristic, unless the annuli close up around the surface.
Crossings are counted by ``uncross.cr``.

The predicates take dart sequences; ``classify_homotopy`` takes the
``DCycle``s of a support with their values and returns them with their
classes, each class's order and its ends.  The values are the flow's int
numerators over its denominator, as ``split_support`` returns them, and
the class totals are their sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InternalInvariantError, PreconditionError
from .flows import DCycle, Multiflow
from .surface import (CutComplex, EmbeddedGraph, cut_along, disjointify,
                      face_components)
from .uncross import cr

OUTER_FACE = 0  # fixed reference face playing the role of infinity


def inside_faces(graph: EmbeddedGraph, darts: Sequence[int]) -> frozenset:
    """Faces on the side of a separating cycle away from ``OUTER_FACE``.

    The cycle's edges split the dual into two components; face 0 is always
    in component 0, so the inside is component 1.
    """
    comp_of = face_components(graph, {d >> 1 for d in darts})
    n_comp = max(comp_of) + 1
    if n_comp == 1:
        raise PreconditionError("cycle is not separating")
    if n_comp != 2:
        raise InternalInvariantError(
            "a simple cycle cannot split the dual into %d parts" % n_comp,
            witness=comp_of)
    return frozenset(f for f, k in enumerate(comp_of) if k == 1)


def laminar_family(graph: EmbeddedGraph, cycles: Sequence) -> tuple:
    """Face sets ``inside(C)`` for non-crossing separating cycles.

    Returns ``insides``, where ``insides[i]`` is the face set of cycle
    ``i``.  Raises an internal error if the family is not laminar, which
    would indicate an uncrossing bug upstream.
    """
    insides = tuple(inside_faces(graph, c) for c in cycles)
    for i, a in enumerate(insides):
        for j in range(i + 1, len(insides)):
            b = insides[j]
            if not (a <= b or b <= a or not (a & b)):
                raise InternalInvariantError(
                    "separating cycles are not laminar", witness=(i, j))
    return insides


def _across(graph: EmbeddedGraph, family: Sequence) -> tuple:
    """The surface cut once along a non-crossing ``family``, re-routed onto
    vertex-disjoint curves, and for each cycle side ``(i, s)`` that bounds
    an annulus with another cycle of the family, that cycle and its side."""
    g2, curves = disjointify(graph, family)
    cut = cut_along(g2, curves)
    across = {}
    for comp in cut.components:
        if comp.is_annulus and len(comp.boundary_cycles) == 2:
            a, b = comp.boundary
            across[a], across[b] = b, a
    return cut, across


def freely_homotopic(graph: EmbeddedGraph, darts1: Sequence[int],
                     darts2: Sequence[int]) -> bool:
    """Free-homotopy test for two non-separating cycles: they must not
    cross and must cobound an annulus once cut (``_across`` of the pair)."""
    return cr(graph, darts1, darts2) == 0 \
        and bool(_across(graph, [darts1, darts2])[1])


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

    ``cycles`` are the partitioned cycles, and ``classes`` holds tuples of
    indices into them, sorted by total flow value (descending, ties by
    smallest index).  Each class is listed in the cyclic order its annuli
    give it, from its smallest index.  ``totals`` are the matching sums of
    the values given, in their units (the pipeline gives int numerators
    over its flow's denominator).  ``ends`` holds each class's two end
    cycles, the ends of its chain of annuli, as an ascending index pair:
    ``(i, i)`` for a single cycle, ``None`` when the annuli close up and
    the class fills the surface.
    """

    cycles: tuple
    classes: tuple
    totals: tuple
    ends: tuple


def _walk(cut: CutComplex, across: dict, start: int, seen: set) -> tuple:
    """The class of cycle ``start`` of a cut family, in cyclic order, with
    its end pair (``None`` when the annuli close up).

    The walk crosses annuli from ``start`` toward its smaller-numbered side
    component; at an end of the chain it goes on from the other end, back
    toward ``start``.  Visited cycles join ``seen``.
    """
    sides = cut.side_component
    first = int(sides[(start, 1)] < sides[(start, 0)])
    seen.add(start)
    arms = []
    for side in (first, 1 - first):
        arm, at = [], (start, side)
        while at in across:
            i, s = across[at]
            if i == start and not arms:
                return [start] + arm, None
            if i in seen:
                raise InternalInvariantError(
                    "homotopy walk revisits a cycle", witness=(start, arm, i))
            seen.add(i)
            arm.append(i)
            at = (i, 1 - s)
        arms.append(arm)
    pair = sorted(arm[-1] if arm else start for arm in arms)
    return [start] + arms[0] + arms[1][::-1], tuple(pair)


def classify_homotopy(graph: EmbeddedGraph, cycles: Sequence[DCycle],
                      values: Sequence) -> HomotopyClassification:
    """Group cycles by free homotopy, one cut per homology class.

    All inputs must be non-separating with pairwise at most one crossing,
    so homologous ones do not cross: each homology class of two or more
    cycles is cut once (``_across``), and a walk over its annuli from its
    least uncovered cycle lists one free homotopy class in cyclic order.
    """
    signatures = homology_signatures(graph)
    buckets: dict[int, list] = {}
    for i, c in enumerate(cycles):
        buckets.setdefault(homology_class(signatures, c.darts), []).append(i)
    members, ends = [], []
    for bucket in buckets.values():
        if len(bucket) == 1:
            members.append(bucket)
            ends.append((bucket[0], bucket[0]))
            continue
        cut, across = _across(graph, [cycles[i].darts for i in bucket])
        seen: set = set()
        for start in range(len(bucket)):
            if start not in seen:
                order, pair = _walk(cut, across, start, seen)
                members.append([bucket[k] for k in order])
                ends.append(None if pair is None
                            else tuple(bucket[k] for k in pair))
    if sorted(i for m in members for i in m) != list(range(len(cycles))):
        raise InternalInvariantError(
            "homotopy classes do not partition the cycles", witness=members)
    totals = [sum(values[i] for i in m) for m in members]
    order = sorted(range(len(members)),
                   key=lambda k: (-totals[k], members[k][0]))
    return HomotopyClassification(
        tuple(cycles),
        tuple(tuple(members[k]) for k in order),
        tuple(totals[k] for k in order),
        tuple(ends[k] for k in order))


def split_support(flow: Multiflow):
    """Split a multiflow's support into separating and non-separating parts.

    A cycle is separating when its Z2-homology class is 0.  Returns
    ``(sep_cycles, sep_values, nonsep_cycles, nonsep_values)`` in the
    deterministic support order; the values are the flow's int numerators
    over ``flow.denom``.
    """
    sep, sep_v, nonsep, nonsep_v = [], [], [], []
    signatures = homology_signatures(flow.instance.graph)
    for c in flow.support():
        if homology_class(signatures, c.darts) == 0:
            sep.append(c)
            sep_v.append(flow.values[c])
        else:
            nonsep.append(c)
            nonsep_v.append(flow.values[c])
    return sep, sep_v, nonsep, nonsep_v
