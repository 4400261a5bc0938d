"""Graphs embedded on orientable surfaces, as combinatorial maps.

An embedding is stored as a rotation system: every edge ``e`` contributes two
darts (half-edges) ``2e`` and ``2e + 1``, attached to endpoint slot 0 and
slot 1 of the edge respectively, and each vertex carries the clockwise cyclic
order of the darts attached to it.  ``reverse(d) == d ^ 1`` by construction.
Faces are the orbits of ``d -> rotation-successor of reverse(d)``, traced by
``trace_faces``; the genus then falls out of Euler's formula and is required
to be a non-negative integer at construction time.

Besides the static queries (faces, genus) this module implements the
surgery the rest of the package relies on: cutting the surface along
vertex-disjoint cycles, and ``disjointify`` which re-routes a family of
pairwise non-crossing cycles onto pairwise vertex-disjoint ones.  Every map
edit is a list edit: ``split_vertex_lists`` (split a vertex along a
contiguous rotation arc), ``expand_edge_lists`` (an embedded band of
parallel edges) and ``add_chord_lists`` (an edge across a face) change a
working copy of the edge and rotation lists in place, and each caller
(``disjointify``, the instance generators, the unit reduction) runs its
whole plan on one copy and builds one ``EmbeddedGraph`` at the end.  A
caller that adds many chords keeps the face list beside its lists:
``split_face`` replaces the one face a chord splits by its two halves, so
no chord re-traces the map.

Three primitives answer the package's geometric questions, each in one
place: ``shared_paths`` walks the maximal common paths of two cycles;
``crosses`` says whether the cycles cross along one of them (``uncross``
classifies its shared paths with it); and ``face_components`` is the one
union-find over faces, numbering the dual components left by removing some
edges (``cut_along`` and ``topology.inside_faces`` read their components
from it).  No other module reads the rotation order around a cycle;
``crosses`` and the band order and vertex split of ``disjointify`` read it
through one question, which of two darts comes first clockwise after a
third: ``crosses`` along a path and the band order as which cycle leaves a
shared path first (``_leaves_first``), ``crosses`` at a single vertex and
the vertex split as whether two cycles' darts separate each other there.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Sequence

from .errors import InternalInvariantError, PreconditionError, StructuralError

Dart = int


class EmbeddedGraph:
    """A connected multigraph with a rotation system on an orientable surface.

    Immutable once constructed; surgery edits a copy of its lists
    (``working_lists``) and builds a new graph from them.  Vertices are
    ``0..n-1``, edges ``0..m-1``, darts ``0..2m-1`` with ``head(2e) ==
    edges[e][0]`` and ``head(2e+1) == edges[e][1]`` (the head of a dart is the
    vertex it is attached to).
    """

    __slots__ = ("n", "edges", "rotation", "faces", "face_of", "genus")

    def __init__(self, n: int, edges: Sequence[tuple[int, int]],
                 rotation: Sequence[Sequence[Dart]]):
        self.n = n
        self.edges = tuple((u, v) for u, v in edges)
        self.rotation = tuple(tuple(r) for r in rotation)
        self._validate_structure()
        self.faces = trace_faces(self.edges, self.rotation)
        self.face_of = {}
        for i, f in enumerate(self.faces):
            for d in f:
                self.face_of[d] = i
        euler = self.n - len(self.edges) + len(self.faces)
        if euler % 2 != 0 or euler > 2:
            # a permutation of the darts on a connected graph always passes
            raise InternalInvariantError(
                "rotation system does not describe an orientable surface: "
                "V - E + F = %d" % euler, witness=euler)
        self.genus = (2 - euler) // 2

    # -- construction-time checks -------------------------------------------------

    def _validate_structure(self) -> None:
        # every number must be an int (not a bool) in its range
        n = self.n
        if type(n) is not int or n < 1:
            raise StructuralError("schema", "vertices must be a positive int")
        if len(self.rotation) != n:
            raise StructuralError("rotation",
                                  "rotation must list one cycle per vertex")
        m2 = 2 * len(self.edges)
        for e, (u, v) in enumerate(self.edges):
            if type(u) is not int or type(v) is not int \
                    or not (0 <= u < n and 0 <= v < n):
                raise StructuralError("schema", "edge %d endpoints must be "
                                      "ints in 0..%d" % (e, n - 1))
        seen = set()
        for v, rot in enumerate(self.rotation):
            for d in rot:
                if type(d) is not int or not 0 <= d < m2:
                    raise StructuralError("rotation", "rotation dart %r is "
                                          "not an int in 0..%d" % (d, m2 - 1))
                if self.edges[d >> 1][d & 1] != v:
                    raise StructuralError(
                        "rotation", "dart %d listed at vertex %d but attached "
                        "to %d" % (d, v, self.edges[d >> 1][d & 1]))
                if d in seen:
                    raise StructuralError("rotation", "dart %d listed twice" % d)
                seen.add(d)
        if len(seen) != m2:
            raise StructuralError("rotation", "rotation omits %d dart(s)"
                                  % (m2 - len(seen)))
        # connectivity of the underlying graph, searched from vertex 0
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        reached, stack = {0}, [0]
        while stack:
            for y in adj[stack.pop()]:
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
        if len(reached) != n:
            raise StructuralError("disconnected", "graph is disconnected")

    # -- dart helpers -------------------------------------------------------------

    def head(self, d: Dart) -> int:
        """Vertex a dart is attached to."""
        return self.edges[d >> 1][d & 1]

    def tail(self, d: Dart) -> int:
        """Other endpoint of the dart's edge."""
        return self.edges[d >> 1][1 - (d & 1)]

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    # -- export -------------------------------------------------------------------

    def to_dot(self, cycles: Sequence[Sequence[Dart]] = ()) -> str:
        """Graphviz dump of the underlying multigraph; cycles get colors."""
        palette = ["red", "blue", "forestgreen", "orange", "purple", "brown"]
        color = {}
        for i, cyc in enumerate(cycles):
            for d in cyc:
                color[d >> 1] = palette[i % len(palette)]
        lines = ["graph embedded {"]
        for v in range(self.n):
            lines.append('  %d [label="%d"];' % (v, v))
        for e, (u, v) in enumerate(self.edges):
            attr = ' [color=%s]' % color[e] if e in color else ""
            lines.append("  %d -- %d%s;" % (u, v, attr))
        lines.append("}")
        return "\n".join(lines)


def trace_faces(edges: Sequence[Sequence[int]],
                rotation: Sequence[Sequence[Dart]]) -> tuple[tuple, ...]:
    """Face orbits of a rotation system, each starting at its smallest
    dart, in the order of those darts."""
    nxt = [0] * (2 * len(edges))
    for rot in rotation:
        for i, d in enumerate(rot):
            nxt[d] = rot[i + 1] if i + 1 < len(rot) else rot[0]
    faces = []
    seen = [False] * len(nxt)
    for d0 in range(len(nxt)):
        if seen[d0]:
            continue
        face = []
        d = d0
        while True:
            face.append(d)
            seen[d] = True
            d = nxt[d ^ 1]
            if d == d0:
                break
        faces.append(tuple(face))
    return tuple(faces)


# ---------------------------------------------------------------------------
# cutting along vertex-disjoint cycles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutComponent:
    """One component of the surface cut along the given cycles.

    ``chi`` is the Euler characteristic of the compact surface-with-boundary,
    ``boundary`` lists the ``(cycle_index, side)`` circles bounding it, and
    ``faces`` the primal faces it consists of.
    """

    faces: frozenset
    chi: int
    boundary: tuple

    @property
    def is_annulus(self) -> bool:
        return self.chi == 0 and len(self.boundary) == 2

    @property
    def boundary_cycles(self) -> frozenset:
        return frozenset(i for i, _side in self.boundary)


@dataclass(frozen=True)
class CutComplex:
    """Result of :func:`cut_along`: components plus a side lookup.

    ``side_component[(i, s)]`` is the index of the component adjacent to side
    ``s`` (0 = traversal-dart side, 1 = reverse side) of input cycle ``i``.
    """

    components: tuple
    side_component: dict


def face_components(graph: EmbeddedGraph, removed_edges) -> list[int]:
    """Component of every face in the dual graph minus ``removed_edges``.

    Returns a list indexed by face; components are numbered in the order of
    their smallest face, so face 0 is always in component 0.
    """
    parent = list(range(len(graph.faces)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in range(len(graph.edges)):
        if e not in removed_edges:
            a, b = find(graph.face_of[2 * e]), find(graph.face_of[2 * e + 1])
            if a != b:
                parent[a] = b
    index: dict[int, int] = {}
    return [index.setdefault(find(f), len(index))
            for f in range(len(graph.faces))]


def cycle_vertices(graph: EmbeddedGraph, darts: Sequence[Dart]) -> list[int]:
    """The vertices of a simple cycle given as darts, in order.

    Raises :class:`PreconditionError` unless the darts are ints (not
    ``bool``) in ``0..2m-1`` and chain into a closed walk that visits no
    vertex twice.
    """
    k = len(darts)
    if k == 0:
        raise PreconditionError("empty cycle")
    if any(type(d) is not int for d in darts):
        raise PreconditionError("darts must be ints: %r" % (tuple(darts),))
    if min(darts) < 0 or max(darts) >= 2 * len(graph.edges):
        # a negative dart would alias dart d + 2m through list indexing
        raise PreconditionError("dart out of range 0..%d: %r"
                                % (2 * len(graph.edges) - 1, tuple(darts)))
    verts = []
    for i, d in enumerate(darts):
        if graph.tail(d) != graph.head(darts[(i + 1) % k]):
            raise PreconditionError("darts do not chain into a cycle")
        verts.append(graph.head(d))
    if len(set(verts)) != len(verts):
        raise PreconditionError("cycle revisits a vertex")
    return verts


def cut_along(graph: EmbeddedGraph,
              cycles: Sequence[Sequence[Dart]]) -> CutComplex:
    """Cut the surface along pairwise vertex-disjoint simple cycles.

    Components are computed without rebuilding the map: faces are grouped by
    dual connectivity through non-cycle edges, and for a component K the cut
    surface has ``chi(K) = #interior vertices - #interior edges + #faces``
    (the boundary copies of cycle vertices and edges cancel).  Each cycle
    contributes exactly two boundary circles, one per side.  Components are
    numbered as ``face_components`` numbers them, by their smallest face.
    """
    cycles = [tuple(c) for c in cycles]
    all_verts: set[int] = set()
    cycle_edges: set[int] = set()
    for darts in cycles:
        vs = cycle_vertices(graph, darts)
        if all_verts & set(vs):
            raise PreconditionError("cycles are not vertex-disjoint")
        all_verts.update(vs)
        cycle_edges.update(d >> 1 for d in darts)

    comp_of = face_components(graph, cycle_edges)
    n_comp = max(comp_of, default=-1) + 1

    side_component = {}
    boundary: list[list] = [[] for _ in range(n_comp)]
    for i, darts in enumerate(cycles):
        for side, ds in ((0, darts), (1, [d ^ 1 for d in darts])):
            comps = {comp_of[graph.face_of[d]] for d in ds}
            if len(comps) != 1:
                raise InternalInvariantError(
                    "one side of a cycle touches several components",
                    witness=(i, side, comps))
            k = comps.pop()
            side_component[(i, side)] = k
            boundary[k].append((i, side))

    faces_of = [[] for _ in range(n_comp)]
    for f, k in enumerate(comp_of):
        faces_of[k].append(f)
    chi = [len(fs) for fs in faces_of]
    for e in range(len(graph.edges)):
        if e not in cycle_edges:
            chi[comp_of[graph.face_of[2 * e]]] -= 1
    for v in range(graph.n):
        if v not in all_verts and graph.degree(v):
            chi[comp_of[graph.face_of[graph.rotation[v][0]]]] += 1

    components = tuple(
        CutComponent(frozenset(faces_of[k]), chi[k], tuple(sorted(boundary[k])))
        for k in range(n_comp))
    return CutComplex(components, side_component)


# ---------------------------------------------------------------------------
# surgery primitives
# ---------------------------------------------------------------------------

def working_lists(graph: EmbeddedGraph) -> tuple[list, list]:
    """Mutable copies of a map's edges and rotations for list surgery."""
    return ([list(e) for e in graph.edges],
            [list(r) for r in graph.rotation])


def split_vertex_lists(edges: list, rotation: list, v: int,
                       arc: Sequence[Dart]) -> None:
    """Split vertex ``v`` along a contiguous rotation arc, in place.

    The darts of ``arc`` (a contiguous, non-empty, proper block of the
    rotation at ``v``, given in rotation order) move to a fresh vertex
    ``len(rotation)``, and a bridge edge ``len(edges)`` joins the two halves
    where the arc used to sit.  This is the inverse of contracting the
    bridge, so the genus never changes.
    """
    rot = rotation[v]
    if not arc or len(arc) >= len(rot):
        raise PreconditionError("arc must be a non-empty proper block")
    try:
        start = rot.index(arc[0])
    except ValueError:
        raise PreconditionError("arc dart not at vertex %d" % v)
    for i, d in enumerate(arc):
        if rot[(start + i) % len(rot)] != d:
            raise PreconditionError("arc is not contiguous in the rotation")

    new_vertex = len(rotation)
    bridge = len(edges)
    edges.append([v, new_vertex])
    for d in arc:
        edges[d >> 1][d & 1] = new_vertex
    keep = [rot[(start + len(arc) + i) % len(rot)]
            for i in range(len(rot) - len(arc))]
    rotation[v] = [2 * bridge] + keep
    rotation.append([2 * bridge + 1, *arc])


def expand_edge_lists(edges: list, rotation: list, e: int,
                      k: int) -> list[int]:
    """Replace edge ``e`` by an embedded band of ``k`` parallels, in place.

    Returns the edge ids of the parallels in band order; slot 0 of every
    parallel is the slot-0 endpoint of ``e``, and the first id in the list
    is ``e`` itself.  Bigons appear between neighbours in the band, so the
    genus is unchanged.
    """
    if k < 1:
        raise PreconditionError("need at least one parallel copy")
    m = len(edges)
    u, v = edges[e]
    ids = [e] + list(range(m, m + k - 1))
    edges.extend([u, v] for _ in range(k - 1))

    def replace(vertex, old, block):
        r = rotation[vertex]
        i = r.index(old)
        rotation[vertex] = r[:i] + block + r[i + 1:]

    replace(u, 2 * e, [2 * p for p in ids])
    # for a loop both darts live at u, and the second one is found on the
    # rotation as updated above
    replace(v, 2 * e + 1, [2 * p + 1 for p in reversed(ids)])
    return ids


def add_chord_lists(edges: list, rotation: list, face: Sequence[Dart],
                    d1: Dart, d2: Dart) -> int:
    """Add an edge across ``face``, between the corners after ``d1``, ``d2``.

    ``face`` is a face of the current lists, its darts in face order (as
    ``trace_faces`` or ``split_face`` gives it); both darts must lie on it
    and differ.  The face splits in two, so the genus is unchanged.  The
    corner after dart ``d`` is at the vertex ``head(reverse(d))``; the new
    edge's dart ``2e`` goes there after ``d1``, ``2e + 1`` after ``d2``.
    Returns the new edge id ``e``.
    """
    if d1 == d2:
        raise PreconditionError("chord needs two distinct corners")
    if d1 not in face or d2 not in face:
        raise PreconditionError("chord corners must lie on one face")
    w1 = edges[d1 >> 1][(d1 ^ 1) & 1]
    w2 = edges[d2 >> 1][(d2 ^ 1) & 1]
    new_edge = len(edges)
    edges.append([w1, w2])
    rotation[w1].insert(rotation[w1].index(d1 ^ 1) + 1, 2 * new_edge)
    rotation[w2].insert(rotation[w2].index(d2 ^ 1) + 1, 2 * new_edge + 1)
    return new_edge


def split_face(faces: list, k: int, i: int, j: int, e: int) -> None:
    """Replace ``faces[k]`` by the two faces chord ``e`` splits it into.

    ``faces`` lists the faces of the lists before the chord as
    ``trace_faces`` does, each starting at its least dart, in the order of
    those darts; ``add_chord_lists`` has added ``e`` across ``f =
    faces[k]`` between the corners after ``f[i]`` and ``f[j]``.  A face
    steps from ``d`` to the dart after ``reverse(d)`` in its rotation, so
    the halves are ``(f[i], 2e, f[j+1], ..., f[i-1])`` and ``(f[j], 2e+1,
    f[i+1], ..., f[j-1])``, cyclically; afterwards ``faces`` is what
    ``trace_faces`` gives for the new lists.  Costs ``O(len(f) +
    len(faces))``.
    """
    f = faces[k]
    x = 2 * e
    if i > j:
        i, j, x = j, i, x + 1
    # the half through f[0] keeps f's least dart in front: the chord's
    # darts are the largest
    faces[k] = f[:i + 1] + (x,) + f[j + 1:]
    rest = f[i + 1:j + 1]
    t = rest.index(min(rest))
    insort(faces, rest[t:] + (x ^ 1,) + rest[:t], lo=k + 1)


# ---------------------------------------------------------------------------
# disjointifying a family of pairwise non-crossing cycles
# ---------------------------------------------------------------------------

def shared_paths(graph: EmbeddedGraph, cycles) -> list:
    """Maximal common paths of two simple cycles with different edge sets.

    ``cycles`` holds the two cycles' edge sets.  Both cycles are simple, so
    their common subgraph is a disjoint union of paths, a shared vertex
    without a shared edge being a path of length zero.  Returns one
    ``(vertices, edges)`` pair per path, each walked from one of its ends;
    the pairs come in no particular order.
    """
    ends = graph.edges
    v1 = {v for e in cycles[0] for v in ends[e]}
    sv = {v for e in cycles[1] for v in ends[e] if v in v1}
    se = cycles[0] & cycles[1]
    inc: dict[int, list] = {v: [] for v in sv}
    for e in se:
        a, b = graph.edges[e]
        inc[a].append(e)
        inc[b].append(e)

    paths = []
    seen = set()
    for v0 in sv:
        if v0 in seen or len(inc[v0]) == 2:
            continue  # start walks only from path endpoints
        verts, edges = [v0], []
        seen.add(v0)
        cur, prev_e = v0, None
        while True:
            nxt = [e for e in inc[cur] if e != prev_e]
            if not nxt:
                break
            e = nxt[0]
            cur = graph.edges[e][0] if graph.edges[e][1] == cur \
                else graph.edges[e][1]
            verts.append(cur)
            edges.append(e)
            seen.add(cur)
            prev_e = e
        paths.append((tuple(verts), tuple(edges)))
    if len(seen) != len(sv):
        # a leftover component is a cycle of shared edges, i.e. both cycles
        # have the same edge set
        raise InternalInvariantError("shared subgraph has a cycle component",
                                     witness=sorted(sv - seen))
    return paths


def _clockwise_first(rot: Sequence[Dart], p: Dart, x: Dart, y: Dart) -> Dart:
    """Whichever of darts ``x``, ``y`` comes first clockwise after dart
    ``p`` in the rotation ``rot``."""
    n, i = len(rot), rot.index(p)
    return x if (rot.index(x) - i) % n < (rot.index(y) - i) % n else y


def _separates(rot: Sequence[Dart], a: Dart, b: Dart, x: Dart,
               y: Dart) -> bool:
    """Whether darts ``a``, ``b`` separate darts ``x``, ``y`` in the
    rotation ``rot``: one of ``x``, ``y`` lies on each arc between them."""
    return (_clockwise_first(rot, a, x, b) == x) \
        != (_clockwise_first(rot, a, y, b) == y)


def _leaving_darts(rot: Sequence[Dart], cycles, path: set,
                   want: int) -> list:
    """For each cycle (an edge set), its ``want`` darts off ``path`` in the
    rotation ``rot``, in rotation order."""
    out = [[d for d in rot if (d >> 1) in c and (d >> 1) not in path]
           for c in cycles]
    if any(len(ds) != want for ds in out):
        raise InternalInvariantError(
            "cycles do not leave the shared path by %d dart(s) each" % want,
            witness=(tuple(rot), out, sorted(path)))
    return out


def _leaves_first(graph: EmbeddedGraph, cycles, path: set, v: int,
                  e: int) -> bool:
    """Whether the first of two cycles (edge sets) that share the path
    ``path`` leaves it first, clockwise after the path's dart of edge ``e``
    at its end vertex ``v``."""
    rot = graph.rotation[v]
    (o1,), (o2,) = _leaving_darts(rot, cycles, path, 1)
    p = 2 * e if graph.edges[e][0] == v else 2 * e + 1
    return _clockwise_first(rot, p, o1, o2) == o1


def crosses(graph: EmbeddedGraph, cycles, verts: Sequence[int],
            edges: Sequence[int]) -> bool:
    """Whether two simple cycles cross at their maximal common path.

    ``cycles`` holds the two cycles' edge sets and ``verts``/``edges`` one
    path as ``shared_paths`` returns it.  At a single shared vertex the
    cycles cross when each cycle's two darts separate the other's.  Along a
    path with edges they cross when the same cycle leaves first, clockwise
    after the path's own dart, at both ends: exactly when the four
    divergent darts alternate around the vertex that contracting the path
    would make.
    """
    if not edges:
        rot = graph.rotation[verts[0]]
        (a1, b1), (a2, b2) = _leaving_darts(rot, cycles, set(), 2)
        return _separates(rot, a1, b1, a2, b2)
    path = set(edges)
    return _leaves_first(graph, cycles, path, verts[0], edges[0]) \
        == _leaves_first(graph, cycles, path, verts[-1], edges[-1])


def _walk_direction(graph: EmbeddedGraph, verts: Sequence[int],
                    edges: Sequence[int], e: int) -> int:
    """+1 if the walk ``verts``/``edges`` traverses ``e`` slot0 -> slot1."""
    return 1 if graph.edges[e][0] == verts[edges.index(e)] else -1


def _band_before(graph: EmbeddedGraph, cycles, e: int) -> int:
    """Relative band order of two cycles at shared edge ``e``.

    ``cycles`` holds the two cycles' edge sets.  Returns -1 if cycle 1 sits
    before cycle 2 in the slot-0 insertion frame of ``e``, +1 for the
    opposite, 0 if the cycles coincide.  The relation is read off at the
    divergence end of their maximal common path through ``e``, walked so
    that its smallest-id edge is traversed slot0 -> slot1: the cycle that
    leaves first clockwise after the path's terminal dart lies on a fixed
    side of the band.
    """
    if cycles[0] == cycles[1]:
        return 0
    verts, path = next(p for p in shared_paths(graph, cycles) if e in p[1])
    if _walk_direction(graph, verts, path, min(path)) < 0:
        verts, path = verts[::-1], path[::-1]
    first = -1 if _leaves_first(graph, cycles, set(path), verts[-1],
                                path[-1]) else 1
    # Translate into the slot-0 insertion frame of e.  In the frame of the
    # terminal edge t the relation is first * dir(t); switching frames
    # multiplies by dir(t) * dir(e), so the dir(t) factors cancel.
    return first * _walk_direction(graph, verts, path, e)


def disjointify(graph: EmbeddedGraph,
                cycles: Sequence[Sequence[Dart]]):
    """Re-route pairwise non-crossing simple cycles to vertex-disjoint ones.

    First every edge shared by several cycles is expanded into a band of
    parallels, ordered so that the strands never cross; then every vertex
    still shared by two or more (now edge-disjoint) cycles is split along a
    contiguous arc separating them.  Neither step changes the genus, and each
    output cycle stays freely homotopic to its input.

    The whole plan runs on one working copy of the edge and rotation lists,
    and a single map is built (and validated) at the end; an input that
    needs no surgery comes back as is.

    Returns ``(new_graph, new_cycles)`` with cycles as dart tuples.
    Crossing inputs raise :class:`PreconditionError`.
    """
    cycles = [list(c) for c in cycles]
    for c in cycles:
        cycle_vertices(graph, c)
    edge_sets = [set(d >> 1 for d in c) for c in cycles]

    # Step 1: expand shared edges, assigning one parallel per cycle.
    sharers: dict[int, list[int]] = {}
    for i, es in enumerate(edge_sets):
        for e in es:
            sharers.setdefault(e, []).append(i)
    plan = []
    for e, owners in sorted(sharers.items()):
        if len(owners) < 2:
            continue

        def cmp(i, j, _e=e):
            # cycles on one edge set keep their index order along the walk
            # on which their smallest dart is even
            return _band_before(graph, (edge_sets[i], edge_sets[j]), _e) \
                or (i - j if (2 * _e) ^ (min(cycles[i]) & 1) in cycles[i]
                    else j - i)

        plan.append((e, sorted(owners, key=cmp_to_key(cmp))))

    edges, rotation = working_lists(graph)
    for e, owners in plan:
        ids = expand_edge_lists(edges, rotation, e, len(owners))
        for slot, i in enumerate(owners):
            new_e = ids[slot]
            if new_e == e:
                continue
            cycles[i] = [
                (2 * new_e) | (d & 1) if (d >> 1) == e else d
                for d in cycles[i]
            ]

    # Step 2: split shared vertices until all cycles are vertex-disjoint.
    split = False
    while True:
        at_vertex: dict[int, list[int]] = {}
        for i, c in enumerate(cycles):
            for d in c:
                at_vertex.setdefault(edges[d >> 1][d & 1], []).append(i)
        shared = sorted(v for v, owners in at_vertex.items() if len(owners) > 1)
        if not shared:
            break
        v = shared[0]
        rot = rotation[v]
        (a0, b0), (a1, b1) = _leaving_darts(
            rot, [{d >> 1 for d in cycles[i]} for i in at_vertex[v][:2]],
            set(), 2)
        if _separates(rot, a0, b0, a1, b1):
            raise PreconditionError(
                "cycles cross at vertex %d; disjointify needs a "
                "non-crossing family" % v)
        # the second cycle's darts lie on one arc between the first
        # cycle's darts; that arc moves to the new vertex
        i1, i2 = rot.index(a0), rot.index(b0)
        if _clockwise_first(rot, a0, a1, b0) == a1:
            arc = rot[i1 + 1:i2]
        else:
            arc = rot[i2 + 1:] + rot[:i1]
        if not arc:
            raise InternalInvariantError("empty separating arc", witness=v)
        split_vertex_lists(edges, rotation, v, arc)
        split = True

    if not plan and not split:
        return graph, [tuple(c) for c in cycles]
    out = EmbeddedGraph(len(rotation), edges, rotation)
    if out.genus != graph.genus:
        raise InternalInvariantError("disjointify changed the genus",
                                     witness=(graph.genus, out.genus))
    return out, [tuple(c) for c in cycles]
