"""Problem instances: embedded supply+demand graphs with capacities.

Wire format (JSON)::

    {"vertices": n,
     "edges": [{"id": 0, "u": 0, "v": 1, "kind": "supply", "cap": 1}, ...],
     "rotation": [[dart ids, clockwise], ...]}

Edge ids must be dense (``0..m-1``, listed in order); the dart of edge ``e``
attached to ``u`` is ``2e``, the one attached to ``v`` is ``2e+1``.
Serialization is byte-deterministic so generated instances can be used as
golden files.

The generators produce the instance families used by the test-suite and the
CLI: the ring-and-radial gap family (fractional/integral gap ``n`` on genus
``>= n``), toroidal grids with demand chords, and random planar instances
grown by face chords (always genus 0).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .errors import InternalInvariantError, PreconditionError, StructuralError
from .surface import (EmbeddedGraph, add_chord_lists, split_face,
                      split_vertex_lists, trace_faces)

SUPPLY = "supply"
DEMAND = "demand"


def is_int(value) -> bool:
    """True for a JSON integer: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Instance:
    """An embedded multiflow instance.

    ``graph`` is the map of supply and demand edges together; ``kinds`` and
    ``caps`` are tuples indexed by edge id, so an instance hashes.
    Capacities are positive integers, and no demand edge is a loop.
    """

    graph: EmbeddedGraph
    kinds: tuple
    caps: tuple

    def __post_init__(self):
        if type(self.kinds) is not tuple or type(self.caps) is not tuple:
            raise StructuralError("schema", "kinds/caps must be tuples")
        m = len(self.graph.edges)
        if len(self.kinds) != m or len(self.caps) != m:
            raise StructuralError("schema", "kind/cap lists must match edges")
        for e in range(m):
            if self.kinds[e] not in (SUPPLY, DEMAND):
                raise StructuralError(
                    "schema", "edge %d has unknown kind %r" % (e, self.kinds[e]))
            if not is_int(self.caps[e]):
                raise StructuralError(
                    "schema", "edge %d capacity must be an integer" % e)
            if self.caps[e] < 1:
                raise StructuralError(
                    "capacity", "edge %d has non-positive capacity" % e)
            u, v = self.graph.edges[e]
            if self.kinds[e] == DEMAND and u == v:
                raise StructuralError(
                    "schema", "demand edge %d is a loop" % e)

    @property
    def demand_edges(self) -> tuple:
        return tuple(e for e, k in enumerate(self.kinds) if k == DEMAND)

    @property
    def supply_edges(self) -> tuple:
        return tuple(e for e, k in enumerate(self.kinds) if k == SUPPLY)

    def is_demand(self, e: int) -> bool:
        return self.kinds[e] == DEMAND


def parse_instance(data) -> Instance:
    """Parse and validate the wire format (a JSON string or a parsed dict).

    Only the JSON's shape is checked here: ``EmbeddedGraph`` checks and
    codes the map's numbers, ``Instance`` the kinds and capacities.  Each
    fault is a ``StructuralError`` raised, with its code, where it is
    found."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except ValueError as exc:  # also an int past the digit limit
            raise StructuralError("schema", "invalid JSON: %s" % exc)
    if not isinstance(data, dict):
        raise StructuralError("schema", "instance must be a JSON object")
    for key in ("vertices", "edges", "rotation"):
        if key not in data:
            raise StructuralError("schema", "missing field %r" % key)
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise StructuralError("schema", "edges must be a list")
    edges, kinds, caps = [], [], []
    for i, rec in enumerate(raw_edges):
        if not isinstance(rec, dict):
            raise StructuralError("schema", "edge %d must be an object" % i)
        for key in ("id", "u", "v", "kind", "cap"):
            if key not in rec:
                raise StructuralError(
                    "schema", "edge %d missing field %r" % (i, key))
        if not is_int(rec["id"]) or rec["id"] != i:
            raise StructuralError(
                "schema", "edge ids must be dense and ordered (got %r at "
                "position %d)" % (rec["id"], i))
        edges.append((rec["u"], rec["v"]))
        kinds.append(rec["kind"])
        caps.append(rec["cap"])
    rotation = data["rotation"]
    if not isinstance(rotation, list) or any(
            not isinstance(r, list) for r in rotation):
        raise StructuralError("rotation", "rotation must be a list of lists")
    graph = EmbeddedGraph(data["vertices"], edges, rotation)
    return Instance(graph, tuple(kinds), tuple(caps))


def serialize_instance(inst: Instance) -> str:
    """Deterministic JSON for an instance (stable bytes for fixed input)."""
    g = inst.graph
    doc = {
        "vertices": g.n,
        "edges": [
            {"id": e, "u": u, "v": v, "kind": inst.kinds[e],
             "cap": inst.caps[e]}
            for e, (u, v) in enumerate(g.edges)
        ],
        "rotation": [list(r) for r in g.rotation],
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def generate_gap_family(n: int) -> Instance:
    """Ring-and-radial family with fractional value ``n`` but integral
    optimum 1.

    ``n`` concentric rings on ``4n`` spokes; spoke ``k`` ends at an outer
    terminal, and terminal ``k`` is paired with the antipodal terminal
    ``k + 2n``.  Every vertex of degree four is then split into two
    degree-three vertices joined by a bridge, so that two edge-disjoint
    transit paths can never share a vertex.  All capacities are 1.
    """
    if n < 1:
        raise PreconditionError("gap family needs n >= 1, got %d" % n)
    cols = 4 * n

    def ring_vertex(r, k):  # r in 1..n
        return (r - 1) * cols + (k % cols)

    def terminal(k):
        return n * cols + (k % cols)

    edges = []
    kinds = []
    ring_edge = {}
    for r in range(1, n + 1):
        for k in range(cols):
            ring_edge[(r, k)] = len(edges)
            edges.append([ring_vertex(r, k), ring_vertex(r, k + 1)])
            kinds.append(SUPPLY)
    radial_edge = {}
    for k in range(cols):
        radial_edge[(n + 1, k)] = len(edges)  # terminal spoke segment
        edges.append([terminal(k), ring_vertex(n, k)])
        kinds.append(SUPPLY)
        for r in range(n, 1, -1):
            radial_edge[(r, k)] = len(edges)
            edges.append([ring_vertex(r, k), ring_vertex(r - 1, k)])
            kinds.append(SUPPLY)
    for k in range(2 * n):
        edges.append([terminal(k), terminal(k + 2 * n)])
        kinds.append(DEMAND)

    # clockwise rotations from the concentric drawing:
    # at a ring vertex: outward spoke, previous ring edge, inward spoke,
    # next ring edge.
    rotation = [None] * (n * cols + cols)
    for r in range(1, n + 1):
        for k in range(cols):
            out = (2 * radial_edge[(r + 1, k)] + 1)
            nxt = 2 * ring_edge[(r, k)]
            prv = 2 * ring_edge[(r, (k - 1) % cols)] + 1
            rot = [out, prv]
            if r > 1:
                rot.append(2 * radial_edge[(r, k)])
            rot.append(nxt)
            rotation[ring_vertex(r, k)] = rot
    for k in range(cols):
        demand_id = len(edges) - 2 * n + (k % (2 * n))
        slot = 0 if k < 2 * n else 1
        rotation[terminal(k)] = [2 * radial_edge[(n + 1, k)],
                                 2 * demand_id + slot]

    # split every degree-4 vertex along the (inward, next-ring) arc
    for r in range(2, n + 1):
        for k in range(cols):
            v = ring_vertex(r, k)
            rot = rotation[v]
            # arc = the two darts after [out, prev]: inward spoke + next ring
            arc = [d for d in rot
                   if d == 2 * radial_edge[(r, k)] or d == 2 * ring_edge[(r, k)]]
            i1, i2 = rot.index(arc[0]), rot.index(arc[1])
            if (i1 + 1) % len(rot) != i2:
                arc = [arc[1], arc[0]]
            split_vertex_lists(edges, rotation, v, arc)
            kinds.append(SUPPLY)
    graph = EmbeddedGraph(len(rotation), edges, rotation)
    caps = tuple(1 for _ in range(len(graph.edges)))
    return Instance(graph, tuple(kinds), caps)


def _torus_lists(p: int, q: int) -> tuple[list, list]:
    """Edge and rotation lists of the ``p x q`` toroidal grid."""

    def vid(i, j):
        return (i % p) * q + (j % q)

    edges = []
    right, down = {}, {}
    for i in range(p):
        for j in range(q):
            right[(i, j)] = len(edges)
            edges.append([vid(i, j), vid(i, j + 1)])
    for i in range(p):
        for j in range(q):
            down[(i, j)] = len(edges)
            edges.append([vid(i, j), vid(i + 1, j)])
    rotation = []
    for i in range(p):
        for j in range(q):
            rotation.append([2 * down[((i - 1) % p, j)] + 1,
                             2 * right[(i, j)],
                             2 * down[(i, j)],
                             2 * right[(i, (j - 1) % q)] + 1])
    return edges, rotation


def generate_torus_grid(p: int, q: int, demands, cap_mode: str = "unit",
                        seed: int = 0) -> Instance:
    """A ``p x q`` toroidal grid plus demand chords.

    ``demands`` is either an integer (that many random demand pairs) or an
    explicit list of vertex pairs.  Each demand edge is embedded in a common
    face of its endpoints when one exists (keeping genus 1), otherwise its
    darts are inserted at a fixed rotation position, which may raise the
    genus of the combined map by one.  ``cap_mode`` is ``"unit"`` (all 1) or
    ``"random"`` (supply capacities uniform in 1..5).  Deterministic in
    ``seed``.
    """
    if p < 3 or q < 3:
        raise PreconditionError("toroidal grid needs p, q >= 3, got %d x %d"
                                % (p, q))
    if cap_mode not in ("unit", "random"):
        raise PreconditionError("cap_mode must be 'unit' or 'random'")
    rng = random.Random(seed)
    edges, rotation = _torus_lists(p, q)
    n_supply = len(edges)
    if isinstance(demands, int):
        if demands < 0:
            raise PreconditionError("demand count must be non-negative")
        n_pairs = p * q * (p * q - 1) // 2
        if demands > n_pairs:
            raise PreconditionError(
                "a %d x %d grid has %d vertex pairs, cannot draw %d demands"
                % (p, q, n_pairs, demands))
        pairs = []
        while len(pairs) < demands:
            u = rng.randrange(p * q)
            v = rng.randrange(p * q)
            if u != v and (u, v) not in pairs and (v, u) not in pairs:
                pairs.append((u, v))
    else:
        pairs = [tuple(x) for x in demands]
    for u, v in pairs:
        _insert_chord_edge(edges, rotation, u, v)
    graph = EmbeddedGraph(p * q, edges, rotation)
    kinds = tuple([SUPPLY] * n_supply + [DEMAND] * len(pairs))
    if cap_mode == "unit":
        caps = tuple(1 for _ in graph.edges)
    else:
        caps = tuple(rng.randint(1, 5) if k == SUPPLY else rng.randint(1, 3)
                     for k in kinds)
    return Instance(graph, kinds, caps)


def _corner(edges: list, d: int) -> int:
    """Vertex of the corner after dart ``d``: the head of its reverse."""
    return edges[d >> 1][(d ^ 1) & 1]


def _insert_chord_edge(edges: list, rotation: list, u: int, v: int) -> None:
    """Add an edge u-v to the lists: inside a shared face if possible, else
    at the end of both rotations (which may add a handle)."""
    for face in trace_faces(edges, rotation):
        d1 = d2 = None
        for d in face:
            w = _corner(edges, d)
            if w == u and d1 is None:
                d1 = d
            elif w == v and d2 is None:
                d2 = d
        if d1 is not None and d2 is not None:
            add_chord_lists(edges, rotation, face, d1, d2)
            return
    e = len(edges)
    edges.append([u, v])
    rotation[u].append(2 * e)
    rotation[v].append(2 * e + 1)


def generate_planar_random(size: int, seed: int = 0,
                           cap_mode: str = "random",
                           n_demands: int | None = None) -> Instance:
    """Random planar instance with about ``size`` edges (genus always 0).

    Grown from a cycle by adding chords across random faces; demand edges
    are chords too, so the combined map stays planar.  Deterministic in
    ``seed``.  The face list is traced once and kept across the chords
    (``split_face``), so a chord across face ``F`` costs ``O(|F| + #faces)``
    and the finished map is traced once more, by ``EmbeddedGraph``.
    """
    if size < 6:
        raise PreconditionError("planar instances need size >= 6, got %d"
                                % size)
    if n_demands is not None and n_demands < 0:
        raise PreconditionError("demand count must be non-negative")
    rng = random.Random(seed)
    k = rng.randint(4, max(4, min(8, size // 2)))
    edges = [[i, (i + 1) % k] for i in range(k)]
    rotation = [[2 * ((i - 1) % k) + 1, 2 * i] for i in range(k)]
    if n_demands is None:
        n_demands = rng.randint(1, 3)
    n_supply_chords = max(0, size - k - n_demands)
    faces = list(trace_faces(edges, rotation))
    for _ in range(n_supply_chords):
        _random_chord(edges, rotation, faces, rng)
    n_supply = len(edges)
    added = 0
    guard = 0
    while added < n_demands and guard < 200:
        guard += 1
        if _random_chord(edges, rotation, faces, rng,
                         distinct_endpoints=True):
            added += 1
    graph = EmbeddedGraph(k, edges, rotation)
    kinds = tuple([SUPPLY] * n_supply + [DEMAND] * added)
    if cap_mode == "unit":
        caps = tuple(1 for _ in graph.edges)
    else:
        caps = tuple(rng.randint(1, 5) if kd == SUPPLY else rng.randint(1, 2)
                     for kd in kinds)
    inst = Instance(graph, kinds, caps)
    if inst.graph.genus != 0:
        raise InternalInvariantError(
            "planar generator produced genus %d" % inst.graph.genus)
    return inst


def _random_chord(edges: list, rotation: list, faces: list,
                  rng: random.Random,
                  distinct_endpoints: bool = False) -> bool:
    """Add a chord across a random face of the lists and split that face
    in ``faces``, their face list in ``trace_faces`` order; False if none
    was added.  Every face has two darts or more: the starting cycle's two
    have at least four, and each half of a split holds a chord dart and
    one of the face's."""
    for _attempt in range(20):
        k = rng.randrange(len(faces))
        face = faces[k]
        i, j = rng.sample(range(len(face)), 2)
        if distinct_endpoints \
                and _corner(edges, face[i]) == _corner(edges, face[j]):
            continue
        e = add_chord_lists(edges, rotation, face, face[i], face[j])
        split_face(faces, k, i, j, e)
        return True
    return False
