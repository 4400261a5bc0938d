"""Shared map builders and reference helpers for the test suite."""

from __future__ import annotations

import math

from surfaceflow.flows import Multiflow
from surfaceflow.instances import Instance
from surfaceflow.rational import ZERO
from surfaceflow.surface import EmbeddedGraph


def triangle_map() -> EmbeddedGraph:
    """Three vertices, three edges, two faces, genus 0."""
    edges = [(0, 1), (1, 2), (2, 0)]
    rotation = [[0, 5], [2, 1], [4, 3]]
    return EmbeddedGraph(3, edges, rotation)


def torus_bouquet() -> EmbeddedGraph:
    """One vertex, two interleaved loops: the one-square torus."""
    edges = [(0, 0), (0, 0)]
    rotation = [[0, 2, 1, 3]]
    return EmbeddedGraph(1, edges, rotation)


def torus_grid_map(p: int, q: int) -> EmbeddedGraph:
    """p x q toroidal grid with the uniform clockwise rotation (N, E, S, W)."""
    n = p * q

    def vid(i, j):
        return (i % p) * q + (j % q)

    edges = []
    right = {}
    down = {}
    for i in range(p):
        for j in range(q):
            right[(i, j)] = len(edges)
            edges.append((vid(i, j), vid(i, j + 1)))
    for i in range(p):
        for j in range(q):
            down[(i, j)] = len(edges)
            edges.append((vid(i, j), vid(i + 1, j)))
    rotation = []
    for i in range(p):
        for j in range(q):
            north = 2 * down[((i - 1) % p, j)] + 1
            east = 2 * right[(i, j)]
            south = 2 * down[(i, j)]
            west = 2 * right[(i, (j - 1) % q)] + 1
            rotation.append([north, east, south, west])
    return EmbeddedGraph(n, edges, rotation)


def planar_grid_map(p: int, q: int) -> EmbeddedGraph:
    """p x q planar grid, rotations from the drawing (genus 0)."""
    def vid(i, j):
        return i * q + j

    edges = []
    right = {}
    down = {}
    for i in range(p):
        for j in range(q):
            if j + 1 < q:
                right[(i, j)] = len(edges)
                edges.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < p:
                down[(i, j)] = len(edges)
                edges.append((vid(i, j), vid(i + 1, j)))
    rotation = []
    for i in range(p):
        for j in range(q):
            rot = []
            if i > 0:
                rot.append(2 * down[(i - 1, j)] + 1)  # north
            if j + 1 < q:
                rot.append(2 * right[(i, j)])  # east
            if i + 1 < p:
                rot.append(2 * down[(i, j)])  # south
            if j > 0:
                rot.append(2 * right[(i, j - 1)] + 1)  # west
            rotation.append(rot)
    return EmbeddedGraph(p * q, edges, rotation)


def map_from_drawing(coords: dict, edge_spec: list) -> tuple[EmbeddedGraph, dict]:
    """Build a map from vertex coordinates and an edge list.

    ``edge_spec`` entries are ``(u, v)`` or ``(u, v, angle_u, angle_v)`` with
    departure angles in degrees overriding the straight-line direction (used
    for curved edges).  Rotations sort darts clockwise by departure angle.
    Returns the graph and ``{(u, v): edge_id}`` for both orientations.
    """
    names = sorted(coords)
    vid = {name: i for i, name in enumerate(names)}
    edges = []
    angle_of = {}
    lookup = {}
    for spec in edge_spec:
        u, v = spec[0], spec[1]
        e = len(edges)
        edges.append((vid[u], vid[v]))
        lookup[(u, v)] = e
        lookup[(v, u)] = e
        (xu, yu), (xv, yv) = coords[u], coords[v]
        base_uv = math.degrees(math.atan2(yv - yu, xv - xu))
        base_vu = math.degrees(math.atan2(yu - yv, xu - xv))
        ang_u = spec[2] if len(spec) > 2 and spec[2] is not None else base_uv
        ang_v = spec[3] if len(spec) > 3 and spec[3] is not None else base_vu
        angle_of[2 * e] = ang_u % 360.0
        angle_of[2 * e + 1] = ang_v % 360.0
    rotation = [[] for _ in names]
    for d, _ in angle_of.items():
        v = edges[d >> 1][d & 1]
        rotation[v].append(d)
    for v in range(len(names)):
        rotation[v].sort(key=lambda d: -angle_of[d])
    graph = EmbeddedGraph(len(names), edges, rotation)
    return graph, {"vid": vid, "edge": lookup}


def darts_for_route(graph: EmbeddedGraph, lookup: dict, route: list) -> tuple:
    """Dart sequence traversing named vertices ``route`` (closed, cyclic)."""
    vid, edge = lookup["vid"], lookup["edge"]
    darts = []
    k = len(route)
    for i in range(k):
        u, v = route[i], route[(i + 1) % k]
        e = edge[(u, v)]
        a, b = graph.edges[e]
        d = 2 * e if a == vid[u] else 2 * e + 1
        assert graph.head(d) == vid[u] and graph.tail(d) == vid[v]
        darts.append(d)
    return tuple(darts)


def edge_load(flow: Multiflow, e: int):
    """Total value of the cycles of ``flow`` through edge ``e``."""
    return sum((v for c, v in flow.values.items() if e in c.edge_set), ZERO)


def with_caps(instance: Instance, caps) -> Instance:
    """``instance`` with its capacities replaced by ``caps``."""
    return Instance(instance.graph, instance.kinds, tuple(caps))


def reference_check_certificate(c, A_ub, b_ub, A_eq, b_eq, x, y_ub,
                                y_eq) -> bool:
    """``lp.check_certificate`` entry by entry over rationals, as the
    reference its integer version must agree with."""
    n = len(c)
    if len(x) != n or any(v < 0 for v in x):
        return False
    for row, b in zip(A_ub, b_ub):
        if sum((coef * x[j] for j, coef in row.items()), ZERO) > b:
            return False
    for row, b in zip(A_eq, b_eq):
        if sum((coef * x[j] for j, coef in row.items()), ZERO) != b:
            return False
    if any(v < 0 for v in y_ub):
        return False
    # dual feasibility per column: A^T y >= c
    col_tot = [ZERO] * n
    for row, y in zip(A_ub, y_ub):
        if y:
            for j, coef in row.items():
                col_tot[j] += coef * y
    for row, y in zip(A_eq, y_eq):
        if y:
            for j, coef in row.items():
                col_tot[j] += coef * y
    if any(col_tot[j] < c[j] for j in range(n)):
        return False
    primal = sum((c[j] * x[j] for j in range(n)), ZERO)
    dual = sum((b * y for b, y in zip(b_ub, y_ub)), ZERO) + \
        sum((b * y for b, y in zip(b_eq, y_eq)), ZERO)
    return primal == dual
