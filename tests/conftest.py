"""Shared map builders and reference helpers for the test suite."""

from __future__ import annotations

import functools
import importlib.util
import json
import math
import pathlib
import sys
from fractions import Fraction
from functools import cmp_to_key, reduce
from operator import or_

import numpy as np

from surfaceflow.errors import (InternalInvariantError, OracleBudgetExceeded,
                                PreconditionError)
from surfaceflow.flows import (DCycle, Multiflow, edge_loads,
                               solve_and_decompose)
from surfaceflow import instances
from surfaceflow.instances import (DEMAND, SUPPLY, Instance,
                                   generate_torus_grid, load_instance)
from surfaceflow import lp, oracle, uncross
from surfaceflow.rational import QQ, ZERO, floor_rat, rat
from surfaceflow.surface import (CutComponent, EmbeddedGraph, _band_before,
                                 cut_along, cycle_vertices, disjointify,
                                 expand_edge_lists, face_components,
                                 shared_paths, split_vertex_lists,
                                 working_lists)
from surfaceflow.topology import classify_homotopy, split_support
from surfaceflow.uncross import SharedPath, uncross_flow

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden"
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


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


def torus_demand_instance(p: int = 4, q: int = 4) -> Instance:
    """The p x q torus grid at unit capacities whose row-0 down edges and
    column-0 right edges are demands, so that every meridian and every
    longitude holds exactly one demand edge."""
    graph = torus_grid_map(p, q)
    kinds = [SUPPLY] * len(graph.edges)
    for j in range(q):
        kinds[p * q + j] = DEMAND
    for i in range(p):
        kinds[q * i] = DEMAND
    return Instance(graph, tuple(kinds), tuple([1] * len(graph.edges)))


def torus_dcycles(*cycles, p=4, q=4) -> list:
    """The dart tuples as D-cycles of ``torus_demand_instance(p, q)``."""
    inst = torus_demand_instance(p, q)
    return [DCycle.from_darts(inst, c) for c in cycles]


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


def amounts(flow: Multiflow) -> dict:
    """The flow's values as ``QQ``s, in its key order."""
    return {c: QQ(v, flow.denom) for c, v in flow.values.items()}


def edge_load(flow: Multiflow, e: int):
    """Total value of the cycles of ``flow`` through edge ``e``."""
    return sum((v for c, v in amounts(flow).items() if e in c.edges),
               ZERO)


def with_caps(instance: Instance, caps) -> Instance:
    """``instance`` with its capacities replaced by ``caps``."""
    return Instance(instance.graph, instance.kinds, tuple(caps))


def nonseparating_classes(flow: Multiflow):
    """Split ``flow``'s support and classify its non-separating cycles, as
    the pipeline does before the non-separating rounding."""
    _, _, nonsep, nonsep_v = split_support(flow)
    return classify_homotopy(flow.instance.graph, nonsep, nonsep_v)


def intersection_adjacency(cycles) -> list:
    """Adjacency lists: two cycles are adjacent iff they share an edge."""
    adj = [set() for _ in cycles]
    by_edge: dict[int, list] = {}
    for i, c in enumerate(cycles):
        for e in c.edges:
            by_edge.setdefault(e, []).append(i)
    for ids in by_edge.values():
        for i in ids:
            adj[i].update(j for j in ids if j != i)
    return [sorted(a) for a in adj]


def reference_unit_map(red) -> tuple[Instance, list]:
    """The unit-capacity map behind a ``round_separating.UnitReduction``.

    Every edge with residual strands becomes an embedded band of one unit
    parallel per two strands, and strands ``2k`` and ``2k + 1`` ride
    parallel ``k``.  Returns the unit instance and the re-routed copy of
    each residual half-cycle, in ``red.residual`` order; routing every copy
    at value 1/2 is a feasible flow there.
    """
    inst = red.banked.instance
    edges, rotation = working_lists(inst.graph)
    orig_of = list(range(len(edges)))
    parallel = {}
    for e, strands in sorted(red.strands.items()):
        ids = expand_edge_lists(edges, rotation, e, (len(strands) + 1) // 2)
        orig_of += [e] * (len(ids) - 1)
        for pos, i in enumerate(strands):
            parallel[(e, i)] = ids[pos // 2]
    graph = EmbeddedGraph(len(rotation), edges, rotation)
    unit = Instance(graph, tuple(inst.kinds[e] for e in orig_of),
                    (1,) * len(orig_of))
    cycles = [DCycle.from_darts(unit, [2 * parallel[(d >> 1, i)] + (d & 1)
                                       for d in c.darts])
              for i, c in enumerate(red.residual)]
    Multiflow(unit, {c: 1 for c in cycles}, 2).verify_feasible()
    return unit, cycles


def multiset_value(counts: dict, quantum) -> QQ:
    """Value of a discretized multiflow: its quanta times the quantum
    ``qn / qd``."""
    qn, qd = quantum
    return QQ(sum(counts.values()) * qn, qd)


# The ``Fraction`` flow: the operations of a multiflow that kept one ``QQ``
# per cycle, on ``{DCycle: QQ}`` dicts, as references for the int flow.

def reference_edge_loads(values: dict) -> dict:
    """Per-edge ``QQ`` sums, in first-use order."""
    loads: dict = {}
    for c, v in values.items():
        for e in c.edges:
            loads[e] = loads.get(e, ZERO) + v
    return loads


def reference_overloaded(instance: Instance, values: dict):
    """The edge ``verify_feasible`` reports: the first overloaded edge in
    load order, or ``None``."""
    return next((e for e, load in reference_edge_loads(values).items()
                 if load > instance.caps[e]), None)


def reference_to_wire(values: dict) -> list:
    """Cycle records sorted by darts, each value as ``p/q`` of its
    ``QQ``."""
    return [{"cycle": list(c.darts), "demand": c.demand,
             "value": "%d/%d" % (v.numerator, v.denominator)}
            for c, v in sorted(values.items(), key=lambda kv: kv[0].darts)]


def reference_discretize(instance: Instance, values: dict, epsilon) -> tuple:
    """``(counts, quantum)``: each value's whole number of quanta
    ``epsilon * |f| / (|E| |D|)``, with the quantum a ``QQ``."""
    total = sum(values.values(), ZERO)
    if total == 0:
        return {}, ZERO
    quantum = epsilon * total / (len(instance.graph.edges)
                                 * max(1, len(instance.demand_edges)))
    counts = {}
    for c, v in values.items():
        k = int(v / quantum)
        if k:
            counts[c] = k
    return counts, quantum


def reference_multiset_to_flow(counts: dict, quantum) -> dict:
    return {c: k * quantum for c, k in counts.items()}


def reference_split_totals(instance: Instance, values: dict) -> tuple:
    """``(separating, non-separating)`` value sums, separation decided by
    ``separates``."""
    sep = [v for c, v in values.items()
           if separates(instance.graph, c.darts)]
    return sum(sep, ZERO), sum(values.values(), ZERO) - sum(sep, ZERO)


def assert_flow_matches_reference(flow: Multiflow) -> None:
    """``value``, ``edge_loads``, the ``verify_feasible`` verdict and the
    ``to_wire`` bytes of an int flow equal the ``Fraction`` flow's."""
    values = amounts(flow)
    assert flow.value == sum(values.values(), ZERO)
    assert {e: QQ(load, flow.denom) for e, load in
            edge_loads(flow.values).items()} == reference_edge_loads(values)
    overloaded = reference_overloaded(flow.instance, values)
    try:
        flow.verify_feasible()
    except InternalInvariantError as exc:
        assert overloaded is not None and exc.witness[0] == overloaded
    else:
        assert overloaded is None
    assert json.dumps(flow.to_wire()) \
        == json.dumps(reference_to_wire(values))


def is_disk(comp: CutComponent) -> bool:
    """Whether a component of ``surface.cut_along`` is a disk."""
    return comp.chi == 1 and len(comp.boundary) == 1


def reference_uncross_all(instance: Instance, counts: dict) -> dict:
    """``uncross.uncross_all`` in unit steps: every iteration scans for the
    first pair crossing twice and moves one quantum with a fresh
    ``uncross.uncross_pair`` rewrite; no rewrite is reused."""
    g = instance.graph
    counts = dict(counts)
    cross_counts: dict = {}

    def crossing_twice(ci, cj):
        key = frozenset((ci, cj))
        if key not in cross_counts:
            cross_counts[key] = uncross.cr(g, ci.darts, cj.darts)
        return cross_counts[key] >= 2

    while True:
        cycles = list(counts)
        pair = next(((ci, cj) for i, ci in enumerate(cycles)
                     for cj in cycles[i + 1:] if crossing_twice(ci, cj)),
                    None)
        if pair is None:
            return counts
        c1, c2 = pair
        p, q = uncross._pick_crossings(
            instance, c1, c2, uncross.crossings(g, c1.darts, c2.darts))
        for c in pair:
            counts[c] -= 1
            if counts[c] == 0:
                del counts[c]
        for c in uncross.uncross_pair(instance, c1, c2, p, q):
            counts[c] = counts.get(c, 0) + 1


def cycle_record(c: DCycle) -> tuple:
    """Every field of a ``DCycle``; its equality reads the first two."""
    return c.darts, c.demand, c.edges, c.mask, c.least


def assert_cycle_fields(c: DCycle, caps) -> None:
    """``edges``, ``mask`` and ``least`` of ``c`` are those of its darts
    under the capacities ``caps``."""
    edges = tuple(d >> 1 for d in c.darts)
    assert c.edges == edges
    assert c.mask == reduce(or_, (1 << e for e in edges))
    assert c.least == min(caps[e] for e in edges)


def reference_enumerate_d_cycles(instance: Instance, budget) -> list:
    """``oracle.enumerate_d_cycles`` without its memo or its lean walk: a
    depth-first search over a vertex -> sorted darts map with a visited set,
    ``DCycle.from_darts`` per cycle, one sort by darts.  Same cycles, same
    steps (one per dart tried) and same refusals."""
    graph = instance.graph
    tail = [graph.tail(d) for d in range(2 * len(graph.edges))]
    adjacency: dict[int, list] = {}
    for e in instance.supply_edges:
        for d in (2 * e, 2 * e + 1):
            adjacency.setdefault(graph.head(d), []).append(d)
    for v in adjacency:
        adjacency[v].sort()
    found: list = []
    steps = 0
    for d_edge in instance.demand_edges:
        dd = 2 * d_edge + 1
        s, t = graph.head(dd), tail[dd]
        stack = [(t, iter(adjacency.get(t, ())))]
        path: list = []
        visited = {t}
        while stack:
            v, it = stack[-1]
            advanced = False
            for d in it:
                steps += 1
                if steps > budget.max_nodes:
                    raise OracleBudgetExceeded(
                        "more than %d cycle enumeration steps"
                        % budget.max_nodes)
                w = tail[d]
                if w == s:
                    found.append(DCycle.from_darts(instance,
                                                   (dd, *path, d)))
                    if len(found) > budget.max_cycles:
                        raise OracleBudgetExceeded(
                            "more than %d D-cycles" % budget.max_cycles)
                    continue
                if w in visited:
                    continue
                visited.add(w)
                path.append(d)
                stack.append((w, iter(adjacency.get(w, ()))))
                advanced = True
                break
            if not advanced:
                stack.pop()
                if path:
                    path.pop()
                visited.discard(v)
    return sorted(found, key=lambda c: c.darts)


def reference_pack_cycles(cycle_edges, caps, root, rows, budget):
    """``oracle.pack_cycles`` on the cycles' edges alone, without their
    bitmasks, least capacities or int root: every node, the root too, takes the least residual of every
    remaining cycle and keeps the positive ones, and the root LP is read as
    rationals.  Same value, same packing, same nodes and same refusals."""
    x, y_ub, _ = lp_answer(root)
    order = sorted(range(len(cycle_edges)), key=x.__getitem__, reverse=True)
    cycle_edges = [cycle_edges[i] for i in order]
    ceiling = floor_rat(root.value)
    prices = [(e, y) for e, y in zip(rows, y_ub) if y]
    best_value = -1
    best: dict = {}
    current: dict = {}
    nodes = 0

    def search(start, residual, value):
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
        if value + floor_rat(sum((residual[e] * y for e, y in prices), ZERO)) \
                <= best_value:
            return
        choices = []
        for j in range(start, len(cycle_edges)):
            m = min([residual[e] for e in cycle_edges[j]])
            if m > 0:
                choices.append((j, m))
        if value + sum(m for _, m in choices) <= best_value:
            return
        for j, m in choices:
            for x in range(m, 0, -1):
                nxt = residual[:]
                for e in cycle_edges[j]:
                    nxt[e] -= x
                current[j] = x
                search(j + 1, nxt, value + x)
                del current[j]
                if best_value == ceiling:
                    return

    search(0, list(caps), 0)
    return best_value, {order[j]: x for j, x in best.items()}


def reference_exact_min_multicut(instance: Instance, budget):
    """``oracle.exact_min_multicut`` without the cycle table: every cycle's
    sorted edges, bitmask and least capacity rebuilt from its ``DCycle``,
    searched in ``(length, darts)`` order.  Same cut, same nodes and same
    refusals."""
    cycles = oracle.enumerate_d_cycles(instance, budget)
    if not cycles:
        return 0, ()
    caps = instance.caps
    uncovered = []
    for c in sorted(cycles, key=lambda c: (len(c.darts), c.darts)):
        edges = sorted(d >> 1 for d in c.darts)
        mask = 0
        for e in edges:
            mask |= 1 << e
        uncovered.append((edges, mask, min(caps[e] for e in edges)))
    demand_cut = tuple(sorted(instance.demand_edges))
    best_cost = sum(caps[e] for e in demand_cut)
    best_edges = demand_cut
    nodes = 0

    def packing_bound(uncovered):
        used = 0
        total = 0
        for _, mask, least in uncovered:
            if not mask & used:
                used |= mask
                total += least
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
        for e in uncovered[0][0]:
            bit = 1 << e
            rest = [c for c in uncovered if not c[1] & bit]
            search(chosen | {e}, cost + caps[e], rest)

    search(set(), 0, uncovered)
    return best_cost, best_edges


def reference_canonical_darts(darts) -> tuple:
    """Quadratic scan for ``flows.canonical_darts``: the least of every
    rotation of the darts and of their reversal."""
    darts = tuple(darts)
    rev = tuple(d ^ 1 for d in reversed(darts))
    return min(seq[s:] + seq[:s] for seq in (darts, rev)
               for s in range(len(darts)))


def numerators_over(values, denom: int) -> list:
    """Numerators of ``values`` over ``denom``, a common multiple of their
    denominators, as Python ints."""
    return [v.numerator * (denom // v.denominator) for v in values]


def over(nums, denom) -> list:
    """The rationals ``nums[i] / denom``."""
    return [QQ(v, denom) for v in nums]


def rationals(X, dx, Y_ub, Y_eq, dy) -> tuple:
    """An int LP answer as its rational vectors ``(x, y_ub, y_eq)``."""
    return over(X, dx), over(Y_ub, dy), over(Y_eq, dy)


def lp_answer(res) -> tuple:
    """An ``LPResult``'s int answer as rational vectors ``(x, y_ub, y_eq)``."""
    return rationals(res.X, res.dx, res.Y_ub, res.Y_eq, res.dy)


def int_answer(x, y_ub, y_eq) -> tuple:
    """Rational vectors ``(x, y_ub, y_eq)`` as an int answer ``(X, dx,
    Y_ub, Y_eq, dy)``, each vector over its least common denominator, as
    ``lp.check_certificate`` takes it."""
    dx = math.lcm(*(QQ(v).denominator for v in x))
    dy = math.lcm(*(QQ(v).denominator for v in (*y_ub, *y_eq)))
    return (numerators_over(map(QQ, x), dx), dx,
            numerators_over(map(QQ, y_ub), dy),
            numerators_over(map(QQ, y_eq), dy), dy)


def reference_check_certificate(c, A_ub, b_ub, A_eq, b_eq, x, y_ub,
                                y_eq) -> bool:
    """``lp.check_certificate`` entry by entry over rationals, as the
    reference its integer version must agree with."""
    n = len(c)
    if len(b_ub) != len(A_ub) or len(b_eq) != len(A_eq):
        raise PreconditionError("right-hand sides do not match the rows")
    if len(y_ub) != len(A_ub) or len(y_eq) != len(A_eq):
        return False
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


def with_forest(c, A_ub, b_ub, A_eq, b_eq) -> tuple:
    """The LP and its spanning forest: the arguments ``lp``'s engines
    take."""
    return c, A_ub, b_ub, A_eq, b_eq, lp._spanning_forest(len(c), A_eq, b_eq)


def reference_simplex_exact(c, A_ub, b_ub, A_eq, b_eq):
    """Two-phase simplex on a dense ``QQ`` tableau: Bland's entering rule,
    basis-index ties and zero-artificial drive-out in both phases, one
    rational per entry.  On node-arc equality rows with positive ``b_ub``
    its phase 1 ends where ``lp._simplex_exact``'s forest starts, so the
    integer tableau must agree with it value for value; it also takes
    general equality rows, which ``lp`` refuses."""
    n, m_ub, m_eq = len(c), len(A_ub), len(A_eq)
    width = n + m_ub + m_eq + 1
    art_lo = n + m_ub
    art_set = set(range(art_lo, art_lo + m_eq))
    rows, basis = [], []
    for i, (row, b) in enumerate(zip(A_ub, b_ub)):
        r = [ZERO] * width
        for j, coef in row.items():
            r[j] = rat(coef)
        r[n + i] = rat(1)
        r[-1] = rat(b)
        rows.append(r)
        basis.append(n + i)
    for i, (row, b) in enumerate(zip(A_eq, b_eq)):
        r = [ZERO] * width
        sign = 1 if b >= 0 else -1
        for j, coef in row.items():
            r[j] = rat(coef * sign)
        r[art_lo + i] = rat(1)
        r[-1] = rat(b * sign)
        rows.append(r)
        basis.append(art_lo + i)
    m = len(rows)
    # phase 1 maximizes -sum(artificials): its reduced costs are the sums
    # of the artificial rows, zero on the artificial columns
    obj1 = [sum((rows[i][j] for i in range(m) if basis[i] in art_set), ZERO)
            for j in range(width)]
    for j in art_set:
        obj1[j] = ZERO
    obj2 = [ZERO] * width
    obj2[:n] = c

    def pivot(obj_rows, pr, pc):
        inv = rows[pr][pc]
        prow = rows[pr] = [v / inv for v in rows[pr]]
        for r in rows + obj_rows:
            coef = r[pc]
            if r is not prow and coef:
                for j in range(width):
                    r[j] -= coef * prow[j]

    def run(obj, obj_rows):
        while True:
            enter = next((j for j in range(width - 1)
                          if j not in art_set and obj[j] > 0), -1)
            if enter < 0:
                return
            leave, best = -1, None
            for i in range(m):
                a = rows[i][enter]
                if a > 0:
                    ratio = rows[i][-1] / a
                    if best is None or ratio < best or (
                            ratio == best and basis[i] < basis[leave]):
                        best, leave = ratio, i
                elif a < 0 and basis[i] in art_set and rows[i][-1] == 0:
                    leave = i
                    break
            if leave < 0:
                raise PreconditionError("LP is unbounded")
            pivot(obj_rows, leave, enter)
            basis[leave] = enter

    if m_eq:
        run(obj1, [obj1, obj2])
        if sum((rows[i][-1] for i in range(m) if basis[i] in art_set), ZERO):
            raise PreconditionError("LP is infeasible")
    run(obj2, [obj2])
    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rows[i][-1]
    y_ub = [-obj2[n + i] for i in range(m_ub)]
    y_eq = [-obj2[art_lo + i] * (1 if b >= 0 else -1)
            for i, b in enumerate(b_eq)]
    return x, y_ub, y_eq


def reference_simplex_float(c, A_ub, b_ub, A_eq, b_eq):
    """``lp._simplex_float`` with separate objective arrays and a
    full-width update of each touched row: the reference whose pivot
    sequence, and so whose returned floats, the float engine must
    reproduce."""
    n = len(c)
    m_ub, m_eq = len(A_ub), len(A_eq)
    m = m_ub + m_eq
    width = n + m_ub + m_eq + 1
    art_lo = n + m_ub
    T = np.zeros((m, width))
    basis = []
    for i, (row, b) in enumerate(zip(A_ub, b_ub)):
        for j, coef in row.items():
            T[i, j] = float(coef)
        T[i, n + i] = 1.0
        T[i, -1] = float(b)
        basis.append(n + i)
    for i, (row, b) in enumerate(zip(A_eq, b_eq)):
        sign = 1.0 if b >= 0 else -1.0
        for j, coef in row.items():
            T[m_ub + i, j] = float(coef) * sign
        T[m_ub + i, art_lo + i] = 1.0
        T[m_ub + i, -1] = float(b) * sign
        basis.append(art_lo + i)
    obj1 = T[m_ub:].sum(axis=0) if m_eq else np.zeros(width)
    obj1[art_lo:art_lo + m_eq] = 0.0
    obj2 = np.zeros(width)
    obj2[:n] = [float(v) for v in c]
    tol = 1e-9
    art_cols = np.zeros(width, dtype=bool)
    art_cols[art_lo:art_lo + m_eq] = True
    basis = np.array(basis)

    def run(obj, objs):
        for it in range(60000):
            red = obj[:-1].copy()
            red[art_cols[:-1]] = -1.0
            if it % 997 < 30:  # periodic Bland steps to break potential cycling
                cand = np.nonzero(red > tol)[0]
                if cand.size == 0:
                    return True
                enter = int(cand[0])
            else:
                enter = int(np.argmax(red))
                if red[enter] <= tol:
                    return True
            col = T[:, enter]
            pos = col > tol
            if not pos.any():
                return False  # unbounded direction; let exact engine decide
            ratios = np.full(m, np.inf)
            ratios[pos] = T[pos, -1] / col[pos]
            leave = int(np.argmin(ratios))
            prow = T[leave] / T[leave, enter]
            T[leave] = prow
            coefs = T[:, enter].copy()
            coefs[leave] = 0.0
            # only the rows with a nonzero coefficient, one at a time: no
            # m x width temporary
            for i in np.flatnonzero(coefs):
                T[i] -= coefs[i] * prow
            for o in objs:
                o -= o[enter] * prow
            basis[leave] = enter
        return False

    if m_eq:
        if not run(obj1, [obj1, obj2]):
            return None
        if sum(T[i, -1] for i in range(m) if basis[i] >= art_lo) > 1e-6:
            return None
    if not run(obj2, [obj2]):
        return None
    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i, -1]
    y_ub = [-obj2[n + i] for i in range(m_ub)]
    y_eq = []
    for i in range(m_eq):
        sign = 1.0 if b_eq[i] >= 0 else -1.0
        y_eq.append(-obj2[art_lo + i] * sign)
    return list(x), y_ub, y_eq


def reference_ladder(c, A_ub, b_ub, A_eq, b_eq) -> list:
    """The rational ``(x, y_ub, y_eq)`` of every rung of ``lp``'s snap
    ladder, as it was first written: each vector snapped with its own memo
    at each denominator of the ladder, and every snapped price of ``y_ub``
    clamped at zero afterwards.  Empty when the float engine gives up."""
    got = lp._simplex_float(*with_forest(c, A_ub, b_ub, A_eq, b_eq))
    if got is None:
        return []

    def snap(values, denom):
        memo = {}
        out = []
        for v in values:
            q = memo.get(v)
            if q is None:
                q = memo[v] = QQ(Fraction(v).limit_denominator(denom))
            out.append(q)
        return out

    xf, yubf, yeqf = got
    return [(snap(xf, denom), [max(v, ZERO) for v in snap(yubf, denom)],
             snap(yeqf, denom)) for denom in lp._SNAP_DENOMS]


def reference_float_then_snap(c, A_ub, b_ub, A_eq, b_eq):
    """``lp._float_then_snap`` on rationals: the first rung of
    ``reference_ladder`` that ``reference_check_certificate`` certifies,
    as ``(x, y_ub, y_eq)``, or ``None``."""
    return next((rung for rung in reference_ladder(c, A_ub, b_ub, A_eq, b_eq)
                 if reference_check_certificate(c, A_ub, b_ub, A_eq, b_eq,
                                                *rung)), None)


def reference_shortest_path_length(instance: Instance, s: int, t: int,
                                   weights) -> int | None:
    """Bellman-Ford over the supply edges, as ``flows`` first checked the
    multicut: the reference its Dijkstra must agree with."""
    g = instance.graph
    dist = {s: 0}
    for _ in range(g.n):
        changed = False
        for e in instance.supply_edges:
            a, b = g.edges[e]
            w = weights.get(e, 0)
            for x, y in ((a, b), (b, a)):
                if x in dist:
                    nd = dist[x] + w
                    if y not in dist or nd < dist[y]:
                        dist[y] = nd
                        changed = True
        if not changed:
            break
    return dist.get(t)


class DualGraph(EmbeddedGraph):
    """Dual map; ``primal`` points back at the graph it was derived from."""

    __slots__ = ("primal",)

    def __init__(self, n, edges, rotation, primal):
        self.primal = primal
        super().__init__(n, edges, rotation)


def dual(graph: EmbeddedGraph) -> DualGraph:
    """The dual map: one vertex per face, one edge per primal edge.

    Dual edge ``e`` keeps the id of primal edge ``e``; its slot-0 end is the
    face containing primal dart ``2e``.  The dual lives on the same surface
    (equal genus), and dualising twice gives back the primal map up to
    relabelling vertices by their minimum dart.
    """
    edges = [(graph.face_of[2 * e], graph.face_of[2 * e + 1])
             for e in range(len(graph.edges))]
    return DualGraph(len(graph.faces), edges, graph.faces, primal=graph)


def canonical_form(graph: EmbeddedGraph) -> tuple:
    """Canonical signature of a connected combinatorial map.

    Darts are relabelled by a deterministic traversal (generators: rotation
    successor and reversal) from every possible start dart; the minimum
    resulting transition table is the signature.  Two maps are isomorphic as
    oriented embedded graphs iff their signatures coincide.
    """
    m2 = 2 * len(graph.edges)
    if m2 == 0:
        return (graph.n,)
    rot_next = {}
    for rot in graph.rotation:
        for i, d in enumerate(rot):
            rot_next[d] = rot[(i + 1) % len(rot)]
    best = None
    for d0 in range(m2):
        label = {d0: 0}
        order = [d0]
        i = 0
        while i < len(order):
            d = order[i]
            for nxt in (rot_next[d], d ^ 1):
                if nxt not in label:
                    label[nxt] = len(order)
                    order.append(nxt)
            i += 1
        sig = tuple((label[rot_next[d]], label[d ^ 1]) for d in order)
        if best is None or sig < best:
            best = sig
    return best


def maps_isomorphic(a: EmbeddedGraph, b: EmbeddedGraph) -> bool:
    return canonical_form(a) == canonical_form(b)


def surgery_step(graph: EmbeddedGraph, helper, *args):
    """Apply one list-level surgery helper of ``surface`` to a copy of
    ``graph``'s lists; returns the new map and the helper's result."""
    edges, rotation = working_lists(graph)
    result = helper(edges, rotation, *args)
    return EmbeddedGraph(len(rotation), edges, rotation), result


def count_maps(monkeypatch) -> list:
    """Count ``EmbeddedGraph`` constructions from now on; returns a
    one-element list holding the running count."""
    built = [0]
    init = EmbeddedGraph.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(EmbeddedGraph, "__init__", counting)
    return built


def separates(graph: EmbeddedGraph, darts) -> bool:
    """Reference separation test: the cycle's dual edges cut the dual."""
    return max(face_components(graph, {d >> 1 for d in darts})) > 0


def is_dual_cut(graph: EmbeddedGraph, edges: set) -> bool:
    """Whether an edge set is a dual cut: the dual components obtained by
    removing it can be two-colored so that exactly its edges cross colors."""
    comp_of = face_components(graph, set(edges))
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


def _merged_rotation(graph: EmbeddedGraph, verts, edges) -> list:
    """Rotation at the vertex obtained by contracting the given path.

    Contracting one edge with darts ``d`` (merged side) and ``d'`` splices the
    other endpoint's rotation, started right after ``d'``, into the merged
    list in place of ``d``; orientation is preserved because all rotations
    share the same (clockwise) sense.
    """
    merged = list(graph.rotation[verts[0]])
    absorbed = {verts[0]}
    for v, e in zip(verts[1:], edges):
        d, d_opp = 2 * e, 2 * e + 1
        if graph.head(d) not in absorbed:
            d, d_opp = d_opp, d
        rot = list(graph.rotation[v])
        j = rot.index(d_opp)
        i = merged.index(d)
        merged = merged[:i] + rot[j + 1:] + rot[:j] + merged[i + 1:]
        absorbed.add(v)
    return merged


def _cycle_darts_at(rotation, cycle, v: int) -> list:
    """The two darts of a simple cycle in the rotation ``rotation[v]``."""
    edges = {x >> 1 for x in cycle}
    out = [d for d in rotation[v] if (d >> 1) in edges]
    if len(out) != 2:
        raise InternalInvariantError(
            "simple cycle must have exactly two darts at a vertex",
            witness=(v, cycle))
    return out


def reference_shared_elements(graph: EmbeddedGraph, darts1, darts2) -> list:
    """``uncross.shared_elements`` by contraction: each maximal shared path
    is contracted to one vertex, and it is a crossing when the four
    divergent darts of the two cycles alternate around that vertex."""
    e1, e2 = {d >> 1 for d in darts1}, {d >> 1 for d in darts2}
    if e1 == e2:
        return []
    se = e1 & e2
    out = []
    for verts, edges in shared_paths(graph, (e1, e2)):
        ends = sorted({verts[0], verts[-1]})
        div1 = {d for v in ends for d in _cycle_darts_at(graph.rotation,
                                                         darts1, v)
                if (d >> 1) not in se}
        div2 = {d for v in ends for d in _cycle_darts_at(graph.rotation,
                                                         darts2, v)
                if (d >> 1) not in se}
        assert len(div1) == len(div2) == 2
        labels = [d in div1 for d in _merged_rotation(graph, verts, edges)
                  if d in div1 | div2]
        alternating = len(labels) == 4 and all(
            a != b for a, b in zip(labels, labels[1:]))
        out.append(SharedPath(verts, edges, alternating))
    pos = {graph.head(d): i for i, d in reversed(list(enumerate(darts1)))}
    out.sort(key=lambda s: min(pos[v] for v in s.vertices))
    return out


def reference_disjointify(graph: EmbeddedGraph, cycles):
    """``surface.disjointify`` step by step: the same plan, applied through
    ``expand_edge_lists`` and ``split_vertex_lists`` with one map built and
    validated after every step."""
    cycles = [list(c) for c in cycles]
    for c in cycles:
        cycle_vertices(graph, c)
    sharers: dict[int, list[int]] = {}
    for i, c in enumerate(cycles):
        for e in {d >> 1 for d in c}:
            sharers.setdefault(e, []).append(i)
    plan = []
    for e, owners in sorted(sharers.items()):
        if len(owners) < 2:
            continue

        def cmp(i, j, _e=e):
            # one edge set: index order along the walk on which the
            # smallest dart is even
            walk = {d ^ (min(cycles[i]) & 1) for d in cycles[i]}
            pair = ({d >> 1 for d in cycles[i]}, {d >> 1 for d in cycles[j]})
            return _band_before(graph, pair, _e) or (
                i - j if 2 * _e in walk else j - i)

        plan.append((e, sorted(owners, key=cmp_to_key(cmp))))

    g = graph
    for e, owners in plan:
        g, ids = surgery_step(g, expand_edge_lists, e, len(owners))
        for slot, i in enumerate(owners):
            new_e = ids[slot]
            if new_e != e:
                cycles[i] = [(2 * new_e) | (d & 1) if (d >> 1) == e else d
                             for d in cycles[i]]

    while True:
        at_vertex: dict[int, list[int]] = {}
        for i, c in enumerate(cycles):
            for d in c:
                at_vertex.setdefault(g.head(d), []).append(i)
        shared = sorted(v for v, owners in at_vertex.items() if len(owners) > 1)
        if not shared:
            break
        v = shared[0]
        owners = at_vertex[v]
        rot = list(g.rotation[v])
        i1, i2 = sorted(rot.index(d) for d in
                        _cycle_darts_at(g.rotation, cycles[owners[0]], v))
        arc_a = rot[i1 + 1:i2]
        arc_b = rot[i2 + 1:] + rot[:i1]
        in_a = [d in arc_a for d in
                _cycle_darts_at(g.rotation, cycles[owners[1]], v)]
        if all(in_a):
            arc = arc_a
        elif not any(in_a):
            arc = arc_b
        else:
            raise PreconditionError("cycles cross at vertex %d" % v)
        if not arc:
            raise InternalInvariantError("empty separating arc", witness=v)
        g, _ = surgery_step(g, split_vertex_lists, v, arc)
    return g, [tuple(c) for c in cycles]


# (grid side, demands, epsilon) of the generated supports, by name prefix
GENERATED = {"torus6x6": (6, 4, "1/2"), "torus8x8": (8, 6, "1/10")}
TORUS_SUPPORTS = tuple("torus6x6-seed%d" % seed for seed in range(8)) + (
    "torus_3x3_unit.json", "torus_4x4_random.json")
# genus 6-7 supports whose homology classes hold up to five cycles, some
# homologous but not freely homotopic
DENSE_TORUS_SUPPORTS = tuple("torus8x8-seed%d" % seed for seed in (0, 2, 4, 6))


@functools.lru_cache(maxsize=None)
def torus_support(name: str) -> tuple:
    """``(instance, uncrossed flow)`` for one of ``TORUS_SUPPORTS`` or
    ``DENSE_TORUS_SUPPORTS``: a golden torus instance uncrossed at epsilon
    1/2, or a random-capacity torus grid as ``GENERATED`` gives it."""
    if name.endswith(".json"):
        inst, eps = load_instance(GOLDEN / name), "1/2"
    else:
        prefix, seed = name.split("-seed")
        side, demands, eps = GENERATED[prefix]
        inst = generate_torus_grid(side, side, demands=demands,
                                   cap_mode="random", seed=int(seed))
    flow, _ = solve_and_decompose(inst)
    return inst, uncross_flow(flow, eps)


@functools.lru_cache(maxsize=None)
def perfbench_workloads():
    """The benchmark's ``workloads`` module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    return workloads


def pool_instances(name: str, seed: int = 1, limit: int | None = None):
    """The instances of the benchmark's ``name`` pool at ``seed``, in the
    order ``workloads.generate`` yields them, the first ``limit`` only."""
    workloads = perfbench_workloads()
    return workloads.generate(instances, workloads.WORKLOADS[name], seed,
                              limit)


@functools.lru_cache(maxsize=None)
def torus_pool_supports(indices: tuple, seed: int = 1) -> tuple:
    """``(instance, uncrossed flow)`` for the instances at the 0-based
    ``indices`` of the benchmark's ``torus`` pool at ``seed``, uncrossed at
    its epsilon."""
    epsilon = perfbench_workloads().WORKLOADS["torus"].epsilon
    insts = list(pool_instances("torus", seed, max(indices) + 1))
    out = []
    for i in indices:
        flow, _ = solve_and_decompose(insts[i])
        out.append((insts[i], uncross_flow(flow, epsilon)))
    return tuple(out)


def reference_classify_homotopy(graph: EmbeddedGraph, cycles) -> set:
    """Free homotopy classes of non-separating D-cycles by a union-find over
    every pair's own annulus test: a pair is freely homotopic when it does
    not cross and, re-routed onto disjoint curves and cut, cobounds an
    annulus.  ``classify_homotopy`` cuts each homology class once instead
    and must give the same classes."""
    parent = list(range(len(cycles)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def homotopic(a, b):
        if uncross.cr(graph, a, b):
            return False
        h, pair = disjointify(graph, [a, b])
        return any(comp.is_annulus and comp.boundary_cycles == {0, 1}
                   for comp in cut_along(h, pair).components)

    for i in range(len(cycles)):
        for j in range(i + 1, len(cycles)):
            if homotopic(cycles[i].darts, cycles[j].darts):
                parent[find(i)] = find(j)
    groups: dict = {}
    for i in range(len(cycles)):
        groups.setdefault(find(i), []).append(i)
    return {tuple(g) for g in groups.values()}


def cyclic_equal(seq, reference):
    """Equality of circular sequences up to rotation and reflection."""
    k = len(reference)
    if len(seq) != k:
        return False
    doubled = list(reference) * 2
    forward = any(doubled[i:i + k] == list(seq) for i in range(k))
    doubled = list(reversed(reference)) * 2
    backward = any(doubled[i:i + k] == list(seq) for i in range(k))
    return forward or backward


def reference_cyclic_order(complex_) -> list:
    """Cyclic order of a class, read off the surface cut along it alone.

    The components of the cut surface, together with the cut cycles, form a
    bipartite incidence graph which must be a single cycle.  The cycle
    indices along it are returned; the walk starts at cycle 0 towards the
    smaller-numbered of its two components.  Two cycles or fewer are
    returned as they are.  ``classify_homotopy`` reads the same order off
    the annuli of the cut along the whole homology class.
    """
    k = len(complex_.side_component) // 2
    if k <= 2:
        return list(range(k))
    cycle_inc = [{complex_.side_component[(i, side)] for side in (0, 1)}
                 for i in range(k)]
    comp_inc = [comp.boundary_cycles for comp in complex_.components]
    assert all(len(inc) == 2 for inc in cycle_inc + comp_inc)
    assert len(comp_inc) == k
    order = [0]
    comp = min(cycle_inc[0])
    while True:
        (nxt,) = comp_inc[comp] - {order[-1]}
        if nxt == 0:
            break
        order.append(nxt)
        (comp,) = cycle_inc[nxt] - {comp}
    assert len(order) == k
    return order


def reference_extreme_pair(complex_):
    """The two cycles bounding the sole negative-chi component of the
    surface cut along a class alone, as an ascending index pair (equal when
    one cycle bounds it), or ``None`` when every component is an annulus."""
    big = [comp for comp in complex_.components if comp.chi < 0]
    if not big:
        return None
    assert len(big) == 1
    idx = sorted(big[0].boundary_cycles)
    assert len(idx) <= 2
    return (idx[0], idx[-1])
