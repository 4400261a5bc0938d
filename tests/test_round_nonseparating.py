import random

import pytest

from conftest import nonseparating_classes, torus_grid_map
from surfaceflow.errors import PreconditionError
from surfaceflow.flows import DCycle, Multiflow, solve_and_decompose
from surfaceflow.instances import (DEMAND, SUPPLY, Instance,
                                   generate_planar_random,
                                   generate_torus_grid)
from surfaceflow.lp import solve_lp
from surfaceflow.rational import ZERO, rat
from surfaceflow.round_nonseparating import (CyclicOrder, check_cyclic_order,
                                             class_cross_adjacency,
                                             cyclic_order, extreme_pair,
                                             greedy, greedy_values,
                                             improved_g2,
                                             select_class_and_round)
from surfaceflow.surface import EmbeddedGraph
from surfaceflow.topology import (classify_homotopy, freely_homotopic,
                                  split_support)
from surfaceflow.uncross import cr, uncross_flow


def meridian(j, p=4, q=4):
    return tuple(2 * (p * q + q * i + j) for i in range(p))


def grid_cycle(graph, route):
    by_ends = {}
    for e, (u, v) in enumerate(graph.edges):
        by_ends[(u, v)] = 2 * e
        by_ends[(v, u)] = 2 * e + 1
    return tuple(by_ends[(route[i], route[(i + 1) % len(route)])]
                 for i in range(len(route)))


def all_supply(graph):
    return Instance(graph, tuple([SUPPLY] * len(graph.edges)),
                    tuple([1] * len(graph.edges)))


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


def double_torus_instance(demand_cap=2):
    """Two 3x3 toroidal grids joined by a bridge edge: a genus-2 map.

    One column edge of each grid is re-declared as a demand edge, so the
    meridians of the two handles are D-cycles in distinct homotopy classes
    that do not cross.
    """
    a = torus_grid_map(3, 3)
    n, m = a.n, len(a.edges)
    edges = (list(a.edges) + [(u + n, v + n) for u, v in a.edges] + [(0, n)])
    rot = ([list(r) for r in a.rotation]
           + [[d + 2 * m for d in r] for r in a.rotation])
    rot[0].append(2 * (2 * m))
    rot[n].append(2 * (2 * m) + 1)
    graph = EmbeddedGraph(2 * n, edges, rot)
    kinds = [SUPPLY] * len(edges)
    kinds[9] = DEMAND
    kinds[m + 9] = DEMAND
    caps = [1] * len(edges)
    caps[9] = caps[m + 9] = demand_cap
    return Instance(graph, tuple(kinds), tuple(caps))


def double_torus_flow(inst):
    """Two meridian D-cycles per handle, each at value one."""
    cycles = [
        (18, 24, 30),                # handle A, column 0
        (18, 6, 26, 32, 1),          # handle A, pushed through column 1
        (54, 60, 66),                # handle B, column 0
        (54, 42, 62, 68, 37),        # handle B, pushed through column 1
    ]
    flow = Multiflow(inst)
    for darts in cycles:
        flow.add(DCycle.from_darts(inst, darts), 1)
    flow.verify_feasible()
    return flow, [DCycle.from_darts(inst, d) for d in cycles]


def crossing_classes_instance():
    """3x3 torus whose column-0 and row-0 edges at the origin are demands."""
    graph = torus_grid_map(3, 3)
    kinds = [SUPPLY] * len(graph.edges)
    kinds[9] = DEMAND   # vertical demand 0-3
    kinds[0] = DEMAND   # horizontal demand 0-1
    return Instance(graph, tuple(kinds), tuple([1] * len(graph.edges)))


class TestCyclicOrder:
    def test_parallel_meridians_geometric_order(self):
        inst = all_supply(torus_grid_map(4, 4))
        ms = {j: meridian(j) for j in range(4)}
        order = cyclic_order([ms[0], ms[2], ms[1], ms[3]], inst)
        cols = [next(j for j in range(4) if ms[j] == c)
                for c in order.cycles]
        assert cyclic_equal(cols, [0, 1, 2, 3])

    def test_shared_path_stacking(self):
        g = torus_grid_map(4, 4)
        inst = all_supply(g)
        a = meridian(0)
        b = grid_cycle(g, [0, 4, 8, 9, 13, 1])
        c = grid_cycle(g, [0, 4, 8, 9, 10, 14, 2, 1])
        d = meridian(2)
        fam = [a, b, c, d]
        for i in range(4):
            for j in range(i + 1, 4):
                assert cr(g, fam[i], fam[j]) == 0
                assert freely_homotopic(g, fam[i], fam[j])
        order = cyclic_order([a, c, d, b], inst)
        names = {a: 0, b: 1, c: 2, d: 3}
        assert cyclic_equal([names[x] for x in order.cycles], [0, 1, 2, 3])

    def test_small_classes_trivial(self):
        inst = all_supply(torus_grid_map(4, 4))
        one = cyclic_order([meridian(0)], inst)
        assert one.cycles == (meridian(0),)
        two = cyclic_order([meridian(0), meridian(2)], inst)
        assert set(two.cycles) == {meridian(0), meridian(2)}

    def test_definition_check(self):
        # positions {0, 2} of 4 are not a cyclic arc
        sets = [{1}, {2}, {1}, {3}]
        assert not check_cyclic_order(sets)
        assert check_cyclic_order([{1}, {1}, {2}, {1}])

    def test_bad_order_rejected(self):
        class Fake:
            def __init__(self, es):
                self.edge_set = frozenset(es)
                self.darts = tuple(es)

        with pytest.raises(Exception):
            CyclicOrder((Fake({1}), Fake({2}), Fake({1}), Fake({3})))


class TestGreedy:
    def test_tightness_family(self):
        for k in (2, 3, 5):
            sets = []
            for i in range(2 * k - 1):
                es = set()
                if i < k:
                    es.add("e1")
                if i >= k or i == 0:
                    es.add("e2")
                sets.append(es)
            assert check_cyclic_order(sets)
            vals = greedy_values(sets, {"e1": k, "e2": k})
            assert vals == [k] + [0] * (2 * k - 2)

    def test_edge_disjoint_all_routed(self):
        sets = [{3 * i, 3 * i + 1, 3 * i + 2} for i in range(5)]
        caps = {e: 1 + e % 3 for e in range(15)}
        vals = greedy_values(sets, caps)
        assert all(v >= 1 for v in vals)

    def test_random_families_half_guarantee(self):
        rng = random.Random(7)
        for _ in range(100):
            k = rng.randint(3, 8)
            sets = [{("own", i)} for i in range(k)]
            caps = {("own", i): rng.randint(1, 5) for i in range(k)}
            for e in range(rng.randint(1, 2 * k)):
                start = rng.randrange(k)
                length = rng.randint(1, k)
                for t in range(length):
                    sets[(start + t) % k].add(("arc", e))
                caps[("arc", e)] = rng.randint(1, 4)
            assert check_cyclic_order(sets)
            vals = greedy_values(sets, caps)
            cols = sorted({e for es in sets for e in es})
            col_of = {e: i for i, e in enumerate(cols)}
            rows = [{i: 1 for i, es in enumerate(sets) if e in es}
                    for e in cols]
            lp = solve_lp([1] * k, rows, [caps[e] for e in cols])
            assert 2 * sum(vals) >= lp.value

    def test_greedy_requires_cyclic_order(self):
        inst = crossing_classes_instance()
        flow = Multiflow(inst)
        with pytest.raises(PreconditionError):
            class Fake:
                def __init__(self, es):
                    self.edge_set = frozenset(es)
                    self.darts = tuple(es)
            greedy([Fake({1}), Fake({2}), Fake({1}), Fake({3})], flow)


class TestSelectClass:
    def test_larger_class_chosen(self):
        inst = crossing_classes_instance()
        v = DCycle.from_darts(inst, (18, 24, 30))
        h = DCycle.from_darts(inst, (0, 2, 4))
        flow = Multiflow(inst, {v: rat(1), h: rat("1/2")})
        out = select_class_and_round(flow, nonseparating_classes(flow))
        assert out.support() == [v]
        assert out.value == 1

    def test_equal_classes_lowest_index(self):
        inst = crossing_classes_instance()
        v = DCycle.from_darts(inst, (18, 24, 30))
        h = DCycle.from_darts(inst, (0, 2, 4))
        flow = Multiflow(inst, {v: rat("1/2"), h: rat("1/2")})
        _, _, nonsep, _ = split_support(flow)
        out = select_class_and_round(flow, nonseparating_classes(flow))
        assert out.support() == [nonsep[0]]

    def test_half_guarantee_on_pipeline_flow(self):
        inst = generate_torus_grid(3, 3, [(0, 4), (1, 5)],
                                   cap_mode="random", seed=1)
        flow, sol = solve_and_decompose(inst)
        fbar = uncross_flow(flow, "1/2")
        _, _, nonsep, nonsep_v = split_support(fbar)
        cls = classify_homotopy(inst.graph, nonsep, nonsep_v)
        out = select_class_and_round(fbar, cls)
        out.verify_feasible()
        assert 2 * out.value >= cls.totals[0]

    def test_no_nonseparating_cycles_rejected(self):
        inst = generate_planar_random(10, seed=0)
        flow, _ = solve_and_decompose(inst)
        cls = nonseparating_classes(flow)
        assert not cls.cycles
        for rounding in (select_class_and_round, improved_g2):
            with pytest.raises(PreconditionError, match="non-separating"):
                rounding(flow, cls)


class TestExtremePair:
    def test_plain_torus_has_no_extreme_pair(self):
        inst = all_supply(torus_grid_map(3, 3))
        ms = [tuple(2 * (9 + 3 * i + j) for i in range(3)) for j in range(3)]
        assert extreme_pair(inst, ms) is None

    def test_singleton_class(self):
        inst = all_supply(torus_grid_map(3, 3))
        m = tuple(2 * (9 + 3 * i) for i in range(3))
        assert extreme_pair(inst, [m]) == (m, m)

    def test_double_torus_pair(self):
        inst = double_torus_instance()
        _, cycles = double_torus_flow(inst)
        pair = extreme_pair(inst, cycles[:2])
        assert set(pair) == set(cycles[:2])


class TestImprovedRounding:
    def test_two_noncrossing_classes_both_kept(self):
        inst = double_torus_instance()
        flow, cycles = double_torus_flow(inst)
        cls = classify_homotopy(inst.graph, flow.support(),
                                [flow.values[c] for c in flow.support()])
        assert len(cls.classes) == 2
        adj = class_cross_adjacency(
            inst.graph, [flow.support()[c[0]] for c in cls.classes])
        assert adj == [[], []]
        out = improved_g2(flow, nonseparating_classes(flow))
        out.verify_feasible()
        assert out.value == 4
        assert set(out.support()) == set(cycles)

    def test_two_crossing_classes_larger_kept(self):
        inst = crossing_classes_instance()
        v = DCycle.from_darts(inst, (18, 24, 30))
        h = DCycle.from_darts(inst, (0, 2, 4))
        assert cr(inst.graph, v.darts, h.darts) == 1
        flow = Multiflow(inst, {v: rat(1), h: rat("1/2")})
        out = improved_g2(flow, nonseparating_classes(flow))
        assert out.support() == [v]
        assert out.value == 1

    def test_single_class_close_to_plain_selection(self):
        inst = generate_torus_grid(3, 3, [(0, 4), (1, 5)],
                                   cap_mode="random", seed=1)
        flow, _ = solve_and_decompose(inst)
        fbar = uncross_flow(flow, "1/2")
        sel = select_class_and_round(fbar, nonseparating_classes(fbar))
        imp = improved_g2(fbar, nonseparating_classes(fbar))
        imp.verify_feasible()
        assert imp.value >= sel.value - 2

    def test_per_class_loss_bounded(self):
        inst = double_torus_instance()
        flow, _ = double_torus_flow(inst)
        cls = classify_homotopy(inst.graph, flow.support(),
                                [flow.values[c] for c in flow.support()])
        out = improved_g2(flow, cls)
        per_class = []
        for members in cls.classes:
            total = sum((out.values.get(flow.support()[i], ZERO)
                         for i in members), ZERO)
            per_class.append(total)
        for value, total in zip(per_class, cls.totals):
            assert 2 * value >= total - 2
