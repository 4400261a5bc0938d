import hashlib
import json
import random

import pytest

from conftest import (cyclic_equal, nonseparating_classes, torus_dcycles,
                      torus_grid_map)
from surfaceflow import round_nonseparating
from surfaceflow.errors import PreconditionError
from surfaceflow.flows import DCycle, Multiflow, solve_and_decompose
from surfaceflow.instances import (DEMAND, SUPPLY, Instance,
                                   generate_planar_random,
                                   generate_torus_grid)
from surfaceflow.lp import solve_lp
from surfaceflow.pipeline import (PipelineConfig, render_report, run,
                                  solution_wire)
from surfaceflow.rational import QQ, ZERO
from surfaceflow.round_nonseparating import (check_cyclic_order,
                                             class_cross_adjacency, greedy,
                                             greedy_values, improved_g2,
                                             select_class_and_round)
from surfaceflow.round_separating import degeneracy_coloring
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


def classify(graph, cycles):
    """``classify_homotopy`` of D-cycles, each at value one."""
    return classify_homotopy(graph, cycles, [1] * len(cycles))


def stacked_family():
    """Four freely homotopic D-cycles of the 4x4 torus grid, in cyclic order.

    ``a`` and ``d`` are the meridians of columns 0 and 2; ``b`` and ``c``
    leave column 0 at row 2 for columns 1 and 2.  Edges 0-4 and 4-8 carry
    ``a, b, c``, edges 8-9 and 1-0 carry ``b, c``, edges 10-14 and 14-2
    carry ``c, d``.  Edge 0-4 is the demand of the first three, edge 2-6
    the demand of ``d``.
    """
    g = torus_grid_map(4, 4)
    kinds = [SUPPLY] * len(g.edges)
    kinds[16] = kinds[18] = DEMAND
    inst = Instance(g, tuple(kinds), tuple([1] * len(g.edges)))
    routes = ([0, 4, 8, 12], [0, 4, 8, 9, 13, 1],
              [0, 4, 8, 9, 10, 14, 2, 1], [2, 6, 10, 14])
    return inst, [DCycle.from_darts(inst, grid_cycle(g, r)) for r in routes]


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
        g = torus_grid_map(4, 4)
        given = [0, 2, 1, 3]
        (order,) = classify(g, torus_dcycles(*(meridian(j)
                                               for j in given))).classes
        cols = [given[i] for i in order]
        assert cyclic_equal(cols, [0, 1, 2, 3])

    def test_shared_path_stacking(self):
        inst, (a, b, c, d) = stacked_family()
        g = inst.graph
        fam = [a, b, c, d]
        for i in range(4):
            for j in range(i + 1, 4):
                assert cr(g, fam[i].darts, fam[j].darts) == 0
                assert freely_homotopic(g, fam[i].darts, fam[j].darts)
        given = [a, c, d, b]
        (order,) = classify(g, given).classes
        names = {a: 0, b: 1, c: 2, d: 3}
        assert cyclic_equal([names[given[i]] for i in order], [0, 1, 2, 3])

    def test_small_classes_trivial(self):
        g = torus_grid_map(4, 4)
        assert classify(g, torus_dcycles(meridian(0))).classes == ((0,),)
        two = classify(g, torus_dcycles(meridian(0), meridian(2)))
        assert two.classes == ((0, 1),)

    def test_definition_check(self):
        # positions {0, 2} of 4 are not a cyclic arc
        sets = [{1}, {2}, {1}, {3}]
        assert not check_cyclic_order(sets)
        assert check_cyclic_order([{1}, {1}, {2}, {1}])

    def test_bad_order_rejected(self):
        inst, (a, b, c, d) = stacked_family()
        given = [a, c, d, b]
        (order,) = classify(inst.graph, given).classes
        assert check_cyclic_order([given[i].edges for i in order])
        # edges 8-9 and 1-0 carry b and c, which a, b, d, c keeps apart
        assert not check_cyclic_order([x.edges for x in (a, b, d, c)])


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
            lp = solve_lp([1] * k,
                          [tuple(r for r, e in enumerate(cols) if e in es)
                           for es in sets],
                          [caps[e] for e in cols])
            assert 2 * sum(vals) >= lp.value

    def test_greedy_requires_cyclic_order(self):
        inst, (a, b, c, d) = stacked_family()
        assert greedy([a, b, c, d], inst, inst.caps, 0, 1).value == 2
        with pytest.raises(PreconditionError):
            greedy([a, b, d, c], inst, inst.caps, 0, 1)


class TestSelectClass:
    def test_larger_class_chosen(self):
        inst = crossing_classes_instance()
        v = DCycle.from_darts(inst, (18, 24, 30))
        h = DCycle.from_darts(inst, (0, 2, 4))
        flow = Multiflow(inst, {v: 2, h: 1}, 2)
        out = select_class_and_round(flow, nonseparating_classes(flow))
        assert out.support() == [v]
        assert out.value == 1

    def test_equal_classes_lowest_index(self):
        inst = crossing_classes_instance()
        v = DCycle.from_darts(inst, (18, 24, 30))
        h = DCycle.from_darts(inst, (0, 2, 4))
        flow = Multiflow(inst, {v: 1, h: 1}, 2)
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
        assert 2 * out.value >= QQ(cls.totals[0], fbar.denom)

    def test_no_nonseparating_cycles_rejected(self):
        inst = generate_planar_random(10, seed=0)
        flow, _ = solve_and_decompose(inst)
        cls = nonseparating_classes(flow)
        assert not cls.cycles
        for rounding in (select_class_and_round, improved_g2):
            with pytest.raises(PreconditionError, match="non-separating"):
                rounding(flow, cls)


class TestEnds:
    def test_plain_torus_has_no_ends(self):
        ms = [tuple(2 * (9 + 3 * i + j) for i in range(3)) for j in range(3)]
        got = classify(torus_grid_map(3, 3), torus_dcycles(*ms, p=3, q=3))
        assert got.ends == (None,)

    def test_singleton_class(self):
        # one meridian of a genus-2 map bounds the cut surface on both sides
        inst = double_torus_instance()
        _, cycles = double_torus_flow(inst)
        assert classify(inst.graph, cycles[:1]).ends == ((0, 0),)

    def test_double_torus_pair(self):
        inst = double_torus_instance()
        _, cycles = double_torus_flow(inst)
        assert classify(inst.graph, cycles[:2]).ends == ((0, 1),)


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
        flow = Multiflow(inst, {v: 2, h: 1}, 2)
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
            total = QQ(sum(out.values.get(flow.support()[i], 0)
                           for i in members), out.denom)
            per_class.append(total)
        for value, total in zip(per_class, cls.totals):
            assert 2 * value >= QQ(total, flow.denom) - 2


def kept_classes(graph, classification) -> list:
    """The classes ``improved_g2`` keeps: the heaviest color class of the
    degeneracy-colored class cross-graph."""
    nonsep = classification.cycles
    reps = [nonsep[members[0]] for members in classification.classes]
    color = degeneracy_coloring(class_cross_adjacency(graph, reps))
    totals = {}
    for i, c in enumerate(color):
        totals[c] = totals.get(c, ZERO) + classification.totals[i]
    best = max(sorted(totals), key=lambda c: (totals[c], -c))
    return [m for m, c in zip(classification.classes, color) if c == best]


class TestNoSurgery:
    @pytest.mark.parametrize("shape", [(4, 4, 3, 0), (4, 4, 4, 6),
                                       (5, 5, 4, 1)])
    def test_rounding_reads_the_classification(self, shape, monkeypatch):
        p, q, demands, seed = shape
        inst = generate_torus_grid(p, q, demands, cap_mode="random",
                                   seed=seed)
        flow, _ = solve_and_decompose(inst)
        fbar = uncross_flow(flow, "1/2")
        cls = nonseparating_classes(fbar)
        kept = kept_classes(inst.graph, cls)
        assert max(len(members) for members in kept) >= 3
        assert len(cls.classes[0]) >= 2

        def forbidden(*args):
            raise AssertionError("surgery in the rounding")

        for fn in ("disjointify", "cut_along"):
            monkeypatch.setattr(round_nonseparating, fn, forbidden)
        select_class_and_round(fbar, cls).verify_feasible()
        improved_g2(fbar, cls).verify_feasible()


# sha256 of ``render_report`` + ``solution_wire`` at verify "invariants",
# epsilon 1/2, for generate_torus_grid(p, q, demands, cap_mode="random",
# seed=seed), keyed by ((p, q, demands, seed), branch).  The instances have
# classes of one to five cycles, so a change in how a class is cut, ordered
# or rounded changes a hash.
PINNED_ROUNDINGS = {
    ((4, 4, 3, 0), "nonseparating"):
        "eafe85b4f39fe3de0849bbba39040bbf81cb7b345abce41836fe7049de9eac53",
    ((4, 4, 3, 0), "improved"):
        "5eb7da368ad0eaa07e608475cc003e7906fcdbd2b1a3ee0c1abe1e7440394a03",
    ((4, 4, 3, 6), "nonseparating"):
        "02af9119fabceb25b3536fb1d702e5b7b8ef369362db86669b2c25b1c7bed0c3",
    ((4, 4, 3, 6), "improved"):
        "66ce526e0e409502441fad03bdce5bbfb46dec47ce4ab88871456b5daf78acc5",
    ((4, 4, 4, 6), "nonseparating"):
        "ff50460fb2c2af7fab96d9512e851b5bb17ddb24ed6742edc7658ac8b0b42dff",
    ((4, 4, 4, 6), "improved"):
        "7fe9bef3c110157a1bc9ed0206b1010f1cfc5ccb9d991de18904f6f42bb9b871",
    ((4, 4, 4, 8), "nonseparating"):
        "6e4f1468a5e651a9760141d37fcc6d41b0e7c7b84f0387d6a455034ee3e542bb",
    ((4, 4, 4, 8), "improved"):
        "29c49e6ce46874d6a2bc7fe1e30832d1366e2e38cb3186dbb5699193817b5ed6",
    ((5, 5, 4, 1), "nonseparating"):
        "12a37745172c7fcc6b41b55232654aae58793eded4f51ec778752fb34ff5de55",
    ((5, 5, 4, 1), "improved"):
        "0f01888bcbe0cbe0bcec62c608956a1525153743356a0ba1f86cb77fbb49d4c0",
    ((5, 5, 4, 7), "nonseparating"):
        "5801f7577481a04fbd43bbada76a831e85a6623762c5db4f3efed63edb7def9a",
    ((5, 5, 4, 7), "improved"):
        "b4274039c38e1f4d5a0c91c63a7cadc0d3525e6f1933ea6372d623f1f2370a1f",
    ((6, 6, 4, 2), "nonseparating"):
        "96b8564695403fb5a004b45ed3c7a10b68c4f9665f091adc12eb653611dd7e2b",
    ((6, 6, 4, 2), "improved"):
        "6b1ab0a249fe7b9e913bef987b60f2b52351e468ff16a665f11dbd723cc58fd5",
    ((6, 6, 4, 3), "nonseparating"):
        "5936900f497a1c9a01e2848c8f07f847aa03e74b4f059cca36b93b213315bc0a",
    ((6, 6, 4, 3), "improved"):
        "75a03c71a6025dee597ee7c179cad1585e2c42b1a6c9865fe5e6011647a651f7",
}


@pytest.mark.parametrize("shape,branch", sorted(PINNED_ROUNDINGS))
def test_pinned_outputs(shape, branch):
    p, q, demands, seed = shape
    inst = generate_torus_grid(p, q, demands, cap_mode="random", seed=seed)
    flow, report = run(inst, PipelineConfig(epsilon="1/2", branch=branch,
                                            verify="invariants"))
    blob = render_report(report) + json.dumps(solution_wire(flow),
                                              sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        PINNED_ROUNDINGS[(shape, branch)]
