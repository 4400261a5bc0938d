import pytest

from conftest import (darts_for_route, map_from_drawing, multiset_value,
                      reference_shared_elements, reference_uncross_all,
                      torus_grid_map)
from surfaceflow import uncross as uncross_mod
from surfaceflow.errors import PreconditionError
from surfaceflow.flows import DCycle, Multiflow, solve_and_decompose
from surfaceflow.instances import (DEMAND, SUPPLY, Instance,
                                   generate_planar_random,
                                   generate_torus_grid)
from surfaceflow.oracle import enumerate_d_cycles
from surfaceflow.rational import rat
from surfaceflow.uncross import (cr, crossings, discretize, multiset_to_flow,
                                 shared_elements, uncross_all, uncross_flow,
                                 uncross_pair)


def three_crossings_fixture():
    """Two cycles sharing a two-edge path, a vertex, and a one-edge path;
    all three shared elements alternate.  The demand edge is shared."""
    coords = {
        "v1": (1, 0), "v2": (1, 2), "v3": (2, 2), "v4": (3, 2),
        "v5": (4, 2), "v6": (2, 0), "v7": (2, 1), "v8": (4, 1),
        "v9": (3, 1), "v10": (3, 0), "v11": (4, 0),
    }
    edge_spec = [
        ("v1", "v2"), ("v2", "v3"), ("v3", "v4"),
        ("v4", "v11", 315, 135), ("v11", "v10"), ("v10", "v9"),
        ("v9", "v7"), ("v7", "v6"), ("v6", "v1"),
        ("v4", "v5"), ("v5", "v8"), ("v8", "v9"),
        ("v10", "v6"), ("v6", "v2"),
    ]
    graph, lookup = map_from_drawing(coords, edge_spec)
    c1 = darts_for_route(graph, lookup, ["v1", "v2", "v3", "v4", "v11",
                                         "v10", "v9", "v7", "v6"])
    c2 = darts_for_route(graph, lookup, ["v2", "v3", "v4", "v5", "v8",
                                         "v9", "v10", "v6"])
    demand = lookup["edge"][("v3", "v4")]
    kinds = tuple(DEMAND if e == demand else SUPPLY
                  for e in range(len(graph.edges)))
    inst = Instance(graph, kinds, (4,) * len(graph.edges))
    return inst, lookup, c1, c2


def four_crossings_fixture():
    """Two cycles with four alternating shared elements (three vertices and
    a one-edge path) plus three touchings; distinct demand edges."""
    coords = {
        "v1": (0, 2), "v2": (2, 2), "v3": (3, 2), "v4": (1, 1),
        "v5": (2, 1), "v6": (3, 0), "v7": (0, 0), "v8": (1, 0),
        "v9": (2, 0), "v10": (3, 1.4), "v11": (2.6, 1), "v13": (3, 0.6),
    }
    edge_spec = [
        ("v1", "v2"), ("v2", "v10"), ("v10", "v13"), ("v13", "v9"),
        ("v9", "v5"), ("v5", "v8"), ("v8", "v4"), ("v4", "v7"),
        ("v7", "v1"),
        ("v2", "v3"), ("v3", "v10"), ("v10", "v11"), ("v11", "v13"),
        ("v13", "v6"), ("v6", "v9"), ("v9", "v8"), ("v8", "v7"),
        ("v4", "v5"), ("v5", "v2"),
    ]
    graph, lookup = map_from_drawing(coords, edge_spec)
    c1 = darts_for_route(graph, lookup, ["v1", "v2", "v10", "v13", "v9",
                                         "v5", "v8", "v4", "v7"])
    c2 = darts_for_route(graph, lookup, ["v2", "v3", "v10", "v11", "v13",
                                         "v6", "v9", "v8", "v7", "v4", "v5"])
    d1 = lookup["edge"][("v7", "v1")]
    d2 = lookup["edge"][("v5", "v2")]
    kinds = tuple(DEMAND if e in (d1, d2) else SUPPLY
                  for e in range(len(graph.edges)))
    inst = Instance(graph, kinds, (4,) * len(graph.edges))
    return inst, lookup, c1, c2


def two_crossings_fixture():
    """Two cycles crossing twice plus a third cycle crossing neither."""
    coords = {
        "v1": (0, 0), "v2": (2, 0), "v3": (0.35, 0.7), "v4": (1, 0.7),
        "v5": (1.65, 0.7), "v6": (0, 1.4), "v7": (2, 1.4), "v8": (1, 2),
    }
    edge_spec = [
        ("v4", "v6"), ("v6", "v8"), ("v8", "v7"), ("v7", "v4"),
        ("v1", "v4"), ("v4", "v2"), ("v2", "v7"), ("v7", "v6"),
        ("v6", "v1"),
        ("v5", "v4"), ("v4", "v3"), ("v3", "v5", 65, 115),
    ]
    graph, lookup = map_from_drawing(coords, edge_spec)
    c1 = darts_for_route(graph, lookup, ["v4", "v6", "v8", "v7"])
    c2 = darts_for_route(graph, lookup, ["v1", "v4", "v2", "v7", "v6"])
    c3 = darts_for_route(graph, lookup, ["v5", "v4", "v3"])
    return graph, lookup, c1, c2, c3


class TestCrossingCounts:
    def test_three_crossings(self):
        inst, lookup, c1, c2 = three_crossings_fixture()
        assert cr(inst.graph, c1, c2) == 3

    def test_three_crossings_elements(self):
        inst, lookup, c1, c2 = three_crossings_fixture()
        elems = shared_elements(inst.graph, c1, c2)
        assert len(elems) == 3
        assert all(s.is_crossing for s in elems)
        sizes = sorted(len(s.vertices) for s in elems)
        assert sizes == [1, 2, 3]

    def test_four_crossings_with_touchings(self):
        inst, lookup, c1, c2 = four_crossings_fixture()
        elems = shared_elements(inst.graph, c1, c2)
        assert sum(s.is_crossing for s in elems) == 4
        assert sum(not s.is_crossing for s in elems) == 3

    def test_two_crossings_and_isolated_third_cycle(self):
        graph, lookup, c1, c2, c3 = two_crossings_fixture()
        assert cr(graph, c1, c2) == 2
        assert cr(graph, c1, c3) == 0
        assert cr(graph, c2, c3) == 0

    def test_symmetric(self):
        inst, lookup, c1, c2 = four_crossings_fixture()
        assert cr(inst.graph, c1, c2) == cr(inst.graph, c2, c1)

    def test_identical_cycles_do_not_cross(self):
        inst, lookup, c1, _ = three_crossings_fixture()
        assert cr(inst.graph, c1, tuple(d ^ 1 for d in reversed(c1))) == 0

    def test_disjoint_cycles(self):
        g = torus_grid_map(4, 4)
        m1 = [2 * (16 + 4 * i) for i in range(4)]  # column 0 meridian
        m2 = [2 * (16 + 4 * i + 2) for i in range(4)]  # column 2 meridian
        assert cr(g, m1, m2) == 0

    def test_transverse_meridian_and_longitude(self):
        g = torus_grid_map(4, 4)
        meridian = [2 * (16 + 4 * i) for i in range(4)]
        longitude = [2 * j for j in range(4)]  # row 0
        assert cr(g, meridian, longitude) == 1

    @pytest.mark.parametrize("make", [
        *(lambda s=s: generate_planar_random(20, seed=s, n_demands=3)
          for s in range(4)),
        lambda: generate_torus_grid(3, 3, 1, cap_mode="random", seed=0),
    ], ids=["planar20-0", "planar20-1", "planar20-2", "planar20-3",
            "torus3x3-0"])
    def test_matches_contraction_on_every_d_cycle_pair(self, make):
        inst = make()
        cycles = [c.darts for c in enumerate_d_cycles(inst)]
        for i, c1 in enumerate(cycles):
            for c2 in cycles[i + 1:]:
                assert shared_elements(inst.graph, c1, c2) \
                    == reference_shared_elements(inst.graph, c1, c2)


class TestUncrossPair:
    def test_shared_demand_case(self):
        # crossings: P = shared path around the demand edge, Q = the shared
        # one-edge path; rewriting yields a hexagon and a 9-cycle
        inst, lookup, c1d, c2d = three_crossings_fixture()
        vid = lookup["vid"]
        c1 = DCycle.from_darts(inst, c1d)
        c2 = DCycle.from_darts(inst, c2d)
        cross = crossings(inst.graph, c1.darts, c2.darts)
        p = next(s for s in cross if len(s.vertices) == 3)
        q = next(s for s in cross if len(s.vertices) == 2)
        new1, new2 = uncross_pair(inst, c1, c2, p, q)
        got = {new1.darts, new2.darts}
        hexagon = DCycle.from_darts(inst, darts_for_route(
            inst.graph, lookup, ["v2", "v3", "v4", "v11", "v10", "v6"]))
        nine = DCycle.from_darts(inst, darts_for_route(
            inst.graph, lookup,
            ["v1", "v2", "v3", "v4", "v5", "v8", "v9", "v7", "v6"]))
        assert got == {hexagon.darts, nine.darts}
        assert cr(inst.graph, new1.darts, new2.darts) <= 1

    def test_distinct_demands_case(self):
        # crossings chosen as in the supply-only situation: P is the shared
        # diagonal edge, Q the single shared vertex near the top right
        inst, lookup, c1d, c2d = four_crossings_fixture()
        vid = lookup["vid"]
        c1 = DCycle.from_darts(inst, c1d)
        c2 = DCycle.from_darts(inst, c2d)
        cross = crossings(inst.graph, c1d, c2d)
        p = next(s for s in cross if s.edges)
        q = next(s for s in cross if s.vertices == (vid["v10"],))
        new1, new2 = uncross_pair(inst, c1, c2, p, q)
        exp1 = DCycle.from_darts(inst, darts_for_route(
            inst.graph, lookup,
            ["v1", "v2", "v10", "v11", "v13", "v6", "v9", "v8", "v7"]))
        exp2 = DCycle.from_darts(inst, darts_for_route(
            inst.graph, lookup, ["v2", "v3", "v10", "v13", "v9", "v5"]))
        assert {new1, new2} == {exp1, exp2}

    def test_rejects_demand_in_second_crossing(self):
        inst, lookup, c1d, c2d = three_crossings_fixture()
        c1 = DCycle.from_darts(inst, c1d)
        c2 = DCycle.from_darts(inst, c2d)
        cross = crossings(inst.graph, c1.darts, c2.darts)
        p = next(s for s in cross if len(s.vertices) == 3)
        with pytest.raises(PreconditionError):
            uncross_pair(inst, c1, c2, q=p, p=p)

    def test_edge_multiset_shrinks(self):
        inst, _, c1d, c2d = four_crossings_fixture()
        c1 = DCycle.from_darts(inst, c1d)
        c2 = DCycle.from_darts(inst, c2d)
        cross = crossings(inst.graph, c1d, c2d)
        p, q = cross[0], cross[1]
        new1, new2 = uncross_pair(inst, c1, c2, p, q)
        before = sorted(c1.edges + c2.edges)
        after = sorted(new1.edges + new2.edges)
        it = iter(before)
        assert all(e in it for e in after)  # sub-multiset check


class TestDiscretize:
    def test_counts_and_loss(self):
        inst, _, c1d, c2d = four_crossings_fixture()
        flow = Multiflow.from_rationals(inst, {
            DCycle.from_darts(inst, c1d): rat("2/3"),
            DCycle.from_darts(inst, c2d): rat("5/7")})
        counts, quantum = discretize(flow, rat("1/2"))
        assert multiset_value(counts, quantum) <= flow.value
        assert multiset_value(counts, quantum) >= \
            (1 - rat("1/2")) * flow.value
        back = multiset_to_flow(inst, counts, quantum)
        back.verify_feasible()

    def test_zero_flow(self):
        inst, _, _, _ = four_crossings_fixture()
        counts, quantum = discretize(Multiflow(inst), rat("1/2"))
        assert counts == {}


def pair_counts(graph, flow) -> list:
    """``cr`` of every pair of the flow's support, each checked equal to
    the number of shared paths ``crossings`` lists in order."""
    cycles = flow.support()
    counts = []
    for i, ci in enumerate(cycles):
        for cj in cycles[i + 1:]:
            n = cr(graph, ci.darts, cj.darts)
            assert n == len(crossings(graph, ci.darts, cj.darts))
            counts.append(n)
    return counts


class TestUncrossAll:
    def test_fixture_pair(self):
        inst, _, c1d, c2d = four_crossings_fixture()
        counts = {DCycle.from_darts(inst, c1d): 2,
                  DCycle.from_darts(inst, c2d): 1}
        out, steps = uncross_all(inst, counts, check_invariants=True)
        assert sum(out.values()) == 3
        cycles = list(out)
        for i, ci in enumerate(cycles):
            for cj in cycles[i + 1:]:
                assert cr(inst.graph, ci.darts, cj.darts) <= 1
        assert len(steps) >= 1

    @pytest.mark.parametrize("seed", range(8))
    def test_random_planar_instances(self, seed):
        inst = generate_planar_random(10, seed=seed, n_demands=4)
        flow, sol = solve_and_decompose(inst)
        if flow.value == 0:
            return
        out = uncross_flow(flow, rat("1/2"), check_invariants=True)
        assert out.value >= (1 - rat("1/2")) * flow.value
        pair_counts(inst.graph, flow)
        assert max(pair_counts(inst.graph, out), default=0) <= 1

    @pytest.mark.parametrize("seed", range(4))
    def test_random_torus_instances(self, seed):
        inst = generate_torus_grid(3, 4, demands=3, seed=seed)
        flow, sol = solve_and_decompose(inst)
        if flow.value == 0:
            return
        out = uncross_flow(flow, rat("1/4"), check_invariants=True)
        assert out.value >= (1 - rat("1/4")) * flow.value
        pair_counts(inst.graph, flow)
        assert max(pair_counts(inst.graph, out), default=0) <= 1


def count_rewrites(monkeypatch) -> list:
    """Record every ``uncross_pair`` call from now on; returns the list."""
    rewrites = []
    real = uncross_mod.uncross_pair

    def counting(*args):
        rewrites.append(args)
        return real(*args)

    monkeypatch.setattr(uncross_mod, "uncross_pair", counting)
    return rewrites


class TestBatchedRewrites:
    """A pair's repeated rewrites are applied in one step; the result, key
    order included, must equal ``reference_uncross_all``'s unit steps."""

    @staticmethod
    def _both_ways(monkeypatch, inst, counts):
        rewrites = count_rewrites(monkeypatch)
        runs = []
        for uncross in (lambda: uncross_all(inst, counts)[0],
                        lambda: reference_uncross_all(inst, counts)):
            rewrites.clear()
            out = uncross()
            runs.append((out, len(rewrites)))
        (batched, n_batched), (unit, n_unit) = runs
        assert batched == unit
        assert list(batched) == list(unit)
        assert n_batched <= n_unit
        return n_batched, n_unit

    @pytest.mark.parametrize("k1,k2", [(2, 1), (5, 3)])
    def test_fixture_pair(self, monkeypatch, k1, k2):
        inst, _, c1d, c2d = four_crossings_fixture()
        counts = {DCycle.from_darts(inst, c1d): k1,
                  DCycle.from_darts(inst, c2d): k2}
        n_batched, n_unit = self._both_ways(monkeypatch, inst, counts)
        if k2 > 1:
            assert n_batched < n_unit

    @pytest.mark.parametrize("seed", range(8))
    def test_random_planar_instances(self, monkeypatch, seed):
        inst = generate_planar_random(10, seed=seed, n_demands=4)
        flow, _ = solve_and_decompose(inst)
        counts, _ = discretize(flow, rat("1/10"))
        self._both_ways(monkeypatch, inst, counts)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_torus_instances(self, monkeypatch, seed):
        inst = generate_torus_grid(3, 4, demands=3, seed=seed)
        flow, _ = solve_and_decompose(inst)
        counts, _ = discretize(flow, rat("1/4"))
        self._both_ways(monkeypatch, inst, counts)


class TestOneProgramAtEveryVerifyLevel:
    """``check_invariants`` adds checks and changes no step: the same
    rewrites, the same multiset, key order included."""

    @staticmethod
    def _both_levels(monkeypatch, uncross):
        rewrites = count_rewrites(monkeypatch)
        runs = []
        for check in (False, True):
            rewrites.clear()
            out = uncross(check)
            runs.append((list(out.items()), len(rewrites)))
        assert runs[0] == runs[1]

    def test_fixture_pair(self, monkeypatch):
        inst, _, c1d, c2d = four_crossings_fixture()
        counts = {DCycle.from_darts(inst, c1d): 5,
                  DCycle.from_darts(inst, c2d): 3}
        self._both_levels(monkeypatch, lambda check: uncross_all(
            inst, counts, check_invariants=check)[0])

    @pytest.mark.parametrize("seed", [2, 3])
    def test_random_planar_instances(self, monkeypatch, seed):
        inst = generate_planar_random(10, seed=seed, n_demands=4)
        flow, _ = solve_and_decompose(inst)
        self._both_levels(monkeypatch, lambda check: uncross_flow(
            flow, rat("1/10"), check_invariants=check).values)

    def test_one_potential_per_step(self, monkeypatch):
        inst, _, c1d, c2d = four_crossings_fixture()
        counts = {DCycle.from_darts(inst, c1d): 5,
                  DCycle.from_darts(inst, c2d): 3}
        rewrites = count_rewrites(monkeypatch)
        reference_uncross_all(inst, counts)
        n_unit = len(rewrites)
        _, potentials = uncross_all(inst, counts, check_invariants=True)
        # fewer steps than unit rewrites, so some step was batched, and
        # each step lowered the potential
        assert len(potentials) < n_unit
        assert all(a > b for a, b in zip(potentials, potentials[1:]))
