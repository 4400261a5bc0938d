import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_load, reference_shortest_path_length, with_caps
from surfaceflow.errors import InternalInvariantError, PreconditionError
from surfaceflow.flows import (DCycle, Multiflow, _verify_multicut, decompose,
                               edge_loads, shortest_path_length,
                               solve_and_decompose, solve_fractional)
from surfaceflow.instances import (DEMAND, SUPPLY, Instance,
                                   generate_gap_family,
                                   generate_planar_random,
                                   generate_torus_grid)
from surfaceflow.rational import rat
from surfaceflow.surface import EmbeddedGraph


def two_path_instance(cap_mid=1):
    """Square with one diagonal demand: two internally disjoint s-t routes.

        0 -- 1
        |    |
        3 -- 2     demand edge {0, 2}
    """
    g = EmbeddedGraph(
        4,
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        [(0, 8, 7), (2, 1), (4, 9, 3), (5, 6)],
    )
    return Instance(g, (SUPPLY,) * 4 + (DEMAND,),
                    (cap_mid, cap_mid, cap_mid, cap_mid, 2))


class TestDCycle:
    def test_canonical_equality(self):
        inst = two_path_instance()
        a = DCycle.from_darts(inst, [0, 2, 9])
        b = DCycle.from_darts(inst, [2, 9, 0])
        c = DCycle.from_darts(inst, [8, 3, 1])  # reversed traversal
        assert a == b == c
        assert a.demand == 4
        assert a.edge_set == frozenset({0, 1, 4})

    def test_rejects_multiple_demands(self):
        inst = two_path_instance()
        bad = Instance(inst.graph, (SUPPLY, DEMAND, SUPPLY, SUPPLY, DEMAND),
                       inst.caps)
        with pytest.raises(PreconditionError):
            DCycle.from_darts(bad, [0, 2, 9])

    def test_rejects_broken_chain(self):
        inst = two_path_instance()
        with pytest.raises(PreconditionError):
            DCycle.from_darts(inst, [0, 4, 9])

    def test_rejects_vertex_revisit(self):
        inst = two_path_instance()
        with pytest.raises(PreconditionError):
            DCycle.from_darts(inst, [0, 1, 3, 5, 9])

    @pytest.mark.parametrize("darts", [[0, 2, -1], [-10, -8, -1],
                                       [0, 2, 19]])
    def test_rejects_darts_out_of_range(self, darts):
        # [-10, -8, -1] chains like [0, 2, 9] under list indexing
        inst = two_path_instance()
        with pytest.raises(PreconditionError, match="out of range"):
            DCycle.from_darts(inst, darts)


class TestMultiflow:
    def test_loads_and_value(self):
        inst = two_path_instance()
        f = Multiflow(inst)
        f.add(DCycle.from_darts(inst, [0, 2, 9]), rat("1/2"))
        f.add(DCycle.from_darts(inst, [7, 5, 9]), rat("1/2"))
        assert f.value == rat(1)
        assert edge_load(f, 4) == rat(1)
        assert edge_load(f, 0) == rat("1/2")
        f.verify_feasible()

    def test_edge_loads_keep_the_amount_type(self):
        """One per-edge sum for flows and cycle multisets: ``QQ`` values
        give ``QQ`` loads, int counts int loads."""
        inst = two_path_instance()
        c1 = DCycle.from_darts(inst, [0, 2, 9])
        c2 = DCycle.from_darts(inst, [7, 5, 9])
        f = Multiflow(inst, {c1: rat("1/2"), c2: rat("3/2")})
        loads = edge_loads(f.values)
        assert loads == {e: edge_load(f, e) for e in c1.edge_set | c2.edge_set}
        assert {type(v) for v in loads.values()} == {type(rat(1))}
        counts = edge_loads({c1: 2, c2: 3})
        assert counts[4] == 5 and counts[0] == 2
        assert {type(v) for v in counts.values()} == {int}

    def test_wire_round_trip(self):
        inst = two_path_instance()
        f = Multiflow(inst)
        f.add(DCycle.from_darts(inst, [0, 2, 9]), rat("3/2"))
        back = Multiflow.from_wire(inst, f.to_wire())
        assert back.values == f.values


class TestSolveFractional:
    def test_two_disjoint_routes(self):
        inst = two_path_instance()
        sol = solve_fractional(inst)
        assert sol.value == rat(2)
        flow = decompose(inst, sol)
        assert flow.value == rat(2)
        flow.verify_feasible()
        assert all(c.demand == 4 for c in flow.values)

    def test_demand_capacity_binds(self):
        inst = two_path_instance()
        inst = with_caps(inst, (5, 5, 5, 5, 1))
        sol = solve_fractional(inst)
        assert sol.value == rat(1)

    def test_supply_bottleneck(self):
        # cap 1 on every supply edge but demand allows 2: both routes used
        inst = two_path_instance(cap_mid=1)
        flow, sol = solve_and_decompose(inst)
        assert sol.value == rat(2)
        assert len(flow.values) == 2

    def test_no_demands(self):
        g = two_path_instance().graph
        inst = Instance(g, (SUPPLY,) * 5, (1,) * 5)
        sol = solve_fractional(inst)
        assert sol.value == 0

    def test_gap_family_lp_value(self):
        for n in (1, 2):
            inst = generate_gap_family(n)
            sol = solve_fractional(inst)
            assert sol.value >= n

    def test_multicut_certificate_on_random_instances(self):
        for seed in range(6):
            inst = generate_planar_random(9, seed=seed, n_demands=3)
            if not inst.demand_edges:
                continue
            flow, sol = solve_and_decompose(inst)
            assert flow.value == sol.value
            cost = sum(inst.cap(e) * y for e, y in sol.multicut.items())
            assert sol.multicut_value == cost == sol.value

    def test_multicut_check_rejects_bad_prices(self):
        inst = two_path_instance()
        # 1/3 on the demand edge and on one route: the other route's
        # D-cycle has price 1/3 + 1/3 < 1
        prices = {e: 1 if e in (0, 4) else 0 for e in range(5)}
        with pytest.raises(InternalInvariantError, match="misses"):
            _verify_multicut(inst, prices, 3, rat(1))
        with pytest.raises(InternalInvariantError, match="cost"):
            _verify_multicut(inst, prices, 3, rat(2))

    def test_multicut_check_rejects_a_negative_price(self):
        """Dijkstra needs non-negative weights: a negative price is refused
        even when the cost matches and every D-cycle is covered."""
        inst = two_path_instance()
        prices = {0: 1, 1: -1, 2: 1, 3: 0, 4: 1}
        with pytest.raises(InternalInvariantError, match="negative"):
            _verify_multicut(inst, prices, 1, rat(3))

    def test_torus_instances(self):
        inst = generate_torus_grid(3, 3, demands=2, seed=5)
        flow, sol = solve_and_decompose(inst)
        flow.verify_feasible()

    def test_decomposition_deterministic(self):
        inst = generate_planar_random(10, seed=3, n_demands=3)
        a = solve_and_decompose(inst)[0].to_wire()
        b = solve_and_decompose(inst)[0].to_wire()
        assert a == b


def every_pair_distance(inst, weights):
    """``(s, t, Dijkstra, Bellman-Ford)`` for every vertex pair."""
    n = inst.graph.n
    return [(s, t, shortest_path_length(inst, s, t, weights),
             reference_shortest_path_length(inst, s, t, weights))
            for s in range(n) for t in range(n)]


class TestShortestPath:
    """Dijkstra against the Bellman-Ford it replaced, on every vertex pair."""

    @pytest.mark.parametrize("make", [
        lambda: generate_planar_random(30, n_demands=3, cap_mode="random",
                                       seed=3),
        lambda: generate_torus_grid(4, 4, demands=2, cap_mode="random",
                                    seed=1),
        lambda: generate_gap_family(2),
    ], ids=["planar", "torus", "gap"])
    def test_lp_prices_same_as_reference(self, make):
        """On the scaled LP prices that the multicut check runs on."""
        inst = make()
        prices = solve_fractional(inst).multicut
        denom = max(v.denominator for v in prices.values())
        weights = {e: int(v * denom) for e, v in prices.items()}
        for s, t, got, want in every_pair_distance(inst, weights):
            assert got == want, (s, t)

    @settings(max_examples=40, deadline=None, database=None,
              derandomize=True)
    @given(seed=st.integers(0, 2 ** 16), size=st.integers(6, 24),
           top=st.sampled_from([0, 1, 3, 1000]), data=st.data())
    def test_int_weights_same_as_reference(self, seed, size, top, data):
        """On drawn int weights, some edges left out (weight 0)."""
        inst = generate_planar_random(size, n_demands=2, seed=seed)
        edges = inst.supply_edges
        draw = data.draw(st.lists(st.integers(0, top), min_size=len(edges),
                                  max_size=len(edges)))
        rng = random.Random(seed)
        weights = {e: w for e, w in zip(edges, draw) if rng.random() < 0.9}
        for s, t, got, want in every_pair_distance(inst, weights):
            assert got == want, (s, t)
