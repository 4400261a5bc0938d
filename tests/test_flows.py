import json
import random
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (amounts, assert_flow_matches_reference, edge_load,
                      reference_discretize, reference_multiset_to_flow,
                      reference_shortest_path_length, reference_split_totals,
                      with_caps)
from surfaceflow.errors import InternalInvariantError, PreconditionError
from surfaceflow.flows import (DCycle, Multiflow, _verify_multicut, decompose,
                               edge_loads, shortest_path_length,
                               solve_and_decompose, solve_fractional)
from surfaceflow.instances import (DEMAND, SUPPLY, Instance,
                                   generate_gap_family,
                                   generate_planar_random,
                                   generate_torus_grid)
from surfaceflow.oracle import enumerate_d_cycles
from surfaceflow.rational import QQ, rat, rat_str
from surfaceflow.surface import EmbeddedGraph, cycle_vertices
from surfaceflow.topology import split_support
from surfaceflow.uncross import discretize, multiset_to_flow


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
        assert (a.darts, a.edges, a.mask, a.least) \
            == ((0, 2, 9), (0, 1, 4), 0b10011, 1)

    def test_equality_and_hash_read_darts_and_demand_only(self):
        inst = two_path_instance()
        a = DCycle.from_darts(inst, [0, 2, 9])
        # the same cycle made against other capacities: its least differs
        twin = DCycle.from_darts(with_caps(inst, (7, 7, 7, 7, 7)), [9, 0, 2])
        assert (twin.darts, twin.least) == (a.darts, 7) and a.least == 1
        assert twin == a and hash(twin) == hash(a)
        assert {a: 1, twin: 2} == {a: 2}
        assert a != DCycle(a.darts, 3, a.mask, a.least)
        assert a != (a.darts, a.demand)
        assert repr(a) == "DCycle(darts=(0, 2, 9), demand=4)"

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

    @pytest.mark.parametrize("darts", [[0.0, 2, 9], [0, 2, 9.0], [0, 2.5, 9],
                                       [False, 2, 9], [0, 2, True]],
                             ids=["float", "float-last", "float-half",
                                  "bool", "bool-last"])
    def test_rejects_non_int_darts(self, darts):
        """``cycle_vertices`` is the one check of a cycle's darts: a float
        or a bool is refused, not coerced."""
        inst = two_path_instance()
        with pytest.raises(PreconditionError, match="darts must be ints"):
            cycle_vertices(inst.graph, darts)
        with pytest.raises(PreconditionError, match="darts must be ints"):
            DCycle.from_darts(inst, darts)


class TestMultiflow:
    def test_loads_and_value(self):
        inst = two_path_instance()
        f = Multiflow(inst, {}, 2)
        f.add(DCycle.from_darts(inst, [0, 2, 9]), 1)
        f.add(DCycle.from_darts(inst, [7, 5, 9]), 1)
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
        f = Multiflow(inst, {c1: 1, c2: 3}, 2)
        loads = edge_loads({c1: rat("1/2"), c2: rat("3/2")})
        assert loads == {e: edge_load(f, e)
                         for e in set(c1.edges) | set(c2.edges)}
        assert {type(v) for v in loads.values()} == {type(rat(1))}
        counts = edge_loads({c1: 2, c2: 3})
        assert counts[4] == 5 and counts[0] == 2
        assert {type(v) for v in counts.values()} == {int}

    def test_wire_round_trip(self):
        inst = two_path_instance()
        f = Multiflow(inst, {}, 2)
        f.add(DCycle.from_darts(inst, [0, 2, 9]), 3)
        back = Multiflow.from_wire(inst, f.to_wire())
        assert (back.values, back.denom) == (f.values, f.denom)


# a torus (separating and non-separating cycles) and a planar instance,
# with all their D-cycles
DRAWN_ON = [(inst, enumerate_d_cycles(inst)) for inst in (
    generate_torus_grid(3, 3, 2, cap_mode="random", seed=1),
    generate_planar_random(12, seed=1, n_demands=3))]


@st.composite
def multiflows(draw) -> tuple:
    """An int flow and its ``QQ`` values: up to eight D-cycles of a
    ``DRAWN_ON`` instance at drawn rationals, which may overload an edge,
    over the least common denominator times a drawn factor."""
    inst, cycles = draw(st.sampled_from(DRAWN_ON))
    chosen = draw(st.lists(st.sampled_from(cycles), max_size=8, unique=True))
    values = {c: QQ(draw(st.integers(1, 30)), draw(st.integers(1, 12)))
              for c in chosen}
    denom = lcm(*(v.denominator for v in values.values())) \
        * draw(st.integers(1, 4))
    return Multiflow(inst, {c: int(v * denom) for c, v in values.items()},
                     denom), values


class TestIntFlowReference:
    """The int flow against the ``Fraction`` flow of ``conftest``."""

    @settings(max_examples=150, deadline=None, database=None,
              derandomize=True)
    @given(drawn=multiflows())
    def test_value_loads_verdict_and_wire(self, drawn):
        flow, values = drawn
        assert amounts(flow) == values
        assert_flow_matches_reference(flow)
        back = Multiflow.from_wire(flow.instance, flow.to_wire())
        assert amounts(back) == values

    @settings(max_examples=150, deadline=None, database=None,
              derandomize=True)
    @given(drawn=multiflows(),
           epsilon=st.sampled_from(["1/2", "1/10", "2/3", "1/7"]))
    def test_discretize_and_back(self, drawn, epsilon):
        flow, values = drawn
        counts, quantum = discretize(flow, epsilon)
        want, want_quantum = reference_discretize(flow.instance, values,
                                                  rat(epsilon))
        assert list(counts.items()) == list(want.items())
        assert QQ(*quantum) == want_quantum
        back = multiset_to_flow(flow.instance, counts, quantum)
        assert amounts(back) == reference_multiset_to_flow(want,
                                                           want_quantum)
        assert_flow_matches_reference(back)

    @settings(max_examples=100, deadline=None, database=None,
              derandomize=True)
    @given(drawn=multiflows())
    def test_split_support_sums(self, drawn):
        flow, values = drawn
        sep, sep_v, nonsep, nonsep_v = split_support(flow)
        assert sorted(sep + nonsep, key=lambda c: c.darts) \
            == sorted(values, key=lambda c: c.darts)
        assert (QQ(sum(sep_v), flow.denom), QQ(sum(nonsep_v), flow.denom)) \
            == reference_split_totals(flow.instance, values)

    def test_flows_are_ints(self):
        inst = two_path_instance()
        c = DCycle.from_darts(inst, [0, 2, 9])
        with pytest.raises(TypeError):
            Multiflow(inst, {c: rat("1/2")})
        with pytest.raises(TypeError):
            Multiflow(inst).add(c, rat(1))
        with pytest.raises(PreconditionError):
            Multiflow(inst, {c: 1}, 0)


class TestRational:
    @pytest.mark.parametrize("text, value", [
        ("1/10", QQ(1, 10)), ("0.1", QQ(1, 10)), ("-3/6", QQ(-1, 2)),
        (" 7 ", QQ(7))])
    def test_fractions_and_decimals_read(self, text, value):
        assert rat(text) == value

    @pytest.mark.parametrize("text", ["1e5000", "1E-3", "2.5e1"])
    def test_exponents_refused(self, text):
        with pytest.raises(ValueError, match="exponent"):
            rat(text)

    def test_rat_str_reduces_ints(self):
        assert rat_str(6, 4) == rat_str(QQ(6, 4)) == "3/2"
        assert rat_str(0, 7) == "0/1" and rat_str(-4, 2) == "-2/1"
        assert rat_str(QQ(3, 4), 3) == "1/4"


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
            cost = QQ(sum(inst.caps[e] * y for e, y in sol.multicut.items()),
                      sol.dy)
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
        weights = solve_fractional(inst).multicut
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
