import json

import pytest

import surfaceflow.flows as flows_module
import surfaceflow.round_separating as round_separating_module
from surfaceflow import cli
from surfaceflow.errors import InternalInvariantError
from surfaceflow.flows import DCycle, Multiflow, solve_and_decompose
from surfaceflow.instances import (DEMAND, SUPPLY, Instance,
                                   generate_planar_random)
from surfaceflow.lp import LPResult
from surfaceflow.oracle import OracleBudget
from surfaceflow.pipeline import run
from surfaceflow.rational import rat
from surfaceflow.round_separating import (_backtrack_coloring,
                                          color_and_select,
                                          degeneracy_coloring, heawood_bound,
                                          half_integralize, reduce_to_unit,
                                          round_separating)
from surfaceflow.topology import inside_faces, split_support
from surfaceflow.uncross import uncross_flow

from conftest import (amounts, count_maps, darts_for_route,
                      intersection_adjacency, map_from_drawing,
                      reference_unit_map, with_caps)
from test_flows import two_path_instance


def half(x):
    return rat(x) / 2


def uncrossed_planar_flow(seed, size=10, n_demands=3, eps="1/2"):
    inst = generate_planar_random(size, seed=seed, n_demands=n_demands)
    flow, _ = solve_and_decompose(inst)
    if flow.value == 0:
        return None
    return uncross_flow(flow, rat(eps))


class TestHeawood:
    def test_known_values(self):
        assert heawood_bound(1) == 7
        assert heawood_bound(2) == 8
        assert heawood_bound(3) == 9
        assert heawood_bound(7) == 12


class TestHalfIntegralize:
    def test_already_integral_unchanged(self):
        inst = two_path_instance()
        f = Multiflow(inst)
        f.add(DCycle.from_darts(inst, [0, 2, 9]), 1)
        out = half_integralize(f)
        assert out.value >= f.value
        assert all(2 * v == int(2 * v) for v in amounts(out).values())

    def test_single_three_quarters_cycle(self):
        inst = two_path_instance()
        f = Multiflow(inst, {}, 4)
        f.add(DCycle.from_darts(inst, [0, 2, 9]), 3)
        out = half_integralize(f)
        assert out.value >= half(1)
        assert all(2 * v == int(2 * v) for v in amounts(out).values())

    def test_two_cycles_shared_capacity_one_edge(self):
        # both routes use the demand edge of capacity 2; shrink it to 1
        inst = with_caps(two_path_instance(), (1, 1, 1, 1, 1))
        f = Multiflow(inst, {}, 2)
        f.add(DCycle.from_darts(inst, [0, 2, 9]), 1)
        f.add(DCycle.from_darts(inst, [7, 5, 9]), 1)
        out = half_integralize(f)
        out.verify_feasible()
        assert out.value >= half(1)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_uncrossed_flows(self, seed):
        flow = uncrossed_planar_flow(seed)
        if flow is None:
            return
        sep, sep_v, _, _ = split_support(flow)
        fsep = flow.restrict(sep)
        out = half_integralize(fsep)
        assert 2 * out.value >= fsep.value
        assert set(out.values) <= set(fsep.values)
        assert all(2 * v == int(2 * v) for v in amounts(out).values())

    def test_lp_data_are_ints(self, monkeypatch):
        got = []
        solve = flows_module.solve_lp

        def spy(*args):
            got.append(args)
            return solve(*args)

        monkeypatch.setattr(flows_module, "solve_lp", spy)
        inst = two_path_instance()
        f = Multiflow(inst, {}, 4)
        f.add(DCycle.from_darts(inst, [0, 2, 9]), 3)
        half_integralize(f)
        ((c, cols, b_ub),) = got
        data = [*c, *b_ub, *(r for rows in cols for r in rows)]
        assert data and all(type(v) is int for v in data)

    def test_non_half_integral_vertex_is_an_invariant_failure(
            self, monkeypatch):
        inst = two_path_instance()
        f = Multiflow(inst)
        f.add(DCycle.from_darts(inst, [0, 2, 9]), 1)
        # a bogus vertex goes to the packing, which cannot keep half of f
        monkeypatch.setattr(
            round_separating_module, "cycle_lp",
            lambda *args: (LPResult([1], 3, [], [], 1, rat("1/3"), "exact"),
                           []))
        with pytest.raises(InternalInvariantError, match="half-integral"):
            half_integralize(f)


# unit-capacity planar instances, 6 demands, whose restricted cycle LP has
# an optimal vertex with quarters although the support is laminar
QUARTER_VERTICES = [(60, 11), (120, 26)]


def separating_flow(monkeypatch, size, seed):
    """The flow the pipeline hands to ``half_integralize``."""
    got = []
    real = round_separating_module.half_integralize

    def spy(flow):
        got.append(flow)
        return real(flow)

    monkeypatch.setattr(round_separating_module, "half_integralize", spy)
    run(generate_planar_random(size, seed=seed, n_demands=6,
                               cap_mode="unit"))
    monkeypatch.undo()
    (flow,) = got
    return flow


class TestQuarterVertices:
    @pytest.mark.parametrize("size, seed", QUARTER_VERTICES)
    def test_cli_solves_with_value_six(self, tmp_path, size, seed):
        inst, report = tmp_path / "inst.json", tmp_path / "report.json"
        assert cli.main(["generate", "planar", "--size", str(size),
                         "--demands", "6", "--cap-mode", "unit",
                         "--seed", str(seed), "-o", str(inst)]) == 0
        assert cli.main(["solve", str(inst), "--verify", "invariants",
                         "--report", str(report)]) == 0
        assert json.loads(report.read_text())["output"]["value"] == "6/1"

    @pytest.mark.parametrize("size, seed", QUARTER_VERTICES)
    def test_packing_replaces_the_vertex(self, monkeypatch, size, seed):
        flow = separating_flow(monkeypatch, size, seed)
        lp = round_separating_module.cycle_lp(
            [c.edges for c in flow.support()], flow.instance.caps)[0]
        assert lp.dx == 4  # a quarter
        out = half_integralize(flow)
        assert out.value == lp.value == 6
        assert all(2 * v == int(2 * v) for v in amounts(out).values())

    def test_packing_reads_the_flow_instance_caps(self, monkeypatch):
        # equal cycles made against other capacities carry another least
        # capacity; the packing must read the flow's own instance
        flow = separating_flow(monkeypatch, *QUARTER_VERTICES[0])
        inst = flow.instance
        wide = with_caps(inst, [3 * u for u in inst.caps])
        foreign = Multiflow(inst, {DCycle.from_darts(wide, c.darts): v
                                   for c, v in flow.values.items()},
                            flow.denom)
        assert foreign.values == flow.values
        assert all(c.least == 3 for c in foreign.values)
        assert amounts(half_integralize(foreign)) \
            == amounts(half_integralize(flow))

    def test_budget_refusal_is_an_invariant_failure(self, monkeypatch):
        flow = separating_flow(monkeypatch, *QUARTER_VERTICES[0])
        monkeypatch.setattr(round_separating_module, "DEFAULT_BUDGET",
                            OracleBudget(max_nodes=0))
        with pytest.raises(InternalInvariantError,
                           match="packing budget") as info:
            half_integralize(flow)
        assert any(2 * v != int(2 * v) for v in info.value.witness)


class TestReduceToUnit:
    def test_floor_extraction(self):
        inst = with_caps(two_path_instance(), (3, 3, 3, 3, 5))
        f = Multiflow(inst, {}, 2)
        f.add(DCycle.from_darts(inst, [0, 2, 9]), 5)
        red = reduce_to_unit(f)
        assert red.banked.value == 2
        assert len(red.residual) == 1
        unit, _ = reference_unit_map(red)
        assert unit.caps == (1,) * len(unit.graph.edges)

    def test_all_integral_gives_empty_residual(self):
        inst = two_path_instance()
        f = Multiflow(inst)
        f.add(DCycle.from_darts(inst, [0, 2, 9]), 1)
        red = reduce_to_unit(f)
        assert red.banked.value == 1 and not red.residual

    def test_shared_edge_pairs_on_one_parallel(self):
        inst = two_path_instance()
        f = Multiflow(inst, {}, 2)
        f.add(DCycle.from_darts(inst, [0, 2, 9]), 1)
        f.add(DCycle.from_darts(inst, [7, 5, 9]), 1)
        red = reduce_to_unit(f)
        # the demand edge is shared by two halves: one parallel, no expansion
        assert red.strands[4] in ([0, 1], [1, 0])
        assert red.adjacency() == [[1], [0]]
        unit, cycles = reference_unit_map(red)
        assert len(unit.graph.edges) == len(inst.graph.edges)
        assert len(set(cycles[0].edges) & set(cycles[1].edges)) == 1

    def test_expansion_builds_one_map(self, monkeypatch):
        # three s-t routes closed by one demand edge of capacity 2: three
        # halves on the demand edge need two unit parallels
        graph, lookup = map_from_drawing(
            {"s": (0, 0), "t": (2, 0), "a": (1, 1), "b": (1, 0),
             "c": (1, -1)},
            [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t"), ("s", "c"),
             ("c", "t"), ("s", "t", 270, 270)])
        inst = Instance(graph, (SUPPLY,) * 6 + (DEMAND,), (1,) * 6 + (2,))
        f = Multiflow(inst, {}, 2)
        for mid in "abc":
            darts = darts_for_route(graph, lookup, ["s", mid, "t"])
            f.add(DCycle.from_darts(inst, darts), 1)
        built = count_maps(monkeypatch)
        red = reduce_to_unit(f)
        assert built[0] == 0  # the pairing needs no unit map
        assert len(red.strands[6]) == 3
        unit, cycles = reference_unit_map(red)
        assert built[0] == 1
        assert len(unit.graph.edges) == len(graph.edges) + 1
        assert unit.graph.genus == 0
        assert len({frozenset(c.edges) & {6, 7} for c in cycles}) == 2
        assert red.adjacency() == intersection_adjacency(cycles)

    def test_neighbouring_strands_share_a_parallel(self):
        # four s-t routes above a demand edge of capacity 2 drawn below
        # them: the top two and the bottom two pair up, not the first two
        # in support order
        mids = {"a": (1, 2), "b": (1, -1), "c": (1, 1), "d": (1, -2)}
        spec = [pair for mid in mids for pair in (("s", mid), (mid, "t"))]
        graph, lookup = map_from_drawing(
            {"s": (0, 0), "t": (2, 0), **mids},
            spec + [("s", "t", 270, 270)])
        assert graph.genus == 0
        inst = Instance(graph, (SUPPLY,) * 8 + (DEMAND,), (1,) * 8 + (2,))
        f = Multiflow(inst, {}, 2)
        for mid in mids:
            darts = darts_for_route(graph, lookup, ["s", mid, "t"])
            f.add(DCycle.from_darts(inst, darts), 1)
        red = reduce_to_unit(f)
        name = {i: mid for i, c in enumerate(red.residual) for mid in mids
                if lookup["edge"][("s", mid)] in c.edges}
        pairs = {frozenset((name[i], name[j]))
                 for i, adj in enumerate(red.adjacency()) for j in adj}
        assert pairs == {frozenset("ac"), frozenset("bd")}
        _, cycles = reference_unit_map(red)
        assert red.adjacency() == intersection_adjacency(cycles)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_flows_separating_and_genus_preserved(self, seed):
        flow = uncrossed_planar_flow(seed)
        if flow is None:
            return
        sep, _, _, _ = split_support(flow)
        fhalf = half_integralize(flow.restrict(sep))
        red = reduce_to_unit(fhalf)
        if not red.residual:
            return
        unit, cycles = reference_unit_map(red)
        g2 = unit.graph
        assert g2.genus == flow.instance.graph.genus
        insides = [inside_faces(g2, c.darts) for c in cycles]
        for i, a in enumerate(insides):
            for b in insides[i + 1:]:
                assert a <= b or b <= a or not (a & b)

    @pytest.mark.parametrize("seed", range(6))
    def test_nesting_separation_property(self, seed):
        # if C1 nests strictly below C' and C2 does not, C1 and C2 are
        # edge-disjoint in the unit setting
        flow = uncrossed_planar_flow(seed)
        if flow is None:
            return
        sep, _, _, _ = split_support(flow)
        fhalf = half_integralize(flow.restrict(sep))
        red = reduce_to_unit(fhalf)
        if len(red.residual) < 3:
            return
        unit, cycles = reference_unit_map(red)
        ins = [inside_faces(unit.graph, c.darts) for c in cycles]
        n = len(ins)
        for a in range(n):
            for b in range(n):
                for cc in range(n):
                    if len({a, b, cc}) < 3:
                        continue
                    if ins[a] < ins[cc] and not (ins[b] < ins[cc]):
                        assert not cycles[a].mask & cycles[b].mask


def icosahedron() -> list:
    """Adjacency lists of the icosahedron: planar, 5-regular, 4-chromatic."""
    pairs = []
    for i in range(5):
        up, low = 1 + i, 6 + i
        pairs += [(0, up), (11, low), (up, 1 + (i + 1) % 5),
                  (low, 6 + (i + 1) % 5), (up, low), (up, 6 + (i + 1) % 5)]
    adj = [set() for _ in range(12)]
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    return [sorted(s) for s in adj]


def proper(adj, color) -> bool:
    return all(color[v] != color[w] for v in range(len(adj)) for w in adj[v])


class TestColoring:
    def test_backtracking_is_exact(self):
        adj = icosahedron()
        assert all(len(a) == 5 for a in adj)
        color = _backtrack_coloring(adj, 4)
        assert proper(adj, color) and max(color) < 4
        assert _backtrack_coloring(adj, 3) is None

    def test_greedy_overshoot_falls_back_to_five(self, monkeypatch):
        # 12 residual half-cycles on a unit-capacity planar instance; a
        # greedy coloring that spends one color per cycle must give way
        got = []
        real = round_separating_module.reduce_to_unit
        monkeypatch.setattr(round_separating_module, "reduce_to_unit",
                            lambda flow: got.append(real(flow)) or got[-1])
        run(generate_planar_random(60, seed=24, n_demands=10,
                                   cap_mode="unit"))
        (red,) = got
        assert len(red.residual) == 12
        monkeypatch.setattr(round_separating_module, "degeneracy_coloring",
                            lambda adj: list(range(len(adj))))
        out, used, sizes = color_and_select(red, genus=0)
        assert used <= 5 and sum(sizes) == 12
        out.verify_feasible()
        assert out.value == red.banked.value + max(sizes)

    def test_triangle_needs_three(self):
        adj = [[1, 2], [0, 2], [0, 1]]
        color = degeneracy_coloring(adj)
        assert len(set(color)) == 3

    def test_edge_disjoint_support_single_color(self):
        inst = two_path_instance()
        f = Multiflow(inst, {}, 2)
        f.add(DCycle.from_darts(inst, [0, 2, 9]), 1)
        red = reduce_to_unit(f)
        out, used, sizes = color_and_select(red, genus=0)
        assert used == 1 and sizes == [1]
        assert out.value == half(2)  # one cycle at value 1

    @pytest.mark.parametrize("seed", range(8))
    def test_random_planar_guarantee(self, seed):
        flow = uncrossed_planar_flow(seed)
        if flow is None:
            return
        sep, _, _, _ = split_support(flow)
        fsep = flow.restrict(sep)
        res = round_separating(fsep)
        assert 2 * res.half.value >= fsep.value
        assert 5 * res.integral.value >= 2 * res.half.value
        assert res.colors_used <= 5
        res.integral.verify_feasible()
        assert all(v == int(v) for v in amounts(res.integral).values())
