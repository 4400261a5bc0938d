import functools
import hashlib
import json
from bisect import bisect_left
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (amounts, assert_cycle_fields,
                      assert_flow_matches_reference, cycle_record,
                      intersection_adjacency, reference_canonical_darts,
                      reference_discretize, reference_enumerate_d_cycles,
                      reference_exact_min_multicut,
                      reference_multiset_to_flow, reference_pack_cycles,
                      reference_split_totals, reference_unit_map)
from surfaceflow import oracle, pipeline, round_separating, uncross
from surfaceflow.errors import (InternalInvariantError, OracleBudgetExceeded,
                                StructuralError, SurfaceflowError)
from surfaceflow.flows import (DCycle, canonical_darts, cycle_lp,
                               solve_fractional)
from surfaceflow.instances import (DEMAND, SUPPLY, Instance,
                                   generate_gap_family,
                                   generate_planar_random,
                                   generate_torus_grid, parse_instance,
                                   serialize_instance)
from surfaceflow.oracle import (OracleBudget, enumerate_d_cycles,
                                exact_integral_multiflow, exact_min_multicut,
                                pack_cycles)
from surfaceflow.pipeline import PipelineConfig, run
from surfaceflow.rational import QQ, rat
from surfaceflow.surface import EmbeddedGraph
from surfaceflow.uncross import multiset_to_flow


PINNED_INSTANCES = {
    **{"planar%d" % s: (lambda s=s: generate_planar_random(
        30, seed=s, n_demands=3, cap_mode="random")) for s in range(6)},
    **{"torus%d" % s: (lambda s=s: generate_torus_grid(
        3, 3, 2, cap_mode="random", seed=s)) for s in range(3)},
    **{"gap%d" % n: (lambda n=n: generate_gap_family(n)) for n in (1, 2)},
}

# sha256 of json [flow value, flow wire, multicut value, multicut edges]:
# a faster oracle must give the same optimum, the same flow and the same cut
PINNED = {
    "planar0": "363d808ffcce28159aea8f6a0683b99a4841669a318e94445724b08af04be147",
    "planar1": "8e4bbb2314b6fd7c176d91aa233b9c85bbc980959a032e9f0970236e6c9ad8b7",
    "planar2": "3d766c434f5aaf127a79ff5e0137fab58565d13fc6270d291b922ce2654defe3",
    "planar3": "5dbe78451da2dbaaecfb64ba5496457de60d19d9604e51fbd54ca64ab1323a8e",
    "planar4": "d52c3415da1f8ff8c14d7c49584f4ab8be4b6203afa7aed228177be9e803dec9",
    "planar5": "e1a08abedca9d9b7caf6829127374339dc22eb9a637bd4e2a994dad3e4d287df",
    "torus0": "124c51c760781a006fdcb9cdeb9a0b32612902e631eadc35cb1993e4fcf12788",
    "torus1": "38c792ea190b069ccf9b9bc69064505b2498b7af9ad60891edf3bcec16e248cd",
    "torus2": "16bd22cd9c48cf6881f455a36305940501f63434ed09175dd4aaf6e2f1dfdb74",
    "gap1": "c93e6f6a33aab61368bd2c6ddf40a6563646cd8decd08a87645b443c4399c66e",
    "gap2": "9d174cb4ae18828eaa3cb55121c97c440c3feca5c5244eecf09c25a596065dab",
}


@functools.cache
def pinned(name):
    """One instance object per pinned name, for the property tests."""
    return PINNED_INSTANCES[name]()


def path_instance(caps=(2, 3, 2), demand_cap=4):
    """One demand closed by a single supply path 0-1-2-3."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    rotation = [[0, 6], [1, 2], [3, 4], [5, 7]]
    graph = EmbeddedGraph(4, edges, rotation)
    kinds = (SUPPLY, SUPPLY, SUPPLY, DEMAND)
    return Instance(graph, kinds, (*caps, demand_cap))


def two_path_instance():
    """Square 0-1-2-3 plus a diagonal demand between 0 and 2."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    rotation = [(0, 8, 7), (2, 1), (4, 9, 3), (5, 6)]
    graph = EmbeddedGraph(4, edges, rotation)
    kinds = (SUPPLY, SUPPLY, SUPPLY, SUPPLY, DEMAND)
    return Instance(graph, kinds, (1, 1, 1, 1, 2))


class TestEnumeration:
    def test_single_path_single_cycle(self):
        cycles = enumerate_d_cycles(path_instance())
        assert len(cycles) == 1
        assert cycles[0].demand == 3

    def test_two_routes(self):
        cycles = enumerate_d_cycles(two_path_instance())
        assert len(cycles) == 2
        assert all(c.demand == 4 for c in cycles)

    def test_deterministic(self):
        # two generations: one instance object would read the kept answer
        a = enumerate_d_cycles(generate_planar_random(14, seed=3))
        b = enumerate_d_cycles(generate_planar_random(14, seed=3))
        assert a is not b
        assert a == b

    def test_cycle_budget_refused(self):
        inst = generate_gap_family(1)
        with pytest.raises(OracleBudgetExceeded):
            enumerate_d_cycles(inst, OracleBudget(max_cycles=2))

    def test_step_budget_refused(self):
        # gap n = 1 takes 52 depth-first dart extensions
        inst = generate_gap_family(1)
        assert enumerate_d_cycles(inst, OracleBudget(max_nodes=52))
        with pytest.raises(OracleBudgetExceeded, match="enumeration steps"):
            enumerate_d_cycles(inst, OracleBudget(max_nodes=51))

    def test_demand_loop_refused(self):
        edges = [(0, 1), (1, 0), (0, 0)]
        rotation = [[0, 3, 4, 5], [1, 2]]
        graph = EmbeddedGraph(2, edges, rotation)
        with pytest.raises(StructuralError, match="is a loop"):
            Instance(graph, (SUPPLY, SUPPLY, DEMAND), (1, 1, 1))

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_cycles_are_validated_cycles(self, name):
        inst = PINNED_INSTANCES[name]()
        cycles = enumerate_d_cycles(inst)
        assert len(set(cycles)) == len(cycles)
        for c in cycles:
            assert cycle_record(DCycle.from_darts(inst, c.darts)) \
                == cycle_record(c)


# the pinned instances plus 14-30 edge planar graphs and 3x3 / 4x4 tori
ENUMERATION_SWEEP = {
    **PINNED_INSTANCES,
    **{"planar%d-seed%d" % (size, seed): (
        lambda size=size, seed=seed: generate_planar_random(size, seed=seed))
       for size in (14, 18, 22, 26, 30) for seed in range(3)},
    **{"torus3x3-unit%d" % seed: (
        lambda seed=seed: generate_torus_grid(3, 3, 3, seed=seed))
       for seed in range(2)},
    "torus4x4": lambda: generate_torus_grid(4, 4, 2, cap_mode="random",
                                            seed=1),
}


def refusal(enumerate_cycles, inst, budget):
    """The refusal message, or ``None`` when the budget suffices."""
    try:
        enumerate_cycles(inst, budget)
    except OracleBudgetExceeded as exc:
        return str(exc)
    return None


class TestEnumerationMatchesReference:
    @pytest.mark.parametrize("name", sorted(ENUMERATION_SWEEP))
    def test_same_cycles_steps_and_refusals(self, name):
        inst = ENUMERATION_SWEEP[name]()
        cycles = enumerate_d_cycles(inst)
        # the least passing budget: one step per dart tried, at least one
        # per cycle
        n_cycles = len(cycles)
        n_steps = n_cycles + bisect_left(
            range(n_cycles, oracle.DEFAULT_BUDGET.max_nodes + 1), True,
            key=lambda n: refusal(enumerate_d_cycles, inst,
                                  OracleBudget(max_nodes=n)) is None)
        least = OracleBudget(max_cycles=n_cycles, max_nodes=n_steps)
        assert list(enumerate_d_cycles(inst, least)) \
            == reference_enumerate_d_cycles(inst, least) == list(cycles)
        # the reference makes its records with ``from_darts``
        assert [cycle_record(c) for c in cycles] == [
            cycle_record(c) for c in reference_enumerate_d_cycles(inst,
                                                                 least)]
        for budget, message in (
                (OracleBudget(max_cycles=n_cycles, max_nodes=n_steps - 1),
                 "more than %d cycle enumeration steps" % (n_steps - 1)),
                (OracleBudget(max_cycles=n_cycles - 1, max_nodes=n_steps),
                 "more than %d D-cycles" % (n_cycles - 1))):
            assert refusal(enumerate_d_cycles, inst, budget) == message
            assert refusal(reference_enumerate_d_cycles, inst, budget) \
                == message


@pytest.fixture
def memo():
    """The enumeration memo behind ``enumerate_d_cycles``, empty at the
    start and at the end of the test."""
    search = oracle._search_d_cycles
    search.cache_clear()
    yield search
    search.cache_clear()


def hits_misses(memo) -> tuple:
    info = memo.cache_info()
    return info.hits, info.misses


class TestEnumerationMemo:
    def test_full_oracle_run_and_multicut_enumerate_once(self, memo):
        inst = PINNED_INSTANCES["planar0"]()
        run(inst, PipelineConfig(verify="full-oracle"))
        exact_min_multicut(inst)
        assert hits_misses(memo) == (1, 1)

    def test_same_object_and_equal_budget_hit(self, memo):
        inst = PINNED_INSTANCES["torus0"]()
        cycles = enumerate_d_cycles(inst)
        assert type(cycles) is tuple
        assert enumerate_d_cycles(inst) is cycles
        assert enumerate_d_cycles(inst, OracleBudget()) is cycles
        assert hits_misses(memo) == (2, 1)

    def test_parsed_copy_misses(self, memo):
        a = PINNED_INSTANCES["planar1"]()
        b = parse_instance(serialize_instance(a))
        assert a != b
        assert serialize_instance(a) == serialize_instance(b)
        assert enumerate_d_cycles(a) == enumerate_d_cycles(b)
        assert hits_misses(memo) == (0, 2)

    def test_other_budget_misses(self, memo):
        inst = PINNED_INSTANCES["gap1"]()
        enumerate_d_cycles(inst)
        enumerate_d_cycles(inst, OracleBudget(max_nodes=1000))
        enumerate_d_cycles(inst, OracleBudget(max_nodes=1000))
        assert hits_misses(memo) == (1, 2)

    def test_refusal_is_not_kept(self, memo):
        inst = PINNED_INSTANCES["gap1"]()
        cycles = enumerate_d_cycles(inst)
        small = OracleBudget(max_cycles=2)
        for _ in range(2):
            with pytest.raises(OracleBudgetExceeded,
                               match="more than 2 D-cycles"):
                enumerate_d_cycles(inst, small)
        assert hits_misses(memo) == (0, 3)
        # the refusals did not displace the kept answer either
        assert enumerate_d_cycles(inst) is cycles
        assert hits_misses(memo) == (1, 3)

    def test_refusal_keeps_nothing(self, memo):
        inst = PINNED_INSTANCES["gap1"]()
        with pytest.raises(OracleBudgetExceeded):
            enumerate_d_cycles(inst, OracleBudget(max_cycles=2))
        assert memo.cache_info().currsize == 0

    def test_instance_of_lists_is_refused_at_construction(self):
        inst = PINNED_INSTANCES["gap1"]()
        for kinds, caps in ((list(inst.kinds), inst.caps),
                            (inst.kinds, list(inst.caps))):
            with pytest.raises(StructuralError, match="tuples"):
                Instance(inst.graph, kinds, caps)


class TestCycleRecord:
    """A ``DCycle``'s ``edges``, ``mask`` and ``least`` are those of its
    darts, whether the enumeration or ``from_darts`` made it."""

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_enumerated_fields_are_derived(self, name):
        inst = PINNED_INSTANCES[name]()
        for c in enumerate_d_cycles(inst):
            assert_cycle_fields(c, inst.caps)

    @settings(max_examples=200, deadline=None, database=None,
              derandomize=True)
    @given(st.sampled_from(sorted(PINNED)), st.integers(0, 10 ** 6),
           st.integers(0, 100), st.booleans())
    def test_from_darts_makes_the_enumerated_record(self, name, index,
                                                     shift, reverse):
        inst = pinned(name)
        cycles = enumerate_d_cycles(inst)
        c = cycles[index % len(cycles)]
        darts = [d ^ 1 for d in reversed(c.darts)] if reverse \
            else list(c.darts)
        shift %= len(darts)
        made = DCycle.from_darts(inst, darts[shift:] + darts[:shift])
        assert_cycle_fields(made, inst.caps)
        assert cycle_record(made) == cycle_record(c)
        assert made == c and hash(made) == hash(c)
        assert {c: 1, made: 2} == {c: 2}


class TestCanonicalDarts:
    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=12,
                    unique=True))
    def test_matches_quadratic_scan(self, darts):
        assert canonical_darts(darts) == reference_canonical_darts(darts)


class TestIntegralOracle:
    def test_bottleneck_path(self):
        value, flow = exact_integral_multiflow(path_instance())
        assert value == 2
        flow.verify_feasible()

    def test_gap_family_one(self):
        inst = generate_gap_family(1)
        value, _ = exact_integral_multiflow(inst)
        assert value == 1
        assert solve_fractional(inst).value == 2

    def test_gap_family_two(self):
        inst = generate_gap_family(2)
        value, _ = exact_integral_multiflow(inst)
        assert value == 1
        assert solve_fractional(inst).value == 4

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_answers(self, name):
        inst = PINNED_INSTANCES[name]()
        value, flow = exact_integral_multiflow(inst)
        cut, edges = exact_min_multicut(inst)
        blob = json.dumps([value, flow.to_wire(), cut, list(edges)],
                          sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == PINNED[name]

    def test_one_cycle_lp_per_instance(self, monkeypatch):
        calls = []
        real = oracle.cycle_lp

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(oracle, "cycle_lp", counting)
        for name in ("planar0", "torus0", "gap1"):
            del calls[:]
            exact_integral_multiflow(PINNED_INSTANCES[name]())
            assert len(calls) == 1

    def test_node_budget_refused(self):
        inst = generate_gap_family(1)
        with pytest.raises(OracleBudgetExceeded):
            exact_integral_multiflow(inst, OracleBudget(max_nodes=1))

    def test_refusal_is_not_a_failure(self):
        assert issubclass(OracleBudgetExceeded, SurfaceflowError)
        assert not issubclass(OracleBudgetExceeded, InternalInvariantError)


class TestMulticutOracle:
    def test_single_path_cut(self):
        cut, edges = exact_min_multicut(path_instance())
        assert cut == 2
        assert len(edges) == 1

    def test_gap_family_ratio(self):
        inst = generate_gap_family(2)
        cut, edges = exact_min_multicut(inst)
        value, _ = exact_integral_multiflow(inst)
        lp = solve_fractional(inst)
        assert lp.value / value >= 2
        assert value <= lp.value <= cut

    def test_covers_every_cycle(self):
        inst = two_path_instance()
        cut, edges = exact_min_multicut(inst)
        for c in enumerate_d_cycles(inst):
            assert set(c.edges) & set(edges)


class TestWeakDuality:
    @pytest.mark.parametrize("seed", range(6))
    def test_sandwich(self, seed):
        inst = generate_planar_random(12, seed=seed)
        value, flow = exact_integral_multiflow(inst)
        cut, _ = exact_min_multicut(inst)
        lp = solve_fractional(inst)
        flow.verify_feasible()
        assert value == flow.value
        assert value <= lp.value <= cut


# 10-30 edge planar and 3x3 / 3x4 torus instances; the small count budget
# keeps the sweep to a few seconds and is the only reason to skip one
SWEEP = ([(generate_planar_random, dict(size=size, seed=seed))
          for size in (10, 15, 20, 25, 30) for seed in range(10)]
         + [(generate_torus_grid, dict(p=p, q=q, demands=2,
                                       cap_mode="random", seed=seed))
            for p, q in ((3, 3), (3, 4)) for seed in range(6)])
SWEEP_BUDGET = OracleBudget(max_cycles=2000, max_nodes=20000)


def answer(search, *args):
    """``search(*args)``, or the message of its refusal."""
    try:
        return search(*args)
    except OracleBudgetExceeded as exc:
        return str(exc)


def packing_args(inst, doubled) -> tuple:
    """``pack_cycles``' input on every D-cycle of ``inst``, without the
    budget: as ``exact_integral_multiflow`` poses it, or ``doubled`` as
    ``half_integralize`` does (capacities, least capacities and root ``x``
    doubled)."""
    cycles = enumerate_d_cycles(inst)
    caps = inst.caps
    leasts = [c.least for c in cycles]
    root, rows = cycle_lp([c.edges for c in cycles], caps)
    if doubled:
        caps = [2 * u for u in caps]
        leasts = [2 * u for u in leasts]
        root = replace(root, X=[2 * v for v in root.X],
                       value=2 * root.value)
    return cycles, leasts, caps, root, rows


def least_passing(search) -> int:
    """The least ``max_nodes`` at which ``search(budget)`` is not refused."""
    return bisect_left(
        range(oracle.DEFAULT_BUDGET.max_nodes + 1), True,
        key=lambda n: not isinstance(
            answer(search, OracleBudget(max_nodes=n)), str))


@pytest.fixture
def search_budget_only(monkeypatch):
    """Every enumeration runs at the default budget, so the budget handed to
    ``exact_min_multicut`` bounds its search alone."""
    search = oracle._search_d_cycles
    monkeypatch.setattr(oracle, "_search_d_cycles",
                        lambda inst, _: search(inst, oracle.DEFAULT_BUDGET))


# 20-edge planar graphs with 10 demands, where the multicut search branches
# below its root (253, 28 and 38 nodes) and branching in another edge order
# visits another number of nodes
BRANCHING = {
    "planar20-10demands-seed%d" % seed: (
        lambda seed=seed: generate_planar_random(
            20, seed=seed, n_demands=10, cap_mode="random"))
    for seed in (0, 2, 5)}

# the pinned instances and the generator sweep below, for the two searches
SEARCH_SWEEP = {
    **PINNED_INSTANCES,
    **BRANCHING,
    **{"sweep%02d-%s" % (i, gen.__name__.split("_")[1]): (
        lambda gen=gen, kwargs=kwargs: gen(**kwargs))
       for i, (gen, kwargs) in enumerate(SWEEP)},
}


class TestSearchesMatchReference:
    """The packing and multicut searches on the cycles' records against
    their versions that rebuild every cycle's data (``conftest``)."""

    @pytest.mark.parametrize("doubled", [False, True],
                             ids=["oracle", "half-integralize"])
    @pytest.mark.parametrize("name", sorted(SEARCH_SWEEP))
    def test_same_packing(self, name, doubled):
        cycles, leasts, caps, root, rows = packing_args(
            SEARCH_SWEEP[name](), doubled)
        assert answer(pack_cycles, cycles, leasts, caps, root, rows,
                      SWEEP_BUDGET) \
            == answer(reference_pack_cycles, [c.edges for c in cycles],
                      caps, root, rows, SWEEP_BUDGET)

    @pytest.mark.parametrize("name", sorted(SEARCH_SWEEP))
    def test_same_cut(self, name, search_budget_only):
        inst = SEARCH_SWEEP[name]()
        assert answer(exact_min_multicut, inst, SWEEP_BUDGET) \
            == answer(reference_exact_min_multicut, inst, SWEEP_BUDGET)

    @pytest.mark.parametrize("name", sorted(PINNED) + sorted(BRANCHING))
    def test_same_least_budget_and_refusal(self, name, search_budget_only):
        inst = SEARCH_SWEEP[name]()
        cycles, leasts, caps, root, rows = packing_args(inst, False)
        cycle_edges = [c.edges for c in cycles]
        for new, ref in (
                (lambda b: pack_cycles(cycles, leasts, caps, root, rows, b),
                 lambda b: reference_pack_cycles(cycle_edges, caps, root,
                                                 rows, b)),
                (lambda b: exact_min_multicut(inst, b),
                 lambda b: reference_exact_min_multicut(inst, b))):
            n = least_passing(new)
            assert 1 <= n <= oracle.DEFAULT_BUDGET.max_nodes
            enough, short = OracleBudget(max_nodes=n), \
                OracleBudget(max_nodes=n - 1)
            assert answer(new, enough) == answer(ref, enough)
            assert answer(new, short) == answer(ref, short) \
                == "more than %d search nodes" % (n - 1)


class TestGeneratorSweep:
    def test_oracle_sandwich(self):
        solved = 0
        for gen, kwargs in SWEEP:
            inst = gen(**kwargs)
            try:
                opt, _ = exact_integral_multiflow(inst, SWEEP_BUDGET)
                cut, edges = exact_min_multicut(inst, SWEEP_BUDGET)
            except OracleBudgetExceeded:
                continue
            out, report = run(inst, PipelineConfig(verify="full-oracle"))
            assert all(c["ok"] for c in report["checks"]), kwargs
            assert report["oracle"]["value"] == opt
            lp = rat(report["stages"]["lp"]["value"])
            assert out.value <= opt <= lp <= cut, kwargs
            assert all(set(c.edges) & set(edges)
                       for c in enumerate_d_cycles(inst))
            solved += 1
        assert solved >= 0.9 * len(SWEEP)


# unit capacities and 6-10 demands reach reduce_to_unit's residual halves,
# which random capacities with 3 demands never do; the last three have an
# optimal restricted-LP vertex that is not half-integral
UNIT_SWEEP = ([(size, demands, seed) for size in (20, 40, 60)
               for demands in (6, 8, 10) for seed in range(30)]
              + [(60, 6, 11), (120, 6, 26), (20, 8, 39)])


@pytest.fixture(scope="module")
def unit_sweep():
    """Every ``UNIT_SWEEP`` run at ``verify=invariants``: the runs, the unit
    reductions that reached residual halves, the packing count, and the
    flows with the answers of ``discretize`` and ``split_support``."""
    runs, reductions, packings = [], [], [0]
    seen = {"discretize": [], "split": []}
    reduce_to_unit = round_separating.reduce_to_unit
    pack_cycles = round_separating.pack_cycles
    discretize, split_support = uncross.discretize, pipeline.split_support

    def keeping_reduce(flow):
        red = reduce_to_unit(flow)
        if red.residual:
            reductions.append(red)
        return red

    def counting_pack(*args):
        packings[0] += 1
        return pack_cycles(*args)

    def keeping_discretize(flow, epsilon):
        got = discretize(flow, epsilon)
        seen["discretize"].append((flow, epsilon, got))
        return got

    def keeping_split(flow):
        got = split_support(flow)
        seen["split"].append((flow, got))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(round_separating, "reduce_to_unit", keeping_reduce)
        mp.setattr(round_separating, "pack_cycles", counting_pack)
        mp.setattr(uncross, "discretize", keeping_discretize)
        mp.setattr(pipeline, "split_support", keeping_split)
        for size, demands, seed in UNIT_SWEEP:
            inst = generate_planar_random(size, seed=seed, n_demands=demands,
                                          cap_mode="unit")
            runs.append(((size, demands, seed),
                         *run(inst, PipelineConfig(verify="invariants"))))
    return runs, reductions, packings[0], seen


class TestUnitCapacitySweep:
    def test_pipeline_checks_hold(self, unit_sweep):
        runs, reductions, packings, _ = unit_sweep
        for key, out, report in runs:
            assert all(c["ok"] for c in report["checks"]), key
            assert out.value <= rat(report["stages"]["lp"]["value"])
        assert packings >= 3
        assert len(reductions) >= 0.15 * len(UNIT_SWEEP)

    def test_cycle_records_are_derived(self, unit_sweep):
        """Every cycle of the flows the sweep decomposes, splits after
        uncrossing, or outputs, all made by ``from_darts``."""
        runs, _, _, seen = unit_sweep
        flows = ([flow for flow, _, _ in seen["discretize"]]
                 + [flow for flow, _ in seen["split"]]
                 + [out for _, out, _ in runs])
        for flow in flows:
            for c in flow.values:
                assert_cycle_fields(c, flow.instance.caps)

    def test_strand_pairs_are_the_unit_intersections(self, unit_sweep):
        # the coloring's adjacency, read off the strand pairs, is the
        # intersection graph of the re-routed cycles on the unit map
        _, reductions, _, _ = unit_sweep
        for red in reductions:
            _, cycles = reference_unit_map(red)
            assert red.adjacency() == intersection_adjacency(cycles)

    def test_int_flows_match_the_fraction_reference(self, unit_sweep):
        """Every flow the sweep discretizes, splits or outputs, against the
        ``Fraction`` flow's operations."""
        runs, _, _, seen = unit_sweep
        assert len(seen["discretize"]) == len(seen["split"]) == len(runs)
        for flow, epsilon, (counts, quantum) in seen["discretize"]:
            values = amounts(flow)
            want, want_quantum = reference_discretize(flow.instance, values,
                                                      epsilon)
            assert list(counts.items()) == list(want.items())
            assert QQ(*quantum) == want_quantum
            back = multiset_to_flow(flow.instance, counts, quantum)
            assert amounts(back) == reference_multiset_to_flow(
                want, want_quantum)
            assert_flow_matches_reference(flow)
            assert_flow_matches_reference(back)
        for flow, (_, sep_v, _, nonsep_v) in seen["split"]:
            assert (QQ(sum(sep_v), flow.denom),
                    QQ(sum(nonsep_v), flow.denom)) \
                == reference_split_totals(flow.instance, amounts(flow))
        for _, out, _ in runs:
            assert_flow_matches_reference(out)
