"""End-to-end acceptance criteria.

Each test checks one quantitative guarantee across the relevant corpus and
prints a single PASS/FAIL line on the real terminal (bypassing capture), so
a full run yields one line per criterion.
"""

import random
import time

from conftest import is_dual_cut, multiset_value, separates
from test_uncross import (four_crossings_fixture, three_crossings_fixture,
                          two_crossings_fixture)

from surfaceflow.errors import OracleBudgetExceeded
from surfaceflow.flows import solve_and_decompose, solve_fractional
from surfaceflow.instances import (generate_gap_family,
                                   generate_planar_random,
                                   generate_torus_grid)
from surfaceflow.lp import solve_lp
from surfaceflow.oracle import (OracleBudget, enumerate_d_cycles,
                                exact_integral_multiflow, exact_min_multicut)
from surfaceflow.pipeline import run
from surfaceflow.rational import QQ, ZERO, rat
from surfaceflow.round_nonseparating import (check_cyclic_order,
                                             class_cross_adjacency,
                                             greedy_values, improved_g2,
                                             select_class_and_round)
from surfaceflow.round_separating import (color_limit, degeneracy_coloring,
                                          heawood_bound, round_separating)
from surfaceflow.topology import (classify_homotopy, freely_homotopic,
                                  split_support)
from surfaceflow.uncross import (cr, crossings, discretize, uncross_all,
                                 uncross_flow)

EPSILON = rat("1/2")


def _verdict(capsys, criterion: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        print("ACCEPTANCE %-38s %s%s"
              % (criterion, "PASS" if ok else "FAIL",
                 " (" + detail + ")" if detail else ""))
    assert ok, criterion


def random_suite():
    """Mixed corpus: genus 0 to 2, at most 40 edges, varied capacities."""
    instances = []
    for seed in range(60):
        instances.append(generate_planar_random(
            10 + seed % 8, seed=seed,
            cap_mode="random" if seed % 2 else "unit"))
    for seed in range(25):
        instances.append(generate_torus_grid(
            3, 3, 1 + seed % 2, cap_mode="random" if seed % 2 else "unit",
            seed=seed))
    for seed in range(15):
        instances.append(generate_torus_grid(
            3, 3, [(0, 4), (1, 5)], cap_mode="random", seed=seed))
    assert len(instances) >= 100
    assert all(len(i.graph.edges) <= 40 and i.graph.genus <= 2
               for i in instances)
    return instances


class TestAcceptance:
    def test_1_gap_family(self, capsys):
        ok = True
        details = []
        for n in (1, 2, 3):
            start = time.monotonic()
            inst = generate_gap_family(n)
            lp = solve_fractional(inst)
            ok &= lp.value >= n
            if n <= 2:
                opt, _ = exact_integral_multiflow(inst)
                ok &= opt == 1
            flow, _ = run(inst)
            ok &= flow.value >= 1
            elapsed = time.monotonic() - start
            ok &= elapsed < 30
            details.append("n=%d lp=%s %.1fs" % (n, lp.value, elapsed))
        _verdict(capsys, "1 gap family LP/OPT/pipeline", ok,
                 "; ".join(details))

    def test_2_uncrossing(self, capsys):
        ok = True
        count = 0
        for inst in random_suite():
            flow, sol = solve_and_decompose(inst)
            counts, quantum = discretize(flow, EPSILON)
            counts, steps = uncross_all(inst, counts, check_invariants=True)
            cycles = sorted(counts, key=lambda c: c.darts)
            for i, ci in enumerate(cycles):
                for cj in cycles[i + 1:]:
                    ok &= cr(inst.graph, ci.darts, cj.darts) <= 1
            ok &= multiset_value(counts, quantum) >= \
                (1 - EPSILON) * sol.value
            ok &= all(steps[k + 1] < steps[k] for k in range(len(steps) - 1))
            count += 1
        _verdict(capsys, "2 uncrossing cr<=1, value, potential", ok,
                 "%d instances" % count)

    def test_3_crossing_oracle(self, capsys):
        ok = True
        for build, expected in ((three_crossings_fixture, 3),
                                (four_crossings_fixture, 4),
                                (two_crossings_fixture, 2)):
            first, _lookup, c1, c2, *_rest = build()
            graph = first.graph if hasattr(first, "graph") else first
            ok &= len(crossings(graph, c1, c2)) == expected
            ok &= cr(graph, c1, c2) == expected
        parity_pairs = 0
        for inst in random_suite()[:40]:
            flow, _ = solve_and_decompose(inst)
            fbar = uncross_flow(flow, EPSILON)
            support = fbar.support()
            for i, ci in enumerate(support):
                for cj in support:
                    if ci is cj:
                        continue
                    if separates(inst.graph, cj.darts):
                        ok &= len(crossings(inst.graph, ci.darts,
                                            cj.darts)) % 2 == 0
                        parity_pairs += 1
        _verdict(capsys, "3 crossing counts and parity", ok,
                 "%d parity pairs" % parity_pairs)

    def test_4_separating_branch(self, capsys):
        ok = True
        runs = 0
        for inst in random_suite():
            flow, _ = solve_and_decompose(inst)
            fbar = uncross_flow(flow, EPSILON)
            sep, sep_v, _, _ = split_support(fbar)
            if not sep:
                continue
            rounding = round_separating(fbar.restrict(sep))
            sep_total = QQ(sum(sep_v), fbar.denom)
            c = color_limit(inst.graph.genus)
            ok &= 2 * rounding.half.value >= sep_total
            ok &= c * rounding.integral.value >= 2 * rounding.half.value
            if inst.graph.genus >= 1:
                ok &= rounding.colors_used <= heawood_bound(inst.graph.genus)
            else:
                ok &= rounding.colors_used <= 5
            runs += 1
        ok &= heawood_bound(1) == 7 and heawood_bound(2) == 8
        _verdict(capsys, "4 separating rounding bounds", ok,
                 "%d roundings" % runs)

    def test_5_nonseparating_branch(self, capsys):
        ok = True
        # tightness families
        for k in (2, 3, 5):
            sets = [({"e1"} if i < k else set())
                    | ({"e2"} if i >= k or i == 0 else set())
                    for i in range(2 * k - 1)]
            vals = greedy_values(sets, {"e1": k, "e2": k})
            ok &= sum(vals) == k
        # random ordered families: greedy >= half of the family LP
        rng = random.Random(11)
        for _ in range(100):
            kk = rng.randint(3, 8)
            sets = [{("own", i)} for i in range(kk)]
            caps = {("own", i): rng.randint(1, 5) for i in range(kk)}
            for e in range(rng.randint(1, 2 * kk)):
                start = rng.randrange(kk)
                for t in range(rng.randint(1, kk)):
                    sets[(start + t) % kk].add(("arc", e))
                caps[("arc", e)] = rng.randint(1, 4)
            ok &= check_cyclic_order(sets)
            cols = sorted({e for es in sets for e in es})
            lp = solve_lp([1] * kk,
                          [{i: 1 for i, es in enumerate(sets) if e in es}
                           for e in cols],
                          [caps[e] for e in cols])
            ok &= 2 * sum(greedy_values(sets, caps)) >= lp.value
        # the classification's cyclic orders satisfy the arc property
        # (greedy checks it again)
        orders = 0
        for inst in random_suite():
            flow, _ = solve_and_decompose(inst)
            fbar = uncross_flow(flow, EPSILON)
            _, _, nonsep, nonsep_v = split_support(fbar)
            if not nonsep:
                continue
            cls = classify_homotopy(inst.graph, nonsep, nonsep_v)
            for members in cls.classes:
                ok &= check_cyclic_order([nonsep[i].edges for i in members])
                orders += 1
        _verdict(capsys, "5 cyclic order and greedy half", ok,
                 "%d emitted orders" % orders)

    def test_6_homotopy_classification(self, capsys):
        inst = generate_torus_grid(4, 4, [(0, 5)], cap_mode="unit")
        g = inst.graph
        meridians = [tuple(2 * (16 + 4 * i + j) for i in range(4))
                     for j in range(4)]
        longitude = tuple(2 * (4 * 0 + j) for j in range(4))
        ok = True
        for i in range(4):
            for j in range(i + 1, 4):
                ok &= freely_homotopic(g, meridians[i], meridians[j])
                sym = {d >> 1 for d in meridians[i]} ^ \
                    {d >> 1 for d in meridians[j]}
                ok &= is_dual_cut(g, sym)
        for m in meridians:
            ok &= not freely_homotopic(g, m, longitude)
        # transitivity over all triples
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    hab = freely_homotopic(g, meridians[a], meridians[b])
                    hbc = freely_homotopic(g, meridians[b], meridians[c])
                    hac = freely_homotopic(g, meridians[a], meridians[c])
                    ok &= (not (hab and hbc)) or hac
        _verdict(capsys, "6 homotopy classes on torus", ok)

    def test_7_oracle_sandwich(self, capsys):
        ok = True
        solved = 0
        ratios = []
        seed = 0
        while solved < 50 and seed < 200:
            inst = generate_planar_random(8 + seed % 5, seed=seed)
            seed += 1
            try:
                cycles = enumerate_d_cycles(inst,
                                            OracleBudget(max_cycles=10))
            except OracleBudgetExceeded:
                continue
            if not cycles:
                continue
            opt, _ = exact_integral_multiflow(inst)
            cut, _ = exact_min_multicut(inst)
            lp = solve_fractional(inst)
            flow, _ = run(inst)
            ok &= flow.value <= opt <= lp.value <= cut
            if opt > 0:
                ratios.append(rat(cut) / rat(opt))
            solved += 1
        ok &= solved >= 50
        worst = max(ratios) if ratios else ZERO
        _verdict(capsys, "7 pipeline <= OPT <= LP <= multicut", ok,
                 "%d instances, worst cut/OPT %s" % (solved, worst))

    def test_8_improved_rounding(self, capsys):
        ok = True
        runs = 0
        for inst in random_suite():
            flow, _ = solve_and_decompose(inst)
            fbar = uncross_flow(flow, EPSILON)
            _, _, nonsep, nonsep_v = split_support(fbar)
            if not nonsep:
                continue
            cls = classify_homotopy(inst.graph, nonsep, nonsep_v)
            out = improved_g2(fbar, cls)
            out.verify_feasible()           # against original capacities
            reps = [nonsep[members[0]] for members in cls.classes]
            color = degeneracy_coloring(
                class_cross_adjacency(inst.graph, reps))
            totals = {}
            for i, c in enumerate(color):
                totals[c] = totals.get(c, ZERO) + cls.totals[i]
            best = max(sorted(totals), key=lambda c: (totals[c], -c))
            for i, members in enumerate(cls.classes):
                if color[i] != best:
                    continue
                value = QQ(sum(out.values.get(nonsep[j], 0)
                               for j in members), out.denom)
                # kept-class loss <= 2
                ok &= 2 * value >= QQ(cls.totals[i], fbar.denom) - 2
            if len(cls.classes) == 1:
                sel = select_class_and_round(fbar, cls)
                ok &= out.value >= sel.value - 2
            runs += 1
        ok &= runs > 0
        _verdict(capsys, "8 improved rounding feasibility/loss", ok,
                 "%d instances" % runs)
