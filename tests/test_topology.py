from collections import Counter

import pytest

from conftest import (DENSE_TORUS_SUPPORTS, TORUS_SUPPORTS, cyclic_equal,
                      is_dual_cut, planar_grid_map, reference_classify_homotopy,
                      reference_cyclic_order, reference_extreme_pair,
                      separates, torus_dcycles, torus_grid_map,
                      torus_pool_supports, torus_support, triangle_map)
from surfaceflow import topology
from surfaceflow.errors import InternalInvariantError, PreconditionError
from surfaceflow.flows import solve_and_decompose
from surfaceflow.instances import generate_planar_random
from surfaceflow.rational import rat
from surfaceflow.surface import (CutComplex, cut_along, disjointify,
                                 face_components)
from surfaceflow.topology import (OUTER_FACE, classify_homotopy,
                                  freely_homotopic, homology_class,
                                  homology_signatures, inside_faces,
                                  laminar_family, split_support)
from surfaceflow.uncross import cr, uncross_flow


def meridian(j, p=4, q=4):
    """Column cycle of the p x q torus grid (down edges of column j)."""
    return tuple(2 * (p * q + q * i + j) for i in range(p))


def longitude(i, p=4, q=4):
    """Row cycle of the torus grid (right edges of row i)."""
    return tuple(2 * (q * i + j) for j in range(q))


def grid_cycle(graph, route):
    by_ends = {}
    for e, (u, v) in enumerate(graph.edges):
        by_ends[(u, v)] = 2 * e
        by_ends[(v, u)] = 2 * e + 1
    return tuple(by_ends[(route[i], route[(i + 1) % len(route)])]
                 for i in range(len(route)))


def separating(graph, darts) -> bool:
    """Separation as the package decides it: Z2-homology class 0, checked
    against the dual-cut reference."""
    flag = homology_class(homology_signatures(graph), darts) == 0
    assert flag == separates(graph, darts)
    return flag


class TestIsSeparating:
    def test_face_boundary_separating(self):
        g = triangle_map()
        c = grid_cycle(g, [0, 1, 2])
        assert separating(g, c)
        inside = inside_faces(g, c)
        assert OUTER_FACE not in inside
        assert len(inside) == 1

    def test_planar_cycles_always_separating(self):
        g = planar_grid_map(3, 3)
        for route in ([0, 1, 4, 3], [0, 1, 2, 5, 8, 7, 6, 3],
                      [1, 2, 5, 4]):
            c = grid_cycle(g, route)
            assert separating(g, c)
            assert 0 < len(inside_faces(g, c)) < len(g.faces)

    def test_torus_meridian_not_separating(self):
        g = torus_grid_map(4, 4)
        assert not separating(g, meridian(0))

    def test_torus_contractible_cycle_separating(self):
        g = torus_grid_map(4, 4)
        assert separating(g, grid_cycle(g, [0, 1, 5, 4]))


class TestLaminarFamily:
    def test_nested_chain(self):
        g = planar_grid_map(4, 4)
        inner = grid_cycle(g, [5, 6, 10, 9])
        outer = grid_cycle(g, [5, 6, 7, 11, 15, 14, 13, 9])
        insides = laminar_family(g, [inner, outer])
        assert insides[0] < insides[1]

    def test_disjoint_antichain(self):
        g = planar_grid_map(4, 4)
        a = grid_cycle(g, [4, 5, 9, 8])
        b = grid_cycle(g, [6, 7, 11, 10])
        insides = laminar_family(g, [a, b])
        assert not (insides[0] & insides[1])

    def test_not_separating_rejected(self):
        g = torus_grid_map(4, 4)
        with pytest.raises(PreconditionError):
            inside_faces(g, meridian(0))


class TestDualCut:
    def test_separating_cycle_is_dual_cut(self):
        g = planar_grid_map(3, 3)
        c = grid_cycle(g, [0, 1, 4, 3])
        assert is_dual_cut(g, {d >> 1 for d in c})

    def test_meridian_is_not_dual_cut(self):
        g = torus_grid_map(4, 4)
        assert not is_dual_cut(g, {d >> 1 for d in meridian(0)})

    def test_union_of_homotopic_disjoint_pair_is_simple_dual_cut(self):
        g = torus_grid_map(4, 4)
        union = {d >> 1 for d in meridian(0)} | {d >> 1 for d in meridian(2)}
        assert is_dual_cut(g, union)
        assert max(face_components(g, union)) == 1


class TestFreeHomotopy:
    def test_parallel_meridians(self):
        g = torus_grid_map(4, 4)
        assert freely_homotopic(g, meridian(0), meridian(2))
        assert freely_homotopic(g, meridian(0), meridian(1))

    def test_meridian_vs_longitude(self):
        g = torus_grid_map(4, 4)
        assert not freely_homotopic(g, meridian(0), longitude(0))

    def test_equal_cycles(self):
        g = torus_grid_map(4, 4)
        rev = tuple(d ^ 1 for d in reversed(meridian(1)))
        assert freely_homotopic(g, meridian(1), rev)

    def test_equal_staircases(self):
        # the cycle runs one right edge against its slot order, so the
        # two copies' band order flips there
        g = torus_grid_map(4, 4)
        stair = grid_cycle(g, [0, 4, 5, 9, 13, 12])
        rev = tuple(d ^ 1 for d in reversed(stair))
        assert freely_homotopic(g, stair, stair)
        assert freely_homotopic(g, stair, rev)
        assert freely_homotopic(g, stair, meridian(2))
        assert not freely_homotopic(g, stair, longitude(2))

    def test_transitivity_on_meridians(self):
        g = torus_grid_map(4, 4)
        ms = [meridian(j) for j in range(4)]
        for a in ms:
            for b in ms:
                assert freely_homotopic(g, a, b)

    def test_symmetric_difference_is_dual_cut(self):
        g = torus_grid_map(4, 4)
        e0 = {d >> 1 for d in meridian(0)}
        e2 = {d >> 1 for d in meridian(2)}
        assert is_dual_cut(g, e0 ^ e2)


class TestClassify:
    def test_two_classes_on_torus(self):
        g = torus_grid_map(4, 4)
        cycles = torus_dcycles(meridian(0), meridian(1), longitude(0))
        got = classify_homotopy(g, cycles, [rat(1), rat(2), rat(4)])
        assert got.classes == ((2,), (0, 1))
        assert got.totals == (rat(4), rat(3))
        # two meridians cut the torus into two annuli: their chain closes
        assert got.ends == ((2, 2), None)

    def test_single_cycle(self):
        g = torus_grid_map(4, 4)
        got = classify_homotopy(g, torus_dcycles(meridian(0)), [rat(1)])
        assert got.classes == ((0,),)

    def test_no_two_classified_cycles_cross(self):
        g = torus_grid_map(4, 4)
        cycles = torus_dcycles(meridian(0), meridian(2), longitude(1))
        got = classify_homotopy(g, cycles, [rat(1)] * 3)
        for cls in got.classes:
            for i in cls:
                for j in cls:
                    if i != j:
                        assert cr(g, cycles[i].darts, cycles[j].darts) == 0


class TestHomologySignatures:
    def test_torus_grid_classes(self):
        g = torus_grid_map(4, 4)
        sig = homology_signatures(g)
        m0, m1, m2 = (homology_class(sig, meridian(j)) for j in (0, 1, 2))
        l0, l3 = homology_class(sig, longitude(0)), \
            homology_class(sig, longitude(3))
        assert m0 and l0 and m0 != l0
        assert m0 == m1 == m2 and l0 == l3
        assert homology_class(sig, grid_cycle(g, [0, 1, 5, 4])) == 0
        assert homology_class(sig, grid_cycle(g, [5, 6, 7, 11, 10, 9])) == 0

    def test_two_bits_per_handle(self):
        for g in (planar_grid_map(3, 4), torus_grid_map(3, 5)):
            sig = homology_signatures(g)
            assert len(sig) == len(g.edges)
            combined = 0
            for h in sig:
                combined |= h
            assert combined == (1 << 2 * g.genus) - 1

    @pytest.mark.parametrize("name", TORUS_SUPPORTS)
    def test_class_zero_iff_separating(self, name):
        inst, flow = torus_support(name)
        sig = homology_signatures(inst.graph)
        for c in flow.support():
            assert (homology_class(sig, c.darts) == 0) == \
                separates(inst.graph, c.darts)

    @pytest.mark.parametrize("name", TORUS_SUPPORTS + DENSE_TORUS_SUPPORTS)
    def test_homologous_cycles_never_cross(self, name):
        # the Z2 intersection form is alternating, so homologous cycles
        # cross an even number of times, and uncrossing left at most one
        inst, flow = torus_support(name)
        _, _, nonsep, _ = split_support(flow)
        sig = homology_signatures(inst.graph)
        for i, a in enumerate(nonsep):
            for b in nonsep[i + 1:]:
                if homology_class(sig, a.darts) == homology_class(sig,
                                                                  b.darts):
                    assert cr(inst.graph, a.darts, b.darts) == 0

    @pytest.mark.parametrize("name", TORUS_SUPPORTS + DENSE_TORUS_SUPPORTS)
    def test_bucketed_classes_match_all_pairs(self, name):
        inst, flow = torus_support(name)
        _, _, nonsep, nonsep_v = split_support(flow)
        got = classify_homotopy(inst.graph, nonsep, nonsep_v)
        assert {tuple(sorted(c)) for c in got.classes} == \
            reference_classify_homotopy(inst.graph, nonsep)
        assert got.cycles == tuple(nonsep)

    @pytest.mark.parametrize("name", TORUS_SUPPORTS + DENSE_TORUS_SUPPORTS)
    def test_one_cut_per_homology_class(self, name, monkeypatch):
        inst, flow = torus_support(name)
        _, _, nonsep, nonsep_v = split_support(flow)
        sig = homology_signatures(inst.graph)
        sizes = Counter(homology_class(sig, c.darts) for c in nonsep)
        calls = {"disjointify": [], "cut_along": []}
        for fn in calls:
            real = getattr(topology, fn)

            def counting(graph, family, _real=real, _seen=calls[fn]):
                _seen.append(len(family))
                return _real(graph, family)

            monkeypatch.setattr(topology, fn, counting)

        def forbidden(*args):
            raise AssertionError("pairwise test in the classification")

        monkeypatch.setattr(topology, "freely_homotopic", forbidden)
        monkeypatch.setattr(topology, "cr", forbidden)
        classify_homotopy(inst.graph, nonsep, nonsep_v)
        want = sorted(k for k in sizes.values() if k > 1)
        assert sorted(calls["disjointify"]) == want
        assert sorted(calls["cut_along"]) == want


POOL_SUPPORTS = 20
# seed-2 ``torus`` pool instances with a class strictly inside its homology
# class: at 58 (genus 5) class [10, 12] of [10, 12, 14], at 93 (genus 4)
# class [1, 2] of [1, 2, 8]
INSIDE_SUPPORTS = (58, 93)


def supports_to_pin():
    """The named supports, the first seed-1 ``torus`` pool supports and
    the ``INSIDE_SUPPORTS``."""
    yield from (torus_support(name)
                for name in TORUS_SUPPORTS + DENSE_TORUS_SUPPORTS)
    yield from torus_pool_supports(tuple(range(POOL_SUPPORTS)))
    yield from torus_pool_supports(INSIDE_SUPPORTS, seed=2)


class TestClassOrderAndEnds:
    def test_against_each_class_cut_alone(self):
        """Each class of two or more cycles, cut alone in ascending index
        order as the rounding once cut it, has the order and the end pair
        of the classification; exactly so where the class is its whole
        homology class, up to rotation and reflection otherwise."""
        whole = inside = 0
        for inst, flow in supports_to_pin():
            _, _, nonsep, nonsep_v = split_support(flow)
            got = classify_homotopy(inst.graph, nonsep, nonsep_v)
            sig = homology_signatures(inst.graph)
            sizes = Counter(homology_class(sig, c.darts) for c in nonsep)
            for members, ends in zip(got.classes, got.ends):
                if len(members) < 2:
                    assert ends == (members[0], members[0])
                    continue
                assert members[0] == min(members)
                family = sorted(members)
                cut = cut_along(*disjointify(
                    inst.graph, [nonsep[i].darts for i in family]))
                pair = reference_extreme_pair(cut)
                assert ends == (None if pair is None
                                else tuple(family[k] for k in pair))
                order = [family[k] for k in reference_cyclic_order(cut)]
                if sizes[homology_class(sig, nonsep[members[0]].darts)] \
                        == len(members):
                    assert list(members) == order
                    whole += 1
                else:
                    assert cyclic_equal(members, order)
                    inside += 1
        assert whole > 0 and inside > 0

    def test_walk_refuses_a_revisit(self):
        # a malformed annulus table that leads the walk back to cycle 1
        cut = CutComplex((), {(0, 0): 0, (0, 1): 1})
        across = {(0, 0): (1, 0), (1, 1): (2, 0), (2, 1): (1, 1)}
        with pytest.raises(InternalInvariantError, match="revisits"):
            topology._walk(cut, across, 0, set())

    def test_classes_must_partition_the_cycles(self, monkeypatch):
        g = torus_grid_map(4, 4)
        cycles = torus_dcycles(meridian(0), meridian(2))
        # every walk claims cycle 0 and none claims cycle 1
        monkeypatch.setattr(topology, "_walk",
                            lambda cut, across, start, seen: ([0], None))
        with pytest.raises(InternalInvariantError, match="partition"):
            classify_homotopy(g, cycles, [rat(1)] * 2)


class TestSplitSupport:
    @pytest.mark.parametrize("seed", range(4))
    def test_planar_support_all_separating_and_non_crossing(self, seed):
        inst = generate_planar_random(10, seed=seed, n_demands=3)
        flow, _ = solve_and_decompose(inst)
        if flow.value == 0:
            return
        out = uncross_flow(flow, rat("1/2"))
        sep, sep_v, nonsep, _ = split_support(out)
        assert not nonsep  # genus 0: every cycle is separating
        # crossing parity with separating cycles is even, and uncrossing
        # capped pairwise crossings at 1, so the family is non-crossing
        for i, a in enumerate(sep):
            for b in sep[i + 1:]:
                assert cr(inst.graph, a.darts, b.darts) == 0
        laminar_family(inst.graph, [c.darts for c in sep])
