import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfaceflow.errors import (InternalInvariantError, PreconditionError,
                                StructuralError)
from surfaceflow.surface import (EmbeddedGraph, add_chord_lists, cut_along,
                                 disjointify, expand_edge_lists, split_face,
                                 split_vertex_lists, trace_faces,
                                 working_lists)

from conftest import (TORUS_SUPPORTS, canonical_form, dual, is_disk,
                      maps_isomorphic, planar_grid_map, reference_disjointify,
                      surgery_step, torus_bouquet, torus_grid_map,
                      torus_support, triangle_map)
from surfaceflow.topology import classify_homotopy, split_support


class TestConstruction:
    def test_triangle(self):
        g = triangle_map()
        assert len(g.faces) == 2
        assert g.genus == 0
        # every dart in exactly one face
        assert sorted(d for f in g.faces for d in f) == list(range(6))

    def test_torus_bouquet(self):
        g = torus_bouquet()
        assert len(g.faces) == 1
        assert g.genus == 1

    def test_torus_grid(self):
        g = torus_grid_map(3, 4)
        assert g.n == 12 and len(g.edges) == 24
        assert len(g.faces) == 12
        assert g.genus == 1

    def test_planar_grid(self):
        g = planar_grid_map(3, 3)
        assert g.genus == 0
        assert len(g.faces) == 5  # 4 squares + outer face

    def test_dart_listed_twice(self):
        with pytest.raises(StructuralError):
            EmbeddedGraph(3, [(0, 1), (1, 2), (2, 0)],
                          [[0, 5, 0], [2, 1], [4, 3]])

    def test_dart_at_wrong_vertex(self):
        with pytest.raises(StructuralError):
            EmbeddedGraph(3, [(0, 1), (1, 2), (2, 0)],
                          [[0, 5], [1, 2], [3, 4]][::-1])

    def test_missing_dart(self):
        with pytest.raises(StructuralError):
            EmbeddedGraph(3, [(0, 1), (1, 2), (2, 0)],
                          [[0], [2, 1], [4, 3]])

    def test_disconnected(self):
        with pytest.raises(StructuralError):
            EmbeddedGraph(4, [(0, 1), (2, 3)], [[0], [1], [2], [3]])


class TestDual:
    @pytest.mark.parametrize("builder", [triangle_map, torus_bouquet,
                                         lambda: torus_grid_map(3, 3),
                                         lambda: planar_grid_map(3, 4)])
    def test_genus_preserved(self, builder):
        g = builder()
        d = dual(g)
        assert d.genus == g.genus
        assert len(d.edges) == len(g.edges)
        assert d.n == len(g.faces)
        assert len(d.faces) == g.n

    @pytest.mark.parametrize("builder", [triangle_map, torus_bouquet,
                                         lambda: torus_grid_map(3, 3),
                                         lambda: planar_grid_map(2, 3)])
    def test_double_dual_isomorphic(self, builder):
        g = builder()
        dd = dual(dual(g))
        assert maps_isomorphic(g, dd)

    def test_triangle_dual_shape(self):
        d = dual(triangle_map())
        assert d.n == 2
        assert all(set(e) == {0, 1} for e in d.edges)


class TestCanonicalForm:
    def test_relabelled_torus(self):
        g = torus_grid_map(2, 3)
        # relabel vertices by a rotation of the grid; same map
        perm = [(v + 3) % 6 for v in range(6)]
        edges = [(perm[u], perm[v]) for u, v in g.edges]
        rotation = [None] * 6
        for v in range(6):
            rotation[perm[v]] = list(g.rotation[v])
        h = EmbeddedGraph(6, edges, rotation)
        assert maps_isomorphic(g, h)

    def test_different_maps_differ(self):
        assert canonical_form(triangle_map()) != canonical_form(torus_bouquet())


def meridian(g, p, q, col):
    """Vertical cycle of a p x q torus grid through column ``col``."""
    darts = []
    for i in range(p):
        e = p * q + i * q + col  # down edge (i, col)
        darts.append(2 * e)
    return darts


class TestCutAlong:
    def test_torus_meridian_is_annulus(self):
        g = torus_grid_map(3, 3)
        cut = cut_along(g, [meridian(g, 3, 3, 0)])
        assert len(cut.components) == 1
        comp = cut.components[0]
        assert comp.chi == 0 and len(comp.boundary) == 2
        assert comp.is_annulus

    def test_two_meridians_two_annuli(self):
        g = torus_grid_map(3, 3)
        cut = cut_along(g, [meridian(g, 3, 3, 0), meridian(g, 3, 3, 1)])
        assert len(cut.components) == 2
        assert all(c.is_annulus for c in cut.components)
        # each component sees one side of each cycle
        for comp in cut.components:
            assert comp.boundary_cycles == {0, 1}

    def test_separating_triangle_gives_disks(self):
        g = triangle_map()
        cut = cut_along(g, [[0, 2, 4]])
        assert len(cut.components) == 2
        assert all(is_disk(c) for c in cut.components)

    def test_grid_face_cycle(self):
        g = planar_grid_map(3, 3)
        # cycle around the top-left unit square: vertices 0,1,4,3
        route = _square_cycle(g)
        cut = cut_along(g, [route])
        assert len(cut.components) == 2
        chis = sorted(c.chi for c in cut.components)
        assert sum(chis) == 2
        assert all(is_disk(c) for c in cut.components)

    def test_euler_sum_invariant(self):
        g = torus_grid_map(4, 4)
        cut = cut_along(g, [meridian(g, 4, 4, 0), meridian(g, 4, 4, 2)])
        assert sum(c.chi for c in cut.components) == 2 - 2 * g.genus

    @pytest.mark.parametrize("cols", [(0, 2), (0, 1, 2, 3), (1, 2, 3)])
    def test_components_numbered_by_smallest_face(self, cols):
        g = torus_grid_map(4, 4)
        cycles = [meridian(g, 4, 4, c) for c in cols]
        cut = cut_along(g, cycles)
        smallest = [min(c.faces) for c in cut.components]
        assert smallest == sorted(smallest) and smallest[0] == 0
        for (i, side), k in cut.side_component.items():
            darts = cycles[i] if side == 0 else [d ^ 1 for d in cycles[i]]
            assert {g.face_of[d] for d in darts} <= cut.components[k].faces

    def test_rejects_sharing_cycles(self):
        g = torus_grid_map(3, 3)
        with pytest.raises(PreconditionError):
            cut_along(g, [meridian(g, 3, 3, 0), meridian(g, 3, 3, 0)])


def _square_cycle(g):
    """Dart cycle 0 -> 1 -> 4 -> 3 -> 0 in a 3x3 planar grid."""
    want = [(0, 1), (1, 4), (4, 3), (3, 0)]
    darts = []
    for u, v in want:
        for e, (a, b) in enumerate(g.edges):
            if (a, b) == (u, v):
                darts.append(2 * e)
                break
            if (b, a) == (u, v):
                darts.append(2 * e + 1)
                break
    assert len(darts) == 4
    return darts


class TestSurgery:
    def test_split_vertex_preserves_genus(self):
        g = torus_grid_map(3, 3)
        rot = g.rotation[4]
        h, _ = surgery_step(g, split_vertex_lists, 4, list(rot[1:3]))
        assert h.n == g.n + 1
        assert len(h.edges) == len(g.edges) + 1
        assert h.genus == g.genus
        assert h.degree(4) == 3 and h.degree(g.n) == 3

    def test_split_vertex_rejects_bad_arc(self):
        g = torus_grid_map(3, 3)
        rot = g.rotation[4]
        with pytest.raises(PreconditionError):
            surgery_step(g, split_vertex_lists, 4, [rot[0], rot[2]])
        with pytest.raises(PreconditionError):
            surgery_step(g, split_vertex_lists, 4, list(rot))

    def test_expand_edge(self):
        g = triangle_map()
        h, ids = surgery_step(g, expand_edge_lists, 0, 3)
        assert ids == [0, 3, 4]
        assert h.genus == 0
        assert len(h.faces) == len(g.faces) + 2
        assert all(h.edges[e] == g.edges[0] for e in ids)

    def test_expand_loop(self):
        g = torus_bouquet()
        h, ids = surgery_step(g, expand_edge_lists, 0, 2)
        assert h.genus == 1
        assert len(h.edges) == 3

    def test_expand_loop_band_order(self):
        # both darts of the loop sit at vertex 0; the slot-1 block goes in
        # where dart 1 is found after the slot-0 block has been inserted
        g = torus_bouquet()
        h, ids = surgery_step(g, expand_edge_lists, 0, 3)
        assert ids == [0, 2, 3]
        assert h.edges == ((0, 0),) * 4
        assert h.rotation == ((0, 4, 6, 2, 7, 5, 1, 3),)
        assert len(h.faces) == len(g.faces) + 2
        assert g.rotation == ((0, 2, 1, 3),)

    def test_add_chord(self):
        g = triangle_map()
        face = g.faces[0]
        h, e = surgery_step(g, add_chord_lists, face, face[0], face[1])
        assert h.genus == 0
        assert len(h.edges) == 4
        assert len(h.faces) == 3

    def test_add_chord_rejects_cross_face(self):
        g = triangle_map()
        f0, f1 = g.faces
        with pytest.raises(PreconditionError):
            surgery_step(g, add_chord_lists, f0, f0[0], f1[0])
        with pytest.raises(PreconditionError):
            surgery_step(g, add_chord_lists, f0, f0[0], f0[0])


# maps to grow chords on: planar, a one-vertex torus with loops, a torus
# grid
CHORD_BASES = {"triangle": triangle_map, "bouquet": torus_bouquet,
               "torus-3x3": lambda: torus_grid_map(3, 3)}


class TestSplitFace:
    """``split_face`` keeps a face list equal to ``trace_faces`` of the
    lists, chord after chord, on any orientable map."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(base=st.sampled_from(sorted(CHORD_BASES)), data=st.data())
    def test_kept_list_is_the_trace(self, base, data):
        g = CHORD_BASES[base]()
        edges, rotation = working_lists(g)
        faces = list(g.faces)
        for _ in range(data.draw(st.integers(1, 25))):
            k = data.draw(st.integers(0, len(faces) - 1))
            face = faces[k]
            i, j = data.draw(st.lists(st.integers(0, len(face) - 1),
                                      min_size=2, max_size=2, unique=True))
            e = add_chord_lists(edges, rotation, face, face[i], face[j])
            split_face(faces, k, i, j, e)
            assert tuple(faces) == trace_faces(edges, rotation)
        assert EmbeddedGraph(g.n, edges, rotation).genus == g.genus

    def test_adjacent_corners_make_a_two_dart_face(self):
        g = triangle_map()
        edges, rotation = working_lists(g)
        faces = list(g.faces)
        f = faces[0]
        e = add_chord_lists(edges, rotation, f, f[1], f[2])
        split_face(faces, 0, 1, 2, e)
        assert (f[2], 2 * e + 1) in faces
        assert tuple(faces) == trace_faces(edges, rotation)


def _disjoint_meridians():
    g = torus_grid_map(3, 3)
    return g, [meridian(g, 3, 3, 0), meridian(g, 3, 3, 2)]


def _identical_meridians():
    g = torus_grid_map(3, 3)
    mer = meridian(g, 3, 3, 0)
    return g, [mer, mer]


def _identical_staircases():
    """One cycle down and across the 4x4 torus grid, traversing a right
    edge against its slot order, twice and once reversed."""
    g = torus_grid_map(4, 4)
    stair = _route_darts(g, [0, 4, 5, 9, 13, 12])
    return g, [stair, stair, [d ^ 1 for d in reversed(stair)]]


def _shared_edge_squares():
    g = planar_grid_map(3, 3)
    # a unit square and the outer boundary sharing the path 3-0-1
    c1 = _route_darts(g, [0, 1, 4, 3])
    big = _route_darts(g, [0, 1, 2, 5, 8, 7, 6, 3])
    return g, [c1, big]


def _shared_path_cycles():
    g = planar_grid_map(3, 3)
    # outer boundary and a 2x1 block share the path 0-1-2
    outer = _route_darts(g, [0, 1, 2, 5, 8, 7, 6, 3])
    block = _route_darts(g, [0, 1, 2, 5, 4, 3])
    return g, [outer, block]


def _three_nested():
    g = planar_grid_map(4, 4)
    outer = _route_darts(g, [0, 1, 2, 3, 7, 11, 15, 14, 13, 12, 8, 4])
    mid = _route_darts(g, [0, 1, 2, 3, 7, 11, 15, 14, 13, 9, 5, 4])
    inner = _route_darts(g, [0, 1, 2, 6, 10, 9, 5, 4])
    return g, [outer, mid, inner]


def _crossing_pair():
    g = torus_grid_map(3, 3)
    # horizontal cycle through row 0 crosses the meridian once
    horiz = [2 * (0 * 3 + j) for j in range(3)]
    return g, [meridian(g, 3, 3, 0), horiz]


def _parallel_loops():
    g = torus_bouquet()
    return g, [[0], [0], [0]]


DISJOINTIFY_FIXTURES = {
    "already_disjoint": _disjoint_meridians,
    "identical_cycles": _identical_meridians,
    "identical_staircases": _identical_staircases,
    "shared_edge": _shared_edge_squares,
    "shared_path": _shared_path_cycles,
    "three_nested": _three_nested,
    "crossing": _crossing_pair,
    "parallel_loops": _parallel_loops,
}


class TestDisjointify:
    def test_already_disjoint(self):
        g, cycles = _disjoint_meridians()
        h, new = disjointify(g, cycles)
        assert [tuple(c) for c in cycles] == [tuple(c) for c in new]
        assert h.genus == g.genus

    def test_identical_cycles_become_parallel(self):
        g, cycles = _identical_meridians()
        h, new = disjointify(g, cycles)
        assert h.genus == 1
        _assert_vertex_disjoint(h, new)
        cut = cut_along(h, new)
        assert all(c.is_annulus for c in cut.components)

    def test_identical_staircases_become_parallel(self):
        g, cycles = _identical_staircases()
        h, new = disjointify(g, cycles)
        assert h.genus == 1
        _assert_vertex_disjoint(h, new)
        cut = cut_along(h, new)
        assert len(cut.components) == 3
        assert all(c.is_annulus for c in cut.components)

    def test_shared_edge_on_grid(self):
        g, cycles = _shared_edge_squares()
        h, new = disjointify(g, cycles)
        assert h.genus == 0
        _assert_vertex_disjoint(h, new)

    def test_shared_path_cycles(self):
        g, cycles = _shared_path_cycles()
        h, new = disjointify(g, cycles)
        assert h.genus == 0
        _assert_vertex_disjoint(h, new)

    def test_three_nested(self):
        g, cycles = _three_nested()
        h, new = disjointify(g, cycles)
        assert h.genus == 0
        _assert_vertex_disjoint(h, new)

    def test_rejects_crossing(self):
        g, cycles = _crossing_pair()
        with pytest.raises(PreconditionError):
            disjointify(g, cycles)


def _surgery_outcome(fn, graph, cycles):
    """What a disjointify returns, as plain data, or the error it raises."""
    try:
        h, new = fn(graph, cycles)
    except (PreconditionError, InternalInvariantError) as exc:
        return type(exc)
    return h.n, h.edges, h.rotation, [tuple(c) for c in new]


class TestOneShotDisjointify:
    """The one-shot ``disjointify`` against the step-by-step reference."""

    @pytest.mark.parametrize("name", sorted(DISJOINTIFY_FIXTURES))
    def test_fixture_matches_reference(self, name):
        g, cycles = DISJOINTIFY_FIXTURES[name]()
        assert _surgery_outcome(disjointify, g, cycles) == \
            _surgery_outcome(reference_disjointify, g, cycles)

    @pytest.mark.parametrize("name", TORUS_SUPPORTS)
    def test_support_pairs_and_classes_match_reference(self, name):
        inst, flow = torus_support(name)
        g = inst.graph
        _, _, nonsep, nonsep_v = split_support(flow)
        families = [[a.darts, b.darts] for k, a in enumerate(nonsep)
                    for b in nonsep[k + 1:]]
        classes = classify_homotopy(g, nonsep, nonsep_v).classes
        families += [[nonsep[i].darts for i in cls] for cls in classes]
        for cycles in families:
            assert _surgery_outcome(disjointify, g, cycles) == \
                _surgery_outcome(reference_disjointify, g, cycles)

    def test_parallel_loops_are_disjoint(self):
        g, cycles = _parallel_loops()
        h, new = disjointify(g, cycles)
        assert h.genus == 1
        _assert_vertex_disjoint(h, new)


def _route_darts(g, route):
    darts = []
    k = len(route)
    for i in range(k):
        u, v = route[i], route[(i + 1) % k]
        for e, (a, b) in enumerate(g.edges):
            if (a, b) == (u, v):
                darts.append(2 * e)
                break
            if (b, a) == (u, v):
                darts.append(2 * e + 1)
                break
        else:
            raise AssertionError("no edge %s-%s" % (u, v))
    return darts


def _assert_vertex_disjoint(g, cycles):
    seen = set()
    for c in cycles:
        verts = {g.head(d) for d in c}
        assert len(verts) == len(c)
        assert not (verts & seen)
        seen |= verts
