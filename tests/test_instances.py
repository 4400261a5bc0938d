import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from surfaceflow import cli, instances, surface
from surfaceflow.errors import (InternalInvariantError, PreconditionError,
                                StructuralError)
from surfaceflow.instances import (Instance, generate_gap_family,
                                   generate_planar_random,
                                   generate_torus_grid, parse_instance,
                                   serialize_instance)
from surfaceflow.surface import EmbeddedGraph

from conftest import (GOLDEN, count_maps, reference_serialize_instance,
                      torus_bouquet)


def small_instance_doc():
    return {
        "vertices": 3,
        "edges": [
            {"id": 0, "u": 0, "v": 1, "kind": "supply", "cap": 2},
            {"id": 1, "u": 1, "v": 2, "kind": "supply", "cap": 1},
            {"id": 2, "u": 2, "v": 0, "kind": "demand", "cap": 1},
        ],
        "rotation": [[0, 5], [2, 1], [4, 3]],
    }


class TestParse:
    def test_round_trip(self):
        doc = small_instance_doc()
        inst = parse_instance(json.dumps(doc))
        assert inst.graph.n == 3
        assert inst.demand_edges == (2,)
        assert inst.caps == (2, 1, 1)
        again = parse_instance(serialize_instance(inst))
        assert serialize_instance(again) == serialize_instance(inst)

    def test_missing_field(self):
        doc = small_instance_doc()
        del doc["rotation"]
        with pytest.raises(StructuralError) as ei:
            parse_instance(doc)
        assert ei.value.code == "schema"

    def test_non_dense_ids(self):
        doc = small_instance_doc()
        doc["edges"][1]["id"] = 7
        with pytest.raises(StructuralError) as ei:
            parse_instance(doc)
        assert ei.value.code == "schema"

    def test_zero_capacity(self):
        doc = small_instance_doc()
        doc["edges"][0]["cap"] = 0
        with pytest.raises(StructuralError) as ei:
            parse_instance(doc)
        assert ei.value.code == "capacity"

    def test_disconnected(self):
        doc = {
            "vertices": 4,
            "edges": [
                {"id": 0, "u": 0, "v": 1, "kind": "supply", "cap": 1},
                {"id": 1, "u": 2, "v": 3, "kind": "demand", "cap": 1},
            ],
            "rotation": [[0], [1], [2], [3]],
        }
        with pytest.raises(StructuralError) as ei:
            parse_instance(doc)
        assert ei.value.code == "disconnected"

    def test_invalid_rotation(self):
        doc = small_instance_doc()
        doc["rotation"] = [[0, 5, 5], [2, 1], [4, 3]]
        with pytest.raises(StructuralError) as ei:
            parse_instance(doc)
        assert ei.value.code == "rotation"

    def test_bool_id_rejected(self):
        """The dense-``id`` check is the parser's own; every number of the
        map is ``TestMapFaults``'s."""
        doc = small_instance_doc()
        doc["edges"][1]["id"] = True
        with pytest.raises(StructuralError) as ei:
            parse_instance(doc)
        assert ei.value.code == "schema"

    def test_bad_kind(self):
        doc = small_instance_doc()
        doc["edges"][0]["kind"] = "weird"
        with pytest.raises(StructuralError) as ei:
            parse_instance(doc)
        assert ei.value.code == "schema"


TRI_EDGES = [(0, 1), (1, 2), (2, 0)]
TRI_ROTATION = [[0, 5], [2, 1], [4, 3]]

# (n, edges, rotation, code): every raise site of EmbeddedGraph's checks;
# the Euler check guards a guarantee instead (test_euler_site_is_internal)
MAP_FAULTS = {
    "vertices-zero": (0, [], [], "schema"),
    "vertices-float": (3.0, TRI_EDGES, TRI_ROTATION, "schema"),
    "vertices-bool": (True, [(0, 0)], [[0, 1]], "schema"),
    "vertices-str": ("3", TRI_EDGES, TRI_ROTATION, "schema"),
    "rotation-length": (3, TRI_EDGES, TRI_ROTATION[:2], "rotation"),
    "endpoint-float": (3, [(0, 1.0), (1, 2), (2, 0)], TRI_ROTATION,
                       "schema"),
    "endpoint-bool": (3, [(0, True), (1, 2), (2, 0)], TRI_ROTATION,
                      "schema"),
    "endpoint-range": (3, [(0, 3), (1, 2), (2, 0)], TRI_ROTATION, "schema"),
    "endpoint-negative": (3, [(-1, 1), (1, 2), (2, 0)], TRI_ROTATION,
                          "schema"),
    "dart-float": (3, TRI_EDGES, [[0, 5], [2, 1.0], [4, 3]], "rotation"),
    "dart-bool": (3, TRI_EDGES, [[0, 5], [2, True], [4, 3]], "rotation"),
    "dart-str": (3, TRI_EDGES, [["x", 5], [2, 1], [4, 3]], "rotation"),
    "dart-range": (3, TRI_EDGES, [[0, 6], [2, 1], [4, 3]], "rotation"),
    "dart-negative": (3, TRI_EDGES, [[0, -1], [2, 1], [4, 3]], "rotation"),
    "dart-wrong-vertex": (3, TRI_EDGES, TRI_ROTATION[::-1], "rotation"),
    "dart-twice": (3, TRI_EDGES, [[0, 5, 0], [2, 1], [4, 3]], "rotation"),
    "dart-omitted": (3, TRI_EDGES, [[0], [2, 1], [4, 3]], "rotation"),
    "disconnected": (4, [(0, 1), (2, 3)], [[0], [1], [2], [3]],
                     "disconnected"),
    "disconnected-no-edges": (2, [], [[], []], "disconnected"),
    "no-edges": (1, [], [[]], "schema"),
}


def map_doc(n, edges, rotation) -> dict:
    """The wire document of a map, every edge a supply edge of cap 1."""
    return {"vertices": n,
            "edges": [{"id": e, "u": u, "v": v, "kind": "supply", "cap": 1}
                      for e, (u, v) in enumerate(edges)],
            "rotation": rotation}


class TestMapFaults:
    """``EmbeddedGraph`` checks each number of a map once, type and range
    together, and codes its fault where it raises; ``parse_instance``
    hands the fault on unchanged."""

    @pytest.mark.parametrize("name", sorted(MAP_FAULTS))
    def test_code_at_each_raise_site(self, name):
        n, edges, rotation, code = MAP_FAULTS[name]
        with pytest.raises(StructuralError) as direct:
            EmbeddedGraph(n, edges, rotation)
        assert direct.value.code == code
        with pytest.raises(StructuralError) as wire:
            parse_instance(map_doc(n, edges, rotation))
        assert (type(wire.value), wire.value.code, str(wire.value)) \
            == (StructuralError, code, str(direct.value))

    def test_euler_site_is_internal(self, monkeypatch):
        """No map that passes the checks has an odd ``V - E + F``; a lost
        face fakes one, and it fails as a guarantee, not as an input."""
        trace = surface.trace_faces
        monkeypatch.setattr(surface, "trace_faces",
                            lambda edges, rotation: trace(edges, rotation)[1:])
        with pytest.raises(InternalInvariantError, match="orientable") as ei:
            EmbeddedGraph(3, TRI_EDGES, TRI_ROTATION)
        assert ei.value.witness == 1
        with pytest.raises(InternalInvariantError, match="orientable"):
            parse_instance(map_doc(3, TRI_EDGES, TRI_ROTATION))


class TestGapFamily:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_structure(self, n):
        inst = generate_gap_family(n)
        g = inst.graph
        assert len(inst.demand_edges) == 2 * n
        assert max(g.degree(v) for v in range(g.n)) <= 3
        assert all(c == 1 for c in inst.caps)
        # every demand joins antipodal terminals via a supply path
        assert g.genus >= n

    def test_deterministic(self):
        a = serialize_instance(generate_gap_family(2))
        b = serialize_instance(generate_gap_family(2))
        assert a == b


class TestTorusGrid:
    def test_explicit_meridian_demand(self):
        inst = generate_torus_grid(3, 3, demands=[(0, 3)])
        assert inst.graph.genus == 1  # chord fits in a face
        assert len(inst.demand_edges) == 1

    def test_random_demands_deterministic(self):
        a = serialize_instance(generate_torus_grid(3, 4, 2, "random", seed=5))
        b = serialize_instance(generate_torus_grid(3, 4, 2, "random", seed=5))
        assert a == b
        c = serialize_instance(generate_torus_grid(3, 4, 2, "random", seed=6))
        assert a != c

    def test_genus_bounded(self):
        for seed in range(5):
            inst = generate_torus_grid(3, 3, 1, seed=seed)
            assert 1 <= inst.graph.genus <= 2

    def test_demand_count_domain(self):
        # a 3x3 grid has 9 * 8 / 2 = 36 vertex pairs
        assert len(generate_torus_grid(3, 3, 36).demand_edges) == 36
        for demands in (37, -1):
            with pytest.raises(PreconditionError):
                generate_torus_grid(3, 3, demands)


@pytest.mark.parametrize("make", [
    lambda: generate_gap_family(0),
    lambda: generate_torus_grid(2, 3, 1),
    lambda: generate_torus_grid(3, 3, 1, cap_mode="other"),
    lambda: generate_planar_random(5),
    lambda: generate_planar_random(12, n_demands=-1),
])
def test_generator_domain_is_a_precondition(make):
    with pytest.raises(PreconditionError):
        make()


class TestPlanarRandom:
    @pytest.mark.parametrize("seed", range(8))
    def test_always_planar(self, seed):
        inst = generate_planar_random(18, seed=seed)
        assert inst.graph.genus == 0
        assert len(inst.demand_edges) >= 1
        assert all(c >= 1 for c in inst.caps)

    def test_deterministic_bytes(self):
        a = serialize_instance(generate_planar_random(15, seed=3))
        b = serialize_instance(generate_planar_random(15, seed=3))
        assert a == b


# sha256 of the serialized instances of generate_planar_random over
# PLANAR_SEEDS x PLANAR_DEMANDS, per (size, cap_mode); recorded before the
# generator kept its face list across chords
PLANAR_SEEDS = range(6)
PLANAR_DEMANDS = (None, 3, 10)
PLANAR_PINS = {
    (6, "unit"): "6c251912c586afc1fb2fbbf5e32c07e8"
                 "22a6c2c359e65452c2c4c96c2da9b5f4",
    (6, "random"): "223699bfabda9344eb5695641c71ffb8"
                   "add66df01308cb12f6bcf556229f594a",
    (30, "unit"): "1a41840da7f73014ab904522ef29c690"
                  "83b8df8d77b4306a166af8ad4c9905b4",
    (30, "random"): "25d0c5ae7107a61a4f834cbf6ff8e44e"
                    "29addb90955b56717380c9bd0602f35c",
    (40, "unit"): "73d88623765c54b0473de5348a79ee6d"
                  "63824b3fcb5c790949c4a957a710c953",
    (40, "random"): "6d73a3f2dc850c8b95dca8c3d3ec5536"
                    "49a8d5570534ad0073247b2b83803d09",
    (300, "unit"): "6d5bc16527a2fa2def23f3f62d10e857"
                   "3d2f702f057ff43238d042d0b559efbc",
    (300, "random"): "096a2388e918c63e369ed2b380e9b0fb"
                     "8bf588d1e0ae2d079fd6132e8fe95ece",
}


class TestPlanarFaceList:
    """The planar generator keeps its face list across chords instead of
    re-tracing the map per chord."""

    @pytest.mark.parametrize("size, cap_mode", sorted(PLANAR_PINS))
    def test_pinned_bytes(self, size, cap_mode):
        h = hashlib.sha256()
        for seed in PLANAR_SEEDS:
            for n_demands in PLANAR_DEMANDS:
                h.update(serialize_instance(generate_planar_random(
                    size, seed=seed, cap_mode=cap_mode,
                    n_demands=n_demands)).encode())
        assert h.hexdigest() == PLANAR_PINS[size, cap_mode]

    @pytest.mark.parametrize("size, seed, n_demands",
                             [(6, 0, None), (30, 1, 3), (40, 2, 10),
                              (120, 3, 5)])
    def test_kept_list_is_the_trace_after_each_chord(self, monkeypatch, size,
                                                     seed, n_demands):
        lists, split = [], instances.split_face
        add = instances.add_chord_lists

        def adding(edges, rotation, *args):
            lists[:] = [edges, rotation]
            return add(edges, rotation, *args)

        def splitting(faces, *args):
            split(faces, *args)
            assert tuple(faces) == surface.trace_faces(*lists)
            checked.append(len(faces))

        checked = []
        monkeypatch.setattr(instances, "add_chord_lists", adding)
        monkeypatch.setattr(instances, "split_face", splitting)
        inst = generate_planar_random(size, seed=seed, n_demands=n_demands)
        g = inst.graph
        # one check per chord: every edge off the starting cycle is one
        assert len(checked) == len(g.edges) - g.n
        assert checked[-1] == len(g.faces)

    @pytest.mark.parametrize("size", [6, 40, 300, 1000])
    def test_traces_at_most_twice(self, monkeypatch, size):
        calls, trace = [], surface.trace_faces

        def counting(*args):
            calls.append(1)
            return trace(*args)

        monkeypatch.setattr(surface, "trace_faces", counting)
        monkeypatch.setattr(instances, "trace_faces", counting)
        generate_planar_random(size, seed=size)
        assert 1 <= len(calls) <= 2


class TestSerializeReference:
    """``serialize_instance`` writes the bytes of the dict-plus-``json``
    reference on every generator family and on a hand-built loop."""

    def assert_same(self, inst):
        assert serialize_instance(inst) == reference_serialize_instance(inst)

    @pytest.mark.parametrize("name", sorted(
        p.name for p in GOLDEN.glob("*.json")))
    def test_golden(self, name):
        self.assert_same(instances.load_instance(GOLDEN / name))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gap_family(self, n):
        self.assert_same(generate_gap_family(n))

    @pytest.mark.parametrize("cap_mode", ["unit", "random"])
    def test_torus_grids(self, cap_mode):
        genera = set()
        for p in range(3, 9):
            for q in range(3, 9):
                for demands in range(13):
                    inst = generate_torus_grid(p, q, demands,
                                               cap_mode=cap_mode, seed=demands)
                    self.assert_same(inst)
                    if demands:
                        genera.add(inst.graph.genus)
        # an in-face chord keeps genus 1, a handle chord raises it
        assert 1 in genera and max(genera) > 2

    @pytest.mark.parametrize("cap_mode", ["unit", "random"])
    def test_planar_sizes(self, cap_mode):
        for size in range(6, 301):
            self.assert_same(generate_planar_random(size, seed=size,
                                                    cap_mode=cap_mode))

    def test_supply_loop(self):
        self.assert_same(Instance(torus_bouquet(), ("supply", "supply"),
                                  (1, 7)))

    def test_capacity_past_digit_limit(self):
        """A programmatic capacity that cannot be written as decimal fails
        the same way through both writers."""
        inst = Instance(torus_bouquet(), ("supply", "supply"), (1, 10 ** 5000))
        with pytest.raises(ValueError) as fast:
            serialize_instance(inst)
        with pytest.raises(ValueError) as reference:
            reference_serialize_instance(inst)
        assert str(fast.value) == str(reference.value)


class TestOneMapPerCall:
    """Generators grow their maps by list edits and build one map."""

    @pytest.mark.parametrize("build", [
        lambda: generate_gap_family(3),
        lambda: generate_torus_grid(6, 6, 4, cap_mode="random", seed=2),
        lambda: generate_planar_random(40, seed=1),
    ], ids=["gap", "torus", "planar"])
    def test_one_map(self, monkeypatch, build):
        built = count_maps(monkeypatch)
        build()
        assert built[0] == 1


GAP_N1 = json.loads((GOLDEN / "gap_n1.json").read_text())


def _leaf_paths(doc, path=()):
    """Key paths of every scalar leaf of a parsed JSON document."""
    if isinstance(doc, dict):
        items = sorted(doc.items())
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path]
    return [p for key, value in items for p in _leaf_paths(value, path + (key,))]


BAD_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(),
    st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
    st.just({}))


class TestSolveFuzz:
    @settings(max_examples=40, deadline=None, database=None,
              derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(path=st.sampled_from(_leaf_paths(GAP_N1)), value=BAD_LEAVES)
    def test_one_bad_leaf_exits_0_or_2(self, tmp_path, path, value):
        doc = json.loads(json.dumps(GAP_N1))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(doc))
        assert cli.main(["solve", str(inst_path)]) in (0, 2)
