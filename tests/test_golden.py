"""The shipped instance files stay in sync with the generators."""

import hashlib
import pathlib

import pytest

from surfaceflow.instances import (generate_gap_family,
                                   generate_planar_random,
                                   generate_torus_grid, load_instance,
                                   serialize_instance)

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden"

GENERATORS = {
    "gap_n1.json": lambda: generate_gap_family(1),
    "gap_n2.json": lambda: generate_gap_family(2),
    "torus_3x3_unit.json":
        lambda: generate_torus_grid(3, 3, [(0, 4)], cap_mode="unit"),
    "torus_4x4_random.json":
        lambda: generate_torus_grid(4, 4, [(0, 5), (1, 6)],
                                    cap_mode="random", seed=1),
}

# sha256 of ``serialize_instance`` for generator calls too large to ship as
# files; the torus seeds reach genus 3-5, so the demand chords take the
# non-face fallback more than once.
PINNED = {
    "planar-40-unit-seed0": (
        lambda: generate_planar_random(40, seed=0, cap_mode="unit"),
        "134e4fd8ede6e5016ef2c63c4e527c3782642ace793f4895500949b5789309df"),
    "planar-40-random-seed0": (
        lambda: generate_planar_random(40, seed=0, cap_mode="random"),
        "b64ffbbee75edd0bd9daf96778f839255558ca3009f11c8fa57d010fa0179523"),
    "planar-40-unit-seed1": (
        lambda: generate_planar_random(40, seed=1, cap_mode="unit"),
        "d1d092f4611496fc5ae3c948f46c25e8e39a9eea64d5a03d18de982ea2d8cd6e"),
    "planar-40-random-seed1": (
        lambda: generate_planar_random(40, seed=1, cap_mode="random"),
        "60815f00704da4ed7f70b9049ed5f5a81220d951a831ea437f323de11a2bfb3f"),
    "planar-300-unit-seed0": (
        lambda: generate_planar_random(300, seed=0, cap_mode="unit"),
        "4cd8420061f9c9264fccc7cafce2de9f56c77f9f063275f68c98eb7794add714"),
    "planar-300-random-seed0": (
        lambda: generate_planar_random(300, seed=0, cap_mode="random"),
        "95bd619514aa0dbff4e1a39cb7de8288f9116bdf196e660e92c6ac9e248c1d77"),
    "planar-300-unit-seed1": (
        lambda: generate_planar_random(300, seed=1, cap_mode="unit"),
        "aae86d88c3db4697ae83d550270623fc3249ff38a0d93f2778108848bb6af709"),
    "planar-300-random-seed1": (
        lambda: generate_planar_random(300, seed=1, cap_mode="random"),
        "aae2f65f7669c3dcba4f8ba7400f0fd5d410470a62e253adaf60eb054e224cc8"),
    "torus-6x6-4-random-seed0": (
        lambda: generate_torus_grid(6, 6, 4, cap_mode="random", seed=0),
        "ecfad11fd463c0dfd0b821fa5fdcd34a854e4556fe671959885386af1ff84b4c"),
    "torus-6x6-4-random-seed1": (
        lambda: generate_torus_grid(6, 6, 4, cap_mode="random", seed=1),
        "69da8ce363dad86fef398173db6ab8c25ae112499ad4f666137587f9a0fbcfb9"),
    "torus-6x6-4-random-seed2": (
        lambda: generate_torus_grid(6, 6, 4, cap_mode="random", seed=2),
        "d3eab80b1b2c11404eaf80aec746f0fc4448e6c3bf9227447df4bea5ed146d19"),
    "gap-3": (
        lambda: generate_gap_family(3),
        "43b943bf16b0656fad8e8e0cf0b14bfe59bb60cef2798bbd2a295e22b1e11a7b"),
    "gap-4": (
        lambda: generate_gap_family(4),
        "c23f848a29f0d0b946c8b077c06564d6186287718259ce35f52a96c424cb7d16"),
}


class TestGoldenFiles:
    def test_files_parse_and_match_generators(self):
        for name, build in GENERATORS.items():
            path = GOLDEN / name
            load_instance(path)
            assert path.read_text() == serialize_instance(build())

    def test_gap_two_demand_count(self):
        inst = load_instance(GOLDEN / "gap_n2.json")
        assert len(inst.demand_edges) == 4
        assert inst.graph.genus == 2

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_generator_matches_pinned_digest(self, name):
        build, digest = PINNED[name]
        text = serialize_instance(build())
        assert hashlib.sha256(text.encode()).hexdigest() == digest
