"""Output-identity manifest: one sha256 per benchmark pool instance.

For every instance of the ``torus``, ``planar`` and ``oracle`` pools at
seeds 1 and 2 (the instances ``perfbench/workloads.py`` generates), the
instance goes through its JSON form and ``pipeline.run`` at the pool's
epsilon, once with ``verify="off"`` and once with ``verify="invariants"``.
The ``oracle`` pool, which its workload solves at ``verify="full-oracle"``
followed by ``oracle.exact_min_multicut``, is solved that way too, so both
exact oracles are covered.  These runs take ``branch="auto"``; the
``torus`` pool is also solved at ``verify="off"`` on each forced
non-separating branch, so that the plain and the improved rounding of
every instance are covered too.  The digest is the sha256 of the report
bytes followed by the solution bytes, both as ``surfaceflow solve
--report --solution`` writes them, and at ``full-oracle`` by the
multicut's value and edges as one JSON line.  Under ``POOL/seedS/instance``
the manifest also keeps the sha256 of every instance's JSON bytes, as
``serialize_instance`` writes them, so a generator change that keeps the
solves shows too.

Usage, from the repository root::

    python3 tools/output_manifest.py                 # rewrite the manifest
    python3 tools/output_manifest.py --check         # exit 1 on a mismatch
    python3 tools/output_manifest.py --src OTHER/src --out OTHER.json

A change that keeps every output leaves ``tools/output_manifest.json`` as
it is; one that changes outputs shows the changed instances in its diff.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tools" / "output_manifest.json"
POOLS = ("torus", "planar", "oracle")
SEEDS = (1, 2)
VERIFY = ("off", "invariants")
# the verify levels of each pool: the oracle pool's workload level too
LEVELS = {"torus": VERIFY, "planar": VERIFY,
          "oracle": VERIFY + ("full-oracle",)}
# the branches the torus pool is also solved on, at verify "off"
FORCED = ("nonseparating", "improved")
# the key part under which the instance bytes are digested
INSTANCE = "instance"


def runs() -> list:
    """Every ``(pool, verify, branch)`` the manifest covers."""
    return [(pool, verify, "auto") for pool in POOLS
            for verify in LEVELS[pool]] + \
        [("torus", "off", branch) for branch in FORCED]


def import_modules(src: Path = ROOT / "src") -> dict:
    """The package modules from ``src`` and perfbench's ``workloads``."""
    for path in (str(ROOT / "perfbench"), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return {name: importlib.import_module(name) for name in
            ("surfaceflow.instances", "surfaceflow.oracle",
             "surfaceflow.pipeline", "workloads")}


def keys() -> list:
    """Every key of the manifest: one per run and seed, and one per pool
    and seed for the instance bytes."""
    return [key(pool, seed, verify, branch) for pool, verify, branch in runs()
            for seed in SEEDS] + \
        [key(pool, seed, INSTANCE) for pool in POOLS for seed in SEEDS]


def key(pool: str, seed: int, verify: str, branch: str = "auto") -> str:
    name = "%s/seed%d/%s" % (pool, seed, verify)
    return name if branch == "auto" else name + "/" + branch


def digests(mods: dict, pool: str, seed: int, verify: str,
            limit: int | None = None, branch: str = "auto") -> list:
    """The sha256 hex digests of the first ``limit`` (default: all)
    instances of ``pool`` at ``seed``, solved at ``verify`` on
    ``branch``."""
    instances = mods["surfaceflow.instances"]
    oracle = mods["surfaceflow.oracle"]
    pipeline = mods["surfaceflow.pipeline"]
    workloads = mods["workloads"]
    workload = workloads.WORKLOADS[pool]
    config = pipeline.PipelineConfig(epsilon=workload.epsilon, verify=verify,
                                     branch=branch)
    out = []
    for made in workloads.generate(instances, workload, seed, limit):
        inst = instances.parse_instance(instances.serialize_instance(made))
        flow, report = pipeline.run(inst, config)
        solution = json.dumps(pipeline.solution_wire(flow), sort_keys=True,
                              indent=1) + "\n"
        blob = pipeline.render_report(report) + solution
        if verify == "full-oracle":
            cut, edges = oracle.exact_min_multicut(inst)
            blob += json.dumps([cut, list(edges)]) + "\n"
        out.append(hashlib.sha256(blob.encode()).hexdigest())
    return out


def instance_digests(mods: dict, pool: str, seed: int,
                     limit: int | None = None) -> list:
    """The sha256 hex digests of the serialized bytes of the first
    ``limit`` (default: all) instances of ``pool`` at ``seed``."""
    instances = mods["surfaceflow.instances"]
    return [hashlib.sha256(
                instances.serialize_instance(made).encode()).hexdigest()
            for made in mods["workloads"].generate(
                instances, mods["workloads"].WORKLOADS[pool], seed, limit)]


def manifest(mods: dict) -> dict:
    doc = {key(pool, seed, verify, branch):
           digests(mods, pool, seed, verify, branch=branch)
           for pool, verify, branch in runs() for seed in SEEDS}
    doc.update((key(pool, seed, INSTANCE), instance_digests(mods, pool, seed))
               for pool in POOLS for seed in SEEDS)
    return doc


def render(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the package source tree to run")
    parser.add_argument("--out", type=Path, default=MANIFEST)
    parser.add_argument("--check", action="store_true",
                        help="compare with --out instead of writing it")
    args = parser.parse_args(argv)
    text = render(manifest(import_modules(args.src.resolve())))
    if not args.check:
        args.out.write_text(text, encoding="utf-8")
        return 0
    want = json.loads(args.out.read_text(encoding="utf-8"))
    got = json.loads(text)
    bad = [(k, i) for k in sorted(want.keys() | got.keys())
           for i, (a, b) in enumerate(zip_longest(want.get(k, []),
                                                  got.get(k, [])))
           if a != b]
    for k, i in bad:
        print("differs: %s instance %d" % (k, i))
    print("%d of %d digests differ" % (len(bad), sum(map(len, got.values()))))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
