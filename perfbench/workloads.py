"""Workloads: which instances a run generates and how it solves them.

Every instance comes from the package's own generators.  A workload's
instances are drawn from ``random.Random(seed)``, so the same seed always
gives the same instance files.  A workload repeats a short ``mix`` of
generator calls ``groups`` times; each call draws its own generator seed.
Why each workload exists is recorded in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    epsilon: str
    verify: str          # PipelineConfig.verify; "full-oracle" adds multicut
    mix: tuple           # ((generator name, kwargs), ...) repeated per group
    groups: int


TORUS_6X6 = ("generate_torus_grid",
             {"p": 6, "q": 6, "demands": 4, "cap_mode": "random"})
TORUS_3X3 = ("generate_torus_grid",
             {"p": 3, "q": 3, "demands": 2, "cap_mode": "random"})
PLANAR_40 = ("generate_planar_random",
             {"size": 40, "n_demands": 3, "cap_mode": "random"})
PLANAR_30 = ("generate_planar_random",
             {"size": 30, "n_demands": 3, "cap_mode": "random"})

WORKLOADS = {
    w.name: w for w in (
        Workload("torus", epsilon="1/2", verify="off",
                 mix=(TORUS_6X6,), groups=100),
        Workload("planar", epsilon="1/10", verify="off",
                 mix=(PLANAR_40,), groups=400),
        Workload("oracle", epsilon="1/2", verify="full-oracle",
                 mix=(PLANAR_30, PLANAR_30, PLANAR_30, TORUS_3X3), groups=50),
    )
}


def generate(instances_module, workload: Workload, seed: int,
             limit: int | None = None):
    """Yield the workload's instances for ``seed``, in solve order.

    ``limit`` keeps only the first instances, for reduced-size self-tests.
    """
    rng = random.Random(seed)
    made = 0
    for _ in range(workload.groups):
        for gen_name, kwargs in workload.mix:
            if limit is not None and made >= limit:
                return
            gen = getattr(instances_module, gen_name)
            yield gen(seed=rng.randrange(2 ** 31), **kwargs)
            made += 1
