"""Host-speed probe: puts times taken at different host speeds on one scale.

The benchmark runs on shared hosts whose speed for a single Python thread
drifts by a quarter or more within a minute, on either CPU, while steal time
stays flat.  Averaging inside one run cannot remove drift that lasts longer
than the run.  So the runner times a fixed pure-Python task, which never
touches ``surfaceflow``, right after every instance it generates or solves.
Each instance's time is then multiplied by ``REFERENCE_S`` over the mean
probe time of the ``WINDOW`` probes around it: it reads as seconds on a host
where one probe takes ``REFERENCE_S``.  The task mixes ``Fraction``
arithmetic, dict and list churn, a keyed sort and an integer loop, as the
program does; as the host drifts, its time tracks the program's time with a
correlation of about 0.9 to 0.98.  A change to the program moves the
instance times and not the probe, so it moves the scaled times in full.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# median time of one probe() on the host the benchmark was defined on
# (2-CPU x86_64 VM, Intel Xeon at 2.1 GHz, Python 3.11.7)
REFERENCE_S = 0.0032
WINDOW = 25


def _task():
    table = {}
    acc = Fraction(0)
    for i in range(250):
        f = Fraction(i % 7 + 1, i % 5 + 2)
        acc += f * f
        table[(i % 97, i % 3)] = [f, i, str(i)]
    n = 0
    for i in range(8000):
        n += i * i % 7
    return sorted(table.items(), key=lambda kv: kv[1][0]), acc, n


def probe() -> float:
    """Seconds one call of the fixed task takes now."""
    start = time.perf_counter()
    _task()
    return time.perf_counter() - start


def scale(probes: list) -> float:
    """Factor from measured to reference seconds over all of ``probes``:
    above 1 when the host ran faster than the reference."""
    return REFERENCE_S / statistics.fmean(probes)


def local_scales(probes: list) -> list:
    """``scale`` of the ``WINDOW`` probes centred on each probe."""
    half = WINDOW // 2
    lo_max = max(0, len(probes) - WINDOW)
    out = []
    for i in range(len(probes)):
        lo = min(max(0, i - half), lo_max)
        out.append(scale(probes[lo:lo + WINDOW]))
    return out
