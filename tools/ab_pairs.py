"""A/B pairs of benchmark runs: a base revision against the working tree.

Usage, from the repository root::

    python3 tools/ab_pairs.py --base REV --workload planar --pairs 5
    python3 tools/ab_pairs.py --base HEAD~1 --workload torus --pairs 3 --seed 2

``REV``'s files are extracted with ``git archive REV | tar -x`` into a
temporary directory, which is removed afterwards; the repository's
``.git`` is only read.  Each pair is two runs of

    python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0

one in the base checkout and one in the working tree, one after the other;
the side that runs first alternates from pair to pair, so a drift of the
host's speed does not favour either side.  The runs write only where
``perfbench/run.py`` writes, its git-ignored ``.perfbench/`` directory.

For each pair the end-to-end metrics of ``BENCHMARK.json`` are printed,
base then working tree, from the JSON object on each run's last output
line.  Then, per metric, the medians of both sides, the change of the
medians, the number of pairs the working tree won by the metric's
direction (a tie wins neither side), the quartiles of both sides, and one
verdict:

- ``gain``: the working tree won at least 9 in 10 pairs, and its median is
  better by more than the base's interquartile range;
- ``worse than bound``: the median is worse, relative to the base's, by
  more than the metric's ``bound`` in ``BENCHMARK.json``;
- ``unresolved``: the base's interquartile range, relative to its median,
  exceeds the bound, so the runs spread too widely to tell;
- ``within bound`` otherwise.

A claimed gain needs ``gain``; every other metric needs ``gain`` or
``within bound``.  The exit status is 1 when a run fails or reports a
failed instance.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ("perfbench", "run.py")
SECONDS = "30"


def end_to_end() -> list:
    """``(name, better, bound)`` of each end-to-end metric in
    ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]


def extract(repo: Path, rev: str, dest: Path) -> None:
    """The files of ``repo`` at ``rev`` in ``dest``, made if missing."""
    dest.mkdir(parents=True, exist_ok=True)
    with subprocess.Popen(["git", "archive", rev], cwd=repo,
                          stdout=subprocess.PIPE) as git:
        tar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout)
    if git.returncode or tar.returncode:
        raise SystemExit("ab_pairs: could not extract %s" % rev)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``tree``: its metric values by name."""
    cmd = [sys.executable, str(tree.joinpath(*RUN)), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("ab_pairs: run in %s exited with %d"
                         % (tree, out.returncode))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("ab_pairs: %d failed instance(s) in %s"
                         % (result["failed"], tree))
    return {name: m["value"] for name, m in result["metrics"].items()}


def wins(base: float, work: float, better: str) -> bool:
    return work < base if better == "lower" else work > base


def quartiles(values: list) -> tuple:
    """First and third quartile (both the value itself for one run)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(base: list, work: list, better: str, bound: float) -> str:
    """The claim rule on one metric's paired runs (see the module
    docstring)."""
    mb, mw = statistics.median(base), statistics.median(work)
    q1, q3 = quartiles(base)
    won = sum(wins(b, w, better) for b, w in zip(base, work))
    gap = mb - mw if better == "lower" else mw - mb
    if 10 * won >= 9 * len(base) and gap > q3 - q1:
        return "gain"
    if -gap > bound * abs(mb):
        return "worse than bound"
    if q3 - q1 > bound * abs(mb):
        return "unresolved"
    return "within bound"


def report(pairs: list, metrics: list) -> None:
    for name, better, bound in metrics:
        base = [b[name] for b, _ in pairs]
        work = [w[name] for _, w in pairs]
        mb, mw = statistics.median(base), statistics.median(work)
        change = "%+.1f%%" % (100 * (mw - mb) / mb) if mb else "n/a"
        won = sum(wins(b, w, better) for b, w in zip(base, work))
        print("%-12s median %.4g -> %.4g (%s, %s is better), won %d of %d, "
              "quartiles [%.4g, %.4g] -> [%.4g, %.4g]: %s"
              % (name, mb, mw, change, better, won, len(pairs),
                 *quartiles(base), *quartiles(work),
                 verdict(base, work, better, bound)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="the git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = end_to_end()

    tmp = Path(tempfile.mkdtemp(prefix="ab_pairs-"))
    base_tree = tmp / "base"
    pairs = []
    try:
        extract(ROOT, args.base, base_tree)
        for i in range(args.pairs):
            sides = {}
            order = ("base", "work") if i % 2 == 0 else ("work", "base")
            for side in order:
                tree = base_tree if side == "base" else ROOT
                sides[side] = run_once(tree, args.workload, args.seed)
            pairs.append((sides["base"], sides["work"]))
            print("pair %d (%s first): %s" % (
                i + 1, order[0], ", ".join(
                    "%s %.4g -> %.4g" % (name, sides["base"][name],
                                         sides["work"][name])
                    for name, _, _ in metrics)), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("%s seed %d, %d pairs, base %s against the working tree:"
          % (args.workload, args.seed, len(pairs), args.base))
    report(pairs, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
