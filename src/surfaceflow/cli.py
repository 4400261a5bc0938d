"""Command-line interface.

Exit codes: 0 success (and verification passed), 1 internal invariant
failure, 2 bad input or usage, 3 verification rejected, 4 oracle refusal.
Bad input (an unreadable or non-UTF-8 file, a generator argument out of
its domain) ends in a one-line ``error:`` message, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (InternalInvariantError, OracleBudgetExceeded,
                     PreconditionError, StructuralError)
from .instances import (generate_gap_family, generate_planar_random,
                        generate_torus_grid, load_instance,
                        serialize_instance)
from .oracle import (DEFAULT_BUDGET, OracleBudget, exact_integral_multiflow,
                     exact_min_multicut)
from .pipeline import (BRANCHES, VERIFY_LEVELS, PipelineConfig,
                       render_report, run, solution_text, verify_solution)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_REJECTED = 3
EXIT_REFUSED = 4


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    config = PipelineConfig(epsilon=args.epsilon, branch=args.branch,
                            verify=args.verify)
    flow, report = run(instance, config)
    if args.report:
        _write(args.report, render_report(report))
    if args.solution:
        _write(args.solution, solution_text(flow))
    if args.dot:
        _write(args.dot, instance.graph.to_dot(
            [c.darts for c in flow.support()]))
    print("value %s branch %s"
          % (report["output"]["value"],
             report["stages"]["split"]["branch"]))
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = load_instance(args.instance)
    with open(args.solution, encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except ValueError as exc:  # also an int past the digit limit
        raise PreconditionError("solution is not valid JSON: %s"
                                % exc) from exc
    verdict = verify_solution(instance, data)
    print(json.dumps(verdict, sort_keys=True))
    return EXIT_OK if verdict["ok"] else EXIT_REJECTED


def _cmd_generate(args) -> int:
    if args.family == "gap":
        inst = generate_gap_family(args.n)
    elif args.family == "torus":
        inst = generate_torus_grid(args.p, args.q, args.demands,
                                   cap_mode=args.cap_mode, seed=args.seed)
    else:
        inst = generate_planar_random(args.size, seed=args.seed,
                                      cap_mode=args.cap_mode,
                                      n_demands=args.demands)
    _write(args.output, serialize_instance(inst))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    instance = load_instance(args.instance)
    budget = OracleBudget(max_cycles=args.max_cycles,
                          max_nodes=args.max_nodes)
    if args.multicut:
        value, edges = exact_min_multicut(instance, budget)
        print("multicut %d edges %s" % (value, list(edges)))
    else:
        value, flow = exact_integral_multiflow(instance, budget)
        print("optimum %d" % value)
        if args.solution:
            _write(args.solution, solution_text(flow))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfaceflow",
        description="Constant-factor-per-stage approximation of maximum "
                    "integral multiflows on surface-embedded graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the approximation pipeline")
    p.add_argument("instance")
    p.add_argument("--epsilon", default="1/2", help="uncrossing loss, p/q")
    p.add_argument("--branch", default="auto", choices=BRANCHES)
    p.add_argument("--verify", default="off", choices=VERIFY_LEVELS)
    p.add_argument("--report", help="write the JSON report here ('-' stdout)")
    p.add_argument("--solution", help="write the solution JSON here")
    p.add_argument("--dot", help="write a DOT dump of the embedding here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a solution file independently")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("generate", help="emit a benchmark instance")
    gsub = p.add_subparsers(dest="family", required=True)
    g = gsub.add_parser("gap", help="ring family with LP/integral gap n")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("-o", "--output", default="-")
    g = gsub.add_parser("torus", help="toroidal grid with demand chords")
    g.add_argument("--p", type=int, default=4)
    g.add_argument("--q", type=int, default=4)
    g.add_argument("--demands", type=int, default=2)
    g.add_argument("--cap-mode", default="unit", choices=["unit", "random"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", default="-")
    g = gsub.add_parser("planar", help="random planar instance")
    g.add_argument("--size", type=int, default=16)
    g.add_argument("--demands", type=int, default=None)
    g.add_argument("--cap-mode", default="random",
                   choices=["unit", "random"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("oracle", help="exact optimum by enumeration")
    p.add_argument("instance")
    p.add_argument("--multicut", action="store_true",
                   help="minimum multicut instead of maximum flow")
    p.add_argument("--max-cycles", type=int,
                   default=DEFAULT_BUDGET.max_cycles)
    p.add_argument("--max-nodes", type=int,
                   default=DEFAULT_BUDGET.max_nodes)
    p.add_argument("--solution", help="write the optimal flow here")
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleBudgetExceeded as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return EXIT_REFUSED
    except (StructuralError, PreconditionError, OSError,
            UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as exc:
        print("internal invariant failed: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
