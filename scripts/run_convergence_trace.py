#!/usr/bin/env python3
"""Trace best-cost-so-far per generation for both optimizers on one scenario.

Emits one trace CSV per algorithm and prints a fixed-width comparison of the
convergence curves against the exact optimum, sampled every few generations.
As with the meshroute CLI, a failure prints one "error:" line: a bad argument
exits 2, and a domain error (a placement that never connects, no path, an
unreachable terminal) exits 3.
"""

import argparse
import sys
from pathlib import Path

from meshroute.bench import ALGORITHMS, emit_trace
from meshroute.fuzzycost import build_cost_matrix
from meshroute.oracle import UnreachableError, shortest_path
from meshroute.pathcodec import NoPathError
from meshroute.results import RunParams
from meshroute.topology import PLACEMENTS, ConnectivityError, generate_scenario


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=100)
    parser.add_argument("--placement", choices=PLACEMENTS, default="grid")
    parser.add_argument("--scenario-seed", type=int, default=101)
    parser.add_argument("--opt-seed", type=int, default=9001)
    parser.add_argument("--generations", type=int, default=100)
    parser.add_argument("--population", type=int, default=50)
    parser.add_argument("--out", default="traces", help="output directory")
    parser.add_argument("--sample-every", type=int, default=10)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return trace(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConnectivityError, NoPathError, UnreachableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def trace(args) -> int:
    if args.sample_every < 1:
        raise ValueError(f"--sample-every must be at least 1, got {args.sample_every}")
    params = RunParams(
        max_generations=args.generations, population_size=args.population, rng_seed=args.opt_seed
    )
    scenario = generate_scenario(args.nodes, placement=args.placement, seed=args.scenario_seed)
    cm = build_cost_matrix(scenario)
    source, terminal = 0, scenario.n - 1
    oracle = shortest_path(cm, source, terminal)

    results = {
        name: run(cm, source, terminal, params).with_oracle(oracle.cost)
        for name, run in ALGORITHMS.items()
    }

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, result in results.items():
        emit_trace(result, out_dir / f"trace_{name}.csv")

    print(
        f"{args.nodes} nodes ({args.placement}), optimum {oracle.cost:.4f} "
        f"over {len(oracle.nodes) - 1} hops\n"
    )
    print(f"{'gen':>5}" + "".join(f" {name + ' best':>10}" for name in results))
    marks = list(range(0, args.generations, args.sample_every)) + [args.generations - 1]
    for g in sorted(set(marks)):
        costs = (r.trace[g].best_cost_so_far for r in results.values())
        print(f"{g + 1:>5}" + "".join(f" {cost:>10.4f}" for cost in costs))
    print()
    for name, r in results.items():
        print(
            f"{name}: cost {r.best_cost:.4f} ({r.percent_error:.2f}% above optimum), "
            f"{r.wall_time_ms:.0f} ms, path {len(r.best_path.nodes) - 1} hops"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
