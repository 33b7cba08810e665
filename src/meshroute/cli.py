"""Command-line front end: scenario generation, single solves, oracle queries, benchmarks.

Every subcommand is a thin shell over the library; identical results are
available through direct calls. Data goes to stdout or files, diagnostics to
stderr. Exit codes: 0 success, 2 usage error, 3 domain error (no path,
unreachable, placement failure), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from .fuzzycost import build_cost_matrix
from .oracle import shortest_path
from .pathcodec import NoPathError, check_endpoints
from .results import RunParams
from .topology import (
    DEFAULT_RADIO_RANGE_M,
    PLACEMENTS,
    ConnectivityError,
    generate_scenario,
    load_scenario,
    save_scenario,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshroute",
        description="Fuzzy link-cost mesh routing with BB-BC and BBO optimizers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a scenario file")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--placement", choices=PLACEMENTS, default="grid")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--range", type=float, default=DEFAULT_RADIO_RANGE_M, dest="radio_range")
    gen.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="optimize a path on a scenario")
    solve.add_argument("--algo", choices=tuple(bench_mod.ALGORITHMS), required=True)
    solve.add_argument("--scenario", required=True)
    solve.add_argument("--source", type=int, default=0)
    solve.add_argument("--target", type=int, default=None, help="defaults to the last node")
    solve.add_argument("--generations", type=int, default=100)
    solve.add_argument("--pop", type=int, default=50)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--trace", default=None, help="write per-generation CSV here")

    orc = sub.add_parser("oracle", help="exact minimum-cost path")
    orc.add_argument("--scenario", required=True)
    orc.add_argument("--source", type=int, default=0)
    orc.add_argument("--target", type=int, default=None)

    bch = sub.add_parser("bench", help="run a benchmark plan")
    bch.add_argument("--plan", default=None, help="plan JSON; omit for the default plan")
    bch.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_gen(args) -> int:
    scenario = generate_scenario(
        args.nodes, placement=args.placement, seed=args.seed, radio_range=args.radio_range
    )
    save_scenario(scenario, args.out)
    print(f"wrote {args.out}: {scenario.n} nodes, {len(scenario.links)} links", file=sys.stderr)
    return EXIT_OK


def _resolve_endpoints(scenario, source, target):
    source, terminal = check_endpoints(scenario.n, source, scenario.n - 1 if target is None else target)
    if source == terminal:
        raise ValueError("source and target must differ")
    return source, terminal


def _cmd_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    source, terminal = _resolve_endpoints(scenario, args.source, args.target)
    cm = build_cost_matrix(scenario)
    params = RunParams(
        max_generations=args.generations, population_size=args.pop, rng_seed=args.seed
    )
    result = bench_mod.ALGORITHMS[args.algo](cm, source, terminal, params)
    result = result.with_oracle(shortest_path(cm, source, terminal).cost)
    if args.trace:
        bench_mod.emit_trace(result, args.trace)
    print(
        json.dumps(
            {
                "algorithm": result.algorithm,
                "n_nodes": result.n_nodes,
                "source": source,
                "target": terminal,
                "best_path": list(result.best_path.nodes),
                "best_cost": result.best_cost,
                "oracle_cost": result.oracle_cost,
                "percent_error": result.percent_error,
                "wall_time_ms": result.wall_time_ms,
                "generations": len(result.trace),
                "params": result.params,
            },
            indent=2,
        )
    )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    scenario = load_scenario(args.scenario)
    source, terminal = _resolve_endpoints(scenario, args.source, args.target)
    cm = build_cost_matrix(scenario)
    result = shortest_path(cm, source, terminal)
    print(json.dumps({"nodes": list(result.nodes), "cost": result.cost}, indent=2))
    return EXIT_OK


def _cmd_bench(args) -> int:
    plan = bench_mod.load_plan(args.plan) if args.plan else bench_mod.BenchPlan()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    bench_mod.save_plan(plan, out_dir / "plan.json")
    results = bench_mod.run_plan(plan, progress=lambda line: print(line, file=sys.stderr))
    bench_mod.write_results_csv(results, out_dir / "results.csv")
    bench_mod.write_summary_csv(results, out_dir / "summary.csv")
    for result in results:
        bench_mod.emit_trace(result, out_dir / bench_mod.trace_filename(result))
    print(f"wrote {len(results)} runs to {out_dir}\n", file=sys.stderr)
    print(bench_mod.format_summary(results), file=sys.stderr)
    return EXIT_OK


_DISPATCH = {"gen": _cmd_gen, "solve": _cmd_solve, "oracle": _cmd_oracle, "bench": _cmd_bench}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoPathError, ConnectivityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
