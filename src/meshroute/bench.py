"""Benchmark harness: sweep (nodes x generations x seeds x algorithm) cells.

Each cell builds its scenario, fuzzy cost matrix, and oracle once (excluded
from reported wall time), runs both optimizers source 0 -> terminal n-1, and
collects cost / percent error / wall time. Summaries reduce over seeds with
the lower median. All emitted files are byte-stable across reruns except
wall-time fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .bbbc import BbbcParams, run_bbbc
from .bbo import BboParams, run_bbo
from .fuzzycost import build_cost_matrix
from .oracle import shortest_path
from .results import RunResult
from .topology import generate_scenario

RESULTS_COLUMNS = (
    "algorithm",
    "n_nodes",
    "generations",
    "scenario_seed",
    "opt_seed",
    "best_cost",
    "oracle_cost",
    "percent_error",
    "wall_time_ms",
)

ALGORITHMS = ("bbbc", "bbo")

DEFAULT_SEED_PAIRS = tuple((101 + i, 9001 + i) for i in range(10))


@dataclass(frozen=True)
class BenchPlan:
    node_counts: tuple[int, ...] = (25, 64, 100)
    generation_budgets: tuple[int, ...] = (30, 50, 100)
    seeds: tuple[tuple[int, int], ...] = DEFAULT_SEED_PAIRS  # (scenario_seed, opt_seed)
    algorithms: tuple[str, ...] = ALGORITHMS
    population_size: int = 50
    placement: str = "grid"
    radio_range: float = 250.0
    center_mode: str = "weighted-center"
    immigration_max: float = 1.0
    emigration_max: float = 1.0
    mutation_max: float = 0.01
    elite_count: int = 2

    def __post_init__(self):
        if not self.node_counts or not self.generation_budgets or not self.seeds:
            raise ValueError("node_counts, generation_budgets, and seeds must be non-empty")
        if not self.algorithms:
            raise ValueError("algorithms must be non-empty")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms {sorted(unknown)}")


def plan_to_dict(plan: BenchPlan) -> dict:
    d = asdict(plan)
    d["seeds"] = [list(pair) for pair in plan.seeds]
    for key in ("node_counts", "generation_budgets", "algorithms"):
        d[key] = list(d[key])
    return d


def plan_from_dict(data: dict) -> BenchPlan:
    defaults = BenchPlan()
    known = set(asdict(defaults))
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown plan fields {sorted(unknown)}")
    merged = {**plan_to_dict(defaults), **data}
    return BenchPlan(
        node_counts=tuple(int(n) for n in merged["node_counts"]),
        generation_budgets=tuple(int(g) for g in merged["generation_budgets"]),
        seeds=tuple((int(s), int(o)) for s, o in merged["seeds"]),
        algorithms=tuple(merged["algorithms"]),
        population_size=int(merged["population_size"]),
        placement=str(merged["placement"]),
        radio_range=float(merged["radio_range"]),
        center_mode=str(merged["center_mode"]),
        immigration_max=float(merged["immigration_max"]),
        emigration_max=float(merged["emigration_max"]),
        mutation_max=float(merged["mutation_max"]),
        elite_count=int(merged["elite_count"]),
    )


def load_plan(path: str | Path) -> BenchPlan:
    return plan_from_dict(json.loads(Path(path).read_text()))


def save_plan(plan: BenchPlan, path: str | Path) -> None:
    Path(path).write_text(json.dumps(plan_to_dict(plan), indent=2) + "\n")


def _run_one(plan: BenchPlan, algorithm: str, cm, generations: int, opt_seed: int) -> RunResult:
    if algorithm == "bbbc":
        params = BbbcParams(
            max_generations=generations,
            population_size=plan.population_size,
            center_mode=plan.center_mode,
            rng_seed=opt_seed,
        )
        return run_bbbc(cm, 0, cm.n - 1, params)
    params = BboParams(
        max_generations=generations,
        population_size=plan.population_size,
        immigration_max=plan.immigration_max,
        emigration_max=plan.emigration_max,
        mutation_max=plan.mutation_max,
        elite_count=plan.elite_count,
        rng_seed=opt_seed,
    )
    return run_bbo(cm, 0, cm.n - 1, params)


def run_plan(plan: BenchPlan, progress=None) -> list[RunResult]:
    """Execute every plan cell in deterministic order.

    progress, when given, is called with a one-line status string per run.
    """
    results: list[RunResult] = []
    cache: dict[tuple[int, int], tuple] = {}
    for n in plan.node_counts:
        for generations in plan.generation_budgets:
            for scenario_seed, opt_seed in plan.seeds:
                key = (n, scenario_seed)
                if key not in cache:
                    scenario = generate_scenario(
                        n, placement=plan.placement, seed=scenario_seed,
                        radio_range=plan.radio_range,
                    )
                    cm = build_cost_matrix(scenario)
                    oracle = shortest_path(cm, 0, n - 1)
                    cache[key] = (cm, oracle)
                cm, oracle = cache[key]
                for algorithm in plan.algorithms:
                    if progress:
                        progress(
                            f"n={n} gens={generations} seed={scenario_seed}/{opt_seed} {algorithm}"
                        )
                    result = _run_one(plan, algorithm, cm, generations, opt_seed)
                    result = replace(result, scenario_seed=scenario_seed).with_oracle(oracle.cost)
                    results.append(result)
    return results


def lower_median(values) -> float:
    """Median with the lower-of-two convention for even counts."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of empty sequence")
    return ordered[(len(ordered) - 1) // 2]


def summarize(results: list[RunResult]) -> list[dict]:
    """Reduce results over seeds: one row per (n_nodes, generations, algorithm)."""
    if not results:
        raise ValueError("no results to summarize")
    groups: dict[tuple[int, int, str], list[RunResult]] = {}
    for r in results:
        groups.setdefault((r.n_nodes, len(r.trace), r.algorithm), []).append(r)
    rows = []
    for (n, gens, algorithm) in sorted(groups, key=lambda k: (k[0], k[1], k[2])):
        members = groups[(n, gens, algorithm)]
        rows.append(
            {
                "n_nodes": n,
                "generations": gens,
                "algorithm": algorithm,
                "median_cost": lower_median(r.best_cost for r in members),
                "median_percent_error": lower_median(r.percent_error for r in members),
                "median_wall_time_ms": lower_median(r.wall_time_ms for r in members),
                "runs": len(members),
            }
        )
    return rows


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def write_results_csv(results: list[RunResult], path: str | Path) -> None:
    lines = [",".join(RESULTS_COLUMNS)]
    for r in results:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    r.algorithm,
                    r.n_nodes,
                    len(r.trace),
                    r.scenario_seed,
                    r.params.get("rng_seed"),
                    r.best_cost,
                    r.oracle_cost,
                    r.percent_error,
                    r.wall_time_ms,
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_csv(results: list[RunResult], path: str | Path) -> None:
    """Table-style pivot: one row per (n, generations), algorithms side by side."""
    rows = summarize(results)
    by_cell: dict[tuple[int, int], dict[str, dict]] = {}
    for row in rows:
        by_cell.setdefault((row["n_nodes"], row["generations"]), {})[row["algorithm"]] = row
    header = ["n_nodes", "generations"]
    for algorithm in ALGORITHMS:
        header += [
            f"{algorithm}_median_cost",
            f"{algorithm}_median_percent_error",
            f"{algorithm}_median_wall_time_ms",
        ]
    header.append("bbo_over_bbbc_time_ratio")
    lines = [",".join(header)]
    for (n, gens) in sorted(by_cell):
        cell = by_cell[(n, gens)]
        fields = [str(n), str(gens)]
        for algorithm in ALGORITHMS:
            row = cell.get(algorithm)
            if row is None:
                fields += ["", "", ""]
            else:
                fields += [
                    _fmt(row["median_cost"]),
                    _fmt(row["median_percent_error"]),
                    _fmt(row["median_wall_time_ms"]),
                ]
        if "bbbc" in cell and "bbo" in cell and cell["bbbc"]["median_wall_time_ms"] > 0:
            ratio = cell["bbo"]["median_wall_time_ms"] / cell["bbbc"]["median_wall_time_ms"]
            fields.append(_fmt(ratio))
        else:
            fields.append("")
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + "\n")


def emit_trace(result: RunResult, path: str | Path) -> None:
    if not result.trace:
        raise ValueError("run has an empty trace")
    lines = ["generation,best_cost_so_far,generation_best_cost"]
    for point in result.trace:
        lines.append(
            f"{point.generation},{_fmt(point.best_cost_so_far)},{_fmt(point.generation_best_cost)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def trace_filename(result: RunResult) -> str:
    return (
        f"trace_{result.algorithm}_n{result.n_nodes}_g{len(result.trace)}"
        f"_s{result.scenario_seed}_o{result.params.get('rng_seed')}.csv"
    )
