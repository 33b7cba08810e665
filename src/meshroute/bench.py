"""Benchmark harness: sweep (nodes x generations x seeds x algorithm) cells.

Each cell builds its scenario, fuzzy cost matrix, and oracle once (excluded
from reported wall time), runs each plan algorithm source 0 -> terminal n-1, and
collects cost / percent error / wall time. Summaries reduce over seeds with
the lower median. All emitted files are byte-stable across reruns except
wall-time fields.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, replace
from operator import attrgetter
from pathlib import Path

from .bbbc import run_bbbc
from .bbo import check_population, run_bbo
from .fuzzycost import build_cost_matrix
from .oracle import shortest_path
from .results import RunParams, RunResult
from .topology import DEFAULT_RADIO_RANGE_M, check_placement, check_radio_range, generate_scenario

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

# The one place that knows which optimizers exist: name -> run(cm, source,
# terminal, RunParams).
ALGORITHMS = {"bbbc": run_bbbc, "bbo": run_bbo}

DEFAULT_SEED_PAIRS = tuple((101 + i, 9001 + i) for i in range(10))


@dataclass(frozen=True)
class BenchPlan:
    node_counts: tuple[int, ...] = (25, 64, 100)
    generation_budgets: tuple[int, ...] = (30, 50, 100)
    seeds: tuple[tuple[int, int], ...] = DEFAULT_SEED_PAIRS  # (scenario_seed, opt_seed)
    algorithms: tuple[str, ...] = tuple(ALGORITHMS)
    population_size: int = 50
    placement: str = "grid"
    radio_range: float = DEFAULT_RADIO_RANGE_M

    def __post_init__(self):
        # a plan built in Python gets a plan file's checks, and keeps tuples
        for name, parse in _PLAN_FIELD_PARSERS.items():
            try:
                value = parse(getattr(self, name))
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"plan field {name!r} is malformed: {exc}") from None
            object.__setattr__(self, name, value)
        if not (self.node_counts and self.generation_budgets and self.seeds and self.algorithms):
            raise ValueError("node_counts, generation_budgets, seeds, algorithms must be non-empty")
        # a repeated entry would rerun identical cells and count them as more runs
        for name in ("node_counts", "generation_budgets", "seeds", "algorithms"):
            entries = getattr(self, name)
            repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
            if repeated:
                raise ValueError(f"{name} repeats {repeated[0]!r}")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms {sorted(unknown)}")
        if min(self.generation_budgets) < 1:
            raise ValueError("generation_budgets must all be >= 1")
        if min(min(pair) for pair in self.seeds) < 0:
            raise ValueError("seeds must all be >= 0")
        check_radio_range(self.radio_range)
        # the population checks every run makes, and BBO's floor, so a plan
        # that an optimizer cannot run fails before any cell runs
        RunParams(max_generations=1, population_size=self.population_size)
        if "bbo" in self.algorithms:
            try:
                check_population(self.population_size)
            except ValueError as exc:
                raise ValueError(f"plan cannot run bbo: {exc}") from None
        # every scenario is built before its first run, so check them all now
        for n in self.node_counts:
            check_placement(n, self.placement)


def plan_to_dict(plan: BenchPlan) -> dict:
    """JSON form of the plan: every tuple becomes a list."""
    return json.loads(json.dumps(asdict(plan)))


def _integer(value) -> int:
    """A JSON integer; bools are not."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def _number(value) -> float:
    """A JSON number as a float; bools are not numbers. BenchPlan refuses a
    radio range that is not finite."""
    if type(value) not in (int, float):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _string(value) -> str:
    if type(value) is not str:
        raise ValueError(f"{value!r} is not a string")
    return value


def _seed_pair(value) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{value!r} is not a [scenario_seed, opt_seed] pair")
    return _integer(value[0]), _integer(value[1])


def _list_of(parse):
    """Parser of a JSON list, or a tuple, whose entries each go through parse."""

    def parse_list(value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{value!r} is not a list")
        return tuple(map(parse, value))

    return parse_list


# each parser takes the field's value as it is, as the scenario loader does:
# no float, bool or string stands in for an integer, nor a bool for a number
_PLAN_FIELD_PARSERS = {
    "node_counts": _list_of(_integer),
    "generation_budgets": _list_of(_integer),
    "seeds": _list_of(_seed_pair),
    "algorithms": _list_of(_string),
    "population_size": _integer,
    "placement": _string,
    "radio_range": _number,
}


def plan_from_dict(data: dict) -> BenchPlan:
    """Plan from its JSON form; missing fields keep their defaults, bad ones raise ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"a plan must be a JSON object, not {type(data).__name__}")
    unknown = set(data) - set(_PLAN_FIELD_PARSERS)
    if unknown:
        raise ValueError(f"unknown plan fields {sorted(unknown)}")
    return BenchPlan(**data)


def load_plan(path: str | Path) -> BenchPlan:
    return plan_from_dict(json.loads(Path(path).read_text()))


def save_plan(plan: BenchPlan, path: str | Path) -> None:
    Path(path).write_text(json.dumps(plan_to_dict(plan), indent=2) + "\n")


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
                params = RunParams(generations, plan.population_size, opt_seed)
                for algorithm in plan.algorithms:
                    if progress:
                        progress(
                            f"n={n} gens={generations} seed={scenario_seed}/{opt_seed} {algorithm}"
                        )
                    result = ALGORITHMS[algorithm](cm, 0, n - 1, params)
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
    for (n, gens, algorithm), members in sorted(groups.items()):
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


def format_summary(results: list[RunResult]) -> str:
    """Fixed-width seed-median table, one line per summarize() row."""
    header = f"{'nodes':>6} {'gens':>5} {'algo':>5} {'med cost':>10} {'med %err':>9} {'med ms':>9}"
    lines = [header, "-" * len(header)]
    for row in summarize(results):
        lines.append(
            f"{row['n_nodes']:>6} {row['generations']:>5} {row['algorithm']:>5} "
            f"{row['median_cost']:>10.4f} {row['median_percent_error']:>9.3f} "
            f"{row['median_wall_time_ms']:>9.1f}"
        )
    return "\n".join(lines)


def _write_csv(path: str | Path, header, rows) -> None:
    """CSV lines ending in \n: each value by str, which for a float is its
    repr, and None as an empty field."""
    with Path(path).open("w", newline="") as file:
        writer = csv.writer(file, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_results_csv(results: list[RunResult], path: str | Path) -> None:
    rows = (
        (r.algorithm, r.n_nodes, len(r.trace), r.scenario_seed, r.params["rng_seed"],
         r.best_cost, r.oracle_cost, r.percent_error, r.wall_time_ms)
        for r in results
    )
    _write_csv(path, RESULTS_COLUMNS, rows)


# summarize's seed medians, in the order summary.csv writes them
SUMMARY_MEDIANS = ("median_cost", "median_percent_error", "median_wall_time_ms")


def write_summary_csv(results: list[RunResult], path: str | Path) -> None:
    """Table-style pivot: one row per (n, generations), algorithms side by
    side, blank where the plan did not run an algorithm."""
    by_cell: dict[tuple[int, int], dict[str, dict]] = {}
    for row in summarize(results):
        by_cell.setdefault((row["n_nodes"], row["generations"]), {})[row["algorithm"]] = row
    header = ["n_nodes", "generations"]
    header += [f"{algorithm}_{median}" for algorithm in ALGORITHMS for median in SUMMARY_MEDIANS]
    header.append("bbo_over_bbbc_time_ratio")
    rows = []
    for (n, gens), cell in sorted(by_cell.items()):
        fields = [n, gens]
        for algorithm in ALGORITHMS:
            fields += [cell.get(algorithm, {}).get(median) for median in SUMMARY_MEDIANS]
        ratio = None
        if "bbbc" in cell and "bbo" in cell and cell["bbbc"]["median_wall_time_ms"] > 0:
            ratio = cell["bbo"]["median_wall_time_ms"] / cell["bbbc"]["median_wall_time_ms"]
        rows.append(fields + [ratio])
    _write_csv(path, header, rows)


TRACE_COLUMNS = ("generation", "best_cost_so_far", "generation_best_cost")


def emit_trace(result: RunResult, path: str | Path) -> None:
    if not result.trace:
        raise ValueError("run has an empty trace")
    _write_csv(path, TRACE_COLUMNS, map(attrgetter(*TRACE_COLUMNS), result.trace))


def trace_filename(result: RunResult) -> str:
    return (
        f"trace_{result.algorithm}_n{result.n_nodes}_g{len(result.trace)}"
        f"_s{result.scenario_seed}_o{result.params['rng_seed']}.csv"
    )
