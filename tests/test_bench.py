"""Benchmark harness: plan handling, sweep execution, CSV emission."""

import json
import math

import pytest

from meshroute.bbbc import run_bbbc
from meshroute.bbo import run_bbo
from meshroute.bench import (
    ALGORITHMS,
    DEFAULT_SEED_PAIRS,
    RESULTS_COLUMNS,
    BenchPlan,
    emit_trace,
    load_plan,
    lower_median,
    plan_from_dict,
    plan_to_dict,
    run_plan,
    save_plan,
    summarize,
    trace_filename,
    write_results_csv,
    write_summary_csv,
)
from meshroute.fuzzycost import build_cost_matrix
from meshroute.pathcodec import Path as RoutePath
from meshroute.results import RunParams, RunResult
from meshroute.topology import generate_scenario

# Spelled out here, not read from ALGORITHMS, so the dispatch table is
# checked against direct library calls.
DIRECT_CALLS = {"bbbc": run_bbbc, "bbo": run_bbo}

TINY_PLAN = BenchPlan(
    node_counts=(9,),
    generation_budgets=(5, 10),
    seeds=((101, 9001), (102, 9002)),
    population_size=12,
)


@pytest.fixture(scope="module")
def tiny_results():
    return run_plan(TINY_PLAN)


def test_default_seed_pairs():
    assert len(DEFAULT_SEED_PAIRS) == 10
    assert DEFAULT_SEED_PAIRS[0] == (101, 9001)
    assert DEFAULT_SEED_PAIRS[9] == (110, 9010)


def test_plan_validation():
    with pytest.raises(ValueError):
        BenchPlan(node_counts=())
    with pytest.raises(ValueError):
        BenchPlan(algorithms=("bbbc", "sa"))
    with pytest.raises(ValueError):
        BenchPlan(seeds=())
    with pytest.raises(ValueError, match="generation_budgets"):
        BenchPlan(generation_budgets=(30, 0))
    with pytest.raises(ValueError, match="population_size"):
        BenchPlan(population_size=1)
    # BBO keeps 2 elites, so it needs 3 habitats; BB-BC runs on 2 genomes
    with pytest.raises(ValueError, match="^plan cannot run bbo: population_size must be at least 3$"):
        BenchPlan(population_size=2)
    assert BenchPlan(population_size=2, algorithms=("bbbc",)).population_size == 2
    with pytest.raises(ValueError, match="placement"):
        BenchPlan(placement="hex")
    # each node count is checked against the placement before any cell runs
    with pytest.raises(ValueError, match="perfect-square node count, 30"):
        BenchPlan(node_counts=(25, 30))
    with pytest.raises(ValueError, match="at least 2 nodes"):
        BenchPlan(node_counts=(1,), placement="random")
    assert BenchPlan(node_counts=(30,), placement="random").node_counts == (30,)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("node_counts", (25, 64, 25), "node_counts repeats 25"),
        ("generation_budgets", (30, 30), "generation_budgets repeats 30"),
        ("seeds", ((101, 9001), (102, 9002), (101, 9001)), r"seeds repeats \(101, 9001\)"),
        ("algorithms", ("bbbc", "bbo", "bbbc"), "algorithms repeats 'bbbc'"),
    ],
)
def test_plan_refuses_repeated_entries(field, value, message):
    # a repeat would rerun identical cells, count them as separate runs in
    # summary.csv and rewrite the same trace file
    with pytest.raises(ValueError, match=f"^{message}$"):
        BenchPlan(**{field: value})


def test_plan_keeps_seed_pairs_that_share_one_seed():
    seeds = ((101, 9001), (101, 9002), (102, 9001))
    assert BenchPlan(seeds=seeds).seeds == seeds


def test_plan_round_trip(tmp_path):
    path = tmp_path / "plan.json"
    save_plan(TINY_PLAN, path)
    assert load_plan(path) == TINY_PLAN


def test_plan_from_dict_defaults():
    plan = plan_from_dict({"node_counts": [25]})
    assert plan.node_counts == (25,)
    assert plan.generation_budgets == BenchPlan().generation_budgets


def test_plan_rejects_unknown_fields():
    with pytest.raises(ValueError):
        plan_from_dict({"node_count": [25]})


# values a plan file once had coerced, or a hand-built plan took and failed
# on mid-run, and the message each is refused with
REFUSED_FIELD_VALUES = [
    ("node_counts", [25.9], "25.9 is not an integer"),
    ("node_counts", [True], "True is not an integer"),
    ("generation_budgets", ["30"], "'30' is not an integer"),
    ("seeds", [[101.5, 9001]], "101.5 is not an integer"),
    ("seeds", [[101, "9001"]], "'9001' is not an integer"),
    ("seeds", [[101, 9001, 5]], "not a \\[scenario_seed, opt_seed\\] pair"),
    ("population_size", 50.7, "50.7 is not an integer"),
    ("population_size", False, "False is not an integer"),
    ("radio_range", True, "True is not a finite number"),
    ("radio_range", "250", "'250' is not a finite number"),
    ("radio_range", 10**400, "int too large"),
    ("algorithms", "bbbc", "'bbbc' is not a list"),
    ("placement", 5, "5 is not a string"),
    ("node_counts", [25.0], "25.0 is not an integer"),
    ("generation_budgets", [2.5], "2.5 is not an integer"),
    ("seeds", [[101]], "not a \\[scenario_seed, opt_seed\\] pair"),
]


def as_tuples(value):
    """value with every list in it turned into a tuple."""
    return tuple(map(as_tuples, value)) if isinstance(value, list) else value


@pytest.mark.parametrize("field, value, message", REFUSED_FIELD_VALUES)
def test_plan_from_dict_rejects_what_it_used_to_coerce(field, value, message):
    with pytest.raises(ValueError, match=f"plan field '{field}' is malformed: .*{message}"):
        plan_from_dict({field: value})


@pytest.mark.parametrize("field, value, message", REFUSED_FIELD_VALUES)
def test_hand_built_plan_refuses_what_a_plan_file_refuses(field, value, message):
    # given as lists, the plan file's own message; given as tuples, the same
    # message with the value written as a tuple
    with pytest.raises(ValueError) as from_file:
        plan_from_dict({field: value})
    with pytest.raises(ValueError) as hand_built:
        BenchPlan(**{field: value})
    assert str(hand_built.value) == str(from_file.value)
    with pytest.raises(ValueError, match=f"^plan field '{field}' is malformed: .*{message}"):
        BenchPlan(**{field: as_tuples(value)})


def test_plan_built_with_lists_stores_tuples(tmp_path):
    plan = BenchPlan(
        node_counts=[9, 25], generation_budgets=[3], seeds=[[101, 9001], (102, 9002)],
        algorithms=["bbbc"], radio_range=250,
    )
    assert plan.node_counts == (9, 25) and plan.generation_budgets == (3,)
    assert plan.seeds == ((101, 9001), (102, 9002)) and plan.algorithms == ("bbbc",)
    assert type(plan.radio_range) is float
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    assert load_plan(path) == plan
    assert hash(load_plan(path)) == hash(plan)


def test_plan_file_infinite_radio_range_gets_the_range_message():
    with pytest.raises(ValueError, match="^radio_range must be positive and finite, got inf$"):
        plan_from_dict(json.loads('{"radio_range": Infinity}'))


def test_plan_from_dict_keeps_integer_radio_range_as_float():
    plan = plan_from_dict({"radio_range": 250})
    assert plan.radio_range == 250.0 and type(plan.radio_range) is float


def test_plan_rejects_values_no_scenario_can_have():
    with pytest.raises(ValueError, match="seeds must all be >= 0"):
        BenchPlan(seeds=((101, 9001), (-1, 9002)))
    for radio_range in (0.0, -5.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="radio_range must be positive and finite"):
            BenchPlan(radio_range=radio_range)


def test_plan_to_dict_is_json_ready():
    d = plan_to_dict(TINY_PLAN)
    assert d["seeds"] == [[101, 9001], [102, 9002]]
    assert d["node_counts"] == [9]


def test_lower_median():
    assert lower_median([3.0]) == 3.0
    assert lower_median([1.0, 2.0, 3.0]) == 2.0
    assert lower_median([4.0, 1.0]) == 1.0  # lower of two
    assert lower_median([5.0, 2.0, 8.0, 1.0]) == 2.0
    with pytest.raises(ValueError):
        lower_median([])


def test_run_plan_cell_count(tiny_results):
    # 1 node count x 2 budgets x 2 seed pairs x 2 algorithms
    assert len(tiny_results) == 8
    assert {r.algorithm for r in tiny_results} == {"bbbc", "bbo"}
    assert {len(r.trace) for r in tiny_results} == {5, 10}


def test_run_plan_cells_match_direct_calls(tiny_results):
    cells = [
        (generations, scenario_seed, opt_seed, algorithm)
        for generations in TINY_PLAN.generation_budgets
        for scenario_seed, opt_seed in TINY_PLAN.seeds
        for algorithm in TINY_PLAN.algorithms
    ]
    assert TINY_PLAN.algorithms == tuple(ALGORITHMS) == tuple(DIRECT_CALLS)
    assert len(cells) == len(tiny_results)
    for (generations, scenario_seed, opt_seed, algorithm), result in zip(cells, tiny_results):
        cm = build_cost_matrix(generate_scenario(9, seed=scenario_seed))
        params = RunParams(
            max_generations=generations,
            population_size=TINY_PLAN.population_size,
            rng_seed=opt_seed,
        )
        expected = DIRECT_CALLS[algorithm](cm, 0, 8, params)
        assert result.algorithm == algorithm
        assert result.best_path == expected.best_path
        assert result.best_cost == expected.best_cost
        assert result.trace == expected.trace
        assert result.params == expected.params


def test_run_plan_populates_oracle_fields(tiny_results):
    for r in tiny_results:
        assert r.scenario_seed in (101, 102)
        assert r.oracle_cost is not None and r.oracle_cost > 0
        assert r.percent_error is not None and r.percent_error >= 0
        assert r.best_cost >= r.oracle_cost - 1e-12


def test_summarize_groups(tiny_results):
    rows = summarize(tiny_results)
    assert len(rows) == 4  # 2 budgets x 2 algorithms
    for row in rows:
        assert row["runs"] == 2
        assert row["n_nodes"] == 9
    assert summarize(tiny_results[:1])[0]["median_cost"] == tiny_results[0].best_cost
    with pytest.raises(ValueError):
        summarize([])


def test_results_csv_schema(tiny_results, tmp_path):
    path = tmp_path / "results.csv"
    write_results_csv(tiny_results, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(RESULTS_COLUMNS)
    assert len(lines) == 1 + len(tiny_results)
    first = lines[1].split(",")
    assert first[0] in ("bbbc", "bbo")
    assert int(first[1]) == 9


def test_results_csv_deterministic_modulo_wall_time(tiny_results, tmp_path):
    rerun = run_plan(TINY_PLAN)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(tiny_results, a)
    write_results_csv(rerun, b)
    strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
    assert strip(a.read_text()) == strip(b.read_text())


def test_summary_csv_pivot(tiny_results, tmp_path):
    path = tmp_path / "summary.csv"
    write_summary_csv(tiny_results, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["n_nodes", "generations"]
    assert "bbbc_median_percent_error" in header
    assert header[-1] == "bbo_over_bbbc_time_ratio"
    assert len(lines) == 3  # header + one row per generation budget
    for line in lines[1:]:
        ratio = float(line.split(",")[-1])
        assert ratio > 0


def test_emit_trace(tiny_results, tmp_path):
    r = tiny_results[0]
    path = tmp_path / trace_filename(r)
    emit_trace(r, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "generation,best_cost_so_far,generation_best_cost"
    assert len(lines) == 1 + len(r.trace)
    assert lines[1].startswith("1,")


def test_emit_trace_rejects_empty(tmp_path):
    empty = RunResult(
        algorithm="bbbc",
        n_nodes=3,
        best_path=RoutePath((0, 2), 0.5),
        best_cost=0.5,
        wall_time_ms=1.0,
        trace=(),
    )
    with pytest.raises(ValueError):
        emit_trace(empty, tmp_path / "t.csv")


def test_trace_filename(tiny_results):
    r = tiny_results[0]
    name = trace_filename(r)
    assert name.startswith(f"trace_{r.algorithm}_n9_g")
    assert name.endswith(".csv")
