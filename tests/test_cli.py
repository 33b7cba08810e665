"""Command-line interface: subcommands, exit codes, stream discipline."""

import json

import pytest

from meshroute import bench
from meshroute.bbbc import run_bbbc
from meshroute.bbo import run_bbo
from meshroute.bench import ALGORITHMS, load_plan, plan_from_dict
from meshroute.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from meshroute.fuzzycost import build_cost_matrix
from meshroute.oracle import shortest_path
from meshroute.pathcodec import NoPathError
from meshroute.results import RunParams
from meshroute.topology import (
    ConnectivityError,
    NetworkScenario,
    generate_scenario,
    save_scenario,
    scenario_to_dict,
)

from scenario_v1 import v1_objects

# Spelled out here, not read from ALGORITHMS, so `solve` is checked against
# direct library calls.
DIRECT_CALLS = {"bbbc": run_bbbc, "bbo": run_bbo}


def write_line_scenario(path):
    """Three nodes on a wire: the only route 0 -> 2 runs through node 1."""
    save_scenario(line_scenario(), path)


def line_scenario():
    return NetworkScenario(
        seed=0,
        area_side=400.0,
        radio_range=250.0,
        positions=[(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)],
        links=[(0, 1), (1, 0), (1, 2), (2, 1)],
        metrics=[(1.2, 30.0, 5.0), (0.8, 40.0, 3.0), (1.5, 20.0, 2.0), (1.0, 25.0, 4.0)],
    )


def line_scenario_in(version):
    """The line scenario as a format-2 object, or laid out as format 1."""
    data = scenario_to_dict(line_scenario())
    return v1_objects(data) if version == 1 else data


REGENERATE = (
    "error: unsupported scenario format version 1; "
    "regenerate the file with meshroute gen (same --nodes, --placement, --seed, --range)\n"
)


def write_split_scenario(path):
    positions = [(0.0, 0.0), (5000.0, 5000.0)]
    s = NetworkScenario(seed=0, area_side=5000.0, radio_range=250.0, positions=positions, links=[], metrics=[])
    save_scenario(s, path)


def test_gen_writes_scenario(tmp_path, capsys):
    out = tmp_path / "s.json"
    code = main(["gen", "--nodes", "25", "--seed", "42", "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert len(data["nodes"]["x_m"]) == 25
    assert len(data["links"]["from"]) == 80
    err = capsys.readouterr().err
    assert "25 nodes" in err


def test_gen_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--nodes", "9", "--seed", "3", "--out", str(a)]) == EXIT_OK
    assert main(["gen", "--nodes", "9", "--seed", "3", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_non_square_grid(tmp_path, capsys):
    code = main(["gen", "--nodes", "26", "--out", str(tmp_path / "s.json")])
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_gen_unreachable_random_placement(tmp_path):
    code = main(
        [
            "gen", "--nodes", "25", "--placement", "random", "--seed", "0",
            "--range", "10", "--out", str(tmp_path / "s.json"),
        ]
    )
    assert code == EXIT_DOMAIN


@pytest.mark.parametrize("radio_range", ["nan", "inf", "0"])
def test_gen_rejects_bad_radio_range(tmp_path, capsys, radio_range):
    out = tmp_path / "s.json"
    code = main(["gen", "--nodes", "4", "--range", radio_range, "--out", str(out)])
    assert code == EXIT_USAGE
    assert not out.exists()
    reason = "not a positive finite number"
    assert capsys.readouterr().err == f"error: scenario 'radio_range_m' is {float(radio_range)!r}, {reason}\n"


def test_gen_refuses_node_count_past_the_link_key_bound(tmp_path, capsys):
    # named as n, not numpy's "Maximum allowed size exceeded" from its arrays
    out = tmp_path / "s.json"
    code = main(["gen", "--nodes", str(10**30), "--placement", "random", "--out", str(out)])
    assert code == EXIT_USAGE
    assert not out.exists()
    assert capsys.readouterr().err == f"error: n is {10**30}, which is more than 3037000499\n"


@pytest.mark.parametrize("algo", ["bbbc", "bbo"])
def test_solve_line_scenario(tmp_path, capsys, algo):
    scenario = tmp_path / "line.json"
    write_line_scenario(scenario)
    code = main(
        [
            "solve", "--algo", algo, "--scenario", str(scenario),
            "--generations", "3", "--pop", "4", "--seed", "1",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["best_path"] == [0, 1, 2]
    assert payload["percent_error"] == pytest.approx(0.0, abs=1e-9)
    assert payload["generations"] == 3
    assert payload["algorithm"] == algo


@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_solve_prints_library_result(tmp_path, capsys, algo):
    assert set(DIRECT_CALLS) == set(ALGORITHMS)
    path = tmp_path / "grid16.json"
    save_scenario(generate_scenario(16, seed=101), path)
    code = main(
        [
            "solve", "--algo", algo, "--scenario", str(path),
            "--generations", "6", "--pop", "10", "--seed", "9001",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    del payload["wall_time_ms"]

    cm = build_cost_matrix(generate_scenario(16, seed=101))
    params = RunParams(max_generations=6, population_size=10, rng_seed=9001)
    result = DIRECT_CALLS[algo](cm, 0, 15, params).with_oracle(shortest_path(cm, 0, 15).cost)
    assert payload == {
        "algorithm": algo,
        "n_nodes": 16,
        "source": 0,
        "target": 15,
        "best_path": list(result.best_path.nodes),
        "best_cost": result.best_cost,
        "oracle_cost": result.oracle_cost,
        "percent_error": result.percent_error,
        "generations": 6,
        "params": result.params,
    }
    assert payload["params"] == {"max_generations": 6, "population_size": 10, "rng_seed": 9001}


def test_solve_writes_trace(tmp_path):
    scenario = tmp_path / "line.json"
    write_line_scenario(scenario)
    trace = tmp_path / "trace.csv"
    code = main(
        [
            "solve", "--algo", "bbbc", "--scenario", str(scenario),
            "--generations", "4", "--pop", "4", "--trace", str(trace),
        ]
    )
    assert code == EXIT_OK
    lines = trace.read_text().splitlines()
    assert len(lines) == 5


def test_solve_refuses_population_bbo_cannot_run(tmp_path, capsys):
    scenario = tmp_path / "line.json"
    write_line_scenario(scenario)
    code = main(["solve", "--algo", "bbo", "--scenario", str(scenario), "--pop", "2"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: population_size is 2, which is less than 3\n"


def test_solve_refuses_negative_seed(tmp_path, capsys):
    scenario = tmp_path / "grid9.json"
    save_scenario(generate_scenario(9, seed=0), scenario)
    code = main(["solve", "--algo", "bbbc", "--scenario", str(scenario), "--seed", "-1"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rng_seed is -1, which is less than 0\n"


def test_gen_refuses_negative_seed(tmp_path, capsys):
    out = tmp_path / "grid9.json"
    code = main(["gen", "--nodes", "9", "--seed", "-1", "--out", str(out)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scenario 'seed' is -1, which is less than 0\n"
    assert not out.exists()


def test_solve_same_source_target(tmp_path):
    scenario = tmp_path / "line.json"
    write_line_scenario(scenario)
    code = main(
        ["solve", "--algo", "bbbc", "--scenario", str(scenario), "--target", "0"]
    )
    assert code == EXIT_USAGE


def test_oracle_refuses_target_past_the_last_node(tmp_path, capsys):
    scenario = tmp_path / "grid9.json"
    save_scenario(generate_scenario(9, seed=0), scenario)
    code = main(["oracle", "--scenario", str(scenario), "--target", "9"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: source 0 or terminal 9 is not a node id in 0..8\n"


def test_solve_missing_scenario(tmp_path):
    code = main(
        ["solve", "--algo", "bbbc", "--scenario", str(tmp_path / "absent.json")]
    )
    assert code == EXIT_IO


def test_solve_unknown_algorithm(tmp_path):
    scenario = tmp_path / "line.json"
    write_line_scenario(scenario)
    code = main(["solve", "--algo", "annealing", "--scenario", str(scenario)])
    assert code == EXIT_USAGE


def test_oracle_line_scenario(tmp_path, capsys):
    scenario = tmp_path / "line.json"
    write_line_scenario(scenario)
    code = main(["oracle", "--scenario", str(scenario)])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["nodes"] == [0, 1, 2]
    assert payload["cost"] > 0


def test_oracle_unreachable(tmp_path, capsys):
    # oracle and solve word a missing route alike
    scenario = tmp_path / "split.json"
    write_split_scenario(scenario)
    for command in (["oracle"], ["solve", "--algo", "bbbc"]):
        assert main([*command, "--scenario", str(scenario)]) == EXIT_DOMAIN
        assert capsys.readouterr().err == "error: no path from 0 to 1\n"


@pytest.mark.parametrize(
    "fault",
    [
        lambda d: d["links"].update(to=[50] + d["links"]["to"][1:]),
        lambda d: d["links"].update(delay_ms=[float("nan")] + d["links"]["delay_ms"][1:]),
        lambda d: d.update(links={key: column + column[:1] for key, column in d["links"].items()}),
    ],
    ids=["endpoint-out-of-range", "nan-delay", "duplicate-link"],
)
def test_oracle_rejects_malformed_scenario(tmp_path, capsys, fault):
    scenario = tmp_path / "line.json"
    write_line_scenario(scenario)
    data = json.loads(scenario.read_text())
    fault(data)
    scenario.write_text(json.dumps(data))
    assert main(["oracle", "--scenario", str(scenario)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# A format-1 file is refused with the regenerate hint whatever it holds; a
# format-2 file is read, and its fault named.


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize(
    "table, key, value",
    [("links", "from", 0.9), ("links", "to", True), ("links", "throughput_mbps", "1.5"), ("nodes", "x_m", "nan")],
    ids=["float-endpoint", "bool-endpoint", "text-metric", "text-coordinate"],
)
def test_oracle_rejects_value_the_loader_used_to_coerce(tmp_path, capsys, version, table, key, value):
    scenario = tmp_path / "line.json"
    data = line_scenario_in(version)
    if version == 1:
        data[table][0][key] = value
    else:
        data[table][key][0] = value
    scenario.write_text(json.dumps(data))
    assert main(["oracle", "--scenario", str(scenario)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    if version == 1:
        assert captured.err == REGENERATE
    else:
        assert captured.err.startswith("error: ")
        assert "not a number" in captured.err or "not an integer" in captured.err


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize(
    "key, value", [("seed", 1.7), ("area_side_m", "12"), ("radio_range_m", True)], ids=["seed", "area", "range"]
)
def test_oracle_rejects_scalar_the_loader_used_to_coerce(tmp_path, capsys, version, key, value):
    scenario = tmp_path / "line.json"
    data = line_scenario_in(version)
    data[key] = value
    scenario.write_text(json.dumps(data))
    assert main(["oracle", "--scenario", str(scenario)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    if version == 1:
        assert captured.err == REGENERATE
    else:
        assert captured.err.startswith(f"error: scenario {key!r} is {value!r}, not ")


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize(
    "key, value, reason",
    [
        ("seed", -3, "which is less than 0"),
        ("area_side_m", 0, "not a positive finite number"),
        ("radio_range_m", -5.0, "not a positive finite number"),
    ],
    ids=["seed", "area", "range"],
)
def test_oracle_rejects_scalar_no_generated_scenario_has(tmp_path, capsys, version, key, value, reason):
    scenario = tmp_path / "line.json"
    data = line_scenario_in(version)
    data[key] = value
    scenario.write_text(json.dumps(data))
    assert main(["oracle", "--scenario", str(scenario)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    if version == 1:
        assert captured.err == REGENERATE
    else:
        assert captured.err == f"error: scenario {key!r} is {value!r}, {reason}\n"


@pytest.mark.parametrize("command", [["oracle"], ["solve", "--algo", "bbo"]], ids=["oracle", "solve"])
def test_format_1_scenario_exits_with_a_hint_to_regenerate(tmp_path, capsys, command):
    scenario = tmp_path / "v1.json"
    scenario.write_text(json.dumps(line_scenario_in(1)))
    assert main([*command, "--scenario", str(scenario)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == REGENERATE


def test_bench_tiny_plan(tmp_path, capsys):
    plan = {
        "node_counts": [9],
        "generation_budgets": [3],
        "seeds": [[101, 9001]],
        "population_size": 10,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out_dir = tmp_path / "bench"
    code = main(["bench", "--plan", str(plan_path), "--out", str(out_dir)])
    assert code == EXIT_OK
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "summary.csv").exists()
    traces = list(out_dir.glob("trace_*.csv"))
    assert len(traces) == 2  # one per algorithm
    assert load_plan(out_dir / "plan.json") == plan_from_dict(plan)
    captured = capsys.readouterr()
    assert captured.out == ""  # machine output goes to files, logs to stderr
    table = captured.err.split("med %err", 1)[1].splitlines()
    assert [line.split()[:3] for line in table[2:]] == [
        ["9", "3", "bbbc"], ["9", "3", "bbo"]
    ]


# one scenario's convergence curves: both algorithms on one 25-node grid
ONE_CELL_PLAN = {"node_counts": [25], "generation_budgets": [5], "seeds": [[101, 9001]]}


def run_one_cell(tmp_path, plan):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out_dir = tmp_path / "bench"
    assert main(["bench", "--plan", str(plan_path), "--out", str(out_dir)]) == EXIT_OK
    return out_dir


def assert_one_cell_traces_match_direct_calls(tmp_path, plan, scenario):
    # one trace per algorithm, byte-equal to the trace of a direct run
    out_dir = run_one_cell(tmp_path, plan)
    n = scenario.n
    cm = build_cost_matrix(scenario)
    expected = {}
    for algo, run in DIRECT_CALLS.items():
        bench.emit_trace(run(cm, 0, n - 1, RunParams(5, 50, 9001)), tmp_path / f"{algo}.csv")
        expected[f"trace_{algo}_n{n}_g5_s101_o9001.csv"] = (tmp_path / f"{algo}.csv").read_bytes()
    written = {p.name: p.read_bytes() for p in out_dir.glob("trace_*.csv")}
    assert written == expected


def test_bench_one_cell_traces_match_direct_calls(tmp_path):
    assert_one_cell_traces_match_direct_calls(
        tmp_path, ONE_CELL_PLAN, generate_scenario(25, seed=101)
    )


def test_bench_one_cell_random_placement_traces_match_direct_calls(tmp_path):
    plan = {**ONE_CELL_PLAN, "node_counts": [30], "placement": "random"}
    assert_one_cell_traces_match_direct_calls(
        tmp_path, plan, generate_scenario(30, placement="random", seed=101)
    )


def test_bench_one_cell_prints_final_percent_error(tmp_path, capsys):
    # with one seed pair the seed-median row is the run's own final cost and
    # its percent error above the optimum
    run_one_cell(tmp_path, ONE_CELL_PLAN)
    table = capsys.readouterr().err.split("med %err", 1)[1].splitlines()[2:]
    cm = build_cost_matrix(generate_scenario(25, seed=101))
    optimum = shortest_path(cm, 0, 24).cost
    expected = []
    for algo, run in DIRECT_CALLS.items():
        result = run(cm, 0, 24, RunParams(5, 50, 9001)).with_oracle(optimum)
        assert result.percent_error >= 0.0
        expected.append(
            ["25", "5", algo, f"{result.best_cost:.4f}", f"{result.percent_error:.3f}"]
        )
    assert [line.split()[:5] for line in table] == expected


@pytest.mark.parametrize(
    "error",
    [
        ConnectivityError("no placement connecting node 0 to node 24 in 1000 attempts"),
        NoPathError("no path from 0 to 24"),
    ],
    ids=["placement", "no-path"],
)
def test_bench_domain_error_exits_3(tmp_path, capsys, monkeypatch, error):
    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr(bench, "generate_scenario", refuse)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(ONE_CELL_PLAN))
    out_dir = tmp_path / "bench"
    assert main(["bench", "--plan", str(plan_path), "--out", str(out_dir)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"
    # the plan is written before the first cell runs; no results are
    assert load_plan(out_dir / "plan.json") == plan_from_dict(ONE_CELL_PLAN)
    assert not (out_dir / "results.csv").exists()


@pytest.mark.parametrize(
    "plan_text,field",
    [
        ('{"node_counts": 25}', "node_counts"),
        ('{"seeds": [101]}', "seeds"),
        ('{"population_size": null}', "population_size"),
        ('{"radio_range": "far"}', "radio_range"),
        ("5", "JSON object"),
        ('{"generation_budgets": [0]}', "generation_budgets"),
        ('{"population_size": 1}', "population_size"),
        ('{"placement": "hex"}', "placement"),
        ('{"center_mode": "best-individual"}', "unknown plan fields"),
        ('{"node_counts": [25.9]}', "node_counts"),
        ('{"generation_budgets": [true]}', "generation_budgets"),
        ('{"seeds": [[101, "9001"]]}', "seeds"),
        ('{"population_size": 50.7}', "population_size"),
        ('{"radio_range": true}', "radio_range"),
        ('{"seeds": [[-1, 9001]]}', "seeds"),
        ('{"radio_range": 0}', "radio_range"),
        ('{"radio_range": Infinity}', "radio_range is inf, not a positive finite number"),
        ('{"seeds": [[101, 9001], [101, 9001]], "algorithms": ["bbbc", "bbbc"]}', "seeds repeats"),
    ],
    ids=[
        "node-counts-scalar", "seed-not-a-pair", "null-population", "text-range", "bare-number",
        "zero-generations", "population-one", "unknown-placement", "dropped-field",
        "float-node-count", "bool-generations", "text-seed", "float-population", "bool-range",
        "negative-seed", "zero-range", "infinite-range", "repeated-seed-pair",
    ],
)
def test_bench_rejects_malformed_plan(tmp_path, capsys, plan_text, field):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(plan_text)
    out_dir = tmp_path / "bench"
    assert main(["bench", "--plan", str(plan_path), "--out", str(out_dir)]) == EXIT_USAGE
    assert not out_dir.exists()  # rejected before any scenario is built
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert field in captured.err
    assert "Traceback" not in captured.err


def test_bench_rejects_population_bbo_cannot_run(tmp_path, capsys):
    # BB-BC could run every cell of this plan; BBO cannot run any, and the
    # plan fails before the first BB-BC cell
    plan = {"node_counts": [9], "generation_budgets": [3], "seeds": [[101, 9001]], "population_size": 2}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out_dir = tmp_path / "bench"
    assert main(["bench", "--plan", str(plan_path), "--out", str(out_dir)]) == EXIT_USAGE
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: plan cannot run bbo: population_size is 2, which is less than 3\n"


def test_bench_rejects_non_square_grid_before_any_cell(tmp_path, capsys):
    # every 25-node cell could run; the 30-node grid cannot, and the plan
    # fails before the first cell
    plan = {"node_counts": [25, 30], "generation_budgets": [3], "seeds": [[101, 9001]]}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out_dir = tmp_path / "bench"
    assert main(["bench", "--plan", str(plan_path), "--out", str(out_dir)]) == EXIT_USAGE
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: grid placement needs a perfect-square node count, 30 is not a perfect square\n"
    )


def test_bench_runs_node_counts_above_100(tmp_path, capsys):
    plan = {
        "node_counts": [9, 121],
        "generation_budgets": [2],
        "seeds": [[101, 9001]],
        "population_size": 8,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out_dir = tmp_path / "bench"
    assert main(["bench", "--plan", str(plan_path), "--out", str(out_dir)]) == EXIT_OK
    rows = (out_dir / "results.csv").read_text().splitlines()[1:]
    assert sorted(row.split(",")[1] for row in rows) == ["121", "121", "9", "9"]
    assert "skipping" not in capsys.readouterr().err


def test_bench_all_cells_large_without_flag(tmp_path):
    plan = {"node_counts": [2500], "generation_budgets": [2], "seeds": [[101, 9001]]}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out_dir = tmp_path / "b"
    assert main(["bench", "--plan", str(plan_path), "--out", str(out_dir)]) == EXIT_OK
    rows = (out_dir / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["bbbc", "2500"], ["bbo", "2500"]]


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()
