"""Tests of the benchmark's own helpers. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from harness import (  # noqa: E402
    Digest,
    Span,
    Tracer,
    local_reference,
    median,
    percentile,
    permille_label,
    self_times_ns,
    tail_permille,
)
from meshroute import build_cost_matrix, generate_scenario, run_bbbc, shortest_path  # noqa: E402
from meshroute import BbbcParams  # noqa: E402
from reference import Reference  # noqa: E402

TINY_SOLVE = workloads.Workload("tiny-solve", 25, "grid", scenarios=2, generations=5)
TINY_ORACLE = workloads.Workload("tiny-oracle", 25, "grid", scenarios=2, queries=20, round_trip=True)


# -- percentiles ----------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert median(values) == 5  # lower of the middle two
    assert median([3, 1, 2]) == 2
    assert percentile(values, 900) == 9
    assert percentile(values, 1000) == 10
    assert percentile(values, 1) == 1
    samples = list(range(200))
    assert percentile(samples, 950) == 189  # rank 190, ten samples beyond it


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 500)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (99, None), (100, 900), (199, 900), (200, 950), (999, 950), (1000, 990), (10000, 999)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_permille(count) == expected


def test_permille_label():
    assert permille_label(950) == "p95"
    assert permille_label(999) == "p99.9"


# -- spans and self time ----------------------------------------------------------


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        Span(0, None, "root", 0, 0, 100),
        Span(1, 0, "a", 0, 10, 40),
        Span(2, 0, "b", 0, 30, 60),  # overlaps a: union 10..60
        Span(3, 1, "a.leaf", 0, 15, 20),  # grandchild: counts against a only
        Span(4, 0, "c", 0, 90, 120),  # runs past the parent: only 90..100 counts
    ]
    self_ns = self_times_ns(spans)
    assert self_ns == {0: 100 - 50 - 10, 1: 30 - 5, 2: 30, 3: 5, 4: 30}


def test_tracer_links_parents_and_inherits_trace_ids():
    tracer = Tracer()
    root = tracer.begin("workload")
    scenario = tracer.begin("scenario", trace_id=7)
    call = tracer.begin("bbbc.run_bbbc")
    leaf = tracer.record("pathcodec.decode_path", 1, 2, hops=3)
    tracer.end(call)
    tracer.end(scenario)
    tracer.end(root)
    assert [s.parent_id for s in tracer.spans] == [None, root.span_id, scenario.span_id, call.span_id]
    assert [s.trace_id for s in tracer.spans] == [None, 7, 7, 7]
    assert leaf.attrs == {"hops": 3}
    assert all(s.end_ns >= s.start_ns for s in tracer.spans)


# -- output checks ----------------------------------------------------------------


@pytest.fixture(scope="module")
def grid25():
    cm = build_cost_matrix(generate_scenario(25, "grid", 3))
    return cm, shortest_path(cm, 0, 24)


def test_check_route_accepts_the_oracle_route(grid25):
    cm, oracle = grid25
    assert workloads.check_route(oracle.nodes, oracle.cost, cm, 0, 24) == []


def test_check_route_rejects_hand_broken_paths(grid25):
    cm, oracle = grid25
    nodes = oracle.nodes
    assert workloads.check_route(nodes[:-1], oracle.cost, cm, 0, 24)  # stops short
    assert workloads.check_route(nodes[1:], oracle.cost, cm, 0, 24)  # starts late
    looped = (nodes[0], nodes[1], nodes[0]) + nodes[1:]
    assert workloads.check_route(looped, oracle.cost, cm, 0, 24)  # revisits
    assert workloads.check_route((0, 24), oracle.cost, cm, 0, 24)  # 0 -> 24 is no link
    nudged = oracle.cost + oracle.cost * 2**-52
    assert workloads.check_route(nodes, nudged, cm, 0, 24)  # cost off by one ulp


def test_check_run_rejects_broken_results(grid25):
    cm, oracle = grid25
    result = run_bbbc(cm, 0, 24, BbbcParams(max_generations=5, rng_seed=1))
    assert workloads.check_run(result, cm, 0, 24, oracle.cost, 5) == []
    assert workloads.check_run(result, cm, 0, 24, oracle.cost, 6)  # trace length
    assert workloads.check_run(result, cm, 0, 24, result.best_cost + 1.0, 5)  # beats oracle
    rising = result.trace[:-1] + (replace(result.trace[-1], best_cost_so_far=result.trace[-2].best_cost_so_far + 1),)
    assert workloads.check_run(replace(result, trace=rising), cm, 0, 24, oracle.cost, 5)


# -- host-speed reference -------------------------------------------------------


def test_local_reference_is_the_median_of_nearby_samples():
    samples = [(0.0, 1.0), (0.5, 3.0), (1.0, 2.0), (10.0, 9.0)]
    assert local_reference(samples, 0.4, 0.6, 0.5) == pytest.approx(3 / (1 + 1 / 3 + 1 / 2))
    assert local_reference(samples, 9.0, 9.5, 1.0) == 9.0
    # none within the window: the nearest sample, measured to either end
    assert local_reference(samples, 4.0, 4.5, 1.0) == 2.0
    assert local_reference(samples, 6.0, 7.0, 1.0) == 9.0
    with pytest.raises(ValueError):
        local_reference([], 0.0, 1.0, 1.0)


def test_reference_kernel_is_deterministic():
    assert Reference()() == Reference()()
    midpoint, seconds = Reference().timed()
    assert seconds > 0 and midpoint > 0


def test_reference_units_cancel_a_uniformly_slower_host(tmp_path):
    run = workloads.execute(TINY_SOLVE, 0, 0.01, False, tmp_path)
    fast = workloads.reference_units(run)
    fast_metrics = workloads.end_to_end_metrics(run)
    run.samples = [(key, start, end, 1.5 * t) for key, start, end, t in run.samples]
    run.sampler.samples = [(t, 1.5 * seconds) for t, seconds in run.sampler.samples]
    assert workloads.reference_units(run) == pytest.approx(fast)
    slow_metrics = workloads.end_to_end_metrics(run)
    for name in ("setup_s", "request_ref_p50"):
        assert slow_metrics[name][0] == pytest.approx(fast_metrics[name][0])
    assert set(fast) == set(run.best)
    assert len(workloads.per_request(run, fast)) == TINY_SOLVE.scenarios


# -- whole runs on tiny workloads -----------------------------------------------------


def test_digest_is_stable_across_identical_runs(tmp_path):
    first = workloads.execute(TINY_SOLVE, 0, 0.01, False, tmp_path)
    second = workloads.execute(TINY_SOLVE, 0, 0.01, False, tmp_path)
    other = workloads.execute(TINY_SOLVE, 1, 0.01, False, tmp_path)
    assert first.failed == second.failed == 0
    assert first.digest.hexdigest() == second.digest.hexdigest()
    assert other.digest.hexdigest() != first.digest.hexdigest()


def test_digest_and_quality_do_not_depend_on_run_length(tmp_path):
    short = workloads.execute(TINY_SOLVE, 0, 0.01, False, tmp_path)
    long = workloads.execute(TINY_SOLVE, 0, 0.5, False, tmp_path)
    assert short.passes == workloads.MIN_PASSES
    assert len(long.samples) > len(short.samples)
    assert long.failed == 0  # every rerun reproduced the first pass
    assert long.digest.hexdigest() == short.digest.hexdigest()
    assert long.cost_ratio == short.cost_ratio


def test_digest_is_order_sensitive():
    a, b = Digest(), Digest()
    a.add(1.0)
    a.add(2.0)
    b.add(2.0)
    b.add(1.0)
    assert a.hexdigest() != b.hexdigest()


def test_traced_run_matches_untraced_outputs_and_counts_decodes(tmp_path):
    plain = workloads.execute(TINY_SOLVE, 0, 0.01, False, tmp_path)
    traced = workloads.execute(TINY_SOLVE, 0, 0.01, True, tmp_path)
    assert traced.failed == 0
    assert traced.digest.hexdigest() == plain.digest.hexdigest()
    layers = workloads.layer_metrics(traced)
    assert layers["pathcodec.decode_calls"][0] > 0
    assert layers["bbbc.decodes_per_generation"][0] == 50.0  # one decode per genome
    assert 0.0 < layers["pathcodec.solve_share"][0] < 1.0
    # the wrapper is removed again after each traced execution
    assert workloads.bbbc_module.decode_path is workloads.bbo_module.decode_path


def test_oracle_workload_round_trips_and_never_decodes(tmp_path):
    run = workloads.execute(TINY_ORACLE, 0, 0.01, True, tmp_path)
    assert run.failed == 0
    layers = workloads.layer_metrics(run)
    assert layers["pathcodec.decode_calls"][0] == 0
    assert layers["oracle.queries"][0] >= TINY_ORACLE.queries
    assert layers["topology.json_bytes"][0] > 0
    assert list(tmp_path.iterdir()) == []  # the round-trip file is removed


def test_trace_guard_fails_loudly_when_the_wrapper_misses(tmp_path, monkeypatch):
    class Elsewhere:
        decode_path = None

    # the wrapper lands on a module the optimizers do not read from
    monkeypatch.setattr(workloads, "bbbc_module", Elsewhere)
    monkeypatch.setattr(workloads, "bbo_module", Elsewhere)
    with pytest.raises(workloads.TraceGuardError):
        workloads.execute(TINY_SOLVE, 0, 0.01, True, tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_one_result_line(tmp_path, monkeypatch, capsys, trace):
    import run

    monkeypatch.setitem(workloads.WORKLOADS, TINY_SOLVE.name, TINY_SOLVE)
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = ["--workload", TINY_SOLVE.name, "--seed", "0", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = workloads.layer_metrics if trace else workloads.end_to_end_metrics
    assert set(result["metrics"]) == set(expected(workloads.execute(TINY_SOLVE, 0, 0.01, bool(trace), tmp_path)))
