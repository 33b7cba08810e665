"""Headline acceptance criteria AC-1..AC-10, one printed verdict line each.

Campaign layout mirrors the benchmark protocol: grid scenarios seeded
101..110 with optimizer seeds 9001..9010, population 50 for both algorithms.
Each test prints its measured figures whether it passes or fails.
"""

import time

import numpy as np
import pytest

from meshroute.bbbc import BbbcParams, center_of_mass, run_bbbc, spawn
from meshroute.bbo import (
    BboParams,
    migration_rates,
    run_bbo,
    species_probability_delta,
    update_probability,
)
from meshroute.bench import BenchPlan, lower_median, run_plan, write_results_csv
from meshroute.fuzzycost import build_cost_matrix, evaluate_ilc
from meshroute.oracle import (
    UnreachableError,
    brute_force_shortest,
    percent_error,
    shortest_path,
)
from meshroute.topology import generate_scenario

from helpers import from_entries

SEED_PAIRS = tuple((101 + i, 9001 + i) for i in range(10))
POPULATION = 50

COLLECTED_TRACES = []  # every optimizer run feeds the AC-9 sweep


def report(capsys, tag, ok, detail):
    with capsys.disabled():
        print(f"{tag} {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"{tag}: {detail}"


class FixedNormal:
    def __init__(self, value):
        self.value = value

    def standard_normal(self, shape):
        return np.full(shape, self.value)


def test_ac1_zero_error_on_25_nodes(capsys):
    start = time.perf_counter()
    hits = {"bbbc": 0, "bbo": 0}
    for scenario_seed, opt_seed in SEED_PAIRS:
        scenario = generate_scenario(25, placement="grid", seed=scenario_seed)
        cm = build_cost_matrix(scenario)
        oracle = shortest_path(cm, 0, 24)
        runs = {
            "bbbc": run_bbbc(
                cm, 0, 24,
                BbbcParams(max_generations=30, population_size=POPULATION, rng_seed=opt_seed),
            ),
            "bbo": run_bbo(
                cm, 0, 24,
                BboParams(max_generations=30, population_size=POPULATION, rng_seed=opt_seed),
            ),
        }
        for name, r in runs.items():
            COLLECTED_TRACES.append(r.trace)
            if percent_error(r.best_cost, oracle.cost) <= 1e-9:
                hits[name] += 1
    elapsed = time.perf_counter() - start
    ok = hits["bbbc"] >= 9 and hits["bbo"] >= 9 and elapsed < 5.0
    report(
        capsys, "AC-1", ok,
        f"25-node zero-error runs: bbbc {hits['bbbc']}/10, bbo {hits['bbo']}/10 "
        f"in {elapsed:.2f}s (need >=9/10 each, <5s)",
    )


@pytest.fixture(scope="module")
def hundred_node_campaign():
    start = time.perf_counter()
    errors = {(a, g): [] for a in ("bbbc", "bbo") for g in (30, 100)}
    for scenario_seed, opt_seed in SEED_PAIRS:
        scenario = generate_scenario(100, placement="grid", seed=scenario_seed)
        cm = build_cost_matrix(scenario)
        oracle = shortest_path(cm, 0, 99)
        for gens in (30, 100):
            rb = run_bbbc(
                cm, 0, 99,
                BbbcParams(max_generations=gens, population_size=POPULATION, rng_seed=opt_seed),
            )
            ro = run_bbo(
                cm, 0, 99,
                BboParams(max_generations=gens, population_size=POPULATION, rng_seed=opt_seed),
            )
            for name, r in (("bbbc", rb), ("bbo", ro)):
                COLLECTED_TRACES.append(r.trace)
                errors[(name, gens)].append(percent_error(r.best_cost, oracle.cost))
    elapsed = time.perf_counter() - start
    medians = {key: lower_median(vals) for key, vals in errors.items()}
    return medians, elapsed


def test_ac2_error_trend_on_100_nodes(capsys, hundred_node_campaign):
    medians, elapsed = hundred_node_campaign
    trend_ok = (
        medians[("bbbc", 100)] <= medians[("bbbc", 30)]
        and medians[("bbo", 100)] <= medians[("bbo", 30)]
    )
    level_ok = medians[("bbbc", 100)] <= 5.0 and medians[("bbo", 100)] <= 5.0
    ok = trend_ok and level_ok and elapsed < 120.0
    report(
        capsys, "AC-2", ok,
        f"100-node median error, 30->100 gens: "
        f"bbbc {medians[('bbbc', 30)]:.3f}%->{medians[('bbbc', 100)]:.3f}%, "
        f"bbo {medians[('bbo', 30)]:.3f}%->{medians[('bbo', 100)]:.3f}% "
        f"in {elapsed:.1f}s (need non-increasing, <=5% at 100 gens, <120s)",
    )


def test_ac3_per_generation_timing_ratio(capsys):
    scenario = generate_scenario(100, placement="random", seed=101)
    cm = build_cost_matrix(scenario)
    per_gen = {"bbbc": [], "bbo": []}
    for i in range(5):
        rb = run_bbbc(
            cm, 0, 99,
            BbbcParams(max_generations=30, population_size=POPULATION, rng_seed=9001 + i),
        )
        ro = run_bbo(
            cm, 0, 99,
            BboParams(max_generations=30, population_size=POPULATION, rng_seed=9001 + i),
        )
        COLLECTED_TRACES.extend([rb.trace, ro.trace])
        per_gen["bbbc"].append(rb.wall_time_ms / 30.0)
        per_gen["bbo"].append(ro.wall_time_ms / 30.0)
    ratio = lower_median(per_gen["bbo"]) / lower_median(per_gen["bbbc"])
    ok = ratio >= 2.0
    report(
        capsys, "AC-3", ok,
        f"100-node per-generation wall time: bbo/bbbc ratio {ratio:.2f} over "
        f"5 serial runs (need >=2.0)",
    )


def test_ac4_bbbc_at_least_matches_bbo(capsys, hundred_node_campaign):
    medians, _ = hundred_node_campaign
    bbbc, bbo = medians[("bbbc", 100)], medians[("bbo", 100)]
    ok = bbbc <= bbo
    report(
        capsys, "AC-4", ok,
        f"100-node median error at 100 gens: bbbc {bbbc:.3f}% vs bbo {bbo:.3f}% "
        f"(need bbbc <= bbo)",
    )


def test_ac5_oracle_agreement_campaign(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    disagreements = 0
    reachable = 0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        p = float(rng.choice([0.15, 0.3, 0.5]))
        entries = {
            (i, j): float(rng.uniform(0.05, 1.0))
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < p
        }
        cm = from_entries(n, entries)
        try:
            fast = shortest_path(cm, 0, n - 1)
        except UnreachableError:
            fast = None
        try:
            slow = brute_force_shortest(cm, 0, n - 1)
        except UnreachableError:
            slow = None
        if (fast is None) != (slow is None):
            disagreements += 1
        elif fast is not None:
            reachable += 1
            if fast.nodes != slow.nodes or abs(fast.cost - slow.cost) > 1e-9:
                disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 30.0
    report(
        capsys, "AC-5", ok,
        f"exact-search cross-check: {disagreements} disagreements on 500 random "
        f"graphs ({reachable} reachable) in {elapsed:.2f}s (need 0, <30s)",
    )


def test_ac6_center_and_spawn_hand_values(capsys):
    checks = {
        "single mass": np.allclose(
            center_of_mass(np.array([[0.2, 0.4]]), np.array([5.0])),
            [0.2, 0.4], atol=1e-12,
        ),
        "equal weights": np.allclose(
            center_of_mass(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1.0, 1.0])),
            [0.5, 0.5], atol=1e-12,
        ),
        "weighted": np.allclose(
            center_of_mass(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1.0, 3.0])),
            [0.25, 0.25], atol=1e-12,
        ),
        "zero draw": np.array_equal(
            spawn(np.array([0.3, 0.6]), 1.0, 4, FixedNormal(0.0)), [0.3, 0.6]
        ),
        "hand offset": spawn(np.array([0.5]), 1.0, 2, FixedNormal(0.5))[0] == 0.75,
        "upper clamp": spawn(np.array([0.9]), 1.0, 1, FixedNormal(3.0))[0] == 1.0,
    }
    failed = sorted(name for name, good in checks.items() if not good)
    report(
        capsys, "AC-6", not failed,
        f"center/spawn hand calculations: {len(checks) - len(failed)}/{len(checks)} exact"
        + (f", failed {failed}" if failed else ""),
    )


def test_ac7_migration_rate_suite(capsys):
    k = np.arange(51)
    identity_dev = 0.0
    for imax, emax in ((1.0, 1.0), (2.0, 0.5)):
        lam, mu = migration_rates(k, 50, imax, emax)
        identity_dev = max(identity_dev, float(np.abs(lam / imax + mu / emax - 1.0).max()))
    rng = np.random.default_rng(7)
    flow_dev = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 60))
        p = rng.random(m)
        p /= p.sum()
        dp = species_probability_delta(p, rng.random(m), rng.random(m))
        flow_dev = max(flow_dev, abs(float(dp.sum())))
    two_state = update_probability(
        np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    )
    two_state_ok = np.array_equal(two_state, np.array([0.0, 1.0]))
    ok = identity_dev <= 1e-12 and flow_dev <= 1e-12 and two_state_ok
    report(
        capsys, "AC-7", ok,
        f"rate identity dev {identity_dev:.1e}, probability-flow dev {flow_dev:.1e} "
        f"over 100 configs, two-state step exact: {two_state_ok}",
    )


def test_ac8_fuzzy_surface_suite(capsys):
    lattice = [i / 10.0 for i in range(11)]
    steps = range(11)
    grid = {
        (t, d, j): evaluate_ilc(lattice[t], lattice[d], lattice[j])
        for t in steps
        for d in steps
        for j in steps
    }
    mono_violations = 0
    for a in steps:
        for b in steps:
            thr = [grid[(t, a, b)] for t in steps]
            dly = [grid[(a, d, b)] for d in steps]
            jit = [grid[(a, b, j)] for j in steps]
            mono_violations += sum(y > x + 1e-9 for x, y in zip(thr, thr[1:]))
            mono_violations += sum(y < x - 1e-9 for x, y in zip(dly, dly[1:]))
            mono_violations += sum(y < x - 1e-9 for x, y in zip(jit, jit[1:]))
    sym_dev = max(
        abs(grid[(t, d, j)] - (1.0 - grid[(10 - t, 10 - d, 10 - j)]))
        for t in steps
        for d in steps
        for j in steps
    )
    midpoint = evaluate_ilc(0.5, 0.5, 0.5)
    ok = mono_violations == 0 and sym_dev <= 0.02 and midpoint == 0.5
    report(
        capsys, "AC-8", ok,
        f"11^3 lattice: {mono_violations} monotonicity violations, symmetry dev "
        f"{sym_dev:.4f} (<=0.02), all-medium centroid {midpoint} (need exactly 0.5)",
    )


def test_ac9_every_trace_is_monotone(capsys):
    plan = BenchPlan(
        node_counts=(25,),
        generation_budgets=(30,),
        seeds=tuple(SEED_PAIRS[:3]),
        population_size=POPULATION,
    )
    traces = [r.trace for r in run_plan(plan)] + COLLECTED_TRACES
    violations = 0
    for trace in traces:
        costs = [point.best_cost_so_far for point in trace]
        violations += sum(b > a for a, b in zip(costs, costs[1:]))
    ok = violations == 0 and len(traces) >= 6
    report(
        capsys, "AC-9", ok,
        f"best-so-far monotone in {len(traces)} collected traces, "
        f"{violations} violations (need 0)",
    )


def test_ac10_plan_rerun_is_byte_identical(capsys, tmp_path):
    plan = BenchPlan(
        node_counts=(9, 25),
        generation_budgets=(10,),
        seeds=tuple(SEED_PAIRS[:3]),
        population_size=20,
    )
    paths = []
    for name in ("first.csv", "second.csv"):
        path = tmp_path / name
        write_results_csv(run_plan(plan), path)
        paths.append(path)

    def stable_part(path):
        # wall_time_ms is the final column and legitimately varies
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    first, second = stable_part(paths[0]), stable_part(paths[1])
    ok = first == second
    report(
        capsys, "AC-10", ok,
        f"rerun of a {len(first) - 1}-run plan: non-timing fields byte-identical: {ok}",
    )
