"""Biogeography-based optimization: rates, migration, probability flow, mutation."""

import numpy as np
import pytest

from meshroute import bbo
from meshroute.bbo import (
    BboParams,
    Habitat,
    migrate,
    migration_rates,
    mutate,
    rank_to_species,
    run_bbo,
    species_probability_delta,
    update_probability,
)
from meshroute.oracle import percent_error
from meshroute.pathcodec import decode_path, random_vector
from meshroute.results import TracePoint

from helpers import (
    GOLDEN_GENERATIONS,
    OPTIMIZER_GOLDEN_CASES,
    count_decodes,
    decode_then_price,
    scenario_cost_matrix,
)

RATE_CONFIGS = 100
MUTATION_TRIALS = 4_000  # habitats mutated; n dims each


def make_habitats(cm, source, terminal, count, seed):
    rng = np.random.default_rng(seed)
    habitats = []
    for _ in range(count):
        siv = random_vector(rng, cm.n)
        path = decode_path(siv, cm, source, terminal)
        habitats.append(Habitat(siv, path, path.cost))
    habitats.sort(key=lambda h: h.cost)
    return habitats


def test_rank_to_species_endpoints():
    assert rank_to_species(0, 50) == 50
    assert rank_to_species(49, 50) == 1
    with pytest.raises(ValueError):
        rank_to_species(51, 50)
    with pytest.raises(ValueError):
        rank_to_species(-1, 50)


def test_species_strictly_inverse_to_rank():
    counts = [rank_to_species(r, 20) for r in range(20)]
    assert counts == sorted(counts, reverse=True)
    assert len(set(counts)) == len(counts)


def test_migration_rate_endpoints():
    assert migration_rates(0, 50, 1.0, 1.0) == (1.0, 0.0)
    assert migration_rates(50, 50, 1.0, 1.0) == (0.0, 1.0)
    assert migration_rates(25, 50, 1.0, 1.0) == (0.5, 0.5)


@pytest.mark.parametrize("immigration_max,emigration_max", [(1.0, 1.0), (2.0, 0.5)])
def test_rate_identity(immigration_max, emigration_max):
    k = np.arange(51)
    lam, mu = migration_rates(k, 50, immigration_max, emigration_max)
    identity = lam / immigration_max + mu / emigration_max
    assert np.allclose(identity, 1.0, atol=1e-12)


def test_probability_delta_conserves_mass():
    rng = np.random.default_rng(13)
    for _ in range(RATE_CONFIGS):
        m = int(rng.integers(2, 60))
        p = rng.random(m)
        p /= p.sum()
        lam = rng.random(m)
        mu = rng.random(m)
        dp = species_probability_delta(p, lam, mu)
        assert abs(dp.sum()) <= 1e-12


def test_probability_delta_shape_mismatch():
    with pytest.raises(ValueError):
        species_probability_delta(np.ones(3) / 3, np.ones(2), np.ones(3))


def test_update_probability_no_dynamics():
    p = np.array([0.2, 0.3, 0.5])
    out = update_probability(p, np.zeros(3), np.zeros(3))
    assert np.allclose(out, p, atol=1e-15)


def test_update_probability_two_state_hand_example():
    p = np.array([1.0, 0.0])
    lam = np.array([1.0, 0.0])
    mu = np.array([0.0, 1.0])
    out = update_probability(p, lam, mu)
    assert np.array_equal(out, np.array([0.0, 1.0]))


def test_update_probability_normalizes():
    rng = np.random.default_rng(3)
    p = rng.random(11)
    p /= p.sum()
    out = update_probability(p, rng.random(11), rng.random(11), dt=1.0)
    assert out.sum() == pytest.approx(1.0, abs=1e-9)
    assert (out >= 0).all()


def test_migrate_zero_immigration_is_identity(line3_cm):
    habitats = make_habitats(line3_cm, 0, 2, 4, seed=0)
    before = [h.siv.copy() for h in habitats]
    for h in habitats:
        h.immigration_rate = 0.0
        h.emigration_rate = 1.0
    migrate(habitats, line3_cm, 0, 2, 0, np.random.default_rng(0))
    for h, old in zip(habitats, before):
        assert np.array_equal(h.siv, old)


def test_migrate_forced_single_donor(line3_cm):
    habitats = make_habitats(line3_cm, 0, 2, 3, seed=1)
    donor = habitats[0]
    for h in habitats:
        h.immigration_rate = 0.0
        h.emigration_rate = 0.0
    donor.emigration_rate = 1.0
    habitats[1].immigration_rate = 1.0
    donor_old = donor.siv.copy()
    migrate(habitats, line3_cm, 0, 2, 0, np.random.default_rng(5))
    assert np.array_equal(habitats[1].siv, donor_old)
    assert np.array_equal(donor.siv, donor_old)


def test_migrate_uses_pre_migration_snapshot(line3_cm):
    # both habitats fully immigrate from each other: they must swap, not chain
    habitats = make_habitats(line3_cm, 0, 2, 2, seed=2)
    a_old = habitats[0].siv.copy()
    b_old = habitats[1].siv.copy()
    for h in habitats:
        h.immigration_rate = 1.0
        h.emigration_rate = 1.0
    migrate(habitats, line3_cm, 0, 2, 0, np.random.default_rng(9))
    assert np.array_equal(habitats[0].siv, b_old)
    assert np.array_equal(habitats[1].siv, a_old)


def test_migrate_preserves_elites(line3_cm):
    habitats = make_habitats(line3_cm, 0, 2, 5, seed=3)
    for h in habitats:
        h.immigration_rate = 1.0
        h.emigration_rate = 0.5
    elites_old = [habitats[i].siv.copy() for i in range(2)]
    migrate(habitats, line3_cm, 0, 2, 2, np.random.default_rng(1))
    for i in range(2):
        assert np.array_equal(habitats[i].siv, elites_old[i])


def test_migrate_refreshes_cost(grid25):
    _, cm, _ = grid25
    habitats = make_habitats(cm, 0, 24, 6, seed=4)
    for h in habitats:
        h.immigration_rate = 0.9
        h.emigration_rate = 0.5
    migrate(habitats, cm, 0, 24, 0, np.random.default_rng(2))
    for h in habitats:
        assert h.cost == decode_path(h.siv, cm, 0, 24).cost
        assert (h.siv >= 0).all() and (h.siv <= 1).all()


def test_migrate_requires_a_donor(line3_cm):
    habitats = make_habitats(line3_cm, 0, 2, 2, seed=5)
    for h in habitats:
        h.immigration_rate = 1.0
        h.emigration_rate = 0.0
    with pytest.raises(ValueError):
        migrate(habitats, line3_cm, 0, 2, 0, np.random.default_rng(0))


def test_mutate_zero_rate_is_identity(line3_cm):
    habitats = make_habitats(line3_cm, 0, 2, 4, seed=6)
    for h in habitats:
        h.p_s = 0.1
    before = [h.siv.copy() for h in habitats]
    mutate(habitats, line3_cm, 0, 2, 0.0, 0, np.random.default_rng(0))
    for h, old in zip(habitats, before):
        assert np.array_equal(h.siv, old)


def test_mutate_spares_most_probable(line3_cm):
    habitats = make_habitats(line3_cm, 0, 2, 3, seed=7)
    habitats[0].p_s = 0.5  # P_max holder: m = 0
    habitats[1].p_s = 0.0
    habitats[2].p_s = 0.0
    top_old = habitats[0].siv.copy()
    mutate(habitats, line3_cm, 0, 2, 1.0, 0, np.random.default_rng(4))
    assert np.array_equal(habitats[0].siv, top_old)


def test_mutate_frequency(grid25):
    _, cm, _ = grid25
    rng = np.random.default_rng(8)
    flips = 0
    total = 0
    for trial in range(MUTATION_TRIALS // 10):
        habitats = make_habitats(cm, 0, 24, 2, seed=100 + trial)
        habitats[0].p_s = 1.0  # elite and P_max holder
        habitats[1].p_s = 0.0  # mutates at the full m_max = 0.01
        before = habitats[1].siv.copy()
        mutate(habitats, cm, 0, 24, 0.01, 1, rng)
        flips += int((habitats[1].siv != before).sum())
        total += cm.n
    assert flips / total == pytest.approx(0.01, abs=0.003)


def test_params_validation():
    with pytest.raises(ValueError):
        BboParams(max_generations=0)
    with pytest.raises(ValueError):
        BboParams(max_generations=5, immigration_max=0.0)
    with pytest.raises(ValueError):
        BboParams(max_generations=5, mutation_max=1.5)
    with pytest.raises(ValueError):
        BboParams(max_generations=5, population_size=10, elite_count=10)


def test_line_graph_solved_at_generation_one(line3_cm):
    params = BboParams(max_generations=1, population_size=4, rng_seed=0)
    r = run_bbo(line3_cm, 0, 2, params)
    assert r.best_path.nodes == (0, 1, 2)
    assert len(r.trace) == 1


def test_grid25_reaches_optimum(grid25):
    _, cm, oracle = grid25
    params = BboParams(max_generations=30, population_size=50, rng_seed=42)
    r = run_bbo(cm, 0, 24, params)
    assert percent_error(r.best_cost, oracle.cost) == pytest.approx(0.0, abs=1e-9)


def test_same_seed_same_result(grid25):
    _, cm, _ = grid25
    params = BboParams(max_generations=12, population_size=15, rng_seed=5)
    a = run_bbo(cm, 0, 24, params)
    b = run_bbo(cm, 0, 24, params)
    assert a.best_path == b.best_path
    assert a.trace == b.trace


def test_trace_monotone(grid25):
    _, cm, _ = grid25
    for seed in range(4):
        params = BboParams(max_generations=20, population_size=15, rng_seed=seed)
        r = run_bbo(cm, 0, 24, params)
        costs = [p.best_cost_so_far for p in r.trace]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert [p.generation for p in r.trace] == list(range(1, 21))


def test_result_metadata(grid25):
    _, cm, _ = grid25
    params = BboParams(max_generations=5, population_size=10, rng_seed=2)
    r = run_bbo(cm, 0, 24, params)
    assert r.algorithm == "bbo"
    assert r.params["elite_count"] == 2
    assert r.params["rng_seed"] == 2
    assert r.n_nodes == 25


def reference_run_bbo(cm, source, terminal, params):
    """run_bbo as it was when it decoded every habitat again at the top of
    every generation; it decodes through bbo.decode_path, as migrate and
    mutate do."""
    rng = np.random.default_rng(params.rng_seed)
    n_dims = cm.n
    n_pop = params.population_size
    best_path = None
    trace = []
    habitats = []
    for _ in range(n_pop):
        siv = random_vector(rng, n_dims)
        path = bbo.decode_path(siv, cm, source, terminal)
        habitats.append(Habitat(siv, path, path.cost))
    p_species = np.full(n_pop + 1, 1.0 / (n_pop + 1))
    lam_k, mu_k = migration_rates(
        np.arange(n_pop + 1), n_pop, params.immigration_max, params.emigration_max
    )
    for gen in range(1, params.max_generations + 1):
        for h in habitats:
            h.path = bbo.decode_path(h.siv, cm, source, terminal)
            h.cost = h.path.cost
        habitats.sort(key=lambda h: h.cost)
        if best_path is None or habitats[0].cost < best_path.cost:
            best_path = habitats[0].path
        trace.append(TracePoint(gen, best_path.cost, habitats[0].cost))
        if gen == params.max_generations:
            break
        for rank, h in enumerate(habitats):
            h.species_count = rank_to_species(rank, n_pop)
            h.immigration_rate, h.emigration_rate = migration_rates(
                h.species_count, n_pop, params.immigration_max, params.emigration_max
            )
        migrate(habitats, cm, source, terminal, params.elite_count, rng)
        p_species = update_probability(p_species, lam_k, mu_k)
        for h in habitats:
            h.p_s = float(p_species[h.species_count])
        mutate(habitats, cm, source, terminal, params.mutation_max, params.elite_count, rng)
    return best_path, best_path.cost, tuple(trace)


@pytest.mark.parametrize("n, placement, scenario_seed, opt_seed", OPTIMIZER_GOLDEN_CASES)
def test_run_matches_reference(n, placement, scenario_seed, opt_seed, monkeypatch):
    cm = scenario_cost_matrix(n, placement, scenario_seed)
    params = BboParams(max_generations=GOLDEN_GENERATIONS, rng_seed=opt_seed)
    got = run_bbo(cm, 0, n - 1, params)
    monkeypatch.setattr(bbo, "decode_path", decode_then_price)
    assert (got.best_path, got.best_cost, got.trace) == reference_run_bbo(cm, 0, n - 1, params)


def test_decodes_only_changed_habitats(monkeypatch):
    # init decodes every habitat; afterwards only a habitat that migrate or
    # mutate changed is decoded, where the reference also decodes all P at
    # the top of every generation
    cm = scenario_cost_matrix(100, "grid", 101)
    params = BboParams(max_generations=50, population_size=50, rng_seed=9001)
    calls = count_decodes(monkeypatch, bbo, decode_path)
    run_bbo(cm, 0, 99, params)
    assert len(calls) == 3229
    calls = count_decodes(monkeypatch, bbo, decode_then_price)
    reference_run_bbo(cm, 0, 99, params)
    assert len(calls) == 3229 + 50 * 50 == 5729
