"""Biogeography-based optimization: rates, migration, probability flow, mutation."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshroute import bbo
from meshroute.bbo import (
    donor_roulette,
    migrate,
    migration_rates,
    mutate,
    run_bbo,
    species_probability_delta,
    update_probability,
)
from meshroute.oracle import percent_error
from meshroute.pathcodec import Path, decode_path
from meshroute.results import RunParams, TracePoint

from helpers import (
    GOLDEN_GENERATIONS,
    OPTIMIZER_GOLDEN_CASES,
    count_decodes,
    decode_then_price,
    scenario_cost_matrix,
)

RATE_CONFIGS = 100
MUTATION_TRIALS = 4_000  # habitats mutated; n dims each


def make_sivs(n_dims, count, seed):
    """count random-keys genomes of n_dims keys, one per row."""
    rng = np.random.default_rng(seed)
    return np.array([rng.random(n_dims) for _ in range(count)])


def changed_rows(before, after):
    return [i for i in range(len(before)) if (before[i] != after[i]).any()]


def test_species_strictly_inverse_to_rank():
    # rank r holds species count P - r, so run_bbo reads rank r's rates as
    # the [:0:-1] slice of the rates over species counts 0..P
    n_pop = 20
    lam_k, mu_k = migration_rates(np.arange(n_pop + 1), n_pop, 1.0, 1.0)
    lam, mu = migration_rates(n_pop - np.arange(n_pop), n_pop, 1.0, 1.0)
    assert np.array_equal(lam_k[:0:-1], lam) and np.array_equal(mu_k[:0:-1], mu)
    assert (np.diff(lam) > 0).all() and (np.diff(mu) < 0).all()


def test_migration_rate_endpoints():
    lam, mu = migration_rates(np.array([0, 50, 25]), 50, 1.0, 1.0)
    assert lam.tolist() == [1.0, 0.0, 0.5]
    assert mu.tolist() == [0.0, 1.0, 0.5]


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
    out = update_probability(p, rng.random(11), rng.random(11))
    assert out.sum() == pytest.approx(1.0, abs=1e-9)
    assert (out >= 0).all()


def test_migrate_zero_immigration_is_identity():
    sivs = make_sivs(3, 4, seed=0)
    before = sivs.copy()
    changed = migrate(sivs, np.zeros(4), donor_roulette(np.ones(4)), 0, np.random.default_rng(0))
    assert np.array_equal(sivs, before)
    assert changed == []


def test_migrate_forced_single_donor():
    sivs = make_sivs(3, 3, seed=1)
    donor_old = sivs[0].copy()
    roulette = donor_roulette(np.array([1.0, 0.0, 0.0]))
    migrate(sivs, np.array([0.0, 1.0, 0.0]), roulette, 0, np.random.default_rng(5))
    assert np.array_equal(sivs[1], donor_old)
    assert np.array_equal(sivs[0], donor_old)


def test_migrate_uses_pre_migration_snapshot():
    # both habitats fully immigrate from each other: they must swap, not chain
    sivs = make_sivs(3, 2, seed=2)
    a_old, b_old = sivs[0].copy(), sivs[1].copy()
    migrate(sivs, np.ones(2), donor_roulette(np.ones(2)), 0, np.random.default_rng(9))
    assert np.array_equal(sivs[0], b_old)
    assert np.array_equal(sivs[1], a_old)


def test_migrate_preserves_elites():
    sivs = make_sivs(3, 5, seed=3)
    elites_old = sivs[:2].copy()
    migrate(sivs, np.ones(5), donor_roulette(np.full(5, 0.5)), 2, np.random.default_rng(1))
    assert np.array_equal(sivs[:2], elites_old)


def test_operators_return_changed_rows():
    # row 0 is the only donor and row 1 starts equal to it, so what row 1
    # takes leaves it unchanged and unreported
    sivs = make_sivs(25, 6, seed=4)
    sivs[1] = sivs[0]
    before = sivs.copy()
    immigration = np.array([0.0, 1.0, 0.9, 0.9, 0.9, 0.9])
    emigration = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    migrated = migrate(sivs, immigration, donor_roulette(emigration), 0, np.random.default_rng(2))
    assert migrated == changed_rows(before, sivs) == [2, 3, 4, 5]
    assert ((sivs >= 0) & (sivs <= 1)).all()

    before = sivs.copy()
    p_s = np.array([0.5, 0.5, 0.5, 0.0, 0.0, 0.0])  # rows 0-2 hold P_max: m = 0
    mutated = mutate(sivs, p_s, 0.5, 0, np.random.default_rng(3))
    assert mutated == changed_rows(before, sivs) == [3, 4, 5]


def test_migrate_requires_a_donor():
    sivs = make_sivs(3, 2, seed=5)
    with pytest.raises(ValueError):
        migrate(sivs, np.ones(2), donor_roulette(np.zeros(2)), 0, np.random.default_rng(0))


def test_mutate_zero_rate_is_identity():
    sivs = make_sivs(3, 4, seed=6)
    before = sivs.copy()
    changed = mutate(sivs, np.full(4, 0.1), 0.0, 0, np.random.default_rng(0))
    assert np.array_equal(sivs, before)
    assert changed == []


def test_mutate_spares_most_probable():
    sivs = make_sivs(3, 3, seed=7)
    top_old = sivs[0].copy()
    # row 0 holds P_max: m = 0
    mutate(sivs, np.array([0.5, 0.0, 0.0]), 1.0, 0, np.random.default_rng(4))
    assert np.array_equal(sivs[0], top_old)


def test_mutate_frequency():
    n_dims = 25
    rng = np.random.default_rng(8)
    flips = 0
    total = 0
    for trial in range(MUTATION_TRIALS // 10):
        sivs = make_sivs(n_dims, 2, seed=100 + trial)
        before = sivs[1].copy()
        # row 0 is elite and holds P_max; row 1 mutates at the full m_max = 0.01
        mutate(sivs, np.array([1.0, 0.0]), 0.01, 1, rng)
        flips += int((sivs[1] != before).sum())
        total += n_dims
    assert flips / total == pytest.approx(0.01, abs=0.003)


def test_params_validation():
    with pytest.raises(ValueError):
        RunParams(max_generations=0)


def test_run_refuses_population_below_floor_before_drawing(line3_cm, monkeypatch):
    # two elites leave a population of 2 no habitat to migrate into, and the
    # run stops before evolve draws its first population
    assert bbo.MIN_POPULATION == bbo.ELITE_COUNT + 1 == 3
    calls = []
    monkeypatch.setattr(bbo, "evolve", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="^population_size must be at least 3$"):
        run_bbo(line3_cm, 0, 2, RunParams(max_generations=5, population_size=2))
    assert calls == []
    run_bbo(line3_cm, 0, 2, RunParams(max_generations=5, population_size=3))
    assert len(calls) == 1


def test_line_graph_solved_at_generation_one(line3_cm):
    params = RunParams(max_generations=1, population_size=4, rng_seed=0)
    r = run_bbo(line3_cm, 0, 2, params)
    assert r.best_path.nodes == (0, 1, 2)
    assert len(r.trace) == 1


def test_grid25_reaches_optimum(grid25):
    _, cm, oracle = grid25
    params = RunParams(max_generations=30, population_size=50, rng_seed=42)
    r = run_bbo(cm, 0, 24, params)
    assert percent_error(r.best_cost, oracle.cost) == pytest.approx(0.0, abs=1e-9)


def test_same_seed_same_result(grid25):
    _, cm, _ = grid25
    params = RunParams(max_generations=12, population_size=15, rng_seed=5)
    a = run_bbo(cm, 0, 24, params)
    b = run_bbo(cm, 0, 24, params)
    assert a.best_path == b.best_path
    assert a.trace == b.trace


def test_trace_monotone(grid25):
    _, cm, _ = grid25
    for seed in range(4):
        params = RunParams(max_generations=20, population_size=15, rng_seed=seed)
        r = run_bbo(cm, 0, 24, params)
        costs = [p.best_cost_so_far for p in r.trace]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert [p.generation for p in r.trace] == list(range(1, 21))


def test_result_metadata(grid25):
    _, cm, _ = grid25
    params = RunParams(max_generations=5, population_size=10, rng_seed=2)
    r = run_bbo(cm, 0, 24, params)
    assert r.algorithm == "bbo"
    assert r.params == {"max_generations": 5, "population_size": 10, "rng_seed": 2}
    assert r.n_nodes == 25


def rowwise_migrate(sivs, immigration, emigration, elite_count, rng):
    """migrate as it was when it worked one row at a time, on a snapshot."""
    n_pop, n_dims = sivs.shape
    snapshot = sivs.copy()
    changed = []
    for i in range(elite_count, n_pop):
        incoming = rng.random(n_dims) < immigration[i]
        if not incoming.any():
            continue
        weights = emigration.copy()
        weights[i] = 0.0
        total = weights.sum()
        if total <= 0.0:
            raise ValueError("migration roulette has no donor with positive emigration rate")
        cum = np.cumsum(weights)
        donors = np.searchsorted(cum, rng.random(n_dims) * total, side="right")
        donors = np.minimum(donors, n_pop - 1)
        dims = np.flatnonzero(incoming)
        keys = snapshot[donors[dims], dims]
        if (keys != sivs[i, dims]).any():
            sivs[i, dims] = keys
            changed.append(i)
    return changed


def rowwise_mutate(sivs, p_s, mutation_max, elite_count, rng):
    """mutate as it was when it worked one row at a time."""
    p_max = p_s.max()
    rates = np.zeros_like(p_s) if p_max == 0.0 else mutation_max * (1.0 - p_s / p_max)
    n_pop, n_dims = sivs.shape
    changed = []
    for i in range(elite_count, n_pop):
        flips = rng.random(n_dims) < rates[i]
        replacement = rng.random(n_dims)
        flips &= replacement != sivs[i]
        if flips.any():
            sivs[i, flips] = replacement[flips]
            changed.append(i)
    return changed


@st.composite
def operator_cases(draw):
    """A population, its elite count, a seed, and whether the generators enter
    with a buffered 32-bit draw pending. Some populations repeat two rows, so
    that a migrant can bring the key a row already holds."""
    n_pop = draw(st.integers(2, 12))
    n_dims = draw(st.integers(1, 40))
    elite_count = draw(st.integers(0, n_pop - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    sivs = make_sivs(n_dims, n_pop, seed)
    if draw(st.booleans()):
        sivs = sivs[np.arange(n_pop) % 2]
    return sivs, elite_count, seed, draw(st.booleans())


def twin_generators(seed, pending):
    """Two generators in one state; with pending, each has drawn rng.integers(3)
    and so holds half of a 64-bit draw for its next 32-bit one."""
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    if pending:
        for rng in rngs:
            rng.integers(3)
    return rngs


RATES = st.floats(0.0, 1.2)


@given(operator_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_migrate_matches_rowwise(case, data):
    sivs, elite_count, seed, pending = case
    n_pop = len(sivs)
    immigration = np.array(data.draw(st.lists(RATES, min_size=n_pop, max_size=n_pop)))
    emigration = np.array(
        data.draw(st.lists(st.sampled_from([0.0, 0.25]) | RATES, min_size=n_pop, max_size=n_pop))
    )
    if data.draw(st.booleans()):
        # run_bbo passes its rates as reversed views
        immigration, emigration = immigration[::-1].copy()[::-1], emigration[::-1].copy()[::-1]
    want_sivs = sivs.copy()
    got_rng, want_rng = twin_generators(seed, pending)
    try:
        want = rowwise_migrate(want_sivs, immigration, emigration, elite_count, want_rng)
    except ValueError:
        before = sivs.copy()
        with pytest.raises(ValueError):
            migrate(sivs, immigration, donor_roulette(emigration), elite_count, got_rng)
        assert np.array_equal(sivs, before)
    else:
        got = migrate(sivs, immigration, donor_roulette(emigration), elite_count, got_rng)
        assert got == want
        assert np.array_equal(sivs, want_sivs)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@given(operator_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_mutate_matches_rowwise(case, data):
    sivs, elite_count, seed, pending = case
    n_pop = len(sivs)
    p_s = np.array(
        data.draw(st.lists(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0), min_size=n_pop, max_size=n_pop))
    )
    mutation_max = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    want_sivs = sivs.copy()
    got_rng, want_rng = twin_generators(seed, pending)
    want = rowwise_mutate(want_sivs, p_s, mutation_max, elite_count, want_rng)
    got = mutate(sivs, p_s, mutation_max, elite_count, got_rng)
    assert got == want
    assert np.array_equal(sivs, want_sivs)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@dataclass
class Habitat:
    siv: np.ndarray
    path: Path
    cost: float
    species_count: int = 0
    p_s: float = 0.0
    immigration_rate: float = 0.0
    emigration_rate: float = 0.0


def reference_migrate(habitats, cm, source, terminal, elite_count, rng):
    n_dims = cm.n
    snapshot = np.array([h.siv for h in habitats])
    emigration = np.array([h.emigration_rate for h in habitats])
    for i in range(elite_count, len(habitats)):
        h = habitats[i]
        incoming = rng.random(n_dims) < h.immigration_rate
        weights = emigration.copy()
        weights[i] = 0.0
        total = weights.sum()
        if not incoming.any():
            continue
        if total <= 0.0:
            raise ValueError("migration roulette has no donor with positive emigration rate")
        cum = np.cumsum(weights)
        donors = np.searchsorted(cum, rng.random(n_dims) * total, side="right")
        donors = np.minimum(donors, len(habitats) - 1)
        h.siv[incoming] = snapshot[donors[incoming], np.nonzero(incoming)[0]]
        h.path = bbo.decode_path(h.siv, cm, source, terminal)
        h.cost = h.path.cost


def reference_mutate(habitats, cm, source, terminal, mutation_max, elite_count, rng):
    p_max = max((h.p_s for h in habitats), default=0.0)
    n_dims = cm.n
    for i in range(elite_count, len(habitats)):
        h = habitats[i]
        m = 0.0 if p_max == 0.0 else mutation_max * (1.0 - h.p_s / p_max)
        flips = rng.random(n_dims) < m
        replacement = rng.random(n_dims)
        if not flips.any():
            continue
        h.siv = np.where(flips, replacement, h.siv)
        h.path = bbo.decode_path(h.siv, cm, source, terminal)
        h.cost = h.path.cost


def reference_run_bbo(cm, source, terminal, params):
    """run_bbo as it was when each habitat was a Habitat record whose rates
    were set from its rank every generation, and migrate and mutate each
    decoded the habitats they changed; it decodes through bbo.decode_path."""
    rng = np.random.default_rng(params.rng_seed)
    n_dims = cm.n
    n_pop = params.population_size
    best_path = None
    trace = []
    habitats = []
    for _ in range(n_pop):
        siv = rng.random(n_dims)
        path = bbo.decode_path(siv, cm, source, terminal)
        habitats.append(Habitat(siv, path, path.cost))
    p_species = np.full(n_pop + 1, 1.0 / (n_pop + 1))
    lam_k, mu_k = migration_rates(
        np.arange(n_pop + 1), n_pop, bbo.IMMIGRATION_MAX, bbo.EMIGRATION_MAX
    )
    for gen in range(1, params.max_generations + 1):
        habitats.sort(key=lambda h: h.cost)
        if best_path is None or habitats[0].cost < best_path.cost:
            best_path = habitats[0].path
        trace.append(TracePoint(gen, best_path.cost, habitats[0].cost))
        if gen == params.max_generations:
            break
        for rank, h in enumerate(habitats):
            h.species_count = n_pop - rank
            lam, mu = migration_rates(
                h.species_count, n_pop, bbo.IMMIGRATION_MAX, bbo.EMIGRATION_MAX
            )
            h.immigration_rate, h.emigration_rate = float(lam), float(mu)
        reference_migrate(habitats, cm, source, terminal, bbo.ELITE_COUNT, rng)
        p_species = update_probability(p_species, lam_k, mu_k)
        for h in habitats:
            h.p_s = float(p_species[h.species_count])
        reference_mutate(
            habitats, cm, source, terminal, bbo.MUTATION_MAX, bbo.ELITE_COUNT, rng
        )
    return best_path, best_path.cost, tuple(trace)


@pytest.mark.parametrize("n, placement, scenario_seed, opt_seed", OPTIMIZER_GOLDEN_CASES)
def test_run_matches_reference(n, placement, scenario_seed, opt_seed, monkeypatch):
    cm = scenario_cost_matrix(n, placement, scenario_seed)
    params = RunParams(max_generations=GOLDEN_GENERATIONS, rng_seed=opt_seed)
    got = run_bbo(cm, 0, n - 1, params)
    monkeypatch.setattr(bbo, "decode_path", decode_then_price)
    assert (got.best_path, got.best_cost, got.trace) == reference_run_bbo(cm, 0, n - 1, params)


def test_run_matches_reference_at_population_floor(monkeypatch):
    # population 3 leaves one habitat beside the two elites
    cm = scenario_cost_matrix(100, "grid", 101)
    params = RunParams(max_generations=GOLDEN_GENERATIONS, population_size=3, rng_seed=9001)
    got = run_bbo(cm, 0, 99, params)
    monkeypatch.setattr(bbo, "decode_path", decode_then_price)
    assert (got.best_path, got.best_cost, got.trace) == reference_run_bbo(cm, 0, 99, params)


@pytest.mark.parametrize("n, placement, scenario_seed, opt_seed", OPTIMIZER_GOLDEN_CASES)
def test_elites_hold_best_so_far(n, placement, scenario_seed, opt_seed):
    # the elite rows are never modified, so each generation's best is the
    # best so far
    cm = scenario_cost_matrix(n, placement, scenario_seed)
    result = run_bbo(cm, 0, n - 1, RunParams(max_generations=GOLDEN_GENERATIONS, rng_seed=opt_seed))
    assert all(t.generation_best_cost == t.best_cost_so_far for t in result.trace)


def test_decodes_only_changed_habitats(monkeypatch):
    # init decodes every habitat; afterwards a habitat is decoded once after
    # any generation in which migrate or mutate changed its keys, where the
    # reference decodes it in each operator that touches it
    cm = scenario_cost_matrix(100, "grid", 101)
    params = RunParams(max_generations=50, population_size=50, rng_seed=9001)
    calls = count_decodes(monkeypatch, bbo, decode_path)
    run_bbo(cm, 0, 99, params)
    assert len(calls) == 2400
    calls = count_decodes(monkeypatch, bbo, decode_then_price)
    reference_run_bbo(cm, 0, 99, params)
    assert len(calls) == 3229
