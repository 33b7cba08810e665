"""Big Bang-Big Crunch: center of mass, spawn kernel, full optimizer runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshroute import bbbc
from meshroute.bbbc import center_of_mass, run_bbbc, spawn
from meshroute.oracle import percent_error
from meshroute.pathcodec import decode_path
from meshroute.results import RunParams, TracePoint

from helpers import (
    GOLDEN_GENERATIONS,
    OPTIMIZER_GOLDEN_CASES,
    count_decodes,
    decode_then_price,
    scenario_cost_matrix,
)

SPAWN_DRAWS = 10_000


class FixedNormal:
    """Stand-in rng whose standard_normal always returns one constant."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, shape):
        return np.full(shape, self.value)


def test_center_single_candidate():
    c = center_of_mass(np.array([[0.2, 0.4]]), np.array([5.0]))
    assert np.allclose(c, [0.2, 0.4], atol=1e-12)


def test_center_equal_weights():
    c = center_of_mass(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1.0, 1.0]))
    assert np.allclose(c, [0.5, 0.5], atol=1e-12)


def test_center_weighted_hand_value():
    # weights 1 and 1/3: (1/3) / (4/3) = 0.25
    c = center_of_mass(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1.0, 3.0]))
    assert np.allclose(c, [0.25, 0.25], atol=1e-12)


def test_center_rejects_bad_input():
    with pytest.raises(ValueError):
        center_of_mass(np.empty((0, 3)), np.empty(0))
    with pytest.raises(ValueError):
        center_of_mass(np.zeros((2, 3)), np.ones(3))
    with pytest.raises(ValueError):
        center_of_mass(np.zeros((2, 3)), np.array([1.0, 0.0]))


@given(
    st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
        min_size=1,
        max_size=8,
    ),
    st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=8, max_size=8),
)
@settings(max_examples=150)
def test_center_containment(vectors, fits):
    pop = np.array(vectors)
    fitness = np.array(fits[: len(vectors)])
    c = center_of_mass(pop, fitness)
    assert (c >= pop.min(axis=0) - 1e-12).all()
    assert (c <= pop.max(axis=0) + 1e-12).all()


@given(
    st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2),
        min_size=1,
        max_size=10,
    ),
    st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=100)
def test_center_equal_fitness_is_mean(vectors, fit):
    pop = np.array(vectors)
    c = center_of_mass(pop, np.full(len(vectors), fit))
    assert np.allclose(c, pop.mean(axis=0), atol=1e-12)


def test_spawn_zero_draw_returns_center():
    center = np.array([0.3, 0.6, 0.9])
    out = spawn(center, 1.0, 4, FixedNormal(0.0))
    assert np.array_equal(out, center)


def test_spawn_hand_value():
    # 0.5 + 1 * 0.5 / 2 = 0.75
    out = spawn(np.array([0.5]), 1.0, 2, FixedNormal(0.5))
    assert out[0] == 0.75


def test_spawn_clamps():
    assert spawn(np.array([0.9]), 1.0, 1, FixedNormal(3.0))[0] == 1.0
    assert spawn(np.array([0.1]), 1.0, 1, FixedNormal(-3.0))[0] == 0.0


def test_spawn_rejects_step_below_one():
    with pytest.raises(ValueError):
        spawn(np.array([0.5]), 1.0, 0, FixedNormal(0.0))


def test_spawn_shrinking_exploration():
    # upper_limit 0.1 keeps every draw inside [0, 1], so no clamping skews
    # the spread; the offset scale must fall as 1 / step
    center = np.full(SPAWN_DRAWS, 0.5)
    wide = spawn(center, 0.1, 1, np.random.default_rng(0)) - center
    narrow = spawn(center, 0.1, 10, np.random.default_rng(1)) - center
    ratio = wide.std() / narrow.std()
    assert 7.0 <= ratio <= 13.0  # nominal 10, +/- 30%


def test_params_validation():
    with pytest.raises(ValueError):
        RunParams(max_generations=0)
    with pytest.raises(ValueError):
        RunParams(max_generations=10, population_size=1)
    # named by RunParams, not left to numpy's seeding inside the run
    with pytest.raises(ValueError, match="^rng_seed is -1, which is less than 0$"):
        RunParams(1, rng_seed=-1)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"max_generations": 2.5}, "max_generations"),
        ({"max_generations": 3.0}, "max_generations"),
        ({"max_generations": True}, "max_generations"),
        ({"max_generations": 3, "population_size": 10.0}, "population_size"),
        ({"max_generations": 3, "population_size": True}, "population_size"),
        ({"max_generations": 3, "rng_seed": 1.0}, "rng_seed"),
        ({"max_generations": 3, "rng_seed": False}, "rng_seed"),
    ],
)
def test_params_refuse_non_integers(kwargs, field):
    # refused by RunParams, naming the field, not by numpy inside the run;
    # a bool is no integer here, as in a plan file
    with pytest.raises(ValueError, match=f"^{field} is {kwargs[field]!r}, not an integer$"):
        RunParams(**kwargs)


def test_params_take_a_numpy_integer_as_an_int():
    # an integer is an integer, Python or numpy, as for node counts and
    # scenario seeds; it is kept as an int, so the run record stays JSON-ready
    params = RunParams(max_generations=3, rng_seed=np.int64(7))
    assert params.rng_seed == 7 and type(params.rng_seed) is int
    assert params == RunParams(3, rng_seed=7)


def test_line_graph_solved_at_generation_one(line3_cm):
    params = RunParams(max_generations=1, population_size=4, rng_seed=0)
    r = run_bbbc(line3_cm, 0, 2, params)
    assert r.best_path.nodes == (0, 1, 2)
    assert r.best_cost == pytest.approx(0.55)
    assert len(r.trace) == 1


def test_grid25_reaches_optimum(grid25):
    _, cm, oracle = grid25
    params = RunParams(max_generations=30, population_size=50, rng_seed=42)
    r = run_bbbc(cm, 0, 24, params)
    assert percent_error(r.best_cost, oracle.cost) == pytest.approx(0.0, abs=1e-9)


def test_same_seed_same_result(grid25):
    _, cm, _ = grid25
    params = RunParams(max_generations=15, population_size=20, rng_seed=5)
    a = run_bbbc(cm, 0, 24, params)
    b = run_bbbc(cm, 0, 24, params)
    assert a.best_path == b.best_path
    assert a.trace == b.trace


def test_trace_monotone_and_indexed(grid25):
    _, cm, _ = grid25
    for seed in range(4):
        params = RunParams(max_generations=25, population_size=20, rng_seed=seed)
        r = run_bbbc(cm, 0, 24, params)
        costs = [p.best_cost_so_far for p in r.trace]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert [p.generation for p in r.trace] == list(range(1, 26))
        assert all(p.generation_best_cost >= p.best_cost_so_far for p in r.trace)


def test_result_metadata(grid25):
    _, cm, _ = grid25
    params = RunParams(max_generations=5, population_size=10, rng_seed=1)
    r = run_bbbc(cm, 0, 24, params)
    assert r.algorithm == "bbbc"
    assert r.n_nodes == 25
    assert r.params["rng_seed"] == 1
    assert r.wall_time_ms > 0
    assert r.best_cost == pytest.approx(r.best_path.cost)


def reference_run_bbbc(cm, source, terminal, params):
    """run_bbbc as it was when the population was a list of genomes and each
    offspring was spawned on its own, by the spawn formula written out; it
    decodes through bbbc.decode_path."""
    rng = np.random.default_rng(params.rng_seed)
    pool = min(bbbc.ANCHOR_POOL, params.population_size)
    n_fresh = int(round(bbbc.FRESH_SHARE * (params.population_size - 1)))
    n_spawn = params.population_size - 1 - n_fresh
    best_vec = best_path = None
    trace = []
    population = [rng.random(cm.n) for _ in range(params.population_size)]
    for gen in range(1, params.max_generations + 1):
        scored = [(vec, bbbc.decode_path(vec, cm, source, terminal)) for vec in population]
        scored.sort(key=lambda vp: vp[1].cost)
        gen_best_vec, gen_best_path = scored[0]
        if best_path is None or gen_best_path.cost < best_path.cost:
            best_vec = gen_best_vec.copy()
            best_path = gen_best_path
        trace.append(TracePoint(gen, best_path.cost, gen_best_path.cost))
        if gen == params.max_generations:
            break
        step = (gen - 1) % bbbc.CYCLE_LEN + 1
        population = [best_vec]
        for _ in range(n_spawn):
            a = scored[int(rng.integers(pool))][0]
            noise = rng.standard_normal(a.shape)
            population.append(np.clip(a + bbbc.UPPER_LIMIT * noise / step, 0.0, 1.0))
        population += [rng.random(cm.n) for _ in range(n_fresh)]
    return best_path, best_path.cost, tuple(trace)


def assert_matches_reference(cm, n, params, monkeypatch):
    got = run_bbbc(cm, 0, n - 1, params)
    monkeypatch.setattr(bbbc, "decode_path", decode_then_price)
    assert (got.best_path, got.best_cost, got.trace) == reference_run_bbbc(cm, 0, n - 1, params)


@pytest.mark.parametrize("n, placement, scenario_seed, opt_seed", OPTIMIZER_GOLDEN_CASES)
def test_run_matches_reference(n, placement, scenario_seed, opt_seed, monkeypatch):
    cm = scenario_cost_matrix(n, placement, scenario_seed)
    params = RunParams(max_generations=GOLDEN_GENERATIONS, rng_seed=opt_seed)
    assert_matches_reference(cm, n, params, monkeypatch)


@pytest.mark.parametrize("n, placement, scenario_seed, opt_seed", OPTIMIZER_GOLDEN_CASES)
def test_slot_zero_holds_best_so_far(n, placement, scenario_seed, opt_seed):
    # the bang carries row 0 unchanged, so each generation's best is the
    # best so far
    cm = scenario_cost_matrix(n, placement, scenario_seed)
    result = run_bbbc(cm, 0, n - 1, RunParams(max_generations=GOLDEN_GENERATIONS, rng_seed=opt_seed))
    assert all(t.generation_best_cost == t.best_cost_so_far for t in result.trace)


@pytest.mark.parametrize("population_size", [2, 3, 11], ids=lambda p: f"population-{p}")
def test_run_matches_reference_off_defaults(population_size, monkeypatch):
    # populations 2 and 3 have no fresh slot, and 2 is smaller than the
    # anchor pool; population 11 has one fresh slot
    cm = scenario_cost_matrix(100, "grid", 101)
    params = RunParams(
        max_generations=GOLDEN_GENERATIONS, population_size=population_size, rng_seed=9001
    )
    assert_matches_reference(cm, 100, params, monkeypatch)


def test_decodes_every_genome_each_generation(monkeypatch):
    # P genomes per generation: slot 0, the best-so-far genome, is decoded
    # again with the P - 1 new ones
    cm = scenario_cost_matrix(100, "grid", 101)
    params = RunParams(max_generations=50, population_size=50, rng_seed=9001)
    calls = count_decodes(monkeypatch, bbbc, decode_path)
    run_bbbc(cm, 0, 99, params)
    assert len(calls) == 50 * 50
