"""The generation loop both optimizers share: evolve's contract, on stubs."""

from dataclasses import asdict, fields
from types import SimpleNamespace

import numpy as np

from meshroute import bbbc, bbo
from meshroute.pathcodec import Path
from meshroute.results import RunParams, TracePoint, evolve

N_POP, N_DIMS, SEED = 6, 4, 7
# a chain 0 -> 1 -> 2 -> 3: the source reaches every node, so evolve decodes
# on CM itself, and the stub decoder can check that it was passed CM
CM = SimpleNamespace(n=N_DIMS, links=tuple(((v + 1, 1.0),) for v in range(N_DIMS - 1)) + ((),))


def initial_population():
    return np.random.default_rng(SEED).random((N_POP, N_DIMS))


class StubDecode:
    """Prices a genome at price(keys) and keeps a copy of every genome it saw."""

    def __init__(self, price=lambda keys: float(keys[0])):
        self.price = price
        self.seen = []

    def __call__(self, keys, cm, source, terminal):
        assert cm is CM and (source, terminal) == (0, N_DIMS - 1)
        self.seen.append(keys.copy())
        return Path((source, terminal), self.price(keys))


class StubVary:
    """Records each call's generation and sorted population, then lets
    edit(population, gen) change rows and return them."""

    def __init__(self, edit=lambda population, gen: []):
        self.edit = edit
        self.generations = []
        self.populations = []

    def __call__(self, population, gen, rng):
        assert isinstance(rng, np.random.Generator)
        self.generations.append(gen)
        self.populations.append(population.copy())
        return self.edit(population, gen)


def run(generations, decode, vary):
    params = RunParams(max_generations=generations, population_size=N_POP, rng_seed=SEED)
    return evolve("stub", CM, 0, N_DIMS - 1, params, decode, vary)


def test_each_row_decoded_once_at_start():
    decode = StubDecode()
    run(1, decode, StubVary())
    assert np.array_equal(np.array(decode.seen), initial_population())


def test_only_changed_rows_decoded_after_start():
    def edit(population, gen):
        # rows 2 and 5 take keys below every uniform one; row 5's sorts first
        population[2] = -gen
        population[5] = -gen - 0.5
        return [2, 5]

    decode, vary = StubDecode(), StubVary(edit)
    result = run(4, decode, vary)
    assert len(decode.seen) == N_POP + 2 * 3
    later = np.array(decode.seen[N_POP:])
    assert np.array_equal(later[:, 0], [-1, -1.5, -2, -2.5, -3, -3.5])
    # the next sort reads the new rows' costs
    assert [t.generation_best_cost for t in result.trace] == [
        initial_population()[:, 0].min(), -1.5, -2.5, -3.5
    ]
    assert [pop[0, 0] for pop in vary.populations[1:]] == [-1.5, -2.5]


def test_unchanged_run_decodes_only_the_start():
    decode, vary = StubDecode(), StubVary()
    run(5, decode, vary)
    assert len(decode.seen) == N_POP
    # sorted once, the population stays in order
    want = initial_population()[np.argsort(initial_population()[:, 0], kind="stable")]
    assert all(np.array_equal(pop, want) for pop in vary.populations)


def test_equal_costs_keep_the_lower_row_first():
    # two cost classes: a row costs 0 when its first key is below 0.5
    decode = StubDecode(price=lambda keys: float(keys[0] >= 0.5))
    vary = StubVary()
    run(2, decode, vary)
    start = initial_population()
    classes = (start[:, 0] >= 0.5).astype(int)
    assert 0 < classes.sum() < N_POP
    want = start[np.argsort(classes, kind="stable")]
    assert np.array_equal(vary.populations[0], want)

    decode = StubDecode(price=lambda keys: 1.0)
    vary = StubVary()
    run(2, decode, vary)
    assert np.array_equal(vary.populations[0], start)


def test_vary_not_called_after_last_generation():
    for generations in (1, 2, 5):
        vary = StubVary()
        run(generations, StubDecode(), vary)
        assert vary.generations == list(range(1, generations))


def test_result_record():
    params = RunParams(max_generations=3, population_size=N_POP, rng_seed=SEED)
    result = evolve("stub", CM, 0, N_DIMS - 1, params, StubDecode(), StubVary())
    best = initial_population()[:, 0].min()
    assert result.algorithm == "stub"
    assert result.n_nodes == N_DIMS
    assert result.best_path == Path((0, N_DIMS - 1), best)
    assert result.best_cost == best
    assert result.trace == tuple(TracePoint(g, best, best) for g in (1, 2, 3))
    assert result.params == asdict(params)
    assert result.wall_time_ms >= 0


def test_one_run_record_for_both_optimizers():
    # the old per-optimizer names are the same class, with a budget only
    assert bbbc.BbbcParams is bbo.BboParams is RunParams
    assert [f.name for f in fields(RunParams)] == ["max_generations", "population_size", "rng_seed"]
    assert RunParams(max_generations=7) == RunParams(7, 50, 0)
