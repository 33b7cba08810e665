"""Big Bang - Big Crunch path optimizer over random-keys genomes.

The crunch ranks the population by path cost and keeps the few best genomes
as mass points; averaging them into one blended center scrambles the key
ranking that the decoder reads, so instead every bang offspring is a normal
perturbation of one mass point picked from that short list. The perturbation
radius contracts as 1/step within a short cycle and then resets, so bang and
crunch phases repeat instead of freezing once the radius drops below the
typical key gap. A small slice of each generation is fresh uniform dispersal,
and the best-so-far genome survives every bang unchanged.

The population is one (P, n) array, a row per genome, allocated once per
run with its scratch arrays. A bang draws each offspring's anchor and normal
row in turn, into the population rows it replaces, and then applies the
spawn formula to the whole block at once; the draws, their order and every
rounding are those of P - 1 calls to spawn and random_vector, so a seed
gives the same run as a per-offspring loop would.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .fuzzycost import CostMatrix
from .pathcodec import decode_path
from .results import RunResult, TracePoint

# Share of the non-elite slots refilled with fresh uniform candidates at each
# bang; the rest are perturbations of the crunched mass points.
FRESH_SHARE = 0.10
# Offspring spawn around the top ANCHOR_POOL genomes; a single blended
# centroid loses the rank structure the decoder depends on.
ANCHOR_POOL = 3
# The 1/step contraction restarts every CYCLE_LEN generations so late
# generations still alternate wide bangs with tight crunches.
CYCLE_LEN = 8


@dataclass(frozen=True)
class BbbcParams:
    max_generations: int
    population_size: int = 50
    upper_limit: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.upper_limit <= 0:
            raise ValueError("upper_limit must be positive")


def center_of_mass(population: np.ndarray, fitness: np.ndarray) -> np.ndarray:
    """Inverse-fitness weighted centroid: sum_i x_i / f_i over sum_i 1 / f_i.

    Reference only: run_bbbc does not call it (it spawns around the top
    ANCHOR_POOL genomes instead); AC-6 checks its hand values.
    """
    population = np.asarray(population, dtype=float)
    fitness = np.asarray(fitness, dtype=float)
    if population.ndim != 2 or population.shape[0] == 0:
        raise ValueError("population must be a non-empty 2-d array")
    if fitness.shape != (population.shape[0],):
        raise ValueError("fitness length must match population size")
    if not (fitness > 0).all():
        raise ValueError("fitness values must be positive")
    inv = 1.0 / fitness
    return (inv @ population) / inv.sum()


def _bang(anchors: np.ndarray, noise: np.ndarray, upper_limit: float, step: int) -> np.ndarray:
    """anchors + upper_limit * noise / step, clipped to [0, 1], in place on noise.

    The operations run in that order on whole arrays, so each element rounds
    as it would alone.
    """
    noise *= upper_limit
    noise /= step
    noise += anchors
    return np.clip(noise, 0.0, 1.0, out=noise)


def spawn(
    center: np.ndarray, upper_limit: float, step: int, rng: np.random.Generator
) -> np.ndarray:
    """One big-bang offspring: center + upper_limit * normal / step, clipped to [0, 1]."""
    if step < 1:
        raise ValueError("step must be >= 1")
    return _bang(center, rng.standard_normal(center.shape), upper_limit, step)


def run_bbbc(
    cm: CostMatrix, source: int, terminal: int, params: BbbcParams
) -> RunResult:
    rng = np.random.default_rng(params.rng_seed)
    n_dims = cm.n
    pop_size = params.population_size
    pool = min(ANCHOR_POOL, pop_size)
    n_fresh = int(round(FRESH_SHARE * (pop_size - 1)))
    n_spawn = pop_size - 1 - n_fresh

    best_path = None
    trace: list[TracePoint] = []

    start = time.perf_counter()
    # row 0 is the elite slot, rows 1..n_spawn the spawned offspring and the
    # last n_fresh rows the fresh ones
    population = rng.random((pop_size, n_dims))
    spawned = population[1 : 1 + n_spawn]
    best_vec = np.empty(n_dims)
    pool_rows = np.empty((pool, n_dims))
    picks = np.empty(n_spawn, dtype=np.intp)
    anchors = np.empty((n_spawn, n_dims))
    for gen in range(1, params.max_generations + 1):
        paths = [decode_path(vec, cm, source, terminal) for vec in population]
        order = sorted(range(pop_size), key=lambda r: paths[r].cost)
        gen_best_path = paths[order[0]]
        if best_path is None or gen_best_path.cost < best_path.cost:
            best_vec[:] = population[order[0]]
            best_path = gen_best_path
        trace.append(TracePoint(gen, best_path.cost, gen_best_path.cost))

        if gen == params.max_generations:
            break
        step = (gen - 1) % CYCLE_LEN + 1
        # elitism: slot 0 carries the best-so-far genome into the next bang;
        # pool costs sit within a few percent of each other, so a uniform
        # anchor draw matches inverse-cost weighting to first order
        # the pool is copied out first, since the normal draws go straight
        # into the rows the offspring replace
        np.take(population, order[:pool], axis=0, out=pool_rows)
        population[0] = best_vec
        for k in range(n_spawn):
            picks[k] = rng.integers(pool)
            rng.standard_normal(out=spawned[k])
        np.take(pool_rows, picks, axis=0, out=anchors)
        _bang(anchors, spawned, params.upper_limit, step)
        rng.random(out=population[1 + n_spawn :])
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    return RunResult(
        algorithm="bbbc",
        n_nodes=n_dims,
        best_path=best_path,
        best_cost=best_path.cost,
        wall_time_ms=elapsed_ms,
        trace=tuple(trace),
        params=asdict(params),
    )
