"""Big Bang - Big Crunch path optimizer over random-keys genomes.

The crunch ranks the population by path cost and keeps the few best genomes
as mass points; averaging them into one blended center scrambles the key
ranking that the decoder reads, so instead every bang offspring is a normal
perturbation of one mass point picked from that short list. The perturbation
radius contracts as 1/step within a short cycle and then resets, so bang and
crunch phases repeat instead of freezing once the radius drops below the
typical key gap. A small slice of each generation is fresh uniform dispersal,
and the best-so-far genome survives every bang unchanged.

run_bbbc is the bang inside results.evolve's generation loop. A bang draws
each offspring's anchor and normal row in turn, into the population rows it
replaces, and then applies the spawn formula to the whole block at once;
the draws, their order and every rounding are those of P - 1 calls to spawn
and of rng.random(n) for each fresh genome, so a seed gives the same run as
a per-offspring loop would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fuzzycost import CostMatrix
from .pathcodec import decode_path
from .results import RunResult, evolve

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


def run_bbbc(cm: CostMatrix, source: int, terminal: int, params: BbbcParams) -> RunResult:
    pop_size = params.population_size
    pool = min(ANCHOR_POOL, pop_size)
    n_fresh = int(round(FRESH_SHARE * (pop_size - 1)))
    n_spawn = pop_size - 1 - n_fresh
    pool_rows = np.empty((pool, cm.n))
    picks = np.empty(n_spawn, dtype=np.intp)
    anchors = np.empty((n_spawn, cm.n))

    def bang(population, gen, rng):
        # row 0, sorted first, is the best-so-far genome: carried unchanged,
        # but decoded again. Rows 1..n_spawn take the offspring and the last
        # n_fresh rows fresh ones. Pool costs sit within a few percent of each
        # other, so a uniform anchor draw matches inverse-cost weighting to
        # first order; the pool is copied out first, as the normal draws
        # overwrite rows
        step = (gen - 1) % CYCLE_LEN + 1
        pool_rows[:] = population[:pool]
        spawned = population[1 : 1 + n_spawn]
        for k in range(n_spawn):
            picks[k] = rng.integers(pool)
            rng.standard_normal(out=spawned[k])
        np.take(pool_rows, picks, axis=0, out=anchors)
        _bang(anchors, spawned, params.upper_limit, step)
        rng.random(out=population[1 + n_spawn :])
        return range(pop_size)

    return evolve("bbbc", cm, source, terminal, params, decode_path, bang)
