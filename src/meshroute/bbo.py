"""Biogeography-Based Optimization over random-keys genomes.

Habitats are candidate priority vectors whose SIVs migrate between habitats.
Cost rank maps to a species count k; immigration falls and emigration rises
linearly in k, so poor habitats absorb keys from good ones. A shared
species-count probability distribution evolves by the master equation and
drives mutation pressure toward improbable habitats. The elite_count best
habitats are never modified.

run_bbo is migrate, the probability update and mutate inside
results.evolve's generation loop, whose population rows are the habitats'
SIVs. migrate and mutate edit rows in place and report which rows they
changed. Both work on whole arrays rather than row by row, and take the
same draws from the generator, in the same order, as a per-row loop: migrate
draws each non-elite row's immigration keys and, only for a row that takes
a migrant, its donor keys, and mutate draws every non-elite row's flip and
replacement keys in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fuzzycost import CostMatrix
from .pathcodec import decode_path
from .results import RunResult, evolve


@dataclass(frozen=True)
class BboParams:
    max_generations: int
    population_size: int = 50
    immigration_max: float = 1.0
    emigration_max: float = 1.0
    mutation_max: float = 0.01
    elite_count: int = 2
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.immigration_max <= 0 or self.emigration_max <= 0:
            raise ValueError("immigration_max and emigration_max must be positive")
        if not 0.0 <= self.mutation_max <= 1.0:
            raise ValueError("mutation_max must be in [0, 1]")
        if not 0 <= self.elite_count < self.population_size:
            raise ValueError("elite_count must be in [0, population_size)")


def migration_rates(k: np.ndarray, n: int, immigration_max: float, emigration_max: float):
    """Linear rates of species counts k: lambda = I(1 - k/n), mu = E k/n."""
    frac = np.asarray(k) / n
    return immigration_max * (1.0 - frac), emigration_max * frac


def donor_roulette(emigration: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """migrate's donor roulette (cum, totals): row i of cum is the running sum
    of the emigration rates with row i's own zeroed, totals[i] its sum."""
    weights = np.tile(emigration, (len(emigration), 1))
    np.fill_diagonal(weights, 0.0)
    return np.cumsum(weights, axis=1), weights.sum(axis=1)


def migrate(
    sivs: np.ndarray,
    immigration: np.ndarray,
    roulette: tuple[np.ndarray, np.ndarray],
    elite_count: int,
    rng: np.random.Generator,
    draws: np.ndarray | None = None,
) -> list[int]:
    """SIV migration in place on the (P, n) rows of sivs; returns the rows it changed.

    Row i's immigration rate is immigration[i], and roulette is
    donor_roulette of the rows' emigration rates; rows below elite_count are
    never modified. Each non-elite dimension immigrates with probability
    lambda_i, taking the key from a donor drawn roulette-wheel by emigration
    rate (self excluded). Donors give their pre-migration SIVs, so order of
    processing is immaterial. Each non-elite row draws n immigration keys
    and then, only if some dimension immigrates, n donor keys. draws, when
    given, is a (P - elite_count, 2, n) float64 array that receives them, as
    for mutate. On a row with no donor of positive rate it raises ValueError
    and leaves sivs unchanged.
    """
    cum, totals = roulette
    n_pop, n_dims = sivs.shape
    if draws is None:
        draws = np.empty((n_pop - elite_count, 2, n_dims))
    for i, (incoming, keys) in enumerate(draws, elite_count):
        rng.random(out=incoming)
        if not incoming.min() < immigration[i]:
            continue
        if totals[i] <= 0.0:
            raise ValueError("migration roulette has no donor with positive emigration rate")
        rng.random(out=keys)
        dims = (incoming < immigration[i]).nonzero()[0]
        donors = cum[i].searchsorted(keys[dims] * totals[i], side="right")
        # sivs is not written until every row has read its donors' keys
        keys[dims] = sivs[np.minimum(donors, n_pop - 1, out=donors), dims]
    mutable = sivs[elite_count:]
    # a row that took no migrant has no immigration draw below its rate
    moved = draws[:, 0] < immigration[elite_count:, None]
    moved &= draws[:, 1] != mutable
    np.copyto(mutable, draws[:, 1], where=moved)
    return (np.flatnonzero(moved.any(axis=1)) + elite_count).tolist()


def species_probability_delta(p: np.ndarray, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """dP_k/dt of the species-count master equation, as paired probability flows.

    Flow k -> k+1 at rate lam_k P_k and k -> k-1 at rate mu_k P_k; writing the
    derivative as these two flows makes sum(dp) = 0 hold exactly, term by term.
    """
    if not (p.shape == lam.shape == mu.shape):
        raise ValueError("p, lambda, mu must have equal length")
    dp = np.zeros_like(p)
    lam_flow = lam[:-1] * p[:-1]
    mu_flow = mu[1:] * p[1:]
    dp[:-1] -= lam_flow
    dp[1:] += lam_flow
    dp[1:] -= mu_flow
    dp[:-1] += mu_flow
    return dp


def update_probability(p: np.ndarray, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """One Euler step of unit length (dt = 1) of the master equation,
    clamped and renormalized to sum 1."""
    updated = p + species_probability_delta(p, lam, mu)
    updated = np.maximum(updated, 0.0)
    return updated / updated.sum()


def mutate(
    sivs: np.ndarray,
    p_s: np.ndarray,
    mutation_max: float,
    elite_count: int,
    rng: np.random.Generator,
    draws: np.ndarray | None = None,
) -> list[int]:
    """Probability-driven mutation in place on the (P, n) rows of sivs; returns
    the rows it changed.

    m_i = m_max (1 - P_s_i / P_max), with P_s_i = p_s[i]: rows at improbable
    species counts mutate hardest. Every non-elite SIV is redrawn uniform with
    probability m_i; rows below elite_count are never modified. Each non-elite
    row draws n flip keys, then n replacement keys. draws, when given, is a
    (P - elite_count, 2, n) float64 array that receives them, so a caller
    that mutates every generation need not allocate them each time.
    """
    p_max = p_s.max()
    rates = np.zeros_like(p_s) if p_max == 0.0 else mutation_max * (1.0 - p_s / p_max)
    n_pop, n_dims = sivs.shape
    if draws is None:
        draws = np.empty((n_pop - elite_count, 2, n_dims))
    rng.random(out=draws)
    mutable = sivs[elite_count:]
    flips = draws[:, 0] < rates[elite_count:, None]
    replacement = draws[:, 1]
    flips &= replacement != mutable
    np.copyto(mutable, replacement, where=flips)
    return (np.flatnonzero(flips.any(axis=1)) + elite_count).tolist()


def run_bbo(cm: CostMatrix, source: int, terminal: int, params: BboParams) -> RunResult:
    n_pop = params.population_size
    # migrate and mutate take their draws into one buffer for the whole run;
    # scratch arrays allocated afresh each generation raised the 400-node
    # random workload's peak RSS by about 1.7 MB
    draws = np.empty((n_pop - params.elite_count, 2, cm.n))
    # one shared distribution over species counts 0..n_pop, initially uniform;
    # cost rank r holds species count n_pop - r, so [:0:-1] reads by rank
    p_species = np.full(n_pop + 1, 1.0 / (n_pop + 1))
    lam_k, mu_k = migration_rates(
        np.arange(n_pop + 1), n_pop, params.immigration_max, params.emigration_max
    )
    # rank r's rates are fixed for the run, so its roulette is built once
    immigration, roulette = lam_k[:0:-1], donor_roulette(mu_k[:0:-1])

    def migrate_and_mutate(sivs, gen, rng):
        nonlocal p_species
        migrated = migrate(sivs, immigration, roulette, params.elite_count, rng, draws)
        p_species = update_probability(p_species, lam_k, mu_k)
        mutated = mutate(
            sivs, p_species[:0:-1], params.mutation_max, params.elite_count, rng, draws
        )
        return sorted({*migrated, *mutated})

    return evolve("bbo", cm, source, terminal, params, decode_path, migrate_and_mutate)
