"""Biogeography-Based Optimization over random-keys genomes.

Habitats are candidate priority vectors whose SIVs migrate between habitats.
Cost rank maps to a species count k; immigration falls and emigration rises
linearly in k, so poor habitats absorb keys from good ones. A shared
species-count probability distribution evolves by the master equation and
drives mutation pressure toward improbable habitats. The ELITE_COUNT best
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

import numpy as np

from .fuzzycost import CostMatrix
from .pathcodec import decode_path
from .results import RunParams, RunResult, evolve


# Immigration and emigration rates of the emptiest and the fullest habitat.
IMMIGRATION_MAX = 1.0
EMIGRATION_MAX = 1.0
# Mutation rate of a habitat at the least probable species count.
MUTATION_MAX = 0.01
# The best habitats, carried unchanged through every generation.
ELITE_COUNT = 2
# A run needs one habitat beside the elites to migrate into and mutate.
MIN_POPULATION = ELITE_COUNT + 1

# The record's name from when each optimizer had its own, kept for importers.
BboParams = RunParams


def check_population(population_size: int) -> None:
    """Refuse a population that run_bbo cannot run: below MIN_POPULATION."""
    if population_size < MIN_POPULATION:
        raise ValueError(f"population_size must be at least {MIN_POPULATION}")


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
) -> list[int]:
    """SIV migration in place on the (P, n) rows of sivs; returns the rows it changed.

    Row i's immigration rate is immigration[i], and roulette is
    donor_roulette of the rows' emigration rates; rows below elite_count are
    never modified. Each non-elite dimension immigrates with probability
    lambda_i, taking the key from a donor drawn roulette-wheel by emigration
    rate (self excluded). Donors give their pre-migration SIVs, so order of
    processing is immaterial. Each non-elite row draws n immigration keys
    and then, only if some dimension immigrates, n donor keys. On a row with
    no donor of positive rate it raises ValueError and leaves sivs unchanged.
    """
    cum, totals = roulette
    n_pop, n_dims = sivs.shape
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
) -> list[int]:
    """Probability-driven mutation in place on the (P, n) rows of sivs; returns
    the rows it changed.

    m_i = m_max (1 - P_s_i / P_max), with P_s_i = p_s[i]: rows at improbable
    species counts mutate hardest. Every non-elite SIV is redrawn uniform with
    probability m_i; rows below elite_count are never modified. Each non-elite
    row draws n flip keys, then n replacement keys.
    """
    p_max = p_s.max()
    rates = np.zeros_like(p_s) if p_max == 0.0 else mutation_max * (1.0 - p_s / p_max)
    mutable = sivs[elite_count:]
    draws = rng.random((len(mutable), 2, sivs.shape[1]))
    flips = draws[:, 0] < rates[elite_count:, None]
    flips &= draws[:, 1] != mutable
    np.copyto(mutable, draws[:, 1], where=flips)
    return (np.flatnonzero(flips.any(axis=1)) + elite_count).tolist()


def run_bbo(cm: CostMatrix, source: int, terminal: int, params: RunParams) -> RunResult:
    check_population(params.population_size)
    n_pop = params.population_size
    # one shared distribution over species counts 0..n_pop, initially uniform;
    # cost rank r holds species count n_pop - r, so [:0:-1] reads by rank
    p_species = np.full(n_pop + 1, 1.0 / (n_pop + 1))
    lam_k, mu_k = migration_rates(np.arange(n_pop + 1), n_pop, IMMIGRATION_MAX, EMIGRATION_MAX)
    # rank r's rates are fixed for the run, so its roulette is built once
    immigration, roulette = lam_k[:0:-1], donor_roulette(mu_k[:0:-1])

    def migrate_and_mutate(sivs, gen, rng):
        nonlocal p_species
        migrated = migrate(sivs, immigration, roulette, ELITE_COUNT, rng)
        p_species = update_probability(p_species, lam_k, mu_k)
        mutated = mutate(sivs, p_species[:0:-1], MUTATION_MAX, ELITE_COUNT, rng)
        return sorted({*migrated, *mutated})

    return evolve("bbo", cm, source, terminal, params, decode_path, migrate_and_mutate)
