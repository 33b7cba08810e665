"""Biogeography-Based Optimization over random-keys genomes.

Habitats are candidate priority vectors whose SIVs migrate between habitats.
Cost rank maps to a species count k; immigration falls and emigration rises
linearly in k, so poor habitats absorb keys from good ones. A shared
species-count probability distribution evolves by the master equation and
drives mutation pressure toward improbable habitats. The elite_count best
habitats are never modified.

The population is one (P, n) array of SIVs, a row per habitat, kept sorted
best-first beside the habitats' decoded paths. migrate and mutate edit rows
and report which rows they changed; run_bbo decodes each of those once.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .fuzzycost import CostMatrix
from .pathcodec import Path, decode_path, random_vector
from .results import RunResult, TracePoint


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


def migrate(
    sivs: np.ndarray,
    immigration: np.ndarray,
    emigration: np.ndarray,
    elite_count: int,
    rng: np.random.Generator,
) -> list[int]:
    """SIV migration in place on the (P, n) rows of sivs; returns the rows it changed.

    Row i's rates are immigration[i] and emigration[i]; rows below
    elite_count are never modified. Each non-elite dimension immigrates with
    probability lambda_i, taking the key from a donor drawn roulette-wheel by
    emigration rate (self excluded). Donors give their pre-migration SIVs, so
    order of processing is immaterial.
    """
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


def update_probability(
    p: np.ndarray, lam: np.ndarray, mu: np.ndarray, dt: float = 1.0
) -> np.ndarray:
    """One Euler step of the master equation, clamped and renormalized to sum 1."""
    updated = p + dt * species_probability_delta(p, lam, mu)
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
    probability m_i; rows below elite_count are never modified.
    """
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


def run_bbo(cm: CostMatrix, source: int, terminal: int, params: BboParams) -> RunResult:
    rng = np.random.default_rng(params.rng_seed)
    n_dims = cm.n
    n_pop = params.population_size

    best_path: Path | None = None
    trace: list[TracePoint] = []

    start = time.perf_counter()
    # row r of sivs is a habitat's genome and paths[r] its decoded path; a
    # row is decoded at init and after each generation in which it changed
    sivs = np.array([random_vector(rng, n_dims) for _ in range(n_pop)])
    paths = [decode_path(siv, cm, source, terminal) for siv in sivs]
    # the sort reorders rows into spare and swaps, so no generation allocates
    # a fresh (P, n) array; that allocation raised the 400-node random
    # workload's peak RSS by about 1 MB on most runs
    spare = np.empty_like(sivs)

    # one shared distribution over species counts 0..n_pop, initially uniform;
    # cost rank r holds species count n_pop - r, so [:0:-1] reads by rank
    p_species = np.full(n_pop + 1, 1.0 / (n_pop + 1))
    lam_k, mu_k = migration_rates(
        np.arange(n_pop + 1), n_pop, params.immigration_max, params.emigration_max
    )
    immigration, emigration = lam_k[:0:-1], mu_k[:0:-1]
    for gen in range(1, params.max_generations + 1):
        order = sorted(range(n_pop), key=lambda r: paths[r].cost)
        np.take(sivs, order, axis=0, out=spare)
        sivs, spare = spare, sivs
        paths = [paths[r] for r in order]
        if best_path is None or paths[0].cost < best_path.cost:
            best_path = paths[0]
        trace.append(TracePoint(gen, best_path.cost, paths[0].cost))

        if gen == params.max_generations:
            break

        migrated = migrate(sivs, immigration, emigration, params.elite_count, rng)
        p_species = update_probability(p_species, lam_k, mu_k)
        mutated = mutate(sivs, p_species[:0:-1], params.mutation_max, params.elite_count, rng)
        for r in sorted({*migrated, *mutated}):
            paths[r] = decode_path(sivs[r], cm, source, terminal)
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    return RunResult(
        algorithm="bbo",
        n_nodes=n_dims,
        best_path=best_path,
        best_cost=best_path.cost,
        wall_time_ms=elapsed_ms,
        trace=tuple(trace),
        params=asdict(params),
    )
