"""Biogeography-Based Optimization over random-keys genomes.

Habitats are candidate priority vectors whose SIVs migrate between habitats.
Cost rank maps to a species count k; immigration falls and emigration rises
linearly in k, so poor habitats absorb keys from good ones. A shared
species-count probability distribution evolves by the master equation and
drives mutation pressure toward improbable habitats. The elite_count best
habitats are never modified.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

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


@dataclass
class Habitat:
    siv: np.ndarray
    path: Path
    cost: float
    species_count: int = 0
    p_s: float = 0.0
    immigration_rate: float = 0.0
    emigration_rate: float = 0.0


def rank_to_species(rank: int, n: int) -> int:
    """Species count from 0-based cost rank: best habitat holds n species."""
    if not 0 <= rank <= n:
        raise ValueError(f"rank {rank} out of [0, {n}]")
    return n - rank


def migration_rates(k, n: int, immigration_max: float, emigration_max: float):
    """Linear rates of species count k: lambda = I(1 - k/n), mu = E k/n."""
    frac = np.asarray(k) / n
    lam = immigration_max * (1.0 - frac)
    mu = emigration_max * frac
    if np.ndim(k) == 0:
        return float(lam), float(mu)
    return lam, mu


def migrate(
    habitats: list[Habitat],
    cm: CostMatrix,
    source: int,
    terminal: int,
    elite_count: int,
    rng: np.random.Generator,
) -> None:
    """SIV migration in place; habitats must be sorted best-first.

    Each non-elite dimension immigrates with probability lambda_i, taking the
    key from a donor drawn roulette-wheel by emigration rate (self excluded).
    Donors give their pre-migration SIVs, so order of processing is immaterial.
    """
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
        h.path = decode_path(h.siv, cm, source, terminal)
        h.cost = h.path.cost


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
    habitats: list[Habitat],
    cm: CostMatrix,
    source: int,
    terminal: int,
    mutation_max: float,
    elite_count: int,
    rng: np.random.Generator,
) -> None:
    """Probability-driven mutation in place; habitats must be sorted best-first.

    m_i = m_max (1 - P_s_i / P_max): habitats at improbable species counts
    mutate hardest. Every non-elite SIV is redrawn uniform with probability m_i.
    """
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
        h.path = decode_path(h.siv, cm, source, terminal)
        h.cost = h.path.cost


def run_bbo(cm: CostMatrix, source: int, terminal: int, params: BboParams) -> RunResult:
    rng = np.random.default_rng(params.rng_seed)
    n_dims = cm.n
    n_pop = params.population_size

    best_path: Path | None = None
    trace: list[TracePoint] = []

    start = time.perf_counter()
    habitats = []
    for _ in range(n_pop):
        siv = random_vector(rng, n_dims)
        path = decode_path(siv, cm, source, terminal)
        habitats.append(Habitat(siv, path, path.cost))

    # one shared distribution over species counts 0..n_pop, initially uniform
    p_species = np.full(n_pop + 1, 1.0 / (n_pop + 1))
    lam_k, mu_k = migration_rates(
        np.arange(n_pop + 1), n_pop, params.immigration_max, params.emigration_max
    )
    for gen in range(1, params.max_generations + 1):
        # a habitat's path and cost are decoded wherever its genome changes:
        # at init, in migrate and in mutate
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
