"""Optimizer run records, and the generation loop BB-BC and BBO share."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .oracle import percent_error
from .pathcodec import Path, reachable_submatrix


@dataclass(frozen=True)
class RunParams:
    """One optimizer run's budget: generations, population and seed.

    Both optimizers take it; their other settings are module constants.
    """

    max_generations: int
    population_size: int = 50
    rng_seed: int = 0

    def __post_init__(self):
        for name, least in (("max_generations", 1), ("population_size", 2), ("rng_seed", 0)):
            value = getattr(self, name)
            # as in a plan file, no float or bool stands in for an integer
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class TracePoint:
    """Convergence sample at one generation (1-based)."""

    generation: int
    best_cost_so_far: float
    generation_best_cost: float


@dataclass(frozen=True)
class RunResult:
    algorithm: str
    n_nodes: int
    best_path: Path
    best_cost: float
    wall_time_ms: float
    trace: tuple[TracePoint, ...]
    params: dict = field(default_factory=dict)
    scenario_seed: int | None = None
    oracle_cost: float | None = None
    percent_error: float | None = None

    def with_oracle(self, oracle_cost: float) -> "RunResult":
        return replace(
            self,
            oracle_cost=oracle_cost,
            percent_error=percent_error(self.best_cost, oracle_cost),
        )


def evolve(algorithm, cm, source, terminal, params: RunParams, decode, vary) -> RunResult:
    """The generation loop of BB-BC and BBO, which differ only in vary.

    The population is one (P, n) array of uniform random keys drawn with
    params.rng_seed. Each generation stable-sorts the rows best-first by cost
    (equal costs keep their order), records the best path so far and a
    TracePoint and, unless it is the last, calls vary(population, gen, rng),
    which edits rows in place and returns those it changed. A row is decoded
    once at the start and then once after each vary that changes it. decode
    is each optimizer's module-level decode_path, looked up when it runs, so
    patching that name reroutes every decode. Decodes run on the part of cm
    that source reaches (pathcodec.reachable_submatrix), which is cm itself
    when source reaches every node, on those columns of the rows, which
    gives the same paths (see pathcodec). The columns are gathered once per
    generation and each row decodes from a view; only the best path is mapped back
    to cm's node ids. Endpoints that are not two node ids, or between which
    there is no path, raise before the first decode.
    """
    rng = np.random.default_rng(params.rng_seed)
    n_pop = params.population_size
    best_path = None
    trace: list[TracePoint] = []
    start = time.perf_counter()
    population = rng.random((n_pop, cm.n))
    sub, nodes = reachable_submatrix(cm, source, terminal)
    ends = nodes.index(source), nodes.index(terminal)
    cols = np.asarray(nodes)

    def decode_rows(population, rows):
        keys = population[:, cols]  # one gather per generation; rows are views
        return [decode(keys[r], sub, *ends) for r in rows]

    paths = decode_rows(population, range(n_pop))
    for gen in range(1, params.max_generations + 1):
        order = sorted(range(n_pop), key=lambda r: paths[r].cost)
        population = population[order]
        paths = [paths[r] for r in order]
        if best_path is None or paths[0].cost < best_path.cost:
            best_path = paths[0]
        trace.append(TracePoint(gen, best_path.cost, paths[0].cost))

        if gen == params.max_generations:
            break
        changed = vary(population, gen, rng)
        for r, path in zip(changed, decode_rows(population, changed)):
            paths[r] = path
    best_path = Path(tuple(nodes[v] for v in best_path.nodes), best_path.cost)
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    return RunResult(
        algorithm=algorithm,
        n_nodes=cm.n,
        best_path=best_path,
        best_cost=best_path.cost,
        wall_time_ms=elapsed_ms,
        trace=tuple(trace),
        params=asdict(params),
    )
