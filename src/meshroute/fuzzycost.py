"""Fuzzy Integrated Link Cost.

Maps a directed link's (throughput, delay, jitter) to a scalar cost in (0, 1].
Each normalized input is fuzzified against three triangular sets (low, medium,
high with peaks at 0, 0.5, 1). A 27-rule base picks one of five output levels
(very low .. very high, peaks at 0, 0.25, 0.5, 0.75, 1); rule strength is the
product of the antecedent memberships, implication scales the consequent set,
and the rule outputs are summed before a discrete 101-sample centroid
defuzzifies the aggregate. High throughput pulls cost down; high delay or
jitter pushes it up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CENTROID_SAMPLES = 101
ILC_FLOOR = 1e-6

INPUT_LEVELS = 3  # low, medium, high
OUTPUT_LEVELS = 5  # very low .. very high
INPUT_PEAKS = (0.0, 0.5, 1.0)
OUTPUT_PEAK_STEP = 0.25

OUTPUT_LEVEL_NAMES = ("very-low", "low", "medium", "high", "very-high")


def input_memberships(x: float) -> np.ndarray:
    """Degrees of membership of x in the three input sets; sums to 1 on [0, 1]."""
    peaks = np.asarray(INPUT_PEAKS)
    return np.maximum(0.0, 1.0 - np.abs(x - peaks) / 0.5)


def _output_samples() -> np.ndarray:
    """(5, 101) membership samples of the output sets on the unit grid.

    Sample j of level o is max(0, 1 - |j - 25 o| / 25): integer arithmetic in
    the distance keeps mirrored samples bitwise equal, which the centroid
    relies on for exact symmetry.
    """
    idx = np.arange(CENTROID_SAMPLES)
    levels = np.arange(OUTPUT_LEVELS)[:, None]
    return np.maximum(0.0, 1.0 - np.abs(idx - 25 * levels) / 25.0)


OUT_SAMPLES = _output_samples()


def consequent_of(i_thr: int, i_delay: int, i_jitter: int) -> int:
    """Default rule table entry: output level for one antecedent combination.

    Severity score (2 - i_thr) + i_delay + i_jitter ranges 0..6 and is mapped
    onto the five output levels by round-half-up of score * 4 / 6.
    """
    score = (2 - i_thr) + i_delay + i_jitter
    return int(math.floor(score * 4.0 / 6.0 + 0.5))


@dataclass(frozen=True)
class RuleBase:
    """27-entry consequent table indexed by (throughput, delay, jitter) levels."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=int)
        if t.shape != (INPUT_LEVELS, INPUT_LEVELS, INPUT_LEVELS):
            raise ValueError(f"rule table must be 3x3x3, got shape {t.shape}")
        if t.min() < 0 or t.max() >= OUTPUT_LEVELS:
            raise ValueError("rule consequents must be output levels 0..4")
        if (np.diff(t, axis=0) > 0).any():
            raise ValueError("consequents must be non-increasing in throughput level")
        if (np.diff(t, axis=1) < 0).any() or (np.diff(t, axis=2) < 0).any():
            raise ValueError("consequents must be non-decreasing in delay and jitter levels")
        object.__setattr__(self, "table", t)

    def consequent(self, i_thr: int, i_delay: int, i_jitter: int) -> int:
        return int(self.table[i_thr, i_delay, i_jitter])


def default_rule_base() -> RuleBase:
    table = np.empty((INPUT_LEVELS, INPUT_LEVELS, INPUT_LEVELS), dtype=int)
    for i in range(INPUT_LEVELS):
        for j in range(INPUT_LEVELS):
            for k in range(INPUT_LEVELS):
                table[i, j, k] = consequent_of(i, j, k)
    return RuleBase(table)


def load_rule_base(path: str | Path) -> RuleBase:
    """Read a rule-base override: a JSON list of 27 rule objects.

    Each rule holds integer levels {"thr": 0..2, "delay": 0..2, "jitter":
    0..2, "out": 0..4}; every antecedent combination must appear exactly once.
    """
    rules = json.loads(Path(path).read_text())
    if not isinstance(rules, list):
        raise ValueError("rule-base file must hold a JSON list of rules")
    table = np.full((INPUT_LEVELS, INPUT_LEVELS, INPUT_LEVELS), -1, dtype=int)
    for pos, rule in enumerate(rules):
        try:
            i, j, k = int(rule["thr"]), int(rule["delay"]), int(rule["jitter"])
            out = int(rule["out"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"rule {pos}: expected keys thr/delay/jitter/out") from exc
        if not (0 <= i < INPUT_LEVELS and 0 <= j < INPUT_LEVELS and 0 <= k < INPUT_LEVELS):
            raise ValueError(f"rule {pos}: antecedent levels must be 0..2")
        if not 0 <= out < OUTPUT_LEVELS:
            raise ValueError(f"rule {pos}: cost level must be 0..4")
        if table[i, j, k] != -1:
            raise ValueError(f"rule {pos}: duplicate antecedent combination ({i}, {j}, {k})")
        table[i, j, k] = out
    if (table == -1).any():
        missing = int((table == -1).sum())
        raise ValueError(f"rule base incomplete: {missing} antecedent combinations missing")
    return RuleBase(table)


@dataclass(frozen=True)
class MetricBounds:
    """Raw metric ranges used to normalize inputs onto [0, 1]."""

    throughput_min: float = 0.2
    throughput_max: float = 2.0
    delay_min: float = 1.0
    delay_max: float = 100.0
    jitter_min: float = 0.0
    jitter_max: float = 20.0

    def __post_init__(self):
        for lo, hi, name in (
            (self.throughput_min, self.throughput_max, "throughput"),
            (self.delay_min, self.delay_max, "delay"),
            (self.jitter_min, self.jitter_max, "jitter"),
        ):
            if not hi > lo:
                raise ValueError(f"{name} bounds degenerate: [{lo}, {hi}]")


def normalize_inputs(
    throughput: float, delay: float, jitter: float, bounds: MetricBounds
) -> tuple[float, float, float]:
    """Affine-map raw metrics onto [0, 1], clamping out-of-range values."""

    def norm(x, lo, hi):
        return min(1.0, max(0.0, (x - lo) / (hi - lo)))

    return (
        norm(throughput, bounds.throughput_min, bounds.throughput_max),
        norm(delay, bounds.delay_min, bounds.delay_max),
        norm(jitter, bounds.jitter_min, bounds.jitter_max),
    )


def evaluate_ilc(
    throughput_n: float,
    delay_n: float,
    jitter_n: float,
    rules: RuleBase | None = None,
) -> float:
    """Integrated link cost of normalized inputs; in [ILC_FLOOR, 1].

    The centroid is computed as an offset from the grid midpoint with an exact
    (fsum) reduction, so a mirror-symmetric aggregate defuzzifies to 0.5 with
    no rounding residue.
    """
    for name, v in (("throughput", throughput_n), ("delay", delay_n), ("jitter", jitter_n)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"normalized {name} out of [0, 1]: {v}")
    table = (rules or DEFAULT_RULES).table

    mt = input_memberships(throughput_n)
    md = input_memberships(delay_n)
    mj = input_memberships(jitter_n)

    weights = np.zeros(OUTPUT_LEVELS)
    for i in range(INPUT_LEVELS):
        if mt[i] == 0.0:
            continue
        for j in range(INPUT_LEVELS):
            wij = mt[i] * md[j]
            if wij == 0.0:
                continue
            for k in range(INPUT_LEVELS):
                w = wij * mj[k]
                if w > 0.0:
                    weights[table[i, j, k]] += w

    mu = weights @ OUT_SAMPLES
    total = math.fsum(mu)
    offset = math.fsum((idx - 50) * m for idx, m in enumerate(mu))
    centroid = 0.5 + offset / (100.0 * total)
    return max(centroid, ILC_FLOOR)


DEFAULT_RULES = default_rule_base()


@dataclass(frozen=True)
class CostMatrix:
    """Dense directed link costs; NaN marks absent links.

    neighbors[i] lists the out-neighbors of i in ascending id order, so path
    decoding and exact search iterate links identically. adjacency is the
    boolean link matrix (kept alongside values for vectorized reachability).
    memo holds search data derived from the links (the path decoder's
    per-terminal guides); it lives and dies with the instance.
    """

    values: np.ndarray
    neighbors: tuple[tuple[int, ...], ...]
    in_neighbors: tuple[tuple[int, ...], ...]
    adjacency: np.ndarray
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def defined(self, src: int, dst: int) -> bool:
        return bool(np.isfinite(self.values[src, dst]))

    def entry(self, src: int, dst: int) -> float:
        v = self.values[src, dst]
        if not np.isfinite(v):
            raise KeyError(f"no link {src} -> {dst}")
        return float(v)

    @classmethod
    def from_entries(cls, n: int, entries: dict[tuple[int, int], float]) -> "CostMatrix":
        values = np.full((n, n), np.nan)
        for (src, dst), cost in entries.items():
            if src == dst:
                raise ValueError(f"self-loop cost at node {src}")
            values[src, dst] = cost
        adjacency = np.isfinite(values)
        neighbors = tuple(
            tuple(int(j) for j in np.nonzero(adjacency[i])[0]) for i in range(n)
        )
        in_neighbors = tuple(
            tuple(int(j) for j in np.nonzero(adjacency[:, i])[0]) for i in range(n)
        )
        return cls(values, neighbors, in_neighbors, adjacency)


def build_cost_matrix(
    scenario,
    bounds: MetricBounds | None = None,
    rules: RuleBase | None = None,
) -> CostMatrix:
    """Score every observed link of a scenario with the fuzzy system."""
    bounds = bounds or MetricBounds()
    entries = {}
    for link in scenario.links:
        tn, dn, jn = normalize_inputs(link.throughput, link.delay, link.jitter, bounds)
        entries[(link.src, link.dst)] = evaluate_ilc(tn, dn, jn, rules)
    return CostMatrix.from_entries(scenario.n, entries)
