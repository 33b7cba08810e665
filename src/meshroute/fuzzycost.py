"""Fuzzy Integrated Link Cost.

Maps a directed link's (throughput, delay, jitter) to a scalar cost in (0, 1].
Raw metrics are normalized onto [0, 1] over the ranges topology draws them
from. Each normalized input is fuzzified against three triangular sets (low,
medium, high with peaks at 0, 0.5, 1). A fixed 27-rule table (RULE_TABLE)
picks one of five output levels (very low .. very high, peaks at 0, 0.25,
0.5, 0.75, 1); rule strength is the product of the antecedent memberships,
implication scales the consequent set, and the rule outputs are summed
before a discrete 101-sample centroid defuzzifies the aggregate. High
throughput pulls cost down; high delay or jitter pushes it up.

The centroid needs no samples. Output level o's set is sampled at
x = j / 100 (j = 0..100) as s_o(j) = max(0, 1 - |j - 25 o| / 25), and the
aggregate is sum_o w_o s_o(j), where the weight w_o sums the strengths of
the rules that pick level o. Mass and first moment are linear in the
aggregate, so they are sum_o w_o S_o and sum_o w_o M_o with each set's own
sums S_o = sum_j s_o(j) and M_o = sum_j (j - 50) s_o(j), taken about the
grid midpoint. Those are integers:

    S = (13, 25, 25, 25, 13),  M = (-546, -625, 0, 625, 546).

An interior set is a full triangle, 1 + 2 (24 - 12) = 25, and symmetric about
its peak, so M_o = 25 (25 o - 50); an end set is a half triangle,
1 + (24 - 12) = 13, and sum_{j<25} (j - 50)(1 - j / 25) = -950 + 404 = -546.
So the 101-sample centroid is exactly

    0.5 + (546 (w4 - w0) + 625 (w3 - w1)) / (100 (13 (w0 + w4) + 25 (w1 + w2 + w3))).

The offset is taken as paired differences, so a mirror-symmetric weight
vector (w0 = w4, w1 = w3) defuzzifies to exactly 0.5. Every operation is
element-wise, so a link's cost is the same bit for bit whether it is scored
alone or in a batch.

Error bound. With u = 2**-53, each float operation is off by at most u
times its result; no intermediate is subnormal, since a non-zero membership
is at least 2**-54 and so a non-zero weight at least 2**-162. Write T for the
exact mass and g_k = k u / (1 - k u). Each offset term takes three roundings,
so the offset is within g_3 (546 |w4 - w0| + 625 |w3 - w1|) <= 42 g_3 T of
exact (546 = 42 * 13 and 625 < 42 * 25), which is 0.42 g_3 after division by
100 T. The mass takes at most four roundings, and 100 T and the quotient one
each, so the quotient, whose magnitude is at most 0.42, carries a relative
error of at most g_6. The cost is below 1, so adding 0.5 rounds by at most
u / 2. In all, a cost is within 0.42 (g_3 + g_6 + g_3 g_6) + u / 2 < 4.3 u
(about 4.8e-16) of the exact centroid of its weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topology import METRIC_HIGH, METRIC_LOW, _link_order

ILC_FLOOR = 1e-6

INPUT_LEVELS = 3  # low, medium, high
OUTPUT_LEVELS = 5  # very low .. very high
INPUT_PEAKS = (0.0, 0.5, 1.0)


def _memberships(x: np.ndarray) -> np.ndarray:
    """(*x.shape, 3) degrees of membership of each value in the input sets."""
    return np.maximum(0.0, 1.0 - np.abs(x[..., None] - np.asarray(INPUT_PEAKS)) / 0.5)


def consequent_of(i_thr: int, i_delay: int, i_jitter: int) -> int:
    """Rule table entry: output level for one antecedent combination.

    Severity score (2 - i_thr) + i_delay + i_jitter ranges 0..6 and is mapped
    onto the five output levels by round-half-up of score * 4 / 6.
    """
    score = (2 - i_thr) + i_delay + i_jitter
    return int(math.floor(score * 4.0 / 6.0 + 0.5))


# the fixed rule base: RULE_TABLE[i, j, k] is the output level for throughput
# level i, delay level j and jitter level k
RULE_TABLE = np.vectorize(consequent_of)(*np.indices((INPUT_LEVELS,) * 3))
RULE_TABLE.flags.writeable = False


def _normalize(raw: np.ndarray) -> np.ndarray:
    """Affine-map (..., 3) raw (throughput, delay, jitter) onto [0, 1], clamping."""
    lo, hi = np.array(METRIC_LOW), np.array(METRIC_HIGH)
    # fmax/fmin map NaN to the lower clamp, as the builtin max(0.0, nan) does
    return np.fmin(1.0, np.fmax(0.0, (raw - lo) / (hi - lo)))


def _centroids(weights: np.ndarray) -> np.ndarray:
    """Centroids of (L, 5) output-level weights by the closed form of the
    module docstring, each floored at ILC_FLOOR."""
    w0, w1, w2, w3, w4 = weights.T
    offset = 546.0 * (w4 - w0) + 625.0 * (w3 - w1)
    total = 13.0 * (w0 + w4) + 25.0 * (w1 + w2 + w3)
    return np.maximum(0.5 + offset / (100.0 * total), ILC_FLOOR)


def ilc_costs(inputs: np.ndarray) -> np.ndarray:
    """Integrated link costs of (L, 3) normalized (throughput, delay, jitter) rows.

    Returns L costs in [ILC_FLOOR, 1]. Each link's rule weights are summed
    into its output levels in (throughput, delay, jitter) rule order, and
    the weights defuzzify by the closed-form centroid (`_centroids`).
    """
    x = np.asarray(inputs, dtype=float).reshape(-1, 3)
    outside = ~((x >= 0.0) & (x <= 1.0))
    if outside.any():
        row, col = np.argwhere(outside)[0]
        name = ("throughput", "delay", "jitter")[col]
        raise ValueError(f"normalized {name} out of [0, 1]: {x[row, col]}")

    m = _memberships(x)
    mt, md, mj = m[:, 0], m[:, 1], m[:, 2]
    weights = np.zeros((len(x), OUTPUT_LEVELS))
    for i in range(INPUT_LEVELS):
        for j in range(INPUT_LEVELS):
            wij = mt[:, i] * md[:, j]
            for k in range(INPUT_LEVELS):
                weights[:, RULE_TABLE[i, j, k]] += wij * mj[:, k]
    return _centroids(weights)


def evaluate_ilc(throughput_n: float, delay_n: float, jitter_n: float) -> float:
    """Integrated link cost of one link's normalized inputs; in [ILC_FLOOR, 1]."""
    return float(ilc_costs(np.array([throughput_n, delay_n, jitter_n], dtype=float))[0])


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Directed link costs as an adjacency array (compressed sparse rows).

    The out-links of node v are adjacency[indptr[v]:indptr[v + 1]], heads in
    ascending id order, with their costs in the same slice of values; indptr
    has n + 1 entries, and adjacency and values one per link. links[v] holds
    the same out-links as (neighbor, cost) pairs of Python ints and floats,
    so path decoding and exact search iterate links identically without
    indexing the arrays one cell at a time. Nothing is O(n * n). The arrays
    are read-only, and matrices compare by identity.
    """

    indptr: np.ndarray
    adjacency: np.ndarray
    values: np.ndarray
    links: tuple[tuple[tuple[int, float], ...], ...]

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @classmethod
    def from_arrays(cls, n: int, src, dst, costs) -> "CostMatrix":
        """Matrix of links src[l] -> dst[l] with cost costs[l]; a scalar cost
        applies to every link. The first link with an endpoint outside
        0..n-1, a self-loop, a repeat or a cost that is not finite is named
        in a ValueError (topology._link_order, the rule of scenario links).
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        costs = np.broadcast_to(np.asarray(costs, dtype=float), src.shape)
        order = _link_order(n, src, dst, ~np.isfinite(costs), "a cost that is not finite")
        return cls._from_sorted(n, src[order], dst[order], costs[order])

    @classmethod
    def _from_sorted(cls, n: int, heads: np.ndarray, tails: np.ndarray, values: np.ndarray) -> "CostMatrix":
        """from_arrays on valid links in row-major order, unchecked."""
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
        pairs = list(zip(tails.tolist(), values.tolist()))
        ends = indptr.tolist()
        links = tuple(tuple(pairs[a:b]) for a, b in zip(ends, ends[1:]))
        for array in (indptr, tails, values):
            array.flags.writeable = False
        return cls(indptr, tails, values, links)


def build_cost_matrix(scenario) -> CostMatrix:
    """Score every observed link of a scenario with the fuzzy system. The
    scenario checked and sorted its links when it was built."""
    costs = ilc_costs(_normalize(scenario.metrics))
    return CostMatrix._from_sorted(scenario.n, scenario.links[:, 0], scenario.links[:, 1].copy(), costs)
