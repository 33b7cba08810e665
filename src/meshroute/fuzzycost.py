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

All links are scored in one batch (`ilc_costs`); the scalar entry points are
one-link calls of it. Three choices keep every cost bit-identical to scoring
links one at a time with a per-rule loop:
- rule weights are added into each output level in (throughput, delay,
  jitter) rule order, so each level sums the same terms in the same order
  (the zero terms a loop would skip add +0.0, which is exact);
- the aggregate is a stacked vector-matrix product, which numpy sends to the
  same gemv kernel as a single vector @ matrix; a 2-D matrix product, np.dot
  or einsum rounds differently on some links;
- the centroid's two sums per link are correctly rounded, which is what
  `math.fsum` returns, so a mirror-symmetric aggregate defuzzifies to exactly
  0.5. `exact_row_sums` gets them for a block of links at once, bit for bit
  equal to `math.fsum` of each row, as follows.

TwoSum (Knuth) turns finite a, b into s = fl(a + b) and the exact error
a + b - s, subnormals included. A pairwise tree of n - 1 TwoSums over a row
of n = 101 samples leaves the exact sum S as s plus the n - 1 errors (Ogita,
Rump and Oishi, "Accurate sum and dot product", SIAM J. Sci. Comput. 26(6),
2005). The errors are added in float into e and their magnitudes into ae.
With u = 2**-53, float addition of m terms in any order is off by at most
(m - 1) u / (1 - (m - 1) u) times the sum of magnitudes, and ae falls short
of that sum by under a factor (1 - u)**(m - 1), so e is within n u ae of the
errors' exact sum. One more TwoSum gives r = fl(s + e) and its exact error
r_err, so |S - r| <= |r_err| + n u ae. The certificate is

    fl(|r_err| + fl(2 n u ae)) < half the gap from r to its nearer neighbour.

The factor 2 absorbs the rounding of the bound itself. Rounding is monotone
and the half gap is a float (or rounds down to 0), so the computed test
implies the exact one; then S lies strictly inside r's rounding interval and
r is the correctly rounded S. A tie fails the strict test, so ties-to-even
never has to be decided here. Underflow cannot hide an error: every sample
is a multiple of 2**-1074, so e differs from the errors' exact sum by a
multiple of 2**-1074, and an error of at least 2**-1074 makes the bound
large enough that its underflow cannot pull it below n u ae. A row that
fails the certificate, including any non-finite row (NaN compares false) and
every exact-zero sum (the half gap at 0 underflows to 0), is summed again by
`math.fsum`. That fallback is what makes the result exact; it takes about 35
of the 19,600 sums at 2500 nodes, most of them the zero offsets of
mirror-symmetric aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topology import METRIC_HIGH, METRIC_LOW

CENTROID_SAMPLES = 101
ILC_FLOOR = 1e-6

INPUT_LEVELS = 3  # low, medium, high
OUTPUT_LEVELS = 5  # very low .. very high
INPUT_PEAKS = (0.0, 0.5, 1.0)
OUTPUT_PEAK_STEP = 0.25

_UNIT_ROUNDOFF = 2.0**-53  # half the spacing of floats in [1, 2)
# links whose aggregates are summed at once: the (101, 160) float64 work
# arrays stay just under glibc's 128 KiB mmap threshold and are reused from
# the heap; 256-link blocks raised that threshold and left about 1.4 MB more
# resident after the build
_BLOCK_ROWS = 80


def _memberships(x: np.ndarray) -> np.ndarray:
    """(*x.shape, 3) degrees of membership of each value in the input sets."""
    return np.maximum(0.0, 1.0 - np.abs(x[..., None] - np.asarray(INPUT_PEAKS)) / 0.5)


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
# (j - 50) for sample j: the centroid's first moment is taken about the grid midpoint
SAMPLE_OFFSETS = np.arange(CENTROID_SAMPLES) - 50.0


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


def _two_sum(x: np.ndarray, y: np.ndarray, err: np.ndarray) -> None:
    """Knuth's TwoSum in place: x becomes s = fl(x + y) and err the exact
    rounding error x + y - s; y is overwritten."""
    s = x + y
    y_virtual = s - x
    np.subtract(x, np.subtract(s, y_virtual, out=err), out=err)
    y -= y_virtual
    err += y
    x[...] = s


def exact_row_sums(rows: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a 2-D float array, bit for bit.

    A pairwise TwoSum tree sums each row and keeps every rounding error; a
    row whose certificate (module docstring) fails is summed by math.fsum.
    The 101 samples take seven folds of a few whole-array operations each,
    not one operation per sample, which keeps a one-link call cheap.
    """
    rows = np.asarray(rows, dtype=float)
    a = rows.T.copy()  # sample-major, so each fold reads whole contiguous rows
    k, done = a.shape[0], 0
    errs = np.empty((k - 1, a.shape[1]))
    while k > 1:
        # fold sample k - h + i onto sample i; an odd k leaves sample h in place
        h = k // 2
        _two_sum(a[:h], a[k - h : k], errs[done : done + h])
        done += h
        k -= h
    r, e = a[0].copy(), errs.sum(axis=0)
    r_err = np.empty_like(e)
    _two_sum(r, e, r_err)
    half_gap = 0.5 * np.minimum(np.nextafter(r, np.inf) - r, r - np.nextafter(r, -np.inf))
    bound = np.abs(r_err) + 2.0 * len(a) * _UNIT_ROUNDOFF * np.abs(errs).sum(axis=0)
    for i in np.flatnonzero(~(bound < half_gap)).tolist():
        r[i] = math.fsum(rows[i].tolist())
    return r


def ilc_costs(inputs: np.ndarray) -> np.ndarray:
    """Integrated link costs of (L, 3) normalized (throughput, delay, jitter) rows.

    Returns L costs in [ILC_FLOOR, 1]. The centroid is computed as an offset
    from the grid midpoint with correctly rounded sums (`exact_row_sums`,
    equal to math.fsum bit for bit), so a mirror-symmetric aggregate
    defuzzifies to 0.5 with no rounding residue. The links are scored in
    blocks of _BLOCK_ROWS: the (L, 101) aggregate is never held whole, and
    each block's stacked product is the same per-link gemv.
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

    total, offset = np.empty(len(x)), np.empty(len(x))
    for lo in range(0, len(x), _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        mu = (weights[block, None, :] @ OUT_SAMPLES)[:, 0, :]
        sums = exact_row_sums(np.concatenate((mu, mu * SAMPLE_OFFSETS)))
        total[block], offset[block] = sums.reshape(2, -1)
    return np.maximum(0.5 + offset / (100.0 * total), ILC_FLOOR)


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
        """Matrix of links src[l] -> dst[l] with cost costs[l].

        A repeated link keeps its last cost; a non-finite cost leaves no link.
        A scalar cost applies to every link.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        loops = np.flatnonzero(src == dst)
        if len(loops):
            raise ValueError(f"self-loop cost at node {src[loops[0]]}")
        if len(src) and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
            raise ValueError(f"link endpoint outside 0..{n - 1}")
        costs = np.broadcast_to(np.asarray(costs, dtype=float), src.shape)
        keys = src * n + dst
        # a stable sort keeps a repeated link's entries in input order, so the
        # last entry of each run of equal keys holds the link's last cost
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        last = np.ones(len(keys), dtype=bool)
        last[:-1] = keys[1:] != keys[:-1]
        order = order[last]
        order = order[np.isfinite(costs[order])]
        heads, tails, values = src[order], dst[order], costs[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
        pairs = list(zip(tails.tolist(), values.tolist()))
        ends = indptr.tolist()
        links = tuple(tuple(pairs[a:b]) for a, b in zip(ends, ends[1:]))
        for array in (indptr, tails, values):
            array.flags.writeable = False
        return cls(indptr, tails, values, links)


def build_cost_matrix(scenario) -> CostMatrix:
    """Score every observed link of a scenario with the fuzzy system."""
    costs = ilc_costs(_normalize(scenario.metrics))
    return CostMatrix.from_arrays(scenario.n, scenario.links[:, 0], scenario.links[:, 1], costs)
