"""Seeded mesh-network scenarios: node placement, radio-range links, synthetic metrics.

A scenario is a pure function of (n, placement, seed, radio_range): node sites,
plus one directed link observation for every ordered pair within radio range.
Link metrics stand in for measured values and are drawn from fixed uniform
ranges in (from, to)-sorted order so regeneration is bit-identical.

Links come from a cell list (_radio_pairs): nodes are bucketed into square
cells about one radio range wide, each node is tested only against the
nodes of its 3 x 3 block of cells, and the pairs that pass are sorted
row-major, in (from, to) order. No (n, n) array is built; the pairs, their
order and the float ops of each distance test are those of a dense all-pairs
comparison. All metrics come from one (L, 3) uniform draw. A generator fills
such a draw row by row, column by column, so it consumes the stream exactly
as L successive (throughput, delay, jitter) scalar draws would: scenarios
and their JSON stay bit-identical to drawing link by link, and any change
to that order changes every scenario.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GRID_SPACING_M = 200.0
DEFAULT_RADIO_RANGE_M = 250.0
PLACEMENTS = ("grid", "random")
# random placement keeps the reference density of 25 nodes per 1500 m square
REFERENCE_AREA_SIDE_M = 1500.0
REFERENCE_NODE_COUNT = 25

THROUGHPUT_RANGE_MBPS = (0.2, 2.0)
DELAY_RANGE_MS = (1.0, 100.0)
JITTER_RANGE_MS = (0.0, 20.0)

MAX_PLACEMENT_RETRIES = 1000

SCENARIO_FORMAT_VERSION = 1


class ConnectivityError(RuntimeError):
    """Random placement failed to connect source and terminal within the retry budget."""


@dataclass(frozen=True)
class NodeSite:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class LinkObservation:
    """Directed link with raw metrics; (src, dst) and (dst, src) are independent."""

    src: int
    dst: int
    throughput: float  # Mbps
    delay: float  # ms
    jitter: float  # ms


@dataclass(frozen=True)
class NetworkScenario:
    seed: int
    area_side: float
    radio_range: float
    nodes: tuple[NodeSite, ...]
    links: tuple[LinkObservation, ...]

    @property
    def n(self) -> int:
        return len(self.nodes)

    def positions(self) -> np.ndarray:
        """(n, 2) array of node coordinates in meters."""
        return np.array([[s.x, s.y] for s in self.nodes], dtype=float)


METRIC_LOW = (THROUGHPUT_RANGE_MBPS[0], DELAY_RANGE_MS[0], JITTER_RANGE_MS[0])
METRIC_HIGH = (THROUGHPUT_RANGE_MBPS[1], DELAY_RANGE_MS[1], JITTER_RANGE_MS[1])


def _draw_metrics(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 3) rows of (throughput, delay, jitter), one row per link in order."""
    return rng.uniform(METRIC_LOW, METRIC_HIGH, size=(count, 3))


# cell side h = max(r, CELL_FLOOR_M, spread / CELL_SPAN_CAP) * (1 + CELL_MARGIN);
# _radio_pairs says why each term is there
CELL_MARGIN = 2.0**-20
CELL_SPAN_CAP = 2.0**24
CELL_FLOOR_M = 2.0**-500


def _radio_pairs(positions: np.ndarray, radio_range: float) -> tuple[np.ndarray, np.ndarray]:
    """Ordered pairs (i, j), i != j, with dx*dx + dy*dy <= r*r, row-major.

    Returns int64 arrays src, dst sorted by src * n + dst. The pairs, their
    order and every per-pair float op are those of a dense (n, n) test, but
    only nodes in neighbouring cells are compared. Nodes are bucketed into
    square cells of side h by floor((x - min x) / h), and each node is tested
    against the nodes of its 3 x 3 block of cells. The three cells of a cell
    row are one contiguous run of the cell-sorted order, so a node's
    candidates are three runs, found by binary search among the occupied
    cells only. No array is larger than the candidate pairs, and cell keys
    stay below 2**50.

    Exactness: a pair that passes the test is never two cells apart, so the
    3 x 3 block misses none. Write u = 2**-53: a float op with a normal
    result errs by a factor within [1 - u, 1 + u], and a subtraction with a
    subnormal result is exact.

    - A pass bounds the gap. Adding fl(dy*dy) >= 0 cannot lower the rounded
      sum, so fl(dx*dx) <= fl(r*r) <= fl(r'*r') with r' = max(r, 2**-500),
      whose square is normal. If |dx| >= r', dx*dx is normal too, so
      dx*dx (1 - u) <= r'*r' (1 + u): |dx| < r'(1 + 2u), and as
      dx = fl(x_i - x_j), |x_i - x_j| < r'(1 + 4u).
    - Two cells apart widens it. The cell indices floor(q), with
      q = fl(fl(x - min x) / h), differ by 2 or more, so the q differ by more
      than 1. The cap makes h exceed spread / 2**24, so each exact quotient
      is below 2**24 and q errs from it by at most 3u times it: the exact
      quotients differ by more than 1 - 2**-26, and
      |x_i - x_j| > h (1 - 2**-26) > r'(1 + 2**-20)(1 - u)(1 - 2**-26)
      > r'(1 + 2**-21).

    The two bounds contradict each other, and y is the same. The 2**-20
    margin is what the second bound needs: with a side of exactly r, a
    quotient that rounds up onto a cell boundary leaves no room to spare.
    The cap bounds the quotients and keys however small r is against the
    layout. When r*r overflows, every pair passes and all nodes share one
    cell. Coordinates and their spread must be finite.
    """
    n = len(positions)
    x, y = positions[:, 0], positions[:, 1]
    r_sq = radio_range * radio_range
    x0, y0 = x.min(), y.min()
    spread = max(x.max() - x0, y.max() - y0)
    if math.isinf(r_sq):
        h = math.inf
    else:
        h = max(radio_range, CELL_FLOOR_M, spread / CELL_SPAN_CAP) * (1.0 + CELL_MARGIN)
    # the quotients are >= 0, so truncation is floor
    cx = ((x - x0) / h).astype(np.int64)
    cy = ((y - y0) / h).astype(np.int64)
    # a row is width keys wide, so cx - 1 and cx + 1 never reach an occupied
    # cell of another row
    width = int(cx.max()) + 2
    key = cy * width + cx
    order = np.argsort(key, kind="stable")
    # per node, the first key and one past the last key of each of its three
    # cell rows; the sorted keys are integers, so one left-side search finds
    # both ends of every run
    bounds = key[:, None] + np.array([-width - 1, -width + 2, -1, 2, width - 1, width + 2])
    runs = np.searchsorted(key[order], bounds).reshape(-1, 2)
    lo = runs[:, 0]
    counts = runs[:, 1] - lo
    ends = np.cumsum(counts)
    # a candidate's place in cell-sorted order: its run's start plus its
    # offset in the run, which is its index less the run's first index
    at = np.arange(ends[-1]) + np.repeat(lo - (ends - counts), counts)
    i = np.repeat(np.arange(n), counts.reshape(n, 3).sum(axis=1))
    j = order[at]
    dist_sq = x[i] - x[j]
    dist_sq *= dist_sq
    dy = y[i] - y[j]
    dy *= dy
    dist_sq += dy
    flat = i * n + j
    flat = np.sort(flat[(dist_sq <= r_sq) & (i != j)])
    return np.divmod(flat, n)


def _connects(src: np.ndarray, dst: np.ndarray, n: int, source: int, terminal: int) -> bool:
    """Depth-first search over row-major pairs: does source reach terminal?"""
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    starts = [0] + ends[:-1]
    heads = dst.tolist()
    seen = bytearray(n)
    seen[source] = 1
    stack = [source]
    while stack:
        v = stack.pop()
        for u in heads[starts[v] : ends[v]]:
            if not seen[u]:
                if u == terminal:
                    return True
                seen[u] = 1
                stack.append(u)
    return False


def check_placement(n: int, placement: str) -> None:
    """Raise ValueError unless `placement` can place n nodes: a known
    placement, at least 2 nodes, and a perfect square for grid."""
    if placement not in PLACEMENTS:
        raise ValueError(f"unknown placement {placement!r} (expected one of {PLACEMENTS})")
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if placement == "grid" and math.isqrt(n) ** 2 != n:
        raise ValueError(f"grid placement needs a perfect-square node count, {n} is not a perfect square")


def generate_scenario(
    n: int,
    placement: str = "grid",
    seed: int = 0,
    radio_range: float = DEFAULT_RADIO_RANGE_M,
) -> NetworkScenario:
    """Generate a reproducible scenario.

    Grid placement puts nodes on a sqrt(n) x sqrt(n) lattice with 200 m spacing
    (n must be a perfect square). Random placement draws coordinates
    i.i.d. over a square holding the reference density and redraws the whole
    layout until node 0 and node n-1 are connected.
    """
    check_placement(n, placement)
    if not (math.isfinite(radio_range) and radio_range > 0):
        raise ValueError(f"radio_range must be positive and finite, got {radio_range}")
    rng = np.random.default_rng(seed)

    if placement == "grid":
        side = math.isqrt(n)
        idx = np.arange(n)
        coords = np.stack([(idx % side) * GRID_SPACING_M, (idx // side) * GRID_SPACING_M], axis=1)
        src, dst = _radio_pairs(coords, radio_range)
        area_side = (side - 1) * GRID_SPACING_M
    else:
        area_side = REFERENCE_AREA_SIDE_M * math.sqrt(n / REFERENCE_NODE_COUNT)
        for _ in range(MAX_PLACEMENT_RETRIES):
            coords = rng.uniform(0.0, area_side, size=(n, 2))
            src, dst = _radio_pairs(coords, radio_range)
            if _connects(src, dst, n, 0, n - 1):
                break
        else:
            raise ConnectivityError(
                f"no placement connecting node 0 to node {n - 1} in {MAX_PLACEMENT_RETRIES} attempts"
            )

    nodes = tuple(map(NodeSite, range(n), coords[:, 0].tolist(), coords[:, 1].tolist()))
    metrics = _draw_metrics(rng, len(src))
    links = tuple(map(LinkObservation, src.tolist(), dst.tolist(), *metrics.T.tolist()))
    return NetworkScenario(
        seed=seed,
        area_side=float(area_side),
        radio_range=float(radio_range),
        nodes=nodes,
        links=links,
    )


def scenario_to_dict(scenario: NetworkScenario) -> dict:
    return {
        "version": SCENARIO_FORMAT_VERSION,
        "seed": scenario.seed,
        "area_side_m": scenario.area_side,
        "radio_range_m": scenario.radio_range,
        "nodes": [{"id": s.id, "x_m": s.x, "y_m": s.y} for s in scenario.nodes],
        "links": [
            {
                "from": k.src,
                "to": k.dst,
                "throughput_mbps": k.throughput,
                "delay_ms": k.delay,
                "jitter_ms": k.jitter,
            }
            for k in sorted(scenario.links, key=lambda k: (k.src, k.dst))
        ],
    }


def scenario_from_dict(data: dict) -> NetworkScenario:
    """Parse scenario JSON; malformed input raises ValueError naming the fault.

    Node ids must be 0..n-1 in order, and links must join two distinct
    in-range nodes, appear once per direction and carry finite, non-negative
    metrics.
    """
    if not isinstance(data, dict):
        raise ValueError("a scenario must be a JSON object")
    version = data.get("version")
    if version != SCENARIO_FORMAT_VERSION:
        raise ValueError(f"unsupported scenario format version {version!r}")
    try:
        nodes = tuple(
            NodeSite(int(d["id"]), float(d["x_m"]), float(d["y_m"])) for d in data["nodes"]
        )
        for i, site in enumerate(nodes):
            if site.id != i:
                raise ValueError(f"node {i} has id {site.id}; ids must be 0..n-1 in order")
        n = len(nodes)
        seen = set()
        links = []
        for d in data["links"]:
            link = LinkObservation(
                int(d["from"]),
                int(d["to"]),
                float(d["throughput_mbps"]),
                float(d["delay_ms"]),
                float(d["jitter_ms"]),
            )
            src, dst = link.src, link.dst
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"link {src} -> {dst} has an endpoint outside 0..{n - 1}")
            if src == dst:
                raise ValueError(f"self-loop link at node {src}")
            pair = src * n + dst
            if pair in seen:
                raise ValueError(f"duplicate link {src} -> {dst}")
            seen.add(pair)
            # the chained comparisons are false for NaN as well
            if not (
                0.0 <= link.throughput < math.inf
                and 0.0 <= link.delay < math.inf
                and 0.0 <= link.jitter < math.inf
            ):
                raise ValueError(f"link {src} -> {dst} has a metric that is negative or not finite")
            links.append(link)
        return NetworkScenario(
            seed=int(data["seed"]),
            area_side=float(data["area_side_m"]),
            radio_range=float(data["radio_range_m"]),
            nodes=nodes,
            links=tuple(links),
        )
    except KeyError as exc:
        raise ValueError(f"scenario is missing the required key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed scenario: {exc}") from None


def save_scenario(scenario: NetworkScenario, path: str | Path) -> None:
    """Write the scenario JSON; links sorted by (from, to) for byte-stable output.

    The JSON is not indented, so json.dumps runs its C encoder; with an
    indent it falls back to the pure-Python one, which takes two to two and
    a half times as long on a 2500-node scenario.
    """
    Path(path).write_text(json.dumps(scenario_to_dict(scenario)) + "\n")


def load_scenario(path: str | Path) -> NetworkScenario:
    return scenario_from_dict(json.loads(Path(path).read_text()))
