"""Seeded mesh-network scenarios: node placement, radio-range links, synthetic metrics.

A scenario is a pure function of (n, placement, seed, radio_range): node sites,
plus one directed link observation for every ordered pair within radio range.
Link metrics stand in for measured values and are drawn from fixed uniform
ranges in (from, to)-sorted order so regeneration is bit-identical.

Links are enumerated with np.nonzero over the adjacency matrix, which yields
them in row-major (from, to) order, and all metrics come from one (L, 3)
uniform draw. A generator fills such a draw row by row, column by column, so
it consumes the stream exactly as L successive (throughput, delay, jitter)
scalar draws would: scenarios and their JSON stay bit-identical to drawing
link by link, and any change to that order changes every scenario.
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


def _adjacency(positions: np.ndarray, radio_range: float, out=None) -> np.ndarray:
    """Boolean adjacency by squared euclidean distance; diagonal false.

    dx*dx + dy*dy adds the same two rounded squares as a dot product over the
    coordinate axis and matches it bit for bit; building it in place from two
    (n, n) arrays avoids an (n, n, 2) temporary. out, from _adjacency_buffers,
    holds those arrays and the result, so placement retries reuse one set
    instead of allocating (and faulting in) three fresh (n, n) arrays each;
    the returned matrix is then out's, overwritten by the next call.
    """
    if out is None:
        out = _adjacency_buffers(len(positions))
    dist_sq, dy, adj = out
    x, y = positions[:, 0], positions[:, 1]
    np.subtract(x[:, None], x[None, :], out=dist_sq)
    dist_sq *= dist_sq
    np.subtract(y[:, None], y[None, :], out=dy)
    dy *= dy
    dist_sq += dy
    np.less_equal(dist_sq, radio_range * radio_range, out=adj)
    np.fill_diagonal(adj, False)
    return adj


def _adjacency_buffers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uninitialised (n, n) squared-distance, dy-square and adjacency arrays."""
    return np.empty((n, n)), np.empty((n, n)), np.empty((n, n), dtype=bool)


def _reachable(adj: np.ndarray, source: int, terminal: int) -> bool:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[source] = True
    frontier = [source]
    while frontier:
        nxt = adj[frontier].any(axis=0) & ~seen
        if nxt[terminal]:
            return True
        seen |= nxt
        frontier = list(np.nonzero(nxt)[0])
    return seen[terminal]


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
        adj = _adjacency(coords, radio_range)
        area_side = (side - 1) * GRID_SPACING_M
    else:
        area_side = REFERENCE_AREA_SIDE_M * math.sqrt(n / REFERENCE_NODE_COUNT)
        buffers = _adjacency_buffers(n)
        for _ in range(MAX_PLACEMENT_RETRIES):
            coords = rng.uniform(0.0, area_side, size=(n, 2))
            adj = _adjacency(coords, radio_range, buffers)
            if _reachable(adj, 0, n - 1):
                break
        else:
            raise ConnectivityError(
                f"no placement connecting node 0 to node {n - 1} in {MAX_PLACEMENT_RETRIES} attempts"
            )

    nodes = tuple(map(NodeSite, range(n), coords[:, 0].tolist(), coords[:, 1].tolist()))
    src, dst = np.nonzero(adj)
    metrics = _draw_metrics(rng, len(src))
    links = tuple(map(LinkObservation, src.tolist(), dst.tolist(), *metrics.T.tolist()))
    return NetworkScenario(
        seed=seed,
        area_side=float(area_side),
        radio_range=float(radio_range),
        nodes=nodes,
        links=links,
    )


def connectivity_matrix(scenario: NetworkScenario) -> np.ndarray:
    """n x n boolean matrix; (i, j) true iff distance(i, j) <= radio_range and i != j."""
    return _adjacency(scenario.positions(), scenario.radio_range)


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
