"""Exact shortest-path reference and error measurement.

Dijkstra over the cost matrix gives the ground truth the metaheuristics are
judged against. Ties between equal-cost optima break toward the
lexicographically smallest node sequence, so the reported path is unique.

The search keeps one distance and one predecessor label per node and reads
link costs from `CostMatrix.links`. A node's route is its predecessor's
route plus the node itself. Among the cheapest routes to a node u the
lexicographically smallest is route(p) + [u] for some cheapest predecessor
p, so when a second predecessor offers the same cost the two whole
candidates, u included, are compared. Comparing the predecessors' routes
alone is wrong when one is a prefix of the other: with links 0->1 and 1->3
at 0.5, 1->2 and 2->3 at 0.25, both routes to 3 cost 1.0 and (0, 1, 2, 3)
is the smaller, although the parent route (0, 1) is a prefix of (0, 1, 2).

Ties between different nodes need no rule. Every link costs more than
zero (shortest_path raises on one that does not once it matters), so a
node settled at cost c only offers costs above c to others, and
the order in which nodes of equal cost settle cannot change any route. For
the same reason a settled node's predecessor never changes.
"""

from __future__ import annotations

import heapq
import math

from .fuzzycost import CostMatrix
from .pathcodec import Path, check_endpoints


class UnreachableError(RuntimeError):
    """Terminal not reachable from source."""


def _route(pred: list[int], v: int) -> list[int]:
    """Node sequence from the source to v along predecessor labels."""
    nodes = [v]
    while pred[v] >= 0:
        v = pred[v]
        nodes.append(v)
    nodes.reverse()
    return nodes


def shortest_path(cm: CostMatrix, source: int, terminal: int) -> Path:
    """Minimum-cost path by Dijkstra with predecessor labels; link costs must be positive.

    Among equal-cost paths the lexicographically smallest node sequence wins
    (see the module docstring). The cost is added left to right along the
    returned path, so it equals `path_cost` of that path exactly. A link
    that costs zero or less raises ValueError when it would change a label,
    so the search always ends; fuzzy costs are at least ILC_FLOOR.
    """
    n = cm.n
    source, terminal = check_endpoints(n, source, terminal)
    if source == terminal:
        return Path((source,), 0.0)
    links = cm.links
    dist = [math.inf] * n
    pred = [-1] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        cost, v = pop(heap)
        if cost > dist[v]:
            continue  # stale: v was pushed again at a lower cost
        if v == terminal:
            return Path(tuple(_route(pred, v)), cost)
        for u, w in links[v]:
            c = cost + w
            d = dist[u]
            if c > d:
                continue
            if w <= 0.0:
                raise ValueError(f"link {v} -> {u} costs {w}; the oracle needs positive costs")
            if c < d:
                dist[u] = c
                pred[u] = v
                push(heap, (c, u))
            elif _route(pred, v) + [u] < _route(pred, pred[u]) + [u]:
                pred[u] = v
    raise UnreachableError(f"node {terminal} unreachable from {source}")


def brute_force_shortest(cm: CostMatrix, source: int, terminal: int) -> Path:
    """Enumerate all simple paths; independent check of shortest_path on tiny graphs."""
    n = cm.n
    if n > 12:
        raise ValueError(f"brute force limited to 12 nodes, got {n}")
    source, terminal = check_endpoints(n, source, terminal)
    if source == terminal:
        return Path((source,), 0.0)
    best_cost = math.inf
    best_nodes: tuple[int, ...] | None = None

    on_path = bytearray(n)
    on_path[source] = 1

    def walk(v: int, nodes: tuple[int, ...], cost: float):
        nonlocal best_cost, best_nodes
        for u, w in cm.links[v]:
            if on_path[u]:
                continue
            c = cost + w
            # prune on > only: equal-cost completions must still compete on lex order
            if c > best_cost:
                continue
            ext = nodes + (u,)
            if u == terminal:
                if c < best_cost or (c == best_cost and (best_nodes is None or ext < best_nodes)):
                    best_cost = c
                    best_nodes = ext
                continue
            on_path[u] = 1
            walk(u, ext, c)
            on_path[u] = 0

    walk(source, (source,), 0.0)
    if best_nodes is None:
        raise UnreachableError(f"node {terminal} unreachable from {source}")
    return Path(best_nodes, float(best_cost))


def percent_error(found_cost: float, optimal_cost: float) -> float:
    """100 * (found - optimal) / optimal; rejects impossible inputs."""
    if optimal_cost <= 0.0:
        raise ValueError(f"optimal cost must be positive, got {optimal_cost}")
    if found_cost < optimal_cost - 1e-12:
        raise ValueError(f"found cost {found_cost} below optimal {optimal_cost}")
    return 100.0 * (found_cost - optimal_cost) / optimal_cost
