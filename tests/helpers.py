"""Helpers shared by several test modules."""

import heapq
import math
import tracemalloc
from functools import lru_cache

import numpy as np
from hypothesis import strategies as st

from meshroute.fuzzycost import CostMatrix, build_cost_matrix
from meshroute.oracle import UnreachableError, _route
from meshroute.pathcodec import Path, check_endpoints, decode_path, path_cost
from meshroute.topology import generate_scenario

# (nodes, placement, scenario seed, optimizer seed) on which whole optimizer
# runs must match their reference runs exactly
OPTIMIZER_GOLDEN_CASES = [
    (n, placement, scenario_seed, opt_seed)
    for n, placement in ((25, "grid"), (100, "grid"), (400, "grid"), (100, "random"), (400, "random"))
    for scenario_seed, opt_seed in ((101, 9001), (102, 9002), (103, 9003))
]
GOLDEN_GENERATIONS = 30


def from_entries(n, entries):
    """The cost matrix of n nodes whose links are the keys (src, dst) of
    entries, with the values as their costs."""
    pairs = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
    costs = np.fromiter(entries.values(), dtype=float, count=len(entries))
    return CostMatrix.from_arrays(n, pairs[:, 0], pairs[:, 1], costs)


@lru_cache(maxsize=None)
def scenario_cost_matrix(n, placement, seed):
    """The cost matrix of a generated scenario, built once per session."""
    return build_cost_matrix(generate_scenario(n, placement=placement, seed=seed))


def clustered_links(draw, n):
    """Draw the links, sorted, of a sparse digraph of n nodes in up to four
    clusters. Each cluster's nodes lie on one cycle, and up to n more links,
    inside or between clusters, join some of them one way, so a node usually
    reaches some clusters but not all; in at least a quarter of the cases
    there is one cluster, and every node reaches every other."""
    node = st.integers(min_value=0, max_value=n - 1)
    one_cluster = draw(st.integers(0, 3)) == 0
    label = [0] * n if one_cluster else draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pairs = set(draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=n)))
    for c in set(label):
        members = [v for v in range(n) if label[v] == c]
        if len(members) > 1:
            pairs.update(zip(members, members[1:] + members[:1]))
    return sorted(pairs)


def _dense_view(cm, fill, entries):
    heads = np.repeat(np.arange(cm.n), np.diff(cm.indptr))
    dense = np.full((cm.n, cm.n), fill)
    dense[heads, cm.adjacency] = entries
    dense.flags.writeable = False
    return dense


@lru_cache(maxsize=1)
def dense_costs(cm):
    """The (n, n) costs of cm, built from its adjacency array: NaN where
    there is no link. Read-only, and kept for the last matrix asked, since
    reference searches ask once per query."""
    return _dense_view(cm, np.nan, cm.values)


def dense_adjacency(cm):
    """The (n, n) boolean link matrix of cm, built from its adjacency array."""
    return _dense_view(cm, False, True)


def out_neighbors(cm, v):
    """The heads of v's out-links, ascending: the tails of cm.links[v]."""
    return tuple(u for u, _ in cm.links[v])


def link_cost(cm, src, dst):
    """The cost of link src -> dst, read from cm.links; KeyError if absent."""
    return dict(cm.links[src])[dst]


def traced_peak_bytes(call):
    """Run call() under tracemalloc; return its result and the peak bytes it
    held, numpy buffers included."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def decode_then_price(keys, cm, source, terminal):
    """decode_path as it was before costs were summed on the walk: decode the
    nodes, then price them with path_cost."""
    nodes = decode_path(keys, cm, source, terminal).nodes
    return Path(nodes, path_cost(nodes, cm))


def count_decodes(monkeypatch, module, decoder):
    """Route module.decode_path through decoder; the list returned grows by
    one entry per call."""
    calls = []

    def counted(*args):
        calls.append(None)
        return decoder(*args)

    monkeypatch.setattr(module, "decode_path", counted)
    return calls


def forward_shortest_path(cm, source, terminal):
    """oracle.shortest_path as it was before the two-sided search: one
    forward Dijkstra with predecessor labels on every query, raising on a
    non-positive cost only when it would change a label. The reference
    that shortest_path must equal in nodes and cost bits."""
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
