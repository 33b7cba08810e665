"""Helpers shared by several test modules."""

import tracemalloc
from functools import lru_cache

import numpy as np

from meshroute.fuzzycost import CostMatrix, build_cost_matrix
from meshroute.pathcodec import Path, decode_path, path_cost
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
