"""Random-keys path encoding shared by both optimizers.

A candidate solution is a vector of priorities, one key in [0, 1] per node.
A key vector decodes to the path of the priority-ordered depth-first search:
from the source, always descend into the unvisited neighbor with the highest
key (ties ascending node id) and backtrack out of dead ends. So every key
vector maps to the same loop-free path on the same cost matrix regardless of
which optimizer produced it. Equivalently, each step takes the highest-key
neighbor off the walk from which the terminal is still reachable without
touching the walk so far.

That search, taken literally, un-visits a node when it backtracks and can
take exponential time. The decoder runs it without ever un-visiting: the top
node of the stack takes its highest-key neighbor not yet seen, the stack pops
when there is none, and the search stops on the terminal. This is exact.
Let D be the popped nodes and P the stack. A node is popped only once all
its out-neighbors are seen, and a seen node is in D or in P, so every link
out of D leads into D or P. A route from a node of D to the terminal, which
is in neither, must therefore touch P: every node of D is not viable for the
rest of the search, and skipping it is what the backtracking search would
end up doing. Each node is pushed and popped at most once, so a decode costs
O(V + E).

The walk reads only the keys of the nodes it pushes, and it pushes only
out-neighbors of nodes on its stack, so it never reads the key of a node the
source does not reach. A decode on the matrix restricted to the source's
reachable set (reachable_submatrix), with its nodes relabelled in ascending
id order and given their own keys, therefore makes the same pushes and pops
and reads the same hop costs: each out-link list keeps its order, so equal
keys still fall to the lower id, and mapping the path back gives the same
nodes and the same cost bit for bit. An optimizer run decodes thousands of
key vectors for one source, so it restricts the matrix once and decodes on
the smaller one, whose key copy costs its own node count rather than n.
When the source reaches every node the restriction is cm itself, with
range(n) as its node ids, so a run has one decode path either way.

Every route query names its two ends the same way (check_endpoints): a
Python or numpy integer in 0..n-1, never a bool or a float, returned as a
Python int, so that a route's nodes are Python ints whatever the caller
passed. The decoder, the oracle, path_cost and the command line all call it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .fuzzycost import CostMatrix
from .topology import _is_integer


class NoPathError(RuntimeError):
    """No source -> terminal path: an exhaustive decode or exact search found none."""


class BrokenPathError(RuntimeError):
    """A hop in the path has no defined cost."""


@dataclass(frozen=True)
class Path:
    nodes: tuple[int, ...]
    cost: float

    def __len__(self) -> int:
        return len(self.nodes)


def check_endpoints(n: int, source, terminal) -> tuple[int, int]:
    """source and terminal as Python ints, if both are node ids 0..n-1.

    Python and numpy integers are node ids; bools, floats and anything else
    are not, as in topology._is_integer. Two Python ints skip that test,
    which takes about ten times as long as the rest: every decode calls
    this, and an optimizer run decodes thousands of times.
    """
    s, t = source, terminal
    if type(s) is not int or type(t) is not int:
        # a value that is not an integer becomes -1, which the range refuses
        s, t = (int(v) if _is_integer(v) else -1 for v in (s, t))
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"source {source!r} or terminal {terminal!r} is not a node id in 0..{n - 1}")
    return s, t


def reachable_submatrix(cm: CostMatrix, source: int, terminal: int) -> tuple[CostMatrix, list[int] | range]:
    """cm restricted to the nodes source reaches, by one depth-first search
    over cm.links, and those nodes' ids in cm: node i of the submatrix is
    node nodes[i] of cm, in ascending id order, with its out-links in the
    same order and at the same costs.

    When source reaches every node that is (cm, range(cm.n)), with no copy.
    Raises ValueError unless both ends are node ids (check_endpoints), and
    NoPathError when source does not reach terminal, with the decoder's
    message. Equal ends pass; decoding on the result refuses them.
    """
    n = cm.n
    source, terminal = check_endpoints(n, source, terminal)
    links = cm.links
    seen = bytearray(n)
    seen[source] = 1
    stack = [source]
    while stack:
        for u, _ in links[stack.pop()]:
            if not seen[u]:
                seen[u] = 1
                stack.append(u)
    if not seen[terminal]:
        raise NoPathError(f"no path from {source} to {terminal}")
    if seen.count(1) == n:
        return cm, range(n)
    kept = np.frombuffer(seen, dtype=bool)
    nodes = np.flatnonzero(kept)
    # a reached node's out-links lead only to reached nodes
    degrees = np.diff(cm.indptr)
    on_kept = np.repeat(kept, degrees)
    heads = np.repeat(np.arange(len(nodes)), degrees[nodes])
    relabel = np.cumsum(kept) - 1
    sub = CostMatrix._from_sorted(len(nodes), heads, relabel[cm.adjacency[on_kept]], cm.values[on_kept])
    return sub, nodes.tolist()


def path_cost(nodes: tuple[int, ...], cm: CostMatrix) -> float:
    """Sum of hop costs, added left to right from 0.0 in hop order.

    Each hop is found in cm.links by bisection, since a node's out-links
    ascend by neighbor id; (dst,) sorts just before (dst, cost). Both ends
    of each hop must be node ids (check_endpoints).
    """
    links = cm.links
    total = 0.0
    for src, dst in zip(nodes, nodes[1:]):
        src, dst = check_endpoints(cm.n, src, dst)
        out = links[src]
        k = bisect_left(out, (dst,))
        if k == len(out) or out[k][0] != dst:
            raise BrokenPathError(f"hop {src} -> {dst} has no defined cost")
        total += out[k][1]
    return total


def decode_path(keys: np.ndarray, cm: CostMatrix, source: int, terminal: int) -> Path:
    """Decode a key vector to a loop-free path, priced from the hop costs
    its walk read.

    Keys should be finite. A NaN or -inf key never wins a comparison, so its
    node is never taken; a +inf key wins over every finite one. The search is
    exhaustive over simple paths in priority order, so with finite keys it
    fails only when the terminal is unreachable; a failed search over
    non-finite keys raises ValueError naming the first of them instead of
    NoPathError.

    The costs are added left to right from 0.0, as path_cost adds them, so
    the cost equals path_cost of the nodes bit for bit; sum() is compensated
    from Python 3.12 on and would round differently.
    """
    n = cm.n
    if len(keys) != n:
        raise ValueError(f"key vector length {len(keys)} != node count {n}")
    source, terminal = check_endpoints(n, source, terminal)
    if source == terminal:
        raise ValueError("source and terminal must differ")
    # a seen node's key becomes -inf in this private copy, so one comparison
    # skips it; a key that is -inf or NaN to begin with never wins either
    seen_key = -math.inf
    key_list = keys.tolist()
    key_list[source] = seen_key
    links = cm.links
    # the visit-once priority DFS: its node stack and the cost of each hop
    # into a node, side by side, with 0.0 for the source
    stack = [source]
    costs = [0.0]
    v = source
    while v != terminal:
        best = -1
        best_key = seen_key
        for u, c in links[v]:
            k = key_list[u]
            if k > best_key:
                best = u
                best_key = k
                best_cost = c
        if best < 0:
            # every neighbor is seen: v is dead for the rest of the decode
            stack.pop()
            costs.pop()
            if not stack:
                finite = np.isfinite(keys)
                if not finite.all():
                    bad = int(np.argmin(finite))
                    raise ValueError(f"key {bad} is not finite: {keys[bad]}")
                raise NoPathError(f"no path from {source} to {terminal}")
            v = stack[-1]
        else:
            key_list[best] = seen_key
            stack.append(best)
            costs.append(best_cost)
            v = best
    total = 0.0
    for c in costs:
        total += c
    return Path(tuple(stack), total)
