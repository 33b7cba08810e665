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
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .fuzzycost import CostMatrix


class NoPathError(RuntimeError):
    """Exhaustive decode found no source -> terminal path."""


class BrokenPathError(RuntimeError):
    """A hop in the path has no defined cost."""


@dataclass(frozen=True)
class Path:
    nodes: tuple[int, ...]
    cost: float

    def __len__(self) -> int:
        return len(self.nodes)


def _walk(keys: np.ndarray, cm: CostMatrix, source: int, terminal: int):
    """The visit-once priority DFS: its node stack and the cost of each hop
    into a node, side by side, with 0.0 for the source."""
    n = cm.n
    if len(keys) != n:
        raise ValueError(f"key vector length {len(keys)} != node count {n}")
    if not (0 <= source < n and 0 <= terminal < n):
        raise ValueError(f"source {source} or terminal {terminal} out of range")
    if source == terminal:
        raise ValueError("source and terminal must differ")
    # a seen node's key becomes -inf in this private copy, so one comparison
    # skips it; a key that is -inf or NaN to begin with never wins either
    seen_key = -math.inf
    key_list = keys.tolist()
    key_list[source] = seen_key
    links = cm.links
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
    return stack, costs


def path_cost(nodes: tuple[int, ...], cm: CostMatrix) -> float:
    """Sum of hop costs, added left to right from 0.0 in hop order.

    Each hop is found in cm.links by bisection, since a node's out-links
    ascend by neighbor id; (dst,) sorts just before (dst, cost).
    """
    links = cm.links
    total = 0.0
    for src, dst in zip(nodes, nodes[1:]):
        out = links[src]
        k = bisect_left(out, (dst,))
        if k == len(out) or out[k][0] != dst:
            raise BrokenPathError(f"hop {src} -> {dst} has no defined cost")
        total += out[k][1]
    return total


def decode_path(keys: np.ndarray, cm: CostMatrix, source: int, terminal: int) -> Path:
    """Decode a key vector to a loop-free path, priced from the hop costs
    its walk read.

    Keys must be finite: a NaN or infinite key never wins a comparison, so
    its node is never taken. The search is exhaustive over simple paths in
    priority order, so with finite keys it fails only when the terminal is
    unreachable; a failed search over non-finite keys raises ValueError
    naming the first of them instead of NoPathError.

    The costs are added left to right from 0.0, as path_cost adds them, so
    the cost equals path_cost of the nodes bit for bit; sum() is compensated
    from Python 3.12 on and would round differently.
    """
    stack, costs = _walk(keys, cm, source, terminal)
    total = 0.0
    for c in costs:
        total += c
    return Path(tuple(stack), total)
