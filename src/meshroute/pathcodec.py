"""Random-keys path encoding shared by both optimizers.

A candidate solution is a vector of priorities, one key in [0, 1] per node.
A key vector decodes to the path of the priority-ordered depth-first search:
from the source, always descend into the unvisited neighbor with the highest
key (ties ascending node id) and backtrack out of dead ends. So every key
vector maps to the same loop-free path on the same cost matrix regardless of
which optimizer produced it. Equivalently, each step takes the highest-key
free neighbor from which the terminal is still reachable without revisiting
the walk so far; that is how the path is computed, in two steps:

1. A probe follows the highest-key free neighbor. If it reaches the terminal,
   every choice it made led on to the terminal, so it is the search's path.
2. Otherwise the walk starts again from the source and checks a candidate
   only when it is about to take it. The check is a depth-first search over
   free, non-dead nodes that tries neighbors nearest the terminal first and
   succeeds as soon as it meets the witness route, the route to the terminal
   that the last successful check found. Every node a failed check visited
   is dead for the rest of the decode: the walk only ever blocks more nodes,
   so this holds on directed graphs too.

The distance-ordered neighbor lists and the nodes that cannot reach the
terminal at all depend only on (CostMatrix, terminal), so they are built on
first use and kept on the matrix.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .fuzzycost import CostMatrix


class NoPathError(RuntimeError):
    """Exhaustive decode found no source -> terminal path."""


class BrokenPathError(RuntimeError):
    """A hop in the path has no defined cost."""


# Node states of the checked walk. A check visiting node x stamps it with the
# check's number, so one comparison against the current stamp skips visited
# and blocked (on the walk, or dead) nodes alike.
_FREE = 0
_WITNESS = -1
_BLOCKED = sys.maxsize


@dataclass(frozen=True)
class Path:
    nodes: tuple[int, ...]
    cost: float

    def __len__(self) -> int:
        return len(self.nodes)


def random_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Fresh random-keys genome: n priorities uniform on [0, 1)."""
    return rng.random(n)


def _guide(cm: CostMatrix, terminal: int) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """Out-neighbors nearest the terminal first, and the walk's initial states.

    Nodes with no route to the terminal start blocked and are left out of
    the neighbor lists; the terminal starts as the whole witness route.
    """
    memo_key = ("decode_guide", terminal)
    guide = cm.memo.get(memo_key)
    if guide is None:
        dist = [-1] * cm.n
        dist[terminal] = 0
        frontier = [terminal]
        while frontier:
            grown = []
            for w in frontier:
                for u in cm.in_neighbors[w]:
                    if dist[u] < 0:
                        dist[u] = dist[w] + 1
                        grown.append(u)
            frontier = grown
        toward = tuple(
            tuple(sorted((u for u in nb if dist[u] >= 0), key=dist.__getitem__))
            for nb in cm.neighbors
        )
        states = [_FREE if d >= 0 else _BLOCKED for d in dist]
        states[terminal] = _WITNESS
        guide = cm.memo[memo_key] = (toward, states)
    return guide


def _probe(key_list: list[float], cm: CostMatrix, source: int, terminal: int) -> tuple[int, ...] | None:
    """Greedy highest-key walk; None when it runs into a dead end."""
    out_nb = cm.neighbors
    on_path = bytearray(cm.n)
    on_path[source] = 1
    path = [source]
    v = source
    while v != terminal:
        best = -1
        best_key = -math.inf
        for u in out_nb[v]:
            if not on_path[u] and key_list[u] > best_key:
                best = u
                best_key = key_list[u]
        if best < 0:
            return None
        on_path[best] = 1
        path.append(best)
        v = best
    return tuple(path)


def _check(u: int, stamp: int, state: list[int], toward) -> list[int] | None:
    """Route from u to the witness route over free nodes, nearest-first.

    On failure every node the search visited is marked dead and None is
    returned.
    """
    state[u] = stamp
    route = [u]
    visited = [u]
    iters = [iter(toward[u])]
    while iters:
        for x in iters[-1]:
            s = state[x]
            if s >= stamp:
                continue
            if s == _WITNESS:
                route.append(x)
                return route
            state[x] = stamp
            visited.append(x)
            route.append(x)
            iters.append(iter(toward[x]))
            break
        else:
            iters.pop()
            route.pop()
    for x in visited:
        state[x] = _BLOCKED
    return None


def _walk_checked(key_list: list[float], cm: CostMatrix, source: int, terminal: int) -> tuple[int, ...]:
    """Greedy walk that takes a candidate only once a check shows it viable."""
    toward, initial = _guide(cm, terminal)
    out_nb = cm.neighbors
    state = initial.copy()
    state[source] = _BLOCKED
    # next-pointers of the witness route, which runs from the walk's head to
    # the terminal; before the first check it is the terminal alone
    succ = [terminal] * cm.n
    stamp = 0
    path = [source]
    v = source
    while v != terminal:
        while True:
            best = -1
            best_key = -math.inf
            for u in out_nb[v]:
                if state[u] != _BLOCKED and key_list[u] > best_key:
                    best = u
                    best_key = key_list[u]
            if best < 0:
                raise NoPathError(f"no path from {source} to {terminal}")
            if state[best] == _WITNESS:
                route = [best]
                break
            stamp += 1
            route = _check(best, stamp, state, toward)
            if route is not None:
                break
        # splice: the route joins the witness at its last node; the old
        # witness stretch it bypasses is free again
        joint = route[-1]
        x = succ[v]
        while x != joint:
            state[x] = _FREE
            x = succ[x]
        for a, b in zip(route, route[1:]):
            succ[a] = b
            state[a] = _WITNESS
        v = route[0]
        state[v] = _BLOCKED
        path.append(v)
    return tuple(path)


def decode(keys: np.ndarray, cm: CostMatrix, source: int, terminal: int) -> tuple[int, ...]:
    """Decode a key vector to a loop-free node sequence.

    The search is exhaustive over simple paths in priority order, so it fails
    only when the terminal is unreachable.
    """
    n = cm.n
    if len(keys) != n:
        raise ValueError(f"key vector length {len(keys)} != node count {n}")
    if not (0 <= source < n and 0 <= terminal < n):
        raise ValueError(f"source {source} or terminal {terminal} out of range")
    if source == terminal:
        raise ValueError("source and terminal must differ")
    key_list = keys.tolist()
    return _probe(key_list, cm, source, terminal) or _walk_checked(key_list, cm, source, terminal)


def path_cost(nodes: tuple[int, ...], cm: CostMatrix) -> float:
    """Sum of hop costs, added left to right in hop order."""
    hops = cm.values[nodes[:-1], nodes[1:]].tolist()
    total = 0.0
    for src, dst, v in zip(nodes, nodes[1:], hops):
        if not math.isfinite(v):
            raise BrokenPathError(f"hop {src} -> {dst} has no defined cost")
        total += v
    return total


def decode_path(keys: np.ndarray, cm: CostMatrix, source: int, terminal: int) -> Path:
    nodes = decode(keys, cm, source, terminal)
    return Path(nodes, path_cost(nodes, cm))
