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
zero (a matrix's first query refuses it otherwise), so a node settled at
cost c only offers costs above c to others, and the order in which nodes of
equal cost settle cannot change any route. For the same reason a settled
node's predecessor never changes.

Two-sided search. From a matrix's second query on, a backward search from
the terminal over the matrix's in-links runs beside the forward one (Pohl
1971, bi-directional search). One loop runs both, and its forward step is
the same throughout: it skips a relaxation into u at cost c when
c + lb(u) > bound. Here lb(u) = min(back[u], top) is u's backward label if
the backward search settled u and the backward heap top otherwise, either
way a lower bound on u's backward distance to the terminal; bound is
mu * (1 + n * 2**-48), and mu the cheapest source -> terminal cost seen
where the two searches touch. The loop has two phases:

1. Each step grows the side whose heap top is lower, ties to the forward
   side. mu falls whenever the two labels of a node sum to less: when the
   backward side labels a node the forward side has labelled, and when
   the forward side is about to pop a node the backward side has labelled.
   Each time mu falls the bound follows it, so the skip test prunes from
   the first step on. The phase ends, and the backward heap is dropped,
   when the two heap tops sum to at least mu. If the backward side runs dry
   first, the phase ends there and top becomes infinite.
2. The forward search carries on alone, with mu, top and the bound held.

Why it stays exact. The forward search is the one-sided search with some
relaxations left out: it pops by (cost, node), with the same stale-entry
test and the same whole-route tie rule. Call a source -> terminal route
cheapest if no route's float sum, added left to right, is lower; the
returned route is one. A label ends up set by offers of the node's final
cost only, and if v offers u its final cost, route(v) + [u] continued as a
cheapest route continues from u is cheapest too, since both continue with
the same float additions. So on the nodes of cheapest routes every label,
and every tie the rule compares, comes from offers along cheapest routes.
If none of those is skipped, those nodes settle in the same order with the
same labels, and neither the route nor the bits of its cost can change.
None is skipped. Let c be the offer to u along a cheapest route. c is the
float sum of the route's first part and lb(u) at most the backward
search's float sum of its second part, each at most n - 1 positive costs;
mu is the float sum of two such sums along some source -> terminal walk. A
float sum of k positive terms is within a relative k * 2**-53 of the exact
sum (to first order), and a cheapest route's exact cost within twice that
of the least exact cost, so c + lb(u) exceeds mu by a relative 4n * 2**-53
at most, which the slack n * 2**-48 = 32n * 2**-53 covers. That holds at
any moment, whatever mu is then, so the bound may fall during phase 1: any
mu is the float sum of a real walk, and min(back[u], top) is a lower bound
whenever it is read, since back[u] only falls and the backward search sets
no label below its heap top. While mu is infinite the bound is too, and
nothing is skipped.

Why the first query is one-sided. Building the in-links costs about 0.6 of
a whole forward search (1.07 against 1.79 ms at grid 2500, 0.032 against
0.053 ms at grid 100, on a 2-CPU shared host), so a matrix asked once, as
in every solve and bench cell, never pays it back. The first query
therefore runs the same loop with the backward heap empty: it starts in
phase 2, with mu, top and the bound infinite, and skips nothing. It also
checks every cost once and refuses the matrix, naming its first link in
row-major order, if one is not positive; so each query on a matrix obeys
one rule, however many came before. The in-links are built on the second
query and kept, beside the matrix and no longer than it lives, in a
weak-key dictionary.
"""

from __future__ import annotations

import heapq
import math
import weakref

from .fuzzycost import CostMatrix
from .pathcodec import Path, check_endpoints

# per queried matrix: None after its first query, then its in-links
_IN_LINKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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


def _in_links(cm: CostMatrix):
    """None on cm's first query, after refusing cm if a link costs zero or
    less; from the second query on, each node's in-links as (tail, cost)
    pairs, tails ascending, built from cm.links once."""
    into = _IN_LINKS.get(cm, False)
    if into is False:
        bad = (cm.values <= 0.0).nonzero()[0]
        if len(bad):
            i = int(bad[0])
            v = int(cm.indptr.searchsorted(i, side="right")) - 1
            u, w = int(cm.adjacency[i]), float(cm.values[i])
            raise ValueError(f"link {v} -> {u} costs {w}; the oracle needs positive costs")
        _IN_LINKS[cm] = None
        return None
    if into is None:
        into = [[] for _ in range(cm.n)]
        for v, out in enumerate(cm.links):
            for u, w in out:
                into[u].append((v, w))
        _IN_LINKS[cm] = into
    return into


def shortest_path(cm: CostMatrix, source: int, terminal: int) -> Path:
    """Minimum-cost path by Dijkstra with predecessor labels; link costs must be positive.

    Among equal-cost paths the lexicographically smallest node sequence wins
    (see the module docstring). The cost is added left to right along the
    returned path, so it equals `path_cost` of that path exactly. A matrix
    with a link that costs zero or less raises ValueError on every query,
    so the search always ends; fuzzy costs are at least ILC_FLOOR. From a
    matrix's second query on, a backward search from the terminal bounds
    the forward one, with the same result (see the module docstring).
    """
    n = cm.n
    source, terminal = check_endpoints(n, source, terminal)
    into = _in_links(cm)
    if source == terminal:
        return Path((source,), 0.0)
    links = cm.links
    dist = [math.inf] * n
    back = [math.inf] * n  # backward labels, which a first query leaves infinite
    pred = [-1] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    pop, push = heapq.heappop, heapq.heappush
    mu = bound = top = math.inf
    slack = 1.0 + n * 2.0**-48
    back_heap = ()  # empty on a first query and once phase 1 ends
    if into is not None:
        back[terminal] = 0.0
        back_heap = [(0.0, terminal)]
    while heap:
        if back_heap:
            # phase 1: grow the side whose heap top is lower, ties to the forward side
            cost, v = heap[0]
            top = back_heap[0][0]
            if cost + top >= mu:
                back_heap = ()  # phase 2: the forward side alone, top held
            elif cost > top:
                top, v = pop(back_heap)
                if top <= back[v]:  # else stale
                    for u, w in into[v]:
                        c = top + w
                        if c < back[u]:
                            back[u] = c
                            push(back_heap, (c, u))
                            c += dist[u]
                            if c < mu:
                                mu = c
                                bound = mu * slack
                if not back_heap:
                    top = math.inf  # the backward side ran dry
                continue
            elif cost + back[v] < mu:
                mu = cost + back[v]
                bound = mu * slack
        cost, v = pop(heap)
        if cost > dist[v]:
            continue  # stale: v was pushed again at a lower cost
        if v == terminal:
            return Path(tuple(_route(pred, v)), cost)
        for u, w in links[v]:
            c = cost + w
            d = dist[u]
            if c > d or c + top > bound and c + back[u] > bound:
                continue  # c + lb(u) > bound: no cheapest route reaches u at cost c
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
