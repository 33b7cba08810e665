"""Exact baseline: label-setting search, brute-force cross-check, percent error."""

import heapq

import numpy as np
import pytest

from meshroute.fuzzycost import build_cost_matrix
from meshroute.oracle import (
    OracleResult,
    UnreachableError,
    brute_force_shortest,
    percent_error,
    shortest_path,
)
from meshroute.pathcodec import path_cost
from meshroute.topology import generate_scenario

from helpers import dense_costs, from_entries, out_neighbors

CAMPAIGN_GRAPHS = 150
CAMPAIGN_SEED = 2024

# (nodes, placement, scenario seeds, random query pairs per scenario) on which
# the oracle must return exactly what the reference search returns
GOLDEN_CASES = [
    (25, "grid", (42, 101), 40),
    (100, "grid", (101, 102), 60),
    (400, "grid", (101,), 60),
    (100, "random", (5, 101), 60),
    (400, "random", (101,), 60),
    (2500, "grid", (101,), 200),
]
TIE_COSTS = (0.25, 0.5, 0.75, 1.0)
TIE_GRAPHS = 3000
TIE_SEED = 5150


def reference_shortest_path(cm, source, terminal):
    """Dijkstra whose heap entries carry the whole path tuple.

    Among equal costs the heap orders by node sequence, so the first settle
    of a node is via its lexicographically smallest cheapest path.
    """
    n = cm.n
    if not (0 <= source < n and 0 <= terminal < n):
        raise ValueError(f"source {source} or terminal {terminal} out of range")
    if source == terminal:
        return OracleResult((source,), 0.0)
    values = dense_costs(cm)
    settled = bytearray(n)
    heap = [(0.0, (source,))]
    while heap:
        cost, nodes = heapq.heappop(heap)
        v = nodes[-1]
        if settled[v]:
            continue
        if v == terminal:
            return OracleResult(nodes, cost)
        settled[v] = 1
        for u in out_neighbors(cm, v):
            if not settled[u]:
                heapq.heappush(heap, (cost + float(values[v, u]), nodes + (u,)))
    raise UnreachableError(f"node {terminal} unreachable from {source}")


def outcome(search, cm, source, terminal):
    """The search's result, or None when it raises UnreachableError."""
    try:
        return search(cm, source, terminal)
    except UnreachableError:
        return None


def random_cm(rng, n, p):
    entries = {
        (i, j): float(rng.uniform(0.05, 1.0))
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < p
    }
    return from_entries(n, entries)


def test_single_link():
    cm = from_entries(2, {(0, 1): 0.42})
    r = shortest_path(cm, 0, 1)
    assert r.nodes == (0, 1)
    assert r.cost == pytest.approx(0.42)


def test_two_hop_beats_direct():
    cm = from_entries(3, {(0, 2): 0.9, (0, 1): 0.3, (1, 2): 0.3})
    r = shortest_path(cm, 0, 2)
    assert r.nodes == (0, 1, 2)
    assert r.cost == pytest.approx(0.6)


def test_unreachable():
    cm = from_entries(3, {(0, 1): 0.5})
    with pytest.raises(UnreachableError):
        shortest_path(cm, 0, 2)
    with pytest.raises(UnreachableError):
        brute_force_shortest(cm, 0, 2)


def test_source_equals_terminal_is_trivial():
    cm = from_entries(2, {(0, 1): 0.5})
    r = shortest_path(cm, 1, 1)
    assert r == OracleResult((1,), 0.0)


def test_out_of_range_endpoint():
    cm = from_entries(2, {(0, 1): 0.5})
    with pytest.raises(ValueError):
        shortest_path(cm, 0, 2)


def test_lexicographic_tie_break():
    cm = from_entries(
        4, {(0, 1): 0.5, (0, 2): 0.5, (1, 3): 0.5, (2, 3): 0.5}
    )
    assert shortest_path(cm, 0, 3).nodes == (0, 1, 3)
    assert brute_force_shortest(cm, 0, 3).nodes == (0, 1, 3)


def test_tie_compares_whole_routes_not_parents():
    # both routes to 3 cost 1.0; the parent route (0, 1) is a prefix of
    # (0, 1, 2), yet (0, 1, 2, 3) < (0, 1, 3)
    cm = from_entries(4, {(0, 1): 0.5, (1, 3): 0.5, (1, 2): 0.25, (2, 3): 0.25})
    expected = OracleResult((0, 1, 2, 3), 1.0)
    assert shortest_path(cm, 0, 3) == expected
    assert reference_shortest_path(cm, 0, 3) == expected
    assert brute_force_shortest(cm, 0, 3) == expected


def test_equal_offer_keeps_or_replaces_label_by_whole_route():
    # the smaller route's parent 1 settles first: the later offer from 3 is dropped
    keep = from_entries(4, {(0, 1): 0.25, (1, 2): 0.5, (0, 3): 0.5, (3, 2): 0.25})
    assert shortest_path(keep, 0, 2) == OracleResult((0, 1, 2), 0.75)
    # the smaller route's parent 1 settles last: its equal offer replaces the label
    swap = from_entries(4, {(0, 3): 0.25, (3, 2): 0.5, (0, 1): 0.5, (1, 2): 0.25})
    assert shortest_path(swap, 0, 2) == OracleResult((0, 1, 2), 0.75)


@pytest.mark.parametrize(
    "n, placement, seed, pairs",
    [(n, placement, seed, pairs) for n, placement, seeds, pairs in GOLDEN_CASES for seed in seeds],
)
def test_matches_reference_on_scenarios(n, placement, seed, pairs):
    cm = build_cost_matrix(generate_scenario(n, placement=placement, seed=seed))
    rng = np.random.default_rng(seed)
    queries = [(0, n - 1)] + [tuple(int(x) for x in rng.integers(0, n, 2)) for _ in range(pairs)]
    for source, terminal in queries:
        assert outcome(shortest_path, cm, source, terminal) == outcome(
            reference_shortest_path, cm, source, terminal
        ), (source, terminal)


def test_matches_reference_and_brute_force_on_ties():
    # costs from four values force many equal-cost routes
    rng = np.random.default_rng(TIE_SEED)
    unreachable = 0
    for _ in range(TIE_GRAPHS):
        n = int(rng.integers(2, 9))
        p = float(rng.choice([0.25, 0.4, 0.6]))
        entries = {
            (i, j): float(rng.choice(TIE_COSTS))
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < p
        }
        cm = from_entries(n, entries)
        for terminal in range(1, n):
            fast = outcome(shortest_path, cm, 0, terminal)
            assert fast == outcome(reference_shortest_path, cm, 0, terminal), (entries, terminal)
            assert fast == outcome(brute_force_shortest, cm, 0, terminal), (entries, terminal)
            unreachable += fast is None
    assert unreachable > 0


def test_non_positive_link_raises_instead_of_looping():
    # a zero-cost link out of the source, and a negative link that would
    # lower a label (the old search returned an answer for both)
    zero = from_entries(3, {(0, 1): 0.0, (1, 0): 0.0, (1, 2): 0.5})
    with pytest.raises(ValueError, match="link 0 -> 1 costs 0.0"):
        shortest_path(zero, 0, 2)
    cycle = from_entries(3, {(0, 1): 0.5, (1, 2): -1.0, (2, 1): 0.25})
    with pytest.raises(ValueError, match="link 1 -> 2 costs -1.0"):
        shortest_path(cycle, 0, 2)


def test_returned_cost_matches_path(grid25):
    _, cm, oracle = grid25
    assert oracle.cost == pytest.approx(path_cost(oracle.nodes, cm), abs=1e-12)


def test_brute_force_size_limit():
    cm = random_cm(np.random.default_rng(0), 13, 0.3)
    with pytest.raises(ValueError):
        brute_force_shortest(cm, 0, 12)


def test_brute_force_agreement_campaign():
    rng = np.random.default_rng(CAMPAIGN_SEED)
    disagreements = 0
    for _ in range(CAMPAIGN_GRAPHS):
        n = int(rng.integers(2, 9))
        cm = random_cm(rng, n, float(rng.choice([0.2, 0.35, 0.5])))
        try:
            fast = shortest_path(cm, 0, n - 1)
        except UnreachableError:
            fast = None
        try:
            slow = brute_force_shortest(cm, 0, n - 1)
        except UnreachableError:
            slow = None
        if fast is None or slow is None:
            if fast is not slow:
                disagreements += 1
            continue
        if fast.nodes != slow.nodes or abs(fast.cost - slow.cost) > 1e-9:
            disagreements += 1
    assert disagreements == 0


def test_subpath_optimality():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(4, 10))
        cm = random_cm(rng, n, 0.4)
        try:
            r = shortest_path(cm, 0, n - 1)
        except UnreachableError:
            continue
        for cut in range(1, len(r.nodes)):
            prefix = r.nodes[: cut + 1]
            sub = shortest_path(cm, 0, prefix[-1])
            # positive weights: any prefix of an optimal path is itself optimal
            assert sub.cost == pytest.approx(path_cost(prefix, cm), abs=1e-9)


def test_percent_error_zero():
    assert percent_error(0.5, 0.5) == 0.0


@pytest.mark.parametrize(
    "found,optimal,expected",
    [(0.8790, 0.8672, 1.36), (0.7442, 0.7232, 2.90)],
)
def test_percent_error_values(found, optimal, expected):
    assert percent_error(found, optimal) == pytest.approx(expected, abs=0.01)


def test_percent_error_preconditions():
    with pytest.raises(ValueError):
        percent_error(0.5, 0.0)
    with pytest.raises(ValueError):
        percent_error(0.4, 0.5)
