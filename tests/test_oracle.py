"""Exact baseline: label-setting search, brute-force cross-check, percent error."""

import gc
import heapq
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshroute import oracle
from meshroute.fuzzycost import CostMatrix, build_cost_matrix
from meshroute.oracle import (
    UnreachableError,
    brute_force_shortest,
    percent_error,
    shortest_path,
)
from meshroute.pathcodec import Path, path_cost
from meshroute.topology import generate_scenario

from helpers import clustered_links, dense_costs, forward_shortest_path, from_entries, out_neighbors

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
# sums of these round (0.1 + 0.2 != 0.3), and a route's forward and backward
# sums can differ in their last bits, which the two-sided search's slack covers
ROUNDING_COSTS = (0.1, 0.2, 0.3, 0.7)
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
        return Path((source,), 0.0)
    values = dense_costs(cm)
    settled = bytearray(n)
    heap = [(0.0, (source,))]
    while heap:
        cost, nodes = heapq.heappop(heap)
        v = nodes[-1]
        if settled[v]:
            continue
        if v == terminal:
            return Path(nodes, cost)
        settled[v] = 1
        for u in out_neighbors(cm, v):
            if not settled[u]:
                heapq.heappush(heap, (cost + float(values[v, u]), nodes + (u,)))
    raise UnreachableError(f"node {terminal} unreachable from {source}")


def fresh(cm):
    """A matrix with cm's links that the oracle has not seen, so that its
    next query is a first query, which runs one-sided."""
    return CostMatrix(cm.indptr, cm.adjacency, cm.values, cm.links)


def answer(search, cm, source, terminal):
    """The search's route as its nodes and the bits of its cost, or the
    message of its UnreachableError."""
    try:
        path = search(cm, source, terminal)
    except UnreachableError as error:
        return str(error)
    return path.nodes, path.cost.hex()


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
    assert r == Path((1,), 0.0)


def test_out_of_range_endpoint():
    # the search and its brute-force cross-check refuse the same endpoints
    # with the same error
    cm = from_entries(2, {(0, 1): 0.5})
    for source, terminal in [(0, 2), (2, 0), (-1, 1), (0, 1.0), (0.5, 1), (True, 1), (0, False)]:
        message = f"source {source!r} or terminal {terminal!r} is not a node id in 0..1"
        for search in (shortest_path, brute_force_shortest):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                search(cm, source, terminal)


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
    expected = Path((0, 1, 2, 3), 1.0)
    assert shortest_path(cm, 0, 3) == expected
    assert reference_shortest_path(cm, 0, 3) == expected
    assert brute_force_shortest(cm, 0, 3) == expected


def test_equal_offer_keeps_or_replaces_label_by_whole_route():
    # the smaller route's parent 1 settles first: the later offer from 3 is dropped
    keep = from_entries(4, {(0, 1): 0.25, (1, 2): 0.5, (0, 3): 0.5, (3, 2): 0.25})
    assert shortest_path(keep, 0, 2) == Path((0, 1, 2), 0.75)
    # the smaller route's parent 1 settles last: its equal offer replaces the label
    swap = from_entries(4, {(0, 3): 0.25, (3, 2): 0.5, (0, 1): 0.5, (1, 2): 0.25})
    assert shortest_path(swap, 0, 2) == Path((0, 1, 2), 0.75)


@pytest.mark.parametrize(
    "n, placement, seed, pairs",
    [(n, placement, seed, pairs) for n, placement, seeds, pairs in GOLDEN_CASES for seed in seeds],
)
def test_matches_reference_on_scenarios(n, placement, seed, pairs):
    # every query is asked on a fresh copy of the matrix (one-sided), then
    # twice over on one matrix: in the first round only the first query is
    # that matrix's first, and in the second round every query is two-sided
    cm = build_cost_matrix(generate_scenario(n, placement=placement, seed=seed))
    rng = np.random.default_rng(seed)
    queries = [(0, n - 1)] + [tuple(int(x) for x in rng.integers(0, n, 2)) for _ in range(pairs)]
    want = {}
    for source, terminal in queries:
        assert outcome(forward_shortest_path, cm, source, terminal) == outcome(
            reference_shortest_path, cm, source, terminal
        ), (source, terminal)
        want[source, terminal] = answer(forward_shortest_path, cm, source, terminal)
        assert answer(shortest_path, fresh(cm), source, terminal) == want[source, terminal], (source, terminal)
    for _ in range(2):
        for source, terminal in queries:
            assert answer(shortest_path, cm, source, terminal) == want[source, terminal], (source, terminal)


@st.composite
def tie_digraph_case(draw):
    """A digraph of at most 30 nodes in one-way-linked clusters
    (helpers.clustered_links), with costs from TIE_COSTS, which force many
    equal-cost routes, or from ROUNDING_COSTS, whose sums round, and two
    random endpoints, which may be equal or unreachable from one another."""
    n = draw(st.integers(min_value=2, max_value=30))
    pairs = clustered_links(draw, n)
    values = draw(st.sampled_from((TIE_COSTS, ROUNDING_COSTS)))
    costs = draw(st.lists(st.sampled_from(values), min_size=len(pairs), max_size=len(pairs)))
    node = st.integers(min_value=0, max_value=n - 1)
    return from_entries(n, dict(zip(pairs, costs))), draw(node), draw(node)


@given(tie_digraph_case())
@settings(max_examples=400, deadline=None)
def test_two_sided_search_matches_forward_search(case):
    # the matrix is fresh, so the first query runs one-sided and the second
    # two-sided; both equal the forward search in nodes and cost bits, or
    # raise its UnreachableError with its message
    cm, source, terminal = case
    want = answer(forward_shortest_path, cm, source, terminal)
    assert answer(shortest_path, cm, source, terminal) == want
    assert answer(shortest_path, cm, source, terminal) == want


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


def test_non_positive_link_is_refused_on_every_query():
    # the source never reaches the bad link 2 -> 3, so the forward search
    # alone returns a route; the matrix is refused on its first query and
    # on every later one, a trivial query included
    cm = from_entries(4, {(0, 1): 0.5, (2, 3): -1.0, (3, 2): 0.25})
    assert forward_shortest_path(cm, 0, 1) == Path((0, 1), 0.5)
    message = "link 2 -> 3 costs -1.0; the oracle needs positive costs"
    for source, terminal in [(0, 1), (0, 1), (1, 1), (2, 3)]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            shortest_path(cm, source, terminal)


def test_in_links_are_kept_from_the_second_query_while_the_matrix_lives():
    cm = from_entries(3, {(0, 1): 0.5, (1, 2): 0.25, (0, 2): 1.0})
    shortest_path(cm, 0, 2)
    assert oracle._IN_LINKS[cm] is None
    assert shortest_path(cm, 0, 2) == Path((0, 1, 2), 0.75)
    assert oracle._IN_LINKS[cm] == [[], [(0, 0.5)], [(0, 1.0), (1, 0.25)]]
    # the oracle holds cm weakly: once the caller drops it, it is gone
    matrix = weakref.ref(cm)
    del cm
    gc.collect()
    assert matrix() is None


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
