"""Random-keys decoding against reference searches, and path costing."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshroute import bbbc, bbo
from meshroute.bbbc import run_bbbc
from meshroute.bbo import run_bbo
from meshroute.bench import ALGORITHMS
from meshroute.fuzzycost import build_cost_matrix
from meshroute.oracle import brute_force_shortest, shortest_path
from meshroute.pathcodec import (
    BrokenPathError,
    NoPathError,
    Path,
    decode_path,
    path_cost,
    reachable_submatrix,
)
from meshroute.results import RunParams
from meshroute.topology import generate_scenario

from helpers import (
    OPTIMIZER_GOLDEN_CASES,
    clustered_links,
    dense_adjacency,
    dense_costs,
    from_entries,
    link_cost,
    out_neighbors,
    scenario_cost_matrix,
)


def cm_of(n, pairs):
    return from_entries(n, {p: 0.1 for p in pairs})


def reference_dfs(key_list, cm, source, terminal):
    """Priority-ordered DFS with backtracking and no work bound.

    The definition of a decode; exponential in the worst case, so it serves
    as the reference on small graphs only.
    """
    on_path = bytearray(cm.n)
    on_path[source] = 1
    path = [source]
    # sorted() is stable and out-neighbors ascend by id, so equal keys keep
    # ascending id
    iters = [iter(sorted(out_neighbors(cm, source), key=key_list.__getitem__, reverse=True))]
    while iters:
        for nxt in iters[-1]:
            if on_path[nxt]:
                continue
            if nxt == terminal:
                return tuple(path) + (terminal,)
            on_path[nxt] = 1
            path.append(nxt)
            iters.append(iter(sorted(out_neighbors(cm, nxt), key=key_list.__getitem__, reverse=True)))
            break
        else:
            iters.pop()
            on_path[path.pop()] = 0
    raise NoPathError(f"no path from {source} to {terminal}")


def reference_walk(key_list, cm, source, terminal):
    """Highest-key step into a node that still reaches the terminal.

    Which nodes reach the terminal without touching the walk is rebuilt by a
    backward breadth-first search before every step: slow but simple, and
    polynomial, so it serves as the reference on large graphs.
    """
    adjacency = dense_adjacency(cm)
    in_neighbors = [np.nonzero(adjacency[:, w])[0].tolist() for w in range(cm.n)]
    path = [source]
    on_path = {source}
    while path[-1] != terminal:
        alive = {terminal}
        frontier = [terminal]
        while frontier:
            grown = {u for w in frontier for u in in_neighbors[w]} - alive - on_path
            alive |= grown
            frontier = list(grown)
        options = [u for u in out_neighbors(cm, path[-1]) if u in alive]
        if not options:
            raise NoPathError(f"no path from {source} to {terminal}")
        # max() keeps the first of equal keys, and neighbors ascend by id
        step = max(options, key=key_list.__getitem__)
        path.append(step)
        on_path.add(step)
    return tuple(path)


def decode_nodes(keys, cm, source, terminal):
    return decode_path(keys, cm, source, terminal).nodes


def decode_or_none(decoder, *args):
    try:
        return decoder(*args)
    except NoPathError:
        return None


def clique_trap(with_exit=True):
    """Source feeds a 7-clique of dead ends; the only exit is via node 8.

    Exhaustive DFS burns through every clique permutation before touching the
    low-key exit.
    """
    pairs = [(0, v) for v in range(1, 8)]
    pairs += [(u, v) for u in range(1, 8) for v in range(1, 8) if u != v]
    if with_exit:
        pairs += [(0, 8), (8, 9)]
    keys = np.array([0.5, 0.99, 0.98, 0.97, 0.96, 0.95, 0.94, 0.93, 0.01, 0.02])
    return cm_of(10, pairs), keys


def test_line_unique_path(line3_cm):
    for seed in range(5):
        keys = np.random.default_rng(seed).random(3)
        assert decode_path(keys, line3_cm, 0, 2).nodes == (0, 1, 2)


def test_diamond_prefers_higher_key(diamond_cm):
    keys = np.array([0.5, 0.9, 0.1, 0.0])
    assert decode_path(keys, diamond_cm, 0, 3).nodes == (0, 1, 3)
    keys = np.array([0.5, 0.1, 0.9, 0.0])
    assert decode_path(keys, diamond_cm, 0, 3).nodes == (0, 2, 3)


def test_backtracks_out_of_dead_end():
    # node 1 carries the top key but is a dead end; node 2 reaches terminal
    cm = cm_of(4, [(0, 1), (0, 2), (2, 3)])
    keys = np.array([0.5, 0.9, 0.1, 0.3])
    assert decode_path(keys, cm, 0, 3).nodes == (0, 2, 3)


def test_equal_keys_tie_break_ascending_id(diamond_cm):
    keys = np.array([0.5, 0.4, 0.4, 0.0])
    assert decode_path(keys, diamond_cm, 0, 3).nodes == (0, 1, 3)


def test_decode_validates_arguments(line3_cm):
    with pytest.raises(ValueError):
        decode_path(np.zeros(2), line3_cm, 0, 2).nodes
    with pytest.raises(ValueError):
        decode_path(np.zeros(3), line3_cm, 0, 3).nodes
    with pytest.raises(ValueError):
        decode_path(np.zeros(3), line3_cm, 1, 1).nodes


def test_no_path_raises():
    cm = cm_of(3, [(0, 1)])
    with pytest.raises(NoPathError):
        decode_path(np.array([0.1, 0.2, 0.3]), cm, 0, 2).nodes


def test_nan_key_that_blocks_the_path_is_named(line3_cm):
    with pytest.raises(ValueError, match="key 1 is not finite: nan"):
        decode_path(np.array([0.5, np.nan, 0.5]), line3_cm, 0, 2).nodes


def test_minus_inf_key_that_blocks_the_path_is_named(line3_cm):
    with pytest.raises(ValueError, match="key 1 is not finite: -inf"):
        decode_path(np.array([0.5, -np.inf, 0.5]), line3_cm, 0, 2).nodes


def test_plus_inf_key_wins_and_nan_or_minus_inf_never_does():
    # from 0 either neighbor leads to terminal 2: through 1 when its key
    # wins, or straight to 2
    cm = cm_of(3, [(0, 1), (0, 2), (1, 2), (2, 1)])
    assert decode_path(np.array([0.5, np.inf, 0.1]), cm, 0, 2).nodes == (0, 1, 2)
    for bad in (np.nan, -np.inf):
        assert decode_path(np.array([0.5, bad, 0.0]), cm, 0, 2).nodes == (0, 2)


def test_decode_escapes_clique_trap():
    cm, keys = clique_trap(with_exit=True)
    assert decode_path(keys, cm, 0, 9).nodes == (0, 8, 9)
    # the reference search agrees once it exhausts the clique
    assert reference_dfs(keys.tolist(), cm, 0, 9) == (0, 8, 9)


def test_clique_trap_without_exit_raises_no_path():
    cm, keys = clique_trap(with_exit=False)
    with pytest.raises(NoPathError):
        decode_path(keys, cm, 0, 9).nodes


def test_decode_deterministic(grid25):
    _, cm, _ = grid25
    keys = np.random.default_rng(7).random(cm.n)
    assert decode_path(keys, cm, 0, 24).nodes == decode_path(keys.copy(), cm, 0, 24).nodes


def test_decode_totality_on_grid(grid25):
    _, cm, _ = grid25
    rng = np.random.default_rng(123)
    for _ in range(100):
        p = decode_path(rng.random(cm.n), cm, 0, 24)
        assert p.nodes[0] == 0 and p.nodes[-1] == 24
        assert len(set(p.nodes)) == len(p.nodes)
        hop_sum = sum(link_cost(cm, a, b) for a, b in zip(p.nodes, p.nodes[1:]))
        assert p.cost == pytest.approx(hop_sum, abs=1e-12)
        assert len(p) == len(p.nodes)


@st.composite
def digraph_and_keys(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    keys = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    edges = [p for p, keep in zip(pairs, mask) if keep]
    return n, edges, keys


@given(digraph_and_keys())
@settings(max_examples=300, deadline=None)
def test_decode_matches_uncapped_dfs(case):
    n, edges, keys = case
    cm = cm_of(n, edges)
    reference = decode_or_none(reference_dfs, list(keys), cm, 0, n - 1)
    assert decode_or_none(decode_nodes, np.array(keys), cm, 0, n - 1) == reference
    # the large-graph reference below is checked against the definition here
    assert decode_or_none(reference_walk, list(keys), cm, 0, n - 1) == reference


@given(
    digraph_and_keys(),
    # one cost per link a 9-node digraph can have
    st.lists(st.floats(min_value=-1e16, max_value=1e16), min_size=72, max_size=72),
)
@settings(max_examples=300, deadline=None)
def test_decode_path_cost_is_path_cost_of_its_nodes(case, costs):
    # costs of mixed sign and far-apart magnitudes, on which another summation
    # order or a compensated sum rounds differently
    n, edges, keys = case
    cm = from_entries(n, dict(zip(edges, costs)))
    keys = np.array(keys)
    try:
        got = decode_path(keys, cm, 0, n - 1)
    except NoPathError:
        return
    nodes = decode_path(keys, cm, 0, n - 1).nodes
    assert got.nodes == nodes
    assert got.cost == path_cost(nodes, cm) and type(got.cost) is float


def perturbed_genomes(rng, n, count):
    """Fresh genomes, and offspring of one genome clipped to [0, 1] the way
    BB-BC makes them, which puts many equal keys at 0 and 1."""
    center = rng.random(n)
    genomes = []
    for i in range(count):
        if i % 2:
            genomes.append(rng.random(n))
        else:
            spread = 0.05 + 0.5 * i / count
            genomes.append(np.clip(center + spread * rng.standard_normal(n), 0.0, 1.0))
    return genomes


@pytest.mark.parametrize("n, placement", [(100, "grid"), (400, "random")])
def test_decode_matches_reference_walk_on_large_scenarios(n, placement):
    cm = build_cost_matrix(generate_scenario(n, placement=placement, seed=101))
    rng = np.random.default_rng(101)
    for keys in perturbed_genomes(rng, n, 200):
        expected = reference_walk(keys.tolist(), cm, 0, n - 1)
        assert decode_path(keys, cm, 0, n - 1).nodes == expected


def test_decode_matches_reference_walk_on_one_way_links():
    # sparse random digraphs: most links have no reverse, so checks fail
    # often and mark pockets dead
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(10, 40))
        density = 1.5 / n + 2.5 * rng.random() / n
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < density]
        cm = cm_of(n, pairs)
        for _ in range(10):
            keys = np.round(rng.random(n), 1)
            expected = decode_or_none(reference_walk, keys.tolist(), cm, 0, n - 1)
            assert decode_or_none(decode_nodes, keys, cm, 0, n - 1) == expected


def reference_decode_path(keys, cm, source, terminal):
    nodes = reference_walk(keys.tolist(), cm, source, terminal)
    return Path(nodes, path_cost(nodes, cm))


@pytest.mark.parametrize("n", [25, 100])
def test_optimizers_match_reference_decoder(n, monkeypatch):
    # whole runs, every decode of them, against the definition rather than a
    # stored hash, so the check holds under any BLAS
    cm = build_cost_matrix(generate_scenario(n, placement="grid", seed=101))
    runs = [
        lambda: run_bbbc(cm, 0, n - 1, RunParams(max_generations=10, rng_seed=9001)),
        lambda: run_bbo(cm, 0, n - 1, RunParams(max_generations=10, rng_seed=9001)),
    ]
    got = [run() for run in runs]
    monkeypatch.setattr(bbbc, "decode_path", reference_decode_path)
    monkeypatch.setattr(bbo, "decode_path", reference_decode_path)
    for result, run in zip(got, runs):
        expected = run()
        assert result.best_path == expected.best_path
        assert result.best_cost == expected.best_cost
        assert result.trace == expected.trace


def one_way_pocket(exit_link):
    """0 -> 1 -> 2 -> 3 -> 1 is a one-way cycle whose only link out, 3 -> 0,
    goes back to the source; the route to terminal 6 is 0 -> 4 -> 5 -> 6,
    and 4 also has a one-way link into the cycle at 2."""
    pairs = [(0, 1), (1, 2), (2, 3), (3, 1), (3, 0), (0, 4), (4, 2), (4, 5), (5, 6)]
    if exit_link:
        pairs.append((2, 5))
    keys = np.array([0.5, 0.9, 0.8, 0.7, 0.3, 0.2, 0.1])
    return cm_of(7, pairs), keys


def test_one_way_pocket_without_exit():
    # every node of the cycle still reaches the terminal through the source,
    # but none of them does once the walk holds the source
    cm, keys = one_way_pocket(exit_link=False)
    assert decode_path(keys, cm, 0, 6).nodes == (0, 4, 5, 6)
    assert reference_dfs(keys.tolist(), cm, 0, 6) == (0, 4, 5, 6)


def test_one_way_exit_keeps_pocket_viable():
    cm, keys = one_way_pocket(exit_link=True)
    assert decode_path(keys, cm, 0, 6).nodes == (0, 1, 2, 5, 6)
    assert reference_dfs(keys.tolist(), cm, 0, 6) == (0, 1, 2, 5, 6)


class CountingLinks(tuple):
    """Out-link lists that count how often one of them is read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def decode_reads(keys, cm, source, terminal):
    """The decode on a copy of cm, and how many out-link lists it read."""
    links = CountingLinks(cm.links)
    counted = dataclasses.replace(cm, links=links)
    return decode_or_none(decode_nodes, keys, counted, source, terminal), links.reads


def test_decode_reads_each_node_at_most_twice():
    # a node's out-links are read when it is pushed and each time a child
    # pops back to it; each node is pushed at most once and popped at most
    # once, so a decode reads at most 2n lists, where a search that
    # un-visits nodes reads the clique trap's 7! orderings
    cases = [
        (*clique_trap(with_exit=True), 0, 9, (0, 8, 9)),
        (*clique_trap(with_exit=False), 0, 9, None),
        (*one_way_pocket(exit_link=False), 0, 6, (0, 4, 5, 6)),
        (*one_way_pocket(exit_link=True), 0, 6, (0, 1, 2, 5, 6)),
    ]
    for cm, keys, source, terminal, expected in cases:
        path, reads = decode_reads(keys, cm, source, terminal)
        assert path == expected
        assert 0 < reads <= 2 * cm.n
    cm = build_cost_matrix(generate_scenario(400, placement="random", seed=101))
    rng = np.random.default_rng(4)
    for keys in perturbed_genomes(rng, cm.n, 40):
        path, reads = decode_reads(keys, cm, 0, cm.n - 1)
        assert path == decode_path(keys, cm, 0, cm.n - 1).nodes
        assert reads <= 2 * cm.n


def enumerate_simple_paths(cm, source, terminal):
    paths = []

    def walk(node, seen, prefix):
        if node == terminal:
            paths.append(tuple(prefix))
            return
        for nxt in out_neighbors(cm, node):
            if nxt not in seen:
                walk(nxt, seen | {nxt}, prefix + [nxt])

    walk(source, {source}, [source])
    return paths


def keys_selecting(path, n):
    """Rank the path's nodes highest in visit order; everything else lower."""
    keys = np.full(n, 0.0)
    others = [v for v in range(n) if v not in set(path)]
    for i, v in enumerate(others):
        keys[v] = 0.4 - 0.3 * i / max(1, len(others))
    for rank, v in enumerate(path):
        keys[v] = 1.0 - 0.4 * rank / max(1, len(path) - 1)
    return keys


def test_every_simple_path_is_reachable():
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        pairs = [
            (i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.45
        ]
        cm = cm_of(n, pairs)
        for target_path in enumerate_simple_paths(cm, 0, n - 1):
            keys = keys_selecting(target_path, n)
            assert decode_path(keys, cm, 0, n - 1).nodes == target_path


def reference_path_cost(nodes, cm):
    """path_cost as a gather from the dense (n, n) costs, as it was before
    it looked each hop up in cm.links."""
    hops = dense_costs(cm)[nodes[:-1], nodes[1:]].tolist()
    total = 0.0
    for src, dst, v in zip(nodes, nodes[1:], hops):
        if not math.isfinite(v):
            raise BrokenPathError(f"hop {src} -> {dst} has no defined cost")
        total += v
    return total


@pytest.mark.parametrize(
    "n, placement, seed", sorted({(n, placement, seed) for n, placement, seed, _ in OPTIMIZER_GOLDEN_CASES})
)
def test_path_cost_matches_dense_gather(n, placement, seed):
    cm = scenario_cost_matrix(n, placement, seed)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        nodes = decode_path(rng.random(n), cm, 0, n - 1).nodes
        assert path_cost(nodes, cm).hex() == reference_path_cost(nodes, cm).hex()
        # the same node list, reversed, is a path over the reverse links
        back = nodes[::-1]
        assert path_cost(back, cm).hex() == reference_path_cost(back, cm).hex()
    # a hop to the lowest node that node 0 has no link to
    far = next(v for v in range(1, n) if v not in out_neighbors(cm, 0))
    for cost in (path_cost, reference_path_cost):
        with pytest.raises(BrokenPathError, match=rf"hop 0 -> {far} "):
            cost((0, far), cm)


def test_path_cost_additivity(grid25):
    _, cm, _ = grid25
    nodes = decode_path(np.random.default_rng(3).random(cm.n), cm, 0, 24).nodes
    mid = len(nodes) // 2
    left = path_cost(nodes[: mid + 1], cm)
    right = path_cost(nodes[mid:], cm)
    assert path_cost(nodes, cm) == pytest.approx(left + right, abs=1e-12)


def test_path_cost_broken_hop():
    cm = cm_of(3, [(0, 1)])
    with pytest.raises(BrokenPathError):
        path_cost((0, 1, 2), cm)


def test_path_cost_names_first_undefined_hop():
    cm = cm_of(5, [(0, 1), (2, 3)])
    with pytest.raises(BrokenPathError, match=r"hop 1 -> 2 "):
        path_cost((0, 1, 2, 3, 4), cm)


@pytest.mark.parametrize("nodes", [(-1, 7), (7, -1), (0.0, 1), (0, 1.0), (True, 1), (8, 9)], ids=repr)
def test_path_cost_refuses_what_is_not_a_node_id(nodes):
    # unchecked, -1 reads node 8's links through negative indexing, pricing
    # (-1, 7) as the hop 8 -> 7, and 1.0 finds node 1's link from node 0
    cm = scenario_cost_matrix(9, "grid", 0)
    message = f"source {nodes[0]!r} or terminal {nodes[1]!r} is not a node id in 0..8"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        path_cost(nodes, cm)


def test_path_cost_adds_left_to_right():
    # each 1.0 vanishes into 1e16 when added in hop order; compensated
    # (math.fsum, or sum() from Python 3.12) and pairwise (np.sum) summation
    # keep the first seven and give 14.0
    costs = [1e16] + [1.0] * 7 + [-1e16] + [1.0] * 7
    cm = from_entries(17, {(i, i + 1): c for i, c in enumerate(costs)})
    got = path_cost(tuple(range(17)), cm)
    assert got == 7.0 and type(got) is float
    assert math.fsum(costs) == float(np.sum(costs)) == 14.0


def test_decode_path_adds_left_to_right():
    # the chain above, priced on the walk that decodes it
    costs = [1e16] + [1.0] * 7 + [-1e16] + [1.0] * 7
    cm = from_entries(17, {(i, i + 1): c for i, c in enumerate(costs)})
    got = decode_path(np.full(17, 0.5), cm, 0, 16)
    assert got.nodes == tuple(range(17))
    assert got.cost == 7.0 and type(got.cost) is float


def test_random_keys_genome_contract():
    # a random-keys genome is rng.random(n), the draw both optimizers make
    rng = np.random.default_rng(11)
    a = np.random.default_rng(11).random(20)
    b = np.random.default_rng(11).random(20)
    assert np.array_equal(a, b)
    draws = [rng.random(20) for _ in range(100)]
    assert all((d >= 0).all() and (d <= 1).all() for d in draws)
    assert any(not np.array_equal(draws[0], d) for d in draws[1:])


def test_path_dataclass_is_frozen():
    p = Path((0, 1), 0.5)
    with pytest.raises(AttributeError):
        p.cost = 1.0


def decode_through_submatrix(keys, cm, source, terminal):
    """decode_path on reachable_submatrix(cm, source, terminal), on the keys
    of its nodes, with the path mapped back to cm's ids, as evolve decodes."""
    sub, nodes = reachable_submatrix(cm, source, terminal)
    path = decode_path(keys[nodes], sub, nodes.index(source), nodes.index(terminal))
    return Path(tuple(nodes[v] for v in path.nodes), path.cost)


def reached_from(cm, source):
    """The nodes source reaches, by breadth-first search."""
    reached = {source}
    frontier = [source]
    while frontier:
        frontier = [u for v in frontier for u in out_neighbors(cm, v) if u not in reached]
        reached.update(frontier)
    return reached


@st.composite
def sparse_digraph_case(draw):
    """A sparse digraph of at most 30 nodes in up to four one-way-linked
    clusters (helpers.clustered_links), with mixed-sign costs, keys with
    frequent ties, and two distinct random endpoints, so the source usually
    reaches some clusters but not all."""
    n = draw(st.integers(min_value=2, max_value=30))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = clustered_links(draw, n)
    costs = draw(st.lists(st.floats(min_value=-1e16, max_value=1e16), min_size=len(pairs), max_size=len(pairs)))
    key = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0))
    keys = draw(st.lists(key, min_size=n, max_size=n))
    cm = from_entries(n, dict(zip(pairs, costs)))
    source = draw(node)
    # half the time a terminal the source reaches, if it reaches one
    reached = sorted(reached_from(cm, source) - {source})
    if reached and draw(st.booleans()):
        terminal = draw(st.sampled_from(reached))
    else:
        terminal = draw(node.filter(lambda t: t != source))
    return cm, np.array(keys), source, terminal


@given(sparse_digraph_case())
@settings(max_examples=300, deadline=None)
def test_decode_on_reachable_submatrix_matches_full_decode(case):
    cm, keys, source, terminal = case
    reached = reached_from(cm, source)
    if terminal not in reached:
        with pytest.raises(NoPathError, match=f"^no path from {source} to {terminal}$"):
            reachable_submatrix(cm, source, terminal)
    else:
        sub, nodes = reachable_submatrix(cm, source, terminal)
        if len(reached) == cm.n:
            assert sub is cm and nodes == range(cm.n)
        else:
            assert nodes == sorted(reached)
            # each out-link list keeps its order and its costs, relabelled
            for i, v in enumerate(nodes):
                assert sub.links[i] == tuple((nodes.index(u), c) for u, c in cm.links[v])
    try:
        want = decode_path(keys, cm, source, terminal)
    except NoPathError as error:
        with pytest.raises(NoPathError, match=f"^{error}$"):
            decode_through_submatrix(keys, cm, source, terminal)
        return
    got = decode_through_submatrix(keys, cm, source, terminal)
    assert got.nodes == want.nodes
    assert got.cost.hex() == want.cost.hex()


@pytest.mark.parametrize("n", [100, 400])
def test_decode_on_reachable_submatrix_matches_on_random_placement(n):
    # node 0 reaches only part of a random layout
    cm = scenario_cost_matrix(n, "random", 101)
    sub, nodes = reachable_submatrix(cm, 0, n - 1)
    assert sub.n == len(nodes) < n
    for keys in perturbed_genomes(np.random.default_rng(8), n, 40):
        assert decode_through_submatrix(keys, cm, 0, n - 1) == decode_path(keys, cm, 0, n - 1)


def test_reachable_submatrix_of_a_grid_is_the_grid(grid25):
    _, cm, _ = grid25
    sub, nodes = reachable_submatrix(cm, 0, 24)
    assert sub is cm and nodes == range(25)


@pytest.mark.parametrize("name", ALGORITHMS)
@pytest.mark.parametrize(
    "source, terminal, error, message",
    [
        pytest.param(0, 4, NoPathError, "no path from 0 to 4", id="unreachable"),
        pytest.param(1, 1, ValueError, "source and terminal must differ", id="same-node"),
        pytest.param(0, 5, ValueError, "source 0 or terminal 5 is not a node id in 0..4", id="terminal-past-n"),
        pytest.param(-1, 2, ValueError, "source -1 or terminal 2 is not a node id in 0..4", id="negative-source"),
    ],
)
def test_optimizer_refuses_endpoints_as_decode_does(name, source, terminal, error, message):
    # 0 -> 1 -> 2 and 3 -> 4: node 0 reaches 1 and 2 but not 3 or 4
    cm = cm_of(5, [(0, 1), (1, 2), (2, 1), (3, 4)])
    with pytest.raises(error, match=f"^{message}$"):
        ALGORITHMS[name](cm, source, terminal, RunParams(max_generations=2, population_size=4))


# every entry point that takes a (source, terminal) pair, returning a Path
ROUTE_QUERIES = {
    "decode_path": lambda cm, s, t: decode_path(np.random.default_rng(3).random(cm.n), cm, s, t),
    "shortest_path": shortest_path,
    "brute_force_shortest": brute_force_shortest,
    "run_bbbc": lambda cm, s, t: run_bbbc(cm, s, t, RunParams(max_generations=2, population_size=4)).best_path,
    "run_bbo": lambda cm, s, t: run_bbo(cm, s, t, RunParams(max_generations=2, population_size=4)).best_path,
}


@pytest.mark.parametrize("query", ROUTE_QUERIES)
@pytest.mark.parametrize("end", ["source", "terminal"])
@pytest.mark.parametrize("value", [0.0, 8.0, 7.5, True, False, -1, 9], ids=repr)
def test_every_route_query_refuses_what_is_not_a_node_id(query, end, value):
    # a float equal to a node id, a bool, a negative id and n are all refused
    # with one message, on a 9-node grid
    cm = scenario_cost_matrix(9, "grid", 0)
    source, terminal = (value, 8) if end == "source" else (0, value)
    message = f"source {source!r} or terminal {terminal!r} is not a node id in 0..8"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ROUTE_QUERIES[query](cm, source, terminal)


@pytest.mark.parametrize("query", ROUTE_QUERIES)
def test_every_route_query_takes_numpy_node_ids_and_returns_python_ints(query):
    cm = scenario_cost_matrix(9, "grid", 0)
    path = ROUTE_QUERIES[query](cm, np.int64(0), np.int64(8))
    assert all(type(v) is int for v in path.nodes)
    assert json.loads(json.dumps(path.nodes)) == list(path.nodes)
    assert path == ROUTE_QUERIES[query](cm, 0, 8)
    assert path_cost(tuple(np.array(path.nodes)), cm) == path.cost
