"""Scenario generation: grid geometry, link synthesis, serialization."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshroute import topology
from meshroute.fuzzycost import build_cost_matrix
from meshroute.topology import (
    DEFAULT_RADIO_RANGE_M,
    DELAY_RANGE_MS,
    GRID_SPACING_M,
    JITTER_RANGE_MS,
    LINK_COLUMNS,
    MAX_PLACEMENT_RETRIES,
    NODE_COLUMNS,
    REFERENCE_AREA_SIDE_M,
    REFERENCE_NODE_COUNT,
    THROUGHPUT_RANGE_MBPS,
    ConnectivityError,
    NetworkScenario,
    _draw_metrics,
    _radio_pairs,
    _reaches,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

from helpers import traced_peak_bytes
from scenario_v1 import v1_objects, v1_scenario_from_dict

GRID25_LINKS = 80  # 2 * 2 * (5 * 4) orthogonal adjacencies on a 5x5 lattice
GRID100_LINKS = 360

# (nodes, placement, seeds) on which generation must match the reference exactly
GOLDEN_CASES = [
    (25, "grid", (0, 1, 42)),
    (100, "grid", (0, 101, 102)),
    (400, "grid", (0, 101)),
    (100, "random", (0, 5, 101)),
    (400, "random", (0, 101)),
]


def reference_adjacency(positions, radio_range):
    deltas = positions[:, None, :] - positions[None, :, :]
    adj = np.einsum("ijk,ijk->ij", deltas, deltas) <= radio_range * radio_range
    np.fill_diagonal(adj, False)
    return adj


def connectivity_matrix(scenario):
    """n x n boolean matrix; (i, j) true iff distance(i, j) <= radio_range and i != j."""
    return reference_adjacency(scenario.positions, scenario.radio_range)


def reference_reachable(adj, source, terminal):
    """Breadth-first reachability over a dense adjacency matrix, one frontier
    at a time: the check random placement made before links were found
    with a cell list."""
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[source] = True
    frontier = [source]
    while frontier:
        nxt = adj[frontier].any(axis=0) & ~seen
        if nxt[terminal]:
            return True
        seen |= nxt
        frontier = list(np.nonzero(nxt)[0])
    return seen[terminal]


def reference_generate_scenario(n, placement, seed, radio_range=DEFAULT_RADIO_RANGE_M):
    """Link-by-link generation: visit every ordered pair, draw each metric as a scalar."""
    rng = np.random.default_rng(seed)
    if placement == "grid":
        side = math.isqrt(n)
        coords = np.array(
            [[(i % side) * GRID_SPACING_M, (i // side) * GRID_SPACING_M] for i in range(n)]
        )
        area_side = (side - 1) * GRID_SPACING_M
    else:
        area_side = REFERENCE_AREA_SIDE_M * math.sqrt(n / REFERENCE_NODE_COUNT)
        for _ in range(MAX_PLACEMENT_RETRIES):
            coords = rng.uniform(0.0, area_side, size=(n, 2))
            if reference_reachable(reference_adjacency(coords, radio_range), 0, n - 1):
                break
    adj = reference_adjacency(coords, radio_range)
    links, metrics = [], []
    for i in range(n):
        for j in range(n):
            if adj[i, j]:
                throughput = rng.uniform(*THROUGHPUT_RANGE_MBPS)
                delay = rng.uniform(*DELAY_RANGE_MS)
                jitter = rng.uniform(*JITTER_RANGE_MS)
                links.append((i, j))
                metrics.append((throughput, delay, jitter))
    return NetworkScenario(seed, float(area_side), float(radio_range), coords, links, metrics)


def test_grid25_geometry():
    s = generate_scenario(25, placement="grid", seed=42)
    assert s.n == 25
    assert s.positions[0].tolist() == [0.0, 0.0]
    assert s.positions[24].tolist() == [800.0, 800.0]
    assert len(s.links) == GRID25_LINKS


def test_grid_corner_out_degree():
    # diagonal spacing 200*sqrt(2) ~ 283 m exceeds the 250 m range, so
    # corners keep exactly their two orthogonal neighbors
    s = generate_scenario(25, placement="grid", seed=0)
    out_degree = {i: 0 for i in range(25)}
    for src, _ in s.links.tolist():
        out_degree[src] += 1
    for corner in (0, 4, 20, 24):
        assert out_degree[corner] == 2


@pytest.mark.parametrize("n,expected", [(25, GRID25_LINKS), (100, GRID100_LINKS)])
def test_grid_link_counts(n, expected):
    assert len(generate_scenario(n, placement="grid", seed=1).links) == expected


def test_int_radio_range_is_read_as_its_float():
    # an int range is one float for the search, the link build and the scenario
    s = generate_scenario(9, "grid", 0, 10**200)
    assert s == generate_scenario(9, "grid", 0, 1e200) and len(s.links) == 72
    assert generate_scenario(9, "random", 3, 300) == generate_scenario(9, "random", 3, 300.0)


def test_grid_rejects_non_square():
    with pytest.raises(ValueError):
        generate_scenario(26, placement="grid", seed=0)


def test_short_range_yields_no_links():
    s = generate_scenario(4, placement="grid", seed=7, radio_range=150.0)
    assert s.links.shape == (0, 2) and s.metrics.shape == (0, 3)


@pytest.mark.parametrize(
    "radio_range", [0.0, -1.0, math.nan, math.inf, True, pytest.param(10**400, id="10**400"), "250"]
)
def test_rejects_radio_range_not_positive_and_finite(radio_range):
    # NaN fails every comparison, so a bare `<= 0` check would let it through
    with pytest.raises(ValueError, match="radio_range"):
        generate_scenario(4, placement="grid", seed=0, radio_range=radio_range)


def test_unknown_placement():
    with pytest.raises(ValueError):
        generate_scenario(25, placement="ring", seed=0)


@pytest.mark.parametrize(
    "n, placement",
    [(9.0, "grid"), (100.0, "random"), (True, "random"), ("9", "grid"), (np.float64(9.0), "grid")],
    ids=["float-grid", "float-random", "bool", "text", "numpy-float"],
)
def test_rejects_node_count_not_an_integer(n, placement, monkeypatch):
    # refused before the generator is made, so nothing is drawn
    monkeypatch.setattr(topology.np.random, "default_rng", None)
    message = f"need an integer count of at least 2 nodes, got {n!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_scenario(n, placement=placement, seed=0)


def test_numpy_integer_node_count_builds():
    assert generate_scenario(np.int64(9), placement="grid", seed=0) == generate_scenario(9, placement="grid", seed=0)


@pytest.mark.parametrize(
    "seed, message",
    [
        (-1, "scenario 'seed' is -1, which is negative"),
        (1.5, "scenario 'seed' is 1.5, not an integer"),
        (True, "scenario 'seed' is True, not an integer"),
        (None, "scenario 'seed' is None, not an integer"),
    ],
    ids=["negative", "float", "bool", "none"],
)
@pytest.mark.parametrize("placement", ["grid", "random"])
def test_generate_checks_seed_before_drawing(seed, message, placement, monkeypatch):
    # the message is NetworkScenario's, from the one seed check both call
    monkeypatch.setattr(topology.np.random, "default_rng", None)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_scenario(9, placement=placement, seed=seed)


def test_generation_is_deterministic():
    a = generate_scenario(25, placement="grid", seed=42)
    b = generate_scenario(25, placement="grid", seed=42)
    assert scenario_to_dict(a) == scenario_to_dict(b)


def test_seed_changes_metrics():
    a = generate_scenario(25, placement="grid", seed=1)
    b = generate_scenario(25, placement="grid", seed=2)
    differs = any(
        ta != tb for ta, tb in zip(a.metrics[:, 0].tolist(), b.metrics[:, 0].tolist())
    )
    assert differs


def test_metric_ranges():
    s = generate_scenario(25, placement="grid", seed=9)
    for throughput, delay, jitter in s.metrics.tolist():
        assert 0.2 <= throughput <= 2.0
        assert 1.0 <= delay <= 100.0
        assert 0.0 <= jitter <= 20.0


def test_batch_metric_draw_matches_per_link_draws():
    rng = np.random.default_rng(5)
    scalar = [
        [rng.uniform(*THROUGHPUT_RANGE_MBPS), rng.uniform(*DELAY_RANGE_MS), rng.uniform(*JITTER_RANGE_MS)]
        for _ in range(500)
    ]
    batch = _draw_metrics(np.random.default_rng(5), 500)
    assert batch.tolist() == scalar


@pytest.mark.parametrize(
    "n, placement, seed",
    [(n, placement, seed) for n, placement, seeds in GOLDEN_CASES for seed in seeds],
)
def test_generation_matches_reference(n, placement, seed, tmp_path):
    s = generate_scenario(n, placement=placement, seed=seed)
    ref = reference_generate_scenario(n, placement, seed)
    assert s == ref
    save_scenario(s, tmp_path / "new.json")
    save_scenario(ref, tmp_path / "ref.json")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_connectivity_matrix_grid():
    s = generate_scenario(25, placement="grid", seed=42)
    adj = connectivity_matrix(s)
    assert adj.shape == (25, 25)
    assert not adj.diagonal().any()
    assert np.array_equal(adj, adj.T)
    assert int(adj.sum()) == GRID25_LINKS


def test_links_match_connectivity():
    s = generate_scenario(25, placement="grid", seed=3)
    adj = connectivity_matrix(s)
    observed = set(map(tuple, s.links.tolist()))
    expected = {(i, j) for i in range(25) for j in range(25) if adj[i, j]}
    assert observed == expected


RADII = st.sampled_from([1.0, 5.0, 250.0, 0.1, 1 / 3, 1e-9, 1e9]) | st.floats(1e-3, 1e3)
# a step from an earlier site: r along an axis, or (3, 4, 5) along a diagonal
STEPS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.6, 0.8), (-0.8, 0.6))


@st.composite
def layouts(draw):
    """Up to 300 sites that sit on the cell boundaries: exact multiples of r,
    steps of exactly r from an earlier site, co-located copies, free points
    and far points that put the layout's spread up to 2**74 radio ranges,
    all shifted by an offset that may be far from the origin."""
    r = draw(RADII)
    offset = draw(st.sampled_from([0.0, 1e6, -3.7e7]))
    moves = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["lattice", "step", "copy", "free", "far"]),
                st.integers(-12, 12),
                st.integers(-12, 12),
                st.floats(-12.0, 12.0),
                st.floats(-12.0, 12.0),
            ),
            min_size=2,
            max_size=300,
        )
    )
    sites = []
    for move, a, b, u, v in moves:
        if move == "lattice" or not sites:
            site = (offset + a * r, offset + b * r)
        elif move == "step":
            (x, y), (sx, sy) = sites[a % len(sites)], STEPS[b % len(STEPS)]
            site = (x + sx * r, y + sy * r)
        elif move == "copy":
            site = sites[a % len(sites)]
        elif move == "free":
            site = (offset + u * r, offset + v * r)
        else:
            site = (offset + a * 2.0**70 * r, offset + b * 2.0**70 * r)
        sites.append(site)
    return np.array(sites), r


@settings(max_examples=200, deadline=None)
@given(layouts())
@example((np.array([[0.0, 0.0], [250.0, 0.0]]), 250.0))
@example((np.array([[3.0, 4.0], [0.0, 0.0]]), 5.0))
@example((np.array([[0.1, 0.2], [0.1, 0.2]]), 0.1))
@example((np.array([[0.0, 0.0], [0.2, 0.0]]), 0.1))
# r*r overflows, so every pair passes however far apart
@example((np.array([[0.0, 0.0], [1e300, -1e300]]), 1e200))
def test_radio_pairs_match_dense_adjacency(layout):
    positions, r = layout
    # a cell index past int64 would make numpy warn on the cast; squares of
    # far-apart sites may overflow to inf, on both sides alike
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.filterwarnings("error", "invalid value encountered in cast", RuntimeWarning)
        src, dst = _radio_pairs(positions, r)
        ref_src, ref_dst = np.nonzero(reference_adjacency(positions, r))
    assert np.array_equal(src, ref_src) and np.array_equal(dst, ref_dst)


@st.composite
def uniform_layouts(draw):
    """Up to 300 sites drawn uniformly over a square sized for a mean
    degree of 1 to 8, around the percolation threshold of about 4.5, so
    that components are large, many hops deep, and often split."""
    n = draw(st.integers(2, 300))
    degree = draw(st.floats(1.0, 8.0))
    r = draw(RADII)
    side = r * math.sqrt(n * math.pi / degree)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.uniform(0.0, side, size=(n, 2)), r


@st.composite
def layouts_with_ends(draw):
    """A layout from layouts() or uniform_layouts() and two distinct nodes
    of it, a source and a terminal."""
    positions, r = draw(layouts() | uniform_layouts())
    n = len(positions)
    source = draw(st.integers(0, n - 1))
    terminal = (source + draw(st.integers(1, n - 1))) % n
    return positions, r, source, terminal


@settings(max_examples=200, deadline=None)
@given(layouts_with_ends())
@example((np.array([[0.0, 0.0], [250.0, 0.0]]), 250.0, 0, 1))
@example((np.array([[3.0, 4.0], [0.0, 0.0]]), 5.0, 1, 0))
@example((np.array([[0.1, 0.2], [0.1, 0.2]]), 0.1, 0, 1))
@example((np.array([[0.0, 0.0], [0.2, 0.0]]), 0.1, 0, 1))
# r*r overflows, so every pair passes however far apart
@example((np.array([[0.0, 0.0], [1e300, -1e300]]), 1e200, 0, 1))
# a node reaches itself
@example((np.array([[0.0, 0.0], [9.0, 0.0]]), 1.0, 1, 1))
# a scenario's read-only positions
@example((generate_scenario(9, "grid", 0).positions, 250.0, 0, 8))
# coincident pairs along a line, r apart: the path hops from pair to pair
@example((np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0], [2.0, 0.0], [4.0, 0.0], [4.0, 0.0]]), 2.0, 1, 5))
# the terminal is the first candidate scanned, alone in the lowest cell row
# of the source's block; node 1, far off in x, puts that row at y = -0.5
@example((np.array([[0.0, 0.6], [100.0, -0.5], [0.0, 0.4]]), 1.0, 0, 2))
# the sites are exactly r apart, and r*r, past 2**53, rounds as the
# squared distance does, so they are linked
@example((np.array([[0.0, 0.0], [389216663.0, 0.0]]), 389216663.0, 0, 1))
def test_reaches_matches_dense_reachability(case):
    positions, r, source, terminal = case
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.filterwarnings("error", "invalid value encountered in cast", RuntimeWarning)
        reached = _reaches(positions, r, source, terminal)
        expected = reference_reachable(reference_adjacency(positions, r), source, terminal)
    assert reached == expected


def connects_over_links(src, dst, n, source, terminal):
    """Depth-first search over row-major link arrays: does source reach
    terminal? The check random placement made on every layout's full link
    set before it searched node 0's component alone."""
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    starts = [0] + ends[:-1]
    heads = dst.tolist()
    seen = bytearray(n)
    seen[source] = 1
    stack = [source]
    while stack:
        v = stack.pop()
        for u in heads[starts[v] : ends[v]]:
            if not seen[u]:
                if u == terminal:
                    return True
                seen[u] = 1
                stack.append(u)
    return False


def link_search_generate_scenario(n, seed, radio_range=DEFAULT_RADIO_RANGE_M):
    """Random placement as it was: every layout drawn gets its full link
    set from _radio_pairs, and the links decide whether it is kept."""
    rng = np.random.default_rng(seed)
    area_side = REFERENCE_AREA_SIDE_M * math.sqrt(n / REFERENCE_NODE_COUNT)
    for _ in range(MAX_PLACEMENT_RETRIES):
        coords = rng.uniform(0.0, area_side, size=(n, 2))
        src, dst = _radio_pairs(coords, radio_range)
        if connects_over_links(src, dst, n, 0, n - 1):
            break
    else:
        raise ConnectivityError("no connected placement")
    metrics = _draw_metrics(rng, len(src))
    return NetworkScenario(seed, float(area_side), float(radio_range), coords, np.stack((src, dst), 1), metrics)


# (nodes, seeds, radio range): random400-short's seed-0 scenarios, a
# 2500-node layout kept at attempt 111, and dense ranges whose first layouts
# connect, so that the search pops much of the layout
LINK_SEARCH_CASES = [
    (400, range(101, 133), DEFAULT_RADIO_RANGE_M),
    (2500, (103,), DEFAULT_RADIO_RANGE_M),
    (400, (101,), 600.0),
    (2500, range(3), 400.0),
]


@pytest.mark.parametrize("n, seeds, radio_range", LINK_SEARCH_CASES)
def test_random_placement_matches_link_search_per_attempt(n, seeds, radio_range, tmp_path):
    for seed in seeds:
        s = generate_scenario(n, "random", seed, radio_range)
        ref = link_search_generate_scenario(n, seed, radio_range)
        assert s == ref
        save_scenario(s, tmp_path / "new.json")
        save_scenario(ref, tmp_path / "ref.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize(
    "n, placement, seed", [(25, "grid", 0), (400, "grid", 1), (100, "random", 5), (400, "random", 101)]
)
def test_generate_builds_links_once(n, placement, seed, monkeypatch):
    calls = []

    def counted(positions, radio_range):
        calls.append(len(positions))
        return _radio_pairs(positions, radio_range)

    monkeypatch.setattr(topology, "_radio_pairs", counted)
    generate_scenario(n, placement, seed)
    assert calls == [n]


# a dense (n, n) distance test needs 17 bytes per ordered pair: 106 MB at
# 2500 nodes, 2.7 MB at 400
LINEAR_BYTES_PER_NODE = 2048


def test_tiny_radio_range_on_grid2500_has_no_links_in_linear_memory():
    s, peak = traced_peak_bytes(lambda: generate_scenario(2500, "grid", 0, radio_range=1e-9))
    assert s.links.shape == (0, 2)
    assert peak < 2500 * LINEAR_BYTES_PER_NODE


def test_tiny_radio_range_on_random400_exhausts_retries_in_linear_memory():
    def exhaust():
        with pytest.raises(ConnectivityError):
            generate_scenario(400, "random", 0, radio_range=1e-9)

    _, peak = traced_peak_bytes(exhaust)
    assert peak < 400 * LINEAR_BYTES_PER_NODE


def test_huge_radio_range_links_every_ordered_pair():
    s = generate_scenario(200, "random", 0, radio_range=1e9)
    assert len(s.links) == 200 * 199
    assert s.links.tolist() == [[i, j] for i in range(200) for j in range(200) if i != j]


def test_random_placement_connects_endpoints():
    s = generate_scenario(25, placement="random", seed=3)
    # breadth-first reachability over the directed link set
    out = {i: [] for i in range(s.n)}
    for src, dst in s.links.tolist():
        out[src].append(dst)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in out[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    assert s.n - 1 in seen


def test_random_placement_density_scales_area():
    s = generate_scenario(100, placement="random", seed=5)
    expected_side = 1500.0 * math.sqrt(100 / 25)
    assert s.area_side == pytest.approx(expected_side)
    for x, y in s.positions.tolist():
        assert 0.0 <= x <= s.area_side
        assert 0.0 <= y <= s.area_side


def test_random_placement_retry_exhaustion():
    with pytest.raises(ConnectivityError):
        generate_scenario(25, placement="random", seed=0, radio_range=10.0)


def test_scenario_round_trip(tmp_path):
    s = generate_scenario(25, placement="grid", seed=42)
    path = tmp_path / "s.json"
    save_scenario(s, path)
    loaded = load_scenario(path)
    assert scenario_to_dict(loaded) == scenario_to_dict(s)


def test_large_scenario_round_trip_is_lossless(tmp_path):
    s = generate_scenario(2500, placement="grid", seed=101)
    path = tmp_path / "s.json"
    save_scenario(s, path)
    assert load_scenario(path) == s


def test_saving_a_large_scenario_holds_about_one_column(tmp_path):
    # the writer encodes one column at a time, so its peak is a small
    # multiple of the file, not of every number's string at once
    s = generate_scenario(2500, placement="grid", seed=101)
    path = tmp_path / "s.json"
    _, peak = traced_peak_bytes(lambda: save_scenario(s, path))
    size = path.stat().st_size
    assert peak <= 3 * size, (peak, size)


def test_scenario_file_is_byte_stable(tmp_path):
    s = generate_scenario(25, placement="grid", seed=42)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_scenario(s, p1)
    save_scenario(s, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_scenario(25, "grid", 101),
        lambda: generate_scenario(2500, "grid", 101),
        lambda: generate_scenario(100, "random", 101),
        lambda: generate_scenario(400, "random", 101),
        lambda: NetworkScenario(0, 200.0, 250.0, [(0.0, 0.0), (200.0, 0.0)], [], []),
        lambda: generate_scenario(25, "grid", 2**64),
    ],
    ids=["grid25", "grid2500", "random100", "random400", "no-links", "seed-2**64"],
)
def test_scenario_file_is_the_dict_encoded_whole(make, tmp_path):
    s = make()
    path = tmp_path / "s.json"
    save_scenario(s, path)
    assert path.read_bytes() == (json.dumps(scenario_to_dict(s)) + "\n").encode()


def test_scenario_version_check():
    s = generate_scenario(9, placement="grid", seed=0)
    d = scenario_to_dict(s)
    d["version"] = 99
    with pytest.raises(ValueError):
        scenario_from_dict(d)


def test_load_rejects_non_object():
    with pytest.raises(ValueError, match="JSON object"):
        scenario_from_dict([1, 2, 3])


def test_scenario_links_sorted_in_file(tmp_path):
    s = generate_scenario(25, placement="grid", seed=4)
    path = tmp_path / "s.json"
    save_scenario(s, path)
    data = json.loads(path.read_text())
    pairs = list(zip(data["links"]["from"], data["links"]["to"]))
    assert pairs == sorted(pairs)


def test_manual_scenario_construction():
    positions = [(0.0, 0.0), (200.0, 0.0)]
    links = [(0, 1), (1, 0)]
    metrics = [(1.0, 10.0, 2.0), (1.5, 20.0, 1.0)]
    s = NetworkScenario(seed=0, area_side=200.0, radio_range=250.0, positions=positions, links=links, metrics=metrics)
    assert s.n == 2
    assert s.positions.shape == (2, 2)


def test_scenario_equality_is_a_plain_bool():
    a = generate_scenario(9, placement="grid", seed=0)
    b = generate_scenario(9, placement="grid", seed=0)
    c = generate_scenario(9, placement="grid", seed=1)
    assert (a == b) is True
    assert (a == c) is False
    assert (a != c) is True
    assert a != "not a scenario"


def test_scenario_arrays_are_read_only_copies():
    positions = np.array([[0.0, 0.0], [200.0, 0.0]])
    s = NetworkScenario(0, 200.0, 250.0, positions, [(0, 1)], [(1.0, 10.0, 2.0)])
    positions[0, 0] = 5.0
    assert s.positions[0, 0] == 0.0
    assert (s.positions.dtype, s.links.dtype, s.metrics.dtype) == (np.float64, np.int64, np.float64)
    for array in (s.positions, s.links, s.metrics):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1


def test_scenario_rejects_mismatched_arrays():
    with pytest.raises(ValueError, match="2 links but 1 metric rows"):
        NetworkScenario(0, 200.0, 250.0, [(0.0, 0.0), (1.0, 0.0)], [(0, 1), (1, 0)], [(1.0, 10.0, 2.0)])
    with pytest.raises(ValueError, match=r"links must have shape \(m, 2\)"):
        NetworkScenario(0, 200.0, 250.0, [(0.0, 0.0), (1.0, 0.0)], [0, 1], [(1.0, 10.0, 2.0)])


def test_hand_built_links_round_trip_equal():
    s = NetworkScenario(
        0, 200.0, 250.0, [(0.0, 0.0), (200.0, 0.0)], [(1, 0), (0, 1)], [(1.5, 20.0, 1.0), (1.0, 10.0, 2.0)]
    )
    assert s.links.tolist() == [[0, 1], [1, 0]]
    assert s.metrics.tolist() == [[1.0, 10.0, 2.0], [1.5, 20.0, 1.0]]
    assert scenario_from_dict(scenario_to_dict(s)) == s


def test_hand_built_links_sorted_stably():
    # 300 distinct links among 20 nodes, shuffled: they come back row-major,
    # each with its own metric row
    pairs = [(a, b) for a in range(20) for b in range(20) if a != b]
    links = [pairs[k] for k in np.random.default_rng(0).permutation(len(pairs))[:300]]
    metrics = [(float(k), 1.0, 1.0) for k in range(301)]
    positions = [(0.0, 0.0)] * 20
    s = NetworkScenario(0, 1.0, 1.0, positions, links, metrics[:300])
    order = sorted(range(300), key=links.__getitem__)
    assert s.links.tolist() == [list(links[k]) for k in order]
    assert s.metrics[:, 0].tolist() == [float(k) for k in order]
    assert not s.links.flags.writeable and not s.metrics.flags.writeable
    # link 250 comes back at 261, after a bad metric at 255: the bad metric is
    # met first, so the sort that finds repeats must keep the copies in order
    repeated = links[:261] + [links[250]] + links[261:]
    bad = metrics[:255] + [(1.0, -1.0, 1.0)] + metrics[256:]
    a, b = links[255]
    with pytest.raises(ValueError, match=rf"^link {a} -> {b} has a metric that is negative or not finite$"):
        NetworkScenario(0, 1.0, 1.0, positions, repeated, bad)
    a, b = links[250]
    with pytest.raises(ValueError, match=rf"^duplicate link {a} -> {b}$"):
        NetworkScenario(0, 1.0, 1.0, positions, repeated, metrics)
    # 300 links over 6 pairs, one an endpoint no node has, which link 0 names
    links = [((5 * k) % 3 - 1, k % 2) for k in range(300)]
    with pytest.raises(ValueError, match=r"^link -1 -> 0 has an endpoint outside 0\.\.1$"):
        NetworkScenario(0, 1.0, 1.0, positions[:2], links, metrics[:300])
    # its links between the two nodes alternate 1 -> 0 and 0 -> 1
    links = [link for link in links if -1 not in link and link[0] != link[1]]
    with pytest.raises(ValueError, match=r"^duplicate link 1 -> 0$"):
        NetworkScenario(0, 1.0, 1.0, positions[:2], links, metrics[: len(links)])


def three_node_scenario(**changes):
    """NetworkScenario's arguments for a 3-node line with changes applied,
    and the same scenario as a format-2 object. A change replaces a scalar,
    or one entry of positions, links or metrics given as (row, col, value)."""
    args = {
        "seed": 0,
        "area_side": 400.0,
        "radio_range": 250.0,
        "positions": [[0.0, 0.0], [200.0, 0.0], [400.0, 0.0]],
        "links": [[0, 1], [1, 0], [1, 2], [2, 1]],
        "metrics": [[1.2, 30.0, 5.0], [0.8, 40.0, 3.0], [1.5, 20.0, 2.0], [1.0, 25.0, 4.0]],
    }
    for key, change in changes.items():
        if isinstance(change, tuple):
            row, col, value = change
            args[key][row][col] = value
        else:
            args[key] = change
    return args, scenario_dict(**args)


def scenario_dict(seed, area_side, radio_range, positions, links, metrics):
    """The format-2 object of NetworkScenario's arguments, rows in the order given."""
    link_rows = [tuple(link) + tuple(metric) for link, metric in zip(links, metrics)]
    return {
        "version": 2,
        "seed": seed,
        "area_side_m": area_side,
        "radio_range_m": radio_range,
        "nodes": {key: [p[i] for p in positions] for i, key in enumerate(NODE_COLUMNS)},
        "links": {key: [row[i] for row in link_rows] for i, key in enumerate(LINK_COLUMNS)},
    }


HAND_BUILT_FAULTS = [
    pytest.param({"metrics": (2, 1, math.nan)}, "link 1 -> 2 has a metric that is negative or not finite", id="nan"),
    pytest.param({"metrics": (2, 2, math.inf)}, "link 1 -> 2 has a metric that is negative or not finite", id="inf"),
    pytest.param({"metrics": (1, 0, -0.5)}, "link 1 -> 0 has a metric that is negative or not finite", id="negative"),
    pytest.param({"links": (3, 1, 2)}, "self-loop link at node 2", id="self-loop"),
    pytest.param({"links": (1, 1, 2)}, "duplicate link 1 -> 2", id="repeat"),
    pytest.param({"links": (0, 1, 3)}, "link 0 -> 3 has an endpoint outside 0..2", id="outside"),
    pytest.param({"links": (2, 0, -1)}, "link -1 -> 2 has an endpoint outside 0..2", id="negative-end"),
    pytest.param({"positions": (1, 0, math.nan)}, "node 1 has a coordinate that is not finite", id="x-nan"),
    pytest.param({"positions": (2, 1, -math.inf)}, "node 2 has a coordinate that is not finite", id="y-inf"),
    pytest.param({"seed": -1}, "scenario 'seed' is -1, which is negative", id="seed"),
    pytest.param({"area_side": 0.0}, "scenario 'area_side_m' is 0.0, which is not positive", id="area-0"),
    pytest.param({"area_side": -5}, "scenario 'area_side_m' is -5, which is not positive", id="area-neg"),
    pytest.param({"area_side": math.inf}, "scenario 'area_side_m' is inf, not a finite number", id="area-inf"),
    pytest.param({"radio_range": 0}, "scenario 'radio_range_m' is 0, which is not positive", id="range-0"),
    pytest.param({"radio_range": math.nan}, "scenario 'radio_range_m' is nan, not a finite number", id="range-nan"),
]


@pytest.mark.parametrize("changes, message", HAND_BUILT_FAULTS)
def test_hand_built_scenario_refused_with_the_loaders_message(changes, message):
    args, data = three_node_scenario(**changes)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        NetworkScenario(**args)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(data)


def test_hand_built_scalars_keep_their_types(tmp_path):
    args, _ = three_node_scenario(seed=np.int64(7), area_side=400, radio_range=np.float64(250.0))
    s = NetworkScenario(**args)
    assert (type(s.seed), type(s.area_side), type(s.radio_range)) == (int, float, float)
    save_scenario(s, tmp_path / "s.json")
    assert load_scenario(tmp_path / "s.json") == s


TWO_NODES = [(0.0, 0.0), (1.0, 0.0)]


@pytest.mark.parametrize(
    "positions, links, metrics, message",
    [
        # a float endpoint and a text metric, which np.array(value, dtype) once coerced
        (TWO_NODES, [(0.9, 1)], [("1.5", 2, 3)], "link 0 has 'from' 0.9, not an integer"),
        (TWO_NODES, [(0, 1)], [("1.5", 2, 3)], "link 0 has 'throughput_mbps' '1.5', not a number"),
        (TWO_NODES, np.array([(False, True)]), [(1.5, 2, 3)], "link 0 has 'from' False, not an integer"),
        (TWO_NODES, [("0", "1")], [(1.5, 2, 3)], "link 0 has 'from' '0', not an integer"),
        (TWO_NODES, [(0, 1)], [(1.5, None, 3)], "link 0 has 'delay_ms' None, not a number"),
        ([(True, False), (False, True)], [(0, 1)], [(1.5, 2, 3)], "node 0 has 'x_m' True, not a number"),
        ([(0.0, 0.0), (0.0, "1")], [(0, 1)], [(1.5, 2, 3)], "node 1 has 'y_m' '1', not a number"),
        (
            np.array([(0.0, 0.0), (1.0, None)], dtype=object), [(0, 1)], [(1.5, 2, 3)],
            "node 1 has 'y_m' None, not a number",
        ),
    ],
    ids=[
        "float-end", "text-metric", "bool-links", "text-links", "none-metric",
        "bool-positions", "text-position", "object-positions",
    ],
)
def test_hand_built_scenario_refuses_arrays_of_the_wrong_kind(positions, links, metrics, message):
    # each entry is read as the loader reads a JSON column, and named by its index
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        NetworkScenario(0, 1.0, 1.0, positions, links, metrics)
    if not any(isinstance(value, np.ndarray) for value in (positions, links, metrics)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scenario_from_dict(scenario_dict(0, 1.0, 1.0, positions, links, metrics))


def test_hand_built_scenario_takes_integer_arrays_of_any_width_and_empty_input():
    positions, links = np.array([(0, 0), (1, 0)], dtype=np.int8), np.array([(1, 0)], dtype=np.uint8)
    s = NetworkScenario(0, 1.0, 1.0, positions, links, [(1, 2, 3)])
    assert (s.positions.dtype, s.links.dtype, s.metrics.dtype) == (np.float64, np.int64, np.float64)
    assert s.links.tolist() == [[1, 0]] and s.metrics.tolist() == [[1.0, 2.0, 3.0]]
    # an object array of numbers is read entry by entry, as a list is
    assert NetworkScenario(0, 1.0, 1.0, np.array(TWO_NODES, dtype=object), links, [(1, 2, 3)]) == s
    # a list that mixes bools and ints, which numpy makes int64, is refused as the file is
    message = "^link 0 has 'from' True, not an integer$"
    with pytest.raises(ValueError, match=message):
        NetworkScenario(0, 1.0, 1.0, TWO_NODES, [(True, 0)], [(1, 2, 3)])
    with pytest.raises(ValueError, match=message):
        scenario_from_dict(scenario_dict(0, 1.0, 1.0, TWO_NODES, [(True, 0)], [(1, 2, 3)]))
    for empty in ([], np.zeros((0, 2), dtype=bool), np.array([], dtype=str)):
        s = NetworkScenario(0, 1.0, 1.0, TWO_NODES, empty, empty)
        assert s.links.shape == (0, 2) and s.links.dtype == np.int64
        assert s.metrics.shape == (0, 3) and s.metrics.dtype == np.float64


@pytest.mark.parametrize("end", [10**30, 2**63, -(2**63) - 1], ids=["1e30", "2**63", "below-int64"])
def test_hand_built_endpoint_past_int64_gets_the_loaders_message(end):
    args, data = three_node_scenario(links=(2, 1, end))
    message = f"link 1 -> {end} has an endpoint outside 0..2"
    for build in (lambda: NetworkScenario(**args), lambda: scenario_from_dict(data)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
    # an earlier faulty link is named first, in the order given
    args, data = three_node_scenario(links=(2, 1, end))
    args["links"][1] = [1, 1]
    for build in (lambda: NetworkScenario(**args), lambda: scenario_from_dict(scenario_dict(**args))):
        with pytest.raises(ValueError, match="^self-loop link at node 1$"):
            build()
    # and a later one is not
    args, _ = three_node_scenario(links=(2, 1, end))
    args["links"][3] = [2, 2]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        NetworkScenario(**args)
    # a uint64 array holds an endpoint from 2**63 up, which is named as given
    if 0 <= end < 2**64:
        args, _ = three_node_scenario(links=(2, 1, end))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NetworkScenario(**{**args, "links": np.array(args["links"], dtype=np.uint64)})


@pytest.mark.parametrize("key, row, col", [("positions", 1, 1), ("metrics", 2, 1)])
def test_hand_built_number_past_int64_is_read_as_the_loader_reads_it(key, row, col):
    # numpy holds a list with a Python int past 64 bits as an object array
    args, data = three_node_scenario(**{key: (row, col, 10**30)})
    s = NetworkScenario(**args)
    assert s == scenario_from_dict(data)
    assert getattr(s, key).tolist()[row][col] == 1e30
    # past float range, both refuse it with one message
    args, data = three_node_scenario(**{key: (row, col, -(10**400))})
    for build in (lambda: NetworkScenario(**args), lambda: scenario_from_dict(data)):
        with pytest.raises(ValueError, match=f"^{key} hold an integer past float range$"):
            build()


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
metric_values = st.floats(min_value=0.0, allow_infinity=False)
lengths = st.integers(1, 10**6) | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
SCENARIO_FAULTS = [None, "metric", "repeat", "self-loop", "endpoint", "coordinate", "seed", "area_side", "radio_range"]


@st.composite
def scenario_arguments(draw):
    """NetworkScenario's arguments for 2-9 nodes and up to 24 distinct links
    in any order, with at most one fault in the values: a metric that is
    negative or not finite, a repeated link, a self-loop, an endpoint
    outside 0..n-1, a coordinate that is not finite, a negative seed, or an
    area side or radio range that is not positive and finite."""
    n = draw(st.integers(2, 9))
    positions = draw(st.lists(st.lists(finite_floats, min_size=2, max_size=2), min_size=n, max_size=n))
    pairs = [[a, b] for a in range(n) for b in range(n) if a != b]
    fault = draw(st.sampled_from(SCENARIO_FAULTS))
    links = draw(st.lists(st.sampled_from(pairs), unique_by=tuple, min_size=fault == "repeat", max_size=24))
    metrics = draw(st.lists(st.lists(metric_values, min_size=3, max_size=3), min_size=len(links), max_size=len(links)))
    args = {
        "seed": draw(st.integers(0, 2**64)),
        "area_side": draw(lengths),
        "radio_range": draw(lengths),
        "positions": positions,
        "links": links,
        "metrics": metrics,
    }
    if fault in ("repeat", "self-loop", "endpoint"):
        if fault == "repeat":
            k = draw(st.integers(0, len(links) - 1))
            link = links[k]
            at = draw(st.integers(k + 1, len(links)))
        else:
            at = draw(st.integers(0, len(links)))
            v = draw(st.integers(0, n - 1))
            link = [v, v]
            if fault == "endpoint":
                # or past int64, where numpy holds no endpoint as an int64
                past = st.sampled_from([2**63, 10**30, -(2**63) - 1])
                link[draw(st.integers(0, 1))] = draw(st.integers(-(2**63), -1) | st.integers(n, 2**63 - 1) | past)
        links.insert(at, list(link))
        metrics.insert(at, draw(st.lists(metric_values, min_size=3, max_size=3)))
    elif fault == "metric" and links:
        row = draw(st.sampled_from(metrics))
        row[draw(st.integers(0, 2))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(max_value=-1e-300))
    elif fault == "coordinate":
        draw(st.sampled_from(positions))[draw(st.integers(0, 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif fault == "seed":
        args["seed"] = draw(st.integers(max_value=-1))
    elif fault in ("area_side", "radio_range"):
        args[fault] = draw(st.sampled_from([0, 0.0, -0.0, math.nan, math.inf, -math.inf]) | st.floats(max_value=-1e-300) | st.integers(max_value=-1))
    return args


@settings(max_examples=300, deadline=None)
@given(scenario_arguments())
@example(args=three_node_scenario(metrics=(2, 1, math.nan))[0])
# a length past float range is not a finite number, hand-built or in a file
@example(args=three_node_scenario(area_side=10**400)[0])
@example(args=three_node_scenario(radio_range=-(10**400))[0])
def test_scenario_builds_exactly_when_the_loader_reads_it(tmp_path_factory, args):
    # the one link contract: NetworkScenario and the file reader refuse the
    # same values with the same message, and what builds saves, as the dict
    # encoded whole, and loads back
    data = scenario_dict(**args)
    try:
        expected = scenario_from_dict(data)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            NetworkScenario(**args)
        assert str(raised.value) == str(error)
        return
    s = NetworkScenario(**args)
    assert s == expected
    path = tmp_path_factory.mktemp("contract") / "s.json"
    save_scenario(s, path)
    assert path.read_bytes() == (json.dumps(scenario_to_dict(s)) + "\n").encode()
    assert load_scenario(path) == s


# --- malformed files -----------------------------------------------------------


def grid9_v2_dict():
    """The 9-node grid as a format-2 object, one list per column."""
    return scenario_to_dict(generate_scenario(9, placement="grid", seed=0))


def grid9_dict():
    """The 9-node grid laid out as format 1, one object per node and link."""
    return v1_objects(grid9_v2_dict())


REGENERATE = (
    "unsupported scenario format version 1; "
    "regenerate the file with meshroute gen (same --nodes, --placement, --seed, --range)"
)


def test_load_refuses_format_1_with_a_hint_to_regenerate():
    with pytest.raises(ValueError) as error:
        scenario_from_dict(grid9_dict())
    assert str(error.value) == REGENERATE


@pytest.mark.parametrize(
    "table, value, kind",
    [("nodes", [], "list"), ("links", [{"from": 0, "to": 1}], "list"), ("nodes", 5, "int"), ("links", "x", "str")],
)
def test_load_names_a_table_that_is_not_an_object(table, value, kind):
    d = grid9_v2_dict()
    d[table] = value
    message = f"malformed scenario: '{table}' must be a JSON object of columns, not {kind}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(d)


def test_v2_file_layout(tmp_path):
    s = generate_scenario(9, placement="grid", seed=0)
    save_scenario(s, tmp_path / "s.json")
    data = json.loads((tmp_path / "s.json").read_text())
    assert data["version"] == 2
    assert data["nodes"] == {"x_m": s.positions[:, 0].tolist(), "y_m": s.positions[:, 1].tolist()}
    assert list(data["links"]) == ["from", "to", "throughput_mbps", "delay_ms", "jitter_ms"]
    assert data["links"]["from"] == s.links[:, 0].tolist()
    assert data["links"]["jitter_ms"] == s.metrics[:, 2].tolist()


def test_load_v2_sorts_links_given_out_of_order():
    # format 2 has no node ids to misorder; its rows may come in any order
    d = grid9_v2_dict()
    expected = scenario_from_dict(d)
    for column in d["links"].values():
        column.reverse()
    assert scenario_from_dict(d) == expected


@pytest.mark.parametrize("end, node", [("to", 50), ("to", 9), ("from", -1)])
def test_load_v2_rejects_link_endpoint_out_of_range(end, node):
    d = grid9_v2_dict()
    d["links"][end][4] = node
    with pytest.raises(ValueError, match="outside 0..8"):
        scenario_from_dict(d)


def test_load_v2_rejects_self_loop():
    d = grid9_v2_dict()
    d["links"]["to"][0] = d["links"]["from"][0]
    with pytest.raises(ValueError, match="self-loop"):
        scenario_from_dict(d)


def test_load_v2_rejects_duplicate_link():
    d = grid9_v2_dict()
    for column in d["links"].values():
        column.append(column[5])
    with pytest.raises(ValueError, match="duplicate link"):
        scenario_from_dict(d)


@pytest.mark.parametrize("key", ["throughput_mbps", "delay_ms", "jitter_ms"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
def test_load_v2_rejects_bad_metric(key, value):
    d = grid9_v2_dict()
    d["links"][key][2] = value
    with pytest.raises(ValueError, match="negative or not finite"):
        scenario_from_dict(d)


@pytest.mark.parametrize("where, key", [("top", "seed"), ("top", "links"), ("node", "x_m"), ("link", "delay_ms")])
def test_load_v2_rejects_missing_key(where, key):
    d = grid9_v2_dict()
    holder = {"top": d, "node": d["nodes"], "link": d["links"]}[where]
    del holder[key]
    with pytest.raises(ValueError, match=f"required key '{key}'"):
        scenario_from_dict(d)


def test_load_v2_rejects_ragged_columns():
    d = grid9_v2_dict()
    d["links"]["to"].pop()
    with pytest.raises(ValueError, match="links column 'to' has 23 entries, 'from' has 24"):
        scenario_from_dict(d)
    d = grid9_v2_dict()
    d["nodes"]["y_m"].append(0.0)
    with pytest.raises(ValueError, match="nodes column 'y_m' has 10 entries"):
        scenario_from_dict(d)


def test_load_v2_rejects_column_that_is_not_a_list():
    d = grid9_v2_dict()
    d["links"]["delay_ms"] = 5.0
    with pytest.raises(ValueError, match="links column 'delay_ms' must be a list"):
        scenario_from_dict(d)


def test_load_v2_rejects_v1_layout():
    d = grid9_dict()
    d["version"] = 2
    with pytest.raises(ValueError, match="malformed scenario"):
        scenario_from_dict(d)


def test_load_v2_accepts_zero_metrics():
    d = grid9_v2_dict()
    for key in ("throughput_mbps", "delay_ms", "jitter_ms"):
        d["links"][key][0] = 0.0
    assert scenario_from_dict(d).metrics[0].tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("version", [True, 1.0, "2", None])
def test_load_rejects_version_that_is_not_an_integer(version):
    d = grid9_v2_dict()
    d["version"] = version
    with pytest.raises(ValueError, match="unsupported scenario format version"):
        scenario_from_dict(d)


# --- values that used to be coerced: format 2 reads them, format 1 is refused --


def set_entry(d, table, row, key, value):
    """Set one node or link field of a format-1 or format-2 object."""
    if d["version"] == 1:
        d[table][row][key] = value
    else:
        d[table][key][row] = value


def grid9_in(version):
    return grid9_dict() if version == 1 else grid9_v2_dict()


def refusal(version, message):
    """What the loader says of a fault in a file of this version: a format-1
    file is refused with the hint before any field in it is read."""
    return f"^{re.escape(REGENERATE)}$" if version == 1 else message


COERCED = [
    ("links", 0, "from", 0.9, r"link 0 has 'from' 0\.9, not an integer"),
    ("links", 0, "to", True, r"link 0 has 'to' True, not an integer"),
    ("links", 3, "to", "1", r"link 3 has 'to' '1', not an integer"),
    ("links", 2, "throughput_mbps", "1.5", r"link 2 has 'throughput_mbps' '1\.5', not a number"),
    ("links", 2, "delay_ms", False, r"link 2 has 'delay_ms' False, not a number"),
    ("nodes", 4, "x_m", "nan", r"node 4 has 'x_m' 'nan', not a number"),
    ("nodes", 4, "y_m", None, r"node 4 has 'y_m' None, not a number"),
]


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("table, row, key, value, message", COERCED)
def test_load_rejects_values_it_used_to_coerce(version, table, row, key, value, message):
    d = grid9_in(version)
    set_entry(d, table, row, key, value)
    with pytest.raises(ValueError, match=refusal(version, message)):
        scenario_from_dict(d)


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["x_m", "y_m"])
def test_load_rejects_coordinate_not_finite(version, value, key):
    d = grid9_in(version)
    set_entry(d, "nodes", 6, key, value)
    with pytest.raises(ValueError, match=refusal(version, "node 6 has a coordinate that is not finite")):
        scenario_from_dict(d)


@pytest.mark.parametrize("version", [1, 2])
def test_load_names_endpoint_past_int64_as_out_of_range(version):
    d = grid9_in(version)
    set_entry(d, "links", 1, "to", 10**30)
    with pytest.raises(ValueError, match=refusal(version, f"-> {10**30} has an endpoint outside 0..8")):
        scenario_from_dict(d)


@pytest.mark.parametrize("version", [1, 2])
def test_load_rejects_metric_past_float_range(version):
    d = grid9_in(version)
    set_entry(d, "links", 1, "delay_ms", 10**400)
    with pytest.raises(ValueError, match=refusal(version, "^metrics hold an integer past float range$")):
        scenario_from_dict(d)


SCALARS = [
    ("seed", 1.7, r"scenario 'seed' is 1\.7, not an integer"),
    ("seed", True, r"scenario 'seed' is True, not an integer"),
    ("area_side_m", "12", r"scenario 'area_side_m' is '12', not a finite number"),
    ("area_side_m", math.inf, r"scenario 'area_side_m' is inf, not a finite number"),
    ("radio_range_m", True, r"scenario 'radio_range_m' is True, not a finite number"),
    ("radio_range_m", None, r"scenario 'radio_range_m' is None, not a finite number"),
]


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("key, value, message", SCALARS)
def test_load_rejects_scalar_it_used_to_coerce(version, key, value, message):
    d = grid9_in(version)
    d[key] = value
    with pytest.raises(ValueError, match=refusal(version, message)):
        scenario_from_dict(d)


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seed", -3, r"scenario 'seed' is -3, which is negative"),
        ("area_side_m", 0, r"scenario 'area_side_m' is 0, which is not positive"),
        ("area_side_m", -1.5, r"scenario 'area_side_m' is -1\.5, which is not positive"),
        ("radio_range_m", 0.0, r"scenario 'radio_range_m' is 0\.0, which is not positive"),
        ("radio_range_m", -5, r"scenario 'radio_range_m' is -5, which is not positive"),
    ],
)
def test_load_rejects_scalar_generate_scenario_never_writes(version, key, value, message):
    # generate_scenario refuses a radio range that is not positive, its
    # area side is positive for every node count it takes, and
    # numpy.random.default_rng refuses a negative seed
    d = grid9_in(version)
    d[key] = value
    with pytest.raises(ValueError, match=refusal(version, message)):
        scenario_from_dict(d)


@pytest.mark.parametrize("version", [1, 2])
def test_load_keeps_integer_lengths_as_floats(version):
    d = grid9_in(version)
    d.update(area_side_m=400, radio_range_m=250)
    if version == 1:
        with pytest.raises(ValueError, match=f"^{re.escape(REGENERATE)}$"):
            scenario_from_dict(d)
        return
    s = scenario_from_dict(d)
    assert (type(s.area_side), type(s.radio_range)) == (float, float)
    assert s == generate_scenario(9, placement="grid", seed=0)


# --- files against the link-by-link reference reader ---------------------------


def cost_hexes(scenario):
    return [[(u, w.hex()) for u, w in out] for out in build_cost_matrix(scenario).links]


@pytest.mark.parametrize(
    "n, placement, seed",
    [(n, placement, seed) for n, placement, seeds in GOLDEN_CASES for seed in seeds],
)
def test_file_loads_as_the_link_by_link_reader_reads_it(n, placement, seed, tmp_path):
    s = generate_scenario(n, placement=placement, seed=seed)
    path = tmp_path / "s.json"
    save_scenario(s, path)
    loaded = load_scenario(path)
    assert loaded == s
    assert loaded == v1_scenario_from_dict(v1_objects(json.loads(path.read_text())))
    assert cost_hexes(loaded) == cost_hexes(s)


def test_shuffled_file_loads_sorted_and_resaves_identically(tmp_path):
    s = generate_scenario(100, placement="random", seed=5)
    d = scenario_to_dict(s)
    # the rows are permuted together, one link at a time
    rows = list(zip(*d["links"].values()))
    np.random.default_rng(0).shuffle(rows)
    d["links"] = dict(zip(d["links"], map(list, zip(*rows))))
    assert [list(row[:2]) for row in rows] != s.links.tolist()
    loaded = scenario_from_dict(d)
    assert loaded == s
    save_scenario(loaded, tmp_path / "a.json")
    save_scenario(s, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def as_columns(d):
    """A format-1 object's nodes and links laid out as format-2 columns, in
    the same order."""
    return {
        **d,
        "version": 2,
        "nodes": {key: [node[key] for node in d["nodes"]] for key in NODE_COLUMNS},
        "links": {key: [link[key] for link in d["links"]] for key in LINK_COLUMNS},
    }


def assert_named_as_the_reference_names_it(columns, objects):
    with pytest.raises(ValueError) as reference:
        v1_scenario_from_dict(objects)
    with pytest.raises(ValueError, match=f"^{re.escape(str(reference.value))}$"):
        scenario_from_dict(columns)


ONE_FAULT = (
    [pytest.param(4, {end: node}, id=f"{end}-{node}") for end, node in [("to", 50), ("to", 9), ("from", -1)]]
    + [pytest.param(1, {"to": 10**30}, id="to-past-int64")]
    + [pytest.param(0, {"to": 0}, id="self-loop")]
    + [
        pytest.param(2, {key: value}, id=f"{key}-{value}")
        for value in [math.nan, math.inf, -0.5]
        for key in ["throughput_mbps", "delay_ms", "jitter_ms"]
    ]
)


@pytest.mark.parametrize("row, fields", ONE_FAULT)
def test_one_link_fault_named_as_the_link_by_link_reader_names_it(row, fields):
    # the format-2 twins above match a part of the message; this checks all of it
    d = grid9_dict()
    d["links"][row].update(fields)
    assert_named_as_the_reference_names_it(as_columns(d), d)


def test_duplicate_link_named_as_the_link_by_link_reader_names_it():
    d = grid9_dict()
    d["links"].append(dict(d["links"][5]))
    assert_named_as_the_reference_names_it(as_columns(d), d)


@pytest.mark.parametrize("where, key", [("top", "seed"), ("top", "links"), ("node", "x_m"), ("link", "delay_ms")])
def test_missing_key_named_as_the_link_by_link_reader_names_it(where, key):
    # format 2 loses a whole column where format 1 loses one field of a row
    columns, objects = grid9_v2_dict(), grid9_dict()
    holders = {
        "top": (columns, objects),
        "node": (columns["nodes"], objects["nodes"][1]),
        "link": (columns["links"], objects["links"][1]),
    }[where]
    for holder in holders:
        del holder[key]
    assert_named_as_the_reference_names_it(columns, objects)


def test_zero_metrics_load_as_the_link_by_link_reader_loads_them():
    d = grid9_dict()
    d["links"][0].update(throughput_mbps=0.0, delay_ms=0.0, jitter_ms=0.0)
    loaded = scenario_from_dict(as_columns(d))
    assert loaded == v1_scenario_from_dict(d)
    assert loaded.metrics[0].tolist() == [0.0, 0.0, 0.0]


FAULTS = {
    "outside": lambda link, n: link.update({"to": n + 3}),
    "negative": lambda link, n: link.update({"from": -1}),
    "self-loop": lambda link, n: link.update({"to": link["from"]}),
    "outside-loop": lambda link, n: link.update({"from": n + 3, "to": n + 3}),
    "metric": lambda link, n: link.update({"jitter_ms": -1.0}),
    "nan": lambda link, n: link.update({"delay_ms": math.nan}),
}


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(sorted(FAULTS) + ["duplicate"]), st.integers(0, 23), st.integers(0, 23)),
        min_size=1,
        max_size=4,
    ),
    st.randoms(use_true_random=False),
)
def test_first_fault_named_as_the_link_by_link_reader_names_it(faults, random):
    d = grid9_dict()
    random.shuffle(d["links"])
    for name, at, other in faults:
        if name == "duplicate":
            d["links"].insert(max(at, other) + 1, dict(d["links"][min(at, other)]))
        else:
            FAULTS[name](d["links"][at], 9)
    assert_named_as_the_reference_names_it(as_columns(d), d)


@pytest.mark.parametrize("version", [1, 2])
def test_repeat_flags_the_later_copy_in_a_large_file(version):
    # links 0..999 come back at the end and link 1000 has a bad metric
    # between the copies: the bad metric is met first, so the sort that finds
    # repeats must keep every pair of copies in file order
    d = scenario_to_dict(generate_scenario(2500, placement="grid", seed=0))
    for column in d["links"].values():
        column += column[:1000]
    d["links"]["delay_ms"][1000] = -1.0
    if version == 1:
        d = v1_objects(d)
    message = r"^link 265 -> 264 has a metric that is negative or not finite$"
    with pytest.raises(ValueError, match=refusal(version, message)):
        scenario_from_dict(d)
