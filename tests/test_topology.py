"""Scenario generation: grid geometry, link synthesis, serialization."""

import json
import math

import numpy as np
import pytest

from meshroute.topology import (
    DEFAULT_RADIO_RANGE_M,
    DELAY_RANGE_MS,
    GRID_SPACING_M,
    JITTER_RANGE_MS,
    MAX_PLACEMENT_RETRIES,
    REFERENCE_AREA_SIDE_M,
    REFERENCE_NODE_COUNT,
    THROUGHPUT_RANGE_MBPS,
    ConnectivityError,
    LinkObservation,
    NetworkScenario,
    NodeSite,
    _draw_metrics,
    _reachable,
    connectivity_matrix,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

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
            if _reachable(reference_adjacency(coords, radio_range), 0, n - 1):
                break
    nodes = tuple(NodeSite(i, float(coords[i, 0]), float(coords[i, 1])) for i in range(n))
    adj = reference_adjacency(coords, radio_range)
    links = []
    for i in range(n):
        for j in range(n):
            if adj[i, j]:
                throughput = rng.uniform(*THROUGHPUT_RANGE_MBPS)
                delay = rng.uniform(*DELAY_RANGE_MS)
                jitter = rng.uniform(*JITTER_RANGE_MS)
                links.append(LinkObservation(i, j, throughput, delay, jitter))
    return NetworkScenario(seed, float(area_side), float(radio_range), nodes, tuple(links))


def test_grid25_geometry():
    s = generate_scenario(25, placement="grid", seed=42)
    assert s.n == 25
    assert (s.nodes[0].x, s.nodes[0].y) == (0.0, 0.0)
    assert (s.nodes[24].x, s.nodes[24].y) == (800.0, 800.0)
    assert len(s.links) == GRID25_LINKS


def test_grid_corner_out_degree():
    # diagonal spacing 200*sqrt(2) ~ 283 m exceeds the 250 m range, so
    # corners keep exactly their two orthogonal neighbors
    s = generate_scenario(25, placement="grid", seed=0)
    out_degree = {i: 0 for i in range(25)}
    for link in s.links:
        out_degree[link.src] += 1
    for corner in (0, 4, 20, 24):
        assert out_degree[corner] == 2


@pytest.mark.parametrize("n,expected", [(25, GRID25_LINKS), (100, GRID100_LINKS)])
def test_grid_link_counts(n, expected):
    assert len(generate_scenario(n, placement="grid", seed=1).links) == expected


def test_grid_rejects_non_square():
    with pytest.raises(ValueError):
        generate_scenario(26, placement="grid", seed=0)


def test_short_range_yields_no_links():
    s = generate_scenario(4, placement="grid", seed=7, radio_range=150.0)
    assert s.links == ()


@pytest.mark.parametrize("radio_range", [0.0, -1.0, math.nan, math.inf])
def test_rejects_radio_range_not_positive_and_finite(radio_range):
    # NaN fails every comparison, so a bare `<= 0` check would let it through
    with pytest.raises(ValueError, match="radio_range"):
        generate_scenario(4, placement="grid", seed=0, radio_range=radio_range)


def test_unknown_placement():
    with pytest.raises(ValueError):
        generate_scenario(25, placement="ring", seed=0)


def test_generation_is_deterministic():
    a = generate_scenario(25, placement="grid", seed=42)
    b = generate_scenario(25, placement="grid", seed=42)
    assert scenario_to_dict(a) == scenario_to_dict(b)


def test_seed_changes_metrics():
    a = generate_scenario(25, placement="grid", seed=1)
    b = generate_scenario(25, placement="grid", seed=2)
    differs = any(
        la.throughput != lb.throughput for la, lb in zip(a.links, b.links)
    )
    assert differs


def test_metric_ranges():
    s = generate_scenario(25, placement="grid", seed=9)
    for link in s.links:
        assert 0.2 <= link.throughput <= 2.0
        assert 1.0 <= link.delay <= 100.0
        assert 0.0 <= link.jitter <= 20.0


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
    observed = {(l.src, l.dst) for l in s.links}
    expected = {(i, j) for i in range(25) for j in range(25) if adj[i, j]}
    assert observed == expected


def test_random_placement_connects_endpoints():
    s = generate_scenario(25, placement="random", seed=3)
    # breadth-first reachability over the directed link set
    out = {i: [] for i in range(s.n)}
    for link in s.links:
        out[link.src].append(link.dst)
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
    for node in s.nodes:
        assert 0.0 <= node.x <= s.area_side
        assert 0.0 <= node.y <= s.area_side


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


def test_scenario_file_is_byte_stable(tmp_path):
    s = generate_scenario(25, placement="grid", seed=42)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_scenario(s, p1)
    save_scenario(s, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_scenario_version_check():
    s = generate_scenario(9, placement="grid", seed=0)
    d = scenario_to_dict(s)
    d["version"] = 99
    with pytest.raises(ValueError):
        scenario_from_dict(d)


def grid9_dict():
    return scenario_to_dict(generate_scenario(9, placement="grid", seed=0))


def test_load_rejects_node_ids_not_in_order():
    d = grid9_dict()
    d["nodes"][3]["id"] = 7
    with pytest.raises(ValueError, match="ids must be 0..n-1"):
        scenario_from_dict(d)


@pytest.mark.parametrize("end, node", [("to", 50), ("to", 9), ("from", -1)])
def test_load_rejects_link_endpoint_out_of_range(end, node):
    d = grid9_dict()
    d["links"][4][end] = node
    with pytest.raises(ValueError, match="outside 0..8"):
        scenario_from_dict(d)


def test_load_rejects_self_loop():
    d = grid9_dict()
    d["links"][0]["to"] = d["links"][0]["from"]
    with pytest.raises(ValueError, match="self-loop"):
        scenario_from_dict(d)


def test_load_rejects_duplicate_link():
    d = grid9_dict()
    d["links"].append(dict(d["links"][5]))
    with pytest.raises(ValueError, match="duplicate link"):
        scenario_from_dict(d)


@pytest.mark.parametrize("key", ["throughput_mbps", "delay_ms", "jitter_ms"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
def test_load_rejects_bad_metric(key, value):
    d = grid9_dict()
    d["links"][2][key] = value
    with pytest.raises(ValueError, match="negative or not finite"):
        scenario_from_dict(d)


@pytest.mark.parametrize("where, key", [("top", "seed"), ("top", "links"), ("node", "x_m"), ("link", "delay_ms")])
def test_load_rejects_missing_key(where, key):
    d = grid9_dict()
    holder = {"top": d, "node": d["nodes"][1], "link": d["links"][1]}[where]
    del holder[key]
    with pytest.raises(ValueError, match=f"required key '{key}'"):
        scenario_from_dict(d)


def test_load_rejects_non_object():
    with pytest.raises(ValueError, match="JSON object"):
        scenario_from_dict([1, 2, 3])


def test_load_accepts_zero_metrics():
    d = grid9_dict()
    d["links"][0].update(throughput_mbps=0.0, delay_ms=0.0, jitter_ms=0.0)
    assert scenario_from_dict(d).links[0].delay == 0.0


def test_scenario_links_sorted_in_file(tmp_path):
    s = generate_scenario(25, placement="grid", seed=4)
    path = tmp_path / "s.json"
    save_scenario(s, path)
    data = json.loads(path.read_text())
    pairs = [(l["from"], l["to"]) for l in data["links"]]
    assert pairs == sorted(pairs)


def test_manual_scenario_construction():
    nodes = (NodeSite(0, 0.0, 0.0), NodeSite(1, 200.0, 0.0))
    links = (
        LinkObservation(0, 1, 1.0, 10.0, 2.0),
        LinkObservation(1, 0, 1.5, 20.0, 1.0),
    )
    s = NetworkScenario(seed=0, area_side=200.0, radio_range=250.0, nodes=nodes, links=links)
    assert s.n == 2
    assert s.positions().shape == (2, 2)
