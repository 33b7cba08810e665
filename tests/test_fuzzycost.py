"""Fuzzy link-cost evaluator: memberships, rule table, centroid, cost matrix."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshroute.fuzzycost import (
    ILC_FLOOR,
    OUT_SAMPLES,
    RULE_TABLE,
    SAMPLE_OFFSETS,
    CostMatrix,
    build_cost_matrix,
    consequent_of,
    evaluate_ilc,
    exact_row_sums,
    ilc_costs,
    input_memberships,
    normalize_inputs,
)
from meshroute.topology import METRIC_HIGH, METRIC_LOW, NetworkScenario, generate_scenario

from helpers import dense_adjacency, dense_costs, link_cost, out_neighbors, traced_peak_bytes

LATTICE = np.linspace(0.0, 1.0, 11)

unit_floats = st.floats(min_value=0.0, max_value=1.0)

# (nodes, placement, seeds) on which cost matrices must match the reference exactly
GOLDEN_CASES = [
    (25, "grid", (0, 1, 42)),
    (100, "grid", (0, 101, 102)),
    (400, "grid", (0, 101)),
    (100, "random", (0, 5, 101)),
    (400, "random", (0, 101)),
    (2500, "grid", (101,)),
]


def reference_weights(throughput_n, delay_n, jitter_n):
    """One link's five output-level weights by the 27-rule loop."""
    peaks = np.array([0.0, 0.5, 1.0])
    mt, md, mj = (np.maximum(0.0, 1.0 - np.abs(x - peaks) / 0.5) for x in (throughput_n, delay_n, jitter_n))
    weights = np.zeros(5)
    for i in range(3):
        if mt[i] == 0.0:
            continue
        for j in range(3):
            wij = mt[i] * md[j]
            if wij == 0.0:
                continue
            for k in range(3):
                w = wij * mj[k]
                if w > 0.0:
                    weights[RULE_TABLE[i, j, k]] += w
    return weights


def reference_ilc(throughput_n, delay_n, jitter_n):
    """One link at a time: the 27-rule loop, a vector-matrix product, two fsums."""
    mu = reference_weights(throughput_n, delay_n, jitter_n) @ OUT_SAMPLES
    total = math.fsum(mu)
    offset = math.fsum((idx - 50) * m for idx, m in enumerate(mu))
    return max(0.5 + offset / (100.0 * total), ILC_FLOOR)


def reference_cost_matrix(scenario):
    """Link-by-link scoring into a dense matrix, neighbour lists by per-row scans."""
    n = scenario.n
    values = np.full((n, n), np.nan)
    for (src, dst), raw in zip(scenario.links.tolist(), scenario.metrics.tolist()):
        t, d, j = (
            min(1.0, max(0.0, (x - lo) / (hi - lo))) for x, lo, hi in zip(raw, METRIC_LOW, METRIC_HIGH)
        )
        values[src, dst] = reference_ilc(t, d, j)
    adjacency = np.isfinite(values)
    neighbors = tuple(tuple(np.nonzero(adjacency[i])[0].tolist()) for i in range(n))
    return values, adjacency, neighbors


def reference_from_arrays(n, src, dst, costs):
    """CostMatrix.from_arrays as it was on dense (n, n) fields: the links it
    built. A repeated link keeps the cost numpy's repeated fancy-index
    assignment leaves, which is the last one in practice."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    loops = np.flatnonzero(src == dst)
    if len(loops):
        raise ValueError(f"self-loop cost at node {src[loops[0]]}")
    if len(src) and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        raise ValueError(f"link endpoint outside 0..{n - 1}")
    values = np.full((n, n), np.nan)
    values[src, dst] = costs
    linked = np.isfinite(values[src, dst])
    keys = np.sort(src[linked] * n + dst[linked])
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if len(keys) else keys
    heads, tails = np.divmod(keys, n)
    ends = np.cumsum(np.bincount(heads, minlength=n)).tolist()
    pairs = list(zip(tails.tolist(), values.reshape(-1)[keys].tolist()))
    return tuple(tuple(pairs[a:b]) for a, b in zip([0] + ends, ends))


def test_input_memberships_partition():
    for x in LATTICE:
        m = input_memberships(float(x))
        assert m.shape == (3,)
        assert (m >= 0).all() and (m <= 1).all()
        assert sum(m) == pytest.approx(1.0)


def test_input_memberships_peaks():
    assert list(input_memberships(0.0)) == [1.0, 0.0, 0.0]
    assert list(input_memberships(0.5)) == [0.0, 1.0, 0.0]
    assert list(input_memberships(1.0)) == [0.0, 0.0, 1.0]


@pytest.mark.parametrize(
    "levels,expected",
    [((2, 0, 0), 0), ((0, 2, 2), 4), ((1, 1, 1), 2), ((2, 2, 2), 3), ((0, 0, 0), 1)],
)
def test_consequent_of(levels, expected):
    assert consequent_of(*levels) == expected


def test_rule_table_matches_score_rule():
    assert RULE_TABLE.shape == (3, 3, 3)
    for i, j, k in np.ndindex(RULE_TABLE.shape):
        assert RULE_TABLE[i, j, k] == consequent_of(i, j, k)


def test_normalize_endpoints_and_midpoint():
    t, d, j = normalize_inputs(2.0, 50.5, 25.0)
    assert t == 1.0
    assert d == pytest.approx(0.5)
    assert j == 1.0  # 25 ms clamps at the 20 ms jitter ceiling


def test_normalize_clamps_below():
    t, d, j = normalize_inputs(0.0, 0.0, -1.0)
    assert (t, d, j) == (0.0, 0.0, 0.0)


def test_ilc_all_medium_is_half():
    assert evaluate_ilc(0.5, 0.5, 0.5) == 0.5


def test_ilc_best_link():
    # analytic centroid of the very-low triangle (0, 0, 0.25) is 0.25/3
    assert evaluate_ilc(1.0, 0.0, 0.0) == pytest.approx(0.25 / 3, abs=0.01)


def test_ilc_worst_link():
    assert evaluate_ilc(0.0, 1.0, 1.0) == pytest.approx(1.0 - 0.25 / 3, abs=0.01)


def test_ilc_rejects_out_of_range():
    with pytest.raises(ValueError):
        evaluate_ilc(1.2, 0.0, 0.0)
    with pytest.raises(ValueError):
        evaluate_ilc(0.5, -0.1, 0.0)


def test_ilc_monotone_on_lattice():
    for d in LATTICE:
        for j in LATTICE:
            costs = [evaluate_ilc(float(t), float(d), float(j)) for t in LATTICE]
            assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))
    for t in LATTICE:
        for j in LATTICE:
            costs = [evaluate_ilc(float(t), float(d), float(j)) for d in LATTICE]
            assert all(b >= a - 1e-9 for a, b in zip(costs, costs[1:]))
        for d in LATTICE:
            costs = [evaluate_ilc(float(t), float(d), float(j)) for j in LATTICE]
            assert all(b >= a - 1e-9 for a, b in zip(costs, costs[1:]))


def test_ilc_mirror_symmetry():
    for t in LATTICE:
        for d in LATTICE:
            for j in LATTICE[::2]:
                lhs = evaluate_ilc(float(t), float(d), float(j))
                rhs = 1.0 - evaluate_ilc(float(1 - t), float(1 - d), float(1 - j))
                assert lhs == pytest.approx(rhs, abs=0.02)


@given(unit_floats, unit_floats, unit_floats)
@settings(max_examples=200)
def test_ilc_range_property(t, d, j):
    v = evaluate_ilc(t, d, j)
    assert ILC_FLOOR <= v <= 1.0


@given(unit_floats, unit_floats, unit_floats)
@settings(max_examples=300)
def test_ilc_matches_reference_property(t, d, j):
    assert evaluate_ilc(t, d, j) == reference_ilc(t, d, j)


def test_ilc_batch_matches_reference_on_lattice():
    grid = np.array([(t, d, j) for t in LATTICE for d in LATTICE for j in LATTICE])
    expected = [reference_ilc(*row) for row in grid.tolist()]
    assert ilc_costs(grid).tolist() == expected


@st.composite
def aggregates(draw):
    """One link's 101 aggregate samples from five output-level weights: any
    weights, mirror-symmetric ones (offset exactly 0), a single non-zero
    level, or the weights of an input-lattice point; scaled down as far as
    subnormal samples."""
    kind = draw(st.sampled_from(("any", "mirror", "single", "lattice")))
    if kind == "any":
        weights = draw(st.lists(st.floats(0.0, 3.0), min_size=5, max_size=5))
    elif kind == "mirror":
        a, b, c = draw(st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3))
        weights = [a, b, c, b, a]
    elif kind == "single":
        weights = [0.0] * 5
        weights[draw(st.integers(0, 4))] = draw(st.floats(0.0, 3.0))
    else:
        weights = reference_weights(*(draw(st.sampled_from(LATTICE.tolist())) for _ in range(3)))
    scale = draw(st.sampled_from((1.0, 1e-300, 1e-310, 5e-324)))
    return (np.asarray(weights) * scale) @ OUT_SAMPLES


@st.composite
def near_ties(draw):
    """Rows whose exact sum sits a hair off a rounding tie: x, half an ulp of
    x and a far smaller nudge either way, in shuffled sample positions. A
    float sum of the rounding errors lands on the tie, so only a correctly
    rounded sum gets these right."""
    x = draw(st.floats(1e-200, 1e200))
    half_ulp = math.ulp(x) / 2
    nudge = draw(st.sampled_from((1.0, -1.0))) * half_ulp * 2.0**-draw(st.integers(1, 60))
    row = np.zeros(101)
    row[draw(st.lists(st.integers(0, 100), min_size=3, max_size=3, unique=True))] = (x, half_ulp, nudge)
    return row


def fsum_hex(rows):
    return [math.fsum(row).hex() for row in np.asarray(rows).tolist()]


@given(st.lists(aggregates(), max_size=4))
@settings(max_examples=300)
def test_exact_row_sums_equal_fsum_on_aggregates(mus):
    """Both centroid sums of every link, as ilc_costs stacks them."""
    mu = np.array(mus).reshape(-1, 101)
    rows = np.concatenate((mu, mu * SAMPLE_OFFSETS))
    assert [v.hex() for v in exact_row_sums(rows).tolist()] == fsum_hex(rows)


@given(st.lists(near_ties(), min_size=1, max_size=3))
@settings(max_examples=200)
def test_exact_row_sums_equal_fsum_near_ties(rows):
    assert [v.hex() for v in exact_row_sums(np.array(rows)).tolist()] == fsum_hex(rows)


def test_exact_row_sums_edge_cases():
    assert exact_row_sums(np.empty((0, 101))).shape == (0,)
    assert ilc_costs(np.empty((0, 3))).shape == (0,)
    # float addition of the rounding errors rounds 2**-53 + 2**-106 down to
    # the tie 2**-53, and 1 + 2**-53 rounds to even; the exact sum rounds up
    row = np.zeros((1, 101))
    row[0, :3] = (1.0, 2.0**-53, 2.0**-106)
    assert exact_row_sums(row).tolist() == [1.0 + 2.0**-52]


def test_ilc_batch_rejects_out_of_range_row():
    rows = np.array([[0.2, 0.3, 0.4], [0.5, 0.5, 1.5]])
    with pytest.raises(ValueError, match="normalized jitter out of"):
        ilc_costs(rows)


def test_ilc_purity():
    assert evaluate_ilc(0.3, 0.7, 0.2) == evaluate_ilc(0.3, 0.7, 0.2)


def test_cost_matrix_from_grid(grid25):
    _, cm, _ = grid25
    assert cm.n == 25
    defined = int(dense_adjacency(cm).sum())
    assert defined == 80
    values = dense_costs(cm)
    finite = values[np.isfinite(values)]
    assert (finite > 0).all() and (finite <= 1).all()


def test_cost_matrix_no_links():
    s = generate_scenario(4, placement="grid", seed=7, radio_range=150.0)
    cm = build_cost_matrix(s)
    assert not dense_adjacency(cm).any()
    assert cm.links == ((),) * 4


def test_identical_metrics_identical_ilc(grid25):
    scenario, cm, _ = grid25
    (src, dst), (throughput, delay, jitter) = scenario.links[0].tolist(), scenario.metrics[0].tolist()
    t, d, j = normalize_inputs(throughput, delay, jitter)
    assert link_cost(cm, src, dst) == evaluate_ilc(t, d, j)


def test_cost_matrix_entry_errors():
    cm = CostMatrix.from_entries(3, {(0, 1): 0.5})
    assert 1 in out_neighbors(cm, 0)
    assert 0 not in out_neighbors(cm, 1)
    with pytest.raises(KeyError):
        link_cost(cm, 1, 0)


def test_cost_matrix_rejects_self_loops():
    with pytest.raises(ValueError):
        CostMatrix.from_entries(2, {(1, 1): 0.3})


def test_cost_matrix_neighbor_lists():
    cm = CostMatrix.from_entries(4, {(0, 2): 0.1, (0, 1): 0.2, (3, 0): 0.4})
    assert out_neighbors(cm, 0) == (1, 2)
    assert out_neighbors(cm, 3) == (0,)
    assert cm.links == (((1, 0.2), (2, 0.1)), (), (), ((0, 0.4),))
    assert all(type(w) is float for out in cm.links for _, w in out)


def test_cost_matrix_equality_is_identity():
    a = CostMatrix.from_entries(3, {(0, 1): 0.5})
    b = CostMatrix.from_entries(3, {(0, 1): 0.5})
    assert (a == b) is False
    assert (a == a) is True


def test_cost_matrix_duplicate_and_undefined_entries():
    cm = CostMatrix.from_arrays(3, [0, 1, 0, 2], [1, 2, 1, 0], [0.2, np.nan, 0.7, 0.3])
    assert link_cost(cm, 0, 1) == 0.7
    assert 2 not in out_neighbors(cm, 1)
    assert tuple(out_neighbors(cm, v) for v in range(3)) == ((1,), (), (0,))
    assert cm.links == (((1, 0.7),), (), ((0, 0.3),))


# costs that leave no link turn up often, as the first or the last of a repeat
link_costs = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def link_arrays(draw):
    """(n, src, dst, costs) for from_arrays: 0-6 nodes, up to 14 links
    with repeats, costs as a list or one scalar, and at most one flaw: a
    self-loop, an endpoint outside 0..n-1, or one cost too many or too few."""
    n = draw(st.integers(0, 6))
    size = draw(st.integers(0, 14)) if n > 1 else 0
    src = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=size, max_size=size))
    # dst differs from src, so only the drawn flaw can make a self-loop
    dst = [(v + 1 + draw(st.integers(0, n - 2))) % n for v in src]
    costs = draw(st.lists(link_costs, min_size=size, max_size=size) | link_costs)
    flaw = draw(st.sampled_from([None, None, None, "self-loop", "endpoint", "count"]))
    if flaw == "self-loop":
        v = draw(st.integers(0, max(n - 1, 0)))
        at = draw(st.integers(0, size))
        src, dst = src[:at] + [v] + src[at:], dst[:at] + [v] + dst[at:]
        costs = costs[:at] + [draw(link_costs)] + costs[at:] if isinstance(costs, list) else costs
    elif flaw == "endpoint":
        end = draw(st.sampled_from([-1, n]))
        src, dst = (src + [end], dst + [0]) if draw(st.booleans()) else (src + [0], dst + [end])
        costs = costs + [draw(link_costs)] if isinstance(costs, list) else costs
    elif flaw == "count":
        costs = costs if isinstance(costs, list) else [costs] * size
        costs = costs + [0.5] if draw(st.booleans()) else costs[:-1]
    return n, src, dst, costs


def hexed(links):
    return [[(u, w.hex()) for u, w in out] for out in links]


@settings(max_examples=400, deadline=None)
@given(link_arrays())
@example((0, [], [], []))
@example((1, [], [], 0.5))
@example((3, [0, 0, 0], [1, 1, 1], [0.2, math.nan, 0.7]))
@example((3, [0, 0], [1, 1], [0.2, math.inf]))
@example((3, [0, 1], [2, 1], [0.2, 0.3]))
@example((3, [0, 3], [1, 0], [0.2, 0.3]))
@example((3, [0, 1], [1, 2], [0.2, 0.3, 0.4]))
def test_from_arrays_matches_dense_reference(case):
    n, src, dst, costs = case
    try:
        expected = reference_from_arrays(n, src, dst, costs)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            CostMatrix.from_arrays(n, src, dst, costs)
        # numpy words a cost-count mismatch differently in the two builds
        if not str(error).startswith("shape mismatch"):
            assert str(raised.value) == str(error)
        return
    cm = CostMatrix.from_arrays(n, src, dst, costs)
    assert hexed(cm.links) == hexed(expected)
    indptr, heads, values = cm.indptr, cm.adjacency, cm.values
    assert (indptr.dtype, heads.dtype, values.dtype) == (np.int64, np.int64, np.float64)
    assert cm.n == n and len(indptr) == n + 1 and indptr[0] == 0
    assert (np.diff(indptr) >= 0).all()
    assert indptr[-1] == len(values) == len(heads)
    for v in range(n):
        row = slice(indptr[v], indptr[v + 1])
        assert (np.diff(heads[row]) > 0).all()
        assert hexed([zip(heads[row].tolist(), values[row].tolist())]) == hexed([cm.links[v]])


def test_cost_matrix_rejects_out_of_range_endpoint():
    with pytest.raises(ValueError, match="outside 0..2"):
        CostMatrix.from_arrays(3, [0, -1], [1, 0], [0.5, 0.5])


def test_build_rejects_hand_built_self_loop():
    positions = [(0.0, 0.0), (200.0, 0.0)]
    links = [(0, 1), (1, 1)]
    metrics = [(1.0, 10.0, 2.0), (1.5, 20.0, 1.0)]
    s = NetworkScenario(seed=0, area_side=200.0, radio_range=250.0, positions=positions, links=links, metrics=metrics)
    with pytest.raises(ValueError, match="self-loop"):
        build_cost_matrix(s)


@pytest.mark.parametrize(
    "n, placement, seed",
    [(n, placement, seed) for n, placement, seeds in GOLDEN_CASES for seed in seeds],
)
def test_cost_matrix_matches_reference(n, placement, seed):
    scenario = generate_scenario(n, placement=placement, seed=seed)
    cm = build_cost_matrix(scenario)
    values, adjacency, neighbors = reference_cost_matrix(scenario)
    assert dense_costs(cm).tobytes() == values.tobytes()
    assert np.array_equal(dense_adjacency(cm), adjacency)
    assert tuple(out_neighbors(cm, v) for v in range(n)) == neighbors
    assert cm.links == tuple(
        tuple((u, float(values[v, u])) for u in neighbors[v]) for v in range(n)
    )


# the dense (n, n) fields took about 5,900 traced bytes per link at 2500 nodes
@pytest.mark.parametrize("n", [2500, 10_000])
def test_cost_matrix_build_memory_is_linear_in_links(n):
    scenario = generate_scenario(n, "grid", 0)
    cm, peak = traced_peak_bytes(lambda: build_cost_matrix(scenario))
    assert len(cm.values) == len(scenario.links)
    assert peak < 1024 * len(cm.values)
