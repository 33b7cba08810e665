"""Fuzzy link-cost evaluator: memberships, rule table, centroid, cost matrix."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from meshroute.fuzzycost import (
    ILC_FLOOR,
    RULE_TABLE,
    CostMatrix,
    _centroids,
    _memberships,
    _normalize,
    build_cost_matrix,
    consequent_of,
    evaluate_ilc,
    ilc_costs,
)
from meshroute.topology import (
    _MAX_NODES,
    METRIC_HIGH,
    METRIC_LOW,
    NetworkScenario,
    _link_order,
    generate_scenario,
    scenario_from_dict,
)

from helpers import dense_adjacency, dense_costs, from_entries, link_cost, out_neighbors, traced_peak_bytes

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


# the output sets' samples at x = j / 100 as floats, computed as the
# defuzzifier did before it took the closed form, and exactly
OUT_SAMPLES = np.maximum(0.0, 1.0 - np.abs(np.arange(101) - 25 * np.arange(5)[:, None]) / 25.0)
EXACT_SAMPLES = [[Fraction(max(0, 25 - abs(j - 25 * o)), 25) for j in range(101)] for o in range(5)]
# each output set's mass and first moment about the grid midpoint, in samples
LEVEL_MASS = (13, 25, 25, 25, 13)
LEVEL_MOMENT = (-546, -625, 0, 625, 546)

U = 2.0**-53  # unit roundoff
# how far a cost may lie from the exact centroid of its weights: the
# closed form's bound is derived in the fuzzycost module docstring, the
# sampled pipeline's in sampled_centroid's
CLOSED_FORM_BOUND = 4.3 * U
SAMPLED_BOUND = 6.0 * U


def sampled_centroid(weights):
    """The 101-sample centroid of five output-level weights as it was
    computed before the closed form: a vector-matrix aggregate of the float
    samples and two correctly rounded sums, floored at ILC_FLOOR.

    Its error bound, first order in u = 2**-53 (second-order terms are far
    below the slack): a float sample of level o is (25 - k) / 25 with
    k = |j - 25 o| <= 24 off by at most u (the division rounds, and the
    subtraction from 1 is exact for k >= 13 and rounds by u / 2 below), and
    is exactly 0 off the set's N_o = 25 or 49 samples. An aggregate sample
    sums at most two non-zero products, two roundings, so it is within
    sum_o w_o (u + 2 u s_o(j)) of exact. With N_o <= 1.96 S_o and the sum's
    own rounding, the mass is within (1.96 + 2 + 1) u T of its exact value
    T. For the offset, A_o = sum of |j - 50| over the set's samples (950,
    1225, 600, at most 73.1 S_o) and F_o = sum_j |j - 50| s_o(j) (546, 625,
    208, at most 42 S_o): the sample errors add 73.1 u T + 2 * 42 u T, the
    products by j - 50 another 42 u T and the rounded sum at most 42 u T, so
    2.41 u after division by 100 T. The quotient, at most 0.42 in magnitude,
    takes a relative 4.96 u from the mass and u each from 100 T and the
    division, and adding 0.5 rounds by at most u / 2. In all
    2.41 u + 0.42 * 6.96 u + 0.5 u < 5.9 u, within SAMPLED_BOUND.
    """
    mu = np.asarray(weights, dtype=float) @ OUT_SAMPLES
    total = math.fsum(mu)
    offset = math.fsum((idx - 50) * m for idx, m in enumerate(mu))
    return max(0.5 + offset / (100.0 * total), ILC_FLOOR)


def closed_form_centroid(weights):
    """The closed-form centroid of five output-level weights in Python
    floats, in the operation order of fuzzycost._centroids."""
    w0, w1, w2, w3, w4 = (float(w) for w in weights)
    offset = 546.0 * (w4 - w0) + 625.0 * (w3 - w1)
    total = 13.0 * (w0 + w4) + 25.0 * (w1 + w2 + w3)
    return max(0.5 + offset / (100.0 * total), ILC_FLOOR)


def exact_centroid(weights):
    """The 101-sample centroid of five float weights in exact arithmetic."""
    w = [Fraction(float(x)) for x in weights]
    mass = sum(s * x for s, x in zip(LEVEL_MASS, w))
    moment = sum(m * x for m, x in zip(LEVEL_MOMENT, w))
    return Fraction(1, 2) + moment / (100 * mass)


def reference_ilc(throughput_n, delay_n, jitter_n):
    """One link at a time: the 27-rule loop and the sampled centroid."""
    return sampled_centroid(reference_weights(throughput_n, delay_n, jitter_n))


def closed_form_ilc(throughput_n, delay_n, jitter_n):
    """One link at a time: the 27-rule loop and the closed-form centroid."""
    return closed_form_centroid(reference_weights(throughput_n, delay_n, jitter_n))


def normalized_links(scenario):
    """(src, dst, throughput, delay, jitter) of each link, normalized one
    value at a time."""
    for (src, dst), raw in zip(scenario.links.tolist(), scenario.metrics.tolist()):
        t, d, j = (
            min(1.0, max(0.0, (x - lo) / (hi - lo))) for x, lo, hi in zip(raw, METRIC_LOW, METRIC_HIGH)
        )
        yield src, dst, t, d, j


def reference_cost_matrix(scenario):
    """Link-by-link scoring into a dense matrix, neighbour lists by per-row scans."""
    n = scenario.n
    values = np.full((n, n), np.nan)
    for src, dst, t, d, j in normalized_links(scenario):
        values[src, dst] = closed_form_ilc(t, d, j)
    adjacency = np.isfinite(values)
    neighbors = tuple(tuple(np.nonzero(adjacency[i])[0].tolist()) for i in range(n))
    return values, adjacency, neighbors


def reference_from_arrays(n, src, dst, costs):
    """CostMatrix.from_arrays on dense (n, n) fields: the links it builds, or
    the fault it names, checking one link at a time in the order given for
    an endpoint outside 0..n-1, a self-loop, a repeat and a cost that is not
    finite."""
    src = np.asarray(src, dtype=np.int64).tolist()
    dst = np.asarray(dst, dtype=np.int64).tolist()
    # a scalar, or one cost, applies to every link
    costs = np.asarray(costs, dtype=float)
    if costs.ndim and len(costs) not in (1, len(src)):
        raise ValueError(f"links column 'cost' has {len(costs)} entries, 'from' has {len(src)}")
    costs = np.broadcast_to(costs, (len(src),))
    values = np.full((n, n), np.nan)
    for a, b, w in zip(src, dst, costs.tolist()):
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"link {a} -> {b} has an endpoint outside 0..{n - 1}")
        if a == b:
            raise ValueError(f"self-loop link at node {a}")
        if not math.isnan(values[a, b]):
            raise ValueError(f"duplicate link {a} -> {b}")
        if not math.isfinite(w):
            raise ValueError(f"link {a} -> {b} has a cost that is not finite")
        values[a, b] = w
    return tuple(tuple((u, float(values[v, u])) for u in range(n) if not math.isnan(values[v, u])) for v in range(n))


def test_input_memberships_partition():
    for x in LATTICE:
        m = _memberships(np.array(x))
        assert m.shape == (3,)
        assert (m >= 0).all() and (m <= 1).all()
        assert sum(m) == pytest.approx(1.0)


def test_input_memberships_peaks():
    assert list(_memberships(np.array(0.0))) == [1.0, 0.0, 0.0]
    assert list(_memberships(np.array(0.5))) == [0.0, 1.0, 0.0]
    assert list(_memberships(np.array(1.0))) == [0.0, 0.0, 1.0]


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
    t, d, j = _normalize(np.array([2.0, 50.5, 25.0])).tolist()
    assert t == 1.0
    assert d == pytest.approx(0.5)
    assert j == 1.0  # 25 ms clamps at the 20 ms jitter ceiling


def test_normalize_clamps_below():
    t, d, j = _normalize(np.array([0.0, 0.0, -1.0])).tolist()
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
    assert evaluate_ilc(t, d, j) == closed_form_ilc(t, d, j)


def test_ilc_batch_matches_reference_on_lattice():
    grid = np.array([(t, d, j) for t in LATTICE for d in LATTICE for j in LATTICE])
    expected = [closed_form_ilc(*row) for row in grid.tolist()]
    assert ilc_costs(grid).tolist() == expected


@given(st.lists(st.tuples(unit_floats, unit_floats, unit_floats), max_size=6))
@settings(max_examples=100)
def test_ilc_batch_equals_one_link_calls(rows):
    costs = ilc_costs(np.array(rows, dtype=float).reshape(-1, 3))
    assert [c.hex() for c in costs.tolist()] == [evaluate_ilc(*row).hex() for row in rows]


def test_level_moments_are_the_sampled_ones():
    # the closed form's integer mass and first moment of each output set
    # are its exact samples' sums; the float samples sum to them as well,
    # and each float sample is within u of its exact value
    assert [sum(row) for row in EXACT_SAMPLES] == list(LEVEL_MASS)
    assert [sum((j - 50) * x for j, x in enumerate(row)) for row in EXACT_SAMPLES] == list(LEVEL_MOMENT)
    assert [math.fsum(row) for row in OUT_SAMPLES.tolist()] == list(LEVEL_MASS)
    assert [math.fsum(row * (np.arange(101) - 50.0)) for row in OUT_SAMPLES] == list(LEVEL_MOMENT)
    for row, exact in zip(OUT_SAMPLES.tolist(), EXACT_SAMPLES):
        assert max(abs(Fraction(x) - y) for x, y in zip(row, exact)) <= U


@st.composite
def weight_vectors(draw):
    """Five output-level weights, not all zero: any weights,
    mirror-symmetric ones, a single non-zero level, or the weights of an
    input-lattice point, at full scale or scaled down to the size of three
    small memberships' products."""
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
    weights = np.asarray(weights) * draw(st.sampled_from((1.0, 2.0**-160)))
    # as in ilc_costs, where a non-zero weight is at least 2**-162, no
    # product or sum of the centroid comes near the subnormal range
    assume(((weights == 0.0) | (weights >= 2.0**-900)).all())
    assume(weights.max() > 0.0)
    return weights


@given(weight_vectors())
@settings(max_examples=300)
def test_centroids_within_bound_of_exact(weights):
    exact = exact_centroid(weights)
    cost = _centroids(weights[None, :])[0]
    assert cost == closed_form_centroid(weights)
    assert abs(Fraction(cost) - exact) <= CLOSED_FORM_BOUND
    assert abs(Fraction(sampled_centroid(weights)) - exact) <= SAMPLED_BOUND


@given(st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3), st.sampled_from((1.0, 2.0**-160)))
@settings(max_examples=200)
def test_mirror_symmetric_weights_give_half(levels, scale):
    a, b, c = (x * scale for x in levels)
    assume(a + b + c > 0.0)
    assert _centroids(np.array([[a, b, c, b, a]])).tolist() == [0.5]


def test_mirror_symmetric_inputs_give_half():
    # medium throughput and mirrored delay and jitter weigh level o as much
    # as level 4 - o; eighths keep every membership product exact
    eighths = np.linspace(0.0, 1.0, 9)
    rows = np.array([(0.5, d, 1.0 - d) for d in eighths])
    assert ilc_costs(rows).tolist() == [0.5] * len(rows)


def test_ilc_costs_of_no_links():
    assert ilc_costs(np.empty((0, 3))).shape == (0,)


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
    t, d, j = _normalize(np.array([throughput, delay, jitter])).tolist()
    assert link_cost(cm, src, dst) == evaluate_ilc(t, d, j)


def test_cost_matrix_entry_errors():
    cm = from_entries(3, {(0, 1): 0.5})
    assert 1 in out_neighbors(cm, 0)
    assert 0 not in out_neighbors(cm, 1)
    with pytest.raises(KeyError):
        link_cost(cm, 1, 0)


def test_cost_matrix_rejects_self_loops():
    with pytest.raises(ValueError):
        from_entries(2, {(1, 1): 0.3})


def test_cost_matrix_neighbor_lists():
    cm = from_entries(4, {(0, 2): 0.1, (0, 1): 0.2, (3, 0): 0.4})
    assert out_neighbors(cm, 0) == (1, 2)
    assert out_neighbors(cm, 3) == (0,)
    assert cm.links == (((1, 0.2), (2, 0.1)), (), (), ((0, 0.4),))
    assert all(type(w) is float for out in cm.links for _, w in out)


def test_cost_matrix_equality_is_identity():
    a = from_entries(3, {(0, 1): 0.5})
    b = from_entries(3, {(0, 1): 0.5})
    assert (a == b) is False
    assert (a == a) is True


def test_cost_matrix_duplicate_and_undefined_entries():
    # a repeated link and a cost that is not finite are refused, not
    # repaired: neither the last cost of a repeat nor dropping the link
    with pytest.raises(ValueError, match=r"^duplicate link 0 -> 1$"):
        CostMatrix.from_arrays(3, [0, 2, 0], [1, 0, 1], [0.2, 0.3, 0.7])
    for cost in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"^link 1 -> 2 has a cost that is not finite$"):
            CostMatrix.from_arrays(3, [0, 1, 2], [1, 2, 0], [0.2, cost, 0.3])
        with pytest.raises(ValueError, match=r"^link 1 -> 2 has a cost that is not finite$"):
            CostMatrix.from_arrays(3, [1, 0], [2, 1], cost)
    cm = CostMatrix.from_arrays(3, [2, 0], [0, 1], [0.3, 0.7])
    assert link_cost(cm, 0, 1) == 0.7
    assert tuple(out_neighbors(cm, v) for v in range(3)) == ((1,), (), (0,))
    assert cm.links == (((1, 0.7),), (), ((0, 0.3),))


finite_costs = st.floats(allow_nan=False, allow_infinity=False)
non_finite_costs = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def link_arrays(draw):
    """(n, src, dst, costs) for from_arrays: 0-6 nodes, up to 14 distinct
    links in any order, finite costs as a list or one scalar, and at most
    one flaw: a self-loop, an endpoint outside 0..n-1, a repeated link, a
    cost that is not finite, or one cost too many or too few."""
    n = draw(st.integers(0, 6))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    links = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)) if pairs else []
    src, dst = [a for a, _ in links], [b for _, b in links]
    size = len(links)
    costs = draw(st.lists(finite_costs, min_size=size, max_size=size) | finite_costs)
    flaw = draw(st.sampled_from([None, None, None, "self-loop", "endpoint", "repeat", "cost", "count"]))
    if flaw == "self-loop":
        v = draw(st.integers(0, max(n - 1, 0)))
        at = draw(st.integers(0, size))
        src, dst = src[:at] + [v] + src[at:], dst[:at] + [v] + dst[at:]
        costs = costs[:at] + [draw(finite_costs)] + costs[at:] if isinstance(costs, list) else costs
    elif flaw == "endpoint":
        end = draw(st.sampled_from([-1, n]))
        src, dst = (src + [end], dst + [0]) if draw(st.booleans()) else (src + [0], dst + [end])
        costs = costs + [draw(finite_costs)] if isinstance(costs, list) else costs
    elif flaw == "repeat" and size:
        k = draw(st.integers(0, size - 1))
        at = draw(st.integers(k + 1, size))
        src, dst = src[:at] + [src[k]] + src[at:], dst[:at] + [dst[k]] + dst[at:]
        costs = costs[:at] + [draw(finite_costs)] + costs[at:] if isinstance(costs, list) else costs
    elif flaw == "cost":
        if isinstance(costs, list) and size:
            costs[draw(st.integers(0, size - 1))] = draw(non_finite_costs)
        else:
            costs = draw(non_finite_costs)
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
@example((3, [0, 0], [1, 1], [math.inf, 0.2]))
@example((3, [0, 0], [1, 1], 0.5))
@example((3, [1, 0], [2, 1], [math.nan, 0.2]))
@example((3, [2, 1, 0], [0, 2, 1], [0.3, -0.5, 0.2]))
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


PAST_INT64 = "link 1 -> 9223372036854775808 has an endpoint outside 0..2"


@pytest.mark.parametrize(
    "n, src, dst, costs, message",
    [
        pytest.param(3, [0.9, 1], [1, 2], 0.5, "link 0 has 'from' 0.9, not an integer", id="float-end"),
        pytest.param(3, [True, 1], [1, 2], 0.5, "link 0 has 'from' True, not an integer", id="bool-end"),
        pytest.param(3, ["0"], [1], 0.5, "link 0 has 'from' '0', not an integer", id="text-end"),
        pytest.param(3, [0, 1], [1, 2**63], 0.5, PAST_INT64, id="past-int64"),
        pytest.param(3, [0, 1], np.array([1, 2**63], dtype=np.uint64), 0.5, PAST_INT64, id="uint64-end"),
        pytest.param(3, [0, 1], [1, 2], ["0.5", 0.5], "link 0 has 'cost' '0.5', not a number", id="text-cost"),
        pytest.param(3, [0, 1], [1, 2], [0.5, None], "link 1 has 'cost' None, not a number", id="none-cost"),
        pytest.param(3, [0, 1], [1, 2], True, "link 0 has 'cost' True, not a number", id="bool-cost"),
        pytest.param(3, [0, 1], [1, 2], 10**400, "costs hold an integer past float range", id="cost-past-float"),
        pytest.param(3, [0], [1, 2], 0.5, "links column 'to' has 2 entries, 'from' has 1", id="long-to"),
        pytest.param(3, [0, 1], [2], 0.5, "links column 'to' has 1 entries, 'from' has 2", id="short-to"),
        pytest.param(3, [0, 1], [1, 2], [0.5] * 3, "links column 'cost' has 3 entries, 'from' has 2", id="long-cost"),
        pytest.param(
            3, [0, 1], None, 0.5, "links column 'to' must be a list, tuple or 1-D array, not NoneType", id="none-to"
        ),
        pytest.param(
            3, np.array([[0, 1]]), [1], 0.5, "links column 'from' must be a list, tuple or 1-D array, not ndarray",
            id="2d-from",
        ),
        pytest.param(-1, [0], [1], 0.5, "n must be an integer >= 0, got -1", id="negative-n"),
        pytest.param(2.5, [0], [1], 0.5, "n must be an integer >= 0, got 2.5", id="float-n"),
        pytest.param(True, [0], [1], 0.5, "n must be an integer >= 0, got True", id="bool-n"),
        pytest.param(10**30, [0], [1], 0.5, f"n must be an integer <= 3037000499, got {10**30}", id="n-past-int64"),
        pytest.param(2**40, [0], [1], 0.5, f"n must be an integer <= 3037000499, got {2**40}", id="n-keys-past-int64"),
    ],
)
def test_from_arrays_reads_entries_as_the_loader_does(n, src, dst, costs, message):
    # no endpoint or cost is coerced: 0.9, True and '0' once became nodes 0, 1
    # and 0, and no column is broadcast or cut to another's length
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CostMatrix.from_arrays(n, src, dst, costs)


def test_link_order_keys_fit_int64_up_to_the_node_bound():
    # at the bound, the keys n * n - 2 and n * n - n - 1 of these links fit
    # int64 and order them; at n + 1 nodes the largest key, (n + 1)**2 - 1,
    # would not fit
    n = _MAX_NODES
    assert n * n <= 2**63 < (n + 1) * (n + 1)
    src, dst = np.array([n - 1, n - 2]), np.array([n - 2, n - 1])
    order = _link_order(n, src, dst, np.zeros(2, dtype=bool), "a bad value")
    assert order.tolist() == [1, 0]


def test_from_arrays_casts_arrays_of_the_right_kind():
    src, dst = np.array([2, 0], dtype=np.int8), np.array([0, 1], dtype=np.uint32)
    for costs in (np.array([0.3, 0.7], dtype=np.float32), np.array(0.5), np.float64(0.5), 1):
        cm = CostMatrix.from_arrays(3, src, dst, costs)
        expected = np.broadcast_to(np.asarray(costs, dtype=float), 2)
        assert cm.links == (((1, float(expected[1])),), (), ((0, float(expected[0])),))


@pytest.mark.parametrize(
    "src, dst, message",
    [
        ([0, 1, 2], [1, True, 1], "link 1 has 'to' True, not an integer"),
        ([0, 1.0], [1, 2], "link 1 has 'from' 1.0, not an integer"),
        ([0, 1], [1, 10**30], f"link 1 -> {10**30} has an endpoint outside 0..2"),
        ([0, 2, 1], [1, 2, 0], "self-loop link at node 2"),
        ([0, 1, 0], [1, 2, 1], "duplicate link 0 -> 1"),
    ],
    ids=["bool-end", "float-end", "past-int64", "self-loop", "repeat"],
)
def test_from_arrays_and_the_loader_name_the_same_fault(src, dst, message):
    metric = [1.0] * len(src)
    data = {
        "version": 2, "seed": 0, "area_side_m": 400.0, "radio_range_m": 250.0,
        "nodes": {"x_m": [0.0, 200.0, 400.0], "y_m": [0.0, 0.0, 0.0]},
        "links": {"from": src, "to": dst, "throughput_mbps": metric, "delay_ms": metric, "jitter_ms": metric},
    }
    for build in (lambda: scenario_from_dict(data), lambda: CostMatrix.from_arrays(3, src, dst, 0.5)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def test_build_rejects_hand_built_self_loop():
    positions = [(0.0, 0.0), (200.0, 0.0)]
    links = [(0, 1), (1, 1)]
    metrics = [(1.0, 10.0, 2.0), (1.5, 20.0, 1.0)]
    # refused when the scenario is built, so no cost matrix is ever built from it
    with pytest.raises(ValueError, match=r"^self-loop link at node 1$"):
        NetworkScenario(seed=0, area_side=200.0, radio_range=250.0, positions=positions, links=links, metrics=metrics)


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


@pytest.mark.parametrize(
    "n, placement, seed",
    [(n, placement, seed) for n, placement, seeds in GOLDEN_CASES for seed in seeds],
)
def test_costs_within_bound_of_exact_and_sampled(n, placement, seed):
    # every link cost of the scenario, and the sampled pipeline's cost, lie
    # within their bounds of the exact centroid, so the two costs differ by
    # at most the sum of the bounds
    scenario = generate_scenario(n, placement=placement, seed=seed)
    costs = dense_costs(build_cost_matrix(scenario))
    for src, dst, t, d, j in normalized_links(scenario):
        exact = exact_centroid(reference_weights(t, d, j))
        assert abs(Fraction(costs[src, dst]) - exact) <= CLOSED_FORM_BOUND
        assert abs(Fraction(reference_ilc(t, d, j)) - exact) <= SAMPLED_BOUND


# the dense (n, n) fields took about 5,900 traced bytes per link at 2500 nodes
@pytest.mark.parametrize("n", [2500, 10_000])
def test_cost_matrix_build_memory_is_linear_in_links(n):
    scenario = generate_scenario(n, "grid", 0)
    cm, peak = traced_peak_bytes(lambda: build_cost_matrix(scenario))
    assert len(cm.values) == len(scenario.links)
    assert peak < 1024 * len(cm.values)
