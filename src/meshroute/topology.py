"""Seeded mesh-network scenarios: node placement, radio-range links, synthetic metrics.

A scenario is a pure function of (n, placement, seed, radio_range): node
positions, plus one directed link for every ordered pair within radio range.
Link metrics stand in for measured values and are drawn from fixed uniform
ranges in (from, to)-sorted order so regeneration is bit-identical. A
scenario holds three read-only arrays, not one object per node or link:
positions (n, 2), links (L, 2) as (from, to) rows and metrics (L, 3) as
(throughput, delay, jitter) rows.

Scenario files are JSON in format version 2, the one format written and
read. It stores columns: "nodes" maps x_m and y_m to one list each, and
"links" maps from, to, throughput_mbps, delay_ms and jitter_ms to one list
each, in row-major (from, to) order. A version 1 file, with one object per
node and per link, is refused with a hint to regenerate it: meshroute gen
writes the same scenario for the same arguments. scenario_from_dict checks
a file's layout and JSON types and NetworkScenario every value, so a
scenario that builds is one that load_scenario reads back; its link rules
(_link_order) are also CostMatrix.from_arrays's.

Links come from a cell list (_radio_pairs): nodes are bucketed into square
cells about one radio range wide (_cells), each node is tested only against
the nodes of its 3 x 3 block of cells, and the pairs that pass are sorted
row-major, in (from, to) order. No (n, n) array is built; the pairs, their
order and the float ops of each distance test are those of a dense all-pairs
comparison. Random placement redraws a layout until node 0 reaches node
n-1. A layout is judged by one depth-first search of node 0's component
over the same cells and the same test (_reaches), which stops at node n-1,
so a rejected layout costs its bucketing plus work in proportion to the
part of that component searched, and links are built once, for the layout
kept. All metrics come from one (L, 3) uniform draw. A generator fills
such a draw row by row, column by column, so it consumes the stream exactly
as L successive (throughput, delay, jitter) scalar draws would: scenarios
and their JSON stay bit-identical to drawing link by link, and any change
to that order changes every scenario.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

GRID_SPACING_M = 200.0
DEFAULT_RADIO_RANGE_M = 250.0
PLACEMENTS = ("grid", "random")
# random placement keeps the reference density of 25 nodes per 1500 m square
REFERENCE_AREA_SIDE_M = 1500.0
REFERENCE_NODE_COUNT = 25

THROUGHPUT_RANGE_MBPS = (0.2, 2.0)
DELAY_RANGE_MS = (1.0, 100.0)
JITTER_RANGE_MS = (0.0, 20.0)

MAX_PLACEMENT_RETRIES = 1000

SCENARIO_FORMAT_VERSION = 2

NODE_COLUMNS = ("x_m", "y_m")
LINK_COLUMNS = ("from", "to", "throughput_mbps", "delay_ms", "jitter_ms")


class ConnectivityError(RuntimeError):
    """Random placement failed to connect source and terminal within the retry budget."""


def _rows(value, dtype, width: int, name: str) -> np.ndarray:
    """An (m, width) copy of value."""
    array = np.array(value, dtype=dtype)
    if array.size == 0:
        array = array.reshape(0, width)
    if array.ndim != 2 or array.shape[1] != width:
        raise ValueError(f"{name} must have shape (m, {width}), got {array.shape}")
    return array


def _link_order(n: int, src: np.ndarray, dst: np.ndarray, bad: np.ndarray, value: str) -> np.ndarray:
    """The row-major order of the links src[l] -> dst[l] among n nodes.

    The first faulty link in the order given raises ValueError naming, of
    its faults, an endpoint outside 0..n-1, a self-loop, a repeat of an
    earlier link or else a bad value (bad[l]; value words it). One stable
    sort of the keys src * n + dst gives the order and flags the later copy
    of a repeat. Keys of out-of-range links may collide, but such a link is
    itself a fault that comes no later than the link it collides with.
    """
    outside = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    keys = src * n + dst
    order = np.argsort(keys, kind="stable")
    repeat = np.zeros(len(keys), dtype=bool)
    repeat[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True
    fault = outside | (src == dst) | repeat | bad
    if fault.any():
        k = int(np.argmax(fault))
        a, b = int(src[k]), int(dst[k])
        if outside[k]:
            raise ValueError(f"link {a} -> {b} has an endpoint outside 0..{n - 1}")
        if a == b:
            raise ValueError(f"self-loop link at node {a}")
        if repeat[k]:
            raise ValueError(f"duplicate link {a} -> {b}")
        raise ValueError(f"link {a} -> {b} has {value}")
    return order


@dataclass(frozen=True, eq=False)
class NetworkScenario:
    """Node positions and directed links with their raw metrics.

    positions is (n, 2) float64 in meters, links (L, 2) int64 (from, to)
    rows and metrics (L, 3) float64 (throughput Mbps, delay ms, jitter ms)
    rows, one per link; (a, b) and (b, a) are independent links. Each array
    is a read-only copy of what was passed, with the links and their metric
    rows put in row-major (from, to) order, so save_scenario writes them
    sorted. Scenarios are equal when their scalars are equal and their arrays
    hold equal values. Construction refuses, with the loader's message and
    in this order, a coordinate that is not finite, a faulty link or metric
    (_link_order), a seed that is not an integer >= 0, and an area side or
    radio range that is not a positive, finite number (bools are neither);
    the seed is kept as an int and the lengths as floats.
    """

    seed: int
    area_side: float
    radio_range: float
    positions: np.ndarray
    links: np.ndarray
    metrics: np.ndarray

    def __post_init__(self):
        positions = _rows(self.positions, np.float64, 2, "positions")
        links = _rows(self.links, np.int64, 2, "links")
        metrics = _rows(self.metrics, np.float64, 3, "metrics")
        if len(metrics) != len(links):
            raise ValueError(f"{len(links)} links but {len(metrics)} metric rows")
        # column by column: a row-wise all() is several times slower on short rows
        finite = np.isfinite(positions)
        bad = np.flatnonzero(~(finite[:, 0] & finite[:, 1]))
        if len(bad):
            raise ValueError(f"node {bad[0]} has a coordinate that is not finite")
        # the chained comparisons are false for NaN as well
        ok = (0.0 <= metrics) & (metrics < math.inf)
        bad_metric = ~(ok[:, 0] & ok[:, 1] & ok[:, 2])
        order = _link_order(len(positions), *links.T, bad_metric, "a metric that is negative or not finite")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"scenario 'seed' is {self.seed!r}, not an integer")
        if self.seed < 0:
            raise ValueError(f"scenario 'seed' is {self.seed!r}, which is negative")
        for key, value in (("area_side_m", self.area_side), ("radio_range_m", self.radio_range)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"scenario {key!r} is {value!r}, not a finite number")
            if value <= 0:
                raise ValueError(f"scenario {key!r} is {value!r}, which is not positive")
        # take is much faster than fancy indexing on (L, 2) and (L, 3) rows
        links, metrics = np.take(links, order, axis=0), np.take(metrics, order, axis=0)
        for array in (positions, links, metrics):
            array.flags.writeable = False
        values = (int(self.seed), float(self.area_side), float(self.radio_range), positions, links, metrics)
        for field, value in zip(fields(self), values):
            object.__setattr__(self, field.name, value)

    @property
    def n(self) -> int:
        return len(self.positions)

    def __eq__(self, other):
        if not isinstance(other, NetworkScenario):
            return NotImplemented
        return bool(
            self.seed == other.seed
            and self.area_side == other.area_side
            and self.radio_range == other.radio_range
            and np.array_equal(self.positions, other.positions)
            and np.array_equal(self.links, other.links)
            and np.array_equal(self.metrics, other.metrics)
        )


METRIC_LOW = (THROUGHPUT_RANGE_MBPS[0], DELAY_RANGE_MS[0], JITTER_RANGE_MS[0])
METRIC_HIGH = (THROUGHPUT_RANGE_MBPS[1], DELAY_RANGE_MS[1], JITTER_RANGE_MS[1])


def _draw_metrics(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 3) rows of (throughput, delay, jitter), one row per link in order."""
    return rng.uniform(METRIC_LOW, METRIC_HIGH, size=(count, 3))


# cell side h = max(r, CELL_FLOOR_M, spread / CELL_SPAN_CAP) * (1 + CELL_MARGIN);
# _cells says why each term is there
CELL_MARGIN = 2.0**-20
CELL_SPAN_CAP = 2.0**24
CELL_FLOOR_M = 2.0**-500


def _cells(positions: np.ndarray, radio_range: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bucket nodes into square cells about one radio range wide.

    Returns (key, order, sorted_key, block): each node's int64 cell key, the
    nodes sorted by key, the sorted keys, and six offsets such that, for a
    node's key k, k + block holds the first key and one past the last key of
    each of the three cell rows of its 3 x 3 block. A node's cell indices
    are cx = floor((x - min x) / h) and cy likewise, with side
    h = max(r, 2**-500, spread / 2**24) * (1 + 2**-20), and its key is
    cy * width + cx with width = max cx + 2. A row is width keys wide, so
    cx - 1 and cx + 1 never reach an occupied cell of another row, and the
    three cells of a cell row are one contiguous run of the sorted keys;
    keys are integers, so one left-side search finds both ends of every
    run. Keys stay below 2**50.

    Exactness: a pair of nodes with dx*dx + dy*dy <= r*r, dx and dy their
    rounded coordinate differences, is never two cells apart, so a node's
    3 x 3 block holds every node that passes the test with it. Write
    u = 2**-53: a float op with a normal result errs by a factor within
    [1 - u, 1 + u], and a subtraction with a subnormal result is exact.

    - A pass bounds the gap. Adding fl(dy*dy) >= 0 cannot lower the rounded
      sum, so fl(dx*dx) <= fl(r*r) <= fl(r'*r') with r' = max(r, 2**-500),
      whose square is normal. If |dx| >= r', dx*dx is normal too, so
      dx*dx (1 - u) <= r'*r' (1 + u): |dx| < r'(1 + 2u), and as
      dx = fl(x_i - x_j), |x_i - x_j| < r'(1 + 4u).
    - Two cells apart widens it. The cell indices floor(q), with
      q = fl(fl(x - min x) / h), differ by 2 or more, so the q differ by more
      than 1. The cap makes h exceed spread / 2**24, so each exact quotient
      is below 2**24 and q errs from it by at most 3u times it: the exact
      quotients differ by more than 1 - 2**-26, and
      |x_i - x_j| > h (1 - 2**-26) > r'(1 + 2**-20)(1 - u)(1 - 2**-26)
      > r'(1 + 2**-21).

    The two bounds contradict each other, and y is the same. The 2**-20
    margin is what the second bound needs: with a side of exactly r, a
    quotient that rounds up onto a cell boundary leaves no room to spare.
    The cap bounds the quotients and keys however small r is against the
    layout. When r*r overflows, every pair passes and all nodes share one
    cell. Coordinates and their spread must be finite. The order of nodes
    within a cell is left to the sort, which neither caller depends on.
    """
    x, y = positions[:, 0], positions[:, 1]
    x0, y0 = x.min(), y.min()
    spread = max(x.max() - x0, y.max() - y0)
    if math.isinf(radio_range * radio_range):
        h = math.inf
    else:
        h = max(radio_range, CELL_FLOOR_M, spread / CELL_SPAN_CAP) * (1.0 + CELL_MARGIN)
    # the quotients are >= 0, so truncation is floor
    cx = ((x - x0) / h).astype(np.int64)
    cy = ((y - y0) / h).astype(np.int64)
    width = int(cx.max()) + 2
    key = cy * width + cx
    order = np.argsort(key)
    block = np.array([-width - 1, -width + 2, -1, 2, width - 1, width + 2])
    return key, order, key[order], block


def _in_range(x: np.ndarray, y: np.ndarray, i, j: np.ndarray, r_sq: float) -> np.ndarray:
    """dx*dx + dy*dy <= r_sq for each pair (i, j), with dx = x_i - x_j and
    dy = y_i - y_j, as a bool array; i is a node or an array like j."""
    dist_sq = x[i] - x[j]
    dist_sq *= dist_sq
    dy = y[i] - y[j]
    dy *= dy
    dist_sq += dy
    return dist_sq <= r_sq


def _radio_pairs(positions: np.ndarray, radio_range: float) -> tuple[np.ndarray, np.ndarray]:
    """Ordered pairs (i, j), i != j, with dx*dx + dy*dy <= r*r, row-major.

    Returns int64 arrays src, dst sorted by src * n + dst. The pairs, their
    order and every per-pair float op are those of a dense (n, n) test, but
    each node is tested only against the nodes of its 3 x 3 block of cells
    (_cells says why none is missed): its three runs of the cell-sorted
    order, found by binary search among the occupied cells only. No array
    is larger than the candidate pairs.
    """
    n = len(positions)
    x, y = positions[:, 0], positions[:, 1]
    key, order, sorted_key, block = _cells(positions, radio_range)
    # per node, the start and end of each of its three runs
    runs = np.searchsorted(sorted_key, key[:, None] + block).reshape(-1, 2)
    lo = runs[:, 0]
    counts = runs[:, 1] - lo
    ends = np.cumsum(counts)
    # a candidate's place in cell-sorted order: its run's start plus its
    # offset in the run, which is its index less the run's first index
    at = np.arange(ends[-1]) + np.repeat(lo - (ends - counts), counts)
    i = np.repeat(np.arange(n), counts.reshape(n, 3).sum(axis=1))
    j = order[at]
    flat = i * n + j
    flat = np.sort(flat[_in_range(x, y, i, j, radio_range * radio_range) & (i != j)])
    return np.divmod(flat, n)


def _reaches(positions: np.ndarray, radio_range: float, source: int, terminal: int) -> bool:
    """Does source reach terminal over the links _radio_pairs would find?

    A depth-first search from source that stops as soon as terminal is
    seen. Each popped node is tested against the nodes of its 3 x 3 block
    of cells (_cells) with _radio_pairs' float test (_in_range), so the
    links it follows are exactly _radio_pairs' links, but only the popped
    nodes' links are looked for. The cost is the bucketing plus about one
    small numpy pass per node of source's component that the search pops.
    """
    x, y = positions[:, 0], positions[:, 1]
    r_sq = radio_range * radio_range
    key, order, sorted_key, block = _cells(positions, radio_range)
    seen = np.zeros(len(positions), dtype=bool)
    seen[source] = True
    stack = [source]
    while stack and not seen[terminal]:
        v = stack.pop()
        a, b, c, d, e, f = sorted_key.searchsorted(key[v] + block).tolist()
        near = np.concatenate((order[a:b], order[c:d], order[e:f]))
        new = near[_in_range(x, y, v, near, r_sq) & ~seen[near]]
        seen[new] = True
        stack += new.tolist()
    return bool(seen[terminal])


def check_placement(n: int, placement: str) -> None:
    """Raise ValueError unless `placement` can place n nodes: a known
    placement, at least 2 nodes, and a perfect square for grid."""
    if placement not in PLACEMENTS:
        raise ValueError(f"unknown placement {placement!r} (expected one of {PLACEMENTS})")
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if placement == "grid" and math.isqrt(n) ** 2 != n:
        raise ValueError(f"grid placement needs a perfect-square node count, {n} is not a perfect square")


def generate_scenario(
    n: int,
    placement: str = "grid",
    seed: int = 0,
    radio_range: float = DEFAULT_RADIO_RANGE_M,
) -> NetworkScenario:
    """Generate a reproducible scenario.

    Grid placement puts nodes on a sqrt(n) x sqrt(n) lattice with 200 m spacing
    (n must be a perfect square). Random placement draws coordinates
    i.i.d. over a square holding the reference density and redraws the whole
    layout until node 0 and node n-1 are connected. Each layout drawn costs
    one search of node 0's component, and links are built once, for the
    layout kept.
    """
    check_placement(n, placement)
    if not (math.isfinite(radio_range) and radio_range > 0):
        raise ValueError(f"radio_range must be positive and finite, got {radio_range}")
    rng = np.random.default_rng(seed)

    if placement == "grid":
        side = math.isqrt(n)
        idx = np.arange(n)
        coords = np.stack([(idx % side) * GRID_SPACING_M, (idx // side) * GRID_SPACING_M], axis=1)
        area_side = (side - 1) * GRID_SPACING_M
    else:
        area_side = REFERENCE_AREA_SIDE_M * math.sqrt(n / REFERENCE_NODE_COUNT)
        for _ in range(MAX_PLACEMENT_RETRIES):
            coords = rng.uniform(0.0, area_side, size=(n, 2))
            if _reaches(coords, radio_range, 0, n - 1):
                break
        else:
            raise ConnectivityError(
                f"no placement connecting node 0 to node {n - 1} in {MAX_PLACEMENT_RETRIES} attempts"
            )
    src, dst = _radio_pairs(coords, radio_range)

    return NetworkScenario(
        seed=seed,
        area_side=float(area_side),
        radio_range=float(radio_range),
        positions=coords,
        links=np.stack((src, dst), 1),
        metrics=_draw_metrics(rng, len(src)),
    )


def scenario_to_dict(scenario: NetworkScenario) -> dict:
    """The scenario as a format-2 JSON object: one list per column."""
    return {
        "version": SCENARIO_FORMAT_VERSION,
        "seed": scenario.seed,
        "area_side_m": scenario.area_side,
        "radio_range_m": scenario.radio_range,
        "nodes": dict(zip(NODE_COLUMNS, scenario.positions.T.tolist())),
        "links": dict(zip(LINK_COLUMNS, scenario.links.T.tolist() + scenario.metrics.T.tolist())),
    }


def _table(table: dict, keys: tuple[str, ...], name: str) -> list[list]:
    """The named columns of a format-2 table, checked to be lists of one length."""
    if not isinstance(table, dict):
        kind = type(table).__name__
        raise ValueError(f"malformed scenario: {name!r} must be a JSON object of columns, not {kind}")
    columns = [table[key] for key in keys]
    for key, column in zip(keys, columns):
        if not isinstance(column, list):
            raise ValueError(f"{name} column {key!r} must be a list")
        if len(column) != len(columns[0]):
            raise ValueError(
                f"{name} column {key!r} has {len(column)} entries, {keys[0]!r} has {len(columns[0])}"
            )
    return columns


_INTEGER = {int}
_NUMBER = {int, float}


def _array(values: list, integer: bool, owner: str, key: str) -> np.ndarray | None:
    """A column as an int64 or float64 array. Every entry must be a JSON
    integer (not a bool) or a JSON number; the first that is not is named.
    An integer column with an entry past int64 gives None."""
    allowed = _INTEGER if integer else _NUMBER
    if not set(map(type, values)) <= allowed:
        k = next(k for k, v in enumerate(values) if type(v) not in allowed)
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{owner} {k} has {key!r} {values[k]!r}, not {kind}")
    try:
        return np.array(values, dtype=np.int64 if integer else np.float64)
    except OverflowError:
        if not integer:
            raise
        return None


def _from_columns(data: dict, x: list, y: list, link_columns: list[list]) -> NetworkScenario:
    """Check the JSON types of the columns, nodes first, and build the
    scenario, which checks the values. An endpoint past int64, which no
    array holds, is outside every node range: it is named, as the file
    writes it, unless an earlier link has a fault."""
    positions = np.stack((_array(x, False, "node", "x_m"), _array(y, False, "node", "y_m")), 1)
    src_list, dst_list = link_columns[:2]
    src = _array(src_list, True, "link", "from")
    dst = _array(dst_list, True, "link", "to")
    metrics = np.stack(
        [_array(column, False, "link", key) for key, column in zip(LINK_COLUMNS[2:], link_columns[2:])], 1
    )
    seed, area_side, radio_range = data["seed"], data["area_side_m"], data["radio_range_m"]
    if src is None or dst is None:
        k = next(k for k, ends in enumerate(zip(src_list, dst_list)) if max(map(abs, ends)) >= 2**63)
        # raises for a fault of an earlier link; the scalars are checked after the links
        NetworkScenario(0, 1.0, 1.0, positions, list(zip(src_list[:k], dst_list[:k])), metrics[:k])
        raise ValueError(f"link {src_list[k]} -> {dst_list[k]} has an endpoint outside 0..{len(positions) - 1}")
    return NetworkScenario(seed, area_side, radio_range, positions, np.stack((src, dst), 1), metrics)


def scenario_from_dict(data: dict) -> NetworkScenario:
    """Parse a format-2 scenario; malformed input raises ValueError naming
    the fault.

    Columns must be lists of equal length. Link endpoints must be JSON
    integers (bools are not) naming two distinct nodes, and each ordered
    pair may appear once. Coordinates must be finite JSON numbers, and
    metrics finite, non-negative JSON numbers. The seed must be a
    non-negative JSON integer, and the area side and radio range positive,
    finite JSON numbers, as generate_scenario writes them. The values are
    NetworkScenario's to check.
    """
    if not isinstance(data, dict):
        raise ValueError("a scenario must be a JSON object")
    version = data.get("version")
    if type(version) is not int or version != SCENARIO_FORMAT_VERSION:
        hint = ""
        if type(version) is int and version == 1:
            hint = "; regenerate the file with meshroute gen (same --nodes, --placement, --seed, --range)"
        raise ValueError(f"unsupported scenario format version {version!r}{hint}")
    try:
        x, y = _table(data["nodes"], NODE_COLUMNS, "nodes")
        return _from_columns(data, x, y, _table(data["links"], LINK_COLUMNS, "links"))
    except KeyError as exc:
        raise ValueError(f"scenario is missing the required key {exc}") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed scenario: {exc}") from None


def save_scenario(scenario: NetworkScenario, path: str | Path) -> None:
    """Write the scenario as format-2 JSON, links in the order held.

    Columns go through ndarray.tolist, so every float is written by repr
    and reads back bit-identical, and the file is byte-stable for a given
    scenario. The JSON is not indented, so json.dumps runs its C encoder.
    """
    Path(path).write_text(json.dumps(scenario_to_dict(scenario)) + "\n")


def load_scenario(path: str | Path) -> NetworkScenario:
    """Read a format-2 scenario file (see scenario_from_dict)."""
    return scenario_from_dict(json.loads(Path(path).read_text()))
