"""The link-by-link scenario reader meshroute used for format-1 files.

A format-1 file held one JSON object per node and per link. meshroute no
longer reads that format, but this reader, which checks one link at a time
in file order, stays as the golden reference for the columnar format-2
reader: v1_objects lays a format-2 object out as its input. It differs
from the original only in giving the array-backed NetworkScenario, and
keeps its old coercions (int() of an id or endpoint, float() of a metric)
and its file order of links.
"""

import math

import numpy as np

from meshroute.topology import LINK_COLUMNS, NODE_COLUMNS, NetworkScenario


def v1_objects(data):
    """A format-2 scenario object laid out as format 1, the reference
    reader's input: version 1, one object per node, with its id, and one per
    link, in column order."""
    node_rows = zip(*(data["nodes"][key] for key in NODE_COLUMNS))
    nodes = [{"id": i, **dict(zip(NODE_COLUMNS, row))} for i, row in enumerate(node_rows)]
    links = [dict(zip(LINK_COLUMNS, row)) for row in zip(*(data["links"][key] for key in LINK_COLUMNS))]
    return {**data, "version": 1, "nodes": nodes, "links": links}


def v1_scenario_from_dict(data):
    if not isinstance(data, dict):
        raise ValueError("a scenario must be a JSON object")
    version = data.get("version")
    if version != 1:
        raise ValueError(f"unsupported scenario format version {version!r}")
    try:
        nodes = [(int(d["id"]), float(d["x_m"]), float(d["y_m"])) for d in data["nodes"]]
        for i, (node_id, _, _) in enumerate(nodes):
            if node_id != i:
                raise ValueError(f"node {i} has id {node_id}; ids must be 0..n-1 in order")
        n = len(nodes)
        seen = set()
        links = []
        for d in data["links"]:
            src, dst = int(d["from"]), int(d["to"])
            throughput, delay, jitter = float(d["throughput_mbps"]), float(d["delay_ms"]), float(d["jitter_ms"])
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"link {src} -> {dst} has an endpoint outside 0..{n - 1}")
            if src == dst:
                raise ValueError(f"self-loop link at node {src}")
            pair = src * n + dst
            if pair in seen:
                raise ValueError(f"duplicate link {src} -> {dst}")
            seen.add(pair)
            if not (0.0 <= throughput < math.inf and 0.0 <= delay < math.inf and 0.0 <= jitter < math.inf):
                raise ValueError(f"link {src} -> {dst} has a metric that is negative or not finite")
            links.append((src, dst, throughput, delay, jitter))
        rows = np.array(links, dtype=float).reshape(-1, 5)
        return NetworkScenario(
            seed=int(data["seed"]),
            area_side=float(data["area_side_m"]),
            radio_range=float(data["radio_range_m"]),
            positions=[(x, y) for _, x, y in nodes],
            links=[(src, dst) for src, dst, *_ in links],
            metrics=rows[:, 2:],
        )
    except KeyError as exc:
        raise ValueError(f"scenario is missing the required key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed scenario: {exc}") from None
