"""Format-1 scenario files as meshroute wrote and read them before format 2.

A format-1 file holds one JSON object per node and per link. These are the
writer and reader of that format, link by link, kept as the golden
reference for the columnar reader; they differ from the originals only in
taking and giving the array-backed NetworkScenario. The reader keeps its
old coercions (int() of an id or endpoint, float() of a metric) and its
file order of links.
"""

import math

import numpy as np

from meshroute.topology import NetworkScenario


def v1_scenario_to_dict(scenario):
    return {
        "version": 1,
        "seed": scenario.seed,
        "area_side_m": scenario.area_side,
        "radio_range_m": scenario.radio_range,
        "nodes": [{"id": i, "x_m": x, "y_m": y} for i, (x, y) in enumerate(scenario.positions.tolist())],
        "links": [
            {
                "from": src,
                "to": dst,
                "throughput_mbps": throughput,
                "delay_ms": delay,
                "jitter_ms": jitter,
            }
            for (src, dst), (throughput, delay, jitter) in sorted(
                zip(scenario.links.tolist(), scenario.metrics.tolist()), key=lambda row: row[0]
            )
        ],
    }


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
