"""Routes pinned against committed outputs.

golden_routes.json holds, for every OPTIMIZER_GOLDEN_CASES entry, the
oracle route and the best route of each optimizer after GOLDEN_GENERATIONS
generations: node sequences only, so a change that moves costs by rounding
alone still passes, and one that changes a route does not. Regenerate the
file with `PYTHONPATH=src python tests/test_golden_routes.py` only when a
route is meant to change, and say which and why.
"""

import json
from pathlib import Path

import pytest

from meshroute.bench import ALGORITHMS
from meshroute.oracle import shortest_path
from meshroute.results import RunParams

from helpers import GOLDEN_GENERATIONS, OPTIMIZER_GOLDEN_CASES, scenario_cost_matrix

GOLDEN_FILE = Path(__file__).with_name("golden_routes.json")


def case_key(n, placement, scenario_seed, opt_seed):
    return f"{placement}-{n}-s{scenario_seed}-o{opt_seed}"


def routes(n, placement, scenario_seed, opt_seed):
    """The oracle route and each optimizer's best route of one case."""
    cm = scenario_cost_matrix(n, placement, scenario_seed)
    params = RunParams(max_generations=GOLDEN_GENERATIONS, rng_seed=opt_seed)
    found = {"oracle": list(shortest_path(cm, 0, n - 1).nodes)}
    for name, run in ALGORITHMS.items():
        found[name] = list(run(cm, 0, n - 1, params).best_path.nodes)
    return found


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


def test_golden_file_covers_every_case(golden):
    assert list(golden) == [case_key(*case) for case in OPTIMIZER_GOLDEN_CASES]


@pytest.mark.parametrize("case", OPTIMIZER_GOLDEN_CASES, ids=lambda case: case_key(*case))
def test_routes_match_golden(case, golden):
    assert routes(*case) == golden[case_key(*case)]


if __name__ == "__main__":
    table = {case_key(*case): routes(*case) for case in OPTIMIZER_GOLDEN_CASES}
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in table.items()]
    GOLDEN_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
