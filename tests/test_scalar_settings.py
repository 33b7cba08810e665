"""Every scalar setting is judged by one of two rules: topology._check_integer
for node counts, seeds, budgets and populations, and topology._check_length
for radio ranges and area sides. Each entry point that takes one refuses a
value in that rule's words, or keeps it as a Python int or float."""

import json
import math
import re
from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np
import pytest

from meshroute.bbo import run_bbo
from meshroute.bench import BenchPlan, plan_to_dict
from meshroute.fuzzycost import CostMatrix
from meshroute.results import RunParams
from meshroute.topology import _MAX_NODES, NetworkScenario, generate_scenario

LINE = CostMatrix.from_arrays(2, [0], [1], 0.5)


class Setting(NamedTuple):
    build: Callable  # the value as the entry point keeps it
    name: str
    least: int | None = None  # None for a length
    most: int | None = None
    prefix: str = ""


def hand_built(**scalars):
    args = {"seed": 0, "area_side": 200.0, "radio_range": 250.0, **scalars}
    return NetworkScenario(**args, positions=[[0.0, 0.0], [1.0, 1.0]], links=[], metrics=[])


def bbo_population(value):
    params = RunParams(1, population_size=value)
    # RunParams keeps 10**400 as an int, which no run can allocate habitats for
    if params.population_size > 100:
        return params.population_size
    return run_bbo(LINE, 0, 1, params).params["population_size"]


def plan_field(field):
    return f"plan field '{field}' is malformed: "


SETTINGS = {
    "RunParams.max_generations": Setting(lambda v: RunParams(v).max_generations, "max_generations", 1),
    "RunParams.population_size": Setting(lambda v: RunParams(1, v).population_size, "population_size", 2),
    "RunParams.rng_seed": Setting(lambda v: RunParams(1, rng_seed=v).rng_seed, "rng_seed", 0),
    "BenchPlan.node_counts": Setting(
        lambda v: BenchPlan(node_counts=(v,), placement="random").node_counts[0],
        "node count", 2, _MAX_NODES, plan_field("node_counts"),
    ),
    "BenchPlan.generation_budgets": Setting(
        lambda v: BenchPlan(generation_budgets=(v,)).generation_budgets[0],
        "generation budget", 1, None, plan_field("generation_budgets"),
    ),
    "BenchPlan.scenario_seed": Setting(
        lambda v: BenchPlan(seeds=((v, 9001),)).seeds[0][0], "scenario_seed", 0, None, plan_field("seeds")
    ),
    "BenchPlan.opt_seed": Setting(
        lambda v: BenchPlan(seeds=((101, v),)).seeds[0][1], "opt_seed", 0, None, plan_field("seeds")
    ),
    "BenchPlan.population_size": Setting(
        lambda v: BenchPlan(population_size=v).population_size,
        "population_size", 2, None, plan_field("population_size"),
    ),
    "BenchPlan.radio_range": Setting(
        lambda v: BenchPlan(radio_range=v).radio_range, "radio_range", prefix=plan_field("radio_range")
    ),
    "generate_scenario.n": Setting(lambda v: generate_scenario(v, "random").n, "n", 2, _MAX_NODES),
    "generate_scenario.seed": Setting(lambda v: generate_scenario(4, "grid", v).seed, "scenario 'seed'", 0),
    "generate_scenario.radio_range": Setting(
        lambda v: generate_scenario(4, "grid", 0, v).radio_range, "scenario 'radio_range_m'"
    ),
    "NetworkScenario.seed": Setting(lambda v: hand_built(seed=v).seed, "scenario 'seed'", 0),
    "NetworkScenario.area_side": Setting(lambda v: hand_built(area_side=v).area_side, "scenario 'area_side_m'"),
    "NetworkScenario.radio_range": Setting(
        lambda v: hand_built(radio_range=v).radio_range, "scenario 'radio_range_m'"
    ),
    "CostMatrix.from_arrays.n": Setting(lambda v: CostMatrix.from_arrays(v, [], [], []).n, "n", 0, _MAX_NODES),
    "run_bbo.population_size": Setting(bbo_population, "population_size", 2),
}

NOT_INTEGER = "not an integer"
NOT_LENGTH = "not a positive finite number"
LESS = "which is less than {least}"
MORE = "which is more than {most}"

# (value, integer verdict, length verdict): the reason a setting refuses the
# value, with its floor or ceiling, or what it keeps the value as
VALUES = [
    pytest.param(True, NOT_INTEGER, NOT_LENGTH, id="True"),
    pytest.param(2.5, NOT_INTEGER, 2.5, id="2.5"),
    pytest.param(-1, LESS, NOT_LENGTH, id="-1"),
    pytest.param(math.nan, NOT_INTEGER, NOT_LENGTH, id="nan"),
    pytest.param(math.inf, NOT_INTEGER, NOT_LENGTH, id="inf"),
    pytest.param(10**400, 10**400, NOT_LENGTH, id="10**400"),
    pytest.param("3", NOT_INTEGER, NOT_LENGTH, id="'3'"),
    pytest.param(np.int64(3), 3, 3.0, id="np.int64(3)"),
]


@pytest.mark.parametrize("value, integer, length", VALUES)
@pytest.mark.parametrize("setting", SETTINGS.values(), ids=SETTINGS.keys())
def test_every_scalar_setting_is_judged_by_one_rule(setting, value, integer, length):
    verdict = length if setting.least is None else integer
    if setting.most is not None and verdict == 10**400:
        verdict = MORE
    if isinstance(verdict, str):
        reason = verdict.format(least=setting.least, most=setting.most)
        message = f"{setting.prefix}{setting.name} is {value!r}, {reason}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            setting.build(value)
    else:
        kept = setting.build(value)
        assert kept == verdict and type(kept) is type(verdict)


def test_numpy_scalars_are_kept_as_python_numbers_that_json_takes():
    assert json.dumps(asdict(RunParams(np.int64(3)))) == '{"max_generations": 3, "population_size": 50, "rng_seed": 0}'
    plan = BenchPlan(
        node_counts=(np.int64(9),), generation_budgets=(np.int32(3),), seeds=((np.int64(101), np.uint16(9001)),),
        population_size=np.int64(12), radio_range=np.float64(250.0),
    )
    expected = BenchPlan(node_counts=(9,), generation_budgets=(3,), seeds=((101, 9001),), population_size=12)
    assert plan == expected
    # plan_to_dict encodes the plan with json.dumps, which refuses numpy scalars
    assert plan_to_dict(plan) == plan_to_dict(expected)
