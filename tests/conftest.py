"""Shared fixtures: small hand-built cost matrices and cached grid scenarios."""

import pytest

from meshroute.fuzzycost import build_cost_matrix
from meshroute.oracle import shortest_path
from meshroute.topology import generate_scenario

from helpers import from_entries


@pytest.fixture
def line3_cm():
    # 0 - 1 - 2 bidirectional line; unique simple path 0 -> 2
    return from_entries(
        3, {(0, 1): 0.3, (1, 0): 0.3, (1, 2): 0.25, (2, 1): 0.25}
    )


@pytest.fixture
def diamond_cm():
    # 0 -> {1, 2} -> 3; both middle nodes also link back to 0
    return from_entries(
        4,
        {
            (0, 1): 0.4,
            (0, 2): 0.4,
            (1, 0): 0.4,
            (2, 0): 0.4,
            (1, 3): 0.4,
            (2, 3): 0.4,
        },
    )


@pytest.fixture(scope="session")
def grid25():
    """25-node grid scenario, its cost matrix, and the exact optimum."""
    scenario = generate_scenario(25, placement="grid", seed=42)
    cm = build_cost_matrix(scenario)
    oracle = shortest_path(cm, 0, 24)
    return scenario, cm, oracle
