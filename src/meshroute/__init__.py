"""Fuzzy link-cost routing for wireless mesh networks.

Links are scored by a Mamdani-style fuzzy system over (throughput, delay,
jitter); minimum-cost paths are searched with Big Bang - Big Crunch and
Biogeography-Based Optimization over a shared random-keys encoding, and
judged against an exact shortest-path oracle.
"""

from .bbbc import BbbcParams, run_bbbc
from .bbo import BboParams, run_bbo
from .bench import BenchPlan, run_plan, summarize
from .fuzzycost import CostMatrix, build_cost_matrix, evaluate_ilc
from .oracle import UnreachableError, percent_error, shortest_path
from .pathcodec import BrokenPathError, NoPathError, Path, decode_path, path_cost
from .results import RunParams, RunResult, TracePoint
from .topology import (
    ConnectivityError,
    NetworkScenario,
    generate_scenario,
    load_scenario,
    save_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "BbbcParams",
    "BboParams",
    "BenchPlan",
    "BrokenPathError",
    "ConnectivityError",
    "CostMatrix",
    "NetworkScenario",
    "NoPathError",
    "Path",
    "RunParams",
    "RunResult",
    "TracePoint",
    "UnreachableError",
    "build_cost_matrix",
    "decode_path",
    "evaluate_ilc",
    "generate_scenario",
    "load_scenario",
    "path_cost",
    "percent_error",
    "run_bbbc",
    "run_bbo",
    "run_plan",
    "save_scenario",
    "shortest_path",
    "summarize",
]
