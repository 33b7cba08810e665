"""The benchmark's workloads: set-up, closed-loop requests, output checks, metrics.

One run is one workload in one process on one thread. It warms up untimed,
then replays the workload in passes: each pass sets every scenario up again
and sends its requests, one at a time. One pass always completes, and more
run while the time budget lasts, so a timed unit may run more than once on
identical inputs. Quality and the output digest come from the first pass
only, so they do not depend on how fast the machine is, and every later
execution of a unit must reproduce the first one's output exactly.

While an untraced run serves, a timer signal runs a fixed reference
kernel every 0.15 s (reference.py); its time is taken out of every call it
interrupts. The gated request metric divides each
execution's time by the reference time measured during it, which cancels
the shared host's speed drift; raw wall-clock times stay in the record.

In a traced run each unit is executed twice, untraced and then traced, so
that tracing overhead is measured on the same inputs. Spans are recorded
here, around calls into the program's public functions; the decoder is
traced by swapping the `decode_path` name that meshroute.bbbc and
meshroute.bbo import, for traced executions only.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from time import perf_counter, perf_counter_ns

import numpy as np

import meshroute.bbbc as bbbc_module
import meshroute.bbo as bbo_module
from meshroute import (
    BbbcParams,
    BboParams,
    build_cost_matrix,
    generate_scenario,
    load_scenario,
    run_bbbc,
    run_bbo,
    save_scenario,
    shortest_path,
)
from meshroute.pathcodec import BrokenPathError, path_cost

from harness import (
    THREAD_VARS,
    Digest,
    Tracer,
    local_reference,
    median,
    percentile,
    permille_label,
    self_times_ns,
    tail_permille,
)
from reference import Reference, Sampler

POPULATION_SIZE = 50
# Every unit runs at least once; a unit's gated time is the mean over its
# executions, so a partial last pass adds samples without biasing the median.
MIN_PASSES = 1
# An execution is normalized by the reference samples taken during it or
# within this many seconds of it.
REFERENCE_WINDOW_S = 0.25
# setup_s must be in seconds: its reference-kernel units are converted at the
# kernel's time on the calm 2-vCPU host the benchmark was tuned on, so it
# reads as set-up seconds on that host whatever the host's speed during a run.
NOMINAL_REFERENCE_S = 2.0e-3
# Seed pair i of run seed s is (101 + s*k + i, 9001 + s*k + i) for a workload
# of k scenarios, so seed 0 gives meshroute.bench.DEFAULT_SEED_PAIRS' prefix.
SCENARIO_SEED_BASE = 101
OPT_SEED_BASE = 9001
WARM_UP_GENERATIONS = 30
ALGORITHMS = {
    "bbbc": (BbbcParams, run_bbbc),
    "bbo": (BboParams, run_bbo),
}
DECODE_SPAN = "pathcodec.decode_path"
ORACLE_SPAN = "oracle.shortest_path"


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    placement: str
    scenarios: int  # scenarios per run, each set up again in every pass
    generations: int = 0  # per optimizer run; 0 runs no optimizer
    queries: int = 0  # distinct oracle queries per pass; 0 runs none
    round_trip: bool = False  # save_scenario -> load_scenario before costing


# Why these three: see README.md beside this file. The optimizers run 50
# generations, not the paper's 100, so that a 30 s run holds twice the
# scenarios: the request metric's spread across seeds comes mostly from
# which scenarios a seed draws, and more of them narrow it.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid100-solve", 100, "grid", scenarios=18, generations=50),
        Workload("random400-short", 400, "random", scenarios=32, generations=50),
        Workload("grid2500-oracle", 2500, "grid", scenarios=1, queries=1000, round_trip=True),
    )
}


class TraceGuardError(RuntimeError):
    """A traced optimizer run recorded no decode spans: the wrapper missed."""


def seed_pairs(workload: Workload, seed: int) -> list[tuple[int, int]]:
    base = seed * workload.scenarios
    return [
        (SCENARIO_SEED_BASE + base + i, OPT_SEED_BASE + base + i)
        for i in range(workload.scenarios)
    ]


def query_pairs(nodes: int, count: int, seed: int) -> list[tuple[int, int]]:
    """count (source, terminal) pairs with source != terminal, drawn from seed."""
    rng = np.random.default_rng(seed)
    sources = rng.integers(nodes, size=count)
    terminals = rng.integers(nodes - 1, size=count)
    terminals += terminals >= sources
    return [(int(s), int(t)) for s, t in zip(sources, terminals)]


def check_route(nodes, cost, cm, source: int, terminal: int) -> list[str]:
    """A route must be a simple source -> terminal path whose every hop has a
    defined cost, and whose reported cost is exactly its hop-cost sum."""
    problems = []
    if not nodes or nodes[0] != source or nodes[-1] != terminal:
        problems.append(f"route does not run {source} -> {terminal}")
    if len(set(nodes)) != len(nodes):
        problems.append("route revisits a node")
    try:
        total = path_cost(tuple(nodes), cm)
    except BrokenPathError as exc:
        problems.append(str(exc))
    else:
        if cost != total:
            problems.append(f"reported cost {cost!r} != hop-cost sum {total!r}")
    return problems


def check_run(result, cm, source: int, terminal: int, oracle_cost: float, generations: int) -> list[str]:
    """Output checks on one optimizer RunResult."""
    problems = check_route(result.best_path.nodes, result.best_cost, cm, source, terminal)
    if result.best_cost < oracle_cost - 1e-12:
        problems.append(f"best cost {result.best_cost!r} below the oracle's {oracle_cost!r}")
    if len(result.trace) != generations:
        problems.append(f"trace has {len(result.trace)} points for {generations} generations")
    best_so_far = [point.best_cost_so_far for point in result.trace]
    if any(later > earlier for earlier, later in zip(best_so_far, best_so_far[1:])):
        problems.append("best-so-far cost increases")
    return problems


def run_output(result) -> tuple:
    """Everything an optimizer run returns that must be reproducible."""
    return (
        result.algorithm,
        tuple(result.best_path.nodes),
        float(result.best_cost),
        tuple((p.generation, float(p.best_cost_so_far), float(p.generation_best_cost)) for p in result.trace),
    )


@dataclass
class Scenario:
    seed: int
    opt_seed: int
    cm: object
    oracle: object


class Run:
    """State of one benchmark run: counts, unit timings, first-pass outputs, spans.

    A unit is one timed call that every pass repeats on identical inputs:
    ("setup", i), ("bbbc", i), ("bbo", i) or ("query", i, q) for scenario i.
    """

    def __init__(self, workload: Workload, trace: bool, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.tracer = Tracer() if trace else None
        self.active: Tracer | None = None  # tracer of the execution in progress
        self.last_span = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: list[tuple[tuple, float, float, float]] = []  # (key, start, end, seconds) per untraced execution
        self.sampler = Sampler(Reference())
        self.best: dict[tuple, float] = {}  # fastest untraced execution per unit
        self.overhead: list[tuple[float, float]] = []  # (untraced, traced) per request execution
        self.pct_error: dict[str, list[float]] = {name: [] for name in ALGORITHMS}
        self.cost_ratio: list[float] = []
        self.first_outputs: dict[tuple, tuple] = {}
        self.digest = Digest()
        self.passes = 0

    # -- operations ---------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        if len(self.failures) <= 5:
            print(f"FAILED: {message}", file=sys.stderr)

    def op(self, name: str, fn, *args):
        """One counted call into the program: (result, seconds), or
        (None, None) when it raised, which counts as a failed operation."""
        self.attempted += 1
        span = self.active.begin(name) if self.active else None
        self.last_span = span
        sampled = self.sampler.spent
        start = perf_counter()
        try:
            result = fn(*args)
            elapsed = perf_counter() - start - (self.sampler.spent - sampled)
        except Exception:  # a failing call is counted and reported; the run goes on
            self.fail(f"{name} raised:\n{traceback.format_exc()}")
            return None, None
        finally:
            if span is not None:
                self.active.end(span)
        return result, elapsed

    def annotate(self, **attrs) -> None:
        if self.active is not None:
            self.last_span.attrs.update(attrs)

    def check(self, problems: list[str], what: str) -> bool:
        if problems:
            self.fail(f"{what}: " + "; ".join(problems))
        return not problems

    def expect(self, ok: bool, what: str) -> bool:
        return self.check([] if ok else ["output differs"], what)

    @contextmanager
    def traced(self, trace_id: int, phase: str):
        """Scope of one traced execution: a scenario span, with the decoder
        wrapped in both optimizer modules and restored afterwards."""
        self.active = self.tracer
        span = self.tracer.begin("scenario", trace_id=trace_id, phase=phase)
        originals = {m: m.decode_path for m in (bbbc_module, bbo_module)}
        for module, original in originals.items():
            module.decode_path = self._traced_decoder(original)
        try:
            yield
        finally:
            for module, original in originals.items():
                module.decode_path = original
            self.tracer.end(span)
            self.active = None

    def _traced_decoder(self, original):
        tracer = self.tracer

        def decode_path(keys, cm, source, terminal):
            start = perf_counter_ns()
            path = original(keys, cm, source, terminal)
            end = perf_counter_ns()
            tracer.record(DECODE_SPAN, start, end, hops=len(path.nodes) - 1, key=hash(keys.tobytes()))
            return path

        return decode_path

    def unit(self, key: tuple, trace_id: int, body):
        """Execute one unit: body() returns (seconds, output, value) or None.

        The first pass's output goes into the digest; every later execution,
        and in a traced run the traced twin of each execution, must
        reproduce it. Returns value, or None when the unit failed.
        """
        start = perf_counter()
        done = body()
        end = perf_counter()
        if done is None:
            return None
        elapsed, output, value = done
        self.samples.append((key, start, end, elapsed))
        self.best[key] = min(elapsed, self.best.get(key, elapsed))
        if key not in self.first_outputs:
            self.first_outputs[key] = output
            self.digest.add((key, output))
        elif not self.expect(output == self.first_outputs[key], f"rerun of {key}"):
            return None
        if self.tracer is not None:
            with self.traced(trace_id, key[0]):
                twin = body()
            if twin is None or not self.expect(twin[1] == output, f"traced {key}"):
                return None
            if key[0] != "setup":
                self.overhead.append((elapsed, twin[0]))
        return value

    # -- units --------------------------------------------------------------

    def set_up(self, scenario_seed: int, opt_seed: int):
        """Synthesize, (round-trip,) cost and solve exactly one scenario; the
        timed parts add up to one set-up time. A unit body: returns
        (seconds, output, Scenario) or None."""
        w = self.workload
        scenario, t_gen = self.op("topology.generate_scenario", generate_scenario, w.nodes, w.placement, scenario_seed)
        if scenario is None:
            return None
        self.annotate(links=len(scenario.links))
        elapsed = t_gen
        if w.round_trip:
            path = self.scratch / f"scenario-{os.getpid()}.json"
            _, t_save = self.op("topology.save_scenario", save_scenario, scenario, path)
            if t_save is None:
                return None
            self.annotate(bytes=path.stat().st_size)
            loaded, t_load = self.op("topology.load_scenario", load_scenario, path)
            path.unlink()
            if loaded is None or not self.expect(loaded == scenario, "JSON round trip"):
                return None
            scenario = loaded
            elapsed += t_save + t_load
        cm, t_cost = self.op("fuzzycost.build_cost_matrix", build_cost_matrix, scenario)
        if cm is None:
            return None
        self.annotate(links=len(scenario.links), bytes=cm.values.nbytes + cm.adjacency.nbytes)
        oracle, t_oracle = self.op(ORACLE_SPAN, shortest_path, cm, 0, w.nodes - 1)
        if oracle is None:
            return None
        self.annotate(hops=len(oracle.nodes) - 1)
        if not self.check(check_route(oracle.nodes, oracle.cost, cm, 0, w.nodes - 1), "oracle"):
            return None
        output = (scenario_seed, tuple(oracle.nodes), float(oracle.cost))
        return elapsed + t_cost + t_oracle, output, Scenario(scenario_seed, opt_seed, cm, oracle)

    def solve(self, sc: Scenario, name: str):
        """One optimizer run, routing 0 -> n-1 on the scenario. A unit body:
        returns (seconds, output, best cost) or None."""
        w = self.workload
        params_cls, run = ALGORITHMS[name]
        params = params_cls(max_generations=w.generations, population_size=POPULATION_SIZE, rng_seed=sc.opt_seed)
        result, elapsed = self.op(f"{name}.run_{name}", run, sc.cm, 0, w.nodes - 1, params)
        if result is None:
            return None
        if self.active is not None:
            self._guard_decodes(self.last_span)
            self.annotate(generations=len(result.trace))
        problems = check_run(result, sc.cm, 0, w.nodes - 1, sc.oracle.cost, w.generations)
        if not self.check(problems, f"{name} on scenario {sc.seed}"):
            return None
        return elapsed, run_output(result), result.best_cost

    def _guard_decodes(self, span) -> None:
        spans = self.tracer.spans
        if not any(s.name == DECODE_SPAN and s.parent_id == span.span_id for s in spans[span.span_id + 1 :]):
            raise TraceGuardError(
                f"traced {span.name} recorded no {DECODE_SPAN} spans; the decoder wrapper "
                "missed (did the optimizers stop importing decode_path by name?)"
            )

    def query(self, sc: Scenario, source: int, terminal: int):
        """One oracle query between two nodes of the scenario. A unit body:
        returns (seconds, output, cost) or None."""
        result, elapsed = self.op(ORACLE_SPAN, shortest_path, sc.cm, source, terminal)
        if result is None:
            return None
        self.annotate(hops=len(result.nodes) - 1)
        if not self.check(check_route(result.nodes, result.cost, sc.cm, source, terminal), f"oracle {source}->{terminal}"):
            return None
        return elapsed, (tuple(result.nodes), float(result.cost)), result.cost

    # -- passes -------------------------------------------------------------

    def serve(self, pairs: list[tuple[int, int]], queries: list[tuple[int, int]], seconds: float) -> None:
        """Closed loop: each pass sets every scenario up again and sends its
        requests, one at a time. At least MIN_PASSES passes run; after that
        the run stops at the first unit boundary past the deadline."""
        deadline = perf_counter() + seconds

        def stop() -> bool:
            return self.passes >= MIN_PASSES and perf_counter() >= deadline

        while not stop():
            first = self.passes == 0
            for i, (scenario_seed, opt_seed) in enumerate(pairs):
                if stop():
                    return
                sc = None  # release the previous pass's scenario before building its twin
                sc = self.unit(("setup", i), i, lambda: self.set_up(scenario_seed, opt_seed))
                if sc is None:
                    continue
                for name in ALGORITHMS if self.workload.generations else ():
                    if stop():
                        return
                    cost = self.unit((name, i), i, lambda: self.solve(sc, name))
                    if first and cost is not None:
                        self.pct_error[name].append(100.0 * (cost - sc.oracle.cost) / sc.oracle.cost)
                        self.cost_ratio.append(cost / sc.oracle.cost)
                for q, (source, terminal) in enumerate(queries):
                    if stop():
                        return
                    cost = self.unit(("query", i, q), i, lambda: self.query(sc, source, terminal))
                    if first and cost is not None:
                        self.cost_ratio.append(1.0)  # an oracle route is its own optimum
            self.passes += 1


def warm_up(workload: Workload, scratch: Path) -> None:
    """Untimed: run each kind of call the workload makes once, set-up on a
    tiny grid and the optimizers on a scenario of the workload's own size
    that no run uses (run seeds start at SCENARIO_SEED_BASE). After a
    tiny-grid solve alone, the first full-size solve of a process ran
    10-40% slower than its repeats."""
    scenario = generate_scenario(25, "grid", 1)
    path = scratch / f"warmup-{os.getpid()}.json"
    save_scenario(scenario, path)
    scenario = load_scenario(path)
    path.unlink()
    cm = build_cost_matrix(scenario)
    shortest_path(cm, 0, 24)
    if workload.generations:
        n = workload.nodes
        cm = build_cost_matrix(generate_scenario(n, workload.placement, SCENARIO_SEED_BASE - 1))
        for params_cls, run in ALGORITHMS.values():
            run(cm, 0, n - 1, params_cls(max_generations=WARM_UP_GENERATIONS, population_size=POPULATION_SIZE))


def execute(workload: Workload, seed: int, seconds: float, trace: bool, scratch: Path) -> Run:
    """Warm up, then replay the workload's scenarios and requests for `seconds`."""
    warm_up(workload, scratch)
    run = Run(workload, trace, scratch)
    root = run.tracer.begin("workload", workload=workload.name) if trace else None
    queries = query_pairs(workload.nodes, workload.queries, seed) if workload.queries else []
    pairs = seed_pairs(workload, seed)
    if trace:  # per-layer numbers are raw; samples would land inside spans
        run.serve(pairs, queries, seconds)
    else:
        run.sampler.reference()  # untimed warm-up of the kernel
        run.sampler.sample()
        with run.sampler.running():
            run.serve(pairs, queries, seconds)
        run.sampler.sample()
    if root is not None:
        run.tracer.end(root)
    return run


# -- metrics ------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_request(run: Run, per_unit: dict[tuple, float]) -> list[float]:
    """Per request, one value from per-unit values: a solve request is
    run_bbbc plus run_bbo on one scenario, a query request one query."""
    if run.workload.generations:
        indices = sorted({key[1] for key in per_unit if key[0] != "setup"})
        return [
            sum(per_unit[(name, i)] for name in ALGORITHMS)
            for i in indices
            if all((name, i) in per_unit for name in ALGORITHMS)
        ]
    return [t for key, t in per_unit.items() if key[0] == "query"]


def executions(run: Run) -> list[tuple[tuple, float, float | None]]:
    """(key, seconds, reference seconds) per untraced unit execution, the
    reference being the host-speed estimate around that execution; None in
    a traced run, which takes no reference samples."""
    samples = run.sampler.samples
    return [
        (key, elapsed, local_reference(samples, start, end, REFERENCE_WINDOW_S) if samples else None)
        for key, start, end, elapsed in run.samples
    ]


def reference_units(run: Run) -> dict[tuple, float]:
    """Per unit, the mean over its untraced executions of the execution's
    time divided by the reference time measured around it."""
    ratios: dict[tuple, list[float]] = {}
    for key, elapsed, reference in executions(run):
        ratios.setdefault(key, []).append(elapsed / reference)
    return {key: fmean(values) for key, values in ratios.items()}


def end_to_end_metrics(run: Run) -> dict[str, tuple[float, str]]:
    """The gated metrics, from untraced executions only. Both timings are in
    reference-kernel units; setup_s is converted to seconds at
    NOMINAL_REFERENCE_S a kernel."""
    units = reference_units(run)
    setups = [value for key, value in units.items() if key[0] == "setup"]
    return {
        "setup_s": (median(setups) * NOMINAL_REFERENCE_S, "s"),
        "request_ref_p50": (median(per_request(run, units)), "ref"),
        "route_cost_ratio": (fmean(run.cost_ratio), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def detail_metrics(run: Run) -> dict:
    """The full record of untraced numbers, on the workloads that produce them."""
    w = run.workload
    times: dict[str, list[float]] = {}
    first: dict[tuple, float] = {}
    for key, _, _, t in run.samples:
        times.setdefault(key[0], []).append(t)
        first.setdefault(key, t)
    out = {
        "passes": run.passes,
        "units": len(run.best),
        "executions": len(run.samples),
        "failed_share": run.failed / run.attempted,
        "setup_s_sum_first_pass": sum(t for key, t in first.items() if key[0] == "setup"),
        "setup_best_s_p50": median([t for key, t in run.best.items() if key[0] == "setup"]),
        "request_best_ms_p50": median(per_request(run, run.best)) * 1e3,
        "reference_ms_p50": median([t for _, t in run.sampler.samples]) * 1e3 if run.sampler.samples else None,
        "reference_samples": len(run.sampler.samples),
    }
    if w.generations:
        solve_times = times["bbbc"] + times["bbo"]
        out["solves_per_s"] = len(solve_times) / sum(solve_times)
        for name in ALGORITHMS:
            out[f"{name}_solve_ms_p50"] = median(times[name]) * 1e3
            out[f"{name}_solve_best_ms_p50"] = median([t for key, t in run.best.items() if key[0] == name]) * 1e3
            out[f"{name}_pct_error_mean"] = fmean(run.pct_error[name])
        errors = [e for name in ALGORITHMS for e in run.pct_error[name]]
        out["optimum_share"] = sum(e == 0.0 for e in errors) / len(errors)
    else:
        queries = times["query"]
        out["oracle_queries_per_s"] = len(queries) / sum(queries)
        out["oracle_ms_p50"] = median(queries) * 1e3
        tail = tail_permille(len(queries))
        if tail is not None:
            out[f"oracle_ms_{permille_label(tail)}"] = percentile(queries, tail) * 1e3
        out["oracle_queries_timed"] = len(queries)
    return out


def layer_metrics(run: Run) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the traced executions' spans. A layer that did
    no work on this workload reads 0."""
    spans = run.tracer.spans
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    self_ns = self_times_ns(spans)

    def durations_ms(name):
        return [s.duration_ns / 1e6 for s in by_name.get(name, ())]

    def median_or_0(values):
        return median(values) if values else 0.0

    def mean_attr(name, attr):
        values = [s.attrs[attr] for s in by_name.get(name, ())]
        return fmean(values) if values else 0.0

    decodes = by_name.get(DECODE_SPAN, [])
    decode_us = [s.duration_ns / 1e3 for s in decodes]
    build_ms = durations_ms("fuzzycost.build_cost_matrix")
    links = [s.attrs["links"] for s in by_name.get("fuzzycost.build_cost_matrix", ())]

    m = {
        "topology.generate_ms": (median_or_0(durations_ms("topology.generate_scenario")), "ms"),
        "topology.save_ms": (median_or_0(durations_ms("topology.save_scenario")), "ms"),
        "topology.load_ms": (median_or_0(durations_ms("topology.load_scenario")), "ms"),
        "topology.links": (mean_attr("topology.generate_scenario", "links"), "count"),
        "topology.json_bytes": (mean_attr("topology.save_scenario", "bytes"), "bytes"),
        "fuzzycost.build_ms": (median_or_0(build_ms), "ms"),
        "fuzzycost.us_per_link": (sum(build_ms) * 1e3 / sum(links) if links else 0.0, "us"),
        "fuzzycost.matrix_bytes": (mean_attr("fuzzycost.build_cost_matrix", "bytes"), "bytes"),
        "oracle.queries": (len(by_name.get(ORACLE_SPAN, ())), "count"),
        "oracle.query_ms_total": (sum(durations_ms(ORACLE_SPAN)), "ms"),
        "oracle.path_hops_mean": (mean_attr(ORACLE_SPAN, "hops"), "count"),
        "pathcodec.decode_calls": (len(decodes), "count"),
        "pathcodec.decode_ms_total": (sum(decode_us) / 1e3, "ms"),
        "pathcodec.decode_us_p50": (median_or_0(decode_us), "us"),
        "pathcodec.decode_us_p99": (percentile(decode_us, 990) if decode_us else 0.0, "us"),
        "pathcodec.path_hops_mean": (mean_attr(DECODE_SPAN, "hops"), "count"),
    }

    decode_ns_under: dict[int, int] = {}
    calls_under: dict[int, int] = {}
    distinct_under: dict[int, set] = {}
    for s in decodes:
        decode_ns_under[s.parent_id] = decode_ns_under.get(s.parent_id, 0) + s.duration_ns
        calls_under[s.parent_id] = calls_under.get(s.parent_id, 0) + 1
        distinct_under.setdefault(s.parent_id, set()).add(s.attrs["key"])
    total_decode = total_solve = 0
    for name in ALGORITHMS:
        runs = by_name.get(f"{name}.run_{name}", [])
        solve_ns = sum(s.duration_ns for s in runs)
        decode_ns = sum(decode_ns_under.get(s.span_id, 0) for s in runs)
        calls = sum(calls_under.get(s.span_id, 0) for s in runs)
        generations = sum(s.attrs["generations"] for s in runs)
        total_decode += decode_ns
        total_solve += solve_ns
        m[f"pathcodec.solve_share.{name}"] = (decode_ns / solve_ns if solve_ns else 0.0, "ratio")
        m[f"{name}.self_ms"] = (fmean(self_ns[s.span_id] for s in runs) / 1e6 if runs else 0.0, "ms")
        m[f"{name}.generations"] = (generations / len(runs) if runs else 0.0, "count")
        m[f"{name}.decodes_per_generation"] = (calls / generations if generations else 0.0, "count")
        best = [t for key, t in run.best.items() if key[0] == name]
        m[f"{name}.solve_best_ms_p50"] = (median_or_0(best) * 1e3, "ms")
        m[f"{name}.pct_error_mean"] = (fmean(run.pct_error[name]) if run.pct_error[name] else 0.0, "%")
    m["pathcodec.solve_share"] = (total_decode / total_solve if total_solve else 0.0, "ratio")
    distinct = sum(len(keys) for keys in distinct_under.values())
    m["pathcodec.distinct_key_share"] = (distinct / len(decodes) if decodes else 0.0, "ratio")
    # traced over untraced request rate on the same executions
    m["trace.overhead_ratio"] = (
        sum(untraced for untraced, _ in run.overhead) / sum(traced for _, traced in run.overhead),
        "ratio",
    )
    return m


# -- provenance -----------------------------------------------------------------


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(source: Path) -> str:
    digest = Digest()
    for path in sorted((source / "meshroute").glob("*.py")):
        digest.add((path.name, path.read_bytes()))
    return digest.hexdigest()


def provenance(root: Path, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root / "src"),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload_seed": seed,
    }
