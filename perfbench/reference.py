"""A fixed reference computation that measures how fast the host is right now.

A shared host's speed drifts by half or more, switching within a second
and staying for seconds to minutes, which moves every wall-clock timing of
the program with it. While the benchmark times the program, a Sampler runs
this kernel every SAMPLE_INTERVAL_S from a timer signal, even in the middle
of a long call, and each call's time is divided by the kernel's time
measured during it. The gated request metric is thus in units of
"reference kernels", and the drift cancels.

The kernel imitates what the program spends its time on, and uses none of
the program's code, so no change to the program can move it. Its first
part is the interpreter-bound list, bytearray and sorted(key=...) work of
the path decoder: on a grid it computes hop levels to the terminal
breadth-first, orders every node's neighbours by fixed random keys, and
walks greedily down the levels. Its second part is the optimizers' many
small numpy calls on one key vector: Gaussian steps, clipping, fresh
uniform keys and conversion to a list. On a 2-vCPU shared host, in 3 s
buckets over two minutes, run_bbbc and run_bbo on 100-node grids and
400-node random scenarios kept within 6-7% (10th to 90th percentile) of a
fixed multiple of this kernel's time, against 8-9% for the first part
alone and 13-18% for raw wall time.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

SIDE = 30  # a SIDE x SIDE grid
ROUNDS = 2
KEYS = 400  # the length of one key vector
STEPS = 40  # one execution then takes about 3-5 ms
SEED = 7
SAMPLE_INTERVAL_S = 0.15  # the kernel then takes about 3% of the run


class Reference:
    """Build once; each call executes the identical kernel and returns the
    same value, so a call's duration depends on the host alone."""

    def __init__(self):
        n = SIDE * SIDE
        self.n = n
        self.neighbors = []
        for v in range(n):
            row, col = divmod(v, SIDE)
            near = []
            if row:
                near.append(v - SIDE)
            if row < SIDE - 1:
                near.append(v + SIDE)
            if col:
                near.append(v - 1)
            if col < SIDE - 1:
                near.append(v + 1)
            self.neighbors.append(near)
        self.keys = np.random.default_rng(SEED).random(n).tolist()

    def __call__(self) -> float:
        return self._walk() + self._keys()

    def _walk(self) -> int:
        n, neighbors, terminal = self.n, self.neighbors, self.n - 1
        key_of = self.keys.__getitem__
        steps = 0
        for _ in range(ROUNDS):
            level = [n + 1] * n
            level[terminal] = 0
            frontier = [terminal]
            depth = 0
            while frontier:
                depth += 1
                grown = []
                for w in frontier:
                    for u in neighbors[w]:
                        if level[u] > n:
                            level[u] = depth
                            grown.append(u)
                frontier = grown
            orders = [sorted(neighbors[v], key=key_of, reverse=True) for v in range(n)]
            visited = bytearray(n)
            v = 0
            while v != terminal:
                for u in orders[v]:
                    if not visited[u] and level[u] < level[v]:
                        break
                visited[u] = 1
                v = u
                steps += 1
        return steps

    def _keys(self) -> float:
        rng = np.random.default_rng(SEED)
        center = rng.random(KEYS)
        total = 0.0
        for step in range(STEPS):
            keys = np.clip(center + 0.3 * rng.standard_normal(KEYS) / (step % 5 + 1), 0.0, 1.0).tolist()
            fresh = rng.random(KEYS)
            total += keys[step] + float(fresh[step])
        return total

    def timed(self) -> tuple[float, float]:
        """(midpoint, seconds) of one execution, on the perf_counter clock."""
        start = perf_counter()
        self()
        end = perf_counter()
        return (start + end) / 2, end - start


class Sampler:
    """Samples of the reference kernel, (midpoint, seconds) each, taken every
    `interval` seconds by a SIGALRM handler in the main thread while
    `running()`, so they also fall inside long calls into the program.
    `spent` is the wall time all samples took; a caller subtracts its growth
    over a timed call from that call's time."""

    def __init__(self, reference: Reference, interval: float = SAMPLE_INTERVAL_S):
        self.reference = reference
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        self.samples.append(self.reference.timed())
        self.spent += perf_counter() - start

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
