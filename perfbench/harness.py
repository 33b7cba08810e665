"""Helpers of the meshroute benchmark that need no meshroute import.

- percentiles with one stated convention, and the sample-count rule that
  decides which tail percentile a run may report;
- the host's speed during a timed call, from reference samples;
- in-memory spans with parent links, and self time computed from them;
- an output digest that is stable for identical outputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter_ns

# Pinned to 1 before numpy loads: one process, one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Tail percentiles a record may report, in tenths of a percent so that the
# rank arithmetic stays exact.
TAIL_PERMILLE = (900, 950, 990, 999)
# A tail percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def _rank(permille: int, count: int) -> int:
    """1-based nearest rank: ceil(permille / 1000 * count), at least 1."""
    return max(1, -(-permille * count // 1000))


def percentile(values, permille: int):
    """Nearest-rank percentile: the smallest sample with at least
    permille/1000 of all samples at or below it. permille=500 is the
    median, and for an even count it is the lower of the middle two."""
    if not 0 < permille <= 1000:
        raise ValueError(f"permille {permille} out of (0, 1000]")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(permille, len(ordered)) - 1]


def median(values):
    return percentile(values, 500)


def local_reference(samples, start: float, end: float, window: float) -> float:
    """The reference time that stands for the host's speed during [start,
    end]: the harmonic mean of the durations of the reference samples
    (midpoint, seconds) taken within `window` seconds of that interval, or
    the nearest sample's duration when none was. Harmonic, because the work
    done in a stretch of time is inversely proportional to the reference
    time then, and samples are evenly spaced in time."""
    near = [seconds for t, seconds in samples if start - window <= t <= end + window]
    if near:
        return len(near) / sum(1.0 / seconds for seconds in near)
    if not samples:
        raise ValueError("no reference samples")
    return min(samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]


def tail_permille(count: int) -> int | None:
    """Highest tail percentile with at least MIN_SAMPLES_BEYOND samples above
    its rank, or None when the sample is too small for any tail."""
    best = None
    for permille in TAIL_PERMILLE:
        if count - _rank(permille, count) >= MIN_SAMPLES_BEYOND:
            best = permille
    return best


def permille_label(permille: int) -> str:
    """950 -> 'p95', 999 -> 'p99.9'."""
    whole, tenth = divmod(permille, 10)
    return f"p{whole}" if tenth == 0 else f"p{whole}.{tenth}"


@dataclass(slots=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    trace_id: int | None
    start_ns: int
    end_ns: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Spans kept in memory in start order, written out once at the end.

    A span's parent is the innermost span open when it began; its trace id
    (the scenario it belongs to) is given or inherited from that parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def begin(self, name: str, trace_id: int | None = None, **attrs) -> Span:
        parent = self._open[-1] if self._open else None
        if trace_id is None and parent is not None:
            trace_id = parent.trace_id
        span = Span(
            len(self.spans),
            parent.span_id if parent else None,
            name,
            trace_id,
            perf_counter_ns(),
            attrs=attrs,
        )
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end_ns = perf_counter_ns()
        if self._open.pop() is not span:
            raise RuntimeError(f"span {span.name} ended out of order")

    def record(self, name: str, start_ns: int, end_ns: int, **attrs) -> Span:
        """Add a finished leaf span under the innermost open span."""
        parent = self._open[-1]
        span = Span(len(self.spans), parent.span_id, name, parent.trace_id, start_ns, end_ns, attrs)
        self.spans.append(span)
        return span

    def write_jsonl(self, path) -> None:
        """One JSON array per span: id, parent, name, trace id, start, end, attrs."""
        with open(path, "w") as out:
            for s in self.spans:
                attrs = {k: v for k, v in s.attrs.items() if k != "key"}
                out.write(
                    json.dumps([s.span_id, s.parent_id, s.name, s.trace_id, s.start_ns, s.end_ns, attrs], separators=(",", ":"))
                    + "\n"
                )


def covered_ns(start_ns: int, end_ns: int, intervals) -> int:
    """Length of [start_ns, end_ns] covered by the union of the intervals."""
    total = 0
    cursor = start_ns
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end_ns)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span duration minus the part of it that its child spans cover."""
    kids: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent_id is not None:
            kids.setdefault(s.parent_id, []).append((s.start_ns, s.end_ns))
    return {
        s.span_id: s.duration_ns - covered_ns(s.start_ns, s.end_ns, kids.get(s.span_id, ()))
        for s in spans
    }


class Digest:
    """SHA-256 over the repr of each output added, in order. Floats are
    repr'd, which round-trips exactly, so equal outputs give equal digests."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, item) -> None:
        self._hash.update(repr(item).encode())
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
