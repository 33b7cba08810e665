#!/usr/bin/env python3
"""Run one meshroute benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid100-solve --seed 0 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src. Every
metric is printed by name with its unit, the full record (provenance,
details, digest) is written under perfbench/out/, and the last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones and the spans are written out as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, default=30.0, help="time budget; the first pass always completes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "meshroute" / "__init__.py").is_file():
        print(f"error: no meshroute package under {SOURCE}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import workloads  # imports numpy, so only after the thread pins

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    trace = bool(args.trace)
    run = workloads.execute(workload, args.seed, args.seconds, trace, OUT)
    stem = f"{workload.name}-s{args.seed}-t{args.trace}"

    if trace:
        metrics = workloads.layer_metrics(run)
        run.tracer.write_jsonl(OUT / f"{stem}-spans.jsonl")
    else:
        metrics = workloads.end_to_end_metrics(run)
    digest = run.digest.hexdigest()
    reference = json.loads(DIGESTS.read_text()).get(workload.name, {}).get(str(args.seed)) if DIGESTS.is_file() else None
    record = {
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": workloads.provenance(ROOT, args.seed),
        "attempted": run.attempted,
        "failed": run.failed,
        "correct": run.failed == 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "details": workloads.detail_metrics(run),
        "digest": digest,
        "digest_reference": reference,
        "digest_changed": None if reference is None else digest != reference,
        "failures": run.failures[:20],
        "samples": [[list(key), seconds, reference] for key, seconds, reference in workloads.executions(run)],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value!r} {unit}")
    for name, value in record["details"].items():
        print(f"{'details.' + name:36s} {value!r}")
    print(f"{'digest':36s} {digest} (changed: {record['digest_changed']})")
    print(f"record: {OUT / (stem + '.json')}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    from harness import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
