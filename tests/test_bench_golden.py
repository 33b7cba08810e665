"""`meshroute bench` output pinned against committed files.

golden_bench/ holds what `meshroute bench` writes for two fixed plans:
GOLDEN_PLAN's plan.json, results.csv, summary.csv and one trace file, and
the summary.csv of BBBC_ONLY_PLAN, whose bbo_* columns and time ratio are
blank. Wall times change from run to run, so every non-empty field of a
column whose name ends in _ms or _ratio is written as "*"; blank fields
stay blank. Everything else must match byte for byte, so a change to how a
plan is saved or a CSV is written shows here. Regenerate the files with
`PYTHONPATH=src python tests/test_bench_golden.py` only when an output is
meant to change, and say which and why.
"""

import json
from pathlib import Path

import pytest

from meshroute.cli import EXIT_OK, main

GOLDEN_DIR = Path(__file__).with_name("golden_bench")

GOLDEN_PLAN = {
    "node_counts": [9, 25],
    "generation_budgets": [3, 5],
    "seeds": [[101, 9001], [102, 9002]],
    "population_size": 12,
}
GOLDEN_FILES = ("plan.json", "results.csv", "summary.csv", "trace_bbo_n25_g5_s102_o9002.csv")

BBBC_ONLY_PLAN = {
    "node_counts": [9],
    "generation_budgets": [3],
    "seeds": [[101, 9001]],
    "population_size": 12,
    "algorithms": ["bbbc"],
}
BBBC_ONLY_SUMMARY = "summary_bbbc_only.csv"


def mask_times(text: str) -> str:
    """The CSV text with each non-empty time field written as "*"."""
    header, *rows = text.split("\n")
    timed = [name.endswith(("_ms", "_ratio")) for name in header.split(",")]
    masked = [header]
    for row in rows:
        fields = row.split(",")
        if row:
            assert len(fields) == len(timed), row
            for k, value in enumerate(fields):
                if timed[k] and value:
                    assert float(value) > 0, row
                    fields[k] = "*"
        masked.append(",".join(fields))
    return "\n".join(masked)


def bench_outputs(directory: Path, plan: dict) -> Path:
    """Run `meshroute bench` on plan and return its output directory."""
    directory.mkdir(parents=True, exist_ok=True)
    plan_path = directory / "plan-in.json"
    plan_path.write_text(json.dumps(plan))
    out_dir = directory / "out"
    assert main(["bench", "--plan", str(plan_path), "--out", str(out_dir)]) == EXIT_OK
    return out_dir


def outputs(directory: Path) -> dict[str, str]:
    """Every pinned file's text, times masked, keyed by its golden name, and
    under "traces" the names of GOLDEN_PLAN's trace files, one per line."""
    main_out = bench_outputs(directory / "golden", GOLDEN_PLAN)
    found = {name: (main_out / name).read_text() for name in GOLDEN_FILES}
    found[BBBC_ONLY_SUMMARY] = (bench_outputs(directory / "bbbc", BBBC_ONLY_PLAN) / "summary.csv").read_text()
    found = {name: mask_times(text) if name.endswith(".csv") else text for name, text in found.items()}
    found["traces"] = "\n".join(sorted(p.name for p in main_out.glob("trace_*.csv")))
    return found


@pytest.fixture(scope="module")
def found(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("bench-golden"))


@pytest.mark.parametrize("name", (*GOLDEN_FILES, BBBC_ONLY_SUMMARY))
def test_bench_output_matches_golden(found, name):
    assert found[name] == (GOLDEN_DIR / name).read_text()


def test_golden_plan_writes_one_trace_per_run(found):
    # 2 node counts x 2 budgets x 2 seed pairs x 2 algorithms
    traces = found["traces"].split("\n")
    assert len(traces) == 16 and GOLDEN_FILES[3] in traces


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name, text in outputs(Path(scratch)).items():
            if name != "traces":
                (GOLDEN_DIR / name).write_text(text)
