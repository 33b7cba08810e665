"""scripts/run_convergence_trace.py: bad arguments exit 2 and domain errors
exit 3, each with one error line."""

import importlib.util
from pathlib import Path

import pytest

from meshroute.oracle import UnreachableError
from meshroute.pathcodec import NoPathError
from meshroute.topology import ConnectivityError

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_convergence_trace.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("run_convergence_trace", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "args, message",
    [
        (["--nodes", "25", "--sample-every", "0"], "--sample-every must be at least 1"),
        (["--nodes", "25", "--generations", "0"], "max_generations must be >= 1"),
        (["--nodes", "10"], "10 is not a perfect square"),
    ],
    ids=["sample-every-0", "generations-0", "grid-10-nodes"],
)
def test_bad_argument_exits_2(script, args, message, tmp_path, capsys):
    assert script.main([*args, "--out", str(tmp_path / "traces")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "traces").exists()


def test_run_prints_percent_error(script, tmp_path, capsys):
    args = ["--nodes", "25", "--generations", "3", "--sample-every", "1", "--out", str(tmp_path)]
    assert script.main(args) == 0
    out, _ = capsys.readouterr()
    assert [line.split()[0] for line in out.splitlines()[3:6]] == ["1", "2", "3"]
    assert "% above optimum" in out
    assert {p.name for p in tmp_path.iterdir()} == {"trace_bbbc.csv", "trace_bbo.csv"}


@pytest.mark.parametrize(
    "error",
    [
        ConnectivityError("no placement connecting node 0 to node 9999 in 1000 attempts"),
        NoPathError("no path 0 -> 24"),
        UnreachableError("node 24 is unreachable from node 0"),
    ],
    ids=["placement", "no-path", "unreachable"],
)
def test_domain_error_exits_3(script, error, monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr(script, "generate_scenario", refuse)
    assert script.main(["--nodes", "25", "--out", str(tmp_path / "traces")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {error}\n"
    assert not (tmp_path / "traces").exists()
