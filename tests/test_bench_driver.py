"""The benchmark driver refuses bad arguments before its first run, and
records a Tier-1 run per side."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def run_once(*args):
        raise AssertionError("a run started before the arguments were checked")

    monkeypatch.setattr(module, "run_once", run_once)
    return module


@pytest.mark.parametrize("args", [
    ["--seeds", "1", "1"],
    ["--seeds", "1", "2", "1"],
    ["--seeds", "1", "--workloads", "nosuch"],
    ["--seeds", "1", "--workloads", "square_base", "nosuch"],
    ["--seeds", "1", "--workloads", "square_base", "square_base"],
], ids=["seed-twice", "seed-twice-apart", "unknown", "unknown-after-known", "workload-twice"])
def test_bad_arguments_are_refused_before_the_first_run(bench, tmp_path, capsys, args):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        bench.main([*args, "--seconds", "2", "--out", str(out)])
    assert exit_.value.code == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


PASSING = """\
........................................................................ [ 98%]
..                                                                       [100%]
============================= slowest 5 durations ==============================
19.61s call     tests/test_acceptance.py::test_criterion_5_codec_sweep
8.02s call     tests/test_acceptance.py::test_criterion_4
4.28s call     tests/test_entropy_coding.py::TestRangeCoder::test_memory_per_symbol_is_bounded
1.50s setup    tests/test_codec.py::TestPipeline::test_roundtrip[q 1]
0.97s call     tests/test_cli.py::test_sweep
424 passed, 1 warning in 65.12s (0:01:05)
"""

FAILING = """\
..F.E
============================= slowest 5 durations ==============================
2.00s call     tests/test_codec.py::test_a
=========================== short test summary info ============================
FAILED tests/test_codec.py::test_b - AssertionError
ERROR tests/test_codec.py::test_c - RuntimeError
1 failed, 3 passed, 1 error in 3.40s
"""


def fake_run(stdout: str, returncode: int, calls: list):
    def run(cmd, cwd, **kwargs):
        calls.append((cmd, Path(cwd), kwargs["env"]["PYTHONPATH"]))
        return subprocess.CompletedProcess(cmd, returncode, stdout=stdout, stderr="")
    return run


def test_tier1_record_is_read_from_pytest_output(bench, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(bench.subprocess, "run", fake_run(PASSING, 0, calls))
    record = bench.run_tier1(tmp_path)
    assert record["exit_code"] == 0 and record["wall_s"] >= 0
    assert (record["passed"], record["failed"]) == (424, 0)
    assert [t["s"] for t in record["slowest"]] == [19.61, 8.02, 4.28, 1.50, 0.97]
    assert record["slowest"][3] == {"s": 1.5, "phase": "setup",
                                    "test": "tests/test_codec.py::TestPipeline::test_roundtrip[q 1]"}
    (cmd, cwd, path), = calls
    assert cmd[1:] == bench.TIER1 and "--durations=5" in cmd and cwd == tmp_path
    assert path.split(os.pathsep)[0] == str(tmp_path / "src")


def fake_benchmark_run(checkout, workload, seed, seconds):
    declared = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in declared["end_to_end"]}
    return {"machine": {"seed": seed}, "run": {"stream_sha256": {"0": "ab"}, "raw_wall": {}},
            "result": {"correct": True, "metrics": metrics}}


@pytest.mark.parametrize("stdout, code, expected", [
    (PASSING, 0, 0), (FAILING, 1, 1)], ids=["passing", "failing"])
def test_tier1_runs_once_per_side_and_a_failure_fails_the_bench(
        bench, monkeypatch, tmp_path, stdout, code, expected):
    other = tmp_path / "parent"
    (other / "perfbench").mkdir(parents=True)
    (other / "perfbench" / "run.py").write_text("")
    calls = []
    monkeypatch.setattr(bench, "run_once", fake_benchmark_run)
    monkeypatch.setattr(bench.subprocess, "run", fake_run(stdout, code, calls))
    out = tmp_path / "bench.json"
    assert bench.main(["--seeds", "1", "--seconds", "1", "--workloads", "square_base",
                       "--against", str(other), "--tier1", "--out", str(out)]) == expected
    assert sorted(cwd for _, cwd, _ in calls) == sorted([bench.ROOT, other.resolve()])
    tier1 = json.loads(out.read_text())["tier1"]
    assert set(tier1) == {"this", "against"}
    if expected:
        assert (tier1["this"]["passed"], tier1["this"]["failed"]) == (3, 2)
        assert tier1["this"]["slowest"] == [{"s": 2.0, "phase": "call",
                                             "test": "tests/test_codec.py::test_a"}]
