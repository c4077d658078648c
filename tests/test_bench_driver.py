"""The benchmark driver refuses bad arguments before its first run."""

import importlib.util
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
