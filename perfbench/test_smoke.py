"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the frozen anchors score BD-Rate ~0 whenever the streams are byte-identical
to the anchor's, and that the benchmark refuses to run, printing no result,
where there is no program.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import harness

SPEC = json.loads((harness.HERE.parent / "BENCHMARK.json").read_text())


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_harness():
    assert {w["name"] for w in SPEC["workloads"]} == set(harness.WORKLOADS)
    assert _names("end_to_end") == harness.END_TO_END
    assert _names("per_layer") == harness.PER_LAYER


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted(workload, trace):
    out = harness.run(workload, seed=0, seconds=0.1, trace=trace, size="tiny")
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        if out["info"]["anchor_streams_match"]:
            # the program that froze the anchors: BD-Rate ~0 reads as ~100
            for key in ("bd_rate_pct", "base_bd_rate_pct"):
                assert abs(result["metrics"][key]["value"] - 100.0) < 0.01, key


def test_tiny_anchors_cover_seed_0_only():
    harness.load_anchor("square_base", "tiny", 0)
    with pytest.raises(harness.BenchmarkError):
        harness.load_anchor("square_base", "tiny", 1)


def test_fails_without_program(tmp_path):
    shutil.copy(harness.HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.HERE, tmp_path / harness.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "square_base",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
