#!/usr/bin/env python3
"""Run the benchmark over a list of seeds and write one JSON summary.

    python3 scripts/bench.py --seeds 1 2 3 4 5 6 --seconds 60 --out BENCH_n.json
    python3 scripts/bench.py --seeds 1 2 3 --seconds 60 --against ../parent --out cmp.json
    python3 scripts/bench.py --seeds 1 --seconds 10 --against ../parent --tier1 --out cmp.json

For each workload and seed it runs ``perfbench/run.py --trace 0`` as a
subprocess, in this checkout and, with ``--against DIR``, in the checkout DIR
as well (for example the parent commit), alternating which side goes first.
The JSON holds the machine line; per side and per workload, the median and
quartiles of each end-to-end metric and of its raw wall-time value
(``raw_wall``); the per-q stream SHA-256 of every seed; and whether those
hashes match across sides.  With ``--tier1`` it also runs the Tier-1 test
command once per side, after the benchmark runs, and stores its wall seconds,
its passed and failed counts and its five slowest tests.  Exit code 1 means a
run failed or was incorrect, or a Tier-1 run did not pass; exit code 2 means
bad arguments (a repeated seed or workload, or a workload BENCHMARK.json does
not declare), refused before the first run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=5"]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its machine, run and result lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    out = {"result": json.loads(lines[-1])}
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("machine", "run"):
            out[key] = json.loads(rest)
    return out


def run_tier1(checkout: Path) -> dict:
    """One Tier-1 run in ``checkout``, with its ``src`` first on PYTHONPATH:
    wall seconds, exit code, passed and failed (or errored) test counts, and
    the five slowest test phases pytest lists."""
    path = os.pathsep.join(p for p in (str(checkout / "src"), os.environ.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", lines[-1] if lines else "")}
    slowest = [{"s": float(m[1]), "phase": m[2], "test": m[3]} for m in
               map(re.compile(r"([\d.]+)s (call|setup|teardown) +(\S.*)").fullmatch, lines) if m]
    return {
        "wall_s": round(wall, 2),
        "exit_code": proc.returncode,
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0),
        "slowest": slowest,
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of a list of values."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: dict[int, dict]) -> dict:
    """Per-metric spread, raw wall-time spread and stream hashes of one side's runs."""
    good = {seed: r for seed, r in runs.items() if "error" not in r}
    metrics, raw_wall = {}, {}
    for name, m in (next(iter(good.values()))["result"]["metrics"].items() if good else ()):
        values = [r["result"]["metrics"][name]["value"] for r in good.values()]
        metrics[name] = {**spread(values), "unit": m["unit"], "values": values}
        raw = [r["run"]["raw_wall"][name] for r in good.values()
               if name in (r["run"].get("raw_wall") or {})]
        if raw:
            raw_wall[name] = spread(raw)
    return {
        "seeds": sorted(good),
        "errors": {seed: r["error"] for seed, r in runs.items() if "error" in r},
        "incorrect": sorted(seed for seed, r in good.items() if not r["result"]["correct"]),
        "metrics": metrics,
        "raw_wall": raw_wall,
        "stream_sha256": {seed: r["run"]["stream_sha256"] for seed, r in good.items()},
    }


def paired(this: dict[int, dict], against: dict[int, dict], better: dict[str, str]) -> dict:
    """Per metric: on how many seeds this side beats the other, and the median ratio."""
    seeds = [s for s in this if "error" not in this[s] and "error" not in against[s]]
    out = {}
    for name, direction in better.items():
        a = [this[s]["result"]["metrics"][name]["value"] for s in seeds]
        b = [against[s]["result"]["metrics"][name]["value"] for s in seeds]
        wins = sum((x > y) if direction == "higher" else (x < y) for x, y in zip(a, b))
        ratio = statistics.median(a) / statistics.median(b) if seeds else None
        out[name] = {"this_better": wins, "pairs": len(seeds), "median_ratio": ratio}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workloads", nargs="+",
                    help="default: every workload in BENCHMARK.json")
    ap.add_argument("--against", type=Path, help="a second checkout to run alternately")
    ap.add_argument("--tier1", action="store_true",
                    help="also run the Tier-1 tests once per side and record them")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    workloads = args.workloads or names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        ap.error(f"--workloads: {' '.join(unknown)} not in BENCHMARK.json")
    for flag, values in (("--seeds", args.seeds), ("--workloads", workloads)):
        if len(set(values)) < len(values):   # runs are keyed by seed and workload
            ap.error(f"{flag}: a value is repeated")

    sides = {"this": ROOT}
    if args.against:
        if not (args.against / "perfbench" / "run.py").is_file():
            ap.error(f"--against {args.against}: no perfbench/run.py there")
        sides["against"] = args.against.resolve()
    runs = {side: {w: {} for w in workloads} for side in sides}
    for w in workloads:
        for i, seed in enumerate(args.seeds):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                print(f"bench: {w} seed {seed} {side}", file=sys.stderr, flush=True)
                runs[side][w][seed] = run_once(sides[side], w, seed, args.seconds)

    tier1 = {}
    if args.tier1:
        for side, checkout in sides.items():
            print(f"bench: tier-1 {side}", file=sys.stderr, flush=True)
            tier1[side] = run_tier1(checkout)

    machine = next(({k: v for k, v in r["machine"].items() if k != "seed"}
                    for by_w in runs["this"].values() for r in by_w.values()
                    if "machine" in r), None)
    summary = {side: {w: summarize(runs[side][w]) for w in workloads} for side in sides}
    out = {
        "command": f"perfbench/run.py --trace 0 --seconds {args.seconds:g}",
        "seeds": args.seeds,
        "machine": machine,
        "sides": summary,
    }
    if args.tier1:
        out["tier1"] = tier1
    if args.against:
        better = {m["name"]: m["better"] for m in declared["end_to_end"]}
        out["streams_match"] = {w: summary["this"][w]["stream_sha256"]
                                == summary["against"][w]["stream_sha256"] for w in workloads}
        out["pairs"] = {w: paired(runs["this"][w], runs["against"][w], better)
                        for w in workloads}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(f"bench: wrote {args.out}", file=sys.stderr)
    bad = [s[w] for s in summary.values() for w in workloads]
    failed_tier1 = any(t["exit_code"] or t["failed"] for t in tier1.values())
    return 1 if failed_tier1 or any(b["errors"] or b["incorrect"] for b in bad) else 0


if __name__ == "__main__":
    sys.exit(main())
