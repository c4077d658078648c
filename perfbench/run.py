#!/usr/bin/env python3
"""Run one svhm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload textured_sweep --seed 0 --seconds 60 --trace 0

Run it from the root of a checkout: svhm is imported from ``src/`` beside this
directory.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.  The
lines before it give the machine, the stream hashes and the metrics as a table.
Exit code 2 means the benchmark could not run here and printed no result.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        out = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    info, result = out["info"], out["result"]
    print("machine " + json.dumps(info.pop("machine")))
    print("run " + json.dumps(info))
    print("waits: none measured; every layer runs on the one calling thread "
          "with no queue between layers, so no layer waits on another")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
