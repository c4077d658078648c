#!/usr/bin/env python3
"""Freeze the anchor RD curves that ``bd_rate_pct`` is measured against.

    python3 perfbench/freeze_anchors.py

For each workload, size and clip variant this runs one RD sweep with the
checkout's svhm and writes the (bpp, mean PSNR) points of the full and the
base-only curve, and the SHA-256 of each q point's stream, to
``anchors.json``.  Full size has all clip variants; tiny, used only by the
smoke test, has variant 0.  Re-freezing moves the zero of
``bd_rate_pct``, so it belongs in a change of its own, never in one that
claims a compression gain.
"""

from __future__ import annotations

import json

import harness
import tracing


def main() -> int:
    prog = harness.load_program()
    anchors: dict = {}
    for workload, jobs in harness.WORKLOADS.items():
        for size, job in jobs.items():
            frozen = anchors.setdefault(workload, {}).setdefault(size, {})
            for variant in harness.anchor_variants(size):
                clip = harness.make_clip(prog, job, variant)
                sweep = harness.rd_sweep(prog, job, clip, tracing.Untraced,
                                         harness.Clock())
                failures = [f for p in sweep for f in p.failures] + harness.ladder_failures(sweep)
                if failures:
                    raise SystemExit(f"{workload}/{size}/{variant}: {failures}")
                frozen[str(variant)] = {"base+enh": [p.rate for p in sweep],
                                        "base": [p.base_rate for p in sweep],
                                        "sha256": [p.sha256 for p in sweep]}
                print(f"{workload}/{size}/{variant}: {frozen[str(variant)]}", flush=True)
    harness.ANCHORS.write_text(json.dumps(anchors, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
