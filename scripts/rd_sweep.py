#!/usr/bin/env python3
"""Rate-distortion theory experiments on random discrete joint sources.

Sweeps Lagrangian slopes on seeded random (X, Y) joints, writing per-slope
conditional and residual RD points plus the cost margins to CSV, and prints
a summary of the worst margin observed (negative would mean conditional
coding lost to residual coding somewhere, which should never happen).
Slopes are log-spaced over 0.01..10, as in ``svhm rdlab``.

Exit codes: 0 every margin holds, 1 a margin below -1e-6, 2 a bad argument
(one ``error:`` line, no CSV written).
"""

import argparse
import csv
import sys

import numpy as np

from svhm import rdtheory as rd


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--joints", type=int, default=20)
    ap.add_argument("--slopes", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="rd_sweep.csv")
    args = ap.parse_args()
    for name, value, low in (("joints", args.joints, 1), ("slopes", args.slopes, 1),
                             ("seed", args.seed, 0)):
        if value < low:
            print(f"error: --{name} must be at least {low}, got {value}", file=sys.stderr)
            return 2

    rng = np.random.default_rng(args.seed)
    slopes = np.geomspace(0.01, 10.0, args.slopes)
    worst = np.inf
    with open(args.out, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["joint", "slope", "rate_cond", "dist_cond",
                     "rate_resid", "dist_resid", "margin"])
        for j in range(args.joints):
            joint = rd.random_joint(rng)
            dmat = rd.DistortionMatrix.squared_error(rd.residual_alphabet(joint))
            for cmp in rd.verify_rd_inequality(joint, dmat, [float(s) for s in slopes],
                                               ba_max_iters=400_000):
                wr.writerow([j, cmp.slope, cmp.r_c.rate, cmp.r_c.distortion,
                             cmp.r_r.rate, cmp.r_r.distortion, cmp.margin])
                worst = min(worst, cmp.margin)
    print(f"{args.joints} joints x {args.slopes} slopes -> {args.out}")
    print(f"worst cost margin (residual - conditional): {worst:.3e}")
    return 0 if worst >= -1e-6 else 1


if __name__ == "__main__":
    sys.exit(main())
