#!/usr/bin/env python3
"""Encode a clip at all four quality settings and tabulate rate/quality.

Input is a Y4M file, or a built-in synthetic clip when no input is given.
Writes an RD curve CSV usable by the bdrate command and prints a summary
table with base-only and base+enhancement numbers.  MS-SSIM reads "n/a" for
a clip with a side under 144 px, too small for its five scales.  A refused
input ends as in ``svhm``: one ``error:`` line, no CSV, exit code 2.
"""

import argparse
import sys

import numpy as np

from svhm.cli import CommandError, refusal_boundary
from svhm.codec import CodecConfig, decode_sequence, encode_sequence
from svhm.codec.synthetic import textured_scene
from svhm.codec.y4m import read_y4m
from svhm.evalkit import RDCurveTable, msssim_rgb, psnr_rgb, write_rd_csv


def mean_msssim(clip, dec) -> str:
    """Mean MS-SSIM as table text; "n/a" when a side is too small for five scales."""
    try:
        return f"{np.mean([msssim_rgb(a, b) for a, b in zip(clip, dec)]):.4f}"
    except ValueError:
        return "n/a"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--in", dest="input", help="input .y4m (default: synthetic clip)")
    ap.add_argument("--frames", type=int, default=30, help="synthetic clip length")
    ap.add_argument("--gop", type=int, default=32)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="quality_sweep.csv")
    args = ap.parse_args()
    if args.frames < 1:
        raise CommandError(f"--frames must be at least 1, got {args.frames}")
    if not 1 <= args.gop <= 255:
        raise CommandError(f"--gop must be in 1..255, got {args.gop}")

    if args.input:
        clip = read_y4m(args.input)
    else:
        clip = textured_scene(args.frames, seed=args.seed)

    rows = {"base": [], "base+enh": []}
    print(f"{'q':>2} {'layer':>9} {'bpp':>8} {'PSNR':>7} {'MS-SSIM':>8}")
    for q in range(4):
        stream, report = encode_sequence(clip, CodecConfig(quality=q, gop=args.gop))
        for layers in ("base", "base+enh"):
            dec, _ = decode_sequence(stream, layers)
            psnr = float(np.mean([psnr_rgb(a, b) for a, b in zip(clip, dec)]))
            bpp = report.bpp(layers)
            rows[layers].append((bpp, psnr))
            print(f"{q:>2} {layers:>9} {bpp:8.4f} {psnr:7.2f} {mean_msssim(clip, dec):>8}")

    curves = [RDCurveTable(layers, "PSNR", sorted(pts)) for layers, pts in rows.items()]
    write_rd_csv(args.out, curves)
    print(f"RD curves -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(refusal_boundary(main))
