"""Command-line front end: encode/decode, metrics, BD-Rate, break-even, and
the rate-distortion theory lab.

Exit codes: 0 success, 1 an rdlab inequality violation, 2 refused input.  A
refused input (a file, a header, a CSV or an option) is a ``ValueError`` or an
``OSError``; ``main()`` alone turns it into one ``error: ...`` line and exit 2.
Any other exception is a bug and ends in a traceback.  Output files are written
atomically (temp + rename); failed commands leave no partial output, except
``decode`` of a stream whose frame k > 0 is corrupt: it writes frames 0..k-1,
prints ``partial decode: k frames (frame k: ...)`` instead and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile

import numpy as np

from . import evalkit, rdtheory
from .codec import CodecConfig, ScalableBitstream, decode_sequence, encode_sequence
from .codec.y4m import read_y4m, read_yuv420, write_y4m

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


class CommandError(ValueError):
    """A refused command-line input."""


def _atomic_write(path: str, write) -> None:
    """Run ``write(tmp)`` on a temp file beside ``path``, then rename it into
    place; on any failure the temp file is removed and ``path`` is untouched."""
    d = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
        os.close(fd)
        os.chmod(tmp, 0o666 & ~umask)   # mkstemp's 0600 -> the mode open() gives
        write(tmp)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:   # name path, not tmp
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _atomic_write_bytes(path: str, data: bytes) -> None:
    _atomic_write(path, lambda tmp: pathlib.Path(tmp).write_bytes(data))


def _emit(args, text: str) -> None:
    """Write ``text`` to ``--out`` if given, else print it."""
    if args.output:
        _atomic_write_bytes(args.output, text.encode())
    else:
        print(text)


def _load_frames(path: str, width: int | None, height: int | None):
    """Frames of a .y4m file, or of raw YUV420 of the given geometry."""
    if path.endswith(".y4m"):
        frames, _ = read_y4m(path)
    else:
        if width is None or height is None:
            raise CommandError("raw YUV input needs --width and --height")
        frames = read_yuv420(path, width, height)
    if not frames:
        raise CommandError(f"{path}: no frames")
    return frames


def cmd_encode(args) -> int:
    frames = _load_frames(args.input, args.width, args.height)
    config = CodecConfig(quality=args.q, gop=args.gop,
                         enhancement=(args.layers == "base+enh"))
    stream, report = encode_sequence(frames, config)
    _atomic_write_bytes(args.output, stream.serialize())
    if args.report:
        _atomic_write_bytes(args.report, report.to_json().encode())
    print(f"encoded {report.frame_count} frames -> {args.output} "
          f"({report.bpp():.4f} bpp, base {report.bpp('base'):.4f} bpp)")
    return EXIT_OK


def cmd_decode(args) -> int:
    stream = ScalableBitstream.deserialize(pathlib.Path(args.input).read_bytes())
    if not stream.frames:
        raise CommandError("stream holds no frames")
    frames, report = decode_sequence(stream, args.layers)
    if not frames:
        raise CommandError(f"no decodable frames: {report.error}")
    _atomic_write(args.output, lambda tmp: write_y4m(tmp, frames))
    if args.report:
        _atomic_write_bytes(args.report, report.to_json().encode())
    if report.error is not None:
        print(f"partial decode: {len(frames)} frames ({report.error})", file=sys.stderr)
        return EXIT_USAGE
    print(f"decoded {len(frames)} frames ({args.layers}) -> {args.output}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    ref = _load_frames(args.reference, args.width, args.height)
    test = _load_frames(args.input, args.width, args.height)
    if len(ref) != len(test):
        raise CommandError(f"frame count mismatch: {len(ref)} vs {len(test)}")
    rows = []
    for t, (a, b) in enumerate(zip(ref, test)):
        entry = {"frame": t, "psnr": evalkit.psnr_rgb(a, b)}
        if args.msssim:
            entry["msssim"] = evalkit.msssim_rgb(a, b)
        rows.append(entry)
    finite = [r["psnr"] for r in rows if r["psnr"] != evalkit.PSNR_INF]
    out = {
        "frames": [{k: (None if v == evalkit.PSNR_INF else v) for k, v in r.items()}
                   for r in rows],
        "mean_psnr": float(np.mean(finite)) if finite else None,
        "all_identical": not finite,
    }
    if args.msssim:
        out["mean_msssim"] = float(np.mean([r["msssim"] for r in rows]))
    _emit(args, json.dumps(out, indent=2))
    return EXIT_OK


def _read_csv(read, path: str):
    """``read(path)``; a malformed CSV is a usage error that names the file."""
    try:
        return read(path)
    except KeyError as exc:
        raise CommandError(f"{path}: missing column {exc}") from exc
    except ValueError as exc:
        raise CommandError(f"{path}: {exc}") from exc


def cmd_bdrate(args) -> int:
    curves = {(c.label, c.metric): c for c in _read_csv(evalkit.read_rd_csv, args.curves)}
    try:
        anchor = curves[(args.anchor, args.metric)]
        test = curves[(args.test, args.metric)]
    except KeyError as exc:
        raise CommandError(f"curve not found in {args.curves}: {exc}") from exc
    bd = evalkit.bd_rate(anchor, test)
    out = {"anchor": args.anchor, "test": args.test, "metric": args.metric,
           "bd_rate_percent": bd}
    _emit(args, json.dumps(out, indent=2))
    return EXIT_OK


def cmd_breakeven(args) -> int:
    if args.summary:
        rows = _read_csv(evalkit.read_bd_summary_csv, args.summary)
        try:
            report = evalkit.table_pipeline(rows, reference=args.reference)
        except ValueError as exc:
            raise CommandError(f"{args.summary}: {exc}") from exc
        text = report.to_json() if args.json else report.to_text()
    else:
        if args.a is None or args.b is None:
            raise CommandError("need either --summary or both --a and --b")
        result = evalkit.break_even(args.a, args.b)
        text = json.dumps({"phi": result.phi, "regime": result.regime}, indent=2)
    _emit(args, text)
    return EXIT_OK


def cmd_rdlab(args) -> int:
    """Randomized sweep verifying that conditional coding never needs more
    rate than residual coding, at matched Lagrangian slope."""
    if args.slopes < 1:
        raise CommandError(f"--slopes must be at least 1, got {args.slopes}")
    if args.joints < 0:
        raise CommandError(f"--joints must not be negative, got {args.joints}")
    if args.seed < 0:
        raise CommandError(f"--seed must not be negative, got {args.seed}")
    if not 0 <= args.tolerance < np.inf:
        raise CommandError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    rng = np.random.default_rng(args.seed)
    slopes = [float(s) for s in np.geomspace(0.01, 10.0, args.slopes)]
    worst = []
    per_slope = [{"slope": s, "max_iterations": 0, "worst_gap": 0.0} for s in slopes]
    violations = 0
    for j in range(args.joints):
        joint = rdtheory.random_joint(rng)
        dmat = rdtheory.DistortionMatrix.squared_error(
            rdtheory.residual_alphabet(joint))
        results = rdtheory.verify_rd_inequality(joint, dmat, slopes,
                                                tol=args.tolerance,
                                                ba_max_iters=400_000)
        violations += sum(1 for r in results if not r.holds)
        worst.append({"joint": j,
                      "worst_margin": min(r.margin for r in results)})
        for entry, r in zip(per_slope, results):
            entry["max_iterations"] = max(entry["max_iterations"],
                                          r.r_c.iterations, r.r_r.iterations)
            entry["worst_gap"] = max(entry["worst_gap"], r.r_c.gap, r.r_r.gap)
    out = {
        "joints": args.joints,
        "slopes": args.slopes,
        "seed": args.seed,
        "tolerance": args.tolerance,
        "violations": violations,
        "all_hold": violations == 0,
        "per_joint_worst_margins": worst,
        "per_slope": per_slope,
    }
    _emit(args, json.dumps(out, indent=2))
    return EXIT_OK if violations == 0 else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="svhm",
        description="Scalable human/machine video coding toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode Y4M/YUV to a scalable container")
    enc.add_argument("--in", dest="input", required=True, help="input .y4m or raw .yuv")
    enc.add_argument("--out", dest="output", required=True, help="output container path")
    enc.add_argument("--q", type=int, default=2, help="quality index 0..3 (coarse..fine)")
    enc.add_argument("--gop", type=int, default=32, help="intra period")
    enc.add_argument("--layers", choices=["base", "base+enh"], default="base+enh",
                     help="'base' leaves enhancement sub-streams empty")
    enc.add_argument("--width", type=int, help="raw YUV width")
    enc.add_argument("--height", type=int, help="raw YUV height")
    enc.add_argument("--report", help="write rate report JSON here")
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="decode a scalable container to Y4M")
    dec.add_argument("--in", dest="input", required=True)
    dec.add_argument("--out", dest="output", required=True)
    dec.add_argument("--layers", choices=["base", "base+enh"], default="base+enh")
    dec.add_argument("--report", help="write rate report JSON here")
    dec.set_defaults(func=cmd_decode)

    met = sub.add_parser("metrics", help="PSNR/MS-SSIM between two sequences")
    met.add_argument("--ref", dest="reference", required=True)
    met.add_argument("--in", dest="input", required=True)
    met.add_argument("--msssim", action="store_true", help="also compute MS-SSIM")
    met.add_argument("--width", type=int, help="raw YUV width")
    met.add_argument("--height", type=int, help="raw YUV height")
    met.add_argument("--out", dest="output", help="write JSON here instead of stdout")
    met.set_defaults(func=cmd_metrics)

    bdr = sub.add_parser("bdrate", help="BD-Rate between two curves in an RD CSV")
    bdr.add_argument("--curves", required=True, help="CSV: label,metric,bpp,quality")
    bdr.add_argument("--anchor", required=True)
    bdr.add_argument("--test", required=True)
    bdr.add_argument("--metric", default="PSNR")
    bdr.add_argument("--out", dest="output")
    bdr.set_defaults(func=cmd_bdrate)

    bev = sub.add_parser("breakeven", help="break-even point from bit factors or a BD summary CSV")
    bev.add_argument("--a", type=float, help="machine-task bits factor")
    bev.add_argument("--b", type=float, help="human-viewing bits factor")
    bev.add_argument("--summary", help="CSV: dataset,frames,codec,metric,bd_rate")
    bev.add_argument("--reference", default="vvenc")
    bev.add_argument("--json", action="store_true", help="JSON instead of a text table")
    bev.add_argument("--out", dest="output")
    bev.set_defaults(func=cmd_breakeven)

    lab = sub.add_parser("rdlab", help="randomized conditional-vs-residual rate check")
    lab.add_argument("--joints", type=int, default=100)
    lab.add_argument("--slopes", type=int, default=10)
    lab.add_argument("--seed", type=int, default=0)
    lab.add_argument("--tolerance", type=float, default=1e-6)
    lab.add_argument("--out", dest="output")
    lab.set_defaults(func=cmd_rdlab)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:   # a refused input; anything else is a bug
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
