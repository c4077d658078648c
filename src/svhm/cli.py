"""Command-line front end: encode/decode, metrics, BD-Rate, break-even, the
rate-distortion theory lab, and the RD-curve sweep of base and base+enh.

Exit codes: 0 success, 1 an rdlab inequality violation, 2 refused input.  A
refused input (a file, a header, a CSV or an option) is a ``ValueError`` or an
``OSError``; ``main`` alone turns it into one ``error: ...`` line and exit 2.
Any other exception is a bug and ends in a traceback.  Before any command does
its work, ``main`` refuses each ``--out``/``--report`` path that is empty, is a
directory, or lies in a missing directory, and a ``--report`` that names the
``--out`` file.  Outputs are written atomically
(temps, renamed once all are written); failed commands leave no partial
output, except ``decode`` of a stream whose frame k > 0 is corrupt: it writes
frames 0..k-1, prints ``partial decode: k frames`` and exits 2.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import pathlib
import sys
import tempfile

import numpy as np

from . import evalkit, rdtheory
from .codec import CodecConfig, ScalableBitstream, decode_sequence, encode_sequence
from .codec.synthetic import textured_scene
from .codec.y4m import read_y4m, read_yuv420, write_y4m

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


class CommandError(ValueError):
    """A refused command-line input."""


def _check_output(path: str) -> None:
    """Refuse an output path no file can be renamed to: "" names no file, a
    directory cannot be replaced, and a missing directory cannot hold a temp."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not path or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _atomic_write(files: dict) -> None:
    """Run each ``write(tmp)`` of ``{path: write}`` (a path that is None is
    skipped) on a temp file beside its path, then rename the temps into place;
    if a write fails, the temps are removed and no path is created or replaced.
    ``main`` has checked each path before the work, but the work may outlast
    that check."""
    umask = os.umask(0)
    os.umask(umask)
    files = {path: write for path, write in files.items() if path is not None}
    tmps = {}
    try:
        for path, write in files.items():
            if os.path.isdir(path):   # made since; os.replace would fail after earlier renames
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            fd, tmps[path] = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                              prefix=".tmp-", suffix=os.path.basename(path))
            os.close(fd)
            os.chmod(tmps[path], 0o666 & ~umask)   # mkstemp's 0600 -> open()'s mode
            write(tmps[path])
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in tmps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:   # name path, not tmp
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _bytes(data: bytes):
    return lambda tmp: pathlib.Path(tmp).write_bytes(data)


def _emit(args, text: str) -> None:
    """Write ``text`` to ``--out`` if given, else print it."""
    if args.output is not None:
        _atomic_write({args.output: _bytes(text.encode())})
    else:
        print(text)


def _load_frames(path: str, width: int | None, height: int | None):
    """Frames of a .y4m file, or of raw YUV420 of the given geometry."""
    if path.endswith(".y4m"):
        frames = read_y4m(path)
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
    _atomic_write({args.output: _bytes(stream.serialize()),
                   args.report: _bytes(report.to_json().encode())})
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
    _atomic_write({args.output: lambda tmp: write_y4m(tmp, frames),
                   args.report: _bytes(report.to_json().encode())})
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
    rate than residual coding, at matched Lagrangian slope; ``points`` holds
    each (joint, slope) solve pair's R/D points and margin, in sweep order."""
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
    points = []
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
        for entry, r in zip(per_slope, results):
            points.append({"joint": j, "slope": r.slope, "rate_cond": r.r_c.rate,
                           "dist_cond": r.r_c.distortion, "rate_resid": r.r_r.rate,
                           "dist_resid": r.r_r.distortion, "margin": r.margin})
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
        "points": points,
        "per_slope": per_slope,
    }
    _emit(args, json.dumps(out, indent=2))
    return EXIT_OK if violations == 0 else EXIT_VERIFY


def _mean_msssim(clip, dec) -> str:
    """Mean MS-SSIM as table text; "n/a" when a side is too small for five scales."""
    try:
        return f"{np.mean([evalkit.msssim_rgb(a, b) for a, b in zip(clip, dec)]):.4f}"
    except ValueError:
        return "n/a"


def cmd_sweep(args) -> int:
    """Encode a clip at q0..q3, print each layer's bpp, PSNR and MS-SSIM, and
    write the base and base+enh PSNR curves as an RD CSV for ``bdrate``."""
    if args.frames < 1:
        raise CommandError(f"--frames must be at least 1, got {args.frames}")
    if not 1 <= args.gop <= 255:
        raise CommandError(f"--gop must be in 1..255, got {args.gop}")
    if args.seed < 0:
        raise CommandError(f"--seed must not be negative, got {args.seed}")
    clip = read_y4m(args.input) if args.input else textured_scene(args.frames, seed=args.seed)
    rows = {"base": [], "base+enh": []}
    print(f"{'q':>2} {'layer':>9} {'bpp':>8} {'PSNR':>7} {'MS-SSIM':>8}")
    for q in range(4):
        stream, report = encode_sequence(clip, CodecConfig(quality=q, gop=args.gop))
        for layers in rows:
            dec, _ = decode_sequence(stream, layers)
            psnr = float(np.mean([evalkit.psnr_rgb(a, b) for a, b in zip(clip, dec)]))
            bpp = report.bpp(layers)
            rows[layers].append((bpp, psnr))
            print(f"{q:>2} {layers:>9} {bpp:8.4f} {psnr:7.2f} {_mean_msssim(clip, dec):>8}")
    curves = [evalkit.RDCurveTable(layers, "PSNR", sorted(pts)) for layers, pts in rows.items()]
    _atomic_write({args.output: lambda tmp: evalkit.write_rd_csv(tmp, curves)})
    print(f"RD curves -> {args.output}")
    return EXIT_OK


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

    swp = sub.add_parser("sweep", help="RD curves of base and base+enh at q0..q3")
    swp.add_argument("--in", dest="input", help="input .y4m (default: synthetic clip)")
    swp.add_argument("--frames", type=int, default=30,
                     help="synthetic clip length (default: %(default)s)")
    swp.add_argument("--gop", type=int, default=32, help="intra period (default: %(default)s)")
    swp.add_argument("--seed", type=int, default=0,
                     help="synthetic clip seed (default: %(default)s)")
    swp.add_argument("--out", dest="output", default="quality_sweep.csv",
                     help="RD curve CSV (default: %(default)s)")
    swp.set_defaults(func=cmd_sweep)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        outputs = [p for p in (args.output, getattr(args, "report", None)) if p is not None]
        for path in outputs:   # checked before the command does its work
            _check_output(path)
        if len({os.path.abspath(p) for p in outputs}) < len(outputs):   # one would overwrite the other
            raise CommandError(f"--report names the --out file: {args.output!r}")
        return args.func(args)
    except (ValueError, OSError) as exc:   # a refused input; anything else is a bug
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
