"""Workloads, measurement and correctness gates of the svhm benchmark.

Every run is one closed loop: a single caller in a single process, each call
waiting for the previous one.  A run has three parts:

* set-up, done ``SETUP_REPEATS`` times: import svhm cold, build the run's
  inputs from the seed and make one warm-up call into every layer;
* the codec phase: RD points of the workload's clip, cycling q0..q3 until
  its share of ``--seconds`` is used, at least one whole sweep;
* the rdlab phase: rounds of the criterion-1 inequality sweep over a fixed
  corpus holding one joint of each alphabet-size pair.

Timings are medians over the repeated units, so a burst of load on a shared
host moves them less.  Trace-off runs report the end-to-end metrics; trace-on
runs pair every untraced sweep or round with a traced one and report
per-layer metrics.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)   # must precede the numpy import

import hashlib
import itertools
import json
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import scipy

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ANCHORS = HERE / "anchors.json"

QUALITIES = (0, 1, 2, 3)
CONTENT_VARIANTS = 16     # codec clips per full-size workload, one frozen anchor each
SETUP_REPEATS = 3
CODEC_SHARE = 0.75        # of --seconds; the rest goes to the rdlab phase
RDLAB_SEED = 2024        # criterion 1's joint stream
SLOPES = tuple(float(s) for s in np.geomspace(0.01, 10.0, 10))
BA_MAX_ITERS = 400_000
STRATA = tuple((nx, ny) for nx in range(2, 9) for ny in range(1, 5))


@dataclass(frozen=True)
class CodecJob:
    clip: str            # "textured" or "square"
    frames: int
    height: int
    width: int
    gop: int
    enhancement: bool
    msssim: bool


WORKLOADS = {
    "textured_sweep": {
        "full": CodecJob("textured", 8, 144, 176, 4, True, True),
        "tiny": CodecJob("textured", 3, 144, 176, 2, True, True),
    },
    "square_base": {
        "full": CodecJob("square", 10, 144, 144, 32, False, False),
        "tiny": CodecJob("square", 3, 48, 48, 32, False, False),
    },
}

# Spans each workload must hit in a traced run; zero calls fails the run.
_COMMON_SPANS = (
    "codec.motion.estimate_motion", "codec.motion.compensate",
    "codec.modes.derive_mode_maps", "codec.modes.combine_predictor",
    "codec.transform.forward", "codec.transform.inverse",
    "range_coder.range_encode", "range_coder.range_decode",
    "codec.coding.code_intra_frame", "codec.coding.decode_intra_frame",
    "codec.coding.code_inter_frame.base", "codec.coding.decode_inter_frame.base",
    "codec.coding.code_flow", "codec.coding.decode_flow",
    "codec.pipeline.encode_sequence", "codec.pipeline.decode_sequence",
    "codec.container.serialize", "codec.container.deserialize",
    "evalkit.psnr_rgb", "rdtheory.verify_rd_inequality",
    "rdtheory.blahut_arimoto.slope_lt_2.15", "rdtheory.blahut_arimoto.slope_ge_2.15",
)
REQUIRED_SPANS = {
    "textured_sweep": _COMMON_SPANS + (
        "codec.coding.code_inter_frame.enh", "codec.coding.decode_inter_frame.enh",
        "evalkit.msssim_rgb"),
    "square_base": _COMMON_SPANS,
}

# Codec spans are reported per RD sweep, rdlab spans per joint.
CODEC_SPANS = (
    "codec.pipeline.encode_sequence", "codec.pipeline.decode_sequence",
    "codec.motion.estimate_motion", "codec.motion.compensate",
    "codec.modes.derive_mode_maps", "codec.modes.combine_predictor",
    "codec.transform.forward", "codec.transform.inverse",
    "range_coder.range_encode", "range_coder.range_decode",
    "codec.coding.code_intra_frame", "codec.coding.decode_intra_frame",
    "codec.coding.code_inter_frame.base", "codec.coding.code_inter_frame.enh",
    "codec.coding.decode_inter_frame.base", "codec.coding.decode_inter_frame.enh",
    "codec.coding.code_flow", "codec.coding.decode_flow",
    "codec.container.serialize", "codec.container.deserialize",
    "evalkit.psnr_rgb", "evalkit.msssim_rgb",
)
RDLAB_SPANS = (
    "rdtheory.verify_rd_inequality",
    "rdtheory.blahut_arimoto.slope_lt_2.15", "rdtheory.blahut_arimoto.slope_ge_2.15",
)
BIT_KEYS = ("base_motion", "base_signal", "enh_motion", "enh_context")

END_TO_END = {
    "setup_s": "s",
    "encode_fps": "frames/s",
    "decode_fps": "frames/s",
    "decode_base_fps": "frames/s",
    "rd_curve_s": "s",
    "bd_rate_pct": "%",
    "base_bd_rate_pct": "%",
    "rdlab_points_per_s": "points/s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    **{f"{s}.{k}": u for s in CODEC_SPANS
       for k, u in (("calls", "calls/sweep"), ("self_s", "s/sweep"))},
    **{f"{s}.{k}": u for s in RDLAB_SPANS
       for k, u in (("calls", "calls/joint"), ("self_s", "s/joint"))},
    "range_coder.symbols": "symbols/sweep",
    "range_coder.zero_symbol_frac": "fraction",
    "range_coder.overhead_frac": "fraction",
    "codec.base.skip_block_frac": "fraction",
    **{f"codec.bits.{k}": "bit/sweep" for k in BIT_KEYS},
    "trace.sweep_overhead_s": "s/sweep",
    "trace.sweep_overhead_frac": "fraction",
    "trace.rdlab_overhead_frac": "fraction",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, no anchor, missing span)."""


class Seconds(NamedTuple):
    """One timing, calibrated to the reference host and as raw wall time."""
    cal: float
    wall: float

    def __add__(self, other):
        return Seconds(self.cal + other.cal, self.wall + other.wall)


NO_TIME = Seconds(0.0, 0.0)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def load_program() -> SimpleNamespace:
    """Import svhm from this checkout's ``src`` with no module cached."""
    if not (SRC / "svhm" / "__init__.py").is_file():
        raise BenchmarkError(f"no svhm package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "svhm" or m.startswith("svhm.")]:
        del sys.modules[name]
    prog = SimpleNamespace(**{
        attr: import_module(f"svhm.{mod}") for attr, mod in (
            ("codec", "codec"), ("pipeline", "codec.pipeline"),
            ("coding", "codec.coding"), ("container", "codec.container"),
            ("modes", "codec.modes"), ("transform", "codec.transform"),
            ("synthetic", "codec.synthetic"), ("entropy_model", "entropy_model"),
            ("evalkit", "evalkit"), ("rdtheory", "rdtheory"))
    })
    if Path(prog.codec.__file__).resolve().parents[2] != SRC:
        raise BenchmarkError(f"imported svhm from {prog.codec.__file__}, not {SRC}")
    return prog


def make_clip(prog, job: CodecJob, seed: int) -> list:
    variant = seed % CONTENT_VARIANTS
    if job.clip == "textured":
        return prog.synthetic.textured_scene(job.frames, job.height, job.width,
                                             seed=variant)
    return prog.synthetic.translating_square(job.frames, job.height, seed=variant)


def make_corpus(prog) -> list:
    """The rdlab corpus: the criterion-1 ``random_joint`` stream (seed 2024),
    first joint of each (|X|, |Y|) pair.  It is fixed, not seeded: solver
    time is heavy-tailed within one alphabet size, so seeded corpora of this
    size took from 3.5 s to 6.9 s and would hide any solver change."""
    rng = np.random.default_rng(RDLAB_SEED)
    first: dict[tuple[int, int], object] = {}
    while len(first) < len(STRATA):
        j = prog.rdtheory.random_joint(rng)
        first.setdefault((j.x_alphabet.size, j.y_alphabet.size), j)
    return [first[s] for s in STRATA]


def _warm_up(prog, corpus) -> None:
    warm = prog.synthetic.translating_square(2, 32, seed=0)
    for q in QUALITIES:
        cfg = prog.pipeline.CodecConfig(quality=q, gop=2)
        stream, _ = prog.pipeline.encode_sequence(warm, cfg)
        prog.pipeline.decode_sequence(
            prog.container.ScalableBitstream.deserialize(stream.serialize()))
    prog.evalkit.psnr_rgb(warm[0], warm[1])
    rd = prog.rdtheory
    rd.verify_rd_inequality(corpus[0], rd.DistortionMatrix.squared_error(
        rd.residual_alphabet(corpus[0])), SLOPES[:1], tol=1e-6)


def set_up(job: CodecJob, seed: int):
    """One cold set-up: returns (program, clip, rdlab corpus)."""
    prog = load_program()
    clip = make_clip(prog, job, seed)
    corpus = make_corpus(prog)
    _warm_up(prog, corpus)
    return prog, clip, corpus


# ---------------------------------------------------------------------------
# Codec phase
# ---------------------------------------------------------------------------

@dataclass
class Point:
    """One q point of an RD sweep."""
    q: int
    seconds: Seconds    # whole point, scoring included
    encode_s: Seconds
    decode_s: Seconds
    decode_base_s: Seconds
    rate: tuple         # (bpp, mean PSNR)
    base_rate: tuple    # (base bpp, mean base PSNR)
    sha256: str
    bits: dict          # sub-stream -> bits
    failures: list


def rd_point(prog, job: CodecJob, clip: list, q: int, tr, clock) -> Point:
    """Encode, serialize, parse, decode both ways, then score one q point."""
    ek, pipe = prog.evalkit, prog.pipeline
    cfg = pipe.CodecConfig(quality=q, gop=job.gop, enhancement=job.enhancement)
    (stream, enc_rep), enc_s = clock.time(
        tr.call, "codec.pipeline.encode_sequence", pipe.encode_sequence, clip, cfg)

    def container_roundtrip():
        raw = tr.call("codec.container.serialize", stream.serialize)
        return raw, tr.call("codec.container.deserialize",
                            prog.container.ScalableBitstream.deserialize, raw)
    (raw, parsed), io_s = clock.time(container_roundtrip)
    (full, full_rep), dec_s = clock.time(
        tr.call, "codec.pipeline.decode_sequence", pipe.decode_sequence, parsed, "base+enh")
    (base, base_rep), decb_s = clock.time(
        tr.call, "codec.pipeline.decode_sequence", pipe.decode_sequence,
        parsed.strip_enhancement(), "base")

    def score():
        psnr = [tr.call("evalkit.psnr_rgb", ek.psnr_rgb, x, y) for x, y in zip(clip, full)]
        base_psnr = [tr.call("evalkit.psnr_rgb", ek.psnr_rgb, x, y)
                     for x, y in zip(clip, base)]
        if job.msssim:
            for x, y in zip(clip, full):
                tr.call("evalkit.msssim_rgb", ek.msssim_rgb, x, y)
        return psnr, base_psnr
    (psnr, base_psnr), score_s = clock.time(score)

    failures = []
    for label, rep, frames in (("encode", enc_rep, clip), ("decode", full_rep, full),
                               ("decode base", base_rep, base)):
        if rep.error or len(frames) != len(clip):
            failures.append(f"q{q} {label}: {rep.error or f'{len(frames)}/{len(clip)} frames'}")
    worse = [i for i, (e, b) in enumerate(zip(psnr, base_psnr)) if e < b]
    if worse:
        failures.append(f"q{q}: enhanced PSNR below base PSNR at frames {worse}")
    bits = {k: sum(fb[k] for fb in enc_rep.frame_bits) for k in BIT_KEYS}
    return Point(q, enc_s + io_s + dec_s + decb_s + score_s, enc_s, dec_s, decb_s,
                 (enc_rep.bpp(), float(np.mean(psnr))),
                 (enc_rep.bpp("base"), float(np.mean(base_psnr))),
                 hashlib.sha256(raw).hexdigest(), bits, failures)


def rd_sweep(prog, job: CodecJob, clip: list, tr, clock) -> list[Point]:
    return [rd_point(prog, job, clip, q, tr, clock) for q in QUALITIES]


def ladder_failures(sweep: list[Point]) -> list[str]:
    """bpp and base bpp must rise strictly from q0 to q3."""
    failures = []
    for label, curve in (("bpp", [p.rate for p in sweep]),
                         ("base bpp", [p.base_rate for p in sweep])):
        if any(b2 <= b1 for (b1, _), (b2, _) in zip(curve, curve[1:])):
            failures.append(f"{label} ladder not strictly increasing: "
                            f"{[b for b, _ in curve]}")
    return failures


# ---------------------------------------------------------------------------
# rdlab phase
# ---------------------------------------------------------------------------

@dataclass
class Round:
    joint_s: list       # Seconds per joint
    points: int
    failed: int
    failures: list

    @property
    def seconds(self) -> Seconds:
        return sum(self.joint_s, NO_TIME)


def rdlab_round(prog, corpus: list, tr, clock) -> Round:
    rd = prog.rdtheory
    joint_s, failures = [], []
    points = failed = 0

    def verify(j, dmat):
        try:
            return tr.call("rdtheory.verify_rd_inequality", rd.verify_rd_inequality,
                           j, dmat, SLOPES, tol=1e-6, ba_max_iters=BA_MAX_ITERS)
        except rd.ConvergenceError as exc:
            failures.append(f"rdlab: {exc}")
            return None

    for j in corpus:
        dmat = rd.DistortionMatrix.squared_error(rd.residual_alphabet(j))
        points += len(SLOPES)
        cmps, seconds = clock.time(verify, j, dmat)
        joint_s.append(seconds)
        if cmps is None:
            failed += len(SLOPES)
            continue
        bad = [c for c in cmps if not c.holds]
        failed += len(bad)
        failures += [f"rdlab: violation at slope {c.slope:.4g}, margin {c.margin:.3e}"
                     for c in bad]
    return Round(joint_s, points, failed, failures)


# ---------------------------------------------------------------------------
# Host calibration
# ---------------------------------------------------------------------------

# Shared hosts drift: on a 2-vCPU Xeon VM the same encode ran up to 35% slower
# for tens of seconds at a time, with CPU time tracking wall time (no steal),
# and the speed also moved within one second.  A calibrated clock therefore
# runs a fixed unit of work that no svhm change can touch around every timed
# call and at checkpoints inside it, and divides each piece of the call's wall
# time by the slowdown the nearest units show against their median time on
# that VM: timings come out in seconds of that reference host.  Each phase has
# a unit shaped like its own work, because the drift hits interpreter-bound
# code, small numpy calls and frame-sized numpy arrays by different amounts.
CODEC_CALIBRATION_S = 0.046
PIECE_S = 0.4             # shortest piece a checkpoint cuts off a timed call
RDLAB_CALIBRATION_S = 0.042
_CAL_ROWS = [list(range(k, k + 64)) for k in range(64)]
_CAL_BLOCKS = np.linspace(-4.0, 4.0, 18 * 22 * 64).reshape(18, 22, 8, 8)
_CAL_DCT = np.linalg.qr(np.arange(1.0, 65.0).reshape(8, 8) % 7.0 + np.eye(8))[0]
_CAL_KERNEL = np.exp(-0.3 * (np.arange(8.0)[:, None] - np.arange(9.0)[None, :]) ** 2)
_CAL_PMF = np.full(8, 1.0 / 8)


def codec_calibration() -> None:
    """Interpreter-bound integer work, as in the range coder, then numpy work
    on frame-sized block arrays, as in the transform and mode maps."""
    acc = 0
    for i in range(120_000):
        row = _CAL_ROWS[i & 63]
        acc = (acc * 33 + row[(i >> 6) & 63]) & 0xFFFFFFFF
    x = _CAL_BLOCKS
    for _ in range(72):
        x = np.einsum("ij,...jk,lk->...il", _CAL_DCT, x, _CAL_DCT, optimize=True)
        x = x / (1.0 + np.abs(x).mean(axis=(2, 3), keepdims=True))


def rdlab_calibration() -> None:
    """Fixed-point iterations on an 8x9 kernel, as in Blahut-Arimoto."""
    q = np.full(9, 1.0 / 9)
    for _ in range(6_000):
        f = np.maximum(_CAL_KERNEL @ q, 1e-300)
        q = q * ((_CAL_PMF / f) @ _CAL_KERNEL)
        float(_CAL_PMF @ np.log(f))


class Clock:
    """Times calls in wall seconds, or, given a calibration unit and its
    reference time, in reference-host seconds.

    A calibrated call is cut into pieces at ``checkpoint()`` calls made from
    inside it (see ``tracing.Probe``), at most one every ``PIECE_S``; a unit
    runs at each cut, once before the call and twice after it.  Each piece is
    divided by the median slowdown of the up to four units nearest to it, so
    drift within a long call and a unit caught by a scheduler hiccup both
    matter less.  The units' own time is in no piece."""

    def __init__(self, unit=None, reference_s: float = 1.0):
        self.unit = unit
        self.reference_s = reference_s
        self.slowdowns: list[float] = []
        self._last = self._slowdown()
        self._cuts: list | None = None    # (piece wall, slowdown after it)
        self._mark = 0.0

    def _slowdown(self) -> float:
        if self.unit is None:
            return 1.0
        t0 = time.perf_counter()
        self.unit()
        return (time.perf_counter() - t0) / self.reference_s

    def checkpoint(self) -> None:
        """Cut the running calibrated call here if its piece is long enough."""
        if self._cuts is None or time.perf_counter() - self._mark < PIECE_S:
            return
        wall = time.perf_counter() - self._mark
        self._cuts.append((wall, self._slowdown()))
        self._mark = time.perf_counter()

    def time(self, fn, *args, **kwargs):
        """Returns ``(fn(*args, **kwargs), Seconds)``."""
        if self.unit is None:
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            wall = time.perf_counter() - t0
            return out, Seconds(wall, wall)
        self._cuts = []
        self._mark = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            tail = time.perf_counter() - self._mark
        finally:
            cuts, self._cuts = self._cuts, None
        pieces = [w for w, _ in cuts] + [tail]
        # piece i lies between samples i and i + 1
        samples = [self._last, *(s for _, s in cuts), self._slowdown(), self._slowdown()]
        self._last = samples[-1]
        self.slowdowns += samples[1:]
        cal = sum(w / statistics.median(samples[max(i - 1, 0):i + 3])
                  for i, w in enumerate(pieces))
        return out, Seconds(cal, sum(pieces))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _repeat(budget: float, unit, minimum: int = 1) -> list:
    """Run ``unit`` until ``budget`` seconds are used: at least ``minimum``
    times, and once more only while the median unit so far still fits."""
    t0 = time.perf_counter()
    out, spent = [], []
    while (len(out) < minimum
           or time.perf_counter() - t0 + statistics.median(spent) <= budget):
        t = time.perf_counter()
        out.append(unit())
        spent.append(time.perf_counter() - t)
    return out


def _traced_pair(tracer: tracing.Tracer, prog, work, record: list):
    """Run ``work`` untraced and traced, alternating which copy goes first,
    and append the traced copy's layer totals to ``record``."""
    def traced():
        tracer.reset()
        with tracing.installed(tracer, prog):
            out = work(tracer)
        record.append({"totals": tracer.layer_totals(),
                       "counters": dict(tracer.counters)})
        return out

    if len(record) % 2:
        second = traced()
        return work(tracing.Untraced), second
    first = work(tracing.Untraced)
    return first, traced()


def anchor_variants(size: str) -> range:
    """Clip variants with a frozen anchor: all for full size, only variant 0
    (the smoke test's) for tiny."""
    return range(CONTENT_VARIANTS if size == "full" else 1)


def load_anchor(workload: str, size: str, seed: int) -> dict:
    variant = seed % CONTENT_VARIANTS
    if variant not in anchor_variants(size):
        raise BenchmarkError(f"{size} runs have anchors for clip variants "
                             f"{list(anchor_variants(size))} only, not {variant} (seed {seed})")
    try:
        return json.loads(ANCHORS.read_text())[workload][size][str(variant)]
    except (OSError, KeyError) as exc:
        raise BenchmarkError(f"no frozen anchor for {workload}/{size}/{variant}") from exc


def _rate_vs_anchor(prog, anchor: list, test: list) -> float:
    """Bits spent per 100 anchor bits at equal PSNR: 100 + BD-Rate (%)."""
    ek = prog.evalkit
    return 100.0 + ek.bd_rate(ek.RDCurveTable("anchor", "PSNR", [tuple(p) for p in anchor]),
                              ek.RDCurveTable("test", "PSNR", list(test)))


def machine_block(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def _peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux; children cover any worker processes
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> dict:
    """One benchmark run; returns the result object plus an ``info`` block."""
    if workload not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {workload!r}")
    job = WORKLOADS[workload][size]
    anchor = load_anchor(workload, size, seed)
    clock = Clock(codec_calibration, CODEC_CALIBRATION_S)
    rd_clock = Clock(rdlab_calibration, RDLAB_CALIBRATION_S)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        (prog, clip, corpus), seconds_taken = clock.time(set_up, job, seed)
        setup_times.append(seconds_taken)

    codec_budget = CODEC_SHARE * seconds
    rdlab_budget = seconds - codec_budget
    tracer = tracing.Tracer()
    codec_traced: list[dict] = []
    rdlab_traced: list[dict] = []
    if trace:
        sweep_pairs = _repeat(codec_budget, lambda: _traced_pair(
            tracer, prog, lambda tr: rd_sweep(prog, job, clip, tr, clock), codec_traced))
        round_pairs = _repeat(rdlab_budget, lambda: _traced_pair(
            tracer, prog, lambda tr: rdlab_round(prog, corpus, tr, rd_clock), rdlab_traced))
        sweeps = [s for pair in sweep_pairs for s in pair]
        rounds = [r for pair in round_pairs for r in pair]
    else:
        qs = itertools.cycle(QUALITIES)
        with tracing.installed(tracing.Probe(clock), prog, probe=True):
            points = _repeat(codec_budget,
                             lambda: rd_point(prog, job, clip, next(qs), tracing.Untraced, clock),
                             minimum=len(QUALITIES))
        sweeps = [points[i:i + len(QUALITIES)] for i in range(0, len(points), len(QUALITIES))]
        with tracing.installed(tracing.Probe(rd_clock), prog, probe=True):
            rounds = _repeat(rdlab_budget,
                             lambda: rdlab_round(prog, corpus, tracing.Untraced, rd_clock))

    first = sweeps[0]
    points = [p for s in sweeps for p in s]
    sha = {p.q: p.sha256 for p in first}
    for p in points:
        if p.sha256 != sha[p.q]:
            p.failures.append(f"q{p.q}: stream bytes differ between repeats")
    ladder = ladder_failures(first)
    failures = ([f for p in points for f in p.failures] + ladder
                + [f for r in rounds for f in r.failures])
    attempted = 3 * len(points) + sum(r.points for r in rounds)
    failed = min(attempted, 3 * sum(1 for p in points if p.failures) + len(ladder)
                 + sum(r.failed for r in rounds))

    raw_wall = None
    if trace:
        metrics = _per_layer(workload, sweep_pairs, round_pairs, codec_traced,
                             rdlab_traced, len(corpus))
    else:
        raw_wall = _timings(setup_times, points, rounds, len(clip), "wall")
        metrics = {
            **_timings(setup_times, points, rounds, len(clip), "cal"),
            "bd_rate_pct": _rate_vs_anchor(prog, anchor["base+enh"], [p.rate for p in first]),
            "base_bd_rate_pct": _rate_vs_anchor(prog, anchor["base"],
                                                [p.base_rate for p in first]),
            "peak_rss_mib": _peak_rss_mib(),
        }
    units = PER_LAYER if trace else END_TO_END
    return {
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        },
        "info": {
            "machine": machine_block(seed),
            "workload": workload,
            "size": size,
            "clip_variant": seed % CONTENT_VARIANTS,
            "q_points": len(points),
            "rdlab_rounds": len(rounds),
            "stream_sha256": {f"q{q}": h for q, h in sha.items()},
            # the BD metrics read exactly 100 when the streams are the anchor's
            "anchor_streams_match": list(sha.values()) == anchor["sha256"],
            # trace-off timing metrics as plain wall time, before calibration
            "raw_wall": raw_wall,
            "host_slowdown": {name: statistics.median(c.slowdowns)
                              for name, c in (("codec", clock), ("rdlab", rd_clock))
                              if c.slowdowns},
            "failures": failures[:20],
        },
    }


def _timings(setup_times, points, rounds, frames: int, kind: str) -> dict:
    """The timing metrics from ``kind`` ("cal" or "wall") of each Seconds."""
    med = statistics.median

    def sweep_s(field: str) -> float:
        # each q point's median, summed: a run's q mix does not move the result
        return sum(med(getattr(getattr(p, field), kind) for p in points if p.q == q)
                   for q in QUALITIES)
    sweep_frames = frames * len(QUALITIES)
    per_joint = [med(getattr(s, kind) for s in ts) for ts in zip(*(r.joint_s for r in rounds))]
    return {
        "setup_s": med(getattr(s, kind) for s in setup_times),
        "encode_fps": sweep_frames / sweep_s("encode_s"),
        "decode_fps": sweep_frames / sweep_s("decode_s"),
        "decode_base_fps": sweep_frames / sweep_s("decode_base_s"),
        "rd_curve_s": sweep_s("seconds"),
        "rdlab_points_per_s": rounds[0].points / sum(per_joint),
    }


def _per_layer(workload, sweep_pairs, round_pairs, codec_traced, rdlab_traced,
               joints: int) -> dict:
    out = {}
    seen = set()
    for spans, traced, per in ((CODEC_SPANS, codec_traced, 1), (RDLAB_SPANS, rdlab_traced, joints)):
        for name in spans:
            totals = [u["totals"].get(name, (0, 0.0)) for u in traced]
            out[f"{name}.calls"] = statistics.median(c for c, _ in totals) / per
            out[f"{name}.self_s"] = statistics.median(s for _, s in totals) / per
            if out[f"{name}.calls"]:
                seen.add(name)
    missing = [s for s in REQUIRED_SPANS[workload] if s not in seen]
    if missing:
        raise BenchmarkError(f"{workload}: traced run recorded no calls to {missing}")

    c = codec_traced[0]["counters"]
    out["range_coder.symbols"] = c["range_coder.symbols"]
    out["range_coder.zero_symbol_frac"] = c["range_coder.zero_symbols"] / c["range_coder.symbols"]
    out["range_coder.overhead_frac"] = (c["range_coder.coded_bits"] / c["range_coder.model_bits"]
                                        - 1.0)
    out["codec.base.skip_block_frac"] = c["codec.base.skip_blocks"] / c["codec.base.blocks"]
    for k in BIT_KEYS:
        out[f"codec.bits.{k}"] = sum(p.bits[k] for p in sweep_pairs[0][0])

    # calibrated, so host drift between the two copies is not read as overhead
    plain = statistics.median(sum(p.seconds.cal for p in s) for s, _ in sweep_pairs)
    traced = statistics.median(sum(p.seconds.cal for p in t) for _, t in sweep_pairs)
    out["trace.sweep_overhead_s"] = traced - plain
    out["trace.sweep_overhead_frac"] = traced / plain - 1.0
    out["trace.rdlab_overhead_frac"] = (sum(t.seconds.cal for _, t in round_pairs)
                                        / sum(p.seconds.cal for p, _ in round_pairs) - 1.0)
    return out
