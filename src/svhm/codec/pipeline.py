"""End-to-end encoder/decoder pipelines for the two-layer scalable codec.

Base layer: closed-loop hybrid coder (intra refresh every GOP, motion-
compensated inter frames with decoder-derived alpha/beta mode maps).
Enhancement layer: coded conditionally on a fused context of the decoded
base frame and the warped previous enhancement frame, at half the base
quantization step (decided in ``coding``).  Both sides run one closed loop, :func:`_closed_loop`,
which derives every prediction from decoded data only.  The decoder's
callables read each sub-stream back; the encoder's add the analysis (motion
search, quantization) and write it: the encoder is the decoder plus analysis.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from ..range_coder import CorruptStreamError
from . import coding
from .container import FrameRecord, ScalableBitstream, check_frame_size, check_header_fields
from .frames import Frame
from .modes import FUSION_WEIGHT_Q, combine_predictor, derive_mode_maps
from .motion import FlowField, compensate, estimate_motion


@dataclass
class CodecConfig:
    quality: int = 2
    gop: int = 32
    enhancement: bool = True

    def __post_init__(self):
        check_header_fields(self.quality, self.gop)


@dataclass
class RateReport:
    """Per-frame sub-stream bits.  ``bpp`` counts the four sub-streams' bytes,
    each signal sub-stream's two inner u32 lengths included, but not the
    18-byte header or the container's u32 lengths."""

    width: int
    height: int
    frame_count: int
    frame_bits: list[dict] = field(default_factory=list)
    wall_seconds: float = 0.0
    error: str | None = None

    def total_bits(self, layers: str = "base+enh") -> int:
        keys = ("base_motion", "base_signal")
        if layers != "base":
            keys += ("enh_motion", "enh_context")
        return sum(sum(fb[k] for k in keys) for fb in self.frame_bits)

    def bpp(self, layers: str = "base+enh") -> float:
        denom = 3 * self.width * self.height * self.frame_count
        return self.total_bits(layers) / denom if denom else 0.0

    def to_dict(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "frame_count": self.frame_count,
            "total_bits": self.total_bits(),
            "base_bits": self.total_bits("base"),
            "bpp": self.bpp(),
            "base_bpp": self.bpp("base"),
            "wall_seconds": self.wall_seconds,
            "frame_bits": self.frame_bits,
            "error": self.error,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _fuse_context(base: Frame, warped_enh: Frame) -> Frame:
    """Enhancement-layer conditioning context."""
    w = FUSION_WEIGHT_Q / 255.0
    return Frame(w * base.rgb + (1.0 - w) * warped_enh.rgb)


def _closed_loop(stream: ScalableBitstream, intra, flow, residual, has_enh):
    """Yield the output frame of each record in ``stream.frames``.

    The callables code or decode one sub-stream each, named by its
    ``FrameRecord`` field: ``intra(t, rec)`` and ``residual(t, rec, field,
    predictor, alpha, extra)`` return the reconstruction, ``flow(t, rec,
    field, reference, vbar)`` the flow field.  ``has_enh(rec)`` says whether
    the frame has an enhancement layer.  A base flow is predicted by the
    previous one of its GOP, the first by the zero field.
    """
    h, w = stream.height, stream.width
    zero = FlowField.zero(h, w)
    prev_base: Frame | None = None
    prev_enh: Frame | None = None
    ones = np.ones((h, w))
    for t, rec in enumerate(stream.frames):
        if t % stream.gop == 0:
            base_hat = intra(t, rec)
            v = zero
            prev_enh = None   # random access: enhancement context refreshes too
        else:
            v = flow(t, rec, "base_motion", prev_base, v)
            xbar = compensate(prev_base, v)
            maps = derive_mode_maps(prev_base, xbar, v)
            xtilde = combine_predictor(xbar, prev_base, maps)
            base_hat = residual(t, rec, "base_signal", xtilde, maps.alpha, None)
        out = base_hat
        if has_enh(rec):
            ctx = base_hat
            if prev_enh is not None:
                eflow = flow(t, rec, "enh_motion", prev_enh, zero)
                ctx = _fuse_context(base_hat, compensate(prev_enh, eflow))
            out = prev_enh = residual(t, rec, "enh_context", ctx, ones, base_hat)
        prev_base = base_hat
        yield out


def _frame_bits(t: int, rec: FrameRecord, enh: bool) -> dict:
    return {
        "frame": t,
        "base_motion": 8 * len(rec.base_motion),
        "base_signal": 8 * len(rec.base_signal),
        "enh_motion": 8 * len(rec.enh_motion) if enh else 0,
        "enh_context": 8 * len(rec.enh_context) if enh else 0,
    }


def encode_sequence(frames: list[Frame], config: CodecConfig) -> tuple[ScalableBitstream, RateReport]:
    if not frames:
        raise ValueError("no frames to encode")
    h, w = frames[0].height, frames[0].width
    if any((f.height, f.width) != (h, w) for f in frames):
        raise ValueError("all frames must share one geometry")
    check_frame_size(w, h)
    t0 = time.perf_counter()
    stream = ScalableBitstream(w, h, config.gop, config.quality, [FrameRecord() for _ in frames])
    report = RateReport(w, h, len(frames))

    def intra(t, rec):
        rec.base_signal, hat = coding.code_intra_frame(frames[t], config.quality)
        return hat

    def flow(t, rec, field, ref, vbar):
        v = estimate_motion(frames[t], ref)   # |v - vbar| <= 2 * MOTION_SEARCH < FLOW_SUPPORT
        setattr(rec, field, coding.code_flow(v, vbar))
        return v

    def residual(t, rec, field, pred, alpha, extra):
        payload, hat = coding.code_inter_frame(frames[t], pred, alpha, config.quality,
                                               extra=extra)
        setattr(rec, field, payload)
        return hat

    for t, _ in enumerate(_closed_loop(stream, intra, flow, residual,
                                       lambda rec: config.enhancement)):
        report.frame_bits.append(_frame_bits(t, stream.frames[t], True))
    report.wall_seconds = time.perf_counter() - t0
    return stream, report


def decode_sequence(stream: ScalableBitstream, layers: str = "base+enh") -> tuple[list[Frame], RateReport]:
    """Decode the base layer, optionally refined by the enhancement layer.

    A corrupt frame stops decoding; everything decoded so far is returned
    with the failure recorded in the report's ``error`` field.  A frame that
    carries bytes in a sub-stream its type does not read is corrupt too; a
    base-layer decode leaves the enhancement sub-streams unread by choice.
    """
    if layers not in ("base", "base+enh"):
        raise ValueError(f"unknown layer selection {layers!r}")
    t0 = time.perf_counter()
    report = RateReport(stream.width, stream.height, len(stream.frames))
    want_enh = layers == "base+enh"
    checked = ("base_motion", "base_signal", "enh_motion", "enh_context")[:4 if want_enh else 2]
    read: set[str] = set()

    def sub(rec, field):
        read.add(field)
        return getattr(rec, field)

    def intra(t, rec):
        return coding.decode_intra_frame(sub(rec, "base_signal"), stream.quality,
                                         stream.height, stream.width)

    def flow(t, rec, field, ref, vbar):
        return coding.decode_flow(sub(rec, field), vbar)

    def residual(t, rec, field, pred, alpha, extra):
        return coding.decode_inter_frame(sub(rec, field), pred, alpha, stream.quality,
                                         extra=extra)

    out: list[Frame] = []
    try:
        for t, frame in enumerate(_closed_loop(stream, intra, flow, residual,
                                               lambda rec: want_enh and rec.enh_context)):
            rec = stream.frames[t]
            for name in checked:
                if getattr(rec, name) and name not in read:
                    raise CorruptStreamError(f"{name} sub-stream is never read")
            read.clear()
            report.frame_bits.append(_frame_bits(t, rec, want_enh))
            out.append(frame)
    except ValueError as exc:
        report.error = f"frame {len(out)}: {exc}"
    report.frame_count = len(out)
    report.wall_seconds = time.perf_counter() - t0
    return out, report
