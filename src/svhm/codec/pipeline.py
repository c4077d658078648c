"""End-to-end encoder/decoder pipelines for the two-layer scalable codec.

Base layer: closed-loop hybrid coder (intra refresh every GOP, motion-
compensated inter frames with decoder-derived alpha/beta mode maps).
Enhancement layer: coded conditionally on a fused context of the decoded
base frame and the warped previous enhancement frame, at half the base
quantization step.  The decoder mirrors every encoder-side decision from
decoded data only, so the two stay in lockstep.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import coding, transform as tf
from .container import (ContainerError, FrameRecord, ScalableBitstream,
                        check_frame_size, check_header_fields)
from .frames import Frame
from .modes import combine_predictor, derive_mode_maps
from .motion import FlowField, compensate, estimate_motion, predict_motion


@dataclass
class CodecConfig:
    quality: int = 2
    gop: int = 32
    block: int = 16
    search: int = 8
    fusion_weight: float = 0.5
    enhancement: bool = True

    def __post_init__(self):
        check_header_fields(self.quality, self.gop, self.block, self.search)
        if not 0.0 <= self.fusion_weight <= 1.0:
            raise ValueError("fusion_weight must be in [0, 1]")

    @property
    def fusion_weight_q(self) -> int:
        return int(round(self.fusion_weight * 255.0))


@dataclass
class RateReport:
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


def _fuse_context(base: Frame, warped_enh: Frame | None, w: float) -> Frame:
    """Enhancement-layer conditioning context."""
    if warped_enh is None:
        return base
    planes = [w * b + (1.0 - w) * e
              for b, e in zip(base.planes(), warped_enh.planes())]
    return Frame(*planes, index=base.index)


def encode_sequence(frames: list[Frame], config: CodecConfig) -> tuple[ScalableBitstream, RateReport]:
    if not frames:
        raise ValueError("no frames to encode")
    h, w = frames[0].height, frames[0].width
    if any((f.height, f.width) != (h, w) for f in frames):
        raise ValueError("all frames must share one geometry")
    check_frame_size(w, h)
    t0 = time.perf_counter()
    stream = ScalableBitstream(w, h, config.gop, config.quality,
                               config.block, config.search,
                               config.fusion_weight_q)
    report = RateReport(w, h, len(frames))
    fw = config.fusion_weight_q / 255.0
    delta_e = tf.quality_step(config.quality) / 2.0

    prev_base: Frame | None = None
    prev_enh: Frame | None = None
    flow_buffer: list[FlowField] = []
    ones = np.ones((h, w))

    for t, x in enumerate(frames):
        rec = FrameRecord()
        if t % config.gop == 0:
            rec.base_signal, base_hat = coding.code_intra_frame(x, config.quality)
            flow_buffer = []
            prev_enh = None   # random access: enhancement context refreshes too
        else:
            flow = estimate_motion(x, prev_base, config.block, config.search)
            vbar = predict_motion(flow_buffer, h, w, config.block, config.search)
            rec.base_motion = coding.code_flow(flow, vbar)
            flow_buffer.append(flow)
            xbar = compensate(prev_base, flow)
            maps = derive_mode_maps(prev_base, xbar, flow)
            xtilde = combine_predictor(xbar, prev_base, maps)
            rec.base_signal, base_hat = coding.code_inter_frame(
                x, xtilde, maps.alpha, config.quality)

        if config.enhancement:
            if prev_enh is None:
                ctx = _fuse_context(base_hat, None, fw)
            else:
                eflow = estimate_motion(x, prev_enh, config.block, config.search)
                rec.enh_motion = coding.code_flow(
                    eflow, FlowField.zero(h, w, config.block, config.search))
                ctx = _fuse_context(base_hat, compensate(prev_enh, eflow), fw)
            rec.enh_context, enh_hat = coding.code_inter_frame(
                x, ctx, ones, config.quality, delta=delta_e,
                extra=base_hat, allow_skip=False)
            prev_enh = enh_hat

        prev_base = base_hat
        stream.frames.append(rec)
        report.frame_bits.append({
            "frame": t,
            "base_motion": 8 * len(rec.base_motion),
            "base_signal": 8 * len(rec.base_signal),
            "enh_motion": 8 * len(rec.enh_motion),
            "enh_context": 8 * len(rec.enh_context),
        })

    report.wall_seconds = time.perf_counter() - t0
    return stream, report


def decode_sequence(stream: ScalableBitstream, layers: str = "base+enh") -> tuple[list[Frame], RateReport]:
    """Decode the base layer, optionally refined by the enhancement layer.

    A corrupt frame stops decoding; everything decoded so far is returned
    with the failure recorded in the report's ``error`` field.
    """
    if layers not in ("base", "base+enh"):
        raise ValueError(f"unknown layer selection {layers!r}")
    t0 = time.perf_counter()
    h, w = stream.height, stream.width
    report = RateReport(w, h, len(stream.frames))
    fw = stream.fusion_weight
    delta_e = tf.quality_step(stream.quality) / 2.0
    want_enh = layers == "base+enh"

    out: list[Frame] = []
    prev_base: Frame | None = None
    prev_enh: Frame | None = None
    flow_buffer: list[FlowField] = []
    ones = np.ones((h, w))

    for t, rec in enumerate(stream.frames):
        try:
            if t % stream.gop == 0:
                base_hat = coding.decode_intra_frame(
                    rec.base_signal, stream.quality, h, w, t)
                flow_buffer = []
                prev_enh = None   # mirror the encoder's context refresh
            else:
                vbar = predict_motion(flow_buffer, h, w, stream.block, stream.search)
                flow = coding.decode_flow(rec.base_motion, vbar,
                                          stream.block, stream.search)
                flow_buffer.append(flow)
                xbar = compensate(prev_base, flow)
                maps = derive_mode_maps(prev_base, xbar, flow)
                xtilde = combine_predictor(xbar, prev_base, maps)
                base_hat = coding.decode_inter_frame(
                    rec.base_signal, xtilde, maps.alpha, stream.quality, index=t)

            if want_enh and rec.enh_context:
                if prev_enh is None:
                    ctx = _fuse_context(base_hat, None, fw)
                else:
                    eflow = coding.decode_flow(
                        rec.enh_motion,
                        FlowField.zero(h, w, stream.block, stream.search),
                        stream.block, stream.search)
                    ctx = _fuse_context(base_hat, compensate(prev_enh, eflow), fw)
                enh_hat = coding.decode_inter_frame(
                    rec.enh_context, ctx, ones, stream.quality,
                    delta=delta_e, extra=base_hat, allow_skip=False, index=t)
                prev_enh = enh_hat
                out.append(enh_hat)
            else:
                out.append(base_hat)
            prev_base = base_hat
        except (ValueError, ContainerError) as exc:
            report.error = f"frame {t}: {exc}"
            break
        report.frame_bits.append({
            "frame": t,
            "base_motion": 8 * len(rec.base_motion),
            "base_signal": 8 * len(rec.base_signal),
            "enh_motion": 8 * len(rec.enh_motion) if want_enh else 0,
            "enh_context": 8 * len(rec.enh_context) if want_enh else 0,
        })

    report.frame_count = len(out)
    report.wall_seconds = time.perf_counter() - t0
    return out, report
