"""Decoder-reproducible conditional coding modes (alpha/beta weight maps).

Both maps are derived only from previously decoded data, so encoder and
decoder regenerate them identically without side bits.  beta blends the
motion-compensated predictor against the previous decoded frame; alpha gates
how much of the current frame is actually coded (its floor is the SKIP-like
regime where the reconstruction copies the blended predictor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import Frame
from .motion import MOTION_BLOCK, FlowField

ALPHA_FLOOR = 0.02
_ALPHA_NORM = 16.0   # mean local abs discrepancy mapping to alpha = 1
_BETA_NORM = 4.0     # flow magnitude (pixels) mapping to beta = 1
# The base frame's share of the enhancement layer's context, 32/255 (about
# 1/8); every stream's header carries it.  The base frame carries the base
# step's quantization error, the warped previous enhancement frame only half
# of it, so the context leans on its own past: over w in 0..96 of 255, 24-40
# gave the lowest textured base+enh BD-Rate (about -15% against 128).
FUSION_WEIGHT_Q = 32


@dataclass
class ModeMaps:
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if self.alpha.shape != self.beta.shape:
            raise ValueError("alpha/beta shapes differ")


def box_filter5(x: np.ndarray) -> np.ndarray:
    """5x5 mean filter with edge replication (integral-image based)."""
    p = np.pad(x, 2, mode="edge")
    ii = np.zeros((p.shape[0] + 1, p.shape[1] + 1))
    np.cumsum(np.cumsum(p, axis=0), axis=1, out=ii[1:, 1:])
    h, w = x.shape
    s = ii[5 : 5 + h, 5 : 5 + w] - ii[:h, 5 : 5 + w] - ii[5 : 5 + h, :w] + ii[:h, :w]
    return s / 25.0


def derive_mode_maps(prev: Frame, xbar: Frame, flow: FlowField) -> ModeMaps:
    """alpha from local predictor/previous-frame discrepancy, beta from
    local motion activity; both clamped, alpha floored at ALPHA_FLOOR."""
    h, w = prev.height, prev.width
    mag = np.repeat(np.repeat(flow.magnitude(), MOTION_BLOCK, 0), MOTION_BLOCK, 1)[:h, :w]
    beta = np.clip(mag / _BETA_NORM, 0.0, 1.0)
    disc = box_filter5(np.abs(xbar.luma() - prev.luma()))
    alpha = np.clip(disc / _ALPHA_NORM, ALPHA_FLOOR, 1.0)
    return ModeMaps(alpha, beta)


def combine_predictor(xbar: Frame, prev: Frame, m: ModeMaps) -> Frame:
    """Element-wise blend: beta * warped + (1 - beta) * previous frame."""
    if m.beta.shape != (xbar.height, xbar.width):
        raise ValueError("mode map shape does not match frames")
    return Frame(m.beta * xbar.rgb + (1.0 - m.beta) * prev.rgb)
