"""Laplace-convolved-uniform probability model and rate estimation.

Integer symbols are modeled by the probability a Laplace variable, blurred by
U(-1/2, 1/2) quantization noise, lands in the unit box around the symbol:
``F(k + 1/2) - F(k - 1/2)`` with the Laplace CDF ``F``.  Scales are floored at
``SCALE_FLOOR`` and box probabilities at ``PROB_FLOOR`` so the downstream
integer-CDF range coder stays well-conditioned (worst-case symbol cost is 16
bits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCALE_FLOOR = 0.04
PROB_FLOOR = 2.0 ** -16
SUPPORT_HALF_WIDTH = 64


class ShapeMismatchError(ValueError):
    pass


@dataclass
class LaplaceParamField:
    """Per-element Laplace location and scale for a plane of symbols."""

    mu: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.scale = np.asarray(self.scale, dtype=np.float64)
        if self.mu.shape != self.scale.shape:
            raise ShapeMismatchError("mu and scale shapes differ")
        if np.any(~np.isfinite(self.mu)) or np.any(~np.isfinite(self.scale)):
            raise ValueError("Laplace parameters must be finite")
        if np.any(self.scale < SCALE_FLOOR - 1e-12):
            raise ValueError(f"scales must be >= {SCALE_FLOOR}")


class Bitstream(bytes):
    """Range-coder payload: plain bytes, whose bit count is 8 times its length."""

    @property
    def bit_length(self) -> int:
        return 8 * len(self)


def laplace_cdf(x, mu, b):
    z = (np.asarray(x, dtype=np.float64) - mu) / b
    half = 0.5 * np.exp(-np.clip(np.abs(z), 0.0, 745.0))
    return np.where(z < 0, half, 1.0 - half)


def box_probability(k, mu, b):
    """P(symbol == k) under Laplace(mu, b) + U(-1/2, 1/2), floored.

    Vectorized over any broadcastable combination of arguments.
    """
    b = np.maximum(np.asarray(b, dtype=np.float64), SCALE_FLOOR)
    p = laplace_cdf(np.asarray(k) + 0.5, mu, b) - laplace_cdf(np.asarray(k) - 0.5, mu, b)
    out = np.maximum(p, PROB_FLOOR)
    return float(out) if np.ndim(out) == 0 else out


def estimate_rate(symbols: np.ndarray, params: LaplaceParamField) -> float:
    """Total model bits: sum of -log2 box probability at each position."""
    symbols = np.asarray(symbols)
    if symbols.shape != params.mu.shape:
        raise ShapeMismatchError(
            f"symbol plane {symbols.shape} vs parameter field {params.mu.shape}"
        )
    if symbols.size == 0:
        return 0.0
    p = box_probability(symbols.astype(np.float64), params.mu, params.scale)
    return float(np.sum(-np.log2(p)))


def quantize(x: np.ndarray) -> np.ndarray:
    """Round half away from zero to integer symbols."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("cannot quantize non-finite values")
    return _round_half_away(x)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    """``quantize`` of a finite float64 array.  x - 0.5 is exactly -(|x| + 0.5)
    for x < 0, so this is sign(x) * floor(|x| + 0.5) for every finite x."""
    return np.trunc(x + np.copysign(0.5, x)).astype(np.int64)
