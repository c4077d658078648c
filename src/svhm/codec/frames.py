"""RGB frames and BT.601 full-range color conversion."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Frame:
    """One video frame: three equally-sized float planes in [0, 255]."""

    r: np.ndarray
    g: np.ndarray
    b: np.ndarray
    index: int = 0

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=np.float64)
        self.g = np.asarray(self.g, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if not (self.r.shape == self.g.shape == self.b.shape):
            raise ValueError("R, G, B planes must share one shape")
        if self.r.ndim != 2:
            raise ValueError("planes must be 2-D")

    @property
    def height(self) -> int:
        return self.r.shape[0]

    @property
    def width(self) -> int:
        return self.r.shape[1]

    def planes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.r, self.g, self.b

    def luma(self) -> np.ndarray:
        return 0.299 * self.r + 0.587 * self.g + 0.114 * self.b

    def clamped(self) -> "Frame":
        return Frame(
            np.clip(self.r, 0.0, 255.0),
            np.clip(self.g, 0.0, 255.0),
            np.clip(self.b, 0.0, 255.0),
            self.index,
        )

    def allclose(self, other: "Frame", tol: float = 0.0) -> bool:
        return all(
            np.max(np.abs(a - b), initial=0.0) <= tol
            for a, b in zip(self.planes(), other.planes())
        )


def rgb_to_ycbcr(frame: Frame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-range BT.601; returns full-resolution Y, Cb, Cr float planes."""
    r, g, b = frame.planes()
    y = frame.luma()
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return y, cb, cr


def ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray, index: int = 0) -> Frame:
    cb = cb - 128.0
    cr = cr - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return Frame(
        np.clip(r, 0.0, 255.0), np.clip(g, 0.0, 255.0), np.clip(b, 0.0, 255.0), index
    )


def downsample2(plane: np.ndarray) -> np.ndarray:
    """2x2 average for 4:2:0 chroma (dimensions must be even)."""
    h, w = plane.shape
    return plane.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


def upsample2(plane: np.ndarray) -> np.ndarray:
    """Nearest-neighbor 2x upsampling."""
    return np.repeat(np.repeat(plane, 2, axis=0), 2, axis=1)
