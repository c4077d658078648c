"""RGB frames and BT.601 full-range color conversion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Frame:
    """One video frame: a (3, H, W) float array of R, G, B planes in [0, 255]."""

    rgb: np.ndarray

    def __post_init__(self):
        self.rgb = np.asarray(self.rgb, dtype=np.float64)
        if self.rgb.ndim != 3 or self.rgb.shape[0] != 3:
            raise ValueError(f"a frame is a (3, H, W) array, got shape {self.rgb.shape}")

    @property
    def height(self) -> int:
        return self.rgb.shape[1]

    @property
    def width(self) -> int:
        return self.rgb.shape[2]

    def luma(self) -> np.ndarray:
        r, g, b = self.rgb
        return 0.299 * r + 0.587 * g + 0.114 * b

    def allclose(self, other: "Frame", tol: float = 0.0) -> bool:
        return bool(np.max(np.abs(self.rgb - other.rgb), initial=0.0) <= tol)


def rgb_to_ycbcr(frame: Frame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-range BT.601; returns full-resolution Y, Cb, Cr float planes."""
    r, g, b = frame.rgb
    y = frame.luma()
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return y, cb, cr


def ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> Frame:
    cb = cb - 128.0
    cr = cr - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return Frame(np.clip(np.stack([r, g, b]), 0.0, 255.0))


def downsample2(plane: np.ndarray) -> np.ndarray:
    """2x2 average (4:2:0 chroma, MS-SSIM scales); an odd last row or column
    is dropped."""
    h, w = plane.shape
    plane = plane[: h - h % 2, : w - w % 2]
    return plane.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


def upsample2(plane: np.ndarray) -> np.ndarray:
    """Nearest-neighbor 2x upsampling."""
    return np.repeat(np.repeat(plane, 2, axis=0), 2, axis=1)
