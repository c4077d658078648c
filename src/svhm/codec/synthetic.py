"""Seeded synthetic test clips: a translating square and a textured scene."""

from __future__ import annotations

import numpy as np

from .frames import Frame


def translating_square(frames: int = 30, size: int = 64, seed: int = 0) -> list[Frame]:
    """A bright square moving at 2 px/frame over a flat gray background.

    The 16-pixel square wraps around a frame larger than itself."""
    if size <= 16:
        raise ValueError(f"size must exceed the 16-pixel square, got {size}")
    rng = np.random.default_rng(seed)
    bg = 64.0 + rng.normal(0.0, 1.0, (size, size))
    sq = 16
    out = []
    for t in range(frames):
        rgb = np.stack([bg] * 3)
        y0 = (8 + 2 * t) % (size - sq)
        x0 = (4 + 2 * t) % (size - sq)
        rgb[:, y0 : y0 + sq, x0 : x0 + sq] = np.reshape((220.0, 180.0, 90.0), (3, 1, 1))
        out.append(Frame(rgb))
    return out


def textured_scene(frames: int = 30, height: int = 144, width: int = 176,
                   seed: int = 0) -> list[Frame]:
    """A pseudo-natural clip: smooth gradients plus band-limited texture,
    globally panning, with a moving high-contrast object."""
    rng = np.random.default_rng(seed)
    pad = 32
    H, W = height + 2 * pad, width + 2 * pad
    yy, xx = np.mgrid[0:H, 0:W].astype(np.float64)
    base = 90.0 + 50.0 * np.sin(2 * np.pi * xx / W) * np.cos(2 * np.pi * yy / H)

    # band-limited texture: heavily smoothed white noise
    noise = rng.normal(0.0, 1.0, (H, W))
    k = np.exp(-0.5 * (np.arange(-6, 7) / 2.0) ** 2)
    k /= k.sum()
    for ax in (0, 1):
        noise = np.apply_along_axis(np.convolve, ax, noise, k, mode="same")
    tex = 25.0 * noise / max(np.std(noise), 1e-9)

    world = np.clip(base + tex + np.reshape((20.0, 0.0, -20.0), (3, 1, 1)), 0.0, 255.0)
    out = []
    for t in range(frames):
        oy = pad + int(round(3 * np.sin(2 * np.pi * t / frames) * 4)) % 8
        ox = pad - 16 + (t % 16)
        rgb = world[:, oy : oy + height, ox : ox + width].copy()
        # moving object
        cy = 40 + (2 * t) % (height - 80)
        cx = 30 + (3 * t) % (width - 60)
        rgb[:, cy : cy + 24, cx : cx + 24] = np.reshape((230.0, 60.0, 40.0), (3, 1, 1))
        out.append(Frame(rgb))
    return out
