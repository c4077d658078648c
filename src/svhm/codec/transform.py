"""Fixed 8x8 orthonormal block transform and the quality ladder."""

from __future__ import annotations

import numpy as np

BLOCK = 8
QUALITY_STEPS = (32.0, 16.0, 8.0, 4.0)  # quantization step per quality index


def quality_step(q: int) -> float:
    if not 0 <= q < len(QUALITY_STEPS):
        raise ValueError(f"quality index {q} outside 0..{len(QUALITY_STEPS) - 1}")
    return QUALITY_STEPS[q]


def _dct_matrix(n: int = BLOCK) -> np.ndarray:
    k = np.arange(n)
    mat = np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / (2 * n))
    mat *= np.sqrt(2.0 / n)
    mat[0, :] = np.sqrt(1.0 / n)
    return mat


DCT = _dct_matrix()


def pad_to_blocks(plane: np.ndarray) -> np.ndarray:
    """Edge-replicate pad so the last two dimensions are multiples of BLOCK."""
    h, w = plane.shape[-2:]
    ph = (-h) % BLOCK
    pw = (-w) % BLOCK
    if ph or pw:
        plane = np.pad(plane, [(0, 0)] * (plane.ndim - 2) + [(0, ph), (0, pw)], mode="edge")
    return plane


def blockify(plane: np.ndarray) -> np.ndarray:
    p = pad_to_blocks(plane)
    *lead, h, w = p.shape
    return p.reshape(*lead, h // BLOCK, BLOCK, w // BLOCK, BLOCK).swapaxes(-3, -2)


def unblockify(blocks: np.ndarray, height: int, width: int) -> np.ndarray:
    *lead, nby, nbx, _, _ = blocks.shape
    p = blocks.swapaxes(-3, -2).reshape(*lead, nby * BLOCK, nbx * BLOCK)
    return p[..., :height, :width]


def forward(blocks: np.ndarray) -> np.ndarray:
    return DCT @ blocks @ DCT.T


def inverse(coeffs: np.ndarray) -> np.ndarray:
    return DCT.T @ coeffs @ DCT


def pixel_error_bound(delta: float) -> float:
    """Max |pixel| error when every coefficient is off by at most delta/2."""
    l1 = float(np.max(np.sum(np.abs(DCT), axis=0)))
    return 0.5 * delta * l1 * l1
