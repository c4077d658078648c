"""Block-matching motion estimation and block-copy compensation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import Frame


# The motion model of every stream: one flow vector per MOTION_BLOCK x
# MOTION_BLOCK block, each component within +/- MOTION_SEARCH pixels.
MOTION_BLOCK = 16
MOTION_SEARCH = 8


@dataclass
class FlowField:
    """Per-block integer displacements, in pixels."""

    dx: np.ndarray
    dy: np.ndarray

    def __post_init__(self):
        self.dx = np.asarray(self.dx, dtype=np.int64)
        self.dy = np.asarray(self.dy, dtype=np.int64)
        if self.dx.shape != self.dy.shape:
            raise ValueError("dx/dy shapes differ")
        if np.any(np.abs(self.dx) > MOTION_SEARCH) or np.any(np.abs(self.dy) > MOTION_SEARCH):
            raise ValueError("displacement exceeds search range")

    @classmethod
    def zero(cls, height: int, width: int) -> "FlowField":
        z = np.zeros((-(-height // MOTION_BLOCK), -(-width // MOTION_BLOCK)), dtype=np.int64)
        return cls(z, z.copy())

    def magnitude(self) -> np.ndarray:
        return np.sqrt(self.dx.astype(np.float64) ** 2 + self.dy.astype(np.float64) ** 2)


def estimate_motion(cur: Frame, ref: Frame) -> FlowField:
    """Full-search SAD over luma; deterministic tie-breaking.

    Ties go to the smallest |dx| + |dy|, then to the earliest candidate in
    raster order (dy outer, dx inner, each from -search to +search).
    Reference pixels outside the frame repeat the nearest edge pixel.

    Tests rely on this contract: the SAD of each candidate is the per-block
    sum of |cur - ref| exactly as ``err.reshape(nby, block, nbx,
    block).sum(axis=(1, 3))`` computes it on the error plane zero-padded to
    whole blocks, so the float sums, and hence the ties, are bit-exact.
    """
    if (cur.height, cur.width) != (ref.height, ref.width):
        raise ValueError("frames differ in size")
    block, search = MOTION_BLOCK, MOTION_SEARCH
    h, w = cur.height, cur.width
    nby, nbx = -(-h // block), -(-w // block)
    cl = cur.luma()
    padded_ref = np.pad(ref.luma(), search, mode="edge")
    err = np.zeros((nby * block, nbx * block))   # the padding stays zero
    err_view = err[:h, :w]
    err_blocks = err.reshape(nby, block, nbx, block)

    # Candidates in tie-break order, so argmin's first minimum is the winner.
    span = range(-search, search + 1)
    cands = sorted(((dy, dx) for dy in span for dx in span),
                   key=lambda c: abs(c[0]) + abs(c[1]))
    sads = np.empty((len(cands), nby, nbx))
    for k, (dy, dx) in enumerate(cands):
        y0 = search + dy
        x0 = search + dx
        np.subtract(cl, padded_ref[y0 : y0 + h, x0 : x0 + w], out=err_view)
        np.abs(err_view, out=err_view)
        err_blocks.sum(axis=(1, 3), out=sads[k])
    winners = np.array(cands, dtype=np.int64)[np.argmin(sads, axis=0)]
    return FlowField(winners[..., 1], winners[..., 0])


def compensate(ref: Frame, flow: FlowField) -> Frame:
    """Block-copy warp with edge clamping."""
    h, w = ref.height, ref.width
    dy_map = np.repeat(np.repeat(flow.dy, MOTION_BLOCK, 0), MOTION_BLOCK, 1)[:h, :w]
    dx_map = np.repeat(np.repeat(flow.dx, MOTION_BLOCK, 0), MOTION_BLOCK, 1)[:h, :w]
    src_y = np.clip(np.arange(h)[:, None] + dy_map, 0, h - 1)
    src_x = np.clip(np.arange(w)[None, :] + dx_map, 0, w - 1)
    # np.take stays C-contiguous; ref.rgb[:, src_y, src_x] would interleave the planes.
    return Frame(np.take(ref.rgb.reshape(3, -1), src_y * w + src_x, axis=1))
