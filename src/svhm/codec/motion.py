"""Block-matching motion estimation and block-copy compensation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import Frame


@dataclass
class FlowField:
    """Per-block integer displacements, in pixels."""

    dx: np.ndarray
    dy: np.ndarray
    block: int
    search: int

    def __post_init__(self):
        self.dx = np.asarray(self.dx, dtype=np.int64)
        self.dy = np.asarray(self.dy, dtype=np.int64)
        if self.dx.shape != self.dy.shape:
            raise ValueError("dx/dy shapes differ")
        if np.any(np.abs(self.dx) > self.search) or np.any(np.abs(self.dy) > self.search):
            raise ValueError("displacement exceeds search range")

    @classmethod
    def zero(cls, height: int, width: int, block: int, search: int) -> "FlowField":
        nby = -(-height // block)
        nbx = -(-width // block)
        z = np.zeros((nby, nbx), dtype=np.int64)
        return cls(z, z.copy(), block, search)

    def magnitude(self) -> np.ndarray:
        return np.sqrt(self.dx.astype(np.float64) ** 2 + self.dy.astype(np.float64) ** 2)


# SADs held at once: the candidate stack is cut into chunks of at most this
# many float64 (4 MiB), whatever the frame size and search range.
_STACK_ELEMENTS = 1 << 19


def estimate_motion(cur: Frame, ref: Frame, block: int = 16, search: int = 8) -> FlowField:
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
    h, w = cur.height, cur.width
    nby = -(-h // block)
    nbx = -(-w // block)
    cl = cur.luma()
    padded_ref = np.pad(ref.luma(), search, mode="edge")
    err = np.zeros((nby * block, nbx * block))   # the padding stays zero
    err_view = err[:h, :w]
    err_blocks = err.reshape(nby, block, nbx, block)

    # Candidates in tie-break order, so argmin's first minimum is the winner.
    span = range(-search, search + 1)
    cands = sorted(((dy, dx) for dy in span for dx in span),
                   key=lambda c: abs(c[0]) + abs(c[1]))
    chunk = max(1, _STACK_ELEMENTS // (nby * nbx))
    stack = np.empty((min(chunk, len(cands)), nby, nbx))
    best_sad = np.full((nby, nbx), np.inf)
    best = np.zeros((nby, nbx), dtype=np.int64)
    for start in range(0, len(cands), chunk):
        part = cands[start : start + chunk]
        for k, (dy, dx) in enumerate(part):
            y0 = search + dy
            x0 = search + dx
            np.subtract(cl, padded_ref[y0 : y0 + h, x0 : x0 + w], out=err_view)
            np.abs(err_view, out=err_view)
            err_blocks.sum(axis=(1, 3), out=stack[k])
        k = np.argmin(stack[: len(part)], axis=0)
        sad = np.take_along_axis(stack, k[None], axis=0)[0]
        better = sad < best_sad          # earlier chunks win ties
        best_sad[better] = sad[better]
        best[better] = start + k[better]
    winners = np.array(cands, dtype=np.int64)[best]
    return FlowField(winners[..., 1], winners[..., 0], block, search)


def compensate(ref: Frame, flow: FlowField) -> Frame:
    """Block-copy warp with edge clamping."""
    h, w = ref.height, ref.width
    dy_map = np.repeat(np.repeat(flow.dy, flow.block, 0), flow.block, 1)[:h, :w]
    dx_map = np.repeat(np.repeat(flow.dx, flow.block, 0), flow.block, 1)[:h, :w]
    src_y = np.clip(np.arange(h)[:, None] + dy_map, 0, h - 1)
    src_x = np.clip(np.arange(w)[None, :] + dx_map, 0, w - 1)
    # np.take stays C-contiguous; ref.rgb[:, src_y, src_x] would interleave the planes.
    return Frame(np.take(ref.rgb.reshape(3, -1), src_y * w + src_x, axis=1), ref.index)
