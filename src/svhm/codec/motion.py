"""Block-matching motion estimation and block-copy compensation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    Every SAD is a float sum in one fixed order, so the ties are bit-exact.
    A block's |cur - ref|, zero past the frame's edge up to whole blocks, is
    summed in runs of one block row each:

    1. Over a run, lane j accumulates pixels j, j + 8, j + 16, ...
    2. The eight lanes combine as ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)).
    3. The block's run sums are added top to bottom.

    A frame one block wide is summed by numpy itself, each block as one
    contiguous run in raster order.

    This is numpy's pairwise order (Higham, SIAM J. Sci. Comput. 14(4), 1993)
    for ``err.reshape(nby, block, nbx, block).sum(axis=(1, 3))``, and the
    tests check every candidate's SAD grid against that reduction.
    """
    if (cur.height, cur.width) != (ref.height, ref.width):
        raise ValueError("frames differ in size")
    search = MOTION_SEARCH
    sads = _sad_grids(cur.luma(), ref.luma())
    # Candidates in tie-break order, so argmin's first minimum is the winner.
    span = range(-search, search + 1)
    cands = sorted(((dy, dx) for dy in span for dx in span),
                   key=lambda c: abs(c[0]) + abs(c[1]))
    order = [(dy + search) * len(span) + dx + search for dy, dx in cands]
    sads = sads.reshape(len(order), *sads.shape[2:])[order]
    winners = np.array(cands, dtype=np.int64)[np.argmin(sads, axis=0)]
    return FlowField(winners[..., 1], winners[..., 0])


# Error-buffer budget of one group of candidates, well inside a 2 MiB L2 cache.
_GROUP_BYTES = 256 * 1024


def _sad_grids(cl: np.ndarray, rl: np.ndarray) -> np.ndarray:
    """SAD of every block at every candidate, as (dy, dx, nby, nbx) in raster order.

    The planes are laid out column-in-block first, ``[c, y, bx]``, so each
    addition of ``estimate_motion``'s order is one elementwise add of
    contiguous planes, over all blocks and a group of candidates.
    """
    block, search = MOTION_BLOCK, MOTION_SEARCH   # block is a multiple of 8
    h, w = cl.shape
    nby, nbx = -(-h // block), -(-w // block)
    wide = block + 2 * search
    nd = 2 * search + 1
    cl_t = np.pad(cl, ((0, 0), (0, nbx * block - w))).reshape(h, nbx, block).transpose(2, 0, 1)
    cl_t = np.ascontiguousarray(cl_t)[:, None]                       # [c, 1, y, bx]
    padded_ref = np.pad(rl, ((search, search), (search, search + nbx * block - w)), mode="edge")
    ref_t = np.ascontiguousarray(
        sliding_window_view(padded_ref, wide, axis=1)[:, ::block].transpose(2, 0, 1))
    del padded_ref
    # [o, dy, y, bx]: the candidate (dy, dx) reads o = c + search + dx, rows y + search + dy
    ref_win = sliding_window_view(ref_t, h, axis=1).transpose(0, 1, 3, 2)

    group = max(1, min(nd, _GROUP_BYTES // (8 * block * nby * block * nbx)))
    err = np.zeros((block, group, nby * block, nbx))   # rows past h stay zero
    sads = np.empty((nd, nd, nby, nbx))
    cols = w - (nbx - 1) * block                       # columns of the last block column
    for dx in range(nd):
        for dy in range(0, nd, group):
            e = err[:, : min(group, nd - dy)]
            g = e.shape[1]
            np.subtract(cl_t, ref_win[dx : dx + block, dy : dy + g], out=e[:, :, :h])
            np.abs(e, out=e)
            e[cols:, ..., -1] = 0.0                    # the zero padding past the right edge
            if nbx > 1:
                # one run per block row; numpy reduces an axis that is not
                # the innermost in order, so the rows add top to bottom
                rows = _pairwise(e).reshape(g, nby, block, nbx)
                np.add.reduce(rows, axis=2, out=sads[dy : dy + g, dx])
            else:
                # numpy's own block sum: pixel (y, c) of a block is term y * block + c
                runs = e[..., 0].transpose(1, 2, 0).reshape(g, nby, block * block)
                sads[dy : dy + g, dx, :, 0] = runs.sum(axis=-1)
    return sads


def _pairwise(terms: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum over axis 0 (a multiple of 8, at most 128 long),
    overwriting ``terms``."""
    lanes = terms[:8]
    for i in range(8, len(terms), 8):
        lanes += terms[i : i + 8]
    for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
        lanes[a] += lanes[b]
    return lanes[0]


def compensate(ref: Frame, flow: FlowField) -> Frame:
    """Block-copy warp with edge clamping."""
    h, w = ref.height, ref.width
    dy_map = np.repeat(np.repeat(flow.dy, MOTION_BLOCK, 0), MOTION_BLOCK, 1)[:h, :w]
    dx_map = np.repeat(np.repeat(flow.dx, MOTION_BLOCK, 0), MOTION_BLOCK, 1)[:h, :w]
    src_y = np.clip(np.arange(h)[:, None] + dy_map, 0, h - 1)
    src_x = np.clip(np.arange(w)[None, :] + dx_map, 0, w - 1)
    # np.take stays C-contiguous; ref.rgb[:, src_y, src_x] would interleave the planes.
    return Frame(np.take(ref.rgb.reshape(3, -1), src_y * w + src_x, axis=1))
