"""Block-matching motion estimation and block-copy compensation."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .frames import Frame


# The motion model of every stream: one flow vector per MOTION_BLOCK x
# MOTION_BLOCK block, each component within +/- MOTION_SEARCH pixels.
MOTION_BLOCK = 16
MOTION_SEARCH = 8
# The encoder's early exit: a block whose mean |cur - ref| luma at the zero
# vector is at most MOTION_STATIC (8-bit levels) takes the zero vector unsearched.
MOTION_STATIC = 1.0


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
    """Full-search SAD over luma, except for static blocks; deterministic
    tie-breaking.

    - **Static blocks.** A block whose zero-vector SAD is at most
      ``MOTION_STATIC`` times its in-frame pixel count takes the zero vector
      without a search (an early exit after Tourapis, "Enhanced predictive
      zonal search for single and multiple frame motion estimation", VCIP
      2002).  On a fixed camera this skips the background and stops the
      search chasing its noise.  At ``MOTION_STATIC`` = 0 the result is the
      full search's, since a zero SAD already wins at the zero vector.  Only
      the encoder decides this; the stream carries the vector as any other.

    Every other block gets the full search.  Ties go to the smallest
    |dx| + |dy|, then to the earliest candidate in raster order (dy outer, dx
    inner, each from -search to +search).  Reference pixels outside the frame
    repeat the nearest edge pixel.

    When at most a quarter of the blocks remain and the frame is more than one
    block wide, each remaining block is searched alone, all candidates in one
    pass over its own window (``_block_sads``).  Otherwise the frame kernel
    (``_sad_grids``) sums every block at every candidate it cannot rule out.
    Both add each SAD in the same order, so the path changes no vector.

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

    The frame kernel skips, exactly, candidates that cannot win, by multilevel
    successive elimination (Li & Salari, IEEE TIP 4(1), 1995; Gao, Duanmu &
    Zou, IEEE TIP 9(3), 2000):

    - **Order.** Candidates are visited in tie-break order, one ring of equal
      |dx| + |dy| at a time, and each block keeps its best SAD so far.
    - **Bound.** A block's SAD at a candidate is at least the sum, over its
      4x4 sub-blocks wholly inside the frame, of |sum of cur - sum of ref|
      (the triangle inequality).  The reference sums are box sums of the
      edge-padded reference, made once per call.
    - **Skip.** A candidate is summed only if some block's bound is at most
      that block's best from the earlier rings plus a margin ``tol``.  A
      skipped candidate's grid is +inf.  Its SAD exceeds every block's best,
      so it wins no block, and ``argmin`` picks the same winner.
    - **Margin.** Bound and SAD are float sums of at most n = block**2 terms,
      each at most M = max|cur| + max|ref| in size.  So each lies within
      n * n * M * 2**-53 (times 1 + 1e-9) of its exact value (Higham,
      *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002,
      ch. 4).  The exact bound never exceeds the exact SAD, so the float
      bound exceeds the float SAD by less than 2.3e-16 * n * n * M.
      ``tol`` = 1e-9 * n * M covers that for any block under 4 million
      pixels.  At 16x16 on 8-bit luma ``tol`` is at most 1.3e-4, far below
      the SAD gaps the bound has to show.
    - **Bail-out.** A candidate is skipped only if every block rules it out.
      So the block with the least zero-vector SAD is checked first.  If none
      of its bounds exceeds its least SAD plus ``tol``, it rules nothing out,
      and every candidate is summed in ring order without bounds.  A flat or
      noisy background, whose candidates all score about the same, takes
      this path.
    """
    if (cur.height, cur.width) != (ref.height, ref.width):
        raise ValueError("frames differ in size")
    block, search = MOTION_BLOCK, MOTION_SEARCH
    cl, rl = cur.luma(), ref.luma()
    h, w = cl.shape
    nby, nbx = -(-h // block), -(-w // block)
    zero = np.pad(np.abs(cl - rl), ((0, nby * block - h), (0, nbx * block - w)))
    zero = zero.reshape(nby, block, nbx, block).sum(axis=(1, 3))   # in the kernel's order
    rows = np.minimum(block, h - block * np.arange(nby))
    cols = np.minimum(block, w - block * np.arange(nbx))
    moving = ~(zero <= MOTION_STATIC * np.outer(rows, cols))
    # candidates in tie-break order, so argmin's first minimum is the winner
    tie = _tie_order(search)
    winners = np.zeros((nby, nbx, 2), dtype=np.int64)
    if nbx > 1 and 4 * np.count_nonzero(moving) <= moving.size:
        padded_ref = np.pad(rl, search, mode="edge")
        for by, bx in zip(*np.nonzero(moving)):
            sads = _block_sads(cl, padded_ref, by, bx)
            winners[by, bx] = tie[np.argmin(sads[tie[:, 0], tie[:, 1]])] - search
    else:
        sads = _sad_grids(cl, rl)
        best = tie[np.argmin(sads[tie[:, 0], tie[:, 1]], axis=0)] - search
        winners[moving] = best[moving]
    return FlowField(winners[..., 1], winners[..., 0])


@functools.lru_cache(maxsize=None)
def _tie_order(search: int) -> np.ndarray:
    """Every candidate as grid indices (dy, dx) + search, smallest |dx| + |dy|
    first and in raster order within; shared, so read-only."""
    span = range(2 * search + 1)
    tie = np.array(sorted(((dy, dx) for dy in span for dx in span),
                          key=lambda c: abs(c[0] - search) + abs(c[1] - search)))
    tie.flags.writeable = False
    return tie


_SUB = 4   # side of the sub-blocks whose sums bound a block's SAD (_sub_sums adds 4)


def _sad_grids(cl: np.ndarray, rl: np.ndarray) -> np.ndarray:
    """SAD of every block at every candidate, as (dy, dx, nby, nbx) in raster
    order; a candidate that ``estimate_motion``'s bound rules out for every
    block is never summed and its grid is +inf.

    The planes are laid out column-in-block first, ``[c, y, bx]``, so each
    addition of ``estimate_motion``'s order is one elementwise add of
    contiguous planes, over all blocks of one candidate.
    """
    block, search = MOTION_BLOCK, MOTION_SEARCH   # block is a multiple of 8
    h, w = cl.shape
    nby, nbx = -(-h // block), -(-w // block)
    wide = block + 2 * search
    nd = 2 * search + 1
    cl_t = np.ascontiguousarray(
        np.pad(cl, ((0, 0), (0, nbx * block - w))).reshape(h, nbx, block).transpose(2, 0, 1))
    padded_ref = np.pad(rl, ((search, search), (search, search + nbx * block - w)), mode="edge")
    # [o, y, bx]: the candidate (dy, dx) reads o = c + search + dx, rows y + search + dy
    ref_t = np.ascontiguousarray(
        sliding_window_view(padded_ref, wide, axis=1)[:, ::block].transpose(2, 0, 1))

    err = np.zeros((block, nby * block, nbx))   # rows past h stay zero
    sads = np.full((nd, nd, nby, nbx), np.inf)
    cols = w - (nbx - 1) * block                # columns of the last block column

    def run(dy, dx):
        """Sum the candidate (dy, dx), grid indices, into ``sads``."""
        np.subtract(cl_t, ref_t[dx : dx + block, dy : dy + h], out=err[:, :h])
        np.abs(err, out=err)
        if cols < block:
            err[cols:, :, -1] = 0.0             # the zero padding past the right edge
        if nbx > 1:
            _row_runs(err, block, out=sads[dy, dx])
        else:
            # numpy's own block sum: pixel (y, c) of a block is term y * block + c
            sads[dy, dx, :, 0] = err[..., 0].T.reshape(nby, block * block).sum(axis=-1)

    zero = (search, search)
    run(*zero)
    tie = _tie_order(search)
    # estimate_motion's margin; a NaN or inf pixel makes every test with it false
    tol = 1e-9 * block * block * (np.abs(cl).max() + np.abs(rl).max())
    if not _can_rule_out(cl, padded_ref, sads[zero], block, tol):
        for dy, dx in tie[1:].tolist():   # nothing can be skipped
            run(dy, dx)
        return sads

    # Visit the rings in tie-break order and skip each candidate that the
    # sub-block bounds rule out for every block (see estimate_motion).
    bounds = _bounds(cl, padded_ref, block)
    best = sads[zero].copy()
    rings = np.split(tie, np.searchsorted(np.abs(tie - search).sum(axis=1), range(1, nd)))
    for dys, dxs in (ring.T for ring in rings[1:]):
        needed = (bounds[dys, dxs] <= best + tol).any(axis=(1, 2))
        for dy, dx in zip(dys[needed], dxs[needed]):
            run(dy, dx)
        np.minimum(best, sads[dys, dxs].min(axis=0), out=best)
    return sads


def _block_sads(cl: np.ndarray, padded_ref: np.ndarray, by: int, bx: int) -> np.ndarray:
    """SAD of block (by, bx) at every candidate, as (dy, dx), added in the
    frame kernel's order for a frame more than one block wide: the candidates
    stand where the kernel has the block columns.  ``padded_ref`` is the
    reference edge-padded by the search range on every side."""
    block, nd = MOTION_BLOCK, 2 * MOTION_SEARCH + 1
    y0, x0 = by * block, bx * block
    cur = cl[y0 : y0 + block, x0 : x0 + block]
    bh, bw = cur.shape
    window = padded_ref[y0 : y0 + bh + nd - 1, x0 : x0 + bw + nd - 1]
    err = np.zeros((block, block, nd, nd))   # [c, y, dy, dx]; past the frame's edge stays 0
    part = err[:bw, :bh]
    np.subtract(cur.T[..., None, None],
                sliding_window_view(window, (bh, bw)).transpose(3, 2, 0, 1), out=part)
    np.abs(part, out=part)
    return _row_runs(err.reshape(block, block, nd * nd), block).reshape(nd, nd)


def _row_runs(err: np.ndarray, block: int, out=None) -> np.ndarray:
    """Block sums of ``err``, laid out [c, y, i], in ``estimate_motion``'s
    order: the lanes of each row run, then the runs top to bottom; overwrites
    ``err``."""
    rows = _pairwise(err)
    # numpy reduces an axis that is not the innermost in order, so the runs
    # add top to bottom
    return np.add.reduce(rows.reshape(-1, block, rows.shape[-1]), axis=1, out=out)


def _bounds(cl: np.ndarray, padded_ref: np.ndarray, block: int) -> np.ndarray:
    """Every block's SAD bound at every candidate, as (dy, dx, nby, nbx): the
    sum over its whole sub-blocks of |sum of cur - sum of ref|."""
    nby, nbx = -(-cl.shape[0] // block), -(-cl.shape[1] // block)
    nd = 2 * MOTION_SEARCH + 1
    k = block // _SUB
    cur_sums, ref_sums = _sub_sums(cl, padded_ref, nd)
    fy, fx = cur_sums.shape
    bounds = np.empty((nd, nd, nby, nbx))
    diff = np.zeros((nd, nby * k, nbx * k))   # sub-blocks not wholly inside stay 0
    across = np.empty((nd, nby * k, nbx))
    for dy in range(nd):   # one row of candidates at a time keeps the buffers small
        np.subtract(ref_sums[dy], cur_sums, out=diff[:, :fy, :fx])
        np.abs(diff, out=diff)
        np.add(diff[..., 0::k], diff[..., 1::k], out=across)
        for j in range(2, k):
            across += diff[..., j::k]
        np.add(across[:, 0::k], across[:, 1::k], out=bounds[dy])
        for i in range(2, k):
            bounds[dy] += across[:, i::k]
    return bounds


def _can_rule_out(cl: np.ndarray, padded_ref: np.ndarray, zero_sads: np.ndarray,
                  block: int, tol: float) -> bool:
    """The bail-out: whether the block with the least zero-vector SAD has a
    bound above its least SAD plus the margin anywhere.  If not, it rules
    out no candidate, and so no candidate is skipped.  Its SADs here are
    numpy's sums: they only choose the path, and both paths are exact."""
    nd = 2 * MOTION_SEARCH + 1
    by, bx = np.unravel_index(np.argmin(zero_sads), zero_sads.shape)
    y0, x0 = by * block, bx * block
    cur = cl[y0 : y0 + block, x0 : x0 + block]
    bh, bw = cur.shape
    if min(bh, bw) < _SUB:
        return False   # without a whole sub-block its bound is 0
    window = padded_ref[y0 : y0 + bh + nd - 1, x0 : x0 + bw + nd - 1]
    cur_sums, ref_sums = _sub_sums(cur, window, nd)
    bounds = np.abs(ref_sums - cur_sums).sum(axis=(2, 3))
    top = bounds.max()
    if zero_sads[by, bx] + tol < top:
        return True   # its least SAD is at most its zero-vector SAD
    # only a candidate whose bound is below the top can have a SAD below it
    below = sliding_window_view(window, (bh, bw))[bounds < top]
    sads = np.abs(below - cur).sum(axis=(1, 2))
    return bool((sads + tol < top).any())


def _sub_sums(cur: np.ndarray, ref: np.ndarray, nd: int):
    """Sums of the whole _SUB x _SUB sub-blocks (sy, sx) of ``cur``, and the
    sum of the ``ref`` sub-block each one meets at every candidate, as
    [dy, dx, sy, sx]; ``ref`` is padded by the search range on every side."""
    n = _SUB
    fy, fx = cur.shape[0] // n, cur.shape[1] // n
    cur_sums = cur[: n * fy, : n * fx].reshape(fy, n, fx, n).sum(axis=(1, 3))
    # the sum of every 4 x 4 window: pairs of rows, pairs of those, then the same across
    pairs = ref[:-1] + ref[1:]
    rows = pairs[:-2] + pairs[2:]
    pairs = rows[:, :-1] + rows[:, 1:]
    boxes = pairs[:, :-2] + pairs[:, 2:]
    ref_sums = sliding_window_view(boxes, (n * fy - n + 1, n * fx - n + 1))
    return cur_sums, ref_sums[:nd, :nd, ::n, ::n]


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
