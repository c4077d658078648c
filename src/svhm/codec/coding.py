"""Transform coding of frames and flow fields on top of the range coder.

Conditioning enters through the probability model: Laplace scales are derived
deterministically from decoder-available data (the predictor and, for the
enhancement layer, the base frame), so no scale parameters are transmitted.

Coefficients are coded up to the last significant position, as JPEG's EOB
and HEVC's last-position coding do: each kept 8x8 block sends a count, 1 plus
the zigzag index of its last nonzero coefficient (0 for an all-zero block),
and then only its first ``count`` coefficients in zigzag order; the decoder
fills the rest with zeros.  The count has one fixed model, Laplace mu 0,
scale ``_COUNT_SCALE``, half-width ``COUNT_SUPPORT``, so it needs one cached
CDF row and no side information.  Sub-streams are the range coder's bytes.
Its ``SupportError`` is the one bound on coded symbols: pixels in [0, 255]
keep a coefficient within 8 * 255 / 2 = 1020 < ``CODEC_SUPPORT`` at step 2.

The enhancement layer's quantization step is decided here and nowhere else:
an inter-frame call with ``extra`` (the decoded base frame) codes at half the
base step ``quality_step(q)``, one without it at the base step itself.
"""

from __future__ import annotations

import numpy as np

from ..entropy_model import SCALE_FLOOR, LaplaceParamField, quantize
from ..range_coder import CorruptStreamError, range_decode, range_encode
from .container import pack, unpack
from .frames import Frame
from .modes import ALPHA_FLOOR
from .motion import FlowField
from . import transform as tf

CODEC_SUPPORT = 1024        # entropy-coder support half-width for coefficients
FLOW_SUPPORT = 64
_SCALE_MAX = 256.0
_INTRA_DC_LEVEL = 128.0     # mid-gray prior for the intra DC band
COUNT_SUPPORT = 64          # support half-width of the per-block count
_COUNT_SCALE = 16.0         # the count's Laplace model: mu 0, this scale
_COEFFS = tf.BLOCK * tf.BLOCK
# JPEG zigzag scan (anti-diagonals from DC, alternating) as raster indices
_ZIGZAG = np.array([r * tf.BLOCK + c for r, c in sorted(
    np.ndindex(tf.BLOCK, tf.BLOCK),
    key=lambda p: (p[0] + p[1], p[1] if (p[0] + p[1]) % 2 == 0 else p[0]))])
_RASTER = np.argsort(_ZIGZAG)   # the scan position of each raster index


def palette_scale(b: np.ndarray) -> np.ndarray:
    """Snap scales to a small geometric palette (quarter-octave steps).

    Keeps the number of distinct integer CDFs per plane small; the rule is a
    pure function of its input, so encoder and decoder agree.
    """
    b = np.clip(np.asarray(b, dtype=np.float64), SCALE_FLOOR, _SCALE_MAX)
    e = np.round(np.log2(b / SCALE_FLOOR) * 4.0)
    return SCALE_FLOOR * np.exp2(e / 4.0)


# ---------------------------------------------------------------------------
# Frame models and reconstruction
# ---------------------------------------------------------------------------

def _intra_model(q: int, height: int, width: int):
    """Frame model of an intra frame: zero predictor, fixed per-band Laplace
    scales, every block coded."""
    delta = tf.quality_step(q)
    nb = (-(-height // tf.BLOCK), -(-width // tf.BLOCK))
    u, v = np.ogrid[:tf.BLOCK, :tf.BLOCK]
    mu = np.zeros((tf.BLOCK, tf.BLOCK))
    mu[0, 0] = _INTRA_DC_LEVEL * tf.BLOCK / delta
    scale = palette_scale(400.0 / (delta * (1.0 + u + v) ** 1.5))
    kept = (3, nb[0] * nb[1]) + mu.shape
    params = LaplaceParamField(np.broadcast_to(mu, kept), np.broadcast_to(scale, kept))
    return np.zeros((3, height, width)), 0.0, delta, params, np.ones(nb, dtype=bool)


def _inter_scales(pred: np.ndarray, alpha_block: np.ndarray, delta: float,
                  extra: np.ndarray | None) -> np.ndarray:
    """Expected residual-symbol scale per coefficient, decoder-reproducible.

    Base layer: per-block activity from the alpha map (itself derived from the
    predictor/previous-frame discrepancy, so high alpha means high expected
    residual energy).  Enhancement layer: the coefficient-domain gap between
    the base frame ``extra`` and the fused context ``pred`` predicts where
    refinement symbols land, enriched Laplace parameters from base side
    information.  Only the enhancement layer transforms the pixel planes.
    """
    if extra is None:
        act = alpha_block * (0.3 + 16.0 * alpha_block) / delta
        return np.broadcast_to(palette_scale(act)[:, :, None, None],
                               (3,) + alpha_block.shape + (tf.BLOCK, tf.BLOCK))
    gap = tf.forward(tf.blockify(extra))
    gap -= tf.forward(tf.blockify(pred))
    np.abs(gap, out=gap)
    gap /= delta
    return palette_scale(0.2 + 0.7 * gap)


def _reconstruct(symbols: np.ndarray, predictor: np.ndarray, offset,
                 delta: float, keep: np.ndarray) -> np.ndarray:
    """Predictor plus the dequantized residual of the kept blocks plus the
    offset, clipped to the pixel range."""
    h, w = predictor.shape[-2:]
    resid = np.zeros((3,) + keep.shape + (tf.BLOCK, tf.BLOCK))
    resid[:, keep] = tf.inverse(symbols.astype(np.float64) * delta)
    recon = np.add(predictor, tf.unblockify(resid, h, w))   # then + offset and clip, in place
    recon += offset
    return np.clip(recon, 0.0, 255.0, out=recon)


# ---------------------------------------------------------------------------
# Frame coding
# ---------------------------------------------------------------------------
#
# A frame is coded against a frame model: (predictor (3, H, W), offset,
# delta, Laplace field of the kept blocks (3, kept, 8, 8), keep mask (nby,
# nbx) shared by the three planes).  The decoder derives the same model, and
# both sides rebuild the frame with _reconstruct.  The kept blocks are coded
# R, then G, then B.  The payload is two range-coded sub-streams: every
# block's count, then the first ``count`` coefficients of every block in
# zigzag order: the counts' prefix mask over the plane taken once to (blocks,
# 64) zigzag order.  A frame without kept blocks has an empty payload.

def _zigzag(plane: np.ndarray) -> np.ndarray:
    return plane.reshape(-1, _COEFFS).take(_ZIGZAG, axis=1)


def _coded(params: LaplaceParamField, counts: np.ndarray):
    """The mask of each block's first ``counts[i]`` scan positions, and the
    Laplace field of the coefficients under it, gathered from the (blocks,
    64) raster view at the masked positions only (the intra field is a
    broadcast view, which that reshape does not copy)."""
    mask = np.arange(_COEFFS) < counts[:, None]
    flat = np.flatnonzero(mask)   # block * 64 + scan position; shifts beat divmod
    at = (flat >> 6, _ZIGZAG[flat & 63])
    return mask, LaplaceParamField(params.mu.reshape(-1, _COEFFS)[at],
                                   params.scale.reshape(-1, _COEFFS)[at])


def _count_params(n: int) -> LaplaceParamField:
    return LaplaceParamField(np.zeros(n), np.full(n, _COUNT_SCALE))


def _code_frame(target: np.ndarray, model):
    pred, offset, delta, params, keep = model
    kept = quantize(tf.forward((tf.blockify(target) - tf.blockify(pred))[:, keep]) / delta)
    frame = Frame(_reconstruct(kept, pred, offset, delta, keep))
    scanned = _zigzag(kept)
    if not len(scanned):
        return b"", frame
    # count = 1 + zigzag index of the last nonzero coefficient, 0 if none
    counts = ((scanned != 0) * np.arange(1, _COEFFS + 1)).max(axis=1)
    mask, field = _coded(params, counts)
    return pack([
        range_encode(counts, _count_params(counts.size), half_width=COUNT_SUPPORT),
        range_encode(scanned[mask], field, half_width=CODEC_SUPPORT),
    ]), frame


def _decode_frame(payload: bytes, model) -> Frame:
    pred, offset, delta, params, keep = model
    symbols = np.zeros((3 * int(keep.sum()), _COEFFS), dtype=np.int64)   # zigzag order
    if len(symbols):
        count_raw, coeff_raw = unpack(payload, 2)
        counts = range_decode(count_raw, _count_params(len(symbols)), half_width=COUNT_SUPPORT)
        if counts.min() < 0:
            raise CorruptStreamError("negative coefficient count")
        mask, field = _coded(params, counts)
        symbols[mask] = range_decode(coeff_raw, field, half_width=CODEC_SUPPORT)
    elif payload:
        raise CorruptStreamError("payload for a frame without kept blocks")
    # rebound, so the zigzag copy is freed before the reconstruction's buffers
    symbols = symbols.take(_RASTER, axis=1).reshape(3, -1, tf.BLOCK, tf.BLOCK)
    return Frame(_reconstruct(symbols, pred, offset, delta, keep))


def code_intra_frame(x: Frame, q: int):
    """Intra: zero predictor, alpha = 1, fixed per-band Laplace scales."""
    return _code_frame(x.rgb, _intra_model(q, x.height, x.width))


def decode_intra_frame(payload: bytes, q: int, height: int, width: int) -> Frame:
    return _decode_frame(payload, _intra_model(q, height, width))


def _alpha_blocks(alpha: np.ndarray):
    blocks = tf.blockify(alpha)
    means = blocks.mean(axis=(2, 3))
    skip = blocks.max(axis=(2, 3)) <= ALPHA_FLOOR + 1e-9
    return means, skip


def _inter_model(xtilde: Frame, alpha: np.ndarray, q: int, extra: Frame | None):
    """Frame model of an inter frame: predictor alpha * xtilde, offset
    (1 - alpha) * xtilde, zero-mean Laplace scales from ``_inter_scales``.
    The enhancement layer (``extra`` given) codes at half the base step and
    with alpha = 1, so it never skips a block."""
    delta = tf.quality_step(q) / (1.0 if extra is None else 2.0)
    abar, skip = _alpha_blocks(alpha)
    keep = ~skip
    pred = alpha * xtilde.rgb
    scale = _inter_scales(pred, abar, delta, None if extra is None else extra.rgb)[:, keep]
    params = LaplaceParamField(np.zeros_like(scale), scale)
    return pred, (1.0 - alpha) * xtilde.rgb, delta, params, keep


def code_inter_frame(x: Frame, xtilde: Frame, alpha: np.ndarray, q: int,
                     extra: Frame | None = None):
    """Conditional inter coding of alpha*x against alpha*xtilde.

    Reconstruction identity: xhat = xcheck + (1 - alpha) * xtilde, where
    xcheck decodes the masked signal.  Blocks whose alpha sits at the floor
    are skipped entirely (decoder-derivable), the SKIP-like regime.
    """
    if alpha.shape != (x.height, x.width):
        raise ValueError("alpha map shape mismatch")
    return _code_frame(alpha * x.rgb, _inter_model(xtilde, alpha, q, extra))


def decode_inter_frame(payload: bytes, xtilde: Frame, alpha: np.ndarray, q: int,
                       extra: Frame | None = None) -> Frame:
    return _decode_frame(payload, _inter_model(xtilde, alpha, q, extra))


# ---------------------------------------------------------------------------
# Flow coding (lossless: integer residual against the flow predictor)
# ---------------------------------------------------------------------------

def _flow_scales(vbar: FlowField) -> np.ndarray:
    stacked = np.stack([vbar.dx, vbar.dy]).astype(np.float64)
    return palette_scale(0.3 + 0.15 * np.abs(stacked))


def code_flow(flow: FlowField, vbar: FlowField) -> bytes:
    resid = np.stack([flow.dx - vbar.dx, flow.dy - vbar.dy])
    params = LaplaceParamField(np.zeros_like(resid, dtype=np.float64), _flow_scales(vbar))
    return range_encode(resid, params, half_width=FLOW_SUPPORT)


def decode_flow(payload: bytes, vbar: FlowField) -> FlowField:
    shape = (2,) + vbar.dx.shape
    params = LaplaceParamField(np.zeros(shape), _flow_scales(vbar))
    resid = range_decode(payload, params, half_width=FLOW_SUPPORT)
    return FlowField(vbar.dx + resid[0], vbar.dy + resid[1])
