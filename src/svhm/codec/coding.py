"""Transform coding of frames and flow fields on top of the range coder.

Conditioning enters through the probability model: Laplace scales are derived
deterministically from decoder-available data (the predictor and, for the
enhancement layer, the base frame), so no scale parameters are transmitted.
"""

from __future__ import annotations

import numpy as np

from ..entropy_model import LaplaceParamField, quantize
from ..range_coder import range_decode, range_encode
from .frames import Frame
from .modes import ALPHA_FLOOR
from .motion import FlowField
from . import transform as tf

CODEC_SUPPORT = 1024        # entropy-coder support half-width for coefficients
FLOW_SUPPORT = 64
_SCALE_MIN, _SCALE_MAX = 0.04, 256.0
_INTRA_DC_LEVEL = 128.0     # mid-gray prior for the intra DC band


def palette_scale(b: np.ndarray) -> np.ndarray:
    """Snap scales to a small geometric palette (quarter-octave steps).

    Keeps the number of distinct integer CDFs per plane small; the rule is a
    pure function of its input, so encoder and decoder agree.
    """
    b = np.clip(np.asarray(b, dtype=np.float64), _SCALE_MIN, _SCALE_MAX)
    e = np.round(np.log2(b / _SCALE_MIN) * 4.0)
    return _SCALE_MIN * np.exp2(e / 4.0)


def _pack(payloads: list[bytes]) -> bytes:
    out = bytearray()
    for p in payloads:
        out += len(p).to_bytes(4, "little")
        out += p
    return bytes(out)


def _unpack(raw: bytes, n: int) -> list[bytes]:
    out = []
    pos = 0
    for _ in range(n):
        if pos + 4 > len(raw):
            raise ValueError("packed sub-stream truncated")
        ln = int.from_bytes(raw[pos : pos + 4], "little")
        pos += 4
        if pos + ln > len(raw):
            raise ValueError("packed sub-stream truncated")
        out.append(raw[pos : pos + ln])
        pos += ln
    return out


# ---------------------------------------------------------------------------
# Coefficient-plane coding
# ---------------------------------------------------------------------------

def _intra_params(delta: float, nby: int, nbx: int):
    u = np.arange(tf.BLOCK)[:, None]
    v = np.arange(tf.BLOCK)[None, :]
    mu = np.zeros((tf.BLOCK, tf.BLOCK))
    mu[0, 0] = _INTRA_DC_LEVEL * tf.BLOCK / delta
    scale = palette_scale(400.0 / (delta * (1.0 + u + v) ** 1.5))
    mu = np.broadcast_to(mu, (nby, nbx, tf.BLOCK, tf.BLOCK))
    scale = np.broadcast_to(scale, (nby, nbx, tf.BLOCK, tf.BLOCK))
    return mu, scale


def _inter_scales(pred: np.ndarray, alpha_block: np.ndarray, delta: float,
                  extra: np.ndarray | None = None) -> np.ndarray:
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
                               alpha_block.shape + (tf.BLOCK, tf.BLOCK))
    gap = np.abs(tf.forward(tf.blockify(extra)) - tf.forward(tf.blockify(pred))) / delta
    return palette_scale(0.2 + 0.7 * gap)


def _encode_coeff_plane(target: np.ndarray, predictor: np.ndarray, delta: float,
                        mu: np.ndarray, scale: np.ndarray,
                        keep_mask: np.ndarray | None = None):
    """Returns (payload bytes, reconstructed plane)."""
    h, w = target.shape
    diff = tf.forward(tf.blockify(target) - tf.blockify(predictor))
    symbols = quantize(diff / delta, max_symbol=CODEC_SUPPORT)
    if keep_mask is None:
        keep_mask = np.ones(symbols.shape[:2], dtype=bool)
    sel_syms = symbols[keep_mask]
    params = LaplaceParamField(mu[keep_mask], scale[keep_mask])
    payload = range_encode(sel_syms, params, half_width=CODEC_SUPPORT).to_bytes()

    recon_coeffs = np.zeros_like(diff)
    recon_coeffs[keep_mask] = sel_syms.astype(np.float64) * delta
    recon = predictor + tf.unblockify(tf.inverse(recon_coeffs), h, w)
    return payload, recon


def _decode_coeff_plane(payload: bytes, predictor: np.ndarray, delta: float,
                        mu: np.ndarray, scale: np.ndarray,
                        keep_mask: np.ndarray | None = None) -> np.ndarray:
    from ..entropy_model import Bitstream

    h, w = predictor.shape
    nby, nbx = mu.shape[:2]
    if keep_mask is None:
        keep_mask = np.ones((nby, nbx), dtype=bool)
    params = LaplaceParamField(mu[keep_mask], scale[keep_mask])
    sel_syms = range_decode(Bitstream.from_bytes(payload), params,
                            half_width=CODEC_SUPPORT)
    recon_coeffs = np.zeros((nby, nbx, tf.BLOCK, tf.BLOCK))
    recon_coeffs[keep_mask] = sel_syms.astype(np.float64) * delta
    return predictor + tf.unblockify(tf.inverse(recon_coeffs), h, w)


# ---------------------------------------------------------------------------
# Frame coding
# ---------------------------------------------------------------------------

def code_intra_frame(x: Frame, q: int):
    """Intra: zero predictor, alpha = 1, fixed per-band Laplace scales."""
    delta = tf.quality_step(q)
    payloads = []
    recons = []
    for plane in x.planes():
        nby = -(-x.height // tf.BLOCK)
        nbx = -(-x.width // tf.BLOCK)
        mu, scale = _intra_params(delta, nby, nbx)
        payload, recon = _encode_coeff_plane(plane, np.zeros_like(plane), delta, mu, scale)
        payloads.append(payload)
        recons.append(np.clip(recon, 0.0, 255.0))
    return _pack(payloads), Frame(*recons, index=x.index)


def decode_intra_frame(payload: bytes, q: int, height: int, width: int, index: int) -> Frame:
    delta = tf.quality_step(q)
    nby = -(-height // tf.BLOCK)
    nbx = -(-width // tf.BLOCK)
    mu, scale = _intra_params(delta, nby, nbx)
    recons = []
    for sub in _unpack(payload, 3):
        plane = _decode_coeff_plane(sub, np.zeros((height, width)), delta, mu, scale)
        recons.append(np.clip(plane, 0.0, 255.0))
    return Frame(*recons, index=index)


def _alpha_blocks(alpha: np.ndarray):
    blocks = tf.blockify(alpha)
    means = blocks.mean(axis=(2, 3))
    skip = blocks.max(axis=(2, 3)) <= ALPHA_FLOOR + 1e-9
    return means, skip


def code_inter_frame(x: Frame, xtilde: Frame, alpha: np.ndarray, q: int,
                     delta: float | None = None,
                     extra: Frame | None = None,
                     allow_skip: bool = True):
    """Conditional inter coding of alpha*x against alpha*xtilde.

    Reconstruction identity: xhat = xcheck + (1 - alpha) * xtilde, where
    xcheck decodes the masked signal.  Blocks whose alpha sits at the floor
    are skipped entirely (decoder-derivable), the SKIP-like regime.
    """
    if alpha.shape != (x.height, x.width):
        raise ValueError("alpha map shape mismatch")
    delta = tf.quality_step(q) if delta is None else delta
    abar, skip = _alpha_blocks(alpha)
    keep = ~skip if allow_skip else np.ones_like(skip)
    payloads = []
    recons = []
    for i, (plane, pred_plane) in enumerate(zip(x.planes(), xtilde.planes())):
        target = alpha * plane
        pred = alpha * pred_plane
        scale = _inter_scales(pred, abar, delta,
                              extra.planes()[i] if extra is not None else None)
        mu = np.zeros_like(scale)
        payload, xcheck = _encode_coeff_plane(target, pred, delta, mu, scale, keep)
        payloads.append(payload)
        recons.append(np.clip(xcheck + (1.0 - alpha) * pred_plane, 0.0, 255.0))
    return _pack(payloads), Frame(*recons, index=x.index)


def decode_inter_frame(payload: bytes, xtilde: Frame, alpha: np.ndarray, q: int,
                       delta: float | None = None,
                       extra: Frame | None = None,
                       allow_skip: bool = True, index: int = 0) -> Frame:
    delta = tf.quality_step(q) if delta is None else delta
    abar, skip = _alpha_blocks(alpha)
    keep = ~skip if allow_skip else np.ones_like(skip)
    recons = []
    for i, (sub, pred_plane) in enumerate(zip(_unpack(payload, 3), xtilde.planes())):
        pred = alpha * pred_plane
        scale = _inter_scales(pred, abar, delta,
                              extra.planes()[i] if extra is not None else None)
        mu = np.zeros_like(scale)
        xcheck = _decode_coeff_plane(sub, pred, delta, mu, scale, keep)
        recons.append(np.clip(xcheck + (1.0 - alpha) * pred_plane, 0.0, 255.0))
    return Frame(*recons, index=index)


# ---------------------------------------------------------------------------
# Flow coding (lossless: integer residual against the flow predictor)
# ---------------------------------------------------------------------------

def _flow_scales(vbar: FlowField) -> np.ndarray:
    stacked = np.stack([vbar.dx, vbar.dy]).astype(np.float64)
    return palette_scale(0.3 + 0.15 * np.abs(stacked))


def code_flow(flow: FlowField, vbar: FlowField) -> bytes:
    resid = np.stack([flow.dx - vbar.dx, flow.dy - vbar.dy])
    params = LaplaceParamField(np.zeros_like(resid, dtype=np.float64), _flow_scales(vbar))
    return range_encode(resid, params, half_width=FLOW_SUPPORT).to_bytes()


def decode_flow(payload: bytes, vbar: FlowField, block: int, search: int) -> FlowField:
    from ..entropy_model import Bitstream

    shape = (2,) + vbar.dx.shape
    params = LaplaceParamField(np.zeros(shape), _flow_scales(vbar))
    resid = range_decode(Bitstream.from_bytes(payload), params, half_width=FLOW_SUPPORT)
    return FlowField(vbar.dx + resid[0], vbar.dy + resid[1], block, search)
