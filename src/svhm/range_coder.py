"""Bit-exact byte-oriented range coder driven by the Laplace box model.

64-bit low / 64-bit range, byte renormalization at 2^56, carry propagation
into the output buffer.  Symbol frequencies come from a deterministic integer
CDF (precision 2^20, ceiling-biased so quantized probabilities never fall
below the model probability), making streams byte-identical across runs and
platforms.  Each direction is one loop over a plane's symbols; the last is a
16-bit checksum (frequency 1 of a uniform total), so truncated or corrupted
streams are rejected instead of silently misdecoding.  The decoder stops at
the first read past the bytes a valid stream could need, and refuses a
payload whose length is not the one its encoder writes for the decoded
symbols, so bytes appended to a valid stream are refused too.

Integer CDF rows are cached.  A row is the shape around round(mu) (one
rounding rule, ``entropy_model.quantize``), keyed by the exact floats
(mu - round(mu), scale after the scale floor) plus the support half-width,
so a row is reused only where a fresh build would give the same integers.
Every codec mu is an integer and its scales come from a quarter-octave
palette, so the codec needs at most one row per palette scale and half-width,
while every plane would otherwise rebuild its own.  Generic float parameters
take the same path; each distinct pair is built once per miss, in one
vectorized batch per call.  The cache holds at most ``_CACHE_MAX_BYTES`` of
``int64`` rows and is emptied when a batch would overflow it: arbitrary float
traffic has no small working set, and a cache sized by it would grow with
the process.  A batch larger than the bound is used but not kept.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .entropy_model import (
    SCALE_FLOOR,
    SUPPORT_HALF_WIDTH,
    Bitstream,
    LaplaceParamField,
    ShapeMismatchError,
    box_probability,
    quantize,
)

_MASK64 = (1 << 64) - 1
_RENORM = 1 << 56
_CDF_PRECISION = 1 << 20
_CHECK_TOTAL = 1 << 16
_CACHE_MAX_BYTES = 4 << 20


class SupportError(ValueError):
    """A symbol lies outside the coder's declared support window."""


class CorruptStreamError(ValueError):
    """The stream is truncated, damaged, or was coded with other parameters."""


def _carry(out: bytearray) -> None:
    i = len(out) - 1
    while i >= 0 and out[i] == 0xFF:
        out[i] = 0
        i -= 1
    if i >= 0:
        out[i] += 1


def _flush(low: int, rng: int) -> tuple[int, int]:
    """(k, v): the fewest top bytes ``k`` of some value ``v`` in [low, low +
    rng) that end a stream.  The decoder zero-pads, so trailing zero bytes
    are free.  Both directions use it: the encoder to write the flush, the
    decoder to check the payload's length."""
    for k in range(8):
        step = 1 << (64 - 8 * k)
        v = ((low + step - 1) // step) * step
        if v < low + rng:
            return k, v
    return 8, low


def _build_rows(fracs: np.ndarray, scales: np.ndarray, half_width: int) -> np.ndarray:
    """Integer CDF rows for parallel 1-D arrays of (mu - round(mu), scale).

    Row i holds the cumulative counts of the symbols round(mu) - half_width ..
    round(mu) + half_width, length 2*half_width + 2 with a leading 0, so
    ``row[-1]`` is the row's total.
    """
    width = 2 * half_width + 1
    n = fracs.size
    cums = np.zeros((n, width + 1), dtype=np.int64)
    chunk = max(1, (1 << 22) // width)
    ks = np.arange(-half_width, half_width + 1, dtype=np.float64)[None, :]
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        probs = box_probability(ks, fracs[lo:hi, None], scales[lo:hi, None])
        counts = np.ceil(probs * _CDF_PRECISION).astype(np.int64)
        np.cumsum(counts, axis=1, out=cums[lo:hi, 1:])
    return cums


class _CdfRowCache:
    """Integer CDF rows keyed by (mu - round(mu), scale, half_width), bounded in bytes."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._rows: dict[tuple[float, float, int], np.ndarray] = {}

    def lookup(self, fracs: np.ndarray, scales: np.ndarray, half_width: int) -> np.ndarray:
        """Rows as :func:`_build_rows` gives them, one per pair, even for no pairs."""
        keys = [(f, s, half_width) for f, s in zip(fracs.tolist(), scales.tolist())]
        rows = [self._rows.get(k) for k in keys]
        miss = [i for i, row in enumerate(rows) if row is None]
        if miss:
            built = _build_rows(fracs[miss], scales[miss], half_width)
            for i, row in zip(miss, built):
                rows[i] = row
            self._store([keys[i] for i in miss], built)
        return np.array(rows, dtype=np.int64).reshape(-1, 2 * half_width + 2)

    def _store(self, keys, built: np.ndarray) -> None:
        # The rows are views of one batch array, which lives exactly as long
        # as its rows do, because the cache only ever drops all rows at once.
        if built.nbytes > self.max_bytes:
            return
        if self.nbytes + built.nbytes > self.max_bytes:
            self._rows.clear()
            self.nbytes = 0
        self._rows.update(zip(keys, built))
        self.nbytes += built.nbytes


_ROW_CACHE = _CdfRowCache(_CACHE_MAX_BYTES)


def _cdf_tables(params: LaplaceParamField, half_width: int):
    """Integer CDFs for every distinct (mu - round(mu), scale) pair in the field.

    Returns (row_index_per_position, lowest_symbol_per_position, cums), the
    lowest symbol being round(mu) - half_width and ``cums`` as from
    :func:`_build_rows`, one row per distinct pair.
    """
    mus = params.mu.ravel()
    centres = quantize(mus)
    scales = np.maximum(params.scale.ravel(), SCALE_FLOOR)
    fr_vals, fr_idx = np.unique(mus - centres, return_inverse=True)
    sc_vals, sc_idx = np.unique(scales, return_inverse=True)
    pair, inv = np.unique(fr_idx * sc_vals.size + sc_idx, return_inverse=True)
    cums = _ROW_CACHE.lookup(
        fr_vals[pair // sc_vals.size], sc_vals[pair % sc_vals.size], half_width)
    return inv.ravel(), centres - half_width, cums


def _check_value(symbols: np.ndarray) -> int:
    weights = np.arange(1, symbols.size + 1, dtype=np.int64) * np.int64(2654435761)
    return int(np.sum(symbols.astype(np.int64) * weights, dtype=np.int64)) & 0xFFFF


def range_encode(
    symbols: np.ndarray,
    params: LaplaceParamField,
    half_width: int = SUPPORT_HALF_WIDTH,
) -> Bitstream:
    """Encode an integer symbol plane; decoder needs the identical params."""
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.shape != params.mu.shape:
        raise ShapeMismatchError(
            f"symbol plane {symbols.shape} vs parameter field {params.mu.shape}"
        )
    flat = symbols.ravel()
    outside = np.abs(flat - params.mu.ravel()) > half_width
    if outside.any():
        bad = int(np.argmax(outside))
        raise SupportError(
            f"symbol {int(flat[bad])} at flat index {bad} outside mu +/- {half_width}"
        )

    inv, bases, cums = _cdf_tables(params, half_width)
    j = flat - bases
    lo = cums[inv, j]
    cum_low, freq, total = (lo.tolist(), (cums[inv, j + 1] - lo).tolist(),
                            cums[inv, -1].tolist())
    # The checksum is the last symbol: frequency 1 of a uniform 16-bit total.
    cum_low.append(_check_value(flat))
    freq.append(1)
    total.append(_CHECK_TOTAL)
    low, rng, out = 0, _MASK64, bytearray()
    for c, f, t in zip(cum_low, freq, total):
        r = rng // t
        low += c * r
        if low > _MASK64:
            _carry(out)
            low &= _MASK64
        rng = r * f
        while rng < _RENORM:
            out.append(low >> 56)
            low = (low << 8) & _MASK64
            rng <<= 8
    k, v = _flush(low, rng)
    if v > _MASK64:
        _carry(out)
        v &= _MASK64
    out += v.to_bytes(8, "big")[:k]
    return Bitstream(out)


def range_decode(
    payload: bytes,
    params: LaplaceParamField,
    half_width: int = SUPPORT_HALF_WIDTH,
) -> np.ndarray:
    """Inverse of :func:`range_encode`; exact or raises CorruptStreamError.

    ``payload`` is any bytes, such as a sub-stream read from a container.  It
    is refused unless it is exactly as long as the encoder writes it for the
    decoded symbols: bytes appended to a valid stream need not change one
    decoded symbol, so the checksum alone cannot see them.
    """
    n = params.mu.size
    inv, bases, cums = _cdf_tables(params, half_width)
    lo, hi = max(half_width - 1, 0), min(half_width + 2, 2 * half_width + 1)
    # Per row: its total, the cumulative counts bounding round(mu) - 1,
    # round(mu) (index half_width) and round(mu) + 1, which hold most
    # positions, clamped to the row for small half-widths, and the whole row
    # as a list for the bisect.
    tabs = list(zip(cums[:, -1].tolist(), cums[:, lo].tolist(),
                    cums[:, half_width].tolist(), cums[:, half_width + 1].tolist(),
                    cums[:, hi].tolist(), cums.tolist()))
    # The checksum row is uniform, so its bisect index is the symbol itself;
    # its empty fast-path bounds send every target to the bisect.
    inv = [*inv.tolist(), len(tabs)]
    tabs.append((_CHECK_TOTAL, 0, 0, 0, 0, range(_CHECK_TOTAL + 1)))
    js = [half_width] * n + [0]
    below, above = half_width - 1, half_width + 1
    # The decoder reads 8 bytes ahead of the encoder: at renormalization
    # byte k it reads payload byte k + 8.  A valid stream has at most
    # len(payload) renormalization bytes (the payload is those bytes plus the
    # flush, whose trailing zeros are left out), so its reads end inside the 8
    # zero bytes appended here, and ``data[pos]`` raises IndexError only for a
    # damaged stream or a header that declares more symbols than were coded.
    data = bytes(payload) + bytes(8)
    code, rng, pos = int.from_bytes(data[:8], "big"), _MASK64, 8
    try:
        for i, u in enumerate(inv):
            total, a, b, c, e, row = tabs[u]
            r = rng // total
            t = code // r
            if b <= t < c:
                rng = r * (c - b)
                c = b
            elif a <= t < b:
                rng = r * (b - a)
                c = a
                js[i] = below
            elif c <= t < e:
                rng = r * (e - c)
                js[i] = above
            else:
                if t >= total:
                    raise CorruptStreamError("decoded target outside the coded total")
                j = bisect_right(row, t) - 1
                c = row[j]
                rng = r * (row[j + 1] - c)
                js[i] = j
            code -= c * r
            while rng < _RENORM:
                code = ((code << 8) | data[pos]) & _MASK64
                pos += 1
                rng <<= 8
    except IndexError:
        raise CorruptStreamError("stream exhausted: decoder read past the payload") from None
    symbols = np.array(js[:n], dtype=np.int64) + bases
    if js[n] != _check_value(symbols):
        raise CorruptStreamError("checksum mismatch: stream truncated or corrupted")
    # The decoder's code is the 8-byte window at its read position minus the
    # encoder's low, so the flush length follows from the two.
    window = int.from_bytes(data[pos - 8 : pos], "big")
    if len(payload) != pos - 8 + _flush((window - code) & _MASK64, rng)[0]:
        raise CorruptStreamError("payload length differs from what its symbols need")
    return symbols.reshape(params.mu.shape)
