"""Bit-exact byte-oriented range coder driven by the Laplace box model.

64-bit low / 64-bit range, byte renormalization at 2^56.  The encoder writes
each byte with its carry bit and settles every carry, the flush's too, in one
big-integer addition at the end.  Symbol frequencies come from a deterministic
integer CDF (precision 2^20, ceiling-biased so quantized probabilities never
fall below the model probability), making streams byte-identical across runs
and platforms.  Both directions walk a plane's symbols as Python lists of
``_CHUNK`` symbols at a time; the last symbol is a 16-bit checksum (frequency
1 of a uniform total), so truncated or corrupted streams are rejected instead
of silently misdecoding.  The decoder stops at
the first read past the bytes a valid stream could need, and refuses a
payload whose length is not the one its encoder writes for the decoded
symbols, so bytes appended to a valid stream are refused too.

Integer CDF rows are cached, one entry per row: its decode record, built with
the row.  A row is the shape around round(mu) (one rounding rule,
``entropy_model.quantize``), keyed by the exact floats (mu - round(mu), scale
after the scale floor) plus the support half-width, so a row is reused only
where a fresh build would give the same integers.  Every codec mu is an
integer and its scales come from a quarter-octave palette, so the codec needs
at most one row per palette scale and half-width, while every plane would
otherwise rebuild its own.  Generic float parameters take the same path; each
distinct pair is built once per miss, in one vectorized batch per call.  The
cache holds at most ``_CACHE_MAX_BYTES``, counting each row's ``int64``
bytes, its list and the list's int objects, and is emptied when a batch would
overflow it: arbitrary float traffic has no small working set, and a cache
sized by it would grow with the process.  A batch larger than the bound is
used but not kept.

A call finds its records with plain sorts and no argsort: the distinct
fractions, scales and (fraction, scale) pair codes come from one ``np.sort``
each, and positions are mapped onto them with ``searchsorted``.  The encoder
gathers its counts from the call's rows laid end to end, with flat ``take``s.
The decoder reads a record's total and the fast-path bounds of round(mu) - 1
.. round(mu) + 1, bisects its list of the counts of round(mu) +/- ``_LISTED``
(all but 0.03% of the symbols of both benchmark clips at q0..q3), and
searches a symbol beyond them in the record's row.
"""

from __future__ import annotations

import sys
from bisect import bisect_right

import numpy as np

from .entropy_model import (
    SCALE_FLOOR,
    SUPPORT_HALF_WIDTH,
    Bitstream,
    LaplaceParamField,
    ShapeMismatchError,
    _round_half_away,
    box_probability,
)

_MASK64 = (1 << 64) - 1
_RENORM = 1 << 56
_CDF_PRECISION = 1 << 20
_CHECK_TOTAL = 1 << 16
_CACHE_MAX_BYTES = 4 << 20
_LISTED = 128   # a decode record lists the counts of round(mu) +/- this many symbols
_INT_BYTES = sys.getsizeof(_CDF_PRECISION)   # a count's int object; every count is < 2^30
_CHUNK = 4096   # symbols per Python list that either direction's loop walks


class SupportError(ValueError):
    """A symbol lies outside the coder's declared support window."""


class CorruptStreamError(ValueError):
    """The stream is truncated, damaged, or was coded with other parameters."""


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
    """Decode records keyed by (mu - round(mu), scale, half_width), bounded in bytes."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries: dict[tuple[float, float, int], tuple] = {}

    def lookup(self, fracs: np.ndarray, scales: np.ndarray, half_width: int) -> list:
        """The :func:`_decode_record` of each pair, a missing one built with its row."""
        keys = [(f, s, half_width) for f, s in zip(fracs.tolist(), scales.tolist())]
        records = [self._entries.get(k) for k in keys]
        miss = [i for i, record in enumerate(records) if record is None]
        if miss:
            built = [_decode_record(row, half_width)
                     for row in _build_rows(fracs[miss], scales[miss], half_width)]
            for i, record in zip(miss, built):
                records[i] = record
            self._store([keys[i] for i in miss], built)
        return records

    def _store(self, keys, built: list) -> None:
        # The rows are views of one batch array, which lives exactly as long
        # as its rows do, because the cache only ever drops all entries at once.
        nbytes = sum(map(_entry_bytes, built))
        if nbytes > self.max_bytes:
            return
        if self.nbytes + nbytes > self.max_bytes:
            self._entries.clear()
            self.nbytes = 0
        self._entries.update(zip(keys, built))
        self.nbytes += nbytes


_ROW_CACHE = _CdfRowCache(_CACHE_MAX_BYTES)


def _entry_bytes(record: tuple) -> int:
    """What a cache entry holds: its row, its list and the list's int objects."""
    *_, listed, _, row = record
    return row.nbytes + sys.getsizeof(listed) + len(listed) * _INT_BYTES


def _decode_record(row: np.ndarray, half_width: int) -> tuple:
    """What :func:`range_decode` reads of a row: its total; the cumulative
    counts bounding round(mu) - 1, round(mu) (index half_width) and round(mu)
    + 1, clamped to the row for small half-widths; those of round(mu) +/-
    ``_LISTED`` as a list for the bisect, with the index of its first; and the
    row itself, searched for the rare symbol beyond the list."""
    lo, hi = max(half_width - 1, 0), min(half_width + 2, 2 * half_width + 1)
    first = max(half_width - _LISTED, 0)
    last = min(half_width + _LISTED + 1, 2 * half_width + 1)
    total, a, b, c, e = row[[-1, lo, half_width, half_width + 1, hi]].tolist()
    return total, a, b, c, e, row[first:last + 1].tolist(), first, row


def _distinct(values: np.ndarray):
    """(sorted distinct values, each value's index among them), from one plain sort."""
    ordered = np.sort(values)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    distinct = ordered[keep]
    return distinct, np.searchsorted(distinct, values)


def _cdf_tables(params: LaplaceParamField, half_width: int):
    """(record index per position, lowest symbol round(mu) - half_width per
    position, records): one :func:`_decode_record` per distinct (mu - round(mu),
    scale) pair in the field, whose last item is the pair's integer CDF row."""
    mus = params.mu.ravel()
    centres = _round_half_away(mus)
    fr_vals, fr_idx = _distinct(mus - centres)
    sc_vals, sc_idx = _distinct(np.maximum(params.scale.ravel(), SCALE_FLOOR))
    pair, inv = _distinct(fr_idx * sc_vals.size + sc_idx)
    records = _ROW_CACHE.lookup(fr_vals[pair // sc_vals.size],
                                sc_vals[pair % sc_vals.size], half_width)
    return inv, centres - half_width, records


def _check_value(symbols: np.ndarray) -> int:
    weights = np.arange(1, symbols.size + 1, dtype=np.int64) * np.int64(2654435761)
    return int(np.sum(symbols.astype(np.int64) * weights, dtype=np.int64)) & 0xFFFF


def range_encode(
    symbols: np.ndarray,
    params: LaplaceParamField,
    half_width: int = SUPPORT_HALF_WIDTH,
) -> Bitstream:
    """Encode a plane of integer values; decoder needs the identical params."""
    symbols = np.asarray(symbols)
    if symbols.shape != params.mu.shape:
        raise ShapeMismatchError(
            f"symbol plane {symbols.shape} vs parameter field {params.mu.shape}"
        )
    if symbols.dtype.kind not in "biu":
        bad = np.flatnonzero(np.isinf(symbols) | (np.trunc(symbols) != symbols))[:1]
        if bad.size:
            raise ValueError(f"symbol {symbols.flat[bad[0]]} at flat index {bad[0]} is not an integer")
    flat = symbols.ravel().astype(np.int64, copy=False)
    bad = np.flatnonzero(np.abs(flat - params.mu.ravel()) > half_width)[:1]
    if bad.size:
        raise SupportError(f"symbol {flat[bad[0]]} at flat index {bad[0]} outside mu +/- {half_width}")

    inv, bases, records = _cdf_tables(params, half_width)
    cums = np.array([record[-1] for record in records], dtype=np.int64).ravel()
    j = flat - bases
    j += inv * (2 * half_width + 2)
    coded = np.empty((3, flat.size + 1), dtype=np.int64)   # cum_low, freq, total
    cums.take(j, out=coded[0, :-1])
    j += 1
    cums.take(j, out=coded[1, :-1])
    coded[1, :-1] -= coded[0, :-1]
    np.array([record[0] for record in records], dtype=np.int64).take(inv, out=coded[2, :-1])
    # The checksum is the last symbol: frequency 1 of a uniform 16-bit total.
    coded[:, -1] = _check_value(flat), 1, _CHECK_TOTAL
    # A byte keeps low's carry bit, so it is below 512: low and rng are below
    # 2^64 after each renormalization, and low + rng never grows until the next.
    low, rng, out = 0, _MASK64, []
    for lo in range(0, flat.size + 1, _CHUNK):
        for c, f, t in zip(*(a[lo:lo + _CHUNK].tolist() for a in coded)):
            r = rng // t
            low += c * r
            rng = r * f
            while rng < _RENORM:
                out.append(low >> 56)
                low = (low << 8) & _MASK64
                rng <<= 8
    k, v = _flush(low, rng)
    digits = np.array(out, dtype=np.int64)   # base-256 digits below 512: one sum settles them
    stream = (int.from_bytes((digits & 0xFF).astype(np.uint8).tobytes(), "big")
              + (int.from_bytes((digits >> 8).astype(np.uint8).tobytes(), "big") << 8))
    return Bitstream(((stream << 64) + v).to_bytes(len(out) + 8, "big")[:len(out) + k])


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
    inv, bases, tabs = _cdf_tables(params, half_width)
    # The checksum row is uniform, so its bisect index is the symbol itself;
    # its empty fast-path bounds send every target to the bisect.
    inv = np.append(inv, len(tabs))
    tabs = [*tabs, (_CHECK_TOTAL, 0, 0, 0, 0, range(_CHECK_TOTAL + 1), 0, None)]
    decoded = np.empty(n + 1, dtype=np.int64)   # each symbol's index in its row
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
        for lo in range(0, n + 1, _CHUNK):
            us = inv[lo:lo + _CHUNK].tolist()
            js = [half_width] * len(us)
            for i, u in enumerate(us):
                total, a, b, c, e, listed, first, row = tabs[u]
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
                elif listed[0] <= t < listed[-1]:
                    j = bisect_right(listed, t) - 1
                    c = listed[j]
                    rng = r * (listed[j + 1] - c)
                    js[i] = first + j
                elif t < total:
                    j = int(row.searchsorted(t, "right")) - 1
                    c, d = row[j : j + 2].tolist()
                    rng = r * (d - c)
                    js[i] = j
                else:
                    raise CorruptStreamError("decoded target outside the coded total")
                code -= c * r
                while rng < _RENORM:
                    code = ((code << 8) | data[pos]) & _MASK64
                    pos += 1
                    rng <<= 8
            decoded[lo:lo + _CHUNK] = js
    except IndexError:
        raise CorruptStreamError("stream exhausted: decoder read past the payload") from None
    symbols = decoded[:n] + bases
    if decoded[n] != _check_value(symbols):
        raise CorruptStreamError("checksum mismatch: stream truncated or corrupted")
    # The decoder's code is the 8-byte window at its read position minus the
    # encoder's low, so the flush length follows from the two.
    window = int.from_bytes(data[pos - 8 : pos], "big")
    if len(payload) != pos - 8 + _flush((window - code) & _MASK64, rng)[0]:
        raise CorruptStreamError("payload length differs from what its symbols need")
    return symbols.reshape(params.mu.shape)
