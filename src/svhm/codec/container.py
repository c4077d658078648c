"""Scalable bitstream container with per-frame, per-layer sub-streams.

Layout (all integers little-endian):

    magic  b"SVHM"
    u8     version (3; other versions are refused)
    u16    width, u16 height
    u32    frame count
    u8     gop, u8 quality, then three codec constants, refused if different:
           u8 motion block 16, u8 search 8, u8 fusion weight 32 (the base
           frame's share of the enhancement context, in 255ths)
    per frame, four u32-length-prefixed sub-streams:
        base_motion, base_signal, enh_motion, enh_context

Enhancement sub-streams may be empty (zero length); dropping them never
touches base-layer decodability.

Each signal sub-stream (base_signal, enh_context) is the coefficient payload
of one frame (``coding``): two u32-length-prefixed range-coder outputs, the
per-block counts of all kept blocks of R, G and B, then their coefficients
up to each block's count.  A frame without kept blocks (every block SKIP) has
an empty signal sub-stream.  Motion sub-streams are range-coder output as is.

Both levels are framed by one pair, :func:`pack` and :func:`unpack`: a list
of u32-length-prefixed payloads that must fill its input exactly, so a
truncated list and one with trailing bytes are refused by the same rule.  A
range-coder output must in turn be exactly as long as its encoder writes it
for the symbols it decodes to (``range_coder.range_decode``).

A header may declare at most ``MAX_PIXELS`` (4096 x 2160, which covers UHD
3840 x 2160) pixels per frame.  The decoder allocates frame buffers from the
declared size, so the parser refuses a larger frame before any allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .modes import FUSION_WEIGHT_Q
from .motion import MOTION_BLOCK, MOTION_SEARCH
from .transform import QUALITY_STEPS

_MAGIC = b"SVHM"
_VERSION = 3
MAX_PIXELS = 4096 * 2160
# Header bytes 15..17: every version-3 stream carries these values.
_PINNED = (("block", MOTION_BLOCK), ("search", MOTION_SEARCH), ("fusion weight", FUSION_WEIGHT_Q))


class ContainerError(ValueError):
    pass


def pack(payloads) -> bytes:
    """Concatenate payloads, each prefixed by its u32 little-endian length."""
    out = bytearray()
    for p in payloads:
        out += len(p).to_bytes(4, "little")
        out += p
    return bytes(out)


def unpack(raw: bytes, n: int) -> list[bytes]:
    """Inverse of :func:`pack` for ``n`` payloads that fill ``raw`` exactly."""
    out, pos = [], 0
    for i in range(n):
        ln = int.from_bytes(raw[pos : pos + 4], "little")
        if pos + 4 + ln > len(raw):
            raise ContainerError(f"truncated in packed sub-stream {i} of {n}")
        out.append(raw[pos + 4 : pos + 4 + ln])
        pos += 4 + ln
    if pos != len(raw):
        raise ContainerError("trailing bytes after the last packed sub-stream")
    return out


def check_header_fields(quality: int, gop: int) -> None:
    """Range check for the quality index and GOP a container header carries.

    Shared by the encoder's configuration and the parser, so a stream either
    decodes under the parameters it declares or is refused before frame 0.
    """
    if not 0 <= quality < len(QUALITY_STEPS):
        raise ContainerError(
            f"quality index {quality} outside 0..{len(QUALITY_STEPS) - 1}")
    if not 1 <= gop <= 255:
        raise ContainerError("gop must be in 1..255")


def check_frame_size(width: int, height: int) -> None:
    """Frame geometry a container header may carry: u16 sides, at most
    MAX_PIXELS pixels.  Shared by the encoder and the parser."""
    if not (1 <= width <= 0xFFFF and 1 <= height <= 0xFFFF):
        raise ContainerError(f"{width}x{height} frames: each side must be in 1..65535")
    if width * height > MAX_PIXELS:
        raise ContainerError(
            f"{width}x{height} frames exceed the {MAX_PIXELS}-pixel cap")


@dataclass
class FrameRecord:
    base_motion: bytes = b""
    base_signal: bytes = b""
    enh_motion: bytes = b""
    enh_context: bytes = b""

    def substreams(self) -> tuple[bytes, bytes, bytes, bytes]:
        return self.base_motion, self.base_signal, self.enh_motion, self.enh_context


@dataclass
class ScalableBitstream:
    width: int
    height: int
    gop: int
    quality: int
    frames: list[FrameRecord] = field(default_factory=list)

    def serialize(self) -> bytes:
        return b"".join([
            _MAGIC, bytes([_VERSION]), self.width.to_bytes(2, "little"),
            self.height.to_bytes(2, "little"), len(self.frames).to_bytes(4, "little"),
            bytes([self.gop, self.quality] + [v for _, v in _PINNED]),
            pack([sub for rec in self.frames for sub in rec.substreams()])])

    @classmethod
    def deserialize(cls, raw: bytes) -> "ScalableBitstream":
        if len(raw) < 18 or raw[:4] != _MAGIC:
            raise ContainerError("not a scalable bitstream (bad magic)")
        if raw[4] != _VERSION:
            raise ContainerError(f"unsupported container version {raw[4]}")
        width = int.from_bytes(raw[5:7], "little")
        height = int.from_bytes(raw[7:9], "little")
        count = int.from_bytes(raw[9:13], "little")
        gop, quality = raw[13:15]
        check_frame_size(width, height)
        check_header_fields(quality, gop)
        for (name, want), got in zip(_PINNED, raw[15:18]):
            if got != want:
                raise ContainerError(f"{name} byte {got}: a version-3 stream carries {want}")
        subs = unpack(raw[18:], 4 * count)
        return cls(width, height, gop, quality,
                   [FrameRecord(*subs[i : i + 4]) for i in range(0, len(subs), 4)])

    def strip_enhancement(self) -> "ScalableBitstream":
        """Base-only copy: the scalability guarantee in container form."""
        return ScalableBitstream(self.width, self.height, self.gop, self.quality,
                                 [FrameRecord(r.base_motion, r.base_signal) for r in self.frames])
