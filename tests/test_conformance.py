"""Conformance stream: a checked-in bitstream that pins the wire format.

``tests/data/conformance_square_q1.svhm`` is an 8-frame 64x64 translating
square coded at q1 with GOP 4 and both layers, so it holds intra DC rows,
inter base frames, enhancement frames and flow at both support half-widths.
Re-encoding must reproduce it byte for byte, and decoding it must give the
frames whose hash is stored beside it.  A drift in the decoder-side scales or
in the integer CDFs shows up here on any machine that runs the suite.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from svhm.codec import CodecConfig, ScalableBitstream, decode_sequence, encode_sequence
from svhm.codec.synthetic import textured_scene, translating_square

DATA = Path(__file__).parent / "data"


def frames_sha256(frames) -> str:
    h = hashlib.sha256()
    for f in frames:
        for plane in f.rgb:
            h.update(np.clip(np.round(plane), 0, 255).astype(np.uint8).tobytes())
    return h.hexdigest()


def test_conformance_stream():
    meta = json.loads((DATA / "conformance_square_q1.json").read_text())
    raw = (DATA / "conformance_square_q1.svhm").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == meta["stream_sha256"]

    # The encoder's own block, search and fusion byte (16, 8, 128) are not
    # options; the byte comparison pins them in the header.
    config = {k: meta["config"][k] for k in ("quality", "gop", "enhancement")}
    stream, _ = encode_sequence(translating_square(8, 64, seed=0), CodecConfig(**config))
    assert stream.serialize() == raw

    frames, report = decode_sequence(ScalableBitstream.deserialize(raw),
                                     meta["decoded_layers"])
    assert report.error is None and len(frames) == 8
    assert frames_sha256(frames) == meta["decoded_frames_sha256"]


# textured_scene(5, 50, 66, seed=3), GOP 2, both layers: neither side is a
# multiple of 8, so every plane goes through the edge-replicating pad.  Per q:
# stream SHA-256 and decoded-frame SHA-256 (base+enh, the hash rule above).
PADDED_PINS = [
    (0, "87e2fb55f2d725e076b6be8e5f9a34bab2b7ba166c598732a1ec67867d9aa555",
        "e6629389cb087ce416a2ea82fdf0259aca6173e1a320858a6b05f18fc4f72915"),
    (1, "fa0c1855588c5f7f11997075551f855e476c3cf886f442e5709f6553ac5344d6",
        "e178345f99eef1bf4a502bbf3547d3c2475ec36552dfbaf267761d6f20b8465b"),
    (2, "abd4e8de8bf8692490f1926d6d47764025b145776643bdb468e1399a4a5fc93e",
        "3dde18cab88399cb806ae9c03c93779bcd6eaca067814ebfb521278be557cd61"),
    (3, "7f97d438a5af8b84a2b6007527bcac18f4404a690cbe5e5f106f81eaad212866",
        "fb96a4b5c98a5f2dc195e951042b439df52dc4afa25699bd7e885a26666f1501"),
]


# textured_scene(3, 144, 176, seed=1), GOP 2, both layers: the benchmark's
# textured frame size, where the motion search skips candidates by their
# sub-block bounds.  Recorded from the full search before it skipped any.
BENCH_SIZE_PINS = [
    (0, "6678e663685f4df3eb326ad796d005ea71666a53ecedb7442886e60e06a66a63",
        "cfe9a9fc216d0170b1b4778c85fef8d1b8cee084ad38e049396f9ebc8bc2b183"),
    (3, "cf4cf616583a6df3f370a260741aeb060fbb50b569c5420945c37f386dbbd01e",
        "ccdfcf471347e1496f82a3c4a86ff608da4765a63ef50d8a58c91f8fcfc1643a"),
]


def _check_pinned(clip, q, stream_sha256, frames_sha):
    stream, _ = encode_sequence(clip, CodecConfig(quality=q, gop=2, enhancement=True))
    raw = stream.serialize()
    assert hashlib.sha256(raw).hexdigest() == stream_sha256
    frames, report = decode_sequence(ScalableBitstream.deserialize(raw), "base+enh")
    assert report.error is None and len(frames) == len(clip)
    assert frames_sha256(frames) == frames_sha


@pytest.mark.parametrize("q,stream_sha256,frames_sha", PADDED_PINS)
def test_padded_clip_pinned(q, stream_sha256, frames_sha):
    _check_pinned(textured_scene(5, 50, 66, seed=3), q, stream_sha256, frames_sha)


@pytest.mark.parametrize("q,stream_sha256,frames_sha", BENCH_SIZE_PINS)
def test_benchmark_size_clip_pinned(q, stream_sha256, frames_sha):
    _check_pinned(textured_scene(3, 144, 176, seed=1), q, stream_sha256, frames_sha)
