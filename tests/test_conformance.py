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

    # The encoder's own block, search and fusion byte (16, 8, 32) are not
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
    pytest.param(0, "a4932715a48c31f0b113ee7815dde90d13d2bb15898976ff64211150f35e6813",
                 "2a8fa9177174e60dd42cfd9ec0336a324517dfa7adf2b83bd4da1c35b5c513dd", id="q0"),
    pytest.param(1, "f62135238ae9340db141004f084eea2570825c689b3c29eb403e7fa4eb07dd94",
                 "db5a0af4abd59fb1106b4a40a2db612384f1d6a77858860984edc4d047368d32", id="q1"),
    pytest.param(2, "d4bfcac86610ded7343d8d5f054f8aff8a87d7eb55b840e30f534533abb8054f",
                 "b117389256fe7905413709120f69c26e0a963fc0716e5f463ddbc25414543610", id="q2"),
    pytest.param(3, "27545e7d8dc79f8ecc26b4e1e0edc61408e3876a6ea27d96f4a01360fa580bed",
                 "8bdb7155f8457cc6abcc6804baea86213e6574c9d00e0739b74d3a52f53d03ed", id="q3"),
]


# textured_scene(3, 144, 176, seed=1), GOP 2, both layers: the benchmark's
# textured frame size, where the motion search skips candidates by their
# sub-block bounds.  First recorded from the full search before it skipped
# any; re-recorded for container version 3, whose base sub-streams are those
# of version 2 (BASE_LAYER_PINS).
BENCH_SIZE_PINS = [
    pytest.param(0, "c98f64a9dcd820ad85271fed33a3361d0f4ee5bdc281fa0b034ca4954070a2c4",
                 "8e1957f42a0a905d732888eb4fec1953bd79e017d26138c1fbec71eb959fd0e8", id="q0"),
    pytest.param(3, "a7da94297067046d3094cad25c44ad707642fd9b128deeb5c23ac4d2e8c517f7",
                 "5c6aa9c3d96180eab44cb9b5fe43f0994935d8016f5b4494951aac9cc5e21017", id="q3"),
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


# The base layer alone, pinned apart from the whole streams above: SHA-256 of
# every record's base_motion and base_signal concatenated in order, and of the
# base-only decode of the stream with its enhancement stripped.  A change to
# the enhancement layer (its context, step or scales) leaves these unchanged.
BASE_LAYER_PINS = [
    ("conformance", 1, "7a9d0ae9688c388dfb7aa2caa642cb3ba2f5e37b41608401a937b9cd42b3c15c",
        "d897a796605941e021af67764f1576af4b87de3eb8e6a3e9cc06604176f1063a"),
    ("textured", 0, "b2e00bb583bd256cea2d22a204ae6db297e968f8903cf5c1a829e7962712806d",
        "9f7e103b3e011759158d7e663b922d1f84895ec4ec785aeb7d6ae1c5e282de5c"),
    ("textured", 3, "dae72633a71b87f5184ea405f53b352770633f9a60c607c673542877efddcc8a",
        "8ca9a573fd5b19c5cfc6f90f28e2abd3c6f9da6e4c6519c86e690598a7f5f7b6"),
]


@pytest.mark.parametrize("clip,q,base_sha256,frames_sha", BASE_LAYER_PINS)
def test_base_layer_pinned(clip, q, base_sha256, frames_sha):
    if clip == "conformance":   # the conformance stream's clip and GOP
        frames, gop = translating_square(8, 64, seed=0), 4
    else:                       # BENCH_SIZE_PINS' clip and GOP
        frames, gop = textured_scene(3, 144, 176, seed=1), 2
    stream, _ = encode_sequence(frames, CodecConfig(quality=q, gop=gop, enhancement=True))
    base = b"".join(rec.base_motion + rec.base_signal for rec in stream.frames)
    assert hashlib.sha256(base).hexdigest() == base_sha256
    decoded, report = decode_sequence(stream.strip_enhancement(), "base")
    assert report.error is None and len(decoded) == len(frames)
    assert frames_sha256(decoded) == frames_sha
