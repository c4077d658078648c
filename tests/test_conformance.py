"""Conformance stream: a checked-in bitstream that pins the wire format.

``tests/data/conformance_square_q1.svhm`` is an 8-frame 64x64 translating
square coded at q1 with GOP 4 and both layers, so it holds intra DC rows,
inter base frames, enhancement frames and flow at both support half-widths.
It is a decoder-only test vector: decoding it must give the frames whose hash
is stored beside it.  A drift in the decoder-side scales or in the integer
CDFs shows up here on any machine that runs the suite.

The encoder is pinned on its own, by the SHA-256 of its stream for the same
clip and config and of that stream's decode (the JSON's ``encoder`` entry).
The two streams differ because the encoder's motion search has chosen other
vectors since the test vector was written (static blocks take the zero
vector), and a decoder reads those like any other.
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


def _decoded_sha256(raw: bytes, layers: str) -> str:
    frames, report = decode_sequence(ScalableBitstream.deserialize(raw), layers)
    assert report.error is None and len(frames) == 8
    return frames_sha256(frames)


def test_conformance_stream():
    meta = json.loads((DATA / "conformance_square_q1.json").read_text())
    raw = (DATA / "conformance_square_q1.svhm").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == meta["stream_sha256"]
    assert _decoded_sha256(raw, meta["decoded_layers"]) == meta["decoded_frames_sha256"]


def test_conformance_encoder():
    # The encoder's own block, search and fusion byte (16, 8, 32) are not
    # options; the stream hash pins them in the header.
    meta = json.loads((DATA / "conformance_square_q1.json").read_text())
    config = {k: meta["config"][k] for k in ("quality", "gop", "enhancement")}
    stream, _ = encode_sequence(translating_square(8, 64, seed=0), CodecConfig(**config))
    raw = stream.serialize()
    assert len(raw) == meta["encoder"]["stream_bytes"]
    assert hashlib.sha256(raw).hexdigest() == meta["encoder"]["stream_sha256"]
    assert _decoded_sha256(raw, meta["decoded_layers"]) == meta["encoder"]["decoded_frames_sha256"]


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
    ("conformance", 1, "41d86f462e5883638ed5d3107146dfa4c6605460a13cd5903f6f8149297d2383",
        "0593c98df9927734366d82ecb11b88448e249aac9c8008ea774a33099d21596d"),
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


# translating_square(10, 144, seed=1), base layer only, GOP 32: the benchmark's
# square_base clip, a static camera whose noisy background takes the zero
# vector unsearched.  Per q: stream SHA-256 and base-decode SHA-256.
SQUARE_BASE_PINS = [
    pytest.param(0, "60312912ee95b1bbf2d6c37cd5b4b11cabe452c11efd511aedb9d9ca755a4092",
                 "0d5be75a8e578645799a9a956ca038a208660f18defbce3c0e7a1fd9738d477a", id="q0"),
    pytest.param(1, "c3dc8b436f64435eefdd2b15d4c8b0b5bd530196089b7655d3b2176977fc4beb",
                 "339461b5d42ec64a1850929a24cadce7acb59abe77e49992138894a010880507", id="q1"),
    pytest.param(2, "719bccf12805827679a5a06f2a767c58af3d414b14e99782679e07e4eb24e0ff",
                 "8de1e084b52d5b2bb826eded9a63013271585d3aac2c2363b3afbdbbcf1acb86", id="q2"),
    pytest.param(3, "785201f3fc29a5fe75986af4025e52d011449f6a8c3242b0bf8bae7c7afaf37f",
                 "2cd2fa402e30ca8a5a8b1d00d63335f68c4544b0ce020ff493189f5841cb7a1e", id="q3"),
]


@pytest.mark.parametrize("q,stream_sha256,frames_sha", SQUARE_BASE_PINS)
def test_square_base_clip_pinned(q, stream_sha256, frames_sha):
    clip = translating_square(10, 144, seed=1)
    stream, _ = encode_sequence(clip, CodecConfig(quality=q, gop=32, enhancement=False))
    raw = stream.serialize()
    assert hashlib.sha256(raw).hexdigest() == stream_sha256
    frames, report = decode_sequence(ScalableBitstream.deserialize(raw), "base")
    assert report.error is None and len(frames) == len(clip)
    assert frames_sha256(frames) == frames_sha
