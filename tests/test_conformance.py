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

from svhm.codec import CodecConfig, ScalableBitstream, decode_sequence, encode_sequence
from svhm.codec.synthetic import translating_square

DATA = Path(__file__).parent / "data"


def frames_sha256(frames) -> str:
    h = hashlib.sha256()
    for f in frames:
        for plane in f.planes():
            h.update(np.clip(np.round(plane), 0, 255).astype(np.uint8).tobytes())
    return h.hexdigest()


def test_conformance_stream():
    meta = json.loads((DATA / "conformance_square_q1.json").read_text())
    raw = (DATA / "conformance_square_q1.svhm").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == meta["stream_sha256"]

    stream, _ = encode_sequence(translating_square(8, 64, seed=0),
                                CodecConfig(**meta["config"]))
    assert stream.serialize() == raw

    frames, report = decode_sequence(ScalableBitstream.deserialize(raw),
                                     meta["decoded_layers"])
    assert report.error is None and len(frames) == 8
    assert frames_sha256(frames) == meta["decoded_frames_sha256"]
