"""Y4M (C420, 8-bit) and raw planar YUV420 readers/writers.

Both formats carry the same frames: planar 8-bit Y, then Cb and Cr at half
width and half height.  One parser, :func:`_read_frames`, reads them; a Y4M
frame follows a ``FRAME`` line, a raw one follows the previous frame.

One geometry rule, :func:`_check_geometry`, holds for both readers and the
writer, and it is checked before any buffer is sized: the container's frame
size rule (each side 1..65535, at most ``container.MAX_PIXELS`` pixels, the
cap ``svhm encode`` applies anyway) plus even sides, which 4:2:0 needs.
"""

from __future__ import annotations

import numpy as np

from .container import ContainerError, check_frame_size
from .frames import Frame, downsample2, rgb_to_ycbcr, upsample2, ycbcr_to_rgb

_C420_TAGS = {"420", "420jpeg", "420mpeg2", "420paldv"}


class Y4MError(ValueError):
    pass


def _check_geometry(width: int, height: int) -> None:
    try:
        check_frame_size(width, height)
    except ContainerError as exc:
        raise Y4MError(str(exc)) from None
    if width % 2 or height % 2:
        raise Y4MError(f"{width}x{height} frames: 4:2:0 needs even dimensions")


def _read_frames(f, path, width: int, height: int, marked: bool) -> list[Frame]:
    """Planar 4:2:0 frames until end of file, each after a ``FRAME`` line
    if ``marked``; a partial last frame is refused."""
    ysize = width * height
    fsize = ysize + ysize // 2
    frames = []
    while True:
        if marked:
            line = f.readline()
            if not line:
                return frames
            if not line.startswith(b"FRAME"):
                raise Y4MError(f"{path}: malformed frame marker")
        buf = f.read(fsize)
        if not buf and not marked:
            return frames
        if len(buf) != fsize:
            raise Y4MError(f"{path}: truncated frame {len(frames)}")
        planes = np.frombuffer(buf, np.uint8).astype(np.float64)
        cb, cr = (upsample2(p) for p in planes[ysize:].reshape(2, height // 2, width // 2))
        frames.append(ycbcr_to_rgb(planes[:ysize].reshape(height, width), cb, cr))


def read_y4m(path) -> list[Frame]:
    """Frames of a C420 8-bit Y4M file (the frame-rate tag is not kept)."""
    with open(path, "rb") as f:
        header = f.readline()
        if not header.endswith(b"\n"):
            raise Y4MError(f"{path}: truncated Y4M header")
        fields = header.decode("ascii", "replace").split()
        if not fields or fields[0] != "YUV4MPEG2":
            raise Y4MError(f"{path}: not a YUV4MPEG2 file")
        tags = {tok[0]: tok[1:] for tok in fields[1:]}
        if tags.get("C", "420") not in _C420_TAGS:
            raise Y4MError(f"{path}: unsupported colorspace C{tags['C']}")
        try:
            width, height = int(tags["W"]), int(tags["H"])
        except (KeyError, ValueError):
            raise Y4MError(f"{path}: missing or malformed W/H in Y4M header") from None
        _check_geometry(width, height)
        return _read_frames(f, path, width, height, marked=True)


def read_yuv420(path, width: int, height: int) -> list[Frame]:
    """Raw planar YUV420 with explicit geometry."""
    _check_geometry(width, height)
    with open(path, "rb") as f:
        return _read_frames(f, path, width, height, marked=False)


def write_y4m(path, frames: list[Frame]) -> None:
    if not frames:
        raise Y4MError("cannot write an empty Y4M file")
    w, h = frames[0].width, frames[0].height
    _check_geometry(w, h)
    with open(path, "wb") as f:
        f.write(f"YUV4MPEG2 W{w} H{h} F25:1 Ip A1:1 C420jpeg\n".encode("ascii"))
        for fr in frames:
            y, cb, cr = rgb_to_ycbcr(fr)
            f.write(b"FRAME\n")
            for p in (y, downsample2(cb), downsample2(cr)):
                f.write(np.clip(np.round(p), 0, 255).astype(np.uint8).tobytes())
