"""Binary PPM (P6) and PGM (P5) images.

Only the binary variants are supported, with the usual layout: magic,
optional ``#`` comment lines, width, height, maxval, a single whitespace
byte, then raw samples.  Images written by this module carry no comments,
so writing is deterministic byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError


class ImageFormatError(InputError):
    """A PPM/PGM byte stream violates the expected layout."""


@dataclass(frozen=True)
class RGBImage:
    """An 8-bit RGB image, ``pixels`` shaped (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.pixels, dtype=np.uint8, copy=True)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"expected (h, w, 3) pixels, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def _parse_pnm(data: bytes, magic: bytes, channels: int):
    if not data.startswith(magic):
        raise ImageFormatError(f"bad magic: expected {magic!r}, got {data[:2]!r}")
    pos = len(magic)
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if pos == start:
            raise ImageFormatError("truncated header")
        try:
            fields.append(int(data[start:pos]))
        except ValueError as exc:
            raise ImageFormatError(f"non-integer header field {data[start:pos]!r}") from exc
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad dimensions {width}x{height}")
    if not 0 < maxval < 256:
        raise ImageFormatError(f"unsupported maxval {maxval} (need 1..255)")
    pos += 1  # single whitespace byte after maxval
    expected = width * height * channels
    raw = data[pos : pos + expected]
    if len(raw) != expected:
        raise ImageFormatError(
            f"truncated pixel data: expected {expected} bytes, got {len(raw)}"
        )
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, channels)
    return arr, maxval


def image_from_ppm_bytes(data: bytes) -> RGBImage:
    """Decode a binary PPM (P6) byte string."""
    arr, maxval = _parse_pnm(data, b"P6", 3)
    if maxval != 255:
        raise ImageFormatError(f"PPM maxval must be 255, got {maxval}")
    return RGBImage(arr)


def ppm_bytes(image: RGBImage) -> bytes:
    """Encode an :class:`RGBImage` as binary PPM (P6)."""
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels.tobytes()


def gray_from_pgm_bytes(data: bytes) -> tuple[np.ndarray, int]:
    """Decode a binary PGM (P5) byte string.

    Returns
    -------
    (values, maxval)
        ``values`` is a uint8 array shaped (height, width); ``maxval`` is
        returned so callers can enforce their own contract on it.
    """
    arr, maxval = _parse_pnm(data, b"P5", 1)
    return arr[:, :, 0], maxval


def pgm_bytes(values: np.ndarray, maxval: int = 255) -> bytes:
    """Encode a uint8 (height, width) array as binary PGM (P5)."""
    arr = np.ascontiguousarray(values, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D gray image, got shape {arr.shape}")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii")
    return header + arr.tobytes()


def _read_pnm(path: str | Path, decode):
    """*decode* the bytes of the file at *path*; a format error names *path*."""
    try:
        return decode(Path(path).read_bytes())
    except ImageFormatError as exc:
        raise ImageFormatError(f"{path}: {exc}") from exc


def read_ppm(path: str | Path) -> RGBImage:
    return _read_pnm(path, image_from_ppm_bytes)


def write_ppm(image: RGBImage, path: str | Path) -> None:
    Path(path).write_bytes(ppm_bytes(image))


def read_pgm(path: str | Path) -> tuple[np.ndarray, int]:
    return _read_pnm(path, gray_from_pgm_bytes)


def write_pgm(values: np.ndarray, path: str | Path) -> None:
    Path(path).write_bytes(pgm_bytes(values))
