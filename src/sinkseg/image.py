"""Binary PPM (P6) and PGM (P5) images.

Only the binary variants are supported, with the usual layout: magic,
optional ``#`` comment lines, width, height, maxval, a single whitespace
byte, then raw samples, and nothing after them.  Images written by this
module carry no comments, so writing is deterministic byte-for-byte.

An RGB image is a plain (height, width, 3) ``numpy.uint8`` array;
:func:`check_image` is the one check, and it converts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError


class ImageFormatError(InputError):
    """A PPM/PGM byte stream violates the expected layout."""


def check_image(pixels, name: str = "image") -> np.ndarray:
    """*pixels* itself if it is an image, an (h, w, 3) ``numpy.uint8`` array
    of at least one pixel; anything else, an array of another dtype
    included, is a ValueError naming *name*.  Nothing is converted."""
    if (isinstance(pixels, np.ndarray) and pixels.dtype == np.uint8 and pixels.ndim == 3
            and pixels.shape[2] == 3 and pixels.size):
        return pixels
    got = f"{pixels.dtype} {pixels.shape}" if isinstance(pixels, np.ndarray) else type(pixels).__name__
    raise ValueError(f"{name} must be an (h, w, 3) uint8 array of at least one pixel, got {got}")


@dataclass(frozen=True)
class RGBImage:
    """A synthetic scene's imagery: ``pixels``, an image that
    :func:`check_image` takes, copied read-only.  Every library call takes
    the ``pixels``, a plain image."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        arr = check_image(self.pixels, "pixels").copy()
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)


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
    got = max(len(data) - pos, 0)
    if got != expected:
        kind = "truncated" if got < expected else "trailing bytes after"
        raise ImageFormatError(f"{kind} pixel data: expected {expected} bytes, got {got}")
    arr = np.frombuffer(data, dtype=np.uint8, offset=pos).reshape(height, width, channels)
    arr.setflags(write=False)
    return arr, maxval


def image_from_ppm_bytes(data: bytes) -> np.ndarray:
    """Decode a binary PPM (P6) byte string to a read-only image, a view of *data*."""
    arr, maxval = _parse_pnm(data, b"P6", 3)
    if maxval != 255:
        raise ImageFormatError(f"PPM maxval must be 255, got {maxval}")
    return arr


def ppm_bytes(image: np.ndarray) -> bytes:
    """Encode an image that :func:`check_image` takes as binary PPM (P6)."""
    height, width, _ = check_image(image).shape
    return f"P6\n{width} {height}\n255\n".encode("ascii") + image.tobytes()


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


def read_ppm(path: str | Path) -> np.ndarray:
    """Read the binary PPM at *path*; a format error names *path*."""
    try:
        return image_from_ppm_bytes(Path(path).read_bytes())
    except ImageFormatError as exc:
        raise ImageFormatError(f"{path}: {exc}") from exc


def write_ppm(image: np.ndarray, path: str | Path) -> None:
    Path(path).write_bytes(ppm_bytes(image))
