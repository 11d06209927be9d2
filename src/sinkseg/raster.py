"""Single-band rasters, binary masks, and ESRI ASCII grid I/O.

Grids are stored as 2-D ``float64`` arrays with row 0 at the *top* (the
northernmost row), matching the on-disk order of the ASCII format.  The
georeference follows the ESRI convention: ``origin_x``/``origin_y`` give the
map coordinates of the lower-left corner of the lower-left cell and
``cellsize`` the square cell edge.

Values are written with :func:`repr`, i.e. the shortest decimal string that
round-trips the exact float64, so write -> read is bit-exact.  Nodata cells
are written as the same token that appears on the ``NODATA_value`` header
line.

The ``NODATA_value`` header line is optional, as in the ESRI format (GDAL
leaves it out for a band without nodata); a grid without it reads with
:data:`DEFAULT_NODATA`.  The writers always write it.

Reading takes one compiled pass (:func:`numpy.loadtxt`) over the data rows.
Any grid that pass does not accept as exactly ``nrows`` x ``ncols`` floats is
parsed again line by line, so a malformed file is reported with the number of
the offending line.  Both passes split rows at line breaks (LF, CRLF or CR)
and cells at whitespace, and both agree cell for cell, bit for bit: a token
spelled like the nodata header value parses to the same float.  A mask laid
out exactly as :func:`write_ascii_mask` writes it is read as one byte buffer
instead; any other mask goes through the grid parser.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GridFormatError

DEFAULT_NODATA = -9999.0

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def _freeze(values: np.ndarray, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D grid, got shape {out.shape}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"grid must be at least 1x1, got shape {out.shape}")
    out.setflags(write=False)
    return out


def check_mask(values, name: str = "mask") -> np.ndarray:
    """*values* itself if it is a mask, a 2-D ``numpy.bool_`` array of at
    least one cell; anything else, a 0/1 array of another dtype included,
    is a ValueError naming *name*."""
    if isinstance(values, np.ndarray) and values.dtype == np.bool_ and values.ndim == 2 and values.size:
        return values
    got = f"{values.dtype} {values.shape}" if isinstance(values, np.ndarray) else type(values).__name__
    raise ValueError(f"{name} must be a 2-D bool array of at least one cell, got {got}")


def _check_georeference(origin_x: float, origin_y: float, cellsize: float) -> None:
    """Refuse a georeference that :func:`read_ascii_grid` would refuse to read."""
    for key, value in (("origin_x", origin_x), ("origin_y", origin_y), ("cellsize", cellsize)):
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
    if not cellsize > 0:
        raise ValueError(f"cellsize must be positive, got {cellsize}")


@dataclass(frozen=True)
class Raster:
    """A single-band grid plus georeference and nodata sentinel.

    Parameters
    ----------
    values : numpy.ndarray
        2-D array, row 0 is the top (northernmost) row.  Copied as float64
        and marked read-only, so the caller's array stays its own.
    nodata : float
        Sentinel marking cells with no data.
    origin_x, origin_y : float
        Map coordinates of the lower-left corner (finite).
    cellsize : float
        Cell edge length in map units (finite and > 0).
    """

    values: np.ndarray
    nodata: float = DEFAULT_NODATA
    origin_x: float = 0.0
    origin_y: float = 0.0
    cellsize: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _freeze(self.values, np.float64))
        if not np.isfinite(self.nodata):
            raise ValueError("nodata sentinel must be finite")
        _check_georeference(self.origin_x, self.origin_y, self.cellsize)
        if not np.isfinite(self.values).all():  # nodata is finite, so this covers valid cells
            raise ValueError("raster contains non-finite values")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def geotransform(self) -> tuple[float, float, float]:
        """(origin_x, origin_y, cellsize) — convenient for equality checks."""
        return (self.origin_x, self.origin_y, self.cellsize)

    def valid_mask(self) -> np.ndarray:
        """Boolean array, True where the cell holds a real value."""
        return self.values != self.nodata

    def with_values(self, values: np.ndarray) -> "Raster":
        """Same georeference and nodata, different cell values."""
        return Raster(values, self.nodata, self.origin_x, self.origin_y, self.cellsize)


@dataclass(frozen=True)
class BinaryMask:
    """A synthetic scene's ground truth: a 0/1 grid, copied as bool and
    read-only.  Every library call takes its ``values``, a plain mask."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if arr.dtype != np.bool_ and not np.isin(arr, (0, 1)).all():
            raise ValueError("mask values must be 0 or 1")
        object.__setattr__(self, "values", _freeze(arr, np.bool_))


def _parse_header(lines: list[str], path: Path) -> dict:
    """The header at the top of *lines*; its ``lines`` entry counts the lines
    it takes.  The ``NODATA_value`` line is optional, with the default
    :data:`DEFAULT_NODATA`, so a sixth line that does not start with that
    key is the first data row."""
    optional = len(lines) < 6 or lines[5].lower().split()[:1] != ["nodata_value"]
    keys = _HEADER_KEYS[:5] if optional else _HEADER_KEYS
    header = {"nodata_value": repr(DEFAULT_NODATA)}
    for i, key in enumerate(keys):
        if i >= len(lines):
            raise GridFormatError(f"{path}: line {i + 1}: missing header line '{key}'")
        parts = lines[i].split()
        if len(parts) != 2 or parts[0].lower() != key:
            raise GridFormatError(
                f"{path}: line {i + 1}: expected '{key} <value>', got {lines[i]!r}"
            )
        header[key] = parts[1]
    try:
        ncols = int(header["ncols"])
        nrows = int(header["nrows"])
    except ValueError as exc:
        raise GridFormatError(f"{path}: non-integer ncols/nrows in header") from exc
    if ncols < 1 or nrows < 1:
        raise GridFormatError(f"{path}: ncols/nrows must be >= 1, got {ncols}x{nrows}")
    try:
        numbers = [float(header[key]) for key in _HEADER_KEYS[2:]]
    except ValueError as exc:
        raise GridFormatError(f"{path}: non-numeric value in header") from exc
    for key, value in zip(_HEADER_KEYS[2:], numbers):
        if not math.isfinite(value):
            raise GridFormatError(f"{path}: header {key} must be finite, got {value!r}")
    if not numbers[2] > 0:
        raise GridFormatError(f"{path}: cellsize must be positive")
    return {"ncols": ncols, "nrows": nrows, "geotransform": tuple(numbers[:3]),
            "nodata": numbers[3], "lines": len(keys)}


def _parse_grid(path: Path) -> tuple[dict, np.ndarray]:
    with open(path) as fh:
        try:
            head = [fh.readline().rstrip("\n") for _ in _HEADER_KEYS]
            header = _parse_header(head, path)
            data = _load_rows(itertools.chain(head[header["lines"]:], fh))
        except (GridFormatError, ValueError):
            data = None
    if data is not None and data.shape == (header["nrows"], header["ncols"]):
        return header, data
    return _parse_grid_lines(path)


def _load_rows(fh) -> np.ndarray | None:
    """The data rows left in *fh*, an iterator of lines, as one float64
    array, or None if there are none.

    Raises ValueError on anything numpy cannot read as a rectangle of floats.
    """
    for first in fh:
        if first.strip():
            break
    else:
        return None  # loadtxt would warn about empty input
    # comments=None: a '#' cell is an error here, as in the line parser.
    return np.loadtxt(
        itertools.chain([first], fh), dtype=np.float64, comments=None, ndmin=2
    )


def _parse_grid_lines(path: Path) -> tuple[dict, np.ndarray]:
    """The line-by-line parser: slow, but names the line of every error."""
    try:
        with open(path) as fh:
            lines = [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError as exc:
        raise GridFormatError(f"{path}: not a text grid ({exc})") from exc
    header = _parse_header(lines, Path(path))
    ncols, nrows = header["ncols"], header["nrows"]

    # The layout is checked before the grid is allocated, so a header that
    # claims more cells than the file holds cannot ask for that much memory.
    data_lines = []
    for lineno in range(header["lines"], len(lines)):
        count = len(lines[lineno].split())
        if not count:
            continue
        if len(data_lines) >= nrows:
            raise GridFormatError(
                f"{path}: line {lineno + 1}: extra data row (expected {nrows} rows)"
            )
        if count != ncols:
            raise GridFormatError(
                f"{path}: line {lineno + 1}: cell count mismatch "
                f"(expected {ncols} values, got {count})"
            )
        data_lines.append(lineno)
    if len(data_lines) != nrows:
        raise GridFormatError(f"{path}: expected {nrows} data rows, found {len(data_lines)}")

    data = np.empty((nrows, ncols), dtype=np.float64)
    for row, lineno in enumerate(data_lines):
        for j, tok in enumerate(lines[lineno].split()):
            try:
                data[row, j] = float(tok)
            except ValueError as exc:
                raise GridFormatError(
                    f"{path}: line {lineno + 1}: non-numeric token {tok!r}"
                ) from exc
    return header, data


def read_ascii_grid(path: str | Path) -> Raster:
    """Read an ESRI ASCII grid file into a :class:`Raster`.

    Raises
    ------
    GridFormatError
        On any layout violation, a file that is not text, or a non-finite
        header value or cell; the message names the offending line or cell.
    FileNotFoundError
        If *path* does not exist.
    """
    header, data = _parse_grid(Path(path))
    non_finite = np.argwhere(~np.isfinite(data))
    if len(non_finite):
        row, col = non_finite[0]
        raise GridFormatError(
            f"{path}: data row {row + 1}, column {col + 1}: "
            f"non-finite value {float(data[row, col])!r}"
        )
    return Raster(data, header["nodata"], *header["geotransform"])


def _format_rows(values: np.ndarray, nodata: float) -> list[str]:
    nodata_token = repr(nodata)
    rows = []
    for r in range(values.shape[0]):
        row = values[r].tolist()
        rows.append(" ".join(nodata_token if v == nodata else repr(v) for v in row))
    return rows


def _header_text(width: int, height: int, origin_x: float, origin_y: float,
                 cellsize: float, nodata: float) -> str:
    return (
        f"ncols {width}\n"
        f"nrows {height}\n"
        f"xllcorner {repr(origin_x)}\n"
        f"yllcorner {repr(origin_y)}\n"
        f"cellsize {repr(cellsize)}\n"
        f"NODATA_value {repr(nodata)}\n"
    )


def write_ascii_grid(raster: Raster, path: str | Path) -> None:
    """Write *raster* as an ESRI ASCII grid (bit-exact round trip)."""
    rows = _format_rows(raster.values, raster.nodata)
    header = _header_text(raster.width, raster.height, *raster.geotransform, raster.nodata)
    Path(path).write_text(header + "\n".join(rows) + "\n")


def _read_mask_bytes(path: Path) -> np.ndarray | None:
    """The mask at *path* if it is laid out exactly as :func:`write_ascii_mask`
    writes it, else None: the header it would write, then ``d d … d\\n`` rows
    of ``0`` and ``1``, every separator and digit checked."""
    data = path.read_bytes()
    end = -1
    for _ in _HEADER_KEYS:
        end = data.find(b"\n", end + 1)
        if end < 0:
            return None
    head = data[: end + 1]
    try:
        header = _parse_header(head.decode("ascii").split("\n"), path)
    except (UnicodeDecodeError, GridFormatError):
        return None
    ncols, nrows = header["ncols"], header["nrows"]
    if head != _header_text(ncols, nrows, *header["geotransform"], header["nodata"]).encode():
        return None
    if len(data) - len(head) != nrows * 2 * ncols:
        return None
    cells = np.frombuffer(data, np.uint8, offset=len(head)).reshape(nrows, 2 * ncols)
    digits = cells[:, 0::2]
    ones = digits == ord("1")
    if not (
        (cells[:, 1:-1:2] == ord(" ")).all()
        and (cells[:, -1] == ord("\n")).all()
        and (ones | (digits == ord("0"))).all()
    ):
        return None
    return ones


def read_ascii_mask(path: str | Path) -> np.ndarray:
    """Read the cells of a 0/1 ASCII grid as a mask, a 2-D bool array.

    The whole header is checked, but the mask keeps only the cells: read
    the file with :func:`read_ascii_grid` for its georeference.  Nodata
    cells are not allowed in masks; any value other than 0 or 1 (including
    the nodata sentinel) is a format error.  The layout
    :func:`write_ascii_mask` writes is read as one byte buffer; any other
    layout goes through the grid parser, which names the line of an error.
    """
    mask = _read_mask_bytes(Path(path))
    if mask is not None:
        return mask
    _, data = _parse_grid(Path(path))
    if not np.isin(data, (0.0, 1.0)).all():
        bad = data[~np.isin(data, (0.0, 1.0))][0]
        raise GridFormatError(f"{path}: mask contains non-binary value {float(bad)}")
    return data == 1.0


def write_ascii_mask(
    mask: np.ndarray, path: str | Path, geotransform: tuple[float, float, float]
) -> None:
    """Write *mask*, a 2-D bool array, as an ASCII grid of 0/1 integers
    placed at *geotransform*, ``(origin_x, origin_y, cellsize)`` as
    :attr:`Raster.geotransform` spells it.  Anything :func:`check_mask`
    refuses, or a georeference :class:`Raster` refuses, is a ValueError
    raised before *path* is opened."""
    check_mask(mask)
    _check_georeference(*geotransform)
    height, width = mask.shape
    # Each row is "d d ... d\n": a digit, then a space or the line break.
    cells = np.full((height, 2 * width), ord(" "), dtype=np.uint8)
    cells[:, 0::2] = mask
    cells[:, 0::2] += ord("0")
    cells[:, -1] = ord("\n")
    header = _header_text(width, height, *geotransform, DEFAULT_NODATA)
    Path(path).write_bytes(header.encode() + cells.tobytes())


def invert_depth(raster: Raster) -> Raster:
    """Reflect values so deep cells become low: ``max(valid) - value``.

    Nodata cells stay nodata.  Every reflected value is ``>= +0.0``, so
    nodata cells take the input's sentinel when it is negative, and
    :data:`DEFAULT_NODATA` otherwise: a sentinel of 0.0 would mark the
    deepest cell nodata.  Raises ValueError if every cell is nodata.
    """
    valid = raster.valid_mask()
    if not valid.any():
        raise ValueError("invert_depth: all cells are nodata")
    top = raster.values[valid].max()
    nodata = raster.nodata if raster.nodata < 0 else DEFAULT_NODATA
    out = np.full(raster.values.shape, nodata, dtype=np.float64)
    out[valid] = top - raster.values[valid]
    return Raster(out, nodata, *raster.geotransform)

