"""Sliding-window tiling of large mosaics and stitching of per-tile results.

Windows are square, ``patch`` pixels on a side, laid out on a ``stride``
grid.  When the mosaic extent is not an exact multiple, the final window on
each axis is shifted inward so it ends flush with the mosaic edge (windows
never extend past the mosaic, and duplicates are removed).  The default
geometry — 512-pixel patches with a 256-pixel stride, i.e. 50% overlap —
matches the mapping campaign this pipeline was built for.

:func:`fold_tiles` folds a stream of tiles into one grid a tile at a time,
merging overlaps with a :class:`MergeRule`.  :func:`stitch` is its checked
wrapper for rasters: cells covered by no tile become nodata.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .image import RGBImage
from .raster import BinaryMask, Raster


@dataclass(frozen=True)
class TileSpec:
    """Tiling geometry: square patch size and stride between origins."""

    patch: int = 512
    stride: int = 256

    def __post_init__(self) -> None:
        if self.patch < 1:
            raise ValueError(f"patch must be >= 1, got {self.patch}")
        if not 0 < self.stride <= self.patch:
            raise ValueError(
                f"stride must be in 1..patch ({self.patch}), got {self.stride}"
            )


@dataclass(frozen=True, order=True)
class TileWindow:
    """One window: top-left corner (row0, col0) and square size ``patch``."""

    row0: int
    col0: int
    patch: int

    def __post_init__(self) -> None:
        if self.row0 < 0 or self.col0 < 0:
            raise ValueError(f"window origin must be non-negative, got {self}")
        if self.patch < 1:
            raise ValueError(f"window patch must be >= 1, got {self.patch}")


class MergeRule(Enum):
    """How overlapping tile cells combine when stitching."""

    MAX = "max"
    MEAN = "mean"
    FIRST = "first"

    @classmethod
    def parse(cls, text: str) -> "MergeRule":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown merge rule {text!r} (expected one of: "
                f"{', '.join(r.value for r in cls)})"
            ) from None


def patch_id(window: TileWindow) -> str:
    """Stable identifier used in per-patch file names, e.g. ``r00000_c00256``."""
    return f"r{window.row0:05d}_c{window.col0:05d}"


def _axis_origins(extent: int, patch: int, stride: int) -> list[int]:
    last = extent - patch
    origins = list(range(0, last + 1, stride))
    if origins[-1] != last:
        origins.append(last)
    return origins


def plan_tiles(width: int, height: int, spec: TileSpec = TileSpec()) -> list[TileWindow]:
    """All windows covering a ``width`` x ``height`` mosaic, row-major order.

    Raises
    ------
    ValueError
        If the patch size exceeds either mosaic dimension.
    """
    if spec.patch > width or spec.patch > height:
        raise ValueError(
            f"patch {spec.patch} exceeds mosaic extent {width}x{height}"
        )
    rows = _axis_origins(height, spec.patch, spec.stride)
    cols = _axis_origins(width, spec.patch, spec.stride)
    return [TileWindow(r, c, spec.patch) for r in rows for c in cols]


def _check_window(window: TileWindow, width: int, height: int) -> None:
    if window.row0 + window.patch > height or window.col0 + window.patch > width:
        raise ValueError(
            f"window {window} does not fit a {width}x{height} mosaic"
        )


def extract_tile(source, window: TileWindow):
    """Cut one window out of a Raster, BinaryMask, or RGBImage.

    The returned object has the same type as *source*; rasters and masks
    get the georeference of the cut (origins shifted accordingly).
    """
    if not isinstance(source, (Raster, BinaryMask, RGBImage)):
        raise TypeError(f"cannot extract a tile from {type(source).__name__}")
    _check_window(window, source.width, source.height)
    rs, cs = window.row0, window.col0
    cut = (slice(rs, rs + window.patch), slice(cs, cs + window.patch))
    if isinstance(source, RGBImage):
        return RGBImage(source.pixels[cut])
    origin_x = source.origin_x + cs * source.cellsize
    origin_y = source.origin_y + (source.height - rs - window.patch) * source.cellsize
    if isinstance(source, Raster):
        return Raster(source.values[cut], source.nodata, origin_x, origin_y, source.cellsize)
    return BinaryMask(source.values[cut], origin_x, origin_y, source.cellsize)


def fold_tiles(
    tiles: Iterable[tuple[TileWindow, np.ndarray, np.ndarray | None]],
    height: int,
    width: int,
    merge: MergeRule = MergeRule.MAX,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold ``(window, values, valid)`` tiles into one ``height`` x ``width``
    grid; return the grid and its coverage, a bool grid.

    *tiles* is read once, one tile at a time.  *valid* is a bool array of
    the tile's cells that count, or None when every cell does; the others
    contribute nothing under every rule.  For FIRST the earliest valid tile
    in iteration order wins; MAX keeps the earlier value on a tie.  The grid
    has the tiles' dtype, or float64 under MEAN, and holds 0 where no valid
    cell fell.  The windows are not checked: :func:`stitch` checks them.
    """
    grid = None
    for window, values, valid in tiles:
        if grid is None:
            grid = np.zeros((height, width), np.float64 if merge is MergeRule.MEAN else values.dtype)
            covered = np.zeros((height, width), dtype=bool)
            if merge is MergeRule.MEAN:
                cnt = np.zeros((height, width), dtype=np.int64)
        sl = (slice(window.row0, window.row0 + window.patch),
              slice(window.col0, window.col0 + window.patch))
        valid = np.True_ if valid is None else valid
        if merge is MergeRule.MEAN:
            grid[sl] += np.where(valid, values, 0)
            cnt[sl] += valid
        else:
            take = ~covered[sl]
            if merge is MergeRule.MAX:
                take |= values > grid[sl]
            np.copyto(grid[sl], values, where=take & valid)
        covered[sl] |= valid
    if grid is None:
        raise ValueError("fold_tiles needs at least one tile")
    if merge is MergeRule.MEAN:
        grid[covered] /= cnt[covered]
    return grid, covered


def stitch(
    tiles: Iterable[tuple[TileWindow, Raster]],
    width: int,
    height: int,
    merge: MergeRule = MergeRule.MAX,
) -> Raster:
    """Merge per-window rasters back into a ``width`` x ``height`` mosaic.

    *tiles* may be any iterable, a one-shot generator included: it is read
    once, and each tile is checked and folded in as it arrives, by
    :func:`fold_tiles`, so only the mosaic and the tile in hand are held.
    All tiles must share patch size, cellsize, and nodata.  Overlaps combine
    per *merge*; for FIRST the earliest tile in iteration order wins.  A
    tile's own nodata cells contribute nothing under every rule.  Mosaic
    cells covered by no valid tile cell come out as nodata.

    Raises ValueError, naming the first such cell, if a covered cell would
    come out equal to nodata and so read as uncovered.  Only a MEAN can hit
    the sentinel: under MAX and FIRST every covered cell holds a valid value.
    """
    first = None  # (patch, nodata, cellsize) of the first tile
    origin_x = origin_y = None
    exact_x = exact_y = False

    def checked():
        nonlocal first, origin_x, origin_y, exact_x, exact_y
        for window, tile in tiles:
            if first is None:
                first = window.patch, tile.nodata, tile.cellsize
                # The mosaic origin is taken exactly from the first tile
                # flush with its edge (col0 == 0 for x, bottom row for y);
                # until one arrives, it is computed from the first tile.
                origin_x = tile.origin_x - window.col0 * tile.cellsize
                origin_y = tile.origin_y - (height - window.row0 - window.patch) * tile.cellsize
            patch, nodata, cellsize = first
            _check_window(window, width, height)
            if window.patch != patch:
                raise ValueError(f"mixed patch sizes: {window.patch} vs {patch}")
            if tile.values.shape != (patch, patch):
                raise ValueError(
                    f"tile shape {tile.values.shape} does not match window patch {patch}"
                )
            if tile.nodata != nodata or tile.cellsize != cellsize:
                raise ValueError("tiles disagree on nodata or cellsize")
            if window.col0 == 0 and not exact_x:
                origin_x, exact_x = tile.origin_x, True
            if window.row0 + patch == height and not exact_y:
                origin_y, exact_y = tile.origin_y, True
            yield window, tile.values, tile.valid_mask()
        if first is None:
            raise ValueError("stitch needs at least one tile")

    out, covered = fold_tiles(checked(), height, width, merge)
    _, nodata, cellsize = first
    if (hit := np.argwhere(covered & (out == nodata))).size:
        row, col = hit[0]
        raise ValueError(f"covered cell (row {row}, col {col}) merges to nodata {nodata}")
    out[~covered] = nodata
    return Raster(out, nodata=nodata, origin_x=origin_x, origin_y=origin_y, cellsize=cellsize)
