"""Sliding-window tiling of large mosaics and stitching of per-tile results.

Windows are square, ``patch`` pixels on a side, laid out on a ``stride``
grid.  When the mosaic extent is not an exact multiple, the final window on
each axis is shifted inward so it ends flush with the mosaic edge (windows
never extend past the mosaic, and duplicates are removed).  The default
geometry — 512-pixel patches with a 256-pixel stride, i.e. 50% overlap —
matches the mapping campaign this pipeline was built for.

Stitching folds a stream of tiles into the mosaic one at a time, merging
overlaps with a :class:`MergeRule`; cells covered by no tile become nodata.
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


def window_georef(
    window: TileWindow, height: int, georef: tuple[float, float, float]
) -> tuple[float, float, float]:
    """``(origin_x, origin_y, cellsize)`` of *window* cut from a grid *height*
    rows tall whose own georeference is *georef*."""
    origin_x, origin_y, cellsize = georef
    return (
        origin_x + window.col0 * cellsize,
        origin_y + (height - window.row0 - window.patch) * cellsize,
        cellsize,
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
    georef = window_georef(window, source.height, source.geotransform)
    if isinstance(source, Raster):
        return Raster(source.values[cut], source.nodata, *georef)
    return BinaryMask(source.values[cut], *georef)


def stitch(
    tiles: Iterable[tuple[TileWindow, Raster]],
    width: int,
    height: int,
    merge: MergeRule = MergeRule.MAX,
) -> Raster:
    """Merge per-window rasters back into a ``width`` x ``height`` mosaic.

    *tiles* may be any iterable, a one-shot generator included: it is read
    once, and each tile is checked and folded in as it arrives, so only the
    mosaic and the tile in hand are held.  All tiles must share patch size,
    cellsize, and nodata.  Overlaps combine per *merge*; for FIRST the
    earliest tile in iteration order wins.  A tile's own nodata cells
    contribute nothing under every rule.  Mosaic cells covered by no valid
    tile cell come out as nodata.
    """
    out = None
    for window, tile in tiles:
        if out is None:
            patch, nodata, cellsize = window.patch, tile.nodata, tile.cellsize
            # The mosaic origin is taken exactly from the first tile flush
            # with its edge (col0 == 0 for x, bottom row for y); until one
            # arrives, it is computed from the first tile.
            origin_x = tile.origin_x - window.col0 * cellsize
            origin_y = tile.origin_y - (height - window.row0 - patch) * cellsize
            exact_x = exact_y = False
            out = np.full((height, width), nodata, dtype=np.float64)
            if merge is MergeRule.MEAN:
                acc = np.zeros((height, width), dtype=np.float64)
                cnt = np.zeros((height, width), dtype=np.int64)
            covered = np.zeros((height, width), dtype=bool)
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

        rs, cs = window.row0, window.col0
        sl = (slice(rs, rs + patch), slice(cs, cs + patch))
        tv = tile.values
        valid = tile.valid_mask()
        if merge is MergeRule.MAX:
            take = valid & (~covered[sl] | (tv > out[sl]))
            out[sl] = np.where(take, tv, out[sl])
        elif merge is MergeRule.MEAN:
            acc[sl] += np.where(valid, tv, 0.0)
            cnt[sl] += valid
        else:  # FIRST
            take = valid & ~covered[sl]
            out[sl] = np.where(take, tv, out[sl])
        covered[sl] |= valid

    if out is None:
        raise ValueError("stitch needs at least one tile")
    if merge is MergeRule.MEAN:
        out[covered] = acc[covered] / cnt[covered]

    return Raster(out, nodata=nodata, origin_x=origin_x, origin_y=origin_y, cellsize=cellsize)
