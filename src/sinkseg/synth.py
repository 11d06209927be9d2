"""Synthetic terrains with known sinkholes, plus a brute-force fill oracle.

The generator builds a gently sloping base plane, optionally adds smooth
value noise, and subtracts radially symmetric cosine-bowl pits:
``depth * (1 + cos(pi * r / R)) / 2`` for ``r <= R``.  The ground-truth
footprint of a pit is exactly the set of cells with ``r < R`` (where the
bowl profile is strictly positive).  Pits never overlap and their centers
land on integer pixels, so the deepest cell of a pit on a flat base carries
exactly the sampled depth.

All randomness comes from a self-contained 64-bit linear congruential
generator (Knuth's MMIX constants), so scenes are bit-identical across
platforms and library versions for a fixed seed.

:func:`brute_force_fill` is the naive iterative-relaxation depression
filler — O(n^2)-ish and only meant for small grids — kept deliberately
independent from the production filler so the two can check each other.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .image import RGBImage, write_ppm
from .labeling import PromptBox
from .raster import BinaryMask, Raster, write_ascii_grid, write_ascii_mask

NOISE_LATTICE_PX = 32
DEFAULT_SLOPE = 2e-4
_BASE_ELEVATION = 100.0


class PlacementError(InputError):
    """Non-overlapping pit placement failed within the attempt budget."""


class Lcg:
    """64-bit linear congruential generator (MMIX multiplier/increment)."""

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state * self.MULTIPLIER + self.INCREMENT) & self._MASK
        return self._state

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in [lo, hi), using the top 53 bits of the state."""
        return lo + (hi - lo) * ((self.next_u64() >> 11) / float(1 << 53))

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (inclusive)."""
        if hi < lo:
            raise ValueError(f"empty integer range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)


@dataclass(frozen=True)
class DepressionComponent:
    """One 8-connected region of positive depression depth."""

    id: int
    pixels: frozenset[tuple[int, int]]
    area_px: int
    max_depth: float
    bbox: PromptBox

    def __post_init__(self) -> None:
        if self.area_px != len(self.pixels):
            raise ValueError("area_px must equal len(pixels)")


@dataclass(frozen=True)
class SinkholeSpec:
    """Construction parameters of one generated pit."""

    center_col: int
    center_row: int
    radius: float
    depth: float


@dataclass(frozen=True)
class SynthScene:
    """A generated test scene with full ground truth."""

    dem: Raster
    rgb: RGBImage
    gt_mask: BinaryMask
    truths: list[DepressionComponent]
    seed: int
    pits: tuple[SinkholeSpec, ...] = ()


def _value_noise(lcg: Lcg, height: int, width: int, amp: float) -> np.ndarray:
    """Smooth random field: bilinear interpolation of a coarse lattice."""
    cells_y = height // NOISE_LATTICE_PX + 2
    cells_x = width // NOISE_LATTICE_PX + 2
    lattice = np.empty((cells_y, cells_x), dtype=np.float64)
    for i in range(cells_y):
        for j in range(cells_x):
            lattice[i, j] = lcg.uniform(-amp, amp)
    rows = np.arange(height, dtype=np.float64) / NOISE_LATTICE_PX
    cols = np.arange(width, dtype=np.float64) / NOISE_LATTICE_PX
    i0 = np.floor(rows).astype(np.int64)
    j0 = np.floor(cols).astype(np.int64)
    fy = (rows - i0)[:, None]
    fx = (cols - j0)[None, :]
    a = lattice[i0[:, None], j0[None, :]]
    b = lattice[i0[:, None], j0[None, :] + 1]
    c = lattice[i0[:, None] + 1, j0[None, :]]
    d = lattice[i0[:, None] + 1, j0[None, :] + 1]
    return (
        a * (1 - fy) * (1 - fx)
        + b * (1 - fy) * fx
        + c * fy * (1 - fx)
        + d * fy * fx
    )


def _place_pits(
    lcg: Lcg,
    width: int,
    height: int,
    n: int,
    depth_range: tuple[float, float],
    radius_range: tuple[float, float],
) -> list[SinkholeSpec]:
    pits: list[SinkholeSpec] = []
    budget = 1000 * n
    attempts = 0
    while len(pits) < n:
        if attempts >= budget:
            raise PlacementError(
                f"could not place {n} non-overlapping sinkholes in "
                f"{width}x{height} after {budget} attempts"
            )
        attempts += 1
        radius = lcg.uniform(*radius_range)
        depth = lcg.uniform(*depth_range)
        margin = int(math.ceil(radius)) + 2
        if 2 * margin >= width or 2 * margin >= height:
            continue
        col = lcg.randint(margin, width - 1 - margin)
        row = lcg.randint(margin, height - 1 - margin)
        ok = True
        for other in pits:
            dist = math.hypot(col - other.center_col, row - other.center_row)
            if dist <= radius + other.radius + 2.0:
                ok = False
                break
        if ok:
            pits.append(SinkholeSpec(col, row, radius, depth))
    return pits


def _render_rgb(dem_values: np.ndarray, gt: np.ndarray) -> RGBImage:
    """Hillshade-like grayscale with darkened pit interiors."""
    gy, gx = np.gradient(dem_values)
    shade = 1.0 / np.sqrt(1.0 + gx * gx + gy * gy)
    lo, hi = float(shade.min()), float(shade.max())
    norm = (shade - lo) / (hi - lo) if hi > lo else np.full_like(shade, 0.5)
    gray = (60.0 + norm * 170.0)
    gray[gt] *= 0.55
    gray_u8 = np.clip(np.rint(gray), 0, 255).astype(np.uint8)
    return RGBImage(np.stack([gray_u8, gray_u8, gray_u8], axis=-1))


def gen_terrain(
    seed: int,
    width: int,
    height: int,
    n_sinkholes: int,
    depth_range: tuple[float, float] = (3.0, 8.0),
    radius_range: tuple[float, float] = (8.0, 24.0),
    noise_amp: float = 0.0,
    slope: float = DEFAULT_SLOPE,
) -> SynthScene:
    """Generate a deterministic scene with known sinkholes.

    Parameters
    ----------
    seed : int
        Drives every random draw; equal seeds give bit-identical scenes.
    width, height : int
        Scene size in pixels.
    n_sinkholes : int
        Number of non-overlapping pits to place.
    depth_range, radius_range : (low, high)
        Uniform sampling ranges for pit depth and radius (pixels).
    noise_amp : float
        Amplitude of the smooth value noise added to the base plane
        (0 disables it).
    slope : float
        Base plane gradient per pixel (x slope; y slope is half of it).
        0 gives a perfectly flat base.

    Raises
    ------
    ValueError
        If a size or count is out of range, a range is empty or not
        positive, ``noise_amp`` is negative, or a float is not finite.
    PlacementError
        If the non-overlapping placement budget is exhausted.
    """
    for name, value in (
        ("depth_range", depth_range),
        ("radius_range", radius_range),
        ("noise_amp", noise_amp),
        ("slope", slope),
    ):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value}")
    if width < 1 or height < 1:
        raise ValueError(f"scene must be at least 1x1, got {width}x{height}")
    if n_sinkholes < 0:
        raise ValueError(f"n_sinkholes must be >= 0, got {n_sinkholes}")
    for name, (lo, hi) in (("depth_range", depth_range), ("radius_range", radius_range)):
        if lo <= 0 or hi < lo:
            raise ValueError(f"{name} must satisfy 0 < low <= high, got ({lo}, {hi})")
    if noise_amp < 0:
        raise ValueError(f"noise_amp must be >= 0, got {noise_amp}")

    lcg = Lcg(seed)
    cols = np.arange(width, dtype=np.float64)[None, :]
    rows = np.arange(height, dtype=np.float64)[:, None]
    values = _BASE_ELEVATION + slope * cols + (slope / 2.0) * rows
    if noise_amp > 0:
        values = values + _value_noise(lcg, height, width, noise_amp)

    pits = _place_pits(lcg, width, height, n_sinkholes, depth_range, radius_range)

    gt = np.zeros((height, width), dtype=bool)
    truths: list[DepressionComponent] = []
    for idx, pit in enumerate(pits):
        reach = int(math.ceil(pit.radius))
        r0, r1 = pit.center_row - reach, pit.center_row + reach + 1
        c0, c1 = pit.center_col - reach, pit.center_col + reach + 1
        dy = np.arange(r0, r1, dtype=np.float64)[:, None] - pit.center_row
        dx = np.arange(c0, c1, dtype=np.float64)[None, :] - pit.center_col
        r = np.sqrt(dx * dx + dy * dy)
        inside = r <= pit.radius
        bowl = np.where(
            inside, pit.depth * (1.0 + np.cos(np.pi * r / pit.radius)) / 2.0, 0.0
        )
        values[r0:r1, c0:c1] -= bowl
        footprint = r < pit.radius
        gt[r0:r1, c0:c1] |= footprint
        pix_rows, pix_cols = np.nonzero(footprint)
        pixels = frozenset(
            (int(pr) + r0, int(pc) + c0) for pr, pc in zip(pix_rows, pix_cols)
        )
        prows = [p[0] for p in pixels]
        pcols = [p[1] for p in pixels]
        truths.append(
            DepressionComponent(
                id=idx + 1,
                pixels=pixels,
                area_px=len(pixels),
                max_depth=pit.depth,
                bbox=PromptBox(min(pcols), min(prows), max(pcols) + 1, max(prows) + 1),
            )
        )

    dem = Raster(values)
    rgb = _render_rgb(values, gt)
    gt_mask = BinaryMask(gt)
    return SynthScene(
        dem=dem, rgb=rgb, gt_mask=gt_mask, truths=truths, seed=seed, pits=tuple(pits)
    )


def export_scene(scene: SynthScene, out_dir: str | Path) -> None:
    """Write dem.asc, rgb.ppm, gt_mask.asc, and truths.json into *out_dir*."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_ascii_grid(scene.dem, out / "dem.asc")
    write_ppm(scene.rgb, out / "rgb.ppm")
    write_ascii_mask(scene.gt_mask, out / "gt_mask.asc")
    doc = {
        "seed": scene.seed,
        "sinkholes": [
            {
                "center": [pit.center_col, pit.center_row],
                "radius": pit.radius,
                "depth": pit.depth,
                "bbox": truth.bbox.as_list(),
            }
            for pit, truth in zip(scene.pits, scene.truths)
        ],
    }
    (out / "truths.json").write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    )


def brute_force_fill(dem: Raster) -> Raster:
    """Reference depression filler by iterative relaxation (small grids).

    Starts from +inf on interior cells and the input elevation on outlet
    cells (edge or nodata-adjacent), then relaxes
    ``w = max(dem, min over 8 neighbours of w)`` until nothing changes.
    Independent of the production filler by construction; use it as an
    oracle, not in pipelines.
    """
    values = dem.values
    h, w = values.shape
    valid = dem.valid_mask()

    edge = np.zeros((h, w), dtype=bool)
    edge[0, :] = edge[-1, :] = True
    edge[:, 0] = edge[:, -1] = True
    padded_valid = np.zeros((h + 2, w + 2), dtype=bool)
    padded_valid[1:-1, 1:-1] = valid
    next_to_nodata = np.zeros((h, w), dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            next_to_nodata |= ~padded_valid[1 + dr : h + 1 + dr, 1 + dc : w + 1 + dc]
    # padding counts the outside world as nodata, so edge cells fall out too
    outlet = valid & (edge | next_to_nodata)

    surface = np.where(outlet, values, np.inf)
    relax = valid & ~outlet
    while True:
        padded = np.full((h + 2, w + 2), np.inf)
        padded[1:-1, 1:-1] = surface
        neighbour_min = np.full((h, w), np.inf)
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                np.minimum(
                    neighbour_min,
                    padded[1 + dr : h + 1 + dr, 1 + dc : w + 1 + dc],
                    out=neighbour_min,
                )
        updated = np.where(relax, np.maximum(values, neighbour_min), surface)
        if np.array_equal(updated, surface):
            break
        surface = updated

    out = np.where(valid, surface, dem.nodata)
    return dem.with_values(out)
