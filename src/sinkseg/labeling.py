"""Connected depressions and the box prompts derived from them.

Components are 8-connected regions of strictly positive depression depth,
numbered 1, 2, ... in raster scan order of their first-encountered pixel.
The labelling is compiled (``scipy.ndimage.label`` with a 3x3 structure,
imported on first use); each component still carries its pixel set.
Shallow or tiny components are discarded before prompting; the survivors
are turned into pixel-aligned bounding boxes that downstream segmenters
consume as prompts, and :func:`keep_components` zeroes the dropped ones in
the depth raster by label id.

Box coordinates follow the image convention: ``x`` is the column, ``y`` the
row, origin at the top-left, and the intervals are inclusive-exclusive
(``x0 <= x < x1``, ``y0 <= y < y1``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .raster import BinaryMask, Raster


class PromptFormatError(InputError):
    """A prompts JSON document violates the expected schema."""


@dataclass(frozen=True)
class PromptBox:
    """Half-open pixel box: columns [x0, x1), rows [y0, y1)."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        for name in ("x0", "y0", "x1", "y1"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ValueError(f"box coordinate {name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.x0 < 0 or self.y0 < 0:
            raise ValueError(f"box origin must be non-negative, got {self}")
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError(f"box must have positive extent, got {self}")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    def as_list(self) -> list[int]:
        return [self.x0, self.y0, self.x1, self.y1]

    def contains(self, row: int, col: int) -> bool:
        return self.y0 <= row < self.y1 and self.x0 <= col < self.x1


@dataclass(frozen=True)
class FilterThresholds:
    """Discard rule for labelled depressions.

    A component survives only if ``max_depth >= min_depth`` and
    ``area_px >= min_area_px`` — i.e. strictly-below either threshold is
    discarded, boundary equality is kept.  Defaults follow the mapping
    campaign this pipeline was built for: minimum depth 2.0 (map units)
    and minimum area 50 pixels.
    """

    min_depth: float = 2.0
    min_area_px: int = 50

    def __post_init__(self) -> None:
        if not (math.isfinite(self.min_depth) and self.min_depth >= 0):
            raise ValueError(f"min_depth must be finite and >= 0, got {self.min_depth}")
        if self.min_area_px < 0:
            raise ValueError(f"min_area_px must be >= 0, got {self.min_area_px}")

    def keeps(self, component: "DepressionComponent") -> bool:
        return (
            component.max_depth >= self.min_depth
            and component.area_px >= self.min_area_px
        )


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


def _label_grid(positive: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected labels of *positive*, numbered 1.. in scan order of first pixel."""
    from scipy import ndimage

    return ndimage.label(positive, structure=np.ones((3, 3), dtype=bool))


def _components_from_positive(positive: np.ndarray, depth_values: np.ndarray) -> list[DepressionComponent]:
    from scipy import ndimage

    labels, _ = _label_grid(positive)
    components: list[DepressionComponent] = []
    for k, (rows, cols) in enumerate(ndimage.find_objects(labels), start=1):
        mine = labels[rows, cols] == k
        rr, cc = np.nonzero(mine)
        components.append(
            DepressionComponent(
                id=k,
                pixels=frozenset(zip((rr + rows.start).tolist(), (cc + cols.start).tolist())),
                area_px=rr.size,
                max_depth=float(depth_values[rows, cols][mine].max()),
                bbox=PromptBox(cols.start, rows.start, cols.stop, rows.stop),
            )
        )
    return components


def _positive(depth: Raster) -> np.ndarray:
    valid = depth.valid_mask()
    if bool((depth.values[valid] < 0).any()):
        raise ValueError("depth raster contains negative values")
    return valid & (depth.values > 0)


def label_components(depth: Raster) -> list[DepressionComponent]:
    """Label 8-connected regions of strictly positive depth.

    Nodata and zero-depth cells are background.  Components are numbered
    in scan order (row-major) of their first pixel.

    Raises
    ------
    ValueError
        If any valid cell carries a negative depth.
    """
    return _components_from_positive(_positive(depth), depth.values)


def components_from_mask(mask: BinaryMask) -> list[DepressionComponent]:
    """Label the set pixels of a binary mask (max_depth reported as 1.0)."""
    return _components_from_positive(mask.values, mask.values)


def filter_components(
    components: list[DepressionComponent], thresholds: FilterThresholds
) -> list[DepressionComponent]:
    """Keep only components at or above both thresholds (order preserved)."""
    return [c for c in components if thresholds.keeps(c)]


def keep_components(depth: Raster, kept: list[DepressionComponent]) -> Raster:
    """*depth* with every positive cell outside the *kept* components set to 0.

    The ids of *kept* must be those :func:`label_components` gave *depth*.
    """
    labels, n = _label_grid(_positive(depth))
    keep = np.zeros(n + 1, dtype=bool)
    keep[0] = True  # background keeps its value
    keep[[c.id for c in kept]] = True
    return depth.with_values(np.where(keep[labels], depth.values, 0.0))


def boxes_from_components(
    components: list[DepressionComponent],
    pad_px: int = 0,
    width: int | None = None,
    height: int | None = None,
) -> list[PromptBox]:
    """Tight bounding boxes, grown by ``pad_px`` and clamped to the grid.

    ``width``/``height`` bound the clamp; omit them to clamp only at zero.
    """
    if pad_px < 0:
        raise ValueError(f"pad_px must be >= 0, got {pad_px}")
    boxes = []
    for comp in components:
        b = comp.bbox
        x0 = max(0, b.x0 - pad_px)
        y0 = max(0, b.y0 - pad_px)
        x1 = b.x1 + pad_px
        y1 = b.y1 + pad_px
        if width is not None:
            x1 = min(width, x1)
        if height is not None:
            y1 = min(height, y1)
        boxes.append(PromptBox(x0, y0, x1, y1))
    return boxes


@dataclass(frozen=True)
class PromptSet:
    """The prompts emitted for one patch."""

    patch_id: str
    boxes: list[PromptBox]
    areas: list[int]
    max_depths: list[float]


def prompts_to_json(prompts: PromptSet) -> str:
    doc = {
        "patch_id": prompts.patch_id,
        "boxes": [b.as_list() for b in prompts.boxes],
        "areas": list(prompts.areas),
        "max_depths": list(prompts.max_depths),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def prompts_from_json(text: str) -> PromptSet:
    """Parse a prompts document; also accepts externally produced box files.

    ``areas``/``max_depths`` may be omitted by external producers, in which
    case they default to empty lists.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PromptFormatError(f"prompts file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "patch_id" not in doc or "boxes" not in doc:
        raise PromptFormatError("prompts document needs 'patch_id' and 'boxes' keys")
    raw_boxes = doc["boxes"]
    if not isinstance(raw_boxes, list):
        raise PromptFormatError("'boxes' must be a list")
    boxes = []
    for i, entry in enumerate(raw_boxes):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise PromptFormatError(f"box {i} must be [x0, y0, x1, y1], got {entry!r}")
        try:
            boxes.append(PromptBox(*entry))
        except ValueError as exc:
            raise PromptFormatError(f"box {i} invalid: {exc}") from exc
    areas = doc.get("areas", [])
    max_depths = doc.get("max_depths", [])
    for name, seq, kinds in (("areas", areas, int), ("max_depths", max_depths, (int, float))):
        if not isinstance(seq, list):
            raise PromptFormatError(f"'{name}' must be a list")
        if seq and len(seq) != len(boxes):
            raise PromptFormatError(f"'{name}' length must match 'boxes'")
        for i, v in enumerate(seq):
            if not isinstance(v, kinds) or isinstance(v, bool):
                kind = "an integer" if kinds is int else "a number"
                raise PromptFormatError(f"'{name}' entry {i} must be {kind}, got {v!r}")
    return PromptSet(
        patch_id=str(doc["patch_id"]),
        boxes=boxes,
        areas=list(areas),
        max_depths=[float(d) for d in max_depths],
    )


def write_prompts(prompts: PromptSet, path: str | Path) -> None:
    Path(path).write_text(prompts_to_json(prompts))


def read_prompts(path: str | Path) -> PromptSet:
    return prompts_from_json(Path(path).read_text())
