"""Connected depressions and the box prompts derived from them.

A component is an 8-connected region of strictly positive depression depth
(:func:`label_components`) or of set mask pixels
(:func:`components_from_mask`), numbered 1, 2, ... in raster scan order of
its first-encountered pixel, as ``scipy.ndimage.label`` with a 3x3
structure numbers them.  Both give one :class:`LabelGrid`: the label grid
plus each component's area, maximum depth and extent as per-label arrays.
The labelling works on the row runs of set pixels: runs of adjacent rows
that touch in 8-connectivity are found with ``searchsorted``, and each run
is hooked on the lowest run of its component, its first in scan order.

That grid is the only representation of a component.
:func:`filter_components` keeps the ids of components deep and large
enough, :func:`boxes_from_components` turns kept ids into pixel-aligned box
prompts for the segmenters, clamped to the label grid's own shape, and
:func:`tile_prompts` builds a tile's prompts from those two and its kept
cells by label id.

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
from .raster import check_mask


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

    def keeps(self, max_depth, area_px):
        """Whether a component survives; elementwise over per-label arrays."""
        return (max_depth >= self.min_depth) & (area_px >= self.min_area_px)


@dataclass(frozen=True)
class LabelGrid:
    """Every component of one grid: a label grid plus per-label arrays.

    ``labels`` holds 0 on background and k on component k.  ``area_px[k]``
    and ``max_depth[k]`` describe component k (index 0 is the background),
    and ``extents[k - 1]`` is its ``(rows, cols)`` slice pair.  ``len`` is
    the number of components.
    """

    labels: np.ndarray
    area_px: np.ndarray
    max_depth: np.ndarray
    extents: list[tuple[slice, slice]]

    def __len__(self) -> int:
        return len(self.extents)


def _labelled(positive: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[tuple[slice, slice]]]:
    """8-connected labels of *positive*, numbered 1.. in scan order of first
    pixel, with each label's area (index 0 the background) and extent.  The
    caller supplies the maximum depths."""
    stride = positive.shape[1] + 2  # a clear column each side keeps rows apart
    padded = np.zeros((positive.shape[0], stride), dtype=np.int8)
    padded[:, 1:-1] = positive
    step = np.diff(padded.ravel())
    del padded
    # the runs of set pixels in scan order, as padded flat indices of their
    # first pixel and one past their last
    starts, stops = np.flatnonzero(step == 1) + 1, np.flatnonzero(step == -1) + 1
    del step
    # run i touches the runs first[i] .. last[i] - 1 of the next row
    first = np.searchsorted(stops, starts + stride)
    last = np.searchsorted(starts, stops + stride, side="right")
    count = last - first
    upper = np.repeat(np.arange(starts.size), count)
    lower = np.arange(upper.size) - np.repeat(np.cumsum(count) - count - first, count)
    # hook each root on the lowest root it touches, then jump, until no two
    # touching runs have different roots: a component's root is its first run
    root = np.arange(starts.size)
    while True:
        a, b = root[upper], root[lower]
        joins = a != b
        if not joins.any():
            break
        np.minimum.at(root, np.maximum(a, b)[joins], np.minimum(a, b)[joins])
        while not np.array_equal(further := root[root], root):
            root = further
    is_first = root == np.arange(starts.size)
    label = np.cumsum(is_first, dtype=np.int32)[root]
    n = int(np.count_nonzero(is_first))
    labels = np.zeros(positive.shape, dtype=np.int32)
    labels[positive] = np.repeat(label, stops - starts)

    rows = starts // stride
    start_cols, stop_cols = starts - rows * stride - 1, stops - rows * stride - 1
    bottom, left, right = np.zeros(n + 1, np.int64), np.full(n + 1, stride), np.zeros(n + 1, np.int64)
    np.maximum.at(bottom, label, rows + 1)
    np.minimum.at(left, label, start_cols)
    np.maximum.at(right, label, stop_cols)
    extents = [(slice(r0, r1), slice(c0, c1)) for r0, r1, c0, c1 in zip(
        rows[is_first].tolist(), bottom[1:].tolist(), left[1:].tolist(), right[1:].tolist())]
    return labels, np.bincount(labels.ravel(), minlength=n + 1), extents


def label_components(depth: np.ndarray) -> LabelGrid:
    """Label 8-connected regions of strictly positive *depth*, a 2-D float
    array as :func:`~sinkseg.hydro.fill_depressions` gives it, with each
    component's maximum depth.

    Zero-depth cells are background; the fill writes 0.0 on nodata cells
    too.  Components are numbered in scan order (row-major) of their first
    pixel.

    Raises
    ------
    ValueError
        If any cell carries a non-finite or a negative depth.
    """
    if not np.isfinite(depth).all():
        raise ValueError("depth raster contains non-finite values")
    if (depth < 0).any():
        raise ValueError("depth raster contains negative values")
    positive = depth > 0
    labels, area_px, extents = _labelled(positive)
    max_depth = np.zeros(len(extents) + 1)  # every labelled value is > 0
    np.maximum.at(max_depth, labels[positive], depth[positive])
    return LabelGrid(labels, area_px, max_depth, extents)


def components_from_mask(mask: np.ndarray, max_depth=None) -> LabelGrid:
    """Label the set pixels of *mask*, a 2-D bool array.

    Each component's maximum depth is 1.0, unless *max_depth* is given: a
    function of the component count that returns one maximum per
    component, in label order.  So a caller that stored them, as the
    prompts stage reads them from the fill's archive, learns how many to
    read before it reads them.

    Raises
    ------
    ValueError
        If *max_depth* gives another count of values, or a value that is
        not finite and > 0.
    """
    labels, area_px, extents = _labelled(check_mask(mask))
    n = len(extents)
    if max_depth is None:
        values = np.ones(n)
    else:
        values = np.asarray(max_depth(n), dtype=np.float64)
        if values.shape != (n,):
            raise ValueError(f"{values.size} max depths for {n} components")
        bad = np.flatnonzero(~(np.isfinite(values) & (values > 0)))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"component {k + 1}'s max depth is {float(values[k])}, "
                             f"expected a finite value > 0")
    return LabelGrid(labels, area_px, np.concatenate(([0.0], values)), extents)


def filter_components(grid: LabelGrid, thresholds: FilterThresholds) -> np.ndarray:
    """Ids of the components at or above both thresholds, ascending."""
    return np.flatnonzero(thresholds.keeps(grid.max_depth[1:], grid.area_px[1:])) + 1


def boxes_from_components(grid: LabelGrid, ids, pad_px: int) -> list[PromptBox]:
    """Tight bounding boxes of components *ids*, grown by ``pad_px`` and
    clamped to the label grid."""
    if pad_px < 0:
        raise ValueError(f"pad_px must be >= 0, got {pad_px}")
    height, width = grid.labels.shape
    boxes = []
    for k in np.asarray(ids).tolist():
        if not 1 <= k <= len(grid):
            raise ValueError(f"component id {k} not in 1..{len(grid)}")
        rows, cols = grid.extents[k - 1]
        boxes.append(PromptBox(
            max(0, cols.start - pad_px),
            max(0, rows.start - pad_px),
            min(width, cols.stop + pad_px),
            min(height, rows.stop + pad_px),
        ))
    return boxes


@dataclass(frozen=True)
class PromptSet:
    """The prompts emitted for one patch."""

    patch_id: str
    boxes: list[PromptBox]
    areas: list[int]
    max_depths: list[float]


def tile_prompts(
    grid: LabelGrid, thresholds: FilterThresholds, pad_px: int, patch_id: str
) -> tuple[PromptSet, np.ndarray]:
    """The prompts of one tile's label *grid*, and its kept cells: a bool
    grid, True on the components that the *thresholds* keep."""
    ids = filter_components(grid, thresholds)
    keep = np.zeros(len(grid) + 1, dtype=bool)
    keep[ids] = True
    prompts = PromptSet(
        patch_id=patch_id,
        boxes=boxes_from_components(grid, ids, pad_px),
        areas=grid.area_px[ids].tolist(),
        max_depths=grid.max_depth[ids].tolist(),
    )
    return prompts, keep[grid.labels]


def prompts_to_json(prompts: PromptSet) -> str:
    doc = {
        "patch_id": prompts.patch_id,
        "boxes": [b.as_list() for b in prompts.boxes],
        "areas": list(prompts.areas),
        "max_depths": list(prompts.max_depths),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def prompts_from_json(text: str) -> PromptSet:
    """Parse one prompts document, as :func:`prompts_to_json` writes it and a
    box file, external ones too, holds one per line (:func:`read_prompts`).
    External producers may omit ``areas`` and ``max_depths``; they default
    to empty lists.  An area is an integer >= 0, and a max depth a finite
    number >= 0."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # or an int of too many digits, or nested too deep
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
            if name == "max_depths":
                try:
                    v = float(v)
                except OverflowError:  # an int too large for a float
                    raise PromptFormatError(
                        f"'max_depths' entry {i} is too large for a float") from None
                if not math.isfinite(v):  # NaN, Infinity or a literal past the float range
                    raise PromptFormatError(f"'max_depths' entry {i} must be finite, got {v}")
            if v < 0:
                raise PromptFormatError(f"'{name}' entry {i} must be >= 0, got {v!r}")
    return PromptSet(
        patch_id=str(doc["patch_id"]),
        boxes=boxes,
        areas=list(areas),
        max_depths=[float(d) for d in max_depths],
    )


def write_prompts(prompt_sets: list[PromptSet], path: str | Path) -> None:
    """Write *prompt_sets* as a box file: one :func:`prompts_to_json` line each."""
    Path(path).write_text("".join(map(prompts_to_json, prompt_sets)))


def read_prompts(path: str | Path) -> list[PromptSet]:
    """The prompt sets of the box file *path*, one per line; a malformed
    line's error names its line number."""
    text = Path(path).read_text()
    prompt_sets = []
    for number, line in enumerate(text.removesuffix("\n").split("\n") if text else [], 1):
        try:
            prompt_sets.append(prompts_from_json(line))
        except PromptFormatError as exc:
            raise PromptFormatError(f"line {number}: {exc}") from exc
    return prompt_sets
