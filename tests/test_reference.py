"""An end-to-end reference: what fill, prompts and segment must write together.

Each part of the reference is plain and independent of the package: a
``heapq`` priority flood (Barnes et al. 2014) on a valid mask rather than a
sentinel, ``max(valid) - value`` for ``invert_depth``, ``scipy.ndimage``
labels and the keep rule, padded boxes clamped to the window, a per-cell fold
of the windows, and the echo paint binarized above ``binarize_threshold``.
In mosaic mode under ``max`` and ``first``, the box file leaves a box to an
earlier window that holds it whole, but the fused mask is painted from every
window's boxes, so the written fused mask shows that leaving them out
changes nothing.
The scenes are small, with quantised elevations and nodata holes, and their
nodata value is drawn from the values the scene's depths and inverted
elevations actually hold, so a sentinel that meets a real value shows.

Tier-1 runs the default hypothesis profile; CI also runs this file under the
``reference`` profile registered in ``conftest.py``.
"""

import heapq
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from sinkseg.config import PipelineConfig
from sinkseg.image import write_ppm
from sinkseg.labeling import FilterThresholds
from sinkseg.pipeline import cmd_fill, cmd_prompts, cmd_segment
from sinkseg.raster import Raster, write_ascii_grid
from sinkseg.tiling import MergeRule, TileSpec

NEIGHBOURS = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc]


def flood_depth(values, valid):
    """Each cell's fill depth: valid cells on the edge or next to an invalid
    cell drain; every other valid cell fills to its lowest way out."""
    h, w = values.shape
    level = values.copy()
    done = ~valid
    heap = []
    for r, c in zip(*np.nonzero(valid)):
        near = [(r + dr, c + dc) for dr, dc in NEIGHBOURS]
        if any(not (0 <= i < h and 0 <= j < w) or not valid[i, j] for i, j in near):
            heap.append((values[r, c], r, c))
            done[r, c] = True
    heapq.heapify(heap)
    while heap:
        z, r, c = heapq.heappop(heap)
        for dr, dc in NEIGHBOURS:
            i, j = r + dr, c + dc
            if 0 <= i < h and 0 <= j < w and not done[i, j]:
                done[i, j] = True
                level[i, j] = max(values[i, j], z)
                heapq.heappush(heap, (level[i, j], i, j))
    return np.where(valid & (level > values), level - values, 0.0)


def origins(extent, patch, stride):
    """Window origins along one axis; the last window ends flush with the edge."""
    out = list(range(0, extent - patch + 1, stride))
    return out if out[-1] == extent - patch else out + [extent - patch]


def fold(tiles, shape, merge):
    """The per-cell fold of ``(rows, cols, values)`` tiles in plan order."""
    seen = [[[] for _ in range(shape[1])] for _ in range(shape[0])]
    for rows, cols, values in tiles:
        for r in range(values.shape[0]):
            for c in range(values.shape[1]):
                seen[rows.start + r][cols.start + c].append(values[r, c])
    rule = {"max": max, "first": lambda v: v[0], "mean": lambda v: sum(v) / len(v)}[merge]
    return np.array([[rule(v) for v in row] for row in seen])


def held_earlier(windows, k, box, shape):
    """Whether a window before window *k* holds its *box* whole, in mosaic
    coordinates, and the box reaches no edge of window *k* inside the
    mosaic: then that earlier window writes it."""
    rows, cols = windows[k]
    patch = rows.stop - rows.start
    x0, y0, x1, y1 = box
    if (y0 == 0 < rows.start or x0 == 0 < cols.start
            or y1 == patch and rows.stop < shape[0] or x1 == patch and cols.stop < shape[1]):
        return False
    y0, y1, x0, x1 = rows.start + y0, rows.start + y1, cols.start + x0, cols.start + x1
    return any(r.start <= y0 and y1 <= r.stop and c.start <= x0 and x1 <= c.stop
               for r, c in windows[:k])


def reference(elevation, valid, case):
    """Every window's depths, flat, then the box file lines, kept mask and
    fused mask that the stages must write, and how many boxes the lines
    leave to an earlier window.  The fused mask paints every window's boxes,
    so the lines may drop a box only where that changes nothing."""
    values = elevation
    if case["invert"]:
        values = np.where(valid, elevation[valid].max() - elevation, 0.0)
    h, w = values.shape
    patch, stride = case["patch"], case["stride"]
    windows = [(slice(r, r + patch), slice(c, c + patch))
               for r in origins(h, patch, stride) for c in origins(w, patch, stride)]
    if case["mode"] == "mosaic":
        whole = flood_depth(values, valid)
        depths = [whole[cells] for cells in windows]
    else:
        depths = [flood_depth(values[cells], valid[cells]) for cells in windows]

    lines, kept_tiles, all_boxes = [], [], []
    for (rows, cols), depth in zip(windows, depths):
        labels, n = ndimage.label(depth > 0, structure=np.ones((3, 3)))
        first_pixel = [np.flatnonzero(labels == k)[0] for k in range(1, n + 1)]
        kept = np.zeros(depth.shape, dtype=bool)
        boxes, areas, max_depths = [], [], []
        for k in sorted(range(1, n + 1), key=lambda k: first_pixel[k - 1]):
            cells = labels == k
            if depth[cells].max() < case["min_depth"] or cells.sum() < case["min_area"]:
                continue
            kept |= cells
            rr, cc = np.nonzero(cells)
            pad = case["pad"]
            boxes.append([max(0, int(cc.min()) - pad), max(0, int(rr.min()) - pad),
                          min(patch, int(cc.max()) + 1 + pad), min(patch, int(rr.max()) + 1 + pad)])
            areas.append(int(cells.sum()))
            max_depths.append(float(depth[cells].max()))
        all_boxes.append(boxes)
        if case["mode"] == "mosaic" and case["merge"] != "mean":
            write = [not held_earlier(windows, len(kept_tiles), box, (h, w)) for box in boxes]
            boxes, areas, max_depths = ([v for v, keep in zip(values, write) if keep]
                                        for values in (boxes, areas, max_depths))
        lines.append({"patch_id": f"r{rows.start:05d}_c{cols.start:05d}", "boxes": boxes,
                      "areas": areas, "max_depths": max_depths})
        kept_tiles.append((rows, cols, kept))
    kept = fold(kept_tiles, (h, w), case["merge"]) > 0  # bools: first, or any

    painted = []
    for (rows, cols), boxes in zip(windows, all_boxes):
        paint = np.zeros((patch, patch))
        for x0, y0, x1, y1 in boxes:
            paint[y0:y1, x0:x1] = np.maximum(paint[y0:y1, x0:x1], kept[rows, cols][y0:y1, x0:x1])
        painted.append((rows, cols, paint))
    fused = fold(painted, (h, w), case["merge"]) > case["threshold"]
    left = sum(map(len, all_boxes)) - sum(len(line["boxes"]) for line in lines)
    return np.concatenate([d.ravel() for d in depths]), lines, kept, fused, left


@st.composite
def scenes(draw):
    """A small quantised DEM with nodata holes, a pipeline case, and a nodata
    value that some depth or inverted elevation of the scene holds.  The DEM
    is noise over the whole range, or a rough plateau with a few pits sunk
    inside windows, off their edges, where windows that overlap hold a pit
    whole."""
    plateau = draw(st.booleans())
    smallest = 10 if plateau else 4
    h, w = draw(st.integers(smallest, 24)), draw(st.integers(smallest, 24))
    step = draw(st.sampled_from([0.5, 1.0]))
    offset = draw(st.sampled_from([0.0, 100.0]))
    patch = draw(st.integers(max(smallest - 2, min(h, w) // 3), min(h, w)))
    stride = draw(st.integers(max(1, patch // 4), patch // 2 if plateau else patch))
    pad = draw(st.integers(0, 3))
    levels = draw(hnp.arrays(np.int64, (h, w), elements=st.integers(4 if plateau else 0, 6)))
    if plateau:
        corners = [(r, c) for r in origins(h, patch, stride) for c in origins(w, patch, stride)]
        for _ in range(draw(st.integers(1, 4))):
            r, c = draw(st.sampled_from(corners))
            size = draw(st.integers(2, 3))
            # off the window's edges, counted back from its far corner, which
            # the windows after it overlap
            back = st.integers(0, max(0, patch - 2 - size - 2 * pad))
            far = patch - 1 - pad - size
            r0, c0 = r + far - draw(back), c + far - draw(back)
            levels[r0 : r0 + size, c0 : c0 + size] = draw(st.integers(0, 2))
    invert = draw(st.booleans())
    if invert and plateau:  # pits again once inverted
        levels = 6 - levels
    elevation = offset + step * levels
    valid = np.ones((h, w), dtype=bool)
    for _ in range(draw(st.integers(0, 3))):
        r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        valid[r0 : r0 + draw(st.integers(1, 4)), c0 : c0 + draw(st.integers(1, 4))] = False
    valid[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = True
    case = {
        "mode": draw(st.sampled_from(["mosaic", "patch"])),  # hypothesis favours the first
        "invert": invert,
        "patch": patch,
        "stride": stride,
        "min_depth": draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        "min_area": draw(st.integers(0, 5)),
        "pad": pad,
        "merge": draw(st.sampled_from(["max", "mean", "first"])),
        "threshold": draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
    }
    depths, *expected = reference(elevation, valid, case)
    held = set(depths.tolist()) | set((elevation[valid].max() - elevation[valid]).tolist())
    # a nodata equal to a valid elevation would make that cell a hole too
    nodata = draw(st.sampled_from(sorted((held | {-9999.0}) - set(elevation[valid].tolist()))))
    return np.where(valid, elevation, nodata), nodata, case, expected


@settings(deadline=None)
@given(scenes())
def test_stages_write_what_the_reference_computes(scene):
    dem, nodata, case, (lines, kept, fused, left) = scene
    event("a box left to an earlier window" if left else "every box written")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_ascii_grid(Raster(dem, nodata), tmp / "dem.asc")
        write_ppm(np.zeros((*dem.shape, 3), dtype=np.uint8), tmp / "rgb.ppm")
        cfg = PipelineConfig(
            depth_raster=tmp / "dem.asc", rgb_mosaic=tmp / "rgb.ppm", out_dir=tmp / "out",
            invert_depth=case["invert"], fill_mode=case["mode"],
            tile=TileSpec(case["patch"], case["stride"]),
            filter=FilterThresholds(case["min_depth"], case["min_area"]), pad_px=case["pad"],
            merge=MergeRule(case["merge"]), binarize_threshold=case["threshold"],
        )
        cmd_fill(cfg)
        cmd_prompts(cfg)
        cmd_segment(cfg)
        box_file = (tmp / "out" / "boxes.jsonl").read_text()
        written = [json.loads(line) for line in box_file.splitlines()]
        with np.load(tmp / "out" / "kept_mask.npz") as archive:
            written_kept = archive["mask"]
        with np.load(tmp / "out" / "fused_mask.npz") as archive:
            written_fused = archive["mask"]
    assert written == lines
    assert np.array_equal(written_kept, kept)
    assert np.array_equal(written_fused, fused)
