"""The four pipeline stages, each reading/writing a shared output directory.

Stage artifacts (all deterministic — rerunning a stage overwrites the same
bytes, regardless of worker pool size):

``fill``
    ``patches/<id>.depth.npz`` (per-patch mode) or ``depth.npz`` (mosaic
    mode), plus ``manifest.json`` describing the mosaic and tiling so later
    stages need no access to the original input; every stage derives its
    windows from the manifest.  A depth file is a zlib-compressed NumPy
    archive holding one float64 array, ``depth``; its georeference and nodata
    come from the manifest.  Only the prompts stage reads it.
``prompts``
    ``patches/<id>.boxes.json`` per patch (possibly empty box lists) and
    ``depth_filtered.asc`` — the filtered depressions stitched back into a
    mosaic.
``segment``
    ``fused_mask.asc`` — per-box masks fused once per patch (pixelwise max),
    patches stitched with the configured merge rule, then binarized once.
    Only the echo backend reads ``depth_filtered.asc``.
``eval``
    ``report.json`` and ``report.csv`` against the ground-truth mask.

Prompting is per-patch and independent: a depression overlapping several
windows may be prompted in each of them.  The duplicate masks collapse when
patches are stitched, so the fused mosaic and everything downstream see one
object per depression.
"""

from __future__ import annotations

import json
import logging
import math
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .config import FILL_MODES, PipelineConfig, validate_for
from .errors import InputError
from .hydro import fill_depressions
from .image import read_ppm
from .labeling import (
    PromptSet,
    boxes_from_components,
    filter_components,
    keep_components,
    label_components,
    read_prompts,
    write_prompts,
)
from .metrics import MetricsReport, evaluate_masks, report_to_csv, report_to_json
from .raster import (
    Raster,
    binarize,
    invert_depth,
    read_ascii_grid,
    read_ascii_mask,
    write_ascii_grid,
    write_ascii_mask,
)
from .segmenter import EchoBackend, HttpBackend, ReplayBackend, segment_patch
from .tiling import TileSpec, TileWindow, extract_tile, patch_id, plan_tiles, stitch

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
_MANIFEST_INTS = ("width", "height", "patch", "stride")
_MANIFEST_FLOATS = ("origin_x", "origin_y", "cellsize", "nodata")
_MANIFEST_KEYS = (*_MANIFEST_INTS, *_MANIFEST_FLOATS, "fill_mode", "invert_depth")


def _pool_map(workers: int, fn, items):
    """Apply *fn* over *items*, preserving order; thread pool if workers > 1."""
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _plan(width: int, height: int, spec: TileSpec) -> list[TileWindow]:
    try:
        return plan_tiles(width, height, spec)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _write_manifest(out: Path, mosaic: Raster, cfg: PipelineConfig) -> None:
    doc = {
        "width": mosaic.width,
        "height": mosaic.height,
        "patch": cfg.tile.patch,
        "stride": cfg.tile.stride,
        "origin_x": mosaic.origin_x,
        "origin_y": mosaic.origin_y,
        "cellsize": mosaic.cellsize,
        "nodata": mosaic.nodata,
        "fill_mode": cfg.fill_mode,
        "invert_depth": cfg.invert_depth,
    }
    (out / MANIFEST_NAME).write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    )


def _read_manifest(out: Path) -> dict:
    path = out / MANIFEST_NAME
    if not path.exists():
        raise InputError(f"{path} not found — run the fill stage first")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc}) — rerun the fill stage") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object — rerun the fill stage")
    missing = [key for key in _MANIFEST_KEYS if key not in doc]
    if missing:
        raise InputError(f"{path}: missing {', '.join(missing)} — rerun the fill stage")

    def bad(key: str, expected: str) -> InputError:
        return InputError(
            f"{path}: {key} must be {expected}, got {doc[key]!r} — rerun the fill stage"
        )

    for key in _MANIFEST_INTS:
        if type(doc[key]) is not int:
            raise bad(key, "an integer")
    for key in _MANIFEST_FLOATS:
        if not _is_finite_number(doc[key]):
            raise bad(key, "a finite number")
    if not doc["cellsize"] > 0:
        raise bad("cellsize", "> 0")
    if doc["fill_mode"] not in FILL_MODES:
        raise bad("fill_mode", f"one of {FILL_MODES}")
    if type(doc["invert_depth"]) is not bool:
        raise bad("invert_depth", "true or false")
    try:
        TileSpec(doc["patch"], doc["stride"])
    except ValueError as exc:
        raise InputError(f"{path}: {exc} — rerun the fill stage") from exc
    return doc


def _is_finite_number(value) -> bool:
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _manifest_windows(doc: dict) -> list[TileWindow]:
    return _plan(doc["width"], doc["height"], TileSpec(doc["patch"], doc["stride"]))


def _read_stage_grid(path: Path, width: int, height: int, stage: str) -> Raster:
    """Read a grid the *stage* wrote, checking it has the manifest's shape."""
    if not path.exists():
        raise InputError(f"{path} not found — run the {stage} stage first")
    grid = read_ascii_grid(path)
    if grid.values.shape != (height, width):
        raise InputError(
            f"{path} is {grid.width}x{grid.height}, expected {width}x{height} "
            f"— rerun the {stage} stage"
        )
    return grid


def _window_georef(doc: dict, window: TileWindow) -> tuple[float, float, float]:
    cellsize = doc["cellsize"]
    origin_x = doc["origin_x"] + window.col0 * cellsize
    origin_y = doc["origin_y"] + (doc["height"] - window.row0 - window.patch) * cellsize
    return origin_x, origin_y, cellsize


def _write_depth(depth: Raster, path: Path) -> None:
    np.savez_compressed(path, depth=depth.values)


def _read_depth(path: Path, doc: dict, window: TileWindow | None = None) -> Raster:
    """Load the depth the fill stage wrote for *window* (None: the mosaic).

    The array must be float64 with the shape the manifest gives; georeference
    and nodata are rebuilt from the manifest.
    """
    if not path.exists():
        raise InputError(f"{path} not found — run the fill stage first")

    def bad(what: str) -> InputError:
        return InputError(f"{path}: {what} — rerun the fill stage")

    try:
        with open(path, "rb") as fh:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise bad("not an .npz archive")
            with archive:
                if archive.files != ["depth"]:
                    raise bad(f"expected exactly one array 'depth', found {archive.files}")
                values = archive["depth"]
    except (OSError, EOFError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise bad(f"unreadable depth archive ({exc})") from exc
    if values.dtype != np.float64:
        raise bad(f"depth has dtype {values.dtype}, expected float64")
    if values.ndim != 2:
        raise bad(f"depth has {values.ndim} dimensions, expected 2")
    if window is None:
        width, height = doc["width"], doc["height"]
        georef = doc["origin_x"], doc["origin_y"], doc["cellsize"]
    else:
        width = height = window.patch
        georef = _window_georef(doc, window)
    if values.shape != (height, width):
        raise bad(f"depth is {values.shape[1]}x{values.shape[0]}, expected {width}x{height}")
    try:
        return Raster(values, doc["nodata"], *georef)
    except ValueError as exc:  # non-finite cells
        raise bad(str(exc)) from exc


def cmd_fill(cfg: PipelineConfig) -> None:
    """Fill depressions and write the depth rasters (per patch or mosaic)."""
    validate_for(cfg, "fill")
    dem = read_ascii_grid(cfg.depth_raster)
    if cfg.invert_depth:
        try:
            dem = invert_depth(dem)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    out = Path(cfg.out_dir)
    patches = out / "patches"
    patches.mkdir(parents=True, exist_ok=True)

    if cfg.fill_mode == "patch":
        windows = _plan(dem.width, dem.height, cfg.tile)

        def work(window: TileWindow) -> None:
            depth = extract_tile(dem, window)
            if depth.valid_mask().any():  # an all-nodata tile has nothing to fill
                depth = fill_depressions(depth).depth
            _write_depth(depth, patches / f"{patch_id(window)}.depth.npz")

        _pool_map(cfg.workers, work, windows)
        logger.info("filled %d patches into %s", len(windows), patches)
    else:
        _write_depth(fill_depressions(dem).depth, out / "depth.npz")
        logger.info("filled mosaic into %s", out)

    _write_manifest(out, dem, cfg)


def cmd_prompts(cfg: PipelineConfig) -> None:
    """Label, filter, and box the depressions of every patch."""
    validate_for(cfg, "prompts")
    out = Path(cfg.out_dir)
    patches = out / "patches"
    patches.mkdir(parents=True, exist_ok=True)
    doc = _read_manifest(out)
    windows = _manifest_windows(doc)

    mosaic_path = out / "depth.npz"
    depth_mosaic = None
    if doc["fill_mode"] == "mosaic":
        depth_mosaic = _read_depth(mosaic_path, doc)

    def work(window: TileWindow):
        if depth_mosaic is not None:
            depth_path, depth_tile = mosaic_path, extract_tile(depth_mosaic, window)
        else:
            depth_path = patches / f"{patch_id(window)}.depth.npz"
            depth_tile = _read_depth(depth_path, doc, window)
        try:
            components = label_components(depth_tile)
        except ValueError as exc:  # negative depth
            raise InputError(f"{depth_path}: {exc} — rerun the fill stage") from exc
        kept = filter_components(components, cfg.filter)
        boxes = boxes_from_components(
            kept, cfg.pad_px, width=window.patch, height=window.patch
        )
        prompts = PromptSet(
            patch_id=patch_id(window),
            boxes=boxes,
            areas=[c.area_px for c in kept],
            max_depths=[c.max_depth for c in kept],
        )
        return window, prompts, keep_components(depth_tile, kept)

    total_boxes = 0
    tiles: list[tuple[TileWindow, Raster]] = []
    for window, prompts, filtered in _pool_map(cfg.workers, work, windows):
        write_prompts(prompts, patches / f"{prompts.patch_id}.boxes.json")
        tiles.append((window, filtered))
        total_boxes += len(prompts.boxes)

    mosaic = stitch(tiles, doc["width"], doc["height"], cfg.merge)
    write_ascii_grid(mosaic, out / "depth_filtered.asc")
    logger.info("wrote %d prompt boxes across %d patches", total_boxes, len(windows))


def _build_shared_backend(cfg: PipelineConfig):
    if cfg.backend_kind == "http":
        return HttpBackend(
            cfg.backend_endpoint,
            timeout=cfg.backend_timeout,
            retries=cfg.backend_retries,
            max_inflight=cfg.backend_max_inflight,
        )
    if cfg.backend_kind == "replay":
        return ReplayBackend(cfg.backend_replay_dir)
    return None  # echo is built per patch from the filtered depth


def cmd_segment(cfg: PipelineConfig) -> None:
    """Segment every patch from its box prompts and stitch the fused mask."""
    validate_for(cfg, "segment")
    out = Path(cfg.out_dir)
    patches = out / "patches"
    doc = _read_manifest(out)
    windows = _manifest_windows(doc)

    rgb = read_ppm(cfg.rgb_mosaic)
    if (rgb.height, rgb.width) != (doc["height"], doc["width"]):
        raise InputError(
            f"rgb mosaic is {rgb.width}x{rgb.height} but the fill manifest says "
            f"{doc['width']}x{doc['height']}"
        )
    shared_backend = _build_shared_backend(cfg)
    if shared_backend is None:  # echo paints the filtered depth
        depth_filtered = _read_stage_grid(
            out / "depth_filtered.asc", doc["width"], doc["height"], "prompts"
        )

    def work(window: TileWindow):
        pid = patch_id(window)
        boxes_path = patches / f"{pid}.boxes.json"
        if not boxes_path.exists():
            raise InputError(f"{boxes_path} not found — run the prompts stage first")
        prompts = read_prompts(boxes_path)
        for box in prompts.boxes:
            if box.x1 > window.patch or box.y1 > window.patch:
                raise InputError(
                    f"{boxes_path}: box {box.as_list()} exceeds patch "
                    f"{window.patch}x{window.patch} — rerun the prompts stage"
                )
        patch_img = extract_tile(rgb, window)
        backend = shared_backend or EchoBackend(extract_tile(depth_filtered, window))
        outcome = segment_patch(backend, patch_img, prompts.boxes, patch_id=pid)
        origin_x, origin_y, cellsize = _window_georef(doc, window)
        tile = Raster(
            outcome.probs,
            nodata=doc["nodata"],
            origin_x=origin_x,
            origin_y=origin_y,
            cellsize=cellsize,
        )
        return window, tile

    tiles = _pool_map(cfg.workers, work, windows)
    prob_mosaic = stitch(tiles, doc["width"], doc["height"], cfg.merge)
    fused = binarize(prob_mosaic, cfg.binarize_threshold)
    write_ascii_mask(fused, out / "fused_mask.asc")
    logger.info("fused mask written to %s", out / "fused_mask.asc")


def cmd_eval(cfg: PipelineConfig) -> MetricsReport:
    """Evaluate the fused mask against ground truth; write JSON + CSV."""
    validate_for(cfg, "eval")
    out = Path(cfg.out_dir)
    fused_path = out / "fused_mask.asc"
    if not fused_path.exists():
        raise InputError(f"{fused_path} not found — run the segment stage first")
    pred = read_ascii_mask(fused_path)
    gt = read_ascii_mask(cfg.eval_gt_mask)
    if pred.values.shape != gt.values.shape:
        raise InputError(
            f"prediction is {pred.width}x{pred.height} but ground truth is "
            f"{gt.width}x{gt.height}"
        )
    ignore = None
    if cfg.eval_ignore_mask is not None:
        ignore = read_ascii_mask(cfg.eval_ignore_mask)
        if ignore.values.shape != gt.values.shape:
            raise InputError("ignore mask dimensions do not match ground truth")
    report = evaluate_masks(pred, gt, ignore=ignore, thresholds=cfg.eval_thresholds)
    (out / "report.json").write_text(report_to_json(report))
    (out / "report.csv").write_text(report_to_csv([(cfg.eval_label, report)]))
    logger.info(
        "evaluation: f1=%.4f iou=%.4f over %d pixels",
        report.f1,
        report.iou,
        report.pixel_confusion.total,
    )
    return report


def cmd_run(cfg: PipelineConfig) -> MetricsReport:
    """Full pipeline: fill, prompts, segment, eval."""
    validate_for(cfg, "run")
    cmd_fill(cfg)
    cmd_prompts(cfg)
    cmd_segment(cfg)
    return cmd_eval(cfg)
