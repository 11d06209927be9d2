"""The four pipeline stages, each reading/writing a shared output directory.

Stage artifacts (all deterministic — rerunning a stage overwrites the same
bytes, regardless of worker pool size):

``fill``
    ``patches/<id>.depth.npz`` (per-patch mode: each window filled as if it
    were the whole raster) or ``depth.npz`` (mosaic mode), plus
    ``manifest.json`` describing the mosaic and tiling so later stages need
    no access to the original input; every stage derives its windows from
    the manifest.  Both modes are one :func:`~sinkseg.hydro.region_depths`
    call over the windows (patch) or the one region covering the raster
    (mosaic): each block is filled once, in the worker pool, and joined into
    every region that holds it.  A depth file is a zip archive whose one
    member ``depth.npy`` holds a float64 array; its georeference and nodata
    come from the manifest.  Only prompts reads it.
``prompts``
    ``patches/<id>.boxes.json`` per patch (possibly empty box lists) and
    ``kept_mask.npz`` — the filtered depressions stitched back into a mosaic
    with the configured merge rule, kept as the one bool member
    ``mask.npy``: True where that mosaic is valid and > 0.
``segment``
    ``fused_mask.asc`` — per-box masks fused once per patch (pixelwise max),
    patches stitched with the configured merge rule, then binarized once.
    Only the echo backend reads ``kept_mask.npz``; like prompts, it checks
    the archive's header against the manifest before reading data.
``eval``
    ``report.json`` and ``report.csv`` against the ground-truth mask.

Every read of an artifact that an earlier stage wrote passes one gate,
:func:`_upstream`: a missing or malformed artifact exits 2 and names its
path and the stage that writes it.  :func:`cmd_run` still writes every
artifact, but hands the kept mask (to the echo backend) and the fused mask
to the next stage in memory instead of reading them back; the fill's depth
archives remain the fill → prompts hand-off.  Every ``.npz`` archive is
written by :func:`_write_archive`: zlib level 1 with the run-length
strategy, without a copy of the array.

Each stage maps its windows (fill: its blocks) through one worker pool,
:func:`_pool_map`, which yields results in order as they are ready.
Prompts and segment hand that stream straight to
:func:`~sinkseg.tiling.stitch`, which folds each tile into the mosaic as it
arrives, so no stage holds a list of every tile.

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
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from .config import FILL_MODES, PipelineConfig, validate_for
from .errors import InputError
from .hydro import region_depths
from .image import read_ppm
from .labeling import label_components, read_prompts, tile_prompts, write_prompts
from .metrics import MetricsReport, evaluate_masks, report_to_csv, report_to_json
from .raster import (
    BinaryMask,
    Raster,
    binarize,
    invert_depth,
    read_ascii_grid,
    read_ascii_mask,
    write_ascii_mask,
)
from .segmenter import EchoBackend, HttpBackend, ReplayBackend, segment_patch
from .tiling import (
    TileSpec,
    TileWindow,
    extract_tile,
    patch_id,
    plan_tiles,
    stitch,
    window_georef,
)

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
_MANIFEST_INTS = ("width", "height", "patch", "stride")
_MANIFEST_FLOATS = ("origin_x", "origin_y", "cellsize", "nodata")
_MANIFEST_KEYS = (*_MANIFEST_INTS, *_MANIFEST_FLOATS, "fill_mode", "invert_depth")


def _pool_map(workers: int, fn, items):
    """Yield *fn* over *items* in order, each as it is ready; thread pool if
    workers > 1.  A yielded result is not held here once the caller moves on,
    and the pool runs at most ``2 * workers`` items ahead of the caller, so
    results do not pile up behind a slower consumer."""
    if workers <= 1:
        yield from map(fn, items)
        return
    pool = ThreadPoolExecutor(max_workers=workers)
    ahead = deque()
    try:
        for item in items:
            ahead.append(pool.submit(fn, item))
            if len(ahead) > 2 * workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:  # after an error or an early close, start nothing more
        pool.shutdown(cancel_futures=True)


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


@contextmanager
def _upstream(path: Path, stage: str):
    """Gate a read of *path*, an artifact the *stage* wrote.

    A missing artifact asks for the stage to be run.  An ``InputError``,
    ``ValueError`` or ``OSError`` (say, a directory where the file should
    be) raised in the block is re-raised naming *path* once and the stage to
    rerun; an ``InputError`` keeps its class.  Keep the block to the read
    and its checks, so that an internal bug is not reported as bad input.
    """
    if not path.exists():
        raise InputError(f"{path} not found — run the {stage} stage first")
    try:
        yield
    except (InputError, ValueError, OSError) as exc:  # an OSError by its reason, not its path
        what = getattr(exc, "strerror", None) or str(exc).removeprefix(f"{path}: ")
        error = type(exc) if isinstance(exc, InputError) else InputError
        raise error(f"{path}: {what} — rerun the {stage} stage") from exc


def _read_manifest(out: Path) -> dict:
    """The validated manifest.

    Its windows are planned by :func:`_plan`, once the stage has compared
    the claimed extent with a file of real size, so a claim larger than
    what fill wrote is refused before it is planned or allocated.
    """
    path = out / MANIFEST_NAME
    with _upstream(path, "fill"):
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise InputError(f"not valid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise InputError("expected a JSON object")
        missing = [key for key in _MANIFEST_KEYS if key not in doc]
        if missing:
            raise InputError(f"missing {', '.join(missing)}")

        def bad(key: str, expected: str) -> InputError:
            return InputError(f"{key} must be {expected}, got {doc[key]!r}")

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
        TileSpec(doc["patch"], doc["stride"])  # checks patch and stride
    return doc


def _plan(out: Path, doc: dict) -> list[TileWindow]:
    """The windows of the manifest *doc*; a patch larger than the extent is
    the manifest's fault."""
    with _upstream(out / MANIFEST_NAME, "fill"):
        return plan_tiles(doc["width"], doc["height"], TileSpec(doc["patch"], doc["stride"]))


def _is_finite_number(value) -> bool:
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _georef(doc: dict, window: TileWindow | None = None) -> tuple[float, float, float]:
    """The manifest's mosaic georeference, or that of *window* within it."""
    georef = doc["origin_x"], doc["origin_y"], doc["cellsize"]
    return georef if window is None else window_georef(window, doc["height"], georef)


def _write_archive(array: np.ndarray, path: Path, name: str) -> None:
    """Write *array* as ``np.savez_compressed(path, **{name: array})`` would,
    but deflated at zlib level 1 with the run-length strategy.

    ``zlib.Z_RLE`` looks for runs of one byte value only, which is what the
    zeros of a depth grid and the flat stretches of a mask are made of: on
    the bench scenes it deflates faster than level 1's default strategy and
    writes fewer bytes for every archive.  zipfile takes no strategy, so the
    member's compressor is swapped before its first write; the stream is
    plain deflate, and any zip reader inflates it.  The member keeps
    ``ZipInfo``'s fixed 1980 timestamp, so the bytes are stable.  The
    array's own buffer is deflated, so no copy of it is made (numpy's
    ``write_array`` copies a zip member out in 16 MiB chunks).
    """
    array = np.ascontiguousarray(array)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED, compresslevel=1) as archive:
        with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
            member._compressor = zlib.compressobj(1, zlib.DEFLATED, -15, 8, zlib.Z_RLE)
            header = np.lib.format.header_data_from_array_1_0(array)
            np.lib.format.write_array_header_1_0(member, header)
            member.write(memoryview(array))


@contextmanager
def _archive_member(path: Path, name: str, dtype, shape: tuple[int, int]):
    """The rewound ``<name>.npy`` member of the archive *path*, once its
    header shows a 2-D array of *shape* and *dtype*; nothing else is read.
    A read error in the block is reported as one of *path*; an ``OSError``,
    which names *path* itself, is left to :func:`_upstream`."""
    try:
        with open(path, "rb") as fh:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise InputError("not an .npz archive")
            with archive:
                if archive.files != [name]:
                    raise InputError(f"expected exactly one array '{name}', found {archive.files}")
                with archive.zip.open(archive.zip.namelist()[0]) as member:
                    version = np.lib.format.read_magic(member)
                    if version == (1, 0):
                        found, _, found_dtype = np.lib.format.read_array_header_1_0(member)
                    else:
                        found, _, found_dtype = np.lib.format.read_array_header_2_0(member)
                    if len(found) != 2:
                        raise InputError(f"{name} has {len(found)} dimensions, expected 2")
                    if found != shape:
                        raise InputError(
                            f"{name} is {found[1]}x{found[0]}, expected {shape[1]}x{shape[0]}"
                        )
                    if found_dtype != dtype:
                        raise InputError(
                            f"{name} has dtype {found_dtype}, expected {np.dtype(dtype)}"
                        )
                    member.seek(0)
                    yield member
    except (EOFError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise InputError(f"unreadable {name} archive ({exc})") from exc


def _read_array(path: Path, name: str, dtype, shape: tuple[int, int]) -> np.ndarray:
    """The array of the one-member archive *path*, checked by
    :func:`_archive_member` before any data is read, so a header that claims
    a huge array allocates nothing.  Call it inside :func:`_upstream`."""
    with _archive_member(path, name, dtype, shape) as member:
        return np.lib.format.read_array(member, allow_pickle=False)


def _read_depth(path: Path, stage: str, doc: dict, window: TileWindow | None = None) -> Raster:
    """Load the depth archive the *stage* wrote for *window* (None: the mosaic).

    The array must be float64 with the shape the manifest gives.
    Georeference and nodata are rebuilt from the manifest.
    """
    shape = (doc["height"], doc["width"]) if window is None else (window.patch,) * 2
    with _upstream(path, stage):
        values = _read_array(path, "depth", np.float64, shape)
        return Raster(values, doc["nodata"], *_georef(doc, window))


def cmd_fill(cfg: PipelineConfig) -> None:
    """Fill depressions and write the depth per window or of the mosaic.
    The windows are planned first in both modes, before anything is written."""
    validate_for(cfg, "fill")
    dem = read_ascii_grid(cfg.depth_raster)
    if cfg.invert_depth:
        try:
            dem = invert_depth(dem)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    try:
        windows = plan_tiles(dem.width, dem.height, cfg.tile)
    except ValueError as exc:
        raise InputError(f"tile.{exc}") from exc
    out = Path(cfg.out_dir)
    patches = out / "patches"
    if cfg.fill_mode == "patch":
        regions = [(w.row0, w.col0, w.patch, w.patch) for w in windows]
        paths = [patches / f"{patch_id(w)}.depth.npz" for w in windows]
    else:
        regions, paths = [(0, 0, dem.height, dem.width)], [out / "depth.npz"]
    depths = region_depths(dem, regions, partial(_pool_map, cfg.workers))
    patches.mkdir(parents=True, exist_ok=True)
    for depth, path in zip(depths, paths):
        _write_archive(depth, path, "depth")
    logger.info("filled %d depth archives (%s mode) into %s", len(paths), cfg.fill_mode, out)
    _write_manifest(out, dem, cfg)


def cmd_prompts(cfg: PipelineConfig) -> BinaryMask:
    """Label, filter, and box the depressions of every patch.

    Returns the kept-depression mask it wrote to ``kept_mask.npz``: the
    cells of the filtered tiles, stitched, that are valid and > 0.
    """
    validate_for(cfg, "prompts")
    out = Path(cfg.out_dir)
    doc = _read_manifest(out)
    patches = out / "patches"
    patches.mkdir(parents=True, exist_ok=True)

    mosaic_path = out / "depth.npz"
    depth_mosaic = None
    if doc["fill_mode"] == "mosaic":
        depth_mosaic = _read_depth(mosaic_path, "fill", doc)
    elif doc["patch"] <= min(doc["width"], doc["height"]):  # else _plan refuses the manifest
        # the claimed bottom-right window has an archive only if fill wrote that extent
        side = doc["patch"]
        last = TileWindow(doc["height"] - side, doc["width"] - side, side)
        last_path = patches / f"{patch_id(last)}.depth.npz"
        with _upstream(last_path, "fill"), _archive_member(
            last_path, "depth", np.float64, (side, side)
        ):
            pass
    windows = _plan(out, doc)

    def work(window: TileWindow):
        if depth_mosaic is not None:
            depth_path, depth_tile = mosaic_path, extract_tile(depth_mosaic, window)
        else:
            depth_path = patches / f"{patch_id(window)}.depth.npz"
            depth_tile = _read_depth(depth_path, "fill", doc, window)
        with _upstream(depth_path, "fill"):  # negative depth
            grid = label_components(depth_tile)
        prompts, filtered = tile_prompts(
            depth_tile, grid, cfg.filter, cfg.pad_px, patch_id(window)
        )
        write_prompts(prompts, patches / f"{prompts.patch_id}.boxes.json")
        box_counts.append(len(prompts.boxes))  # one append: safe across pool threads
        return window, filtered

    box_counts: list[int] = []
    tiles = _pool_map(cfg.workers, work, windows)
    mosaic = stitch(tiles, doc["width"], doc["height"], cfg.merge)
    kept = BinaryMask(mosaic.valid_mask() & (mosaic.values > 0), *_georef(doc))
    del mosaic
    _write_archive(kept.values, out / "kept_mask.npz", "mask")
    logger.info("wrote %d prompt boxes across %d patches", sum(box_counts), len(windows))
    return kept


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
    return None  # echo is built per patch from the kept mask


def cmd_segment(cfg: PipelineConfig, kept: BinaryMask | None = None) -> BinaryMask:
    """Segment every patch from its box prompts and stitch the fused mask.

    The echo backend paints *kept*, the prompts stage's kept-depression
    mask; when it is None it is read from ``kept_mask.npz``.  Returns the
    fused mask it wrote to ``fused_mask.asc``.
    """
    validate_for(cfg, "segment")
    out = Path(cfg.out_dir)
    patches = out / "patches"
    doc = _read_manifest(out)

    rgb = read_ppm(cfg.rgb_mosaic)
    if (rgb.height, rgb.width) != (doc["height"], doc["width"]):
        raise InputError(
            f"rgb mosaic is {rgb.width}x{rgb.height} but the fill manifest says "
            f"{doc['width']}x{doc['height']}"
        )
    windows = _plan(out, doc)
    shared_backend = _build_shared_backend(cfg)
    if shared_backend is None and kept is None:  # echo paints the kept mask
        kept_path = out / "kept_mask.npz"
        with _upstream(kept_path, "prompts"):
            values = _read_array(kept_path, "mask", np.bool_, (doc["height"], doc["width"]))
            kept = BinaryMask(values, *_georef(doc))

    def work(window: TileWindow):
        pid = patch_id(window)
        boxes_path = patches / f"{pid}.boxes.json"
        with _upstream(boxes_path, "prompts"):
            prompts = read_prompts(boxes_path)
            if prompts.patch_id != pid:
                raise InputError(f"patch_id {prompts.patch_id!r} does not match window {pid!r}")
            for box in prompts.boxes:
                if box.x1 > window.patch or box.y1 > window.patch:
                    raise InputError(
                        f"box {box.as_list()} exceeds patch {window.patch}x{window.patch}"
                    )
        patch_img = extract_tile(rgb, window)
        backend = shared_backend or EchoBackend(extract_tile(kept, window))
        probs = segment_patch(backend, patch_img, prompts.boxes, patch_id=pid)
        origin_x, origin_y, cellsize = _georef(doc, window)
        # Default nodata: the DEM's sentinel may be a probability, e.g. 0.0.
        tile = Raster(probs, origin_x=origin_x, origin_y=origin_y, cellsize=cellsize)
        return window, tile

    tiles = _pool_map(cfg.workers, work, windows)
    prob_mosaic = stitch(tiles, doc["width"], doc["height"], cfg.merge)
    fused = binarize(prob_mosaic, cfg.binarize_threshold)
    write_ascii_mask(fused, out / "fused_mask.asc")
    logger.info("fused mask written to %s", out / "fused_mask.asc")
    return fused


def cmd_eval(cfg: PipelineConfig, fused: BinaryMask | None = None) -> MetricsReport:
    """Evaluate the fused mask against ground truth; write JSON + CSV.

    *fused* is the segment stage's product; when it is None it is read from
    ``fused_mask.asc``.
    """
    validate_for(cfg, "eval")
    out = Path(cfg.out_dir)
    pred = fused
    if pred is None:
        fused_path = out / "fused_mask.asc"
        with _upstream(fused_path, "segment"):
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
    """Full pipeline: fill, prompts, segment, eval.

    Each stage still writes its artifacts, but the kept mask and the fused
    mask pass to their consumer in memory.  Each product is dropped as
    soon as its consumer is done, so the run holds no more than the stages
    run one by one.
    """
    validate_for(cfg, "run")
    cmd_fill(cfg)
    kept = cmd_prompts(cfg)
    if cfg.backend_kind != "echo":  # the only backend that reads it
        kept = None
    fused = cmd_segment(cfg, kept)
    del kept
    return cmd_eval(cfg, fused)
