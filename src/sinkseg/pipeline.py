"""The four pipeline stages, each reading/writing a shared output directory.

Stage artifacts (all deterministic — rerunning a stage overwrites the same
bytes, regardless of worker pool size):

``fill``
    ``depth.npz``: one float64 member ``<patch id>.npy`` per window in plan
    order, each window filled as if it were the whole raster (patch mode),
    or the one member ``depth.npy`` (mosaic mode); plus ``manifest.json``,
    the mosaic and tiling from which every later stage plans its windows.
    Both modes are one :func:`~sinkseg.hydro.region_depths` call: each
    block is filled once, in the worker pool, and joined into every region
    that holds it.
``prompts``
    ``boxes.jsonl``, one line per window in plan order (possibly with no
    boxes), and ``kept_mask.npz`` — each window's kept depression cells,
    folded into a mosaic with the configured merge rule over the cells
    where the window's depth is valid, kept as the one bool member
    ``mask.npy``.
``segment``
    ``fused_mask.npz`` — per-box masks fused once per patch (pixelwise max),
    patches folded with the configured merge rule, then binarized once,
    kept as the one bool member ``mask.npy``.  It reads ``boxes.jsonl``
    once and refuses patch ids that differ from the plan.  Only the echo
    backend reads ``kept_mask.npz``; like prompts, it checks the archive's
    header against the manifest before reading data.
``eval``
    ``report.json`` and ``report.csv`` against the ground-truth mask; it
    reads ``fused_mask.npz`` as segment reads the kept mask.

Every artifact is written to a temporary sibling and moved onto its name
with ``os.replace`` (:func:`_replacing`), so a stage that fails part-way
leaves no partial file and keeps what an earlier run wrote there.  Every
read of an artifact that an earlier stage wrote passes one gate,
:func:`_upstream`: a missing or malformed artifact exits 2 and names its
path and the stage that writes it.  :func:`cmd_run` runs the four stages
in order and passes nothing between them: fill, prompts and segment return
nothing, and only eval returns its report.  The masks are bare bool
grids; their georeference is the one ``manifest.json`` records (and
checks) for the mosaic.

Each stage maps its windows (fill: its blocks) through one worker pool,
:func:`_pool_map`, which yields results in order as they are ready.
Prompts and segment hand that stream straight to
:func:`~sinkseg.tiling.fold_tiles`, which folds each tile into the mosaic as
it arrives, so no stage holds a list of every tile.

Prompting is per-patch and independent: a depression overlapping several
windows may be prompted in each of them.  The duplicate masks collapse when
patches are folded, so the fused mosaic and everything downstream see one
object per depression.
"""

from __future__ import annotations

import ast
import io
import json
import logging
import math
import os
import zipfile
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, closing, contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from .config import FILL_MODES, PipelineConfig, validate_for
from .errors import InputError
from .hydro import region_depths
from .image import read_ppm
from .labeling import PromptSet, label_components, read_prompts, tile_prompts, write_prompts
from .metrics import MetricsReport, evaluate_masks, report_to_csv, report_to_json
from .raster import BinaryMask, Raster, invert_depth, read_ascii_grid, read_ascii_mask
from .segmenter import EchoBackend, HttpBackend, ReplayBackend, segment_patch
from .tiling import TileSpec, TileWindow, extract_tile, fold_tiles, patch_id, plan_tiles

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


@contextmanager
def _replacing(path: Path):
    """A temporary sibling of *path* for the block to write, moved onto
    *path* with ``os.replace`` when the block ends.  If the block raises,
    the temporary file is removed and *path* keeps what it held."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path: Path, text: str) -> None:
    with _replacing(path) as tmp:
        tmp.write_text(text)


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
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    _write_text(out / MANIFEST_NAME, text)


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


def _write_archive(path: Path, members) -> None:
    """Write the ``(name, array)`` pairs *members*, drawn one at a time, as
    ``np.savez_compressed`` would, but deflated at zlib level 1 with the
    run-length strategy, ``zlib.Z_RLE``: on the bench scenes it is faster
    and smaller than level 1's default for every archive.  zipfile takes no
    strategy, so each member's compressor is swapped before its first write.
    Members keep ``ZipInfo``'s fixed 1980 timestamp, so the bytes are
    stable, and each array's own buffer is deflated, with no copy.  The
    archive appears under *path* only once its last member is written.
    """
    with _replacing(path) as tmp, zipfile.ZipFile(
        tmp, "w", zipfile.ZIP_DEFLATED, compresslevel=1
    ) as archive:
        for name, array in members:
            array = np.ascontiguousarray(array)
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                member._compressor = zlib.compressobj(1, zlib.DEFLATED, -15, 8, zlib.Z_RLE)
                header = np.lib.format.header_data_from_array_1_0(array)
                np.lib.format.write_array_header_1_0(member, header)
                member.write(memoryview(array))


@contextmanager
def _open_archive(path: Path, stage: str):
    """The zip archive *path*, which the *stage* wrote, opened from a file
    object and its directory read under :func:`_upstream`; the block runs
    outside it.  Read its members on one thread: ``ZipFile.open`` counts
    the readers of the archive's file without a lock."""
    with ExitStack() as stack:
        with _upstream(path, stage):
            fh = stack.enter_context(open(path, "rb"))
            try:
                archive = stack.enter_context(zipfile.ZipFile(fh))
            except (EOFError, ValueError, NotImplementedError, zipfile.BadZipFile) as exc:
                raise InputError(f"unreadable archive ({exc})") from exc
        yield archive


def _check_order(found: list[str], expected: list[str], item: str) -> None:
    """Refuse *found* unless it is *expected*, naming the first *item*
    (counted from 1) that differs."""
    for number, (got, want) in enumerate(zip(found, expected), 1):
        if got != want:
            raise InputError(f"{item} {number} is {got!r}, expected {want!r}")
    if len(found) != len(expected):
        raise InputError(f"holds {len(found)} {item}s, expected {len(expected)}")


def _read_member(archive: zipfile.ZipFile, info: zipfile.ZipInfo, dtype, shape) -> np.ndarray:
    """The array of the member *info*, once its ``.npy`` header shows a 2-D
    array of *shape* and *dtype*: nothing else is read before, so a header
    that claims a huge array allocates nothing.  Only a plain stored or
    deflated member with a version 1.0 header, as :func:`_write_archive`
    writes, is read.  Call it inside :func:`_upstream`."""
    name = info.filename.removesuffix(".npy")
    plain = info.compress_type in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED)
    if not plain or info.flag_bits & 0x61:  # encrypted (flag bits 0, 6) or patched (bit 5)
        raise InputError(f"member {name} is not a plain stored or deflated member "
                         f"(method {info.compress_type}, flags {info.flag_bits:#x})")
    try:
        with archive.open(info) as member:
            if np.lib.format.read_magic(member) != (1, 0):
                raise InputError(f"member {name} is not a version 1.0 .npy array")
            size = member.read(2)
            header = member.read(int.from_bytes(size, "little"))
            try:  # else numpy would repair it as a header that Python 2 wrote
                ast.literal_eval(header.decode("latin1"))
            except (SyntaxError, RecursionError, MemoryError) as exc:
                raise InputError(f"member {name} has a header that is no Python literal") from exc
            found, _, found_dtype = np.lib.format.read_array_header_1_0(io.BytesIO(size + header))
            if len(found) != 2:
                raise InputError(f"{name} has {len(found)} dimensions, expected 2")
            if found != shape:
                raise InputError(f"{name} is {found[1]}x{found[0]}, expected {shape[1]}x{shape[0]}")
            if found_dtype != dtype:
                raise InputError(f"{name} has dtype {found_dtype}, expected {np.dtype(dtype)}")
            member.seek(0)
            return np.lib.format.read_array(member, allow_pickle=False)
    except (EOFError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise InputError(f"unreadable member {name} ({exc})") from exc


def _read_array(path: Path, stage: str, name: str, dtype, shape: tuple[int, int]) -> np.ndarray:
    """The array of the one-member archive *path*, which the *stage* wrote,
    checked by :func:`_read_member` before any data is read."""
    with _open_archive(path, stage) as archive, _upstream(path, stage):
        _check_order([n.removesuffix(".npy") for n in archive.namelist()], [name], "array")
        return _read_member(archive, archive.infolist()[0], dtype, shape)


def cmd_fill(cfg: PipelineConfig) -> None:
    """Fill depressions and write each window's depth, or the mosaic's, to
    ``depth.npz``; the windows are planned before anything is written."""
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
    if cfg.fill_mode == "patch":
        regions = [(w.row0, w.col0, w.patch, w.patch) for w in windows]
        names = [patch_id(w) for w in windows]
    else:
        regions, names = [(0, 0, dem.height, dem.width)], ["depth"]
    depths = region_depths(dem, regions, partial(_pool_map, cfg.workers))
    out.mkdir(parents=True, exist_ok=True)
    _write_archive(out / "depth.npz", zip(names, depths))
    logger.info("filled %d depth arrays (%s mode) into %s", len(names), cfg.fill_mode, out)
    _write_manifest(out, dem, cfg)


def cmd_prompts(cfg: PipelineConfig) -> None:
    """Label, filter, and box the depressions of every patch; write the
    boxes to ``boxes.jsonl`` and the kept-depression mask to
    ``kept_mask.npz``: each tile's kept cells, folded with the configured
    merge rule where the tile's depth is valid."""
    validate_for(cfg, "prompts")
    out = Path(cfg.out_dir)
    doc = _read_manifest(out)
    depth_path = out / "depth.npz"
    with _open_archive(depth_path, "fill") as archive:
        infos = archive.infolist()
        names = [info.filename.removesuffix(".npy") for info in infos]
        mosaic = None
        with _upstream(depth_path, "fill"):
            if doc["fill_mode"] == "mosaic":
                _check_order(names, ["depth"], "array")
                shape = (doc["height"], doc["width"])
                mosaic = _read_member(archive, infos[0], np.float64, shape)
            elif doc["patch"] <= min(doc["width"], doc["height"]):  # else _plan refuses it
                side = doc["patch"]  # the claimed last window is there only if fill wrote it
                last = patch_id(TileWindow(doc["height"] - side, doc["width"] - side, side))
                if names[-1:] != [last]:
                    raise InputError(f"ends with {names[-1:]}, but the manifest's last "
                                     f"window is {last!r}")
        windows = _plan(out, doc)
        if mosaic is None:
            with _upstream(depth_path, "fill"):  # exact: the last origins are extent - patch
                _check_order(names, [patch_id(w) for w in windows], "array")

        def read(k: int, window: TileWindow) -> Raster:
            with _upstream(depth_path, "fill"):  # a NaN depth is the archive's fault
                if mosaic is None:
                    values = _read_member(archive, infos[k], np.float64, (window.patch,) * 2)
                else:
                    values = mosaic[window.row0 : window.row0 + window.patch,
                                    window.col0 : window.col0 + window.patch]
                return Raster(values, doc["nodata"])

        def work(item: tuple[TileWindow, Raster]):
            window, depth_tile = item
            pid = patch_id(window)
            with _upstream(depth_path, "fill"):
                try:
                    grid = label_components(depth_tile)
                except ValueError as exc:  # a negative depth
                    raise InputError(f"{pid}: {exc}") from exc
            prompts[pid], kept = tile_prompts(grid, cfg.filter, cfg.pad_px, pid)
            return window, kept, depth_tile.valid_mask()

        prompts: dict[str, PromptSet] = {}
        # the pool draws its items, so the archive's reads, on this thread
        items = ((w, read(k, w)) for k, w in enumerate(windows))
        with closing(_pool_map(cfg.workers, work, items)) as tiles:
            kept, _ = fold_tiles(tiles, doc["height"], doc["width"], cfg.merge)
    with _replacing(out / "boxes.jsonl") as tmp:
        write_prompts([prompts[patch_id(w)] for w in windows], tmp)
    _write_archive(out / "kept_mask.npz", [("mask", kept > 0)])
    boxes = sum(len(p.boxes) for p in prompts.values())
    logger.info("wrote %d prompt boxes across %d patches", boxes, len(windows))


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


def cmd_segment(cfg: PipelineConfig) -> None:
    """Segment every patch from its box prompts, fold the patches and write
    the cells above ``binarize_threshold`` to ``fused_mask.npz``.

    The echo backend paints the kept mask it reads from ``kept_mask.npz``.
    """
    validate_for(cfg, "segment")
    out = Path(cfg.out_dir)
    doc = _read_manifest(out)

    rgb = read_ppm(cfg.rgb_mosaic)
    if (rgb.height, rgb.width) != (doc["height"], doc["width"]):
        raise InputError(
            f"rgb mosaic is {rgb.width}x{rgb.height} but the fill manifest says "
            f"{doc['width']}x{doc['height']}"
        )
    windows = _plan(out, doc)
    shared_backend = _build_shared_backend(cfg)
    if shared_backend is None:  # echo paints the kept mask
        shape = (doc["height"], doc["width"])
        values = _read_array(out / "kept_mask.npz", "prompts", "mask", np.bool_, shape)
        kept = BinaryMask(values)
    boxes_path = out / "boxes.jsonl"
    with _upstream(boxes_path, "prompts"):
        prompt_sets = read_prompts(boxes_path)
        _check_order([p.patch_id for p in prompt_sets], [patch_id(w) for w in windows], "line")
        for line, (prompts, window) in enumerate(zip(prompt_sets, windows), 1):
            for box in prompts.boxes:
                if box.x1 > window.patch or box.y1 > window.patch:
                    raise InputError(f"line {line}: box {box.as_list()} exceeds patch "
                                     f"{window.patch}x{window.patch}")

    def work(item: tuple[TileWindow, PromptSet]):
        window, prompts = item
        patch_img = extract_tile(rgb, window)
        backend = shared_backend or EchoBackend(extract_tile(kept, window))
        probs = segment_patch(backend, patch_img, prompts.boxes, patch_id=prompts.patch_id)
        return window, probs, None  # every probability is valid, whatever the DEM's nodata

    tiles = _pool_map(cfg.workers, work, zip(windows, prompt_sets))
    probs, _ = fold_tiles(tiles, doc["height"], doc["width"], cfg.merge)
    _write_archive(out / "fused_mask.npz", [("mask", probs > cfg.binarize_threshold)])
    logger.info("fused mask written to %s", out / "fused_mask.npz")


def cmd_eval(cfg: PipelineConfig) -> MetricsReport:
    """Evaluate ``fused_mask.npz``, shaped by the manifest, against ground
    truth; write JSON + CSV."""
    validate_for(cfg, "eval")
    out = Path(cfg.out_dir)
    doc = _read_manifest(out)
    shape = (doc["height"], doc["width"])
    values = _read_array(out / "fused_mask.npz", "segment", "mask", np.bool_, shape)
    pred = BinaryMask(values)
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
    _write_text(out / "report.json", report_to_json(report))
    _write_text(out / "report.csv", report_to_csv([(cfg.eval_label, report)]))
    logger.info(
        "evaluation: f1=%.4f iou=%.4f over %d pixels",
        report.f1,
        report.iou,
        report.pixel_confusion.total,
    )
    return report


def cmd_run(cfg: PipelineConfig) -> MetricsReport:
    """Full pipeline: fill, prompts, segment, eval, each reading what the last wrote."""
    validate_for(cfg, "run")
    cmd_fill(cfg)
    cmd_prompts(cfg)
    cmd_segment(cfg)
    return cmd_eval(cfg)
