"""The four pipeline stages, each reading/writing a shared output directory.

Stage artifacts (all deterministic — rerunning a stage overwrites the same
bytes, regardless of worker pool size):

``fill``
    ``depressions.npz``: two members per window, in plan order.
    ``<patch id>.npy`` holds the window's depression cells, a bool grid
    true where its depth is > 0, and ``<patch id>_max_depth.npy`` the
    float64 maximum depth of each of their 8-connected components, in
    label order, as :func:`~sinkseg.labeling.label_components` numbers
    them.  In patch mode each window is filled as if it were the whole
    raster; in mosaic mode the raster is filled once and each window cut
    from it, so a component the window clips keeps the clipped maximum.
    Plus ``manifest.json``, the mosaic's extent and georeference and the
    tiling from which every later stage plans its windows.  Both modes are
    one :func:`~sinkseg.hydro.region_depths` call: each block is filled
    once, in the worker pool, and joined into every region that holds it.
    The per-cell depth is not written: it stays available from the
    library, through ``region_depths`` and ``fill_depressions``.  The DEM's
    nodata ends here: a nodata cell is an outlet, so it is in no
    depression, and neither the archive nor the manifest records the
    sentinel.
``prompts``
    ``boxes.jsonl``, one line per window in plan order (possibly with no
    boxes, and without the boxes left to an earlier window, as the last
    paragraph says), and ``kept_mask.npz`` — each window's kept depression cells,
    folded into a mosaic with the configured merge rule over every cell of
    the window, kept as the one bool member ``mask.npy``.  Prompts labels
    each window's cells again, which numbers the components as fill did,
    and takes their maximum depths from the stored vector once it holds
    one finite value > 0 per component.
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

Prompting is per-patch: each window's cells are labelled, filtered and
boxed on their own.  In mosaic mode every window is cut from one fill, so a
box that reaches no window edge inside the mosaic bounds a whole component,
which every window that holds the box labels, keeps and boxes alike.  Under
``merge=max`` or ``first``, only the first of them in plan order writes the
box (:func:`_unheld`): under ``max`` the union of boxes stays the same, and
under ``first`` that window decides every cell of the box.  So a real model
sees each whole depression once, in one context.  A box that reaches such
an edge, every box under ``merge=mean`` (which averages every window's
opinion) and every box in patch mode (where each window has its own fill)
is written in each window that holds it, and the duplicate masks collapse
when patches are folded.  Prompts decides by its own ``merge``, as its
kept-mask fold does.
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
from bisect import bisect_left
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, closing, contextmanager
from functools import partial
from itertools import compress
from pathlib import Path

import numpy as np

from .config import FILL_MODES, PipelineConfig, validate_for
from .errors import InputError
from .hydro import region_depths
from .image import read_ppm
from .labeling import (PromptSet, components_from_mask, label_components, read_prompts,
                       tile_prompts, write_prompts)
from .metrics import MetricsReport, evaluate_masks, report_to_csv, report_to_json
from .raster import invert_depth, read_ascii_grid, read_ascii_mask
from .segmenter import EchoBackend, HttpBackend, ReplayBackend, segment_patch
from .tiling import MergeRule, TileSpec, TileWindow, fold_tiles, patch_id, plan_tiles

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
_MANIFEST_INTS = ("width", "height", "patch", "stride")
_GEOREFERENCE = ("origin_x", "origin_y", "cellsize")
_MANIFEST_KEYS = (*_MANIFEST_INTS, *_GEOREFERENCE, "fill_mode", "invert_depth")
_INFLATE_MAX = 1032  # the most bytes that deflate inflates one compressed byte to
_READ_PIECE = 1 << 18


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
    the temporary file is removed and *path* keeps what it held; an
    ``OSError`` on the temporary file is re-raised naming *path*."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            exc.filename, exc.filename2 = str(path), None
        raise


def _write_text(path: Path, text: str) -> None:
    with _replacing(path) as tmp:
        tmp.write_text(text)


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
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
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
        for key in _GEOREFERENCE:
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
    """The array of the member *info*, once its ``.npy`` header shows an
    array of *shape*, of any rank, and *dtype*: nothing else is read
    before, so a header that claims a huge array allocates nothing.  The
    array is allocated
    only once the archive's directory gives the member the size that header
    implies, a size deflate could inflate the archive's bytes to, so a
    forged directory cannot ask for more either.  The data is read into it
    in pieces, so one copy is live, and one byte more shows the member end:
    a member short or long of its claim is refused.  Only a plain stored or
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
            found, fortran, found_dtype = np.lib.format.read_array_header_1_0(io.BytesIO(size + header))
            if len(found) != len(shape):
                raise InputError(f"{name} has {len(found)} dimensions, expected {len(shape)}")
            if found != shape and len(shape) == 1:
                raise InputError(f"{name} holds {found[0]} values, expected {shape[0]}")
            if found != shape:  # a grid's shape as width x height
                raise InputError(f"{name} is {'x'.join(map(str, found[::-1]))}, "
                                 f"expected {'x'.join(map(str, shape[::-1]))}")
            if found_dtype != dtype:
                raise InputError(f"{name} has dtype {found_dtype}, expected {np.dtype(dtype)}")
            count = math.prod(shape) * found_dtype.itemsize
            on_disk = os.fstat(archive.fp.fileno()).st_size
            if info.file_size == member.tell() + count and count <= _INFLATE_MAX * on_disk:
                data = np.empty(count, np.uint8)
                view, got = memoryview(data), 0
                while got < count and (n := member.readinto(view[got : got + _READ_PIECE])):
                    got += n
                if got == count and not member.read(1):  # one byte over, to see the member end
                    return data.view(found_dtype).reshape(shape, order="F" if fortran else "C")
            raise InputError(f"member {name} does not hold the {count} data bytes "
                             f"its header claims")
    except (EOFError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise InputError(f"unreadable member {name} ({exc})") from exc


def _read_array(path: Path, stage: str, name: str, dtype, shape: tuple[int, int]) -> np.ndarray:
    """The array of the one-member archive *path*, which the *stage* wrote,
    checked by :func:`_read_member` before any data is read."""
    with _open_archive(path, stage) as archive, _upstream(path, stage):
        _check_order([n.removesuffix(".npy") for n in archive.namelist()], [name], "array")
        return _read_member(archive, archive.infolist()[0], dtype, shape)


def _depressions(windows: list[TileWindow], depths):
    """The members of ``depressions.npz`` for *windows* and their *depths*,
    in order: each window's depression cells, named by its patch id, and
    its components' maximum depths in label order.  Each window is labelled
    as its members are drawn, just before they are written."""
    for window, depth in zip(windows, depths, strict=True):
        name = patch_id(window)
        yield name, depth > 0
        yield f"{name}_max_depth", label_components(depth).max_depth[1:]


def cmd_fill(cfg: PipelineConfig) -> None:
    """Fill depressions and write each window's depression cells and
    maximum depths to ``depressions.npz``; the windows are planned before
    anything is written."""
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
    pool = partial(_pool_map, cfg.workers)
    if cfg.fill_mode == "patch":
        depths = region_depths(dem, [(w.row0, w.col0, w.patch, w.patch) for w in windows], pool)
    else:
        (mosaic,) = region_depths(dem, [(0, 0, dem.height, dem.width)], pool)
        depths = (mosaic[w.cells] for w in windows)
    out.mkdir(parents=True, exist_ok=True)
    _write_archive(out / "depressions.npz", _depressions(windows, depths))
    logger.info("filled %d windows (%s mode); their depressions are in %s",
                len(windows), cfg.fill_mode, out)
    doc = {"width": dem.width, "height": dem.height, "patch": cfg.tile.patch,
           "stride": cfg.tile.stride, "origin_x": dem.origin_x, "origin_y": dem.origin_y,
           "cellsize": dem.cellsize, "fill_mode": cfg.fill_mode, "invert_depth": cfg.invert_depth}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    _write_text(out / MANIFEST_NAME, text)


def _unheld(prompts: PromptSet, window: TileWindow, rows: list[int],
            cols: list[int]) -> tuple[PromptSet, int]:
    """*prompts* of a window cut from the mosaic fill without the boxes that
    an earlier window holds whole, and how many boxes that drops.

    A box that reaches an edge of *window* lying inside the mosaic stays,
    since its component may go on past that edge.  Any other box bounds a
    whole component of the fill; the first window in plan order that holds
    the box labels, keeps and boxes that component alike, so it writes the
    box.  It is the one at the smallest of the plan's row and column
    origins, *rows* and *cols* (ascending), that are >= the box's bottom
    and right - patch.  The last origins are the only ones whose windows
    end at the mosaic's bottom and right edges.
    """
    r0, c0, patch = window.row0, window.col0, window.patch
    keep = []
    for box in prompts.boxes:
        bottom, right = r0 + box.y1, c0 + box.x1
        inner_edge = (box.y0 == 0 < r0 or box.x0 == 0 < c0
                      or box.y1 == patch and r0 < rows[-1] or box.x1 == patch and c0 < cols[-1])
        first = rows[bisect_left(rows, bottom - patch)], cols[bisect_left(cols, right - patch)]
        keep.append(inner_edge or first == (r0, c0))
    boxes, areas, max_depths = (list(compress(values, keep)) for values in
                                (prompts.boxes, prompts.areas, prompts.max_depths))
    return PromptSet(prompts.patch_id, boxes, areas, max_depths), keep.count(False)


def cmd_prompts(cfg: PipelineConfig) -> None:
    """Label, filter, and box the depressions of every patch; write the
    boxes to ``boxes.jsonl`` and the kept-depression mask to
    ``kept_mask.npz``: each tile's kept cells, folded with the configured
    merge rule over every cell of the tile, as segment folds its tiles.

    In mosaic mode under ``merge=max`` or ``first``, a box that an earlier
    window holds whole is left to that window (:func:`_unheld`)."""
    validate_for(cfg, "prompts")
    out = Path(cfg.out_dir)
    doc = _read_manifest(out)
    path = out / "depressions.npz"
    with _open_archive(path, "fill") as archive:
        infos = archive.infolist()
        names = [info.filename.removesuffix(".npy") for info in infos]
        with _upstream(path, "fill"):
            if doc["patch"] <= min(doc["width"], doc["height"]):  # else _plan refuses it
                side = doc["patch"]  # the claimed last window is there only if fill wrote it
                last = patch_id(TileWindow(doc["height"] - side, doc["width"] - side, side))
                if names[-1:] != [f"{last}_max_depth"]:
                    raise InputError(f"ends with {names[-1:]}, but the manifest's last "
                                     f"window is {last!r}")
        windows = _plan(out, doc)
        with _upstream(path, "fill"):  # exact: the last origins are extent - patch
            _check_order(names, [name for w in windows
                                 for name in (patch_id(w), f"{patch_id(w)}_max_depth")], "array")

        def read(k: int, window: TileWindow):
            """The window's components, labelled from its depression cells,
            with the maximum depths fill stored for them."""
            with _upstream(path, "fill"):
                cells = _read_member(archive, infos[2 * k], np.bool_, (window.patch,) * 2)
                vector = infos[2 * k + 1]
                try:
                    grid = components_from_mask(
                        cells, lambda n: _read_member(archive, vector, np.float64, (n,)))
                except ValueError as exc:
                    raise InputError(f"member {names[2 * k + 1]}: {exc}") from exc
            return window, grid

        def work(item):
            window, grid = item
            pid = patch_id(window)
            prompts[pid], kept = tile_prompts(grid, cfg.filter, cfg.pad_px, pid)
            if once:
                prompts[pid], held[pid] = _unheld(prompts[pid], window, rows, cols)
            return window, kept, None

        prompts: dict[str, PromptSet] = {}
        held: dict[str, int] = {}
        # exact only where every window is cut from one fill and the fold does not average them
        once = doc["fill_mode"] == "mosaic" and cfg.merge in (MergeRule.MAX, MergeRule.FIRST)
        rows, cols = sorted({w.row0 for w in windows}), sorted({w.col0 for w in windows})
        # the pool draws its items, so the archive's reads and the labelling, on this thread
        items = (read(k, w) for k, w in enumerate(windows))
        with closing(_pool_map(cfg.workers, work, items)) as tiles:
            kept, _ = fold_tiles(tiles, doc["height"], doc["width"], cfg.merge)
    with _replacing(out / "boxes.jsonl") as tmp:
        write_prompts([prompts[patch_id(w)] for w in windows], tmp)
    _write_archive(out / "kept_mask.npz", [("mask", kept > 0)])
    boxes = sum(len(p.boxes) for p in prompts.values())
    logger.info("wrote %d prompt boxes across %d patches (%d held by an earlier window)",
                boxes, len(windows), sum(held.values()))


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
    if rgb.shape[:2] != (doc["height"], doc["width"]):
        raise InputError(
            f"rgb mosaic is {rgb.shape[1]}x{rgb.shape[0]} but the fill manifest says "
            f"{doc['width']}x{doc['height']}"
        )
    windows = _plan(out, doc)
    shared_backend = _build_shared_backend(cfg)
    if shared_backend is None:  # echo paints the kept mask
        shape = (doc["height"], doc["width"])
        kept = _read_array(out / "kept_mask.npz", "prompts", "mask", np.bool_, shape)
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
        backend = shared_backend or EchoBackend(kept[window.cells])
        probs = segment_patch(backend, rgb[window.cells], prompts.boxes, patch_id=prompts.patch_id)
        return window, probs, None  # every probability counts

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
    pred = _read_array(out / "fused_mask.npz", "segment", "mask", np.bool_, shape)
    gt = read_ascii_mask(cfg.eval_gt_mask)
    if pred.shape != gt.shape:
        raise InputError(
            f"prediction is {pred.shape[1]}x{pred.shape[0]} but ground truth is "
            f"{gt.shape[1]}x{gt.shape[0]}"
        )
    ignore = None
    if cfg.eval_ignore_mask is not None:
        ignore = read_ascii_mask(cfg.eval_ignore_mask)
        if ignore.shape != gt.shape:
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
