"""Stage orchestration: artifacts, composition, determinism, backends."""

import base64
import json
import os
import time
import weakref
import zipfile
import zlib
from contextlib import nullcontext
from dataclasses import replace
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import record_segment, serving, tree_digests
from sinkseg.cli import main
from sinkseg.config import PipelineConfig
from sinkseg.errors import InputError
from sinkseg.hydro import fill_depressions, region_depths
from sinkseg.image import pgm_bytes, ppm_bytes, read_ppm, write_ppm
from sinkseg.labeling import FilterThresholds, label_components, read_prompts, tile_prompts
from sinkseg.metrics import evaluate_masks, report_to_json
from sinkseg.mock_server import MockSegmentServer
from sinkseg import hydro, pipeline
from sinkseg.pipeline import cmd_eval, cmd_fill, cmd_prompts, cmd_run, cmd_segment
from sinkseg.raster import (
    Raster,
    invert_depth,
    read_ascii_grid,
    read_ascii_mask,
    write_ascii_grid,
    write_ascii_mask,
)
from sinkseg.synth import export_scene, gen_terrain
from sinkseg.tiling import MergeRule, TileSpec, extract_tile, fold_tiles, patch_id, plan_tiles

SCENE = dict(seed=21, width=128, height=128, n_sinkholes=3,
             depth_range=(3.0, 8.0), radius_range=(8.0, 12.0))
TILE = TileSpec(patch=64, stride=32)  # 3x3 windows over 128x128


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("scene")
    scene = gen_terrain(**SCENE)
    export_scene(scene, d)
    return d


def manifest_windows(out_dir):
    """Patch id -> window, planned from the fill stage's manifest."""
    doc = json.loads((Path(out_dir) / "manifest.json").read_text())
    spec = TileSpec(doc["patch"], doc["stride"])
    return {patch_id(w): w for w in plan_tiles(doc["width"], doc["height"], spec)}


def load_depressions(out_dir, pid):
    """The depression cells and maximum depths of window *pid* in the
    ``depressions.npz`` that the fill stage wrote into *out_dir*."""
    with np.load(Path(out_dir) / "depressions.npz", allow_pickle=False) as archive:
        cells, max_depth = archive[pid], archive[f"{pid}_max_depth"]
    assert cells.dtype == np.bool_ and max_depth.dtype == np.float64
    return cells, max_depth


def assert_depressions_of(out_dir, pid, depth):
    """Window *pid*'s members hold the cells and maxima of its *depth*."""
    cells, max_depth = load_depressions(out_dir, pid)
    assert np.array_equal(cells, depth > 0)
    assert np.array_equal(max_depth, label_components(depth).max_depth[1:])


def load_mask(out_dir, name="kept_mask"):
    """The bool array of a mask archive: the kept-depression mask the prompts
    stage wrote, or (*name* ``fused_mask``) the segment stage's fused mask."""
    with np.load(Path(out_dir) / f"{name}.npz", allow_pickle=False) as archive:
        assert archive.files == ["mask"]
        mask = archive["mask"]
    assert mask.dtype == np.bool_
    return mask


def load_boxes(out_dir):
    """The prompt sets of the box file the prompts stage wrote, in plan order."""
    return read_prompts(Path(out_dir) / "boxes.jsonl")


def stored_bytes(path, name):
    """The deflated bytes of the member *name* of the zip archive *path*, as stored."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(name)
    data = Path(path).read_bytes()
    at = info.header_offset  # a local file header: 30 fixed bytes, the name, the extra field
    name_len = int.from_bytes(data[at + 26 : at + 28], "little")
    extra_len = int.from_bytes(data[at + 28 : at + 30], "little")
    start = at + 30 + name_len + extra_len
    return data[start : start + info.compress_size]


def make_cfg(scene_dir, out_dir, **kw):
    kw.setdefault("tile", TILE)
    return PipelineConfig(
        depth_raster=scene_dir / "dem.asc",
        rgb_mosaic=scene_dir / "rgb.ppm",
        eval_gt_mask=scene_dir / "gt_mask.asc",
        out_dir=Path(out_dir),
        **kw,
    )


class TestFillStage:
    def test_patch_mode_artifacts(self, scene_dir, tmp_path):
        cfg = make_cfg(scene_dir, tmp_path / "out")
        cmd_fill(cfg)
        with zipfile.ZipFile(tmp_path / "out" / "depressions.npz") as archive:
            names = archive.namelist()
        assert names == [f"{pid}{member}.npy" for pid in manifest_windows(tmp_path / "out")
                         for member in ("", "_max_depth")]
        assert names[:4] == ["r00000_c00000.npy", "r00000_c00000_max_depth.npy",
                             "r00000_c00032.npy", "r00000_c00032_max_depth.npy"]  # plan order
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["width"] == 128 and manifest["height"] == 128
        assert manifest["patch"] == 64 and manifest["stride"] == 32
        assert manifest["fill_mode"] == "patch"

    def test_patch_contents_match_library_fill(self, scene_dir, tmp_path):
        cfg = make_cfg(scene_dir, tmp_path / "out")
        cmd_fill(cfg)
        dem = read_ascii_grid(scene_dir / "dem.asc")
        window = manifest_windows(tmp_path / "out")["r00032_c00032"]
        expected = fill_depressions(extract_tile(dem, window))
        assert_depressions_of(tmp_path / "out", "r00032_c00032", expected.depth)

    def test_mosaic_mode_artifacts(self, scene_dir, tmp_path):
        """Mosaic mode writes the members patch mode writes, in plan order."""
        cmd_fill(make_cfg(scene_dir, tmp_path / "patch"))
        cmd_fill(make_cfg(scene_dir, tmp_path / "mosaic", fill_mode="mosaic"))
        with zipfile.ZipFile(tmp_path / "patch" / "depressions.npz") as archive:
            names = archive.namelist()
        with zipfile.ZipFile(tmp_path / "mosaic" / "depressions.npz") as archive:
            assert archive.namelist() == names
        manifest = json.loads((tmp_path / "mosaic" / "manifest.json").read_text())
        assert manifest["fill_mode"] == "mosaic"

    def test_invert_depth_flag(self, tmp_path):
        values = np.full((70, 70), 40.0)
        values[30:34, 30:34] = 47.0  # a bump becomes a pit after inversion
        bumpy = Raster(values)
        write_ascii_grid(bumpy, tmp_path / "bumpy.asc")
        cfg = PipelineConfig(
            depth_raster=tmp_path / "bumpy.asc",
            out_dir=tmp_path / "out",
            invert_depth=True,
            fill_mode="mosaic",
            tile=TILE,
        )
        cmd_fill(cfg)
        expected = fill_depressions(invert_depth(bumpy)).depth
        for pid, window in manifest_windows(tmp_path / "out").items():
            assert_depressions_of(tmp_path / "out", pid, expected[window.cells])
            assert load_depressions(tmp_path / "out", pid)[1].tolist() == [7.0]

    def test_all_nodata_tile_passes_through(self, tmp_path):
        values = np.full((96, 96), 25.0)
        values[:64, :64] = -9999.0  # window r0 c0 becomes pure nodata
        write_ascii_grid(Raster(values), tmp_path / "holey.asc")
        cfg = PipelineConfig(
            depth_raster=tmp_path / "holey.asc",
            out_dir=tmp_path / "out",
            tile=TileSpec(patch=64, stride=32),
        )
        cmd_fill(cfg)
        cells, max_depth = load_depressions(tmp_path / "out", "r00000_c00000")
        assert not cells.any() and max_depth.shape == (0,)  # nodata is no depression
        void = tmp_path / "void.npz"
        pipeline._write_archive(void, [("cells", np.zeros((64, 64), dtype=bool))])
        written = tmp_path / "out" / "depressions.npz"
        assert stored_bytes(written, "r00000_c00000.npy") == stored_bytes(void, "cells.npy")

    @pytest.mark.parametrize("mode", ["patch", "mosaic"])
    def test_depth_archive_holds_the_values_and_nodata(self, scene_dir, tmp_path, mode):
        """``depressions.npz`` holds, for each window in plan order, the cells
        where the depth that ``region_depths`` gives is > 0 (never a DEM
        nodata cell) and the maxima that ``label_components`` finds there:
        per window in patch mode, and cut from the one mosaic in mosaic
        mode.  The manifest records no nodata."""
        values = read_ascii_grid(scene_dir / "dem.asc").values.copy()
        values[5:9, 70:80] = -32768.0
        dem = Raster(values, nodata=-32768.0, origin_x=1000.5, origin_y=-20.25, cellsize=0.5)
        write_ascii_grid(dem, tmp_path / "dem.asc")
        out = tmp_path / "out"
        cmd_fill(PipelineConfig(depth_raster=tmp_path / "dem.asc", out_dir=out, tile=TILE,
                                fill_mode=mode))
        assert "nodata" not in json.loads((out / "manifest.json").read_text())
        windows = manifest_windows(out)
        if mode == "patch":
            depths = region_depths(dem, [(w.row0, w.col0, w.patch, w.patch)
                                         for w in windows.values()])
        else:
            (mosaic,) = region_depths(dem, [(0, 0, dem.height, dem.width)])
            depths = (mosaic[w.cells] for w in windows.values())
        with zipfile.ZipFile(out / "depressions.npz") as archive:
            assert len(archive.namelist()) == 2 * len(windows)
        for (pid, window), depth in zip(windows.items(), depths, strict=True):
            assert_depressions_of(out, pid, depth)
            assert not load_depressions(out, pid)[0][values[window.cells] == -32768.0].any()

    def test_depth_archive_is_byte_stable_with_one_member(self, tmp_path, monkeypatch):
        values = np.random.default_rng(5).normal(size=(40, 48))
        values[0, :3] = (-0.0, 0.0, -9999.0)
        pipeline._write_archive(tmp_path / "a.npz", [("depth", values)])
        monkeypatch.setattr(time, "time", lambda: 1e9)  # a later wall clock
        pipeline._write_archive(tmp_path / "b.npz", [("depth", values)])
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()
        with zipfile.ZipFile(tmp_path / "a.npz") as archive:
            assert archive.namelist() == ["depth.npy"]
        with np.load(tmp_path / "a.npz", allow_pickle=False) as archive:
            assert np.array_equal(archive["depth"].view(np.int64), values.view(np.int64))

    def test_reads_an_archive_from_savez_compressed(self, tmp_path):
        # the form older out_dirs hold: numpy's own writer at its default level
        values = np.random.default_rng(6).normal(size=(30, 20))
        values[1, 1] = -0.0
        np.savez_compressed(tmp_path / "depth.npz", depth=values)
        got = pipeline._read_array(tmp_path / "depth.npz", "fill", "depth", np.float64, (30, 20))
        assert np.array_equal(got.view(np.int64), values.view(np.int64))

    def test_depth_archive_holds_the_bytes_numpy_writes(self, tmp_path):
        """Every archive member is a raw run-length deflate at level 1 of the
        ``.npy`` bytes numpy writes, bit for bit: for an array larger than
        ``write_array``'s 16 MiB chunks, for arrays that are not C-contiguous
        and for a bool mask.  A zipfile that ignored the swapped compressor
        would store a default-strategy stream and fail here.  Several members
        are written in order into one archive, each as if it were alone."""
        import io

        rng = np.random.default_rng(7)
        big = np.zeros((1500, 1500))  # 18 MB
        big[::7, ::5] = rng.normal(size=big[::7, ::5].shape)
        small = rng.normal(size=(30, 40))
        mask = rng.random((50, 70)) < 0.2
        cases = [(big, "depth"), (small, "depth"), (small.T, "depth"),
                 (np.asfortranarray(small), "depth"), (small[::2, ::3], "depth"),
                 (mask, "mask"), (mask[::3, 1::2], "mask")]
        for values, name in cases:
            path = tmp_path / f"{name}.npz"
            pipeline._write_archive(path, [(name, values)])
            npy = io.BytesIO()
            np.lib.format.write_array(npy, np.ascontiguousarray(values))
            rle = zlib.compressobj(1, zlib.DEFLATED, -15, 8, zlib.Z_RLE)
            assert stored_bytes(path, f"{name}.npy") == rle.compress(npy.getvalue()) + rle.flush()
            with zipfile.ZipFile(path) as archive:
                assert archive.namelist() == [f"{name}.npy"]
                assert archive.testzip() is None
            with np.load(path, allow_pickle=False) as archive:
                assert np.array_equal(archive[name], values)
        pipeline._write_archive(tmp_path / "both.npz", iter([("b", mask), ("a", small)]))
        for name, values in (("a", small), ("b", mask)):
            pipeline._write_archive(tmp_path / f"{name}.npz", [(name, values)])
            alone = stored_bytes(tmp_path / f"{name}.npz", f"{name}.npy")
            assert stored_bytes(tmp_path / "both.npz", f"{name}.npy") == alone
        with zipfile.ZipFile(tmp_path / "both.npz") as archive:
            assert archive.namelist() == ["b.npy", "a.npy"]

    def test_depth_archive_write_copies_no_array(self, tmp_path):
        import tracemalloc

        values = np.zeros((1024, 1024))  # 8 MB, mostly flat as depth is
        values[100:140, 200:260] = 1.5
        tracemalloc.start()
        try:
            pipeline._write_archive(tmp_path / "depth.npz", [("depth", values)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"peak {peak / 1e6:.1f} MB"

    def test_depth_archive_read_holds_one_copy(self, tmp_path):
        """A member is read into the one array it becomes, not joined from
        pieces and then copied."""
        import tracemalloc

        values = np.zeros((1024, 1024))
        values[100:140, 200:260] = 1.5
        pipeline._write_archive(tmp_path / "depth.npz", [("depth", values)])
        tracemalloc.start()
        try:
            got = pipeline._read_array(tmp_path / "depth.npz", "fill", "depth", np.float64,
                                       values.shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, values)
        assert peak < 1.25 * values.nbytes, f"peak {peak / values.nbytes:.2f}x the data"


@st.composite
def square_dems(draw):
    """Small square rasters with ties, signed zeros and nodata holes, at least one cell valid."""
    side = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([1, 3, 8, None]))
    if levels is None:
        values = rng.normal(50.0, 10.0, size=(side, side))
    else:
        values = (rng.integers(0, levels, size=(side, side)) - levels // 2) * 2.5
        values[rng.random((side, side)) < 0.5] *= -1.0
    if draw(st.booleans()):
        values[rng.random((side, side)) < rng.uniform(0.1, 0.6)] = -9999.0
    values.flat[draw(st.integers(0, side * side - 1))] = 1.5
    return Raster(values)


class TestFillModes:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dem=square_dems(), block=st.integers(2, 7))
    def test_one_window_writes_the_mosaic_depth(self, tmp_path_factory, dem, block):
        """Patch mode with one window over the whole raster writes the
        archive that mosaic mode writes, byte for byte, with blocks small
        enough to need joining."""
        root = tmp_path_factory.mktemp("modes")
        write_ascii_grid(dem, root / "dem.asc")
        side = dem.width
        written = {}
        with mock.patch.object(hydro, "_BLOCK", block):
            for mode in ("patch", "mosaic"):
                cmd_fill(PipelineConfig(depth_raster=root / "dem.asc", out_dir=root / mode,
                                        fill_mode=mode, tile=TileSpec(side, side)))
                written[mode] = (root / mode / "depressions.npz").read_bytes()
        assert written["patch"] == written["mosaic"]


class TestStageOrdering:
    def test_prompts_requires_fill(self, scene_dir, tmp_path):
        cfg = make_cfg(scene_dir, tmp_path / "out")
        with pytest.raises(InputError, match="run the fill stage first"):
            cmd_prompts(cfg)

    def test_segment_requires_prompts(self, scene_dir, tmp_path):
        cfg = make_cfg(scene_dir, tmp_path / "out")
        cmd_fill(cfg)
        with pytest.raises(InputError, match="run the prompts stage first"):
            cmd_segment(cfg)

    def test_eval_requires_segment(self, scene_dir, tmp_path):
        cfg = make_cfg(scene_dir, tmp_path / "out")
        cmd_fill(cfg)
        cmd_prompts(cfg)
        with pytest.raises(InputError, match="run the segment stage first"):
            cmd_eval(cfg)

    def test_rgb_dimension_mismatch(self, scene_dir, tmp_path):
        write_ppm(np.zeros((64, 64, 3), dtype=np.uint8), tmp_path / "small.ppm")
        cfg = replace(make_cfg(scene_dir, tmp_path / "out"), rgb_mosaic=tmp_path / "small.ppm")
        cmd_fill(cfg)
        cmd_prompts(cfg)
        with pytest.raises(InputError, match="fill manifest says"):
            cmd_segment(cfg)

    def test_eval_gt_dimension_mismatch(self, scene_dir, tmp_path):
        cfg = make_cfg(scene_dir, tmp_path / "out")
        cmd_fill(cfg)
        cmd_prompts(cfg)
        cmd_segment(cfg)
        from sinkseg.raster import write_ascii_mask

        write_ascii_mask(np.zeros((4, 4), dtype=bool), tmp_path / "tiny.asc", (0.0, 0.0, 1.0))
        bad = replace(cfg, eval_gt_mask=tmp_path / "tiny.asc")
        with pytest.raises(InputError, match="ground truth"):
            cmd_eval(bad)


class TestPromptsStage:
    def test_three_pits_three_boxes_single_window(self, tmp_path):
        scene = gen_terrain(seed=13, width=96, height=96, n_sinkholes=3,
                            depth_range=(3.0, 8.0), radius_range=(6.0, 9.0))
        export_scene(scene, tmp_path / "scene")
        cfg = make_cfg(tmp_path / "scene", tmp_path / "out",
                       tile=TileSpec(patch=96, stride=48))
        cmd_fill(cfg)
        cmd_prompts(cfg)
        (prompts,) = load_boxes(tmp_path / "out")
        assert prompts.patch_id == "r00000_c00000"
        assert len(prompts.boxes) == 3
        assert len(prompts.areas) == 3 and len(prompts.max_depths) == 3
        # every truth bbox appears among the prompt boxes
        truth_boxes = {tuple(t.bbox.as_list()) for t in scene.truths}
        assert {tuple(b.as_list()) for b in prompts.boxes} == truth_boxes

    def test_filter_thresholds_remove_everything(self, scene_dir, tmp_path):
        cfg = make_cfg(scene_dir, tmp_path / "out",
                       filter=FilterThresholds(min_depth=1000.0, min_area_px=50))
        cmd_fill(cfg)
        cmd_prompts(cfg)
        prompt_sets = load_boxes(tmp_path / "out")
        assert len(prompt_sets) == 9 and all(p.boxes == [] for p in prompt_sets)
        assert not load_mask(tmp_path / "out").any()

    def test_flat_ramp_yields_no_boxes(self, tmp_path):
        ramp = Raster(np.tile(np.arange(96.0), (96, 1)))
        write_ascii_grid(ramp, tmp_path / "ramp.asc")
        cfg = PipelineConfig(
            depth_raster=tmp_path / "ramp.asc",
            out_dir=tmp_path / "out",
            tile=TileSpec(patch=48, stride=24),
        )
        cmd_fill(cfg)
        cmd_prompts(cfg)
        prompt_sets = load_boxes(tmp_path / "out")
        assert len(prompt_sets) == 9 and all(p.boxes == [] for p in prompt_sets)

    @pytest.mark.parametrize("mode", ["patch", "mosaic"])
    def test_each_kept_tile_is_folded_as_it_is_made(
        self, scene_dir, tmp_path, monkeypatch, mode
    ):
        made, held = [], []

        def recording(*args):
            prompts, tile = tile_prompts(*args)
            held.append(sum(ref() is not None for ref in made))
            made.append(weakref.ref(tile))
            return prompts, tile

        monkeypatch.setattr(pipeline, "tile_prompts", recording)
        cfg = make_cfg(scene_dir, tmp_path / "out", fill_mode=mode, workers=1)
        cmd_fill(cfg)
        cmd_prompts(cfg)
        assert len(made) == 9
        assert max(held) <= 1  # only the tile being folded, not a list of all

    def test_kept_mask_holds_the_ground_truth_depressions(self, scene_dir, tmp_path):
        cfg = make_cfg(scene_dir, tmp_path / "out")
        cmd_fill(cfg)
        cmd_prompts(cfg)
        kept = load_mask(tmp_path / "out")
        gt = read_ascii_mask(scene_dir / "gt_mask.asc")
        # surviving depressions sit exactly where the ground truth says
        assert kept[gt].mean() > 0.9

    @pytest.mark.parametrize("mode", ["patch", "mosaic"])
    def test_kept_mask_archive_is_the_folded_mask(self, scene_dir, tmp_path, monkeypatch, mode):
        """``kept_mask.npz`` holds, under every merge rule, the cells > 0 of
        the folded kept tiles, none where no depth is valid."""
        values = read_ascii_grid(scene_dir / "dem.asc").values.copy()
        values[5:9, 70:80] = -32768.0
        dem = Raster(values, nodata=-32768.0, origin_x=1000.5, origin_y=-20.25, cellsize=0.5)
        write_ascii_grid(dem, tmp_path / "dem.asc")
        folded = []

        def recording(*args):
            grid, covered = fold_tiles(*args)
            folded.append((grid, covered))
            return grid, covered

        monkeypatch.setattr(pipeline, "fold_tiles", recording)
        out = tmp_path / "out"
        cfg = replace(make_cfg(scene_dir, out, fill_mode=mode), depth_raster=tmp_path / "dem.asc")
        cmd_fill(cfg)
        for merge in MergeRule:
            cmd_prompts(replace(cfg, merge=merge))
            grid, _ = folded.pop()
            expected = grid > 0
            assert expected.any() and np.array_equal(load_mask(out), expected)
            assert not load_mask(out)[5:9, 70:80].any()  # the 40 DEM-nodata cells
            got = pipeline._read_array(out / "kept_mask.npz", "prompts", "mask", np.bool_,
                                       (128, 128))
            assert np.array_equal(got, expected)

    def test_mean_depth_equal_to_nodata_stays_kept(self, tmp_path):
        """Under mean, a cell kept in the windows that hold it stays kept
        where its mean depth happens to equal the DEM's nodata, 1.0 here:
        the kept cells are folded, and prompts never sees the DEM's nodata."""
        out = tmp_path / "out"
        write_ascii_grid(Raster(np.full((4, 6), 10.0), nodata=1.0), tmp_path / "dem.asc")
        cfg = PipelineConfig(depth_raster=tmp_path / "dem.asc", out_dir=out,
                             tile=TileSpec(patch=4, stride=2), merge=MergeRule.MEAN,
                             filter=FilterThresholds(min_depth=0.0, min_area_px=0))
        cmd_fill(cfg)
        windows = plan_tiles(6, 4, cfg.tile)  # columns 0-3 and 2-5
        depths = [np.full((4, 4), 0.5), np.full((4, 4), 1.5)]
        pipeline._write_archive(out / "depressions.npz", pipeline._depressions(windows, depths))
        cmd_prompts(cfg)
        assert load_mask(out).all()

    def test_first_window_decides_where_its_depth_equals_nodata(self, tmp_path):
        """Under first, the first window decides a cell even where its depth
        equals the DEM's nodata, 0.0 here: a zero depth is not kept, and the
        DEM's nodata does not hand the cell to a later window."""
        out = tmp_path / "out"
        write_ascii_grid(Raster(np.full((4, 6), 10.0), nodata=0.0), tmp_path / "dem.asc")
        cfg = PipelineConfig(depth_raster=tmp_path / "dem.asc", out_dir=out,
                             tile=TileSpec(patch=4, stride=2), merge=MergeRule.FIRST,
                             filter=FilterThresholds(min_depth=0.0, min_area_px=0))
        cmd_fill(cfg)
        windows = plan_tiles(6, 4, cfg.tile)  # columns 0-3 and 2-5
        depths = [np.full((4, 4), 0.0), np.full((4, 4), 1.0)]
        pipeline._write_archive(out / "depressions.npz", pipeline._depressions(windows, depths))
        cmd_prompts(cfg)
        kept = load_mask(out)
        assert not kept[:, :4].any() and kept[:, 4:].all()


def prompt_and_segment(cfg, backend):
    """Run fill, prompts and segment on *cfg*, segment through *backend*
    (``echo``, or the mock service's ``boxfill``); the boxes of each patch
    id, and the kept and fused masks."""
    cmd_fill(cfg)
    cmd_prompts(cfg)
    if backend == "boxfill":
        with MockSegmentServer(mode="boxfill") as server:
            cmd_segment(replace(cfg, backend_kind="http", backend_endpoint=server.endpoint))
    else:
        cmd_segment(cfg)
    boxes = {p.patch_id: [b.as_list() for b in p.boxes] for p in load_boxes(cfg.out_dir)}
    return boxes, load_mask(cfg.out_dir), load_mask(cfg.out_dir, "fused_mask")


IDS = ("r00000_c00000", "r00000_c00016", "r00016_c00000", "r00016_c00016")
# an 8x8 pit inside all four windows, off their edges, boxed with a 2 px pad
CENTRE = (slice(20, 28), slice(20, 28)), 2, [[18, 18, 30, 30], [2, 18, 14, 30],
                                             [18, 2, 30, 14], [2, 2, 14, 14]]
# an 8x8 pit on the top and left edges of the last window, which lie inside the mosaic
CORNER = (slice(16, 24), slice(16, 24)), 0, [[16, 16, 24, 24], [0, 16, 8, 24],
                                             [16, 0, 24, 8], [0, 0, 8, 8]]


class TestPromptEachDepressionOnce:
    """A 48² plateau with one pit, tiled by four 32² windows at stride 16.
    Under ``max`` and ``first`` in mosaic mode, a box that an earlier window
    holds whole is written only there, and that changes neither mask."""

    @pytest.mark.parametrize("backend", ["echo", "boxfill"])
    @pytest.mark.parametrize("mode, merge, pit, once", [
        ("mosaic", "max", CENTRE, True),
        ("mosaic", "first", CENTRE, True),
        ("mosaic", "mean", CENTRE, False),
        ("patch", "max", CENTRE, False),
        ("patch", "first", CENTRE, False),
        ("patch", "mean", CENTRE, False),
        ("mosaic", "max", CORNER, False),
        ("mosaic", "first", CORNER, False),
    ], ids=["mosaic-max", "mosaic-first", "mosaic-mean", "patch-max", "patch-first",
            "patch-mean", "edge-max", "edge-first"])
    def test_boxes_written_and_masks_unchanged(self, tmp_path, backend, mode, merge, pit, once):
        (rows, cols), pad, boxes = pit
        values = np.full((48, 48), 10.0)
        values[rows, cols] = 5.0
        scene = tmp_path / "scene"
        scene.mkdir()
        write_ascii_grid(Raster(values), scene / "dem.asc")
        write_ppm(np.zeros((48, 48, 3), dtype=np.uint8), scene / "rgb.ppm")
        cfg = make_cfg(scene, tmp_path / "out", tile=TileSpec(32, 16), fill_mode=mode,
                       merge=MergeRule(merge), pad_px=pad)
        written, kept, fused = prompt_and_segment(cfg, backend)
        every_box = {pid: [box] for pid, box in zip(IDS, boxes)}
        assert written == ({pid: every_box[pid] if pid == IDS[0] else [] for pid in IDS}
                           if once else every_box)

        with mock.patch.object(pipeline, "_unheld", lambda prompts, *_: (prompts, 0)):
            every = prompt_and_segment(replace(cfg, out_dir=tmp_path / "every"), backend)
        assert every[0] == every_box
        assert kept[rows, cols].all() and kept.sum() == 64
        assert np.array_equal(kept, every[1])
        assert fused.any() and np.array_equal(fused, every[2])

    def test_prompts_logs_the_boxes_left_to_an_earlier_window(self, tmp_path, caplog):
        values = np.full((48, 48), 10.0)
        values[20:28, 20:28] = 5.0
        write_ascii_grid(Raster(values), tmp_path / "dem.asc")
        cfg = PipelineConfig(depth_raster=tmp_path / "dem.asc", out_dir=tmp_path / "out",
                             tile=TileSpec(32, 16), fill_mode="mosaic")
        cmd_fill(cfg)
        with caplog.at_level("INFO", logger="sinkseg.pipeline"):
            cmd_prompts(cfg)
        assert ("wrote 1 prompt boxes across 4 patches (3 held by an earlier window)"
                in caplog.messages)


class TestSegmentAndEval:
    def run_all(self, scene_dir, out_dir, **kw):
        cfg = make_cfg(scene_dir, out_dir, **kw)
        cmd_fill(cfg)
        cmd_prompts(cfg)
        cmd_segment(cfg)
        return cfg, cmd_eval(cfg)

    def test_echo_backend_recovers_ground_truth(self, scene_dir, tmp_path):
        cfg, report = self.run_all(scene_dir, tmp_path / "out")
        assert report.iou > 0.9
        assert report.object_rows[4][:3] == (0.5, 3, 0)  # all three pits found
        fused = load_mask(tmp_path / "out", "fused_mask")
        gt = read_ascii_mask(scene_dir / "gt_mask.asc")
        assert fused.shape == gt.shape

    def test_report_files_match_returned_report(self, scene_dir, tmp_path):
        from sinkseg.metrics import report_to_json

        cfg, report = self.run_all(scene_dir, tmp_path / "out")
        assert (tmp_path / "out" / "report.json").read_text() == report_to_json(report)
        csv_text = (tmp_path / "out" / "report.csv").read_text()
        assert csv_text.startswith("label,f1,iou,precision,recall,accuracy\nrun,")

    def test_ignore_mask_is_left_out_of_the_pixel_counts(self, scene_dir, tmp_path):
        gt = read_ascii_mask(scene_dir / "gt_mask.asc")
        ignore = np.zeros(gt.shape, dtype=bool)
        ignore[:, :64] = True  # the left half, through at least one pit
        assert gt[ignore].any()
        write_ascii_mask(ignore, tmp_path / "ignore.asc", (0.0, 0.0, 1.0))
        cfg, report = self.run_all(scene_dir, tmp_path / "out",
                                   eval_ignore_mask=tmp_path / "ignore.asc")
        pred = load_mask(tmp_path / "out", "fused_mask")
        assert report == evaluate_masks(pred, gt, ignore=ignore,
                                        thresholds=cfg.eval_thresholds)
        assert report.pixel_confusion.total == 128 * 64

    def test_zero_boxes_yield_empty_mask_and_zero_recall(self, scene_dir, tmp_path):
        cfg, report = self.run_all(
            scene_dir, tmp_path / "out",
            filter=FilterThresholds(min_depth=1000.0, min_area_px=50),
        )
        assert not load_mask(tmp_path / "out", "fused_mask").any()
        assert report.recall == 0.0 and report.precision == 0.0

    def test_mosaic_fill_mode_end_to_end(self, scene_dir, tmp_path):
        cfg, report = self.run_all(scene_dir, tmp_path / "out", fill_mode="mosaic")
        assert report.iou > 0.9

    @pytest.mark.parametrize("threshold, kept", [(128 / 255, False), (0.5, True)],
                             ids=["equal", "below"])
    def test_fused_mask_is_strictly_above_the_threshold(self, tmp_path, threshold, kept):
        """The mock paints every prompted patch 128/255: segment keeps those
        cells only under a threshold strictly below that probability."""
        export_scene(gen_terrain(seed=3, width=64, height=64, n_sinkholes=1,
                                 radius_range=(6.0, 8.0)), tmp_path / "scene")
        out = tmp_path / "out"
        with MockSegmentServer(mode="constant", value=128) as server:
            cfg = make_cfg(tmp_path / "scene", out, tile=TileSpec(32, 16), merge=MergeRule.MAX,
                           backend_kind="http", backend_endpoint=server.endpoint,
                           binarize_threshold=threshold)
            cmd_fill(cfg)
            cmd_prompts(cfg)
            cmd_segment(cfg)
        prompted = np.zeros((64, 64), dtype=bool)
        windows = manifest_windows(out)
        for prompts in load_boxes(out):
            if prompts.boxes:
                w = windows[prompts.patch_id]
                prompted[w.row0 : w.row0 + w.patch, w.col0 : w.col0 + w.patch] = True
        assert prompted.any()
        assert np.array_equal(load_mask(out, "fused_mask"), prompted & kept)

    def test_http_requests_carry_each_window_of_the_mosaic(self, scene_dir, tmp_path):
        """With one worker, the service receives, in plan order, the PPM of
        each prompted window of the mosaic and that window's boxes."""
        seen = []
        zero = base64.b64encode(pgm_bytes(np.zeros((1, 1), dtype=np.uint8))).decode("ascii")

        class Recording(BaseHTTPRequestHandler):
            def log_message(self, format, *args):  # noqa: A002
                pass

            def do_POST(self):  # noqa: N802
                doc = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                seen.append((base64.b64decode(doc["image_ppm_b64"]), doc["boxes"]))
                n = len(doc["boxes"])
                body = json.dumps({"masks_crop": [[0, 0, zero]] * n, "scores": [1.0] * n})
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body.encode("ascii"))

        out = tmp_path / "out"
        with serving(Recording) as endpoint:
            cfg = make_cfg(scene_dir, out, backend_kind="http", backend_endpoint=endpoint)
            cmd_fill(cfg)
            cmd_prompts(cfg)
            cmd_segment(cfg)
        rgb = read_ppm(scene_dir / "rgb.ppm")
        windows = manifest_windows(out)
        expected = [(ppm_bytes(rgb[windows[p.patch_id].cells]), [b.as_list() for b in p.boxes])
                    for p in load_boxes(out) if p.boxes]
        assert len(expected) > 1
        assert seen == expected

    @pytest.mark.parametrize("merge", [MergeRule.MAX, MergeRule.MEAN])
    def test_dem_nodata_does_not_mask_probabilities(self, scene_dir, tmp_path, merge):
        """A DEM sentinel that no cell holds leaves the out tree as it is,
        ``manifest.json`` included, in both fill modes, even one that is also
        a probability or a depth (0.0, 1.0).  The 256² scene's elevations are
        rounded to 0.5 m, so many of its depths are 1.0."""
        rounded = tmp_path / "rounded"
        export_scene(gen_terrain(42, 256, 256, 4), rounded)
        dem = read_ascii_grid(rounded / "dem.asc")
        write_ascii_grid(dem.with_values(np.round(dem.values * 2) / 2), rounded / "dem.asc")
        assert (fill_depressions(read_ascii_grid(rounded / "dem.asc")).depth == 1.0).any()
        for scene, tile in ((scene_dir, TILE), (rounded, TileSpec(128, 64))):
            dem = read_ascii_grid(scene / "dem.asc")
            for mode in ("patch", "mosaic"):
                trees = {}
                for nodata in (-9999.0, 0.0, 1.0):
                    assert not (dem.values == nodata).any()
                    path = tmp_path / f"dem_{nodata}.asc"
                    write_ascii_grid(Raster(dem.values, nodata, *dem.geotransform), path)
                    out = tmp_path / f"out_{scene.name}_{mode}_{nodata}"
                    cfg = make_cfg(scene, out, tile=tile, fill_mode=mode, merge=merge)
                    cmd_run(replace(cfg, depth_raster=path))
                    trees[nodata] = tree_digests(out)
                assert load_mask(out, "fused_mask").any()
                assert trees[0.0] == trees[-9999.0]
                assert trees[1.0] == trees[-9999.0]

    def test_depth_map_nodata_does_not_change_the_inverted_tree(self, tmp_path):
        """With ``invert_depth``, a depth-map sentinel that no cell holds
        leaves the out tree as it is in both fill modes, even 0.0, the value
        the deepest cell takes after the inversion."""
        scene = tmp_path / "scene"
        export_scene(gen_terrain(42, 256, 256, 4), scene)
        dem = read_ascii_grid(scene / "dem.asc")
        depth_map = dem.values.max() - dem.values + 1.0  # larger = deeper
        assert not np.isin(depth_map, (-9999.0, 0.0)).any()
        for mode in ("patch", "mosaic"):
            trees = {}
            for nodata in (-9999.0, 0.0):
                path = tmp_path / f"depth_{nodata}.asc"
                write_ascii_grid(Raster(depth_map, nodata, *dem.geotransform), path)
                out = tmp_path / f"out_{mode}_{nodata}"
                cfg = make_cfg(scene, out, tile=TileSpec(128, 64), fill_mode=mode,
                               invert_depth=True)
                cmd_run(replace(cfg, depth_raster=path))
                trees[nodata] = tree_digests(out)
            assert load_mask(out, "fused_mask").any()
            assert trees[0.0] == trees[-9999.0]

    @pytest.mark.parametrize("merge", [MergeRule.MAX, MergeRule.FIRST])
    @pytest.mark.parametrize("mode", ["patch", "mosaic"])
    @pytest.mark.parametrize("seed, pits, noise", [(1, 8, 0.3), (5, 10, 0.5)])
    def test_echo_fuses_exactly_the_kept_mask(self, tmp_path, seed, pits, noise, mode, merge):
        """Echo paints the kept cells inside each box, and a cell that a
        window's filtered tile keeps lies in that window's box of its
        component.  So under ``max`` and ``first`` the fused mosaic is the
        kept mosaic; ``mean`` may average a painted cell below the threshold."""
        scene_dir = tmp_path / "scene"
        export_scene(gen_terrain(seed=seed, width=128, height=128, n_sinkholes=pits,
                                 radius_range=(5.0, 12.0), noise_amp=noise), scene_dir)
        out = tmp_path / "out"
        cmd_run(make_cfg(scene_dir, out, fill_mode=mode, merge=merge))
        kept = load_mask(out)
        assert kept.any()
        assert np.array_equal(load_mask(out, "fused_mask"), kept)

    def test_http_backend_paints_prompt_boxes(self, scene_dir, tmp_path):
        with MockSegmentServer(mode="boxfill", value=255) as server:
            cfg = make_cfg(scene_dir, tmp_path / "out",
                           backend_kind="http", backend_endpoint=server.endpoint)
            cmd_fill(cfg)
            cmd_prompts(cfg)
            cmd_segment(cfg)
        # expected mosaic: every prompt box of every window, painted in place
        expected = np.zeros((128, 128), dtype=bool)
        windows = manifest_windows(tmp_path / "out")
        for prompts in load_boxes(tmp_path / "out"):
            window = windows[prompts.patch_id]
            for box in prompts.boxes:
                expected[
                    window.row0 + box.y0 : window.row0 + box.y1,
                    window.col0 + box.x0 : window.col0 + box.x1,
                ] = True
        assert np.array_equal(load_mask(tmp_path / "out", "fused_mask"), expected)

    def test_flaky_service_is_retried_to_the_clean_out_tree(self, scene_dir, tmp_path, capsys):
        """The ``flaky`` mock answers each patch's first request with a 503
        and ``Retry-After: 0``: two retries give the clean run's out tree,
        and none exits 1."""
        trees = {}
        for fault, retries in ((None, 2), ("flaky", 2), ("flaky", 0)):
            out = tmp_path / f"{fault}-{retries}"
            with MockSegmentServer(mode="boxfill", fault=fault) as server:
                code = main(["run", "--set", f"depth_raster={scene_dir / 'dem.asc'}",
                             "--set", f"rgb_mosaic={scene_dir / 'rgb.ppm'}",
                             "--set", f"eval.gt_mask={scene_dir / 'gt_mask.asc'}",
                             "--set", f"out_dir={out}", "--set", "tile.patch=64",
                             "--set", "tile.stride=32", "--set", "backend.kind=http",
                             "--set", f"backend.endpoint={server.endpoint}",
                             "--set", f"backend.retries={retries}"])
            trees[fault, retries] = code, tree_digests(out)
        assert trees["flaky", 2] == trees[None, 2]
        assert trees[None, 2][0] == 0 and "fused_mask.npz" in trees[None, 2][1]
        assert trees["flaky", 0][0] == 1
        assert "HTTP 503: induced busy reply" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["http", "replay"])
    def test_only_echo_reads_the_kept_mask(self, scene_dir, tmp_path, kind):
        """No backend but echo opens the kept mask of the filtered depressions."""
        out = tmp_path / "out"
        server = None
        if kind == "http":
            server = MockSegmentServer(mode="boxfill", value=255)
            cfg = make_cfg(scene_dir, out, backend_kind="http", backend_endpoint=server.endpoint)
        else:  # no boxes, so the replay directory needs no recordings
            cfg = make_cfg(scene_dir, out, backend_kind="replay", backend_replay_dir=tmp_path,
                           filter=FilterThresholds(min_depth=1000.0, min_area_px=50))
        cmd_fill(cfg)
        cmd_prompts(cfg)
        with server or nullcontext():
            cmd_segment(cfg)
            fused = (out / "fused_mask.npz").read_bytes()
            (out / "kept_mask.npz").write_text("not an archive\n")
            cmd_segment(cfg)
        assert (out / "fused_mask.npz").read_bytes() == fused
        with pytest.raises(InputError, match="rerun the prompts stage"):
            cmd_segment(replace(cfg, backend_kind="echo"))

    @pytest.mark.parametrize("fill_mode", ["patch", "mosaic"])
    def test_replay_reproduces_a_recorded_run(self, scene_dir, tmp_path, fill_mode):
        """The service's replies, recorded, replay with no server running to
        the recorded run's out tree."""
        with MockSegmentServer(mode="boxfill", value=255) as server:
            recorded = make_cfg(scene_dir, tmp_path / "recorded", fill_mode=fill_mode,
                                backend_kind="http", backend_endpoint=server.endpoint)
            cmd_fill(recorded)
            cmd_prompts(recorded)
            record_segment(recorded, tmp_path / "replies")
        cmd_eval(recorded)
        with_boxes = [p.patch_id for p in load_boxes(tmp_path / "recorded") if p.boxes]
        assert with_boxes and load_mask(tmp_path / "recorded", "fused_mask").any()
        assert sorted(p.name for p in (tmp_path / "replies").iterdir()) == sorted(
            f"{pid}.json" for pid in with_boxes)

        self.run_all(scene_dir, tmp_path / "replayed", fill_mode=fill_mode,
                     backend_kind="replay", backend_replay_dir=tmp_path / "replies")
        assert tree_digests(tmp_path / "replayed") == tree_digests(tmp_path / "recorded")


class TestArtifacts:
    def test_run_writes_exactly_the_consumed_artifacts(self, scene_dir, tmp_path):
        files = {"manifest.json", "depressions.npz", "boxes.jsonl", "kept_mask.npz",
                 "fused_mask.npz", "report.json", "report.csv"}
        for mode in ("patch", "mosaic"):
            out = tmp_path / mode
            cmd_run(make_cfg(scene_dir, out, fill_mode=mode))
            written = {p.relative_to(out).as_posix() for p in out.rglob("*")}
            assert written == files, mode

    def test_every_artifact_is_moved_into_place(self, scene_dir, tmp_path, monkeypatch):
        out = tmp_path / "out"
        moved = []

        def recording(src, dst, _replace=os.replace):
            if Path(dst).parent == out:
                moved.append(Path(dst).name)
            _replace(src, dst)

        monkeypatch.setattr(os, "replace", recording)
        cmd_run(make_cfg(scene_dir, out))
        assert sorted(moved) == sorted(p.name for p in out.iterdir())

    def test_failed_archive_write_leaves_no_file(self, tmp_path):
        """A member stream that raises part-way leaves nothing under the
        archive's name, the earlier archive there as it was, and no
        temporary file."""

        def members():
            yield "first", np.arange(16.0).reshape(4, 4)
            raise RuntimeError("stopped after the first member")

        fresh, earlier = tmp_path / "fresh.npz", tmp_path / "earlier.npz"
        pipeline._write_archive(earlier, [("mask", np.eye(4, dtype=bool))])
        before = earlier.read_bytes()
        for path in (fresh, earlier):
            with pytest.raises(RuntimeError, match="first member"):
                pipeline._write_archive(path, members())
        assert earlier.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["earlier.npz"]

    def test_readme_ascii_export_writes_the_fused_mask(self, scene_dir, tmp_path, monkeypatch):
        """The README's snippet turns ``fused_mask.npz`` and the manifest into
        the ESRI ASCII grid of the fused mask, with the scene DEM's georeference."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = [block.split("```", 1)[0] for block in readme.split("```python\n")[1:]]
        (snippet,) = [block for block in blocks if "fused_mask.npz" in block]
        cfg = make_cfg(scene_dir, tmp_path / "out")
        cmd_fill(cfg)
        cmd_prompts(cfg)
        cmd_segment(cfg)
        monkeypatch.chdir(tmp_path)
        exec(snippet, {})
        exported = read_ascii_mask(tmp_path / "fused_mask.asc")
        assert exported.any()
        assert np.array_equal(exported, load_mask(tmp_path / "out", "fused_mask"))
        placed = read_ascii_grid(tmp_path / "fused_mask.asc").geotransform
        assert placed == read_ascii_grid(scene_dir / "dem.asc").geotransform


class TestDeterminism:
    def test_run_equals_stage_composition(self, scene_dir, tmp_path):
        staged = make_cfg(scene_dir, tmp_path / "staged")
        cmd_fill(staged)
        cmd_prompts(staged)
        cmd_segment(staged)
        cmd_eval(staged)
        composed = make_cfg(scene_dir, tmp_path / "composed")
        cmd_run(composed)
        assert tree_digests(tmp_path / "staged") == tree_digests(tmp_path / "composed")

    @pytest.mark.parametrize("backend", ["echo", "http"])
    @pytest.mark.parametrize("mode", ["patch", "mosaic"])
    def test_run_writes_the_staged_bytes(self, scene_dir, tmp_path, mode, backend):
        """cmd_run writes, byte for byte, what the four stages run one by one
        write, in both fill modes and with both backends."""
        server = MockSegmentServer(mode="boxfill", value=255) if backend == "http" else None
        with server or nullcontext():
            kw = {"backend_kind": "http", "backend_endpoint": server.endpoint} if server else {}
            staged = make_cfg(scene_dir, tmp_path / "staged", fill_mode=mode, **kw)
            for stage in (cmd_fill, cmd_prompts, cmd_segment, cmd_eval):
                stage(staged)
            cmd_run(make_cfg(scene_dir, tmp_path / "run", fill_mode=mode, **kw))
        assert tree_digests(tmp_path / "staged") == tree_digests(tmp_path / "run")

    def test_run_opens_what_the_staged_commands_open(self, scene_dir, tmp_path, monkeypatch):
        """A run reads back every product it wrote, once, as the four stages
        run one by one do: nothing passes between its stages in memory."""
        reads = []
        for name in ("read_ascii_grid", "read_ascii_mask", "_open_archive"):
            def counting(path, *args, _read=getattr(pipeline, name), **kwargs):
                reads.append(Path(path).name)
                return _read(path, *args, **kwargs)

            monkeypatch.setattr(pipeline, name, counting)

        cfg = make_cfg(scene_dir, tmp_path / "out")  # echo: the one backend that reads kept
        for stage in (cmd_fill, cmd_prompts, cmd_segment, cmd_eval):
            stage(cfg)
        staged = reads[:]
        reads.clear()
        cmd_run(cfg)
        assert reads == staged == ["dem.asc", "depressions.npz", "kept_mask.npz",
                                   "fused_mask.npz", "gt_mask.asc"]

    def test_rerun_overwrites_identically(self, scene_dir, tmp_path):
        cfg = make_cfg(scene_dir, tmp_path / "out")
        cmd_run(cfg)
        first = tree_digests(tmp_path / "out")
        cmd_run(cfg)
        assert tree_digests(tmp_path / "out") == first

    @pytest.mark.parametrize("mode", ["patch", "mosaic"])
    def test_fill_archives_do_not_depend_on_workers(
        self, scene_dir, tmp_path, monkeypatch, mode
    ):
        monkeypatch.setattr(hydro, "_BLOCK", 48)  # several blocks in both modes
        for workers in (1, 2):
            cmd_fill(make_cfg(scene_dir, tmp_path / f"w{workers}", fill_mode=mode,
                              workers=workers))
        assert tree_digests(tmp_path / "w1") == tree_digests(tmp_path / "w2")

    def test_pool_reads_the_depth_archive_on_one_thread(self, scene_dir, tmp_path, monkeypatch):
        """Eight threads, more than the cores, box the 225 windows of one
        ``depressions.npz`` with the interpreter switching threads as often
        as it can, and write what one thread writes.  Every member is opened
        on the calling thread: ``ZipFile.open`` counts the readers of the
        archive's file without a lock, so a member opened on a pool thread
        may lose a count and fail an assert when the archive closes."""
        import sys
        import threading

        tile = TileSpec(patch=16, stride=8)
        serial = make_cfg(scene_dir, tmp_path / "serial", tile=tile, workers=1)
        cmd_fill(serial)
        cmd_prompts(serial)
        threaded = replace(serial, out_dir=tmp_path / "threaded", workers=8)
        cmd_fill(threaded)
        openers = set()

        def recording(archive, *args, _open=zipfile.ZipFile.open, **kwargs):
            openers.add(threading.current_thread())
            return _open(archive, *args, **kwargs)

        monkeypatch.setattr(zipfile.ZipFile, "open", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cmd_prompts(threaded)
        finally:
            sys.setswitchinterval(interval)
        assert openers == {threading.current_thread()}
        assert len(load_boxes(tmp_path / "threaded")) == 225
        assert tree_digests(tmp_path / "serial") == tree_digests(tmp_path / "threaded")

    def test_worker_count_does_not_change_bytes(self, scene_dir, tmp_path):
        serial = make_cfg(scene_dir, tmp_path / "serial", workers=1)
        threaded = make_cfg(scene_dir, tmp_path / "threaded", workers=4)
        cmd_run(serial)
        cmd_run(threaded)
        assert tree_digests(tmp_path / "serial") == tree_digests(tmp_path / "threaded")


class TestSymmetry:
    @pytest.mark.parametrize("seed, pits, noise", [(1, 8, 0.3), (5, 10, 0.5)])
    def test_report_is_the_same_under_the_symmetries_of_the_square(
        self, tmp_path, seed, pits, noise
    ):
        """The 3x3 windows of a 128-pixel side map onto themselves under the
        8 symmetries of the square, so turning or mirroring every input
        leaves the report as it is, while every input byte moves."""
        scene = gen_terrain(seed=seed, width=128, height=128, n_sinkholes=pits,
                            radius_range=(5.0, 12.0), noise_amp=noise)
        reports = set()
        for k in range(8):  # bit 2 transposes, bits 0-1 count quarter turns
            def turn(grid):
                return np.ascontiguousarray(np.rot90(grid.swapaxes(0, 1) if k & 4 else grid, k))

            scene_dir = tmp_path / f"k{k}"
            scene_dir.mkdir()
            write_ascii_grid(Raster(turn(scene.dem.values), scene.dem.nodata),
                             scene_dir / "dem.asc")
            write_ppm(turn(scene.rgb.pixels), scene_dir / "rgb.ppm")
            write_ascii_mask(turn(scene.gt_mask.values), scene_dir / "gt_mask.asc",
                             (0.0, 0.0, 1.0))
            reports.add(report_to_json(cmd_run(make_cfg(scene_dir, scene_dir / "out"))))
        assert len(reports) == 1


class TestOrderOfElevations:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.sampled_from([1, 2, 5]), mode=st.sampled_from(["patch", "mosaic"]),
           holes=st.integers(0, 40), scale=st.integers(1, 5),
           offset=st.integers(-1000, 1000), squared=st.booleans())
    def test_prompts_see_only_the_order_of_elevations(
        self, tmp_path_factory, seed, mode, holes, scale, offset, squared
    ):
        """The fill raises the same cells of any strictly increasing map of
        the valid elevations, so with no depth threshold the boxes, their
        areas, the kept mask and the echo fused mask stay as they are; only
        the boxes' max depths change."""
        root = tmp_path_factory.mktemp("order")
        scene = gen_terrain(seed=seed, width=128, height=128, n_sinkholes=8,
                            radius_range=(5.0, 12.0), noise_amp=0.3)
        export_scene(scene, root)
        rng = np.random.default_rng(seed)
        values = scene.dem.values.copy()
        values.flat[rng.choice(values.size, holes, replace=False)] = scene.dem.nodata
        valid = values != scene.dem.nodata
        _, rank = np.unique(values[valid], return_inverse=True)
        rank = rank.astype(np.float64) + 1.0
        mapped = values.copy()
        mapped[valid] = scale * (rank * rank if squared else rank) + offset
        runs = {}
        for name, grid in (("dem", values), ("mapped", mapped)):
            write_ascii_grid(Raster(grid, scene.dem.nodata), root / f"{name}.asc")
            cfg = replace(make_cfg(root, root / name, fill_mode=mode,
                                   filter=FilterThresholds(min_depth=0.0, min_area_px=10)),
                          depth_raster=root / f"{name}.asc")
            cmd_run(cfg)
            boxes = [(p.patch_id, [b.as_list() for b in p.boxes], p.areas)
                     for p in load_boxes(root / name)]
            runs[name] = boxes, load_mask(root / name), load_mask(root / name, "fused_mask")
        (boxes, kept, fused), (mapped_boxes, mapped_kept, mapped_fused) = runs.values()
        assert any(b for _, b, _ in boxes)
        assert mapped_boxes == boxes
        assert np.array_equal(mapped_kept, kept)
        assert np.array_equal(mapped_fused, fused)


class TestWorkerPool:
    def test_runs_a_bounded_distance_ahead_and_stops_at_an_error(self):
        started = []

        def work(i):
            started.append(i)
            if i == 20:
                raise ValueError("window 20")
            return i

        seen = []
        with pytest.raises(ValueError, match="window 20"):
            for result in pipeline._pool_map(2, work, range(100)):
                assert len(started) - len(seen) <= 5  # 2 * workers ahead, plus this one
                seen.append(result)
        assert seen == list(range(20))
        assert len(started) <= 25  # nothing is started once the error is read
