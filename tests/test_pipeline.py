"""Stage orchestration: artifacts, composition, determinism, backends."""

import json
import os
import time
import weakref
import zipfile
import zlib
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import tree_digests
from sinkseg.config import PipelineConfig
from sinkseg.errors import InputError
from sinkseg.hydro import fill_depressions
from sinkseg.image import RGBImage, write_ppm, write_pgm
from sinkseg.labeling import FilterThresholds, label_components, read_prompts, tile_prompts
from sinkseg.metrics import report_to_json
from sinkseg.mock_server import MockSegmentServer
from sinkseg import hydro, pipeline
from sinkseg.pipeline import cmd_eval, cmd_fill, cmd_prompts, cmd_run, cmd_segment
from sinkseg.raster import (
    BinaryMask,
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


def load_depth(path, name="depth"):
    """The float64 array *name* of the depth archive the fill stage wrote:
    a patch id in patch mode, ``depth`` in mosaic mode."""
    with np.load(path, allow_pickle=False) as archive:
        depth = archive[name]
    assert depth.dtype == np.float64
    return depth


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
        with zipfile.ZipFile(tmp_path / "out" / "depth.npz") as archive:
            names = archive.namelist()
        assert names == [f"{pid}.npy" for pid in manifest_windows(tmp_path / "out")]
        assert names[:2] == ["r00000_c00000.npy", "r00000_c00032.npy"]  # plan order
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
        assert np.array_equal(
            load_depth(tmp_path / "out" / "depth.npz", "r00032_c00032"),
            expected.depth.values,
        )

    def test_mosaic_mode_artifacts(self, scene_dir, tmp_path):
        cfg = make_cfg(scene_dir, tmp_path / "out", fill_mode="mosaic")
        cmd_fill(cfg)
        out = tmp_path / "out"
        dem = read_ascii_grid(scene_dir / "dem.asc")
        expected = fill_depressions(dem)
        assert np.array_equal(load_depth(out / "depth.npz"), expected.depth.values)

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
        got = load_depth(tmp_path / "out" / "depth.npz")
        assert np.array_equal(got, expected.values)
        assert got.max() == 7.0

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
        written = tmp_path / "out" / "depth.npz"
        assert np.all(load_depth(written, "r00000_c00000") == -9999.0)
        void = tmp_path / "void.npz"
        pipeline._write_archive(void, [("depth", np.full((64, 64), -9999.0))])
        assert stored_bytes(written, "r00000_c00000.npy") == stored_bytes(void, "depth.npy")

    @pytest.mark.parametrize("mode", ["patch", "mosaic"])
    def test_depth_archive_rebuilds_georeference_and_nodata(
        self, scene_dir, tmp_path, monkeypatch, mode
    ):
        """Prompts labels each window's depth with the values fill computed
        and the nodata of the manifest."""
        values = read_ascii_grid(scene_dir / "dem.asc").values.copy()
        values[5:9, 70:80] = -32768.0
        dem = Raster(values, nodata=-32768.0, origin_x=1000.5, origin_y=-20.25, cellsize=0.5)
        write_ascii_grid(dem, tmp_path / "dem.asc")
        out = tmp_path / "out"
        cfg = PipelineConfig(depth_raster=tmp_path / "dem.asc", out_dir=out, tile=TILE,
                             fill_mode=mode)
        cmd_fill(cfg)
        labelled = []
        monkeypatch.setattr(pipeline, "label_components",
                            lambda depth: labelled.append(depth) or label_components(depth))
        cmd_prompts(replace(cfg, workers=1))
        mosaic = fill_depressions(dem).depth
        for window, got in zip(manifest_windows(out).values(), labelled, strict=True):
            want = extract_tile(mosaic if mode == "mosaic" else dem, window)
            if mode == "patch":
                want = fill_depressions(want).depth
            assert np.array_equal(got.values, want.values)
            assert got.nodata == want.nodata

    def test_depth_archive_is_byte_stable_with_one_member(self, tmp_path, monkeypatch):
        values = np.random.default_rng(5).normal(size=(40, 48))
        values[0, :3] = (-0.0, 0.0, -9999.0)
        pipeline._write_archive(tmp_path / "a.npz", [("depth", values)])
        monkeypatch.setattr(time, "time", lambda: 1e9)  # a later wall clock
        pipeline._write_archive(tmp_path / "b.npz", [("depth", values)])
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()
        with zipfile.ZipFile(tmp_path / "a.npz") as archive:
            assert archive.namelist() == ["depth.npy"]
        assert np.array_equal(load_depth(tmp_path / "a.npz").view(np.int64),
                              values.view(np.int64))

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
        """Patch mode with one window over the whole raster stores the bytes
        mosaic mode stores, under the window's name, with blocks small enough
        to need joining."""
        root = tmp_path_factory.mktemp("modes")
        write_ascii_grid(dem, root / "dem.asc")
        side = dem.width
        written = {}
        with mock.patch.object(hydro, "_BLOCK", block):
            for mode, name in (("patch", "r00000_c00000.npy"), ("mosaic", "depth.npy")):
                cmd_fill(PipelineConfig(depth_raster=root / "dem.asc", out_dir=root / mode,
                                        fill_mode=mode, tile=TileSpec(side, side)))
                written[mode] = stored_bytes(root / mode / "depth.npz", name)
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
        small = np.zeros((64, 64, 3), dtype=np.uint8)
        from sinkseg.image import RGBImage

        write_ppm(RGBImage(small), tmp_path / "small.ppm")
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
        from sinkseg.raster import BinaryMask, write_ascii_mask

        write_ascii_mask(BinaryMask(np.zeros((4, 4), dtype=bool)), tmp_path / "tiny.asc")
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
        assert kept[gt.values].mean() > 0.9

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
            grid, covered = folded.pop()
            assert (~covered).sum() == 40
            expected = grid > 0
            assert expected.any() and np.array_equal(load_mask(out), expected)
            assert not expected[~covered].any()
            got = pipeline._read_array(out / "kept_mask.npz", "prompts", "mask", np.bool_,
                                       (128, 128))
            assert np.array_equal(got, expected)

    def test_mean_depth_equal_to_nodata_stays_kept(self, tmp_path):
        """Under mean, a cell kept in the windows that hold it stays kept
        where its mean depth happens to equal the DEM's nodata, 1.0 here:
        the kept cells are folded, not a depth mosaic read through nodata."""
        out = tmp_path / "out"
        cfg = PipelineConfig(out_dir=out, tile=TileSpec(patch=4, stride=2), merge=MergeRule.MEAN,
                             filter=FilterThresholds(min_depth=0.0, min_area_px=0))
        out.mkdir()
        pipeline._write_manifest(out, Raster(np.zeros((4, 6)), nodata=1.0), cfg)
        windows = plan_tiles(6, 4, cfg.tile)  # columns 0-3 and 2-5
        depths = [np.full((4, 4), 0.5), np.full((4, 4), 1.5)]
        pipeline._write_archive(out / "depth.npz",
                                [(patch_id(w), d) for w, d in zip(windows, depths, strict=True)])
        cmd_prompts(cfg)
        assert load_mask(out).all()


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
        assert fused.shape == gt.values.shape

    def test_report_files_match_returned_report(self, scene_dir, tmp_path):
        from sinkseg.metrics import report_to_json

        cfg, report = self.run_all(scene_dir, tmp_path / "out")
        assert (tmp_path / "out" / "report.json").read_text() == report_to_json(report)
        csv_text = (tmp_path / "out" / "report.csv").read_text()
        assert csv_text.startswith("label,f1,iou,precision,recall,accuracy\nrun,")

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

    @pytest.mark.parametrize("merge", [MergeRule.MAX, MergeRule.MEAN])
    def test_dem_nodata_does_not_mask_probabilities(self, scene_dir, tmp_path, merge):
        """A DEM sentinel that is also a probability (0.0, 1.0) leaves the mask as is."""
        dem = read_ascii_grid(scene_dir / "dem.asc")
        masks = {}
        for nodata in (-9999.0, 0.0, 1.0):
            assert not (dem.values == nodata).any()
            path = tmp_path / f"dem_{nodata}.asc"
            write_ascii_grid(Raster(dem.values, nodata, *dem.geotransform), path)
            out = tmp_path / f"out_{nodata}"
            cfg = replace(make_cfg(scene_dir, out, merge=merge), depth_raster=path)
            cmd_fill(cfg)
            cmd_prompts(cfg)
            cmd_segment(cfg)
            masks[nodata] = load_mask(out, "fused_mask")
        assert masks[-9999.0].sum() > 0
        assert np.array_equal(masks[0.0], masks[-9999.0])
        assert np.array_equal(masks[1.0], masks[-9999.0])

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

    def test_replay_backend_reproduces_echo_run(self, scene_dir, tmp_path):
        cfg, _ = self.run_all(scene_dir, tmp_path / "echo")
        # record per-box echo masks, then replay them through the pipeline
        kept = load_mask(tmp_path / "echo")
        windows = manifest_windows(tmp_path / "echo")
        replay_dir = tmp_path / "recorded"
        for prompts in load_boxes(tmp_path / "echo"):
            window = windows[prompts.patch_id]
            positive = kept[window.row0 : window.row0 + window.patch,
                            window.col0 : window.col0 + window.patch]
            mask_dir = replay_dir / prompts.patch_id
            mask_dir.mkdir(parents=True, exist_ok=True)
            for i, box in enumerate(prompts.boxes):
                m = np.zeros(positive.shape, dtype=np.uint8)
                m[box.y0 : box.y1, box.x0 : box.x1] = (
                    positive[box.y0 : box.y1, box.x0 : box.x1] * 255
                )
                write_pgm(m, mask_dir / f"{i}.pgm")

        replay_cfg = make_cfg(scene_dir, tmp_path / "replayed",
                              backend_kind="replay", backend_replay_dir=replay_dir)
        cmd_fill(replay_cfg)
        cmd_prompts(replay_cfg)
        cmd_segment(replay_cfg)
        echo_fused = (tmp_path / "echo" / "fused_mask.npz").read_bytes()
        replay_fused = (tmp_path / "replayed" / "fused_mask.npz").read_bytes()
        assert replay_fused == echo_fused


class TestArtifacts:
    def test_run_writes_exactly_the_consumed_artifacts(self, scene_dir, tmp_path):
        files = {"manifest.json", "depth.npz", "boxes.jsonl", "kept_mask.npz",
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
        assert exported.count() > 0
        assert np.array_equal(exported.values, load_mask(tmp_path / "out", "fused_mask"))
        assert exported.geotransform == read_ascii_grid(scene_dir / "dem.asc").geotransform


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
    def test_in_memory_hand_off_writes_the_staged_bytes(self, scene_dir, tmp_path, mode, backend):
        """cmd_run writes, byte for byte, what the four stages run one by one
        write, in both fill modes and with both backends. The name is kept
        from when cmd_run handed masks between its stages in memory."""
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
        assert reads == staged == ["dem.asc", "depth.npz", "kept_mask.npz",
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
        """Eight threads, more than the cores, label the 225 windows of one
        ``depth.npz`` with the interpreter switching threads as often as it
        can, and label what one thread labels.  Every member is opened on
        the calling thread: ``ZipFile.open`` counts the readers of the
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
            write_ppm(RGBImage(turn(scene.rgb.pixels)), scene_dir / "rgb.ppm")
            write_ascii_mask(BinaryMask(turn(scene.gt_mask.values)), scene_dir / "gt_mask.asc")
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
