"""Stage orchestration: artifacts, composition, determinism, backends."""

import json
import time
import weakref
import zipfile
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import tree_digests
from sinkseg.config import PipelineConfig
from sinkseg.errors import InputError
from sinkseg.hydro import fill_depressions
from sinkseg.image import write_ppm, write_pgm
from sinkseg.labeling import FilterThresholds, read_prompts, tile_prompts
from sinkseg.mock_server import MockSegmentServer
from sinkseg import hydro, pipeline
from sinkseg.pipeline import cmd_eval, cmd_fill, cmd_prompts, cmd_run, cmd_segment
from sinkseg.raster import (
    Raster,
    invert_depth,
    read_ascii_grid,
    read_ascii_mask,
    write_ascii_grid,
)
from sinkseg.synth import export_scene, gen_terrain
from sinkseg.tiling import MergeRule, TileSpec, extract_tile, patch_id, plan_tiles

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


def load_depth(path):
    """The float64 array of a depth archive the fill or prompts stage wrote."""
    with np.load(path, allow_pickle=False) as archive:
        assert archive.files == ["depth"]
        depth = archive["depth"]
    assert depth.dtype == np.float64
    return depth


def load_filtered(out_dir):
    """The filtered depth mosaic the prompts stage wrote, georeferenced by the manifest."""
    doc = json.loads((Path(out_dir) / "manifest.json").read_text())
    return Raster(load_depth(Path(out_dir) / "depth_filtered.npz"), doc["nodata"],
                  doc["origin_x"], doc["origin_y"], doc["cellsize"])


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
        patches = tmp_path / "out" / "patches"
        depth = sorted(p.name for p in patches.glob("*.depth.npz"))
        assert len(depth) == 9
        assert depth[0] == "r00000_c00000.depth.npz"
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["width"] == 128 and manifest["height"] == 128
        assert manifest["patch"] == 64 and manifest["stride"] == 32
        assert manifest["fill_mode"] == "patch"

    def test_patch_contents_match_library_fill(self, scene_dir, tmp_path):
        cfg = make_cfg(scene_dir, tmp_path / "out")
        cmd_fill(cfg)
        dem = read_ascii_grid(scene_dir / "dem.asc")
        patches = tmp_path / "out" / "patches"
        window = manifest_windows(tmp_path / "out")["r00032_c00032"]
        expected = fill_depressions(extract_tile(dem, window))
        assert np.array_equal(
            load_depth(patches / "r00032_c00032.depth.npz"),
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
        written = tmp_path / "out" / "patches" / "r00000_c00000.depth.npz"
        assert np.all(load_depth(written) == -9999.0)
        pipeline._write_depth(np.full((64, 64), -9999.0), tmp_path / "void.npz")
        assert written.read_bytes() == (tmp_path / "void.npz").read_bytes()

    @pytest.mark.parametrize("mode", ["patch", "mosaic"])
    def test_depth_archive_rebuilds_georeference_and_nodata(self, scene_dir, tmp_path, mode):
        values = read_ascii_grid(scene_dir / "dem.asc").values.copy()
        values[5:9, 70:80] = -32768.0
        dem = Raster(values, nodata=-32768.0, origin_x=1000.5, origin_y=-20.25, cellsize=0.5)
        write_ascii_grid(dem, tmp_path / "dem.asc")
        out = tmp_path / "out"
        cmd_fill(PipelineConfig(depth_raster=tmp_path / "dem.asc", out_dir=out, tile=TILE,
                                fill_mode=mode))
        doc = json.loads((out / "manifest.json").read_text())
        if mode == "mosaic":
            expected = {None: fill_depressions(dem).depth}
            paths = {None: out / "depth.npz"}
        else:
            windows = manifest_windows(out)
            expected = {w: fill_depressions(extract_tile(dem, w)).depth for w in windows.values()}
            paths = {w: out / "patches" / f"{pid}.depth.npz" for pid, w in windows.items()}
        for window, want in expected.items():
            got = pipeline._read_depth(paths[window], "fill", doc, window)
            assert np.array_equal(got.values, want.values)
            assert (got.nodata, got.geotransform) == (want.nodata, want.geotransform)

    def test_depth_archive_is_byte_stable_with_one_member(self, tmp_path, monkeypatch):
        values = np.random.default_rng(5).normal(size=(40, 48))
        values[0, :3] = (-0.0, 0.0, -9999.0)
        pipeline._write_depth(values, tmp_path / "a.npz")
        monkeypatch.setattr(time, "time", lambda: 1e9)  # a later wall clock
        pipeline._write_depth(values, tmp_path / "b.npz")
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()
        with zipfile.ZipFile(tmp_path / "a.npz") as archive:
            assert archive.namelist() == ["depth.npy"]
        assert np.array_equal(load_depth(tmp_path / "a.npz").view(np.int64),
                              values.view(np.int64))

    def test_reads_an_archive_from_savez_compressed(self, tmp_path):
        # the form of out_dirs written before depth archives deflated at level 1
        values = np.random.default_rng(6).normal(size=(30, 20))
        values[1, 1] = -0.0
        np.savez_compressed(tmp_path / "depth.npz", depth=values)
        doc = {"width": 20, "height": 30, "nodata": -9999.0,
               "origin_x": 0.0, "origin_y": 0.0, "cellsize": 1.0}
        got = pipeline._read_depth(tmp_path / "depth.npz", "fill", doc)
        assert np.array_equal(got.values.view(np.int64), values.view(np.int64))

    def test_depth_archive_holds_the_bytes_numpy_writes(self, tmp_path):
        """The copy-free write gives numpy's own ``.npy`` member, bit for bit,
        for an array larger than ``write_array``'s 16 MiB chunks and for arrays
        that are not C-contiguous."""
        rng = np.random.default_rng(7)
        big = np.zeros((1500, 1500))  # 18 MB
        big[::7, ::5] = rng.normal(size=big[::7, ::5].shape)
        small = rng.normal(size=(30, 40))
        for values in (big, small, small.T, np.asfortranarray(small), small[::2, ::3]):
            pipeline._write_depth(values, tmp_path / "fast.npz")
            with zipfile.ZipFile(tmp_path / "numpy.npz", "w", zipfile.ZIP_DEFLATED,
                                 compresslevel=1) as archive:
                with archive.open("depth.npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, np.ascontiguousarray(values))
            assert (tmp_path / "fast.npz").read_bytes() == (tmp_path / "numpy.npz").read_bytes()
            assert np.array_equal(load_depth(tmp_path / "fast.npz"), values)

    def test_depth_archive_write_copies_no_array(self, tmp_path):
        import tracemalloc

        values = np.zeros((1024, 1024))  # 8 MB, mostly flat as depth is
        values[100:140, 200:260] = 1.5
        tracemalloc.start()
        try:
            pipeline._write_depth(values, tmp_path / "depth.npz")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"peak {peak / 1e6:.1f} MB"


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
        prompts = read_prompts(tmp_path / "out" / "patches" / "r00000_c00000.boxes.json")
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
        for path in (tmp_path / "out" / "patches").glob("*.boxes.json"):
            assert read_prompts(path).boxes == []
        filtered = load_filtered(tmp_path / "out")
        valid = filtered.valid_mask()
        assert np.all(filtered.values[valid] == 0.0)

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
        for path in (tmp_path / "out" / "patches").glob("*.boxes.json"):
            assert read_prompts(path).boxes == []

    @pytest.mark.parametrize("mode", ["patch", "mosaic"])
    def test_each_filtered_tile_is_folded_as_it_is_made(
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

    def test_filtered_mosaic_zeroes_discarded_components(self, scene_dir, tmp_path):
        cfg = make_cfg(scene_dir, tmp_path / "out")
        cmd_fill(cfg)
        cmd_prompts(cfg)
        filtered = load_filtered(tmp_path / "out")
        gt = read_ascii_mask(scene_dir / "gt_mask.asc")
        # surviving depressions sit exactly where the ground truth says
        on_gt = filtered.values[gt.values]
        assert (on_gt > 0).mean() > 0.9

    @pytest.mark.parametrize("mode", ["patch", "mosaic"])
    def test_filtered_archive_is_the_returned_mosaic(self, scene_dir, tmp_path, mode):
        values = read_ascii_grid(scene_dir / "dem.asc").values.copy()
        values[5:9, 70:80] = -32768.0
        dem = Raster(values, nodata=-32768.0, origin_x=1000.5, origin_y=-20.25, cellsize=0.5)
        write_ascii_grid(dem, tmp_path / "dem.asc")
        out = tmp_path / "out"
        cfg = replace(make_cfg(scene_dir, out, fill_mode=mode), depth_raster=tmp_path / "dem.asc")
        cmd_fill(cfg)
        mosaic = cmd_prompts(cfg)
        assert (mosaic.values == -32768.0).sum() == 40 and (mosaic.values > 0).any()
        written = load_depth(out / "depth_filtered.npz")
        assert np.array_equal(written.view(np.int64), mosaic.values.view(np.int64))
        doc = json.loads((out / "manifest.json").read_text())
        got = pipeline._read_depth(out / "depth_filtered.npz", "prompts", doc)
        assert (got.nodata, got.geotransform) == (mosaic.nodata, mosaic.geotransform)


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
        fused = read_ascii_mask(tmp_path / "out" / "fused_mask.asc")
        gt = read_ascii_mask(scene_dir / "gt_mask.asc")
        assert fused.values.shape == gt.values.shape

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
        fused = read_ascii_mask(tmp_path / "out" / "fused_mask.asc")
        assert fused.count() == 0
        assert report.recall == 0.0 and report.precision == 0.0

    def test_mosaic_fill_mode_end_to_end(self, scene_dir, tmp_path):
        cfg, report = self.run_all(scene_dir, tmp_path / "out", fill_mode="mosaic")
        assert report.iou > 0.9

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
            masks[nodata] = read_ascii_mask(out / "fused_mask.asc").values
        assert masks[-9999.0].sum() > 0
        assert np.array_equal(masks[0.0], masks[-9999.0])
        assert np.array_equal(masks[1.0], masks[-9999.0])

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
        for boxes_path in (tmp_path / "out" / "patches").glob("*.boxes.json"):
            prompts = read_prompts(boxes_path)
            window = windows[prompts.patch_id]
            for box in prompts.boxes:
                expected[
                    window.row0 + box.y0 : window.row0 + box.y1,
                    window.col0 + box.x0 : window.col0 + box.x1,
                ] = True
        fused = read_ascii_mask(tmp_path / "out" / "fused_mask.asc")
        assert np.array_equal(fused.values, expected)

    @pytest.mark.parametrize("kind", ["http", "replay"])
    def test_only_echo_reads_the_filtered_depth(self, scene_dir, tmp_path, kind):
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
            fused = (out / "fused_mask.asc").read_bytes()
            (out / "depth_filtered.npz").write_text("not an archive\n")
            cmd_segment(cfg)
        assert (out / "fused_mask.asc").read_bytes() == fused
        with pytest.raises(InputError, match="rerun the prompts stage"):
            cmd_segment(replace(cfg, backend_kind="echo"))

    def test_replay_backend_reproduces_echo_run(self, scene_dir, tmp_path):
        cfg, _ = self.run_all(scene_dir, tmp_path / "echo")
        # record per-box echo masks, then replay them through the pipeline
        patches = tmp_path / "echo" / "patches"
        depth_filtered = load_filtered(tmp_path / "echo")
        windows = manifest_windows(tmp_path / "echo")
        replay_dir = tmp_path / "recorded"
        for boxes_path in sorted(patches.glob("*.boxes.json")):
            prompts = read_prompts(boxes_path)
            window = windows[prompts.patch_id]
            tile = extract_tile(depth_filtered, window)
            positive = tile.valid_mask() & (tile.values > 0)
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
        echo_fused = (tmp_path / "echo" / "fused_mask.asc").read_bytes()
        replay_fused = (tmp_path / "replayed" / "fused_mask.asc").read_bytes()
        assert replay_fused == echo_fused


class TestArtifacts:
    def test_run_writes_exactly_the_consumed_artifacts(self, scene_dir, tmp_path):
        ids = [f"r{r:05d}_c{c:05d}" for r in (0, 32, 64) for c in (0, 32, 64)]
        common = {"manifest.json", "depth_filtered.npz", "fused_mask.asc",
                  "report.json", "report.csv"}
        common |= {f"patches/{pid}.boxes.json" for pid in ids}
        expected = {
            "patch": common | {f"patches/{pid}.depth.npz" for pid in ids},
            "mosaic": common | {"depth.npz"},
        }
        for mode, files in expected.items():
            out = tmp_path / mode
            cmd_run(make_cfg(scene_dir, out, fill_mode=mode))
            written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
            assert written == files, mode


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
        server = MockSegmentServer(mode="boxfill", value=255) if backend == "http" else None
        with server or nullcontext():
            kw = {"backend_kind": "http", "backend_endpoint": server.endpoint} if server else {}
            staged = make_cfg(scene_dir, tmp_path / "staged", fill_mode=mode, **kw)
            for stage in (cmd_fill, cmd_prompts, cmd_segment, cmd_eval):
                stage(staged)
            cmd_run(make_cfg(scene_dir, tmp_path / "run", fill_mode=mode, **kw))
        assert tree_digests(tmp_path / "staged") == tree_digests(tmp_path / "run")

    def test_run_reads_back_no_product_it_wrote(self, scene_dir, tmp_path, monkeypatch):
        out = tmp_path / "out"
        reads = []
        for name in ("read_ascii_grid", "read_ascii_mask", "_read_depth"):
            def counting(path, *args, _read=getattr(pipeline, name), **kwargs):
                reads.append(Path(path))
                return _read(path, *args, **kwargs)

            monkeypatch.setattr(pipeline, name, counting)

        def products():  # all but the fill archives, the fill -> prompts hand-off
            return [p for p in reads if not p.name.endswith(".depth.npz")]

        cfg = make_cfg(scene_dir, out)  # echo: the one backend that paints the filtered depth
        cmd_run(cfg)
        assert len(reads) - len(products()) == 9  # one archive per window
        assert products() == [scene_dir / "dem.asc", scene_dir / "gt_mask.asc"]
        cmd_segment(cfg)  # a stage run on its own reads its input back
        cmd_eval(cfg)
        assert [p for p in products() if out in p.parents] == [out / "depth_filtered.npz",
                                                              out / "fused_mask.asc"]

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

    def test_worker_count_does_not_change_bytes(self, scene_dir, tmp_path):
        serial = make_cfg(scene_dir, tmp_path / "serial", workers=1)
        threaded = make_cfg(scene_dir, tmp_path / "threaded", workers=4)
        cmd_run(serial)
        cmd_run(threaded)
        assert tree_digests(tmp_path / "serial") == tree_digests(tmp_path / "threaded")


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
