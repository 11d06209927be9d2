"""Gate checks: one test per shipping criterion, tolerances pinned.

Each test stands alone and prints one pass/fail line under ``pytest -v``.
Everything here is redundant with the per-module suites on purpose — these
are the checks that decide whether the package is releasable, so they avoid
helpers with their own logic wherever practical.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import pytest

from conftest import make_random_dem, tree_digests
from sinkseg.config import PipelineConfig
from sinkseg.errors import BackendError, NoOutletError, ProtocolError
from sinkseg.hydro import fill_depressions
from sinkseg.image import RGBImage
from sinkseg.labeling import (
    FilterThresholds,
    PromptBox,
    components_from_mask,
    filter_components,
    label_components,
)
from sinkseg.metrics import (
    DEFAULT_THRESHOLDS,
    PixelConfusion,
    bce_loss,
    combined_loss,
    dice_loss,
    metrics_from_confusion,
    object_match,
    pixel_confusion,
)
from sinkseg.mock_server import MockSegmentServer
from sinkseg.pipeline import cmd_run
from sinkseg.raster import BinaryMask, Raster
from sinkseg.segmenter import HttpBackend, segment_patch
from sinkseg.synth import brute_force_fill, export_scene, gen_terrain
from sinkseg.tiling import TileSpec, extract_tile, plan_tiles, stitch


def test_1_fill_matches_brute_force_oracle_on_200_random_rasters():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for case in range(200):
        h, w = (int(v) for v in rng.integers(1, 65, size=2))
        dem = make_random_dem(
            rng,
            h,
            w,
            nodata_frac=float(rng.choice([0.0, 0.1, 0.3])),
            quantize=[None, 4.0][case % 2],
        )
        if not dem.valid_mask().any():
            with pytest.raises(NoOutletError):
                fill_depressions(dem)
            continue
        produced = fill_depressions(dem).filled.values
        oracle = brute_force_fill(dem).values
        assert np.max(np.abs(produced - oracle)) <= 1e-9
    assert time.perf_counter() - started < 10.0


def test_2_fill_property_suite_500_cases():
    rng = np.random.default_rng(202)
    offsets = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    checked = 0
    while checked < 500:
        h, w = (int(v) for v in rng.integers(1, 21, size=2))
        dem = make_random_dem(
            rng,
            h,
            w,
            nodata_frac=float(rng.choice([0.0, 0.2, 0.5])),
            quantize=float(rng.choice([0.0, 2.0])) or None,
        )
        valid = dem.valid_mask()
        if not valid.any():
            continue
        filled = fill_depressions(dem).filled
        fv = filled.values

        # filled >= original, nodata untouched
        assert np.all(fv[valid] >= dem.values[valid])
        assert np.all(fv[~valid] == dem.nodata)

        # idempotence, bit for bit
        assert np.array_equal(fill_depressions(filled).filled.values, fv)

        # boundary fixedness: outlet cells keep their input elevation
        padded = np.zeros((h + 2, w + 2), dtype=bool)
        padded[1:-1, 1:-1] = valid
        interior = np.ones_like(valid)
        for dr, dc in offsets:
            interior &= padded[1 + dr : h + 1 + dr, 1 + dc : w + 1 + dc]
        outlet = valid & ~interior
        assert np.array_equal(fv[outlet], dem.values[outlet])

        # every valid cell has a non-ascending 8-connected path to an outlet
        reached = outlet.copy()
        stack = [(int(r), int(c)) for r, c in np.argwhere(outlet)]
        while stack:
            r, c = stack.pop()
            for dr, dc in offsets:
                nr, nc = r + dr, c + dc
                if (
                    0 <= nr < h
                    and 0 <= nc < w
                    and valid[nr, nc]
                    and not reached[nr, nc]
                    and fv[nr, nc] >= fv[r, c]
                ):
                    reached[nr, nc] = True
                    stack.append((nr, nc))
        assert reached[valid].all()
        checked += 1
    assert checked >= 500


def test_3_tiling_round_trip_identity_and_window_counts():
    windows_1024 = plan_tiles(1024, 1024)
    assert len(windows_1024) == 9
    assert sorted({w.col0 for w in windows_1024}) == [0, 256, 512]

    windows_1000 = plan_tiles(1000, 1000)
    assert len(windows_1000) == 9
    assert sorted({w.col0 for w in windows_1000}) == [0, 256, 488]
    assert sorted({w.row0 for w in windows_1000}) == [0, 256, 488]

    rng = np.random.default_rng(303)
    for size in (512, 777, 1000, 1024):
        mosaic = Raster(rng.random((size, size)))
        tiles = [(w, extract_tile(mosaic, w)) for w in plan_tiles(size, size)]
        back = stitch(tiles, size, size)
        assert np.array_equal(back.values, mosaic.values)
        assert back.geotransform == mosaic.geotransform


def test_4_metric_hand_checks_and_loss_identities():
    pred = np.zeros((4, 4), dtype=bool)
    gt = np.zeros((4, 4), dtype=bool)
    pred[0:2, 0:2] = True
    gt[0:2, 1:3] = True
    report = metrics_from_confusion(pixel_confusion(BinaryMask(pred), BinaryMask(gt)))
    assert report.precision == 0.5
    assert report.recall == 0.5
    assert report.f1 == 0.5
    assert report.iou == 1 / 3
    assert report.accuracy == 0.75

    probs = np.full((10, 10), 0.5)
    target = BinaryMask(np.zeros((10, 10), dtype=bool))
    assert math.isclose(bce_loss(probs, target), math.log(2), rel_tol=0, abs_tol=1e-12)

    rng = np.random.default_rng(404)
    random_probs = rng.random((17, 23))
    random_gt = BinaryMask(rng.random((17, 23)) > 0.5)
    loss = combined_loss(random_probs, random_gt)
    assert loss.total == bce_loss(random_probs, random_gt) + dice_loss(random_probs, random_gt)
    assert loss.total == loss.bce + loss.dice


def test_5_metric_identities_and_matching_monotonicity():
    rng = np.random.default_rng(505)
    for _ in range(1000):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 1000, size=4))
        r = metrics_from_confusion(PixelConfusion(tp=tp, tn=tn, fp=fp, fn=fn))
        assert math.isclose(r.f1, 2 * r.iou / (1 + r.iou), rel_tol=0, abs_tol=1e-12)

    for _ in range(100):
        pred = components_from_mask(BinaryMask(rng.random((48, 48)) > 0.82))
        gt = components_from_mask(BinaryMask(rng.random((48, 48)) > 0.82))
        tps = [object_match(pred, gt, t)[0] for t in DEFAULT_THRESHOLDS]
        assert tps == sorted(tps, reverse=True)


def test_6_filter_keeps_boundary_and_removes_below_threshold():
    depth = np.zeros((30, 50))
    depth[0:20, :] = 1.99  # id 1: area 1000, too shallow
    depth[21, 0:49] = 10.0  # id 2: area 49, too small
    depth[23, 0:50] = 2.0  # id 3: area 50 at depth 2.0, exactly at both
    grid = label_components(Raster(depth))
    assert grid.area_px[1:].tolist() == [1000, 49, 50]
    assert grid.max_depth[1:].tolist() == [1.99, 10.0, 2.0]
    kept = filter_components(grid, FilterThresholds(min_depth=2.0, min_area_px=50))
    assert kept.tolist() == [3]


def test_7_end_to_end_echo_run_on_1024px_scene(tmp_path):
    scene = gen_terrain(seed=42, width=1024, height=1024, n_sinkholes=12)
    export_scene(scene, tmp_path / "scene")
    cfg = PipelineConfig(
        depth_raster=tmp_path / "scene" / "dem.asc",
        rgb_mosaic=tmp_path / "scene" / "rgb.ppm",
        eval_gt_mask=tmp_path / "scene" / "gt_mask.asc",
        out_dir=tmp_path / "out",
    )
    started = time.perf_counter()
    report = cmd_run(cfg)
    elapsed = time.perf_counter() - started
    assert report.iou >= 0.95
    by_threshold = {row[0]: row[1:] for row in report.object_rows}
    assert by_threshold[0.5] == (12, 0, 0)
    assert elapsed < 30.0


def test_8_wire_protocol_round_trip_and_fault_rejection():
    patch = RGBImage(np.zeros((8, 8, 3), dtype=np.uint8))
    box = [PromptBox(0, 0, 8, 8)]
    with MockSegmentServer(mode="constant", value=128) as server:
        probs = segment_patch(HttpBackend(server.endpoint), patch, box)
        assert np.all(probs == np.float64(128) / np.float64(255))

    expected_errors = {
        "count_mismatch": (ProtocolError, "mask count mismatch"),
        "bad_dims": (ProtocolError, r"mask 0 has shape"),
        "bad_maxval": (ProtocolError, "maxval must be 255"),
        "bad_score": (ProtocolError, r"score 0 outside \[0, 1\]"),
        "http_500": (BackendError, "HTTP 500"),
    }
    for fault, (exc_type, pattern) in expected_errors.items():
        with MockSegmentServer(fault=fault) as server:
            with pytest.raises(exc_type, match=pattern):
                segment_patch(HttpBackend(server.endpoint), patch, box)


def test_9_repeated_runs_are_byte_identical_across_worker_counts(tmp_path):
    scene = gen_terrain(seed=9, width=512, height=512, n_sinkholes=6)
    export_scene(scene, tmp_path / "scene")
    base = PipelineConfig(
        depth_raster=tmp_path / "scene" / "dem.asc",
        rgb_mosaic=tmp_path / "scene" / "rgb.ppm",
        eval_gt_mask=tmp_path / "scene" / "gt_mask.asc",
        out_dir=Path("unset"),
        tile=TileSpec(patch=256, stride=128),
    )
    digests = {}
    for label, workers in (("first", 1), ("again", 1), ("pool8", 8)):
        cfg = replace(base, out_dir=tmp_path / label, workers=workers)
        cmd_run(cfg)
        digests[label] = tree_digests(tmp_path / label)
    assert digests["first"] == digests["again"]
    assert digests["first"] == digests["pool8"]

    rerun = replace(base, out_dir=tmp_path / "first", workers=8)
    cmd_run(rerun)
    assert tree_digests(tmp_path / "first") == digests["first"]
