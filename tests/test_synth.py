"""Synthetic scene generation and the brute-force fill oracle."""

import json
import math

import numpy as np
import pytest

from conftest import make_random_dem, tree_digests
from sinkseg.hydro import fill_depressions
from sinkseg.labeling import FilterThresholds, filter_components, label_components
from sinkseg.raster import Raster, read_ascii_grid, read_ascii_mask
from sinkseg.synth import (
    DEFAULT_SLOPE,
    Lcg,
    PlacementError,
    brute_force_fill,
    export_scene,
    gen_terrain,
)

NODATA = -9999.0


class TestLcg:
    def test_same_seed_same_sequence(self):
        a, b = Lcg(42), Lcg(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_different_seeds_diverge(self):
        assert Lcg(1).next_u64() != Lcg(2).next_u64()

    def test_uniform_stays_in_range(self):
        lcg = Lcg(7)
        draws = [lcg.uniform(3.0, 5.0) for _ in range(1000)]
        assert all(3.0 <= d < 5.0 for d in draws)
        assert min(draws) < 3.2 and max(draws) > 4.8

    def test_randint_inclusive_bounds(self):
        lcg = Lcg(9)
        draws = {lcg.randint(2, 4) for _ in range(200)}
        assert draws == {2, 3, 4}

    def test_randint_empty_range(self):
        with pytest.raises(ValueError, match="empty integer range"):
            Lcg(0).randint(5, 4)


class TestSceneDeterminism:
    def test_equal_seeds_bit_identical(self):
        a = gen_terrain(seed=5, width=96, height=80, n_sinkholes=2, noise_amp=0.5)
        b = gen_terrain(seed=5, width=96, height=80, n_sinkholes=2, noise_amp=0.5)
        assert np.array_equal(a.dem.values, b.dem.values)
        assert np.array_equal(a.rgb.pixels, b.rgb.pixels)
        assert np.array_equal(a.gt_mask.values, b.gt_mask.values)
        assert a.pits == b.pits

    def test_different_seeds_differ(self):
        a = gen_terrain(seed=5, width=96, height=80, n_sinkholes=2)
        b = gen_terrain(seed=6, width=96, height=80, n_sinkholes=2)
        assert not np.array_equal(a.dem.values, b.dem.values)


class TestSinglePitGeometry:
    """Flat base, one pit with pinned radius and depth: everything is analytic."""

    def setup_method(self):
        self.scene = gen_terrain(
            seed=7,
            width=64,
            height=64,
            n_sinkholes=1,
            depth_range=(5.0, 5.0),
            radius_range=(10.0, 10.0),
            slope=0.0,
        )
        (self.pit,) = self.scene.pits

    def test_center_carries_exact_depth(self):
        dem = self.scene.dem.values
        assert dem[self.pit.center_row, self.pit.center_col] == 100.0 - 5.0
        assert dem.min() == 95.0

    def test_footprint_is_strict_interior_of_the_radius(self):
        expected = np.zeros((64, 64), dtype=bool)
        for r in range(64):
            for c in range(64):
                if (r - self.pit.center_row) ** 2 + (c - self.pit.center_col) ** 2 < 100:
                    expected[r, c] = True
        assert np.array_equal(self.scene.gt_mask.values, expected)

    def test_footprint_equals_cells_below_base_plane(self):
        assert np.array_equal(self.scene.gt_mask.values, self.scene.dem.values < 100.0)

    def test_filled_depth_support_recovers_the_footprint(self):
        depth = fill_depressions(self.scene.dem).depth.values
        assert np.array_equal(depth > 0, self.scene.gt_mask.values)

    def test_truth_component_matches_mask(self):
        (truth,) = self.scene.truths
        assert truth.max_depth == 5.0
        assert truth.area_px == int(self.scene.gt_mask.values.sum())
        assert truth.pixels == frozenset(
            (int(r), int(c)) for r, c in np.argwhere(self.scene.gt_mask.values)
        )


class TestMultiPitScenes:
    def test_gt_is_union_of_disjoint_truths(self):
        scene = gen_terrain(seed=3, width=160, height=128, n_sinkholes=4)
        union = set()
        total = 0
        for truth in scene.truths:
            assert not (union & truth.pixels)
            union |= truth.pixels
            total += truth.area_px
        assert total == int(scene.gt_mask.values.sum())
        assert union == {
            (int(r), int(c)) for r, c in np.argwhere(scene.gt_mask.values)
        }

    def test_truth_ids_and_tight_bboxes(self):
        scene = gen_terrain(seed=3, width=160, height=128, n_sinkholes=4)
        assert [t.id for t in scene.truths] == [1, 2, 3, 4]
        for truth in scene.truths:
            rows = [p[0] for p in truth.pixels]
            cols = [p[1] for p in truth.pixels]
            assert truth.bbox.as_list() == [
                min(cols), min(rows), max(cols) + 1, max(rows) + 1,
            ]

    def test_pits_never_touch(self):
        for seed in (1, 2, 3):
            scene = gen_terrain(seed=seed, width=256, height=256, n_sinkholes=6)
            for i, a in enumerate(scene.pits):
                for b in scene.pits[i + 1 :]:
                    dist = math.hypot(
                        a.center_col - b.center_col, a.center_row - b.center_row
                    )
                    assert dist > a.radius + b.radius + 2.0

    def test_zero_sinkholes(self):
        scene = gen_terrain(seed=1, width=64, height=64, n_sinkholes=0)
        assert not scene.gt_mask.values.any()
        assert scene.truths == [] and scene.pits == ()

    def test_noise_alone_creates_nothing_that_survives_the_filter(self):
        scene = gen_terrain(seed=11, width=128, height=128, n_sinkholes=0, noise_amp=0.5)
        depth = fill_depressions(scene.dem).depth
        grid = label_components(depth)
        assert len(grid) > 0  # the noise does make depressions
        assert filter_components(grid, FilterThresholds(2.0, 50)).tolist() == []

    def test_impossible_packing_raises(self):
        with pytest.raises(PlacementError, match="could not place"):
            gen_terrain(seed=1, width=64, height=64, n_sinkholes=20,
                        radius_range=(10.0, 10.0))

    def test_rgb_darkens_pits(self):
        scene = gen_terrain(seed=3, width=160, height=128, n_sinkholes=4)
        gray = scene.rgb.pixels[:, :, 0].astype(np.float64)
        gt = scene.gt_mask.values
        assert gray[gt].mean() < gray[~gt].mean() * 0.8
        assert scene.rgb.pixels.shape == (128, 160, 3)

    def test_base_plane_slopes_by_default(self):
        scene = gen_terrain(seed=1, width=32, height=32, n_sinkholes=0)
        dem = scene.dem.values
        assert dem[0, -1] - dem[0, 0] == pytest.approx(31 * DEFAULT_SLOPE)
        assert dem[-1, 0] - dem[0, 0] == pytest.approx(31 * DEFAULT_SLOPE / 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="at least 1x1"):
            gen_terrain(seed=1, width=0, height=4, n_sinkholes=0)
        with pytest.raises(ValueError, match="n_sinkholes"):
            gen_terrain(seed=1, width=4, height=4, n_sinkholes=-1)
        with pytest.raises(ValueError, match="radius_range"):
            gen_terrain(seed=1, width=4, height=4, n_sinkholes=0, radius_range=(0.0, 2.0))
        with pytest.raises(ValueError, match="depth_range"):
            gen_terrain(seed=1, width=4, height=4, n_sinkholes=0, depth_range=(5.0, 3.0))
        with pytest.raises(ValueError, match="noise_amp"):
            gen_terrain(seed=1, width=4, height=4, n_sinkholes=0, noise_amp=-0.1)

    @pytest.mark.parametrize("kwargs", [
        {"depth_range": (3.0, math.inf)},
        {"radius_range": (math.nan, 2.0)},
        {"noise_amp": math.nan},
        {"noise_amp": math.inf},
        {"slope": math.nan},
        {"slope": -math.inf},
    ])
    def test_non_finite_parameters_are_rejected(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            gen_terrain(seed=1, width=4, height=4, n_sinkholes=1, **kwargs)


class TestExportScene:
    def test_files_and_schema(self, tmp_path):
        scene = gen_terrain(seed=4, width=80, height=64, n_sinkholes=2)
        export_scene(scene, tmp_path)
        dem = read_ascii_grid(tmp_path / "dem.asc")
        assert np.array_equal(dem.values, scene.dem.values)
        gt = read_ascii_mask(tmp_path / "gt_mask.asc")
        assert np.array_equal(gt.values, scene.gt_mask.values)
        assert (tmp_path / "rgb.ppm").exists()
        doc = json.loads((tmp_path / "truths.json").read_text())
        assert doc["seed"] == 4
        assert len(doc["sinkholes"]) == 2
        for entry, pit, truth in zip(doc["sinkholes"], scene.pits, scene.truths):
            assert entry["center"] == [pit.center_col, pit.center_row]
            assert entry["radius"] == pit.radius
            assert entry["depth"] == pit.depth
            assert entry["bbox"] == truth.bbox.as_list()

    def test_export_is_byte_deterministic(self, tmp_path):
        scene = gen_terrain(seed=4, width=80, height=64, n_sinkholes=2, noise_amp=0.3)
        export_scene(scene, tmp_path / "a")
        export_scene(scene, tmp_path / "b")
        assert tree_digests(tmp_path / "a") == tree_digests(tmp_path / "b")


class TestBruteForceFill:
    def test_ramp_unchanged(self):
        r = Raster(np.tile(np.arange(6.0), (4, 1)))
        assert np.array_equal(brute_force_fill(r).values, r.values)

    def test_single_pit_fixture(self):
        dem = np.full((5, 5), 10.0)
        dem[2, 2] = 4.0
        assert np.array_equal(brute_force_fill(Raster(dem)).values, np.full((5, 5), 10.0))

    def test_nodata_preserved_and_acts_as_outlet(self):
        dem = np.full((5, 5), 10.0)
        dem[2, 2] = 4.0
        dem[2, 3] = NODATA
        out = brute_force_fill(Raster(dem)).values
        assert np.array_equal(out, dem)

    def test_all_nodata_passes_through(self):
        dem = Raster(np.full((3, 3), NODATA))
        assert np.array_equal(brute_force_fill(dem).values, dem.values)

    def test_agrees_with_production_filler(self, rng):
        for _ in range(25):
            h, w = (int(v) for v in rng.integers(2, 33, size=2))
            dem = make_random_dem(rng, h, w, nodata_frac=float(rng.random() * 0.3))
            if not dem.valid_mask().any():
                continue
            oracle = brute_force_fill(dem).values
            produced = fill_depressions(dem).filled.values
            assert np.array_equal(produced, oracle)

    def test_result_is_a_fixpoint_above_the_input(self, rng):
        dem = make_random_dem(rng, 20, 20, nodata_frac=0.1)
        filled = brute_force_fill(dem)
        valid = dem.valid_mask()
        assert np.all(filled.values[valid] >= dem.values[valid])
        assert np.array_equal(brute_force_fill(filled).values, filled.values)
