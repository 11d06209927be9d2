"""Tile planning, extraction, tile folding and mosaic stitching."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_dem
from sinkseg.image import RGBImage
from sinkseg.raster import BinaryMask, Raster
from sinkseg.tiling import (
    MergeRule,
    TileSpec,
    TileWindow,
    extract_tile,
    fold_tiles,
    patch_id,
    plan_tiles,
    stitch,
)

NODATA = -9999.0


class TestPlanning:
    def test_1024_grid_gives_nine_windows(self):
        windows = plan_tiles(1024, 1024)
        assert len(windows) == 9
        origins = sorted({w.col0 for w in windows})
        assert origins == [0, 256, 512]
        assert sorted({w.row0 for w in windows}) == [0, 256, 512]

    def test_1000_grid_shifts_last_window_inward(self):
        windows = plan_tiles(1000, 1000)
        assert len(windows) == 9
        assert sorted({w.col0 for w in windows}) == [0, 256, 488]

    def test_777_grid_dedupes_collapsed_origin(self):
        windows = plan_tiles(777, 777)
        assert sorted({w.col0 for w in windows}) == [0, 256, 265]

    def test_exact_fit_single_window(self):
        assert plan_tiles(512, 512) == [TileWindow(0, 0, 512)]

    def test_row_major_order(self):
        windows = plan_tiles(10, 10, TileSpec(patch=4, stride=3))
        assert [(w.row0, w.col0) for w in windows[:4]] == [(0, 0), (0, 3), (0, 6), (3, 0)]

    def test_patch_larger_than_mosaic_rejected(self):
        with pytest.raises(ValueError, match="exceeds mosaic extent"):
            plan_tiles(100, 700, TileSpec(patch=512, stride=256))

    def test_every_cell_covered(self, rng):
        for _ in range(20):
            w, h = (int(v) for v in rng.integers(16, 90, size=2))
            patch = int(rng.integers(4, 17))
            stride = int(rng.integers(1, patch + 1))
            covered = np.zeros((h, w), dtype=int)
            for win in plan_tiles(w, h, TileSpec(patch=patch, stride=stride)):
                covered[win.row0 : win.row0 + patch, win.col0 : win.col0 + patch] += 1
            assert covered.min() >= 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TileSpec(patch=0, stride=1)
        with pytest.raises(ValueError):
            TileSpec(patch=8, stride=0)
        with pytest.raises(ValueError):
            TileSpec(patch=8, stride=9)

    def test_patch_id_format(self):
        assert patch_id(TileWindow(0, 256, 512)) == "r00000_c00256"
        assert patch_id(TileWindow(488, 0, 512)) == "r00488_c00000"


class TestExtract:
    def test_values_match_array_slice(self, rng):
        dem = make_random_dem(rng, 20, 30)
        win = TileWindow(3, 7, 8)
        tile = extract_tile(dem, win)
        assert np.array_equal(tile.values, dem.values[3:11, 7:15])

    def test_tile_is_a_copy(self, rng):
        dem = make_random_dem(rng, 12, 12)
        tile = extract_tile(dem, TileWindow(0, 0, 6))
        assert tile.values.base is None or not np.shares_memory(tile.values, dem.values)

    def test_georeference_shift(self):
        dem = Raster(np.zeros((10, 10)), origin_x=500.0, origin_y=200.0, cellsize=2.0)
        tile = extract_tile(dem, TileWindow(2, 3, 4))
        assert tile.origin_x == 500.0 + 3 * 2.0
        # origin_y measures from the bottom edge: 10 rows, window ends at row 6
        assert tile.origin_y == 200.0 + (10 - 6) * 2.0

    def test_overlapping_windows_agree(self, rng):
        dem = make_random_dem(rng, 16, 16)
        a = extract_tile(dem, TileWindow(0, 0, 8))
        b = extract_tile(dem, TileWindow(0, 4, 8))
        assert np.array_equal(a.values[:, 4:], b.values[:, :4])

    def test_out_of_bounds_window_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            extract_tile(Raster(np.zeros((8, 8))), TileWindow(4, 0, 8))

    def test_mask_and_image_sources(self, rng):
        """A mask or an image is cut by indexing it with the window's cells;
        neither it nor a :class:`BinaryMask` or :class:`RGBImage` is a tile source."""
        mask = BinaryMask(rng.random((9, 9)) > 0.5)
        with pytest.raises(TypeError, match="cannot extract a tile from BinaryMask"):
            extract_tile(mask, TileWindow(1, 1, 4))
        assert np.array_equal(mask.values[TileWindow(1, 1, 4).cells], mask.values[1:5, 1:5])
        img = rng.integers(0, 256, size=(9, 9, 3), dtype=np.uint8)
        for source in (img, RGBImage(img)):
            with pytest.raises(TypeError, match="cannot extract a tile from"):
                extract_tile(source, TileWindow(2, 0, 5))
        assert np.array_equal(img[TileWindow(2, 0, 5).cells], img[2:7, 0:5])

    def test_unsupported_source_type(self):
        with pytest.raises(TypeError, match="extract a tile"):
            extract_tile(np.zeros((4, 4)), TileWindow(0, 0, 2))


class TestStitch:
    def reassemble(self, dem, spec, merge):
        windows = plan_tiles(dem.width, dem.height, spec)
        tiles = [(w, extract_tile(dem, w)) for w in windows]
        return stitch(tiles, dem.width, dem.height, merge=merge)

    @pytest.mark.parametrize("merge", [MergeRule.MAX, MergeRule.FIRST])
    def test_round_trip_identity_bit_exact(self, rng, merge):
        dem = make_random_dem(rng, 40, 56, nodata_frac=0.1)
        back = self.reassemble(dem, TileSpec(patch=16, stride=9), merge)
        assert np.array_equal(back.values, dem.values)

    def test_round_trip_under_mean(self, rng):
        # n identical samples average back to v only within rounding (3v/3 != v)
        dem = make_random_dem(rng, 40, 56, nodata_frac=0.1)
        back = self.reassemble(dem, TileSpec(patch=16, stride=9), MergeRule.MEAN)
        valid = dem.valid_mask()
        assert np.allclose(back.values[valid], dem.values[valid], rtol=1e-12, atol=0.0)
        assert np.array_equal(back.values[~valid], dem.values[~valid])

    def test_round_trip_recovers_georeference_exactly(self, rng):
        dem = Raster(
            rng.normal(size=(30, 30)),
            origin_x=702462.1,
            origin_y=3585798.7,
            cellsize=0.3406,
        )
        back = self.reassemble(dem, TileSpec(patch=16, stride=11), MergeRule.MAX)
        assert back.geotransform == dem.geotransform

    @pytest.mark.parametrize("merge", list(MergeRule))
    def test_one_shot_stream_equals_list(self, rng, merge):
        values = make_random_dem(rng, 30, 30, nodata_frac=0.1).values
        dem = Raster(values, NODATA, origin_x=702462.1, origin_y=3585798.7, cellsize=0.3406)
        windows = plan_tiles(dem.width, dem.height, TileSpec(patch=16, stride=11))
        listed = stitch([(w, extract_tile(dem, w)) for w in windows], 30, 30, merge)
        made = []

        def stream():
            for w in windows:
                # when tile k is made, nothing before tile k-1 may be held
                assert all(ref() is None for ref in made[:-1])
                tile = extract_tile(dem, w)
                made.append(weakref.ref(tile))
                yield w, tile

        streamed = stitch(stream(), 30, 30, merge)
        assert len(made) == len(windows)
        assert np.array_equal(streamed.values, listed.values)
        assert streamed.geotransform == listed.geotransform == dem.geotransform

    def test_max_takes_larger_value(self):
        win = TileWindow(0, 0, 2)
        low = Raster(np.full((2, 2), 0.3))
        high = Raster(np.full((2, 2), 0.8))
        out = stitch([(win, low), (win, high)], 2, 2, merge=MergeRule.MAX)
        assert np.array_equal(out.values, np.full((2, 2), 0.8))

    def test_max_is_order_independent(self, rng):
        windows = plan_tiles(24, 24, TileSpec(patch=8, stride=5))
        tiles = [(w, Raster(rng.random((8, 8)))) for w in windows]
        ordered = stitch(tiles, 24, 24, merge=MergeRule.MAX)
        shuffled = tiles.copy()
        rng.shuffle(shuffled)
        assert np.array_equal(
            stitch(shuffled, 24, 24, merge=MergeRule.MAX).values, ordered.values
        )

    def test_mean_averages_overlap(self):
        a = Raster(np.full((2, 2), 1.0))
        b = Raster(np.full((2, 2), 2.0))
        out = stitch(
            [(TileWindow(0, 0, 2), a), (TileWindow(0, 1, 2), b)], 3, 2, merge=MergeRule.MEAN
        )
        assert np.array_equal(out.values, np.array([[1.0, 1.5, 2.0], [1.0, 1.5, 2.0]]))

    def test_mean_equal_to_nodata_is_refused(self):
        """A covered cell whose mean is the nodata value would read as
        uncovered; the first such cell is named instead."""
        windows = plan_tiles(6, 4, TileSpec(patch=4, stride=2))  # columns 0-3 and 2-5
        tiles = [(w, Raster(np.full((4, 4), v), nodata=1.0)) for w, v in zip(windows, [0.5, 1.5])]
        with pytest.raises(ValueError, match=r"cell \(row 0, col 2\) merges to nodata 1.0"):
            stitch(tiles, 6, 4, merge=MergeRule.MEAN)
        for merge in (MergeRule.MAX, MergeRule.FIRST):
            assert (stitch(tiles, 6, 4, merge).values != 1.0).all()

    def test_first_keeps_earliest_tile(self):
        win = TileWindow(0, 0, 2)
        first = Raster(np.full((2, 2), 5.0))
        second = Raster(np.full((2, 2), 9.0))
        out = stitch([(win, first), (win, second)], 2, 2, merge=MergeRule.FIRST)
        assert np.array_equal(out.values, np.full((2, 2), 5.0))

    def test_tile_nodata_contributes_nothing(self):
        values = np.full((2, 2), NODATA)
        values[0, 0] = 4.0
        holey = Raster(values)
        backdrop = Raster(np.full((2, 2), 1.0))
        out = stitch(
            [(TileWindow(0, 0, 2), holey), (TileWindow(0, 0, 2), backdrop)],
            2,
            2,
            merge=MergeRule.FIRST,
        )
        assert np.array_equal(out.values, np.array([[4.0, 1.0], [1.0, 1.0]]))

    def test_uncovered_cells_are_nodata(self):
        out = stitch([(TileWindow(0, 0, 2), Raster(np.ones((2, 2))))], 4, 4)
        expected = np.full((4, 4), NODATA)
        expected[:2, :2] = 1.0
        assert np.array_equal(out.values, expected)

    def test_empty_tile_list_rejected(self):
        with pytest.raises(ValueError, match="at least one tile"):
            stitch([], 4, 4)

    def test_mixed_patch_sizes_rejected(self):
        with pytest.raises(ValueError, match="mixed patch sizes"):
            stitch(
                [
                    (TileWindow(0, 0, 2), Raster(np.zeros((2, 2)))),
                    (TileWindow(0, 0, 3), Raster(np.zeros((3, 3)))),
                ],
                4,
                4,
            )

    def test_tile_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match window patch"):
            stitch([(TileWindow(0, 0, 3), Raster(np.zeros((2, 2))))], 4, 4)

    def test_metadata_disagreement_rejected(self):
        with pytest.raises(ValueError, match="nodata or cellsize"):
            stitch(
                [
                    (TileWindow(0, 0, 2), Raster(np.zeros((2, 2)), cellsize=1.0)),
                    (TileWindow(0, 2, 2), Raster(np.zeros((2, 2)), cellsize=2.0)),
                ],
                4,
                4,
            )

    def test_window_outside_mosaic_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            stitch([(TileWindow(3, 0, 2), Raster(np.zeros((2, 2))))], 4, 4)



@st.composite
def tile_streams(draw):
    """A random plan's tiles, then repeats of some of its windows, as
    ``(window, values, valid)``: bool tiles, or float tiles of few levels
    with signed zeros.  Cell (0, 0), which only the first window covers, is
    invalid in every tile there but the last two, which hold ties: +0.0
    and -0.0 (or -0.0 and +0.0) when the tiles are floats."""
    patch = draw(st.integers(1, 5))
    spec = TileSpec(patch, draw(st.integers(1, patch)))
    height, width = draw(st.integers(patch, 12)), draw(st.integers(patch, 12))
    windows = plan_tiles(width, height, spec)
    windows += draw(st.lists(st.sampled_from(windows), max_size=4)) + [windows[0]] * 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    boolean = draw(st.booleans())
    zero = draw(st.sampled_from([0.0, -0.0]))
    tiles = []
    for k, window in enumerate(windows):
        if boolean:
            values = rng.random((patch, patch)) < 0.4
        else:
            values = rng.choice([0.0, -0.0, 1.5, 2.5], size=(patch, patch))
        valid = rng.random((patch, patch)) < draw(st.sampled_from([0.4, 0.8, 1.0]))
        if window == windows[0]:
            valid[0, 0] = k >= len(windows) - 2
            if not boolean and valid[0, 0]:
                values[0, 0] = zero if k == len(windows) - 2 else -zero
        tiles.append((window, values, valid))
    return height, width, tiles


def fold_reference(tiles, height, width, merge):
    """Each cell's value and coverage from the rule's definition: the valid
    values there in tile order; FIRST takes the first, MAX the first of the
    largest, MEAN their sum in order over their count.  0 where none."""
    out = np.zeros((height, width), np.float64 if merge is MergeRule.MEAN else tiles[0][1].dtype)
    covered = np.zeros((height, width), dtype=bool)
    for r in range(height):
        for c in range(width):
            seen = [values[r - w.row0, c - w.col0] for w, values, valid in tiles
                    if w.row0 <= r < w.row0 + w.patch and w.col0 <= c < w.col0 + w.patch
                    and valid[r - w.row0, c - w.col0]]
            if not seen:
                continue
            covered[r, c] = True
            if merge is MergeRule.FIRST:
                out[r, c] = seen[0]
            elif merge is MergeRule.MAX:
                best = seen[0]
                for v in seen[1:]:
                    if v > best:
                        best = v
                out[r, c] = best
            else:
                total = 0.0
                for v in seen:
                    total += float(v)
                out[r, c] = total / len(seen)
    return out, covered


def bits(grid):
    return grid.view(np.int64) if grid.dtype == np.float64 else grid


class TestFoldTiles:
    @settings(max_examples=60, deadline=None)
    @given(stream=tile_streams(), merge=st.sampled_from(list(MergeRule)))
    def test_fold_and_stitch_follow_the_rule(self, stream, merge):
        height, width, tiles = stream
        want, want_covered = fold_reference(tiles, height, width, merge)
        grid, covered = fold_tiles(iter(tiles), height, width, merge)
        assert grid.dtype == want.dtype
        assert np.array_equal(covered, want_covered)
        assert np.array_equal(bits(grid), bits(want))
        if tiles[0][1].dtype == np.bool_:
            seen = [[] for _ in range(height * width)]
            for w, values, valid in tiles:
                for (r, c) in zip(*np.nonzero(valid)):
                    seen[(w.row0 + r) * width + w.col0 + c].append(bool(values[r, c]))
            if merge is MergeRule.FIRST:  # the first valid tile
                assert grid.ravel().tolist() == [bool(s) and s[0] for s in seen]
            else:  # max and mean > 0 both mean "any"
                assert (grid > 0).ravel().tolist() == [any(s) for s in seen]
            return
        if merge is not MergeRule.MEAN:  # cell (0, 0) keeps the earlier signed zero
            assert bits(grid[:1, :1]) == bits(np.array([[tiles[-2][1][0, 0]]]))
        rasters = [(w, Raster(np.where(valid, values, NODATA), NODATA)) for w, values, valid in tiles]
        stitched = stitch(iter(rasters), width, height, merge)
        assert np.array_equal(bits(stitched.values), bits(np.where(want_covered, want, NODATA)))

    def test_valid_none_counts_every_cell(self):
        window = TileWindow(0, 1, 2)
        grid, covered = fold_tiles([(window, np.full((2, 2), 0.25), None)], 2, 3, MergeRule.MEAN)
        assert np.array_equal(grid, [[0.0, 0.25, 0.25], [0.0, 0.25, 0.25]])
        assert np.array_equal(covered, [[False, True, True], [False, True, True]])
