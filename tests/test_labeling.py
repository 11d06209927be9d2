"""Component labeling, threshold filtering, and box prompts."""

import json
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from sinkseg.labeling import (
    FilterThresholds,
    LabelGrid,
    PromptBox,
    PromptFormatError,
    PromptSet,
    boxes_from_components,
    components_from_mask,
    filter_components,
    label_components,
    prompts_from_json,
    prompts_to_json,
    read_prompts,
    tile_prompts,
    write_prompts,
)
from sinkseg.synth import DepressionComponent


OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def bfs_components(positive: np.ndarray, depth_values: np.ndarray) -> list[DepressionComponent]:
    """Oracle: breadth-first search from each unvisited positive cell in scan order."""
    h, w = positive.shape
    visited = np.zeros_like(positive)
    components: list[DepressionComponent] = []
    for r0, c0 in np.argwhere(positive):
        if visited[r0, c0]:
            continue
        visited[r0, c0] = True
        queue = deque([(int(r0), int(c0))])
        pixels = []
        while queue:
            r, c = queue.popleft()
            pixels.append((r, c))
            for dr, dc in OFFSETS:
                nr, nc = r + dr, c + dc
                if 0 <= nr < h and 0 <= nc < w and positive[nr, nc] and not visited[nr, nc]:
                    visited[nr, nc] = True
                    queue.append((nr, nc))
        rows = [p[0] for p in pixels]
        cols = [p[1] for p in pixels]
        components.append(
            DepressionComponent(
                id=len(components) + 1,
                pixels=frozenset(pixels),
                area_px=len(pixels),
                max_depth=float(max(depth_values[r, c] for r, c in pixels)),
                bbox=PromptBox(min(cols), min(rows), max(cols) + 1, max(rows) + 1),
            )
        )
    return components


def pixel_sets(grid: LabelGrid) -> list[DepressionComponent]:
    """The components of *grid* as pixel-set records, for comparison with the oracle."""
    components = []
    for k, (rows, cols) in enumerate(grid.extents, start=1):
        components.append(
            DepressionComponent(
                id=k,
                pixels=frozenset(map(tuple, np.argwhere(grid.labels == k).tolist())),
                area_px=int(grid.area_px[k]),
                max_depth=float(grid.max_depth[k]),
                bbox=PromptBox(cols.start, rows.start, cols.stop, rows.stop),
            )
        )
    return components


# Small grids, single rows and single columns.
SHAPES = st.one_of(
    st.tuples(st.integers(1, 16), st.integers(1, 16)),
    st.tuples(st.just(1), st.integers(1, 40)),
    st.tuples(st.integers(1, 40), st.just(1)),
)


def random_depth(seed, shape, density, nodata_frac):
    """Depths on a quantised scale (ties), zeros, signed zeros and the 0.0
    that the fill writes on nodata holes."""
    rng = np.random.default_rng(seed)
    depth = rng.integers(1, 6, size=shape) * 0.75
    depth[rng.random(shape) >= density] = 0.0
    depth[rng.random(shape) < 0.1] = -0.0
    depth[rng.random(shape) < nodata_frac] = 0.0
    return depth


class TestPromptBox:
    def test_width_height_and_contains(self):
        b = PromptBox(2, 1, 5, 4)
        assert (b.width, b.height) == (3, 3)
        assert b.contains(1, 2) and b.contains(3, 4)
        assert not b.contains(4, 2) and not b.contains(1, 5)

    def test_as_list(self):
        assert PromptBox(0, 1, 2, 3).as_list() == [0, 1, 2, 3]

    def test_numpy_ints_coerced(self):
        b = PromptBox(np.int64(1), np.int32(2), np.int64(3), np.int32(4))
        assert all(type(v) is int for v in b.as_list())

    def test_rejects_negative_origin(self):
        with pytest.raises(ValueError, match="non-negative"):
            PromptBox(-1, 0, 2, 2)

    def test_rejects_empty_extent(self):
        with pytest.raises(ValueError, match="positive extent"):
            PromptBox(3, 0, 3, 2)

    def test_rejects_floats(self):
        with pytest.raises(ValueError, match="integer"):
            PromptBox(0.5, 0, 2, 2)


class TestLabeling:
    def test_scan_order_ids(self):
        depth = np.zeros((6, 10))
        depth[4, 1] = 3.0  # lower-left, but later in scan order
        depth[0, 7] = 5.0  # first row wins id 1
        depth[2, 4] = 4.0
        comps = pixel_sets(label_components(depth))
        assert [(c.id, min(c.pixels)) for c in comps] == [
            (1, (0, 7)),
            (2, (2, 4)),
            (3, (4, 1)),
        ]

    def test_diagonal_pixels_are_one_component(self):
        depth = np.zeros((4, 4))
        depth[0, 0] = depth[1, 1] = depth[2, 2] = 1.0
        grid = label_components(depth)
        assert len(grid) == 1
        assert pixel_sets(grid)[0].pixels == frozenset({(0, 0), (1, 1), (2, 2)})

    def test_zero_depth_is_background(self):
        grid = label_components(np.zeros((5, 5)))
        assert len(grid) == 0 and not grid.labels.any()

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            label_components(np.array([[1.0, -0.5]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_depth_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            label_components(np.array([[1.0, value]]))

    def test_max_depth_and_area(self):
        depth = np.zeros((3, 3))
        depth[1, 1] = 2.5
        depth[1, 2] = 7.25
        grid = label_components(depth)
        assert len(grid) == 1
        assert grid.area_px[1] == 2
        assert grid.max_depth[1] == 7.25
        assert boxes_from_components(grid, [1], 0) == [PromptBox(1, 1, 3, 2)]

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        shape=st.one_of(SHAPES, st.tuples(st.integers(1, 48), st.integers(1, 48))),
        density=st.sampled_from([0.0, 0.2, 0.4, 0.6, 0.9, 1.0]),
    )
    def test_partition_matches_scipy_oracle(self, seed, shape, density):
        """The label grid itself and the extents, in ndimage's scan-order
        numbering, which fixes the order of the boxes."""
        rng = np.random.default_rng(seed)
        positive = rng.random(shape) < density  # empty at 0.0, full at 1.0
        grid = label_components(np.where(positive, rng.uniform(0.5, 3.0, shape), 0.0))
        labels, n = ndimage.label(positive, structure=np.ones((3, 3), dtype=int))
        assert grid.labels.dtype == labels.dtype
        assert np.array_equal(grid.labels, labels)
        assert grid.extents == ndimage.find_objects(labels)
        assert len(grid) == n

    def test_components_from_mask_reports_unit_depth(self):
        mask = np.array([[1, 0], [0, 1]], dtype=bool)
        grid = components_from_mask(mask)
        assert len(grid) == 1
        assert grid.area_px[1] == 2
        assert grid.max_depth[1] == 1.0

    def test_mask_max_depth_is_one_per_component(self):
        mask = np.array([[1, 0, 1, 0], [0, 0, 0, 0], [1, 1, 0, 1]], dtype=bool)
        grid = components_from_mask(mask)
        assert grid.max_depth.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0]
        assert grid.max_depth.dtype == np.float64

    def test_mask_with_stored_max_depths_is_the_depth_labelling(self):
        """Labelling ``depth > 0`` and taking the maxima ``label_components``
        found gives its grid, as the prompts stage relabels fill's cells."""
        rng = np.random.default_rng(11)
        depth = np.where(rng.random((40, 50)) < 0.35, rng.uniform(0.1, 4.0, (40, 50)), 0.0)
        want = label_components(depth)
        counts = []
        got = components_from_mask(depth > 0,
                                   lambda n: counts.append(n) or want.max_depth[1:])
        assert counts == [len(want)]
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.area_px, want.area_px)
        assert np.array_equal(got.max_depth, want.max_depth)
        assert got.extents == want.extents

    @pytest.mark.parametrize("stored, message", [
        ([2.0], "1 max depths for 2 components"),
        ([2.0, 1.0, 3.0], "3 max depths for 2 components"),
        ([[2.0, 1.0]], "2 max depths for 2 components"),
        ([2.0, np.nan], "component 2's max depth is nan"),
        ([np.inf, 1.0], "component 1's max depth is inf"),
        ([2.0, 0.0], "component 2's max depth is 0.0"),
        ([-1.0, 1.0], "component 1's max depth is -1.0, expected a finite value > 0"),
    ])
    def test_stored_max_depths_are_checked(self, stored, message):
        mask = np.array([[1, 0, 1]], dtype=bool)
        with pytest.raises(ValueError, match=re.escape(message)):
            components_from_mask(mask, lambda n: np.array(stored))


class TestBfsOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        shape=SHAPES,
        density=st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0]),
        nodata_frac=st.sampled_from([0.0, 0.0, 0.2, 1.0]),
    )
    def test_label_components_equals_bfs(self, seed, shape, density, nodata_frac):
        depth = random_depth(seed, shape, density, nodata_frac)
        assert pixel_sets(label_components(depth)) == bfs_components(depth > 0, depth)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31), shape=SHAPES, density=st.sampled_from([0.0, 0.4, 0.7, 1.0]))
    def test_components_from_mask_equals_bfs(self, seed, shape, density):
        values = np.random.default_rng(seed).random(shape) < density
        expected = bfs_components(values, values.astype(np.float64))
        assert pixel_sets(components_from_mask(values)) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        shape=SHAPES,
        density=st.sampled_from([0.3, 0.6, 1.0]),
        nodata_frac=st.sampled_from([0.0, 0.2]),
        min_depth=st.sampled_from([0.0, 0.75, 1.5, 3.0, 3.75, 9.0]),  # on the depth scale
        min_area=st.integers(0, 5),
        pad_px=st.integers(0, 3),
    )
    def test_tile_prompts_equal_the_component_path(
        self, seed, shape, density, nodata_frac, min_depth, min_area, pad_px
    ):
        depth = random_depth(seed, shape, density, nodata_frac)
        assert_tile_prompts_equal_component_path(
            depth, FilterThresholds(min_depth, min_area), pad_px
        )

    @pytest.mark.parametrize("pad_px", [0, 1, 2, 3])
    @pytest.mark.parametrize("min_depth, min_area", [(0.0, 0), (2.0, 1), (2.0, 3), (5.0, 1)])
    def test_tile_prompts_on_single_pixels_and_diagonal_touches(self, pad_px, min_depth, min_area):
        depth = np.array([
            [2.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 5.0, 0.0, 0.0, 2.0],   # the diagonal chain (0,0)-(1,1)-(2,2): area 3
            [0.0, 0.0, 2.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [5.0, -0.0, 0.0, 0.0, 1.0],  # single pixels in three corners
        ])
        assert_tile_prompts_equal_component_path(
            depth, FilterThresholds(min_depth, min_area), pad_px
        )


def assert_tile_prompts_equal_component_path(depth, thresholds, pad_px):
    """``tile_prompts`` equals the BFS components filtered, boxed, padded and
    clamped one by one, plus the cells of the kept."""
    components = bfs_components(depth > 0, depth)
    kept = [
        c for c in components
        if c.max_depth >= thresholds.min_depth and c.area_px >= thresholds.min_area_px
    ]
    expected = PromptSet(
        patch_id="p",
        boxes=[
            PromptBox(
                max(0, c.bbox.x0 - pad_px),
                max(0, c.bbox.y0 - pad_px),
                min(depth.shape[1], c.bbox.x1 + pad_px),
                min(depth.shape[0], c.bbox.y1 + pad_px),
            )
            for c in kept
        ],
        areas=[c.area_px for c in kept],
        max_depths=[c.max_depth for c in kept],
    )
    expected_cells = np.zeros(depth.shape, dtype=bool)
    for comp in kept:
        for r, c in comp.pixels:
            expected_cells[r, c] = True

    prompts, cells = tile_prompts(label_components(depth), thresholds, pad_px, "p")
    assert prompts == expected
    assert prompts_to_json(prompts) == prompts_to_json(expected)  # plain ints and floats
    assert cells.dtype == np.bool_
    assert np.array_equal(cells, expected_cells)


class TestFiltering:
    def test_boundary_equality_is_kept(self):
        depth = np.zeros((24, 50))
        depth[0, 0:49] = 10.0  # id 1: deep but tiny
        depth[2:22, :] = 1.99  # id 2: big but shallow
        depth[23, :] = 2.0  # id 3: exactly on both
        grid = label_components(depth)
        assert grid.area_px[1:].tolist() == [49, 1000, 50]
        kept = filter_components(grid, FilterThresholds(min_depth=2.0, min_area_px=50))
        assert kept.tolist() == [3]

    def test_filter_on_labelled_raster(self):
        depth = np.zeros((20, 20))
        depth[1, 1] = 1.99  # too shallow, area 1
        depth[5:10, 5:15] = 3.0  # 50 px at depth 3: survives
        depth[15, 0:10] = 10.0  # deep but only 10 px
        grid = label_components(depth)
        kept = filter_components(grid, FilterThresholds(2.0, 50))
        assert len(grid) == 3
        assert boxes_from_components(grid, kept, 0) == [PromptBox(5, 5, 15, 10)]

    def test_zero_thresholds_keep_everything(self, rng):
        depth = np.maximum(rng.normal(size=(16, 16)), 0.0)
        grid = label_components(depth)
        kept = filter_components(grid, FilterThresholds(0.0, 0))
        assert kept.tolist() == list(range(1, len(grid) + 1))

    def test_monotone_in_thresholds(self, rng):
        depth = np.maximum(rng.normal(size=(24, 24)) * 3, 0.0)
        depth[rng.random((24, 24)) < 0.5] = 0.0
        grid = label_components(depth)
        previous = None
        for min_depth, min_area in [(0.0, 0), (0.5, 1), (1.0, 2), (2.0, 4), (4.0, 8)]:
            kept = set(filter_components(grid, FilterThresholds(min_depth, min_area)).tolist())
            if previous is not None:
                assert kept <= previous
            previous = kept

    def test_negative_thresholds_rejected(self):
        with pytest.raises(ValueError, match="min_depth"):
            FilterThresholds(-1.0, 0)
        with pytest.raises(ValueError, match="min_area_px"):
            FilterThresholds(0.0, -1)


class TestBoxes:
    def test_single_pixel_box(self):
        depth = np.zeros((10, 10))
        depth[3, 5] = 4.0
        grid = label_components(depth)
        assert boxes_from_components(grid, [1], 0) == [PromptBox(5, 3, 6, 4)]

    def test_padding_with_clamp_at_origin(self):
        depth = np.zeros((8, 12))
        depth[2:5, 1:8] = 3.0
        grid = label_components(depth)
        (box,) = boxes_from_components(grid, [1], 2)
        assert box == PromptBox(0, 0, 10, 7)

    def test_padding_clamped_at_far_edges(self):
        depth = np.zeros((6, 6))
        depth[4:6, 4:6] = 1.0
        grid = label_components(depth)
        (box,) = boxes_from_components(grid, [1], 3)
        assert box == PromptBox(1, 1, 6, 6)

    def test_boxes_contain_their_pixels(self, rng):
        for _ in range(10):
            depth = np.maximum(rng.normal(size=(20, 20)) * 2, 0.0)
            grid = label_components(depth)
            pad = int(rng.integers(0, 4))
            ids = filter_components(grid, FilterThresholds(0.0, 0))
            boxes = boxes_from_components(grid, ids, pad)
            assert len(boxes) == len(grid)
            for comp, box in zip(pixel_sets(grid), boxes):
                assert all(box.contains(r, c) for r, c in comp.pixels)

    def test_negative_pad_rejected(self):
        grid = label_components(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="pad_px"):
            boxes_from_components(grid, [], -1)

    @pytest.mark.parametrize("bad_id", [0, -1, 2])
    def test_unknown_id_rejected(self, bad_id):
        grid = label_components(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match=f"component id {bad_id} not in 1..1"):
            boxes_from_components(grid, [bad_id], 0)


class TestPromptsJson:
    def prompt_set(self):
        return PromptSet(
            patch_id="r00000_c00256",
            boxes=[PromptBox(0, 1, 4, 5), PromptBox(2, 2, 9, 6)],
            areas=[12, 20],
            max_depths=[2.5, 4.0],
        )

    def test_round_trip(self):
        back = prompts_from_json(prompts_to_json(self.prompt_set()))
        assert back == self.prompt_set()

    def test_file_round_trip(self, tmp_path):
        """A box file is one document per line, in the order given."""
        path = tmp_path / "boxes.jsonl"
        empty = PromptSet(patch_id="r00000_c00000", boxes=[], areas=[], max_depths=[])
        sets = [self.prompt_set(), empty]
        write_prompts(sets, path)
        assert path.read_text() == "".join(prompts_to_json(p) for p in sets)
        assert read_prompts(path) == sets
        write_prompts([], path)
        assert read_prompts(path) == []

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"patch_id": "p", "boxes": []}\n{nope\n', "line 2: prompts file is not valid JSON"),
            ('{"patch_id": "p", "boxes": []}\n\n{"patch_id": "q", "boxes": []}\n',
             "line 2: prompts file is not valid JSON"),
            ('{"patch_id": "p", "boxes": [[1, 2, 3]]}\n', "line 1: box 0 must be"),
            ('{"patch_id": "p", "boxes": "x"}\n', "line 1: 'boxes' must be a list"),
            ('{"patch_id": "p", "boxes": [], "areas": 3}\n', "line 1: 'areas' must be a list"),
            ('{"patch_id": "p", "boxes": []}\n' + "[" * 100_000 + "]" * 100_000 + "\n",
             "line 2: prompts file is not valid JSON"),
            ('{"patch_id": "p", "boxes": [[0, 0, 1, 1]], "areas": [1' + "0" * 5000 + ']}\n',
             "line 1: prompts file is not valid JSON"),
            ('{"patch_id": "p", "boxes": [[0, 0, 1, 1]], "max_depths": [1' + "0" * 400 + ']}\n',
             "line 1: 'max_depths' entry 0 is too large for a float"),
            ('{"patch_id": "p", "boxes": [[0, 0, 1, 1]], "max_depths": [Infinity]}\n',
             "line 1: 'max_depths' entry 0 must be finite, got inf"),
            ('{"patch_id": "p", "boxes": [[0, 0, 1, 1]], "areas": [-1]}\n',
             "line 1: 'areas' entry 0 must be >= 0, got -1"),
        ],
        ids=["bad-json", "blank-line", "bad-box", "boxes-not-a-list", "areas-not-a-list",
             "nested-too-deep", "int-of-too-many-digits", "int-too-large-for-a-float",
             "infinite-max-depth", "negative-area"],
    )
    def test_malformed_line_is_named(self, tmp_path, text, message):
        path = tmp_path / "boxes.jsonl"
        path.write_text(text)
        with pytest.raises(PromptFormatError, match=message):
            read_prompts(path)

    def test_external_file_with_crlf_lines_is_read(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        path.write_bytes(b'{"patch_id": "p", "boxes": [[0, 0, 3, 3]]}\r\n'
                         b'{"patch_id": "q", "boxes": []}')
        assert [p.patch_id for p in read_prompts(path)] == ["p", "q"]

    def test_serialization_is_compact_and_sorted(self):
        text = prompts_to_json(self.prompt_set())
        assert text.endswith("\n")
        doc = json.loads(text)
        assert list(doc) == sorted(doc)
        assert ": " not in text

    def test_external_file_without_stats_is_accepted(self):
        back = prompts_from_json('{"patch_id": "p", "boxes": [[0, 0, 3, 3]]}')
        assert back.boxes == [PromptBox(0, 0, 3, 3)]
        assert back.areas == [] and back.max_depths == []

    def test_not_json(self):
        with pytest.raises(PromptFormatError, match="not valid JSON"):
            prompts_from_json("{nope")

    def test_missing_keys(self):
        with pytest.raises(PromptFormatError, match="patch_id"):
            prompts_from_json('{"boxes": []}')

    def test_wrong_box_arity(self):
        with pytest.raises(PromptFormatError, match="box 0"):
            prompts_from_json('{"patch_id": "p", "boxes": [[1, 2, 3]]}')

    def test_degenerate_box_reported_with_index(self):
        with pytest.raises(PromptFormatError, match="box 1 invalid"):
            prompts_from_json('{"patch_id": "p", "boxes": [[0, 0, 1, 1], [5, 5, 5, 9]]}')

    def test_stats_length_mismatch(self):
        with pytest.raises(PromptFormatError, match="'areas' length"):
            prompts_from_json('{"patch_id": "p", "boxes": [[0, 0, 1, 1]], "areas": [1, 2]}')

    @pytest.mark.parametrize(
        "fields, message",
        [
            ('"areas": [1.5]', "'areas' entry 0 must be an integer, got 1.5"),
            ('"areas": ["x"]', "'areas' entry 0 must be an integer"),
            ('"areas": [true]', "'areas' entry 0 must be an integer"),
            ('"max_depths": ["2.5"]', "'max_depths' entry 0 must be a number"),
            ('"max_depths": [false]', "'max_depths' entry 0 must be a number"),
        ],
        ids=["fractional-area", "string-area", "bool-area", "string-depth", "bool-depth"],
    )
    def test_stats_entries_type_checked(self, fields, message):
        with pytest.raises(PromptFormatError, match=message):
            prompts_from_json('{"patch_id": "p", "boxes": [[0, 0, 1, 1]], ' + fields + "}")

    def test_integral_depth_accepted(self):
        back = prompts_from_json('{"patch_id": "p", "boxes": [[0, 0, 1, 1]], "max_depths": [2]}')
        assert back.max_depths == [2.0] and isinstance(back.max_depths[0], float)

    def test_bool_coordinate_rejected(self):
        with pytest.raises(PromptFormatError, match="box 0 invalid.*got True"):
            prompts_from_json('{"patch_id": "p", "boxes": [[true, 0, 2, 2]]}')
