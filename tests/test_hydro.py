"""Depression filling: hand-derived fixtures, properties, a priority-flood oracle."""

import heapq
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_random_dem
from sinkseg.errors import NoOutletError
from sinkseg import hydro
from sinkseg.hydro import (
    FilledResult,
    _boruvka,
    fill_depressions,
    region_depths,
)
from sinkseg.raster import Raster
from sinkseg.synth import brute_force_fill, gen_terrain
from sinkseg.tiling import TileSpec, plan_tiles

NODATA = -9999.0
OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def priority_flood_fill(dem: Raster) -> np.ndarray:
    """Oracle: the heapq priority flood of Barnes et al. (2014).

    Outlet cells (edge or nodata-adjacent) seed a min-queue keyed by
    ``(elevation, insertion order)``; each popped cell raises its unvisited
    valid neighbours to at least its own level and pushes them.
    """
    values = dem.values
    valid = dem.valid_mask()
    h, w = values.shape
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = valid
    interior = np.ones_like(valid)
    for dr, dc in OFFSETS:
        interior &= padded[1 + dr : h + 1 + dr, 1 + dc : w + 1 + dc]
    outlet = valid & ~interior

    rows = values.tolist()
    valid_rows = valid.tolist()
    visited = outlet.tolist()
    heap = []
    order = 0
    for r, c in zip(*(idx.tolist() for idx in np.nonzero(outlet))):
        heapq.heappush(heap, (rows[r][c], order, r, c))
        order += 1
    while heap:
        spill, _, r, c = heapq.heappop(heap)
        for dr, dc in OFFSETS:
            nr, nc = r + dr, c + dc
            if 0 <= nr < h and 0 <= nc < w and valid_rows[nr][nc] and not visited[nr][nc]:
                visited[nr][nc] = True
                level = rows[nr][nc]
                if level < spill:
                    level = spill
                    rows[nr][nc] = level
                heapq.heappush(heap, (level, order, nr, nc))
                order += 1
    return np.array(rows, dtype=np.float64)


def drains_everywhere(filled: Raster) -> bool:
    """Every valid cell has a non-ascending 8-connected path to an outlet."""
    values = filled.values
    valid = filled.valid_mask()
    h, w = values.shape
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = valid
    interior = np.ones_like(valid)
    for dr, dc in OFFSETS:
        interior &= padded[1 + dr : h + 1 + dr, 1 + dc : w + 1 + dc]
    outlet = valid & ~interior
    reached = outlet.copy()
    stack = [(int(r), int(c)) for r, c in np.argwhere(outlet)]
    while stack:
        r, c = stack.pop()
        for dr, dc in OFFSETS:
            nr, nc = r + dr, c + dc
            if (
                0 <= nr < h
                and 0 <= nc < w
                and valid[nr, nc]
                and not reached[nr, nc]
                and values[nr, nc] >= values[r, c]
            ):
                reached[nr, nc] = True
                stack.append((nr, nc))
    return bool(reached[valid].all())


def zero_rule(dem: Raster, filled: np.ndarray) -> np.ndarray:
    """An oracle's *filled* written as :func:`fill_depressions` writes it:
    cells not raised keep their input bits, and a raised zero is ``+0.0``.
    The oracles give a zero level either sign, and the relaxation's ``max``
    may give an unraised zero the other sign too."""
    return np.where(filled > dem.values, filled + 0.0, dem.values)


def tiled(block: int):
    """Fill with blocks of at most *block* cells a side."""
    return mock.patch.object(hydro, "_BLOCK", block)


def window_regions(windows):
    """Tiling windows as ``(top, left, height, width)`` regions."""
    return [(w.row0, w.col0, w.patch, w.patch) for w in windows]


class TestSinglePit:
    """5x5 plane at 10 with one cell at 4: spill level is the plane itself."""

    def setup_method(self):
        dem = np.full((5, 5), 10.0)
        dem[2, 2] = 4.0
        self.result = fill_depressions(Raster(dem))

    def test_filled_is_flat_plane(self):
        assert np.array_equal(self.result.filled.values, np.full((5, 5), 10.0))

    def test_depth_is_six_at_the_pit_only(self):
        expected = np.zeros((5, 5))
        expected[2, 2] = 6.0
        assert np.array_equal(self.result.depth.values, expected)


class TestNestedRim:
    """7x7 basin draining over an 8-high notch in a 9-high inner rim."""

    def setup_method(self):
        dem = np.array(
            [
                [5, 5, 5, 5, 5, 5, 5],
                [5, 9, 9, 8, 9, 9, 5],
                [5, 9, 3, 3, 3, 9, 5],
                [5, 9, 3, 1, 3, 9, 5],
                [5, 9, 3, 3, 3, 9, 5],
                [5, 9, 9, 9, 9, 9, 5],
                [5, 5, 5, 5, 5, 5, 5],
            ],
            dtype=np.float64,
        )
        self.dem = dem
        self.result = fill_depressions(Raster(dem))

    def test_interior_fills_to_the_notch_level(self):
        expected = self.dem.copy()
        expected[2:5, 2:5] = 8.0
        assert np.array_equal(self.result.filled.values, expected)

    def test_depth_reflects_spill_minus_surface(self):
        expected = np.zeros((7, 7))
        expected[2:5, 2:5] = 5.0
        expected[3, 3] = 7.0
        assert np.array_equal(self.result.depth.values, expected)


class TestNodataAsOutlet:
    """A nodata hole next to the pit lets it drain: no filling happens."""

    def setup_method(self):
        dem = np.full((5, 5), 10.0)
        dem[2, 2] = 4.0
        dem[2, 3] = NODATA
        self.dem = dem
        self.result = fill_depressions(Raster(dem))

    def test_pit_is_not_filled(self):
        assert np.array_equal(self.result.filled.values, self.dem)

    def test_depth_is_zero_on_valid_and_nodata_elsewhere(self):
        expected = np.zeros((5, 5))
        expected[2, 3] = NODATA
        assert np.array_equal(self.result.depth.values, expected)


class TestFlatsAndRamps:
    def test_constant_raster_unchanged(self):
        r = Raster(np.full((6, 6), 3.5))
        res = fill_depressions(r)
        assert np.array_equal(res.filled.values, r.values)
        assert np.array_equal(res.depth.values, np.zeros((6, 6)))

    def test_monotone_ramp_unchanged(self):
        r = Raster(np.tile(np.arange(8.0), (5, 1)))
        assert np.array_equal(fill_depressions(r).filled.values, r.values)

    def test_flat_pit_floor_fills_evenly(self):
        dem = np.full((5, 5), 10.0)
        dem[1:4, 1:4] = 4.0
        res = fill_depressions(Raster(dem))
        assert np.array_equal(res.filled.values, np.full((5, 5), 10.0))
        assert np.array_equal(np.unique(res.depth.values), np.array([0.0, 6.0]))


class TestDiagonalGap:
    def test_pit_drains_through_a_diagonal_only(self):
        dem = np.full((4, 4), 9.0)
        dem[0, 0] = 2.0
        dem[1, 1] = 1.0
        res = fill_depressions(Raster(dem))
        expected = dem.copy()
        expected[1, 1] = 2.0
        assert np.array_equal(res.filled.values, expected)


class TestContract:
    def test_all_nodata_raises(self):
        with pytest.raises(NoOutletError, match="no drainage outlet"):
            fill_depressions(Raster(np.full((4, 4), NODATA)))

    def test_single_cell_is_its_own_outlet(self):
        res = fill_depressions(Raster(np.array([[7.0]])))
        assert res.filled.values.tolist() == [[7.0]]

    def test_depth_equals_filled_minus_input(self, rng):
        values = make_random_dem(rng, 12, 12, nodata_frac=0.1).values.copy()
        values[0, 0] = -0.0  # an outlet: never raised, so its depth is +0.0
        dem = Raster(values)
        res = fill_depressions(dem)
        expected = np.where(dem.valid_mask(), res.filled.values - values, NODATA)
        assert np.array_equal(res.depth.values.view(np.int64), expected.view(np.int64))

    def test_depth_keeps_the_input_nodata(self):
        dem = np.full((4, 4), 5.0)
        dem[1, 1] = 1.0
        dem[3, 3] = -1.0
        res = fill_depressions(Raster(dem, nodata=-1.0))
        expected = np.zeros((4, 4))
        expected[1, 1] = 4.0
        expected[3, 3] = -1.0
        assert res.depth.nodata == -1.0
        assert np.array_equal(res.depth.values, expected)

    def test_returns_filled_result(self, rng):
        assert isinstance(fill_depressions(make_random_dem(rng, 4, 4)), FilledResult)

    def test_all_nodata_windows_raise_before_any_window(self):
        dem = Raster(np.full((8, 8), NODATA))
        with pytest.raises(NoOutletError, match="no drainage outlet"):
            region_depths(dem, window_regions(plan_tiles(8, 8, TileSpec(4, 2))))

    def test_signed_zeros_keep_their_bits(self):
        dem = np.zeros((4, 5))
        dem[::2, 1::2] = -0.0
        dem[1::2, ::2] = -0.0
        res = fill_depressions(Raster(dem))
        assert np.array_equal(res.filled.values.view(np.int64), dem.view(np.int64))
        assert np.array_equal(res.depth.values.view(np.int64), np.zeros((4, 5), np.int64))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        height=st.integers(1, 18),
        width=st.integers(1, 18),
        nodata_frac=st.sampled_from([0.0, 0.0, 0.15, 0.4]),
        quantize=st.sampled_from([None, None, 5.0]),
    )
    def test_fill_invariants(self, seed, height, width, nodata_frac, quantize):
        rng = np.random.default_rng(seed)
        dem = make_random_dem(rng, height, width, nodata_frac, quantize)
        if not dem.valid_mask().any():
            with pytest.raises(NoOutletError):
                fill_depressions(dem)
            return
        res = fill_depressions(dem)
        valid = dem.valid_mask()
        # never below the input, and nodata preserved
        assert np.all(res.filled.values[valid] >= dem.values[valid])
        assert np.all(res.filled.values[~valid] == dem.nodata)
        # idempotent, bit for bit
        again = fill_depressions(res.filled)
        assert np.array_equal(again.filled.values, res.filled.values)
        # water can leave every cell without climbing
        assert drains_everywhere(res.filled)

    def test_edge_cells_never_raised(self, rng):
        for _ in range(20):
            dem = make_random_dem(rng, 10, 13)
            filled = fill_depressions(dem).filled.values
            edge = np.zeros((10, 13), dtype=bool)
            edge[0, :] = edge[-1, :] = True
            edge[:, 0] = edge[:, -1] = True
            assert np.array_equal(filled[edge], dem.values[edge])


@st.composite
def oracle_dems(draw):
    """Small rasters with flats, quantised ties, nodata holes and moats."""
    height, width = draw(
        st.one_of(
            st.tuples(st.just(1), st.integers(1, 16)),
            st.tuples(st.integers(1, 16), st.just(1)),
            st.tuples(st.integers(1, 16), st.integers(1, 16)),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([1, 3, 8, None]))
    if levels is None:
        values = rng.normal(50.0, 10.0, size=(height, width))
    else:
        # ties, flats and both signs of zero around negative pits
        values = (rng.integers(0, levels, size=(height, width)) - levels // 2) * 2.5
        values[rng.random((height, width)) < 0.5] *= -1.0
    holes = draw(st.sampled_from(["none", "scatter", "moat"]))
    if holes == "scatter":
        values[rng.random((height, width)) < rng.uniform(0.1, 0.6)] = NODATA
    elif holes == "moat" and height >= 3 and width >= 3:
        # a nodata ring around a valid island, inside valid terrain
        r0, r1 = sorted(rng.choice(height, size=2, replace=False))
        c0, c1 = sorted(rng.choice(width, size=2, replace=False))
        values[[r0, r1], c0 : c1 + 1] = NODATA
        values[r0 : r1 + 1, [c0, c1]] = NODATA
    return Raster(values, nodata=NODATA)


class TestPriorityFloodOracle:
    @settings(max_examples=300, deadline=None)
    @given(dem=oracle_dems())
    def test_bit_identical_to_priority_flood(self, dem):
        """Bit for bit, once the oracle's raised zeros are written as +0.0."""
        assume(dem.valid_mask().any())
        produced = fill_depressions(dem).filled.values
        oracle = zero_rule(dem, priority_flood_fill(dem))
        assert np.array_equal(produced.view(np.int64), oracle.view(np.int64))

    @settings(max_examples=150, deadline=None)
    @given(dem=oracle_dems())
    def test_bit_identical_to_relaxation(self, dem):
        assume(dem.valid_mask().any())
        produced = fill_depressions(dem).filled.values
        oracle = zero_rule(dem, brute_force_fill(dem).values)
        assert np.array_equal(produced.view(np.int64), oracle.view(np.int64))

    @pytest.mark.parametrize("step", [None, 0.5], ids=["as-is", "half-metre-steps"])
    @pytest.mark.parametrize("top, left", [(540, 304), (270, 486)], ids=["pit-0", "pits-5-9"])
    def test_bit_identical_on_noisy_terrain_crops(self, noisy_terrain, top, left, step):
        """128x128 crops around pits: long runs of tied ranks and deep trees."""
        values = noisy_terrain[top : top + 128, left : left + 128].copy()
        if step is not None:
            values = np.round(values / step) * step
        dem = Raster(values)
        produced = fill_depressions(dem).filled.values
        oracle = priority_flood_fill(dem)
        assert np.array_equal(produced.view(np.int64), oracle.view(np.int64))
        assert np.any(produced > values)


@pytest.fixture(scope="module")
def noisy_terrain():
    return gen_terrain(42, 1024, 1024, 12, noise_amp=0.5).dem.values


@st.composite
def keyed_graphs(draw):
    """Connected graphs of at most 12 nodes, parallel edges allowed, whose
    edges come in a random order: edge *k* weighs *k*."""
    n = draw(st.integers(1, 12))
    edges = [(node, draw(st.integers(0, node - 1))) for node in range(1, n)]  # a spanning tree
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        edges += draw(st.lists(pairs, max_size=3 * n))
    edges = draw(st.permutations([draw(st.sampled_from([edge, edge[::-1]])) for edge in edges]))
    return n, np.array([x for x, _ in edges], np.int64), np.array([y for _, y in edges], np.int64)


def relaxed_levels(n: int, a: np.ndarray, b: np.ndarray) -> list[int]:
    """Oracle: the minimax key from each node to node 0, by relaxing every
    edge until nothing changes."""
    level = [-1] + [np.inf] * (n - 1)
    changed = True
    while changed:
        changed = False
        for k, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
            for u, v in ((x, y), (y, x)):
                if max(level[v], k) < level[u]:
                    level[u] = max(level[v], k)
                    changed = True
    return level


def tree_branches(n: int, a: np.ndarray, b: np.ndarray) -> list[int]:
    """Oracle: the edge at node 0 of each node's path in Kruskal's tree."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    near = {x: [] for x in range(n)}
    for k, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        if find(x) != find(y):
            root[find(x)] = find(y)
            near[x].append((y, k))
            near[y].append((x, k))
    branch = [-1] * n
    stack = [(x, k) for x, k in near[0]]
    for x, k in stack:  # grows as it goes: a breadth-first walk from node 0
        branch[x] = k
        stack.extend((y, k) for y, _ in near[x] if y and branch[y] < 0)
    return branch


class TestBoruvka:
    """The spanning-tree routine that fills each block and joins the blocks."""

    @settings(max_examples=300, deadline=None)
    @given(graph=keyed_graphs())
    def test_levels_and_branches_equal_brute_force(self, graph):
        n, a, b = graph
        level, branch = _boruvka(n, a, b)
        assert level.tolist() == relaxed_levels(n, a, b)
        assert branch.tolist() == tree_branches(n, a, b)


class TestMetamorphic:
    """Bit-exact properties of ``region_depths`` under small blocks: the
    kernel breaks ties in scan order, and no depth may depend on that."""

    @staticmethod
    def depth(dem: Raster, block: int) -> np.ndarray:
        with tiled(block):
            (depth,) = region_depths(dem, [(0, 0, dem.height, dem.width)])
        return depth

    @settings(max_examples=60, deadline=None)
    @given(dem=oracle_dems(), block=st.integers(2, 7), turns=st.integers(0, 3), flip=st.booleans())
    def test_commutes_with_the_symmetries_of_the_square(self, dem, block, turns, flip):
        assume(dem.valid_mask().any())

        def move(grid):
            grid = np.rot90(grid, turns)
            return np.ascontiguousarray(grid.T if flip else grid)

        moved = self.depth(Raster(move(dem.values), nodata=NODATA), block)
        assert np.array_equal(moved.view(np.int64), move(self.depth(dem, block)).view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(dem=oracle_dems(), block=st.integers(2, 7), width=st.integers(1, 3))
    def test_a_nodata_moat_changes_no_depth(self, dem, block, width):
        assume(dem.valid_mask().any())
        moated = np.pad(dem.values, width, constant_values=NODATA)
        depth = self.depth(Raster(moated, nodata=NODATA), block)
        inside = np.s_[width:-width, width:-width]
        assert np.array_equal(depth[inside].view(np.int64), self.depth(dem, block).view(np.int64))
        depth[inside] = NODATA
        assert np.all(depth == NODATA)

    @settings(max_examples=60, deadline=None)
    @given(dem=oracle_dems(), block=st.integers(2, 7), power=st.integers(0, 10))
    def test_adding_a_power_of_two_changes_no_depth(self, dem, block, power):
        """Quantised to quarter steps, the elevations and every depth stay
        exact when shifted."""
        valid = dem.valid_mask()
        assume(valid.any())
        quantised = np.where(valid, np.round(dem.values * 4) / 4, NODATA)
        shifted = np.where(valid, quantised + 2.0**power, NODATA)
        want = self.depth(Raster(quantised, nodata=NODATA), block)
        got = self.depth(Raster(shifted, nodata=NODATA), block)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=40, deadline=None)
    @given(dem=oracle_dems(), block=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
    def test_sees_only_the_order_of_elevations(self, dem, block, seed):
        """A cell's level is a minimax over paths to an outlet, so always
        some cell's elevation.  So a strictly increasing map f of the valid
        values, nodata untouched, raises the same cells, and the filled
        surface of f(dem) is f of the filled surface, bit for bit."""
        valid = dem.valid_mask()
        assume(valid.any())
        steps = np.unique(dem.values[valid])  # -0.0 and 0.0 are one value
        gaps = np.random.default_rng(seed).integers(1, 9, size=steps.size)
        image = (np.cumsum(gaps) - int(gaps.sum() // 2)) / 4.0  # exact, so no two collide

        def f(values):
            at = np.searchsorted(steps, values[valid])
            assert np.array_equal(steps[at], values[valid])  # each level is an elevation
            mapped = values.copy()
            mapped[valid] = image[at]
            return mapped

        with tiled(block):
            before = fill_depressions(dem)
            after = fill_depressions(Raster(f(dem.values), nodata=NODATA))
        assert np.array_equal(after.depth.values > 0, before.depth.values > 0)
        assert np.array_equal(after.filled.values.view(np.int64),
                              f(before.filled.values).view(np.int64))


class TestTiledFill:
    """Blocks filled on their own, then joined through their drainage labels."""

    @settings(max_examples=300, deadline=None)
    @given(dem=oracle_dems(), block=st.integers(2, 7))
    def test_any_tiling_matches_one_block(self, dem, block):
        assume(dem.valid_mask().any())
        whole = fill_depressions(dem)
        with tiled(block):
            blocks = fill_depressions(dem)
        for got, want in ((blocks.filled, whole.filled), (blocks.depth, whole.depth)):
            assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(dem=oracle_dems(), data=st.data())
    def test_region_depths_match_filling_each_region(self, dem, data):
        """Tiling windows, or rectangles in row-major order that may be
        non-square, overlap or be the whole raster: each region's depth is
        that of filling its cut alone."""
        assume(dem.valid_mask().any())
        height, width = dem.values.shape
        if data.draw(st.booleans(), label="windows"):
            patch = data.draw(st.integers(1, min(height, width)), label="patch")
            stride = data.draw(st.integers(1, patch), label="stride")
            regions = window_regions(plan_tiles(width, height, TileSpec(patch, stride)))
        else:
            regions = [(0, 0, height, width)] if data.draw(st.booleans(), label="whole") else []
            for _ in range(data.draw(st.integers(0 if regions else 1, 5), label="rectangles")):
                top = data.draw(st.integers(0, height - 1), label="top")
                left = data.draw(st.integers(0, width - 1), label="left")
                regions.append((top, left, data.draw(st.integers(1, height - top), label="height"),
                                data.draw(st.integers(1, width - left), label="width")))
            regions.sort()
        block = data.draw(st.sampled_from([2, 3, 7, 256]), label="block")
        with tiled(block):
            depths = list(region_depths(dem, regions))
        assert len(depths) == len(regions)
        for (top, left, rows, cols), depth in zip(regions, depths):
            cut = Raster(dem.values[top : top + rows, left : left + cols], dem.nodata)
            want = (fill_depressions(cut).depth.values if cut.valid_mask().any()
                    else np.full((rows, cols), NODATA))
            assert np.array_equal(depth.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("block", [2, 3, 7, 256])
    @pytest.mark.parametrize("side", [5, 9, 33, 101])
    def test_a_raised_zero_level_is_positive(self, side, block):
        """Pits on a plain of both signs of zero fill to ``+0.0``; every
        other cell keeps its bits."""
        rng = np.random.default_rng(side)
        values = np.where(rng.random((side, side)) < 0.5, -0.0, 0.0)
        pits = np.zeros((side, side), dtype=bool)
        pits[1:-1, 1:-1] = rng.random((side - 2, side - 2)) < 0.3
        values[pits] = -rng.uniform(1.0, 5.0, size=np.count_nonzero(pits))
        dem = Raster(values)
        with tiled(block):
            res = fill_depressions(dem)
        expected = np.where(pits, 0.0, values)
        assert np.array_equal(res.filled.values.view(np.int64), expected.view(np.int64))
        assert np.array_equal(res.depth.values, np.where(pits, -values, 0.0))

    def test_window_depths_hold_at_most_two_block_rows(self, monkeypatch):
        """Windows hold at most two block rows, and no block outlives the
        join that yields the last depth, for windows or one mosaic region."""
        dem = make_random_dem(np.random.default_rng(3), 128, 128)
        made, held = [], []
        solve = hydro._solve_block

        def alive():
            return sum(ref() is not None for ref in made)

        def recording(*args):
            block = solve(*args)
            made.append(weakref.ref(block))
            held.append(alive())
            return block

        def blocks_alive(regions):
            """Blocks alive after each block is made and each depth is yielded."""
            made.clear()
            held.clear()
            for _ in region_depths(dem, regions):
                held.append(alive())
            return list(held)

        monkeypatch.setattr(hydro, "_solve_block", recording)
        windows = plan_tiles(128, 128, TileSpec(64, 32))  # cut every 32 cells: 4 x 4 blocks
        patch = blocks_alive(window_regions(windows))
        assert len(patch) == 16 + 9 and len(made) == 16
        assert max(patch) == 8 and patch[-1] == 0
        with tiled(32):
            mosaic = blocks_alive([(0, 0, 128, 128)])
        assert len(made) == 16
        assert mosaic == [*range(1, 17), 0]
