"""Depression filling: hand-derived fixtures, properties, a priority-flood oracle."""

import heapq

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_random_dem
from sinkseg.errors import NoOutletError
from sinkseg.hydro import FilledResult, fill_depressions
from sinkseg.raster import Raster

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
        # ties and flats; no -0.0, as a cell raised to a zero level takes the
        # sign of whichever zero bounds it, which depends on the flood order
        values = rng.integers(0, levels, size=(height, width)) * 2.5
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
        assume(dem.valid_mask().any())
        produced = fill_depressions(dem).filled.values
        oracle = priority_flood_fill(dem)
        assert np.array_equal(produced.view(np.int64), oracle.view(np.int64))
