"""Depression filling for elevation rasters.

Water leaves the grid through outlet cells: valid cells on the raster edge or
touching a nodata cell in 8-connectivity.  The filled level of a cell is the
lowest possible "highest elevation met" over all 8-connected paths from the
cell to an outlet, i.e. its minimax (bottleneck) path value.  That surface is
the unique lowest one that is >= the input everywhere, equals it at the
outlets, and leaves no cell below all of its 8 neighbours: the surface that a
priority flood (Barnes et al. 2014, *Computers & Geosciences* 62) builds.

**The block kernel.**  Minimax paths between any two nodes of a weighted
graph run along every minimum spanning tree of it (Hu 1961, the
maximum-capacity route problem).  So a block of cells is filled in one
compiled pass: rank the elevations, weight each 8-neighbour edge by the
higher rank of its two cells, join every outlet to a virtual outlet node,
take a minimum spanning tree, and give each cell the running maximum of
ranks on its tree path from the virtual node.  A diagonal edge with a detour
through its 2x2 block that is no heavier is left out; that halves the graph
on most terrain and changes no minimax value.  The level is an index into
the sorted input elevations, so the output is exact: a raised cell takes
the value of the elevation that bounds it, and every other cell keeps its
input bits.

The graph's nodes are numbered by elevation: the virtual node is 0 and the
valid cells are 1..N from lowest to highest, so rank never falls as the
node number rises.  Each edge is stored in the row of its higher node and
weighs that node's rank, so the weights are already in order where the
graph stores them.  Kruskal's algorithm inside ``minimum_spanning_tree``
starts with a stable sort of the weights, which then finds one sorted run
and takes linear time; on noisy terrain that sort was most of the kernel.
The one sort left is that of the elevations, which numbers the nodes.

**The tiled fill.**  A raster is cut into blocks of at most ``_BLOCK`` cells
a side, and each block is filled once on its own, with its edge as outlets
as well as its cells next to nodata.  Each cell *c* gets its level ``f(c)``
within the block and its *drainage label*: the outlet through which its tree
path leaves the block, the virtual node's child on that path.  A region (the
raster, or one window of it that is a union of blocks) is then joined
through a small graph (the parallel Priority-Flood of Barnes 2016,
*Computers & Geosciences* 96).  Its nodes are the blocks' labels plus the
virtual node, the label of nodata cells and of a ring of cells around the
region, where ``f`` is ``-inf``; its edges are the 8-neighbour pairs of cells
with different labels, each weighing ``max(f(a), f(b))``, the lightest one
kept per label pair.

The minimax level ``L`` of each label from the virtual node then gives each
cell its filled level ``max(f(c), L(label(c)))``.

*Why this is exact.*  Minimax distance ``d`` is an ultrametric:
``d(x, z) <= max(d(x, y), d(y, z))``.  The tree path from *c* to
``label(c)`` has bottleneck at most ``f(c)``, and each join edge stands for
a path of cells no heavier than its weight, so ``max(f(c), L(label c))`` is
the bottleneck of a real path from *c* to a region outlet: it is never below
the true level ``F(c)``.  Conversely, ``f(x) <= F(x)`` for every cell *x*,
since every region path from *x* meets an outlet of the block of *x*.  Along
the best region path from *c*, each step from *x* to its neighbour *y* is
either inside one label or a join edge no heavier than ``max(f(x), f(y))``,
so ``L(label x) <= max(f(x), f(y), L(label y))``; and the path ends at a
region outlet *o*, where ``L(label o) <= f(o)``.  Every ``f`` on the path is
at most ``F(c)``, so ``max(f(c), L(label c)) <= F(c)``.

**The sign of a zero level.**  Levels are compared as numbers, and ``-0.0``
equals ``+0.0``, so a block cannot tell which zero bounds a cell that another
block raises.  One rule makes the bits independent of the tiling: a raised
cell whose level is zero is written as ``+0.0``.  Cells that are not raised
keep their input bits, ``-0.0`` included.  Depth, ``filled - input``, is the
same under either sign.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NoOutletError
from .raster import Raster

_NEIGHBOURS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
# each 8-neighbour pair once: east, south, south-east and south-west
_PAIRS = (
    (np.s_[:, :-1], np.s_[:, 1:]),
    (np.s_[:-1, :], np.s_[1:, :]),
    (np.s_[:-1, :-1], np.s_[1:, 1:]),
    (np.s_[:-1, 1:], np.s_[1:, :-1]),
)
_BLOCK = 256  # the largest block side; one block's graph stays a few MB


@dataclass(frozen=True)
class FilledResult:
    """Output of :func:`fill_depressions`.

    Attributes
    ----------
    filled : Raster
        The depression-free surface (>= the input everywhere).
    depth : Raster
        ``filled - input``; zero outside depressions, nodata where the
        input is nodata.
    """

    filled: Raster
    depth: Raster


def _outlet_mask(valid: np.ndarray) -> np.ndarray:
    """Valid cells that drain off the grid: on its edge or touching nodata."""
    h, w = valid.shape
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = valid
    interior = np.ones_like(valid)
    for dr, dc in _NEIGHBOURS:
        interior &= padded[1 + dr : h + 1 + dr, 1 + dc : w + 1 + dc]
    return valid & ~interior


def _kept_diagonals(rank, valid, a, b, c, d) -> np.ndarray:
    """Where the diagonal edge between corners *a* and *b* of a 2x2 block is kept.

    The detour over one of the other corners *c*, *d* weighs ``max(rank a,
    rank b, rank c)``: no more than the diagonal itself unless that corner is
    higher than both ends.  The diagonal is dropped when either corner gives
    such a detour, which runs over 4-neighbour edges, all kept, so no minimax
    path value changes.  A nodata corner (rank 0) makes *a* and *b* outlets,
    joined through the virtual node at the diagonal's own weight, so that
    diagonal is dropped too.
    """
    top = np.maximum(rank[a], rank[b])
    return valid[a] & valid[b] & (rank[c] > top) & (rank[d] > top)


def _spill_graph(node: np.ndarray, rank: np.ndarray, outlet: np.ndarray):
    """8-neighbour graph of the valid cells plus a virtual outlet node.

    ``node`` numbers the cells of the raster (``0`` on nodata cells) and
    ``rank[k]`` is the elevation rank of node *k*, non-decreasing in *k*;
    node ``0`` is the virtual outlet, rank ``0``.  Each undirected edge is
    stored once, in the row of its higher node, and weighs that node's rank,
    which is the higher rank of its two ends.  Every row then lists lower
    nodes only, and ``data`` is non-decreasing in CSR storage order.  Edges
    join 8-neighbours, less the diagonals with a detour no heavier than
    themselves (see :func:`_kept_diagonals`), and every outlet cell to the
    virtual node.

    The rows are filled by counting, with no sort and no COO matrix, whose
    conversion would hold every edge twice: one sweep counts each cell's
    edges and a second writes each edge to the next free place of its
    owner's row.  Each neighbour family is split into two passes by which
    end is higher, so no cell owns two edges of one pass.  csgraph does not
    check the indices it is given.
    """
    from scipy.sparse import csr_matrix

    valid = node > 0
    cell_rank = rank[node]
    west, east, north, south = np.s_[:, :-1], np.s_[:, 1:], np.s_[:-1, :], np.s_[1:, :]
    top_left, top_right, bottom_left, bottom_right = (
        np.s_[:-1, :-1], np.s_[:-1, 1:], np.s_[1:, :-1], np.s_[1:, 1:]
    )
    families = (  # the two ends of each edge, and where the edge is kept
        (west, east, valid[west] & valid[east]),
        (north, south, valid[north] & valid[south]),
        (top_right, bottom_left, _kept_diagonals(
            cell_rank, valid, top_right, bottom_left, top_left, bottom_right)),
        (top_left, bottom_right, _kept_diagonals(
            cell_rank, valid, top_left, bottom_right, top_right, bottom_left)),
    )
    del cell_rank

    def passes():
        """Owner cells, other ends and where the edges are, pass by pass: the
        owner is the higher end, and no cell owns two edges of one pass."""
        for a, b, kept in families:
            a_higher = node[a] > node[b]
            yield a, b, kept & a_higher
            yield b, a, kept & ~a_higher

    count = outlet.astype(np.int32)  # per cell: the edges in its row
    for owner, _, edge in passes():
        count[owner] += edge
    n = rank.size
    row_count = np.zeros(n, dtype=np.int32)
    row_count[node] = count  # nodata cells count 0 towards the virtual node's row
    del count
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(row_count, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    slot = indptr[node]  # per cell: the next free place in its row
    for owner, other, edge in passes():
        indices[slot[owner][edge]] = node[other][edge]
        slot[owner] += edge
    indices[slot[outlet]] = 0
    # each row weighs its own rank; float64 is csgraph's dtype, so no copy
    data = np.repeat(rank, row_count).astype(np.float64)
    return csr_matrix((data, indices, indptr), shape=(n, n))


def _minimax_fill(values: np.ndarray, valid: np.ndarray, outlet: np.ndarray):
    """Each cell's fill level with *outlet* cells draining, and its drainage label.

    The level is the input's own bits where not raised, and the value of the
    bounding elevation where raised (nodata cells keep their input).  The
    label numbers, from 1, the outlets that are the virtual node's children
    in the spanning tree: each valid cell gets the one its tree path from
    the virtual node passes, and nodata cells get 0.
    """
    from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

    # node k is the k-th lowest valid cell in np.argsort's default order and
    # node 0 the virtual outlet.  A run of tied elevations is one rank, whose
    # level is that of its first member in that order; which sign of zero
    # that is does not matter, as a raised zero is written as +0.0 in the end.
    elevation = values[valid]
    order = np.argsort(elevation)
    elevation = elevation[order]
    node = np.zeros(values.shape, dtype=np.int32)
    node_of = np.empty(order.size, dtype=np.int32)
    node_of[order] = np.arange(1, order.size + 1, dtype=np.int32)
    node[valid] = node_of
    del order, node_of
    first = np.empty(elevation.size, dtype=bool)  # the first node of each run of ties
    first[0] = True
    np.not_equal(elevation[1:], elevation[:-1], out=first[1:])
    levels = elevation[first]
    del elevation
    # ranks start at 1: csgraph reads a zero weight as "no edge"
    rank = np.zeros(first.size + 1, dtype=np.int32)
    np.cumsum(first, out=rank[1:])
    del first

    tree = minimum_spanning_tree(_spill_graph(node, rank, outlet), overwrite=True)
    _, parent = breadth_first_order(tree, 0, directed=False, return_predecessors=True)
    del tree

    # pointer jumping, with the virtual node's children pointing at
    # themselves: each node's pointer comes to rest on the child its tree
    # path passes, carrying the running max of ranks down to the node
    root_child = parent == 0
    jump = np.where(root_child, np.arange(rank.size, dtype=np.int32), parent)
    jump[0] = 0
    level = rank.copy()
    while True:
        np.maximum(level, level[jump], out=level)
        further = jump[jump]
        if np.array_equal(further, jump):
            break
        jump = further
    label = np.cumsum(root_child, dtype=np.int32)[jump][node]  # node 0 is no child
    level, rank = level[node], rank[node]
    raised = level > rank
    filled = values.copy()
    filled[raised] = levels[level[raised] - 1]
    return filled, label


@dataclass(frozen=True)
class _Block:
    """One block filled on its own: the cells ``rows`` x ``cols`` of the raster.

    ``level`` and ``label`` are :func:`_minimax_fill`'s, and ``labels`` is
    how many labels there are.
    """

    rows: slice
    cols: slice
    level: np.ndarray
    label: np.ndarray
    labels: int


def _lightest(a: np.ndarray, b: np.ndarray, weight: np.ndarray):
    """The lightest of the edges ``(a, b, weight)`` per node pair, as ``a < b``."""
    a, b = np.minimum(a, b), np.maximum(a, b)
    key = a.astype(np.int64) * (int(b.max(initial=0)) + 1) + b
    order = np.argsort(key)
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    start = np.flatnonzero(first)
    return a[order[start]], b[order[start]], np.minimum.reduceat(weight[order], start)


def _solve_block(values: np.ndarray, valid: np.ndarray, cut: tuple[slice, slice]) -> _Block:
    """Fill the block *cut* of the raster on its own, with its edge as outlets."""
    block_values, block_valid = values[cut], valid[cut]
    if not block_valid.any():
        return _Block(*cut, block_values, np.zeros(block_values.shape, np.int32), 0)
    level, label = _minimax_fill(block_values, block_valid, _outlet_mask(block_valid))
    return _Block(*cut, level, label, int(label.max()))


def _join(grid: list[list[_Block]]) -> np.ndarray:
    """The filled level of each cell of the region that *grid*, rows of
    blocks, tiles: ``-inf`` on nodata.  Each block is taken out of *grid* as
    it is copied into the region image."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

    top, left = grid[0][0].rows.start, grid[0][0].cols.start
    height, width = grid[-1][0].rows.stop - top, grid[0][-1].cols.stop - left
    # the region image; a ring of label 0 and level -inf is the outside
    label = np.zeros((height + 2, width + 2), dtype=np.int32)
    level = np.empty(label.shape)
    level[[0, -1], :] = level[:, [0, -1]] = -np.inf
    nodes = 0  # the labels so far; each block's are numbered on from there
    for row in grid:
        while row:
            block = row.pop()
            cut = (slice(block.rows.start - top + 1, block.rows.stop - top + 1),
                   slice(block.cols.start - left + 1, block.cols.stop - left + 1))
            valid = block.label > 0
            label[cut] = np.where(valid, block.label + nodes, 0)
            level[cut] = np.where(valid, block.level, -np.inf)
            nodes += block.labels
            del block

    ends = []
    for a, b in _PAIRS:
        label_a, label_b = label[a], label[b]
        meet = label_a != label_b
        ends.append((label_a[meet], label_b[meet], np.maximum(level[a][meet], level[b][meet])))
    a, b, weight = _lightest(*(np.concatenate(column) for column in zip(*ends)))
    weights, rank = np.unique(weight, return_inverse=True)
    # ranks start at 1: csgraph reads a zero weight as "no edge"
    graph = csr_matrix(((rank + 1).astype(np.float64), (a, b)), shape=(nodes + 1, nodes + 1))
    tree = minimum_spanning_tree(graph).tocoo()
    _, parent = breadth_first_order(tree, 0, directed=False, return_predecessors=True)
    # the rank of the tree edge above each node, then the running max down from node 0
    below = np.where(parent[tree.row] == tree.col, tree.row, tree.col)
    rank = np.zeros(nodes + 1, dtype=np.int64)
    rank[below] = tree.data
    parent[0] = 0
    while (parent != 0).any():
        np.maximum(rank, rank[parent], out=rank)
        parent = parent[parent]
    label_level = np.concatenate(([-np.inf], weights))[rank]
    for start in range(0, level.shape[0], _BLOCK):  # by bands: no third image is held
        band = np.s_[start : start + _BLOCK]
        np.maximum(level[band], label_level[label[band]], out=level[band])
    return level[1:-1, 1:-1]


def _cuts(extent: int, bounds: set[int]) -> list[slice]:
    """Cut ``0..extent`` at every bound, then split each piece into near-equal
    parts of at most ``_BLOCK``."""
    edges = sorted(bounds | {0, extent})
    out = []
    for start, stop in zip(edges[:-1], edges[1:]):
        parts = -(-(stop - start) // _BLOCK)
        cut = [start + (stop - start) * k // parts for k in range(parts + 1)]
        out.extend(slice(a, b) for a, b in zip(cut[:-1], cut[1:]))
    return out


def _grids(dem: Raster, valid: np.ndarray, regions, map_blocks):
    """The blocks of each region ``(top, left, height, width)`` of *dem*, as
    rows of blocks.

    Each axis is cut at every region start and end, so each region is a
    union of blocks.  Each block is filled once, by *map_blocks*, and held
    only while this or a later region needs it: before a region's blocks
    are yielded, those of the rows above the next region are dropped.  The
    regions come in row-major order, so at most the block rows of one
    region are held.
    """
    rows = _cuts(dem.height, {b for top, _, height, _ in regions for b in (top, top + height)})
    cols = _cuts(dem.width, {b for _, left, _, width in regions for b in (left, left + width)})
    solved = iter(map_blocks(partial(_solve_block, dem.values, valid),
                             [(r, c) for r in rows for c in cols]))
    spans = [([r.start for r in rows].index(top), [r.stop for r in rows].index(top + height) + 1,
              [c.start for c in cols].index(left), [c.stop for c in cols].index(left + width) + 1)
             for top, left, height, width in regions]
    alive: dict[tuple[int, int], _Block] = {}
    done = 0  # blocks taken from *solved*, row-major
    for (i0, i1, j0, j1), needed in zip(spans, [span[0] for span in spans[1:]] + [len(rows)]):
        while done < i1 * len(cols):
            alive[divmod(done, len(cols))] = next(solved)
            done += 1
        grid = [[alive[i, j] for j in range(j0, j1)] for i in range(i0, i1)]
        for key in [key for key in alive if key[0] < needed]:  # no later region needs it
            del alive[key]
        yield grid


def _check_outlet(valid: np.ndarray) -> None:
    # any valid cell has an outlet: its component meets the edge or nodata
    if not valid.any():
        raise NoOutletError(
            "no drainage outlet: raster has no valid cell on the edge or next to nodata"
        )


def fill_depressions(dem: Raster, map_blocks=map) -> FilledResult:
    """Fill every closed depression of *dem* to its spill level.

    Parameters
    ----------
    dem : Raster
        Elevation grid; nodata cells act as outlets for their neighbours.
    map_blocks : callable
        ``map``-like: applied to a function and the list of blocks, it
        yields the filled blocks in order.  A thread pool may run them.

    Returns
    -------
    FilledResult
        Filled surface and per-cell depression depth.

    Raises
    ------
    NoOutletError
        If the raster contains no valid cell with a drainage outlet
        (in particular if it is entirely nodata).
    """
    valid = dem.valid_mask()
    _check_outlet(valid)
    (grid,) = _grids(dem, valid, [(0, 0, dem.height, dem.width)], map_blocks)
    level = _join(grid)
    raised = level > dem.values
    filled = dem.values.copy()
    filled[raised] = level[raised] + 0.0  # a raised zero is +0.0
    del level, raised  # free the region image before Raster copies the two results
    depth = np.where(valid, filled - dem.values, np.float64(dem.nodata))
    return FilledResult(filled=dem.with_values(filled), depth=dem.with_values(depth))


def region_depths(dem: Raster, regions: Sequence, map_blocks=map) -> Iterator[np.ndarray]:
    """The depth of ``fill_depressions`` on each region of *dem*, in order.

    A region is a ``(top, left, height, width)`` cut of *dem*, such as a
    tiling window or the whole raster; *regions* come in row-major order
    (``top`` never falls).  Each block is filled once and joined into every
    region that holds it.  A region that is all nodata gets an all-nodata
    depth.  *map_blocks* is as for :func:`fill_depressions`.

    Raises
    ------
    NoOutletError
        At once, if *dem* has no valid cell.
    """
    valid = dem.valid_mask()
    _check_outlet(valid)
    grids = _grids(dem, valid, regions, map_blocks)
    return (_region_depth(dem, valid, region, next(grids)) for region in regions)


def _region_depth(dem: Raster, valid: np.ndarray, region, grid) -> np.ndarray:
    """The depth of *region*, joined from *grid*, the rows of its blocks."""
    top, left, height, width = region
    cut = np.s_[top : top + height, left : left + width]
    values = dem.values[cut]
    level = _join(grid)
    raised = level > values
    depth = np.where(valid[cut], 0.0, np.float64(dem.nodata))
    depth[raised] = level[raised] - values[raised]
    return depth
