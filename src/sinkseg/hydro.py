"""Depression filling for elevation rasters.

Water leaves the grid through outlet cells: valid cells on the raster edge or
touching a nodata cell in 8-connectivity.  The filled level of a cell is the
lowest possible "highest elevation met" over all 8-connected paths from the
cell to an outlet, i.e. its minimax (bottleneck) path value.  That surface is
the unique lowest one that is >= the input everywhere, equals it at the
outlets, and leaves no cell below all of its 8 neighbours: the surface that a
priority flood (Barnes et al. 2014, *Computers & Geosciences* 62) builds.

Minimax paths between any two nodes of a weighted graph run along every
minimum spanning tree of it (Hu 1961, the maximum-capacity route problem).
So the fill is one compiled pass: rank the elevations, weight each
8-neighbour edge by the higher rank of its two cells, join every outlet to a
virtual outlet node, take a minimum spanning tree, and give each cell the
running maximum of ranks on its tree path from the virtual node.  A diagonal
edge with a detour through its 2x2 block that is no heavier is left out;
that halves the graph on most terrain and changes no minimax value.  The
level is an index into the sorted input elevations, so the output is exact:
a raised cell takes the bits of the elevation that bounds it, and every
other cell keeps its input bits.

The graph's nodes are numbered by elevation: the virtual node is 0 and the
valid cells are 1..N from lowest to highest, so rank never falls as the
node number rises.  Each edge is stored in the row of its higher node and
weighs that node's rank, so the weights are already in order where the
graph stores them.  Kruskal's algorithm inside ``minimum_spanning_tree``
starts with a stable sort of the weights, which then finds one sorted run
and takes linear time; on noisy terrain that sort was most of the kernel.
The one sort left is that of the elevations, which numbers the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoOutletError
from .raster import Raster

_NEIGHBOURS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


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
    """Valid cells that drain off the grid: on the edge or touching nodata."""
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


def _minimax_fill(values: np.ndarray, valid: np.ndarray, outlet: np.ndarray, nodata: float):
    """The filled surface and its depth: nodata where invalid, ``0.0`` where
    not raised, ``filled - value`` where raised."""
    from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

    # node k is the k-th lowest valid cell in np.argsort's default order and
    # node 0 the virtual outlet.  Each run of tied elevations is represented
    # by its first member in that order, which may carry either sign of zero;
    # the depth, filled - value, is the same for both.
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

    # running max of ranks down the tree from the virtual node, by pointer jumping
    parent[parent < 0] = 0  # the virtual node itself
    level = rank.copy()
    while (parent != 0).any():
        np.maximum(level, level[parent], out=level)
        parent = parent[parent]
    level, rank = level[node], rank[node]
    raised = level > rank
    filled = values.copy()
    filled[raised] = levels[level[raised] - 1]
    depth = np.where(valid, 0.0, np.float64(nodata))
    depth[raised] = filled[raised] - values[raised]
    return filled, depth


def fill_depressions(dem: Raster) -> FilledResult:
    """Fill every closed depression of *dem* to its spill level.

    Parameters
    ----------
    dem : Raster
        Elevation grid; nodata cells act as outlets for their neighbours.

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
    outlet = _outlet_mask(valid)
    if not outlet.any():
        raise NoOutletError(
            "no drainage outlet: raster has no valid cell on the edge or next to nodata"
        )
    filled, depth = _minimax_fill(dem.values, valid, outlet, dem.nodata)
    return FilledResult(filled=dem.with_values(filled), depth=dem.with_values(depth))
