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


def _spill_graph(rank: np.ndarray, valid: np.ndarray, outlet: np.ndarray):
    """8-neighbour graph of the valid cells plus a virtual outlet node.

    Node ``r * w + c`` is cell (r, c) and node ``h * w`` the virtual outlet.
    Each cell row of the CSR matrix lists its east, south-west, south and
    south-east neighbours, then the virtual node if the cell is an outlet, so
    every undirected edge appears once and the columns of a row ascend.  An
    edge weighs the higher rank of its two cells; diagonals with a detour no
    heavier than themselves are left out (see :func:`_kept_diagonals`).
    """
    from scipy.sparse import csr_matrix

    h, w = rank.shape
    n = h * w
    east, south_west, south, south_east = (np.zeros((h, w), dtype=bool) for _ in range(4))
    east[:, :-1] = valid[:, :-1] & valid[:, 1:]
    south[:-1, :] = valid[:-1, :] & valid[1:, :]
    top_left, top_right, bottom_left, bottom_right = (
        np.s_[:-1, :-1], np.s_[:-1, 1:], np.s_[1:, :-1], np.s_[1:, 1:]
    )
    south_west[top_right] = _kept_diagonals(
        rank, valid, top_right, bottom_left, top_left, bottom_right
    )
    south_east[top_left] = _kept_diagonals(
        rank, valid, top_left, bottom_right, top_right, bottom_left
    )
    edges = ((east, 1), (south_west, w - 1), (south, w), (south_east, w + 1), (outlet, None))

    indptr = np.zeros(n + 2, dtype=np.int32)
    for mask, _ in edges:
        indptr[1 : n + 1] += mask.ravel()
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1], dtype=np.float64)  # csgraph's own dtype: no copy
    slot = indptr[:n].copy()
    rank = rank.ravel()
    for mask, step in edges:
        cells = np.flatnonzero(mask)
        at = slot[cells]
        if step is None:
            indices[at] = n
            data[at] = rank[cells]
        else:
            indices[at] = cells + step
            data[at] = np.maximum(rank[cells], rank[cells + step])
        slot[cells] += 1
    return csr_matrix((data, indices, indptr), shape=(n + 1, n + 1))


def _minimax_fill(values: np.ndarray, valid: np.ndarray, outlet: np.ndarray, nodata: float):
    """The filled surface and its depth: nodata where invalid, ``0.0`` where
    not raised, ``filled - value`` where raised."""
    from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

    # ranks start at 1: csgraph reads a zero weight as "no edge"
    levels, inverse = np.unique(values[valid], return_inverse=True)
    rank = np.zeros(values.shape, dtype=np.int32)
    rank[valid] = inverse + 1
    del inverse

    n = values.size
    tree = minimum_spanning_tree(_spill_graph(rank, valid, outlet), overwrite=True)
    _, parent = breadth_first_order(tree, n, directed=False, return_predecessors=True)
    del tree

    # running max of ranks down the tree from the virtual node, by pointer jumping
    parent[parent < 0] = n  # the virtual node itself and nodata cells
    level = np.append(rank.ravel(), np.int32(0))
    while (parent != n).any():
        np.maximum(level, level[parent], out=level)
        parent = parent[parent]
    level = level[:n].reshape(values.shape)
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
