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
maximum-capacity route problem).  So a block is filled by finding the
minimum spanning tree of its 8-neighbour graph plus a virtual outlet node
joined to every outlet, and giving each cell the heaviest edge on its tree
path to the virtual node.  The level is an index into the sorted input
elevations, so the output is exact: a raised cell takes the value of the
elevation that bounds it, and every other cell keeps its input bits.

The graph's nodes are numbered by elevation: the virtual node is 0 and the
valid cells are 1..N from lowest to highest (``np.argsort`` order breaks
ties).  An edge weighs the rank of its higher end, and its key ``hi * (N +
1) + lo`` orders edges by weight and breaks every tie, so the tree is
unique; a virtual edge from cell *c* has the key ``c * (N + 1) + N``, the
heaviest of the edges whose higher end is *c*.

The tree is found by Borůvka's algorithm (1926), in numpy: each round hooks
every tree on its lightest edge, and trees hooked on each other merge.  In
the first round the trees are single cells, and the lightest edge of a cell
goes to its lowest 8-neighbour, or to the virtual node if the cell is an
outlet with no lower neighbour: a steepest-descent step, computed on the
grid.  The trees it leaves are contracted to nodes, with the lightest edge
between each pair of trees, and later rounds run over that graph
(:func:`_boruvka`) until every tree has joined the virtual node's.  Ranking
outlets' virtual edges last keeps each block's drainage labels (below) few:
an outlet drains through a lower neighbour if it has one.

*Why the level is exact.*  A tree hooks on its lightest edge out, and the
tree it hooks on has that edge as one of its own, so its lightest edge out
is no heavier: hook keys never rise along the hooks towards a root.  Let
*x* lie in a tree *T* whose contracted node has level ``L(T)``, the
virtual node's tree counting as 0.  Every path from *x* starts with an edge
no lighter than the hook of *x*, and leaves *T* no lower than ``L(T)``.
Conversely, *x* climbs its hooks to the root of *T* no higher than its own
hook, and the best way out of *T* starts at a node whose own hook is no
heavier than that way's first edge.  So ``level(x) = max(hook key of x,
L(T))``, and each round's levels follow from the next round's.

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


def _settle(hook: np.ndarray):
    """One Borůvka round's trees, from each node's *hook*: the other end of
    its lightest edge, or itself for node 0, which hooks on nothing.

    A 2-cycle is one edge chosen from both ends; its lower end becomes its
    tree's root.  Nodes hooked on node 0 are roots too, so pointer jumping
    brings each node to rest on the node by which its tree meets node 0, or
    on its tree's root.  Returns that *rest* node, whether each node has
    joined node 0's tree, and each node's tree in the next round: 0 for
    node 0's, then the other roots in order.
    """
    ids = np.arange(hook.size)
    hook = hook.copy()
    cycle = (hook[hook] == ids) & (ids < hook)
    hook[cycle] = ids[cycle]
    meets = hook == 0
    meets[0] = False
    rest = np.where(meets, ids, hook)
    while not np.array_equal(further := rest[rest], rest):
        rest = further
    joined = meets[rest]
    joined[0] = True
    root = (rest == ids) & ~joined
    return rest, joined, np.where(joined, 0, np.cumsum(root)[rest])


def _boruvka(n: int, a: np.ndarray, b: np.ndarray):
    """The minimum spanning tree of a connected graph, seen from node 0.

    The graph has nodes ``0..n-1`` and edges ``(a[k], b[k])`` that weigh
    their index *k*: the edges come in weight order and no two weigh the
    same, so the tree is unique.  Returns, per node, its *level*: the
    heaviest edge on its tree path to node 0 (``-1`` for node 0); and its
    *branch*: the last edge of that path, the one at node 0.

    Each round hooks every tree but node 0's on its lightest edge, settles
    the trees (:func:`_settle`), and contracts each tree to one node, keeping
    the lightest edge between each pair of trees.  A node's level is the
    heaviest hook of the trees that held it until its tree joined node 0's:
    hooks never grow heavier towards a root, as a tree's hook is the
    lightest edge of the tree it hooks on.
    """
    level = np.full(n, -1, dtype=np.int64)
    branch = np.full(n, -1, dtype=np.int64)
    tree = np.arange(n)  # each node's tree this round; node 0's is 0
    key = np.arange(a.size)
    ends = a, b
    while key.size:
        trees = int(tree.max()) + 1
        edge = np.arange(key.size)
        lightest = np.full(trees, key.size)
        for end in ends:
            np.minimum.at(lightest, end, edge)
        lightest[0] = 0
        hook = np.where(ends[0][lightest] == np.arange(trees), ends[1][lightest], ends[0][lightest])
        hook[0] = 0
        hook_key = key[lightest]
        hook_key[0] = -1
        rest, joined, renumber = _settle(hook)
        np.maximum(level, hook_key[tree], out=level)
        # a tree meeting node 0's through an edge from node z in it takes z's branch
        meets = np.flatnonzero((rest == np.arange(trees)) & joined)[1:]
        k = hook_key[meets]
        z = np.where(tree[a[k]] == 0, a[k], b[k])
        tree_branch = np.zeros(trees, dtype=np.int64)
        tree_branch[meets] = np.where(z == 0, k, branch[z])
        now = (tree != 0) & joined[tree]
        branch[now] = tree_branch[rest[tree[now]]]
        tree = renumber[tree]
        ends = renumber[ends[0]], renumber[ends[1]]
        cross = ends[0] != ends[1]
        low, high = np.minimum(*ends)[cross], np.maximum(*ends)[cross]
        _, first = np.unique(low * (int(renumber.max()) + 1) + high, return_index=True)
        first.sort()  # the lightest edge of each pair, still in weight order
        ends, key = (low[first], high[first]), key[cross][first]
    return level, branch


def _minimax_fill(values: np.ndarray, valid: np.ndarray, outlet: np.ndarray):
    """Each cell's fill level with *outlet* cells draining, and its drainage label.

    The level is the input's own bits where not raised, and the value of the
    bounding elevation where raised (nodata cells keep their input).  The
    label numbers, from 1, the outlets that are the virtual node's children
    in the spanning tree: each valid cell gets the one its tree path from
    the virtual node passes, and nodata cells get 0.
    """
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
    rank = np.zeros(first.size + 1, dtype=np.int32)
    np.cumsum(first, out=rank[1:])
    del first

    # the first round, on the grid: each cell hooks on its lowest neighbour,
    # or on the virtual node if it is an outlet with no lower neighbour
    n = rank.size
    h, w = values.shape
    padded = np.full((h + 2, w + 2), n, dtype=np.int32)  # n: no neighbour
    padded[1:-1, 1:-1][valid] = node[valid]
    low = np.full(values.shape, n, dtype=np.int32)
    for dr, dc in _NEIGHBOURS:
        np.minimum(low, padded[1 + dr : h + 1 + dr, 1 + dc : w + 1 + dc], out=low)
    del padded
    ids = np.arange(n, dtype=np.int64)
    lowest = np.zeros(n, dtype=np.int64)
    lowest[node[valid]] = low[valid]
    del low
    direct = np.zeros(n, dtype=bool)
    direct[node[outlet]] = True
    down = lowest < ids
    direct &= ~down
    hook = np.where(direct, 0, lowest)
    # an edge's key is hi * n + lo; a virtual edge from c has c * n + n - 1
    hook_key = np.where(down | direct, ids * n + np.where(direct, n - 1, lowest), lowest * n + ids)
    del lowest, down
    rest, joined, tree = _settle(hook)

    # the other rounds, over the trees
    cell_tree = np.where(valid, tree[node], -1)
    ends = []
    for a, b in _PAIRS:
        tree_a, tree_b = cell_tree[a], cell_tree[b]
        meet = (tree_a != tree_b) & (tree_a >= 0) & (tree_b >= 0)
        node_a, node_b = node[a][meet], node[b][meet]
        ends.append((tree_a[meet], tree_b[meet],
                     np.maximum(node_a, node_b).astype(np.int64) * n + np.minimum(node_a, node_b)))
    del cell_tree
    spill = node[outlet]
    spill = spill[tree[spill] > 0]
    ends.append((tree[spill], np.zeros_like(spill), spill.astype(np.int64) * n + n - 1))
    tree_a, tree_b, key = (np.concatenate(column) for column in zip(*ends))
    del ends
    order = np.argsort(key)
    key = key[order]
    tree_level, tree_branch = _boruvka(int(tree.max()) + 1, tree_a[order], tree_b[order])
    del tree_a, tree_b, order

    level = np.maximum(hook_key, np.concatenate(([0], key))[tree_level + 1][tree])
    # labels: first the outlets hooked on the virtual node in the first
    # round, each labelling the cells that rest on it.  A later tree's branch
    # meets tree 0 at a cell, whose label it takes, or at the virtual node,
    # where its outlet is a new label.
    label = np.cumsum(direct)[rest]
    above, below = np.divmod(key[tree_branch[1:]], n)
    virtual = below == n - 1
    new_label = np.zeros(virtual.size, dtype=np.int64)
    new_label[virtual] = np.unique(tree_branch[1:][virtual], return_inverse=True)[1] + 1
    new_label[virtual] += np.count_nonzero(direct)
    entry = np.where(tree[above] == 0, above, below)
    tree_label = np.concatenate(([0], np.where(virtual, new_label, label[entry])))
    label = np.where(joined, label, tree_label[tree])[node].astype(np.int32)

    level, rank = rank[level // n][node], rank[node]
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
    """The lightest of the edges ``(a, b, weight)`` per node pair, as ``a < b``.

    :func:`_boruvka` gives the same levels from the raw label changes (about
    22k per 512² window), but slower: the nine joins of a 1 MP patch fill
    took 0.078 s with this dedup, 0.104 s without, on the noisy bench scene
    (0.048 and 0.064 s on crowded; medians of 5 on a 2-vCPU Xeon)."""
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
    order = np.lexsort((b, a, weight))  # each edge's key is its place in this order
    heaviest, _ = _boruvka(nodes + 1, a[order], b[order])
    label_level = np.concatenate(([-np.inf], weight[order]))[heaviest + 1]
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
