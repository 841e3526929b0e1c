"""Adaptive quadtree over the particle set, held as node-id arrays, with its pairs.

The root box is the smallest bounding square of the particles.
Coordinates are normalized by its side length only (no vertical shift),
so the interface y = 0 stays at y = 0 and the wavenumber rescales as
k * side.  Boxes split while they hold more than leaf_capacity
particles (the driver passes RunConfig.leaf_capacity), down to
max_level; empty children are pruned; a 2:1 level-balance refinement
runs afterwards so that near (U) and interaction (V) lists suffice and
no W/X lists are needed.

build_tree splits every node of a pass at once, with one stable sort of
their spans, and balances in whole passes until no leaf forces a split.
build_lists adds the V pairs and near_source_leaves gives the near (U)
pairs, both as node-id arrays.  Tree.nodes and NearPairs.values() are
per-node views that only the benchmark tracer (perfbench/tracing.py)
reads, built when read; dropping them needs a change to that tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .greens import Point2

__all__ = ["Particle", "Tree", "NearPairs",
           "build_tree", "build_lists", "near_source_leaves"]


@dataclass
class Particle:
    position: Point2
    strength: complex


def _cell_codes(level, ix, iy):
    """One int64 per cell: a level bit above the 2 * level index bits, so codes sort by cell."""
    level = np.asarray(level, dtype=np.int64)
    return (1 << 2 * level) | (np.asarray(ix, dtype=np.int64) << level) | iy


def _ranges(lo, hi):
    """The concatenated aranges lo[i]..hi[i]."""
    counts = hi - lo
    return np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)


def _is_leaf(parent):
    out = np.ones(len(parent), dtype=bool)
    out[parent[1:]] = False
    return out


@dataclass(eq=False)
class Tree:
    """Finished quadtree as arrays, immutable after construction.

    Node ids order the nodes by cell (level, ix, iy).  Per id: level, ix,
    iy, start and stop (its span of the permuted particles), parent (-1
    at the root) and the center cx, cy.  leaves: leaf ids in particle order.
    """

    level: np.ndarray
    ix: np.ndarray
    iy: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    parent: np.ndarray
    cx: np.ndarray                  # normalized centers
    cy: np.ndarray
    perm: np.ndarray                # permuted original particle indices
    x: np.ndarray                   # normalized coords, permuted order
    y: np.ndarray
    side: float                     # physical side length of the root box
    root_xy: tuple                  # normalized (x, y) of root lower-left

    def __post_init__(self):
        self.v_src = self.v_tgt = np.zeros(0, dtype=np.int64)  # set by build_lists
        self.codes = _cell_codes(self.level, self.ix, self.iy)
        leaves = np.flatnonzero(_is_leaf(self.parent))
        self.leaves = leaves[np.argsort(self.start[leaves])]
        self.max_depth = int(self.level[-1])

    @property
    def nodes(self):
        """{node id: its V list as interaction_list}: a view for perfbench/tracing.py."""
        cuts = np.searchsorted(self.v_tgt, np.arange(1, len(self.level)))
        return {i: SimpleNamespace(interaction_list=srcs)
                for i, srcs in enumerate(np.split(self.v_src, cuts))}


class NearPairs(tuple):
    """(tgt, src): the ordered near leaf pairs as id arrays, sorted by target, then source."""

    def values(self):
        """Each target's source ids: a view for perfbench/tracing.py."""
        tgt, src = self
        return np.split(src, np.flatnonzero(np.diff(tgt)) + 1)


def _find(codes, level, ix, iy):
    """(ids, found): the node id of each cell (level, ix, iy), and whether the tree has it."""
    want = _cell_codes(level, ix, iy)
    ids = np.minimum(np.searchsorted(codes, want), len(codes) - 1)
    return ids, codes[ids] == want


def _cover(codes, level, ix, iy):
    """Id of the deepest node containing each cell (level, ix, iy); the root contains all."""
    out = np.empty(len(level), dtype=np.int64)
    todo = np.arange(len(level))
    up = 0
    while todo.size:
        ids, hit = _find(codes, level[todo] - up, ix[todo] >> up, iy[todo] >> up)
        out[todo[hit]] = ids[hit]
        todo = todo[~hit]
        up += 1
    return out


def _split(nodes, ids, perm, xn, yn):
    """Append the non-empty children of the leaves ids.

    Reorders each leaf's span of perm and the coordinate arrays, stably,
    so that each child's particles are contiguous.  Points exactly on a
    split line go to the lower-index child.
    """
    level, ix, iy, start, stop, _, cx, cy = (col[ids] for col in nodes)
    idx = _ranges(start, stop)
    owner = np.repeat(np.arange(len(ids)), stop - start)
    # child label 0..3 = iy_bit * 2 + ix_bit; ties (==) go to bit 0
    key = 4 * owner + 2 * (yn[idx] > cy[owner]) + (xn[idx] > cx[owner])
    src = idx[np.argsort(key, kind="stable")]
    perm[idx], xn[idx], yn[idx] = perm[src], xn[src], yn[src]
    sizes = np.bincount(key, minlength=4 * len(ids))
    kids = np.flatnonzero(sizes)
    first = idx[(np.cumsum(sizes) - sizes)[kids]]
    o, bx, by = kids >> 2, kids & 1, (kids >> 1) & 1
    hw = 0.5 ** (level[o] + 2)  # half width of the children
    new = (level[o] + 1, 2 * ix[o] + bx, 2 * iy[o] + by, first, first + sizes[kids], ids[o],
           cx[o] + (2 * bx - 1) * hw, cy[o] + (2 * by - 1) * hw)
    return [np.concatenate(pair) for pair in zip(nodes, new)]


def _in_cell_order(nodes):
    """The node columns sorted by cell code, parent ids renumbered."""
    order = np.argsort(_cell_codes(*nodes[:3]))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    nodes = [col[order] for col in nodes]
    nodes[5] = np.where(nodes[5] < 0, -1, rank[nodes[5]])
    return nodes


def _neighbours(level, ix, iy):
    """(which, level, jx, jy): the 3 x 3 cells around each cell inside its level grid."""
    d = np.arange(-1, 2)
    jx = (ix[:, None] + np.repeat(d, 3)).ravel()
    jy = (iy[:, None] + np.tile(d, 3)).ravel()
    which = np.repeat(np.arange(len(level)), 9)
    lev = level[which]
    inside = (jx >= 0) & (jy >= 0) & (jx < 1 << lev) & (jy < 1 << lev)
    return which[inside], lev[inside], jx[inside], jy[inside]


def build_tree(xs, ys, leaf_capacity: int, max_level: int = 30) -> Tree:
    """Build the adaptive, pruned, 2:1-balanced quadtree over positions (xs, ys).

    leaf_capacity and max_level, each at least 1, stop the splits.
    """
    if leaf_capacity < 1:
        raise ValueError("leaf_capacity must be >= 1")
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    n = len(xs)
    if n == 0:
        raise ValueError("cannot build a tree over zero particles")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)

    xmin, xmax = float(xs.min()), float(xs.max())
    ymin, ymax = float(ys.min()), float(ys.max())
    side = max(xmax - xmin, ymax - ymin)
    if side == 0.0:
        side = 1.0  # all-coincident input: any box works

    xn = (xs - xmin) / side
    yn = ys / side
    root_y0 = float(ymin / side)
    perm = np.arange(n)

    # columns level, ix, iy, start, stop, parent, cx, cy; the root first
    nodes = [np.array([v]) for v in (0, 0, 0, 0, n, -1, 0.5, root_y0 + 0.5)]
    while True:
        nodes = _in_cell_order(nodes)
        level, ix, iy, start, stop, parent = nodes[:6]
        is_leaf = _is_leaf(parent)
        ids = np.flatnonzero(is_leaf & (stop - start > leaf_capacity) & (level < max_level))
        if not ids.size:
            # refine until adjacent leaves differ by at most one level; the
            # children of a split leaf hold no more than leaf_capacity
            leaf = np.flatnonzero(is_leaf)
            _, lev, jx, jy = _neighbours(level[leaf], ix[leaf], iy[leaf])
            cover = _cover(_cell_codes(level, ix, iy), lev, jx, jy)
            forced = is_leaf[cover] & (level[cover] < lev - 1)
            ids = np.unique(cover[forced])
            if not ids.size:
                return Tree(*nodes, perm=perm, x=xn, y=yn, side=side, root_xy=(0.0, root_y0))
        nodes = _split(nodes, ids, perm, xn, yn)


def build_lists(tree: Tree) -> Tree:
    """Attach the V pairs (v_src, v_tgt), sorted by target, then source.

    The V list of a box holds the existing same-level children of the
    parent's neighbors that are not adjacent to the box: of the 6 x 6
    children of the parent's 3 x 3 neighborhood, all but the 3 x 3 block
    around the box.
    """
    level, ix, iy = tree.level, tree.ix, tree.iy
    d = np.arange(-2, 4)
    jx = ((ix >> 1 << 1)[:, None] + np.repeat(d, 6)).ravel()
    jy = ((iy >> 1 << 1)[:, None] + np.tile(d, 6)).ravel()
    tgt = np.repeat(np.arange(len(level)), 36)
    lev = level[tgt]
    keep = ((jx >= 0) & (jy >= 0) & (jx < 1 << lev) & (jy < 1 << lev)
            & (np.maximum(abs(jx - ix[tgt]), abs(jy - iy[tgt])) > 1))
    src, found = _find(tree.codes, lev[keep], jx[keep], jy[keep])
    tree.v_src, tree.v_tgt = src[found], tgt[keep][found]
    return tree


def near_source_leaves(tree: Tree) -> NearPairs:
    """Near-field partner pairs of the leaves, with each leaf and itself.

    Two leaves interact directly exactly when their ancestors at the
    shallower of the two levels sit in adjacent (or equal) cells; every
    other pair is covered exactly once by a V pair along the ancestor
    chains.  So each leaf pairs with every leaf under the nodes of its
    level in its 3 x 3 block, which finds every pair from its coarser
    leaf, and the pairs are then made symmetric.
    """
    leaves = tree.leaves
    which, lev, jx, jy = _neighbours(tree.level[leaves], tree.ix[leaves], tree.iy[leaves])
    ids, found = _find(tree.codes, lev, jx, jy)
    # the leaves under a node: the run of leaf starts within its span
    starts = tree.start[leaves]
    lo = np.searchsorted(starts, tree.start[ids[found]])
    hi = np.searchsorted(starts, tree.stop[ids[found]])
    tgt = np.repeat(leaves[which[found]], hi - lo)
    src = leaves[_ranges(lo, hi)]
    n = len(tree.level)
    pairs = np.unique(np.concatenate([tgt * n + src, src * n + tgt]))
    return NearPairs(np.divmod(pairs, n))
