"""Adaptive quadtree over the particle set, with interaction lists.

The root box is the smallest bounding square of the particles.
Coordinates are normalized by its side length only (no vertical shift),
so the interface y = 0 stays at y = 0 and the wavenumber rescales as
k * side.  Boxes split while they hold more than leaf_capacity
particles; empty children are pruned; a 2:1 level-balance refinement
runs afterwards so that near (U) and interaction (V) lists suffice and
no W/X lists are needed.  build_lists gives every box its V list;
near_source_leaves gives every leaf its U list, the leaves whose
particles it sums directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .greens import Point2

__all__ = ["Particle", "TreeConfig", "QuadtreeNode", "Tree",
           "build_tree", "build_lists", "near_source_leaves"]


@dataclass
class Particle:
    position: Point2
    strength: complex


@dataclass
class TreeConfig:
    leaf_capacity: int = 40
    max_level: int = 30

    def __post_init__(self):
        if self.leaf_capacity < 1:
            raise ValueError("leaf_capacity must be >= 1")
        if self.max_level < 1:
            raise ValueError("max_level must be >= 1")


@dataclass(eq=False)
class QuadtreeNode:
    level: int
    index: tuple  # (ix, iy) within the level grid
    center: Point2  # normalized coordinates
    half_width: float  # normalized
    span: tuple  # (start, stop) into the permuted particle arrays
    children: list = field(default_factory=list, repr=False)
    parent: "QuadtreeNode" = field(default=None, repr=False)
    interaction_list: list = field(default_factory=list, repr=False)

    @property
    def is_leaf(self):
        return not self.children

    @property
    def count(self):
        return self.span[1] - self.span[0]


class Tree:
    """Finished quadtree: immutable after construction."""

    def __init__(self, nodes, root, perm, xn, yn, side, root_xy):
        self.nodes = nodes              # dict: (level, ix, iy) -> node
        self.root = root
        self.perm = perm                # permuted original particle indices
        self.x = xn                     # normalized coords, permuted order
        self.y = yn
        self.side = side                # physical side length of the root box
        self.root_xy = root_xy          # normalized (x, y) of root lower-left
        self.leaves = [n for n in nodes.values() if n.is_leaf]
        self.max_depth = max(n.level for n in nodes.values())

    def node_at(self, level, ix, iy):
        return self.nodes.get((level, ix, iy))

    def descendant_leaves(self, node):
        if node.is_leaf:
            return [node]
        out = []
        stack = [node]
        while stack:
            n = stack.pop()
            if n.is_leaf:
                out.append(n)
            else:
                stack.extend(n.children)
        return out


def _covering(nodes, level, ix, iy):
    """Deepest node of nodes whose cell contains (level, ix, iy), or None."""
    for l in range(level, -1, -1):
        n = nodes.get((l, ix >> (level - l), iy >> (level - l)))
        if n is not None:
            return n
    return None


def _child_cell(node, perm, xn, yn):
    """Partition a node's span among its four quadrant children.

    Returns a list of (index, span) for the non-empty children, after
    reordering perm (and the coordinate arrays) so each child's
    particles are contiguous.  Points exactly on a split line go to the
    lower-index child.
    """
    start, stop = node.span
    seg = slice(start, stop)
    cx, cy = node.center.x, node.center.y
    # child label 0..3 = iy_bit * 2 + ix_bit; ties (==) go to bit 0
    bx = (xn[seg] > cx).astype(np.int64)
    by = (yn[seg] > cy).astype(np.int64)
    label = 2 * by + bx
    order = np.argsort(label, kind="stable")
    perm[seg] = perm[seg][order]
    xn[seg] = xn[seg][order]
    yn[seg] = yn[seg][order]
    label = label[order]
    cells = []
    pos = start
    for lab in range(4):
        cnt = int(np.count_nonzero(label == lab))
        if cnt:
            cells.append((lab, (pos, pos + cnt)))
            pos += cnt
    return cells


def _split(tree_nodes, node, perm, xn, yn):
    """Create the non-empty children of a leaf node."""
    cells = _child_cell(node, perm, xn, yn)
    ix0, iy0 = node.index
    hw = node.half_width / 2.0
    for lab, span in cells:
        bx, by = lab & 1, lab >> 1
        child = QuadtreeNode(
            level=node.level + 1,
            index=(2 * ix0 + bx, 2 * iy0 + by),
            center=Point2(node.center.x + (2 * bx - 1) * hw,
                          node.center.y + (2 * by - 1) * hw),
            half_width=hw,
            span=span,
            parent=node,
        )
        node.children.append(child)
        tree_nodes[(child.level,) + child.index] = child


def build_tree(particles, config: TreeConfig) -> Tree:
    """Build the adaptive, pruned, 2:1-balanced quadtree."""
    n = len(particles)
    if n == 0:
        raise ValueError("cannot build a tree over zero particles")
    xs = np.array([p.position.x for p in particles], dtype=float)
    ys = np.array([p.position.y for p in particles], dtype=float)

    xmin, xmax = float(xs.min()), float(xs.max())
    ymin, ymax = float(ys.min()), float(ys.max())
    side = max(xmax - xmin, ymax - ymin)
    if side == 0.0:
        side = 1.0  # all-coincident input: any box works

    xn = (xs - xmin) / side
    yn = ys / side
    root_y0 = float(ymin / side)
    root_xy = (0.0, root_y0)
    perm = np.arange(n)

    root = QuadtreeNode(level=0, index=(0, 0),
                        center=Point2(0.5, root_y0 + 0.5),
                        half_width=0.5, span=(0, n))
    nodes = {(0, 0, 0): root}

    stack = [root]
    while stack:
        node = stack.pop()
        if node.count > config.leaf_capacity and node.level < config.max_level:
            _split(nodes, node, perm, xn, yn)
            stack.extend(node.children)

    _balance(nodes, perm, xn, yn, config)
    return Tree(nodes, root, perm, xn, yn, side, root_xy)


def _balance(nodes, perm, xn, yn, config):
    """Refine until adjacent leaves differ by at most one level."""
    changed = True
    while changed:
        changed = False
        leaves = sorted((n for n in nodes.values() if n.is_leaf),
                        key=lambda n: -n.level)
        for leaf in leaves:
            if leaf.level < 2:
                continue
            l, (ix, iy) = leaf.level, leaf.index
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    jx, jy = ix + dx, iy + dy
                    if jx < 0 or jy < 0 or jx >> l or jy >> l:
                        continue
                    cover = _covering(nodes, l, jx, jy)
                    if cover is not None and cover.is_leaf and cover.level < l - 1 \
                            and cover.level < config.max_level:
                        _split(nodes, cover, perm, xn, yn)
                        changed = True


def build_lists(tree: Tree) -> Tree:
    """Attach the interaction lists.

    The interaction list of a box holds the existing same-level children
    of the parent's neighbors that are not adjacent to the box.
    """
    for key, node in tree.nodes.items():
        level, ix, iy = key
        node.interaction_list = []
        if level == 0:
            continue
        # children of the parent's neighborhood, minus the near block
        px, py = ix >> 1, iy >> 1
        pspan = 1 << (level - 1)
        for qx in range(max(px - 1, 0), min(px + 2, pspan)):
            for qy in range(max(py - 1, 0), min(py + 2, pspan)):
                for jx in (2 * qx, 2 * qx + 1):
                    for jy in (2 * qy, 2 * qy + 1):
                        if max(abs(jx - ix), abs(jy - iy)) <= 1:
                            continue
                        cand = tree.node_at(level, jx, jy)
                        if cand is not None:
                            node.interaction_list.append(cand)
    return tree


def near_source_leaves(tree: Tree):
    """Near-field partner map: leaf -> sorted list of source leaves.

    Two leaves interact directly exactly when their ancestors at the
    shallower of the two levels sit in adjacent (or equal) cells; every
    other pair is covered exactly once by an interaction list along the
    ancestor chains.  The map is symmetric and includes the leaf itself.
    """
    pairs = {leaf: set() for leaf in tree.leaves}
    for leaf in tree.leaves:
        l, (ix, iy) = leaf.level, leaf.index
        span = 1 << l
        found = set()
        for jx in range(max(ix - 1, 0), min(ix + 2, span)):
            for jy in range(max(iy - 1, 0), min(iy + 2, span)):
                cover = _covering(tree.nodes, l, jx, jy)
                if cover is None:
                    continue
                if cover.level == l:
                    found.update(tree.descendant_leaves(cover))
                elif cover.is_leaf:
                    found.add(cover)
        for other in found:
            pairs[leaf].add(other)
            pairs[other].add(leaf)
    return {tgt: sorted(srcs, key=lambda n: (n.level,) + n.index)
            for tgt, srcs in pairs.items()}
