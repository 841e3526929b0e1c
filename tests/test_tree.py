"""Tests for the adaptive quadtree and its V and near pairs."""

import functools

import numpy as np
import pytest

from hfmm.tree import TreeConfig, build_lists, build_tree, near_source_leaves


def _random(seed, n, ylo=0.5, yhi=1.5):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 0.5, n), rng.uniform(ylo, yhi, n)


def _uniform_grid(per_side, level):
    # one particle per cell center of the level grid forces a full
    # uniform tree when leaf_capacity = 1
    n = 1 << level
    assert per_side == n
    step = 1.0 / n
    cs = (np.arange(n) + 0.5) * step
    xx, yy = np.meshgrid(cs, cs)
    return xx.ravel(), 1.0 + yy.ravel()


def _strip(seed, width, ylo, yhi):
    rng = np.random.default_rng(seed)
    return rng.uniform(-width / 2, width / 2, 400), rng.uniform(ylo, yhi, 400)


def _cluster_in_cloud():
    # a 1e-3 cluster inside a uniform cloud: leaves from level 3 to 15
    rng = np.random.default_rng(3)
    return (np.r_[rng.uniform(-0.5, 0.5, 2000), 0.1 + 1e-3 * rng.uniform(size=1000)],
            np.r_[rng.uniform(0.5, 1.5, 2000), 0.9 + 1e-3 * rng.uniform(size=1000)])


def _column():
    # 40 points 1e-13 apart in a column: the tree stops at max_level 30
    rng = np.random.default_rng(5)
    return (np.r_[rng.uniform(-0.5, 0.5, 200), np.full(40, 0.123)],
            np.r_[rng.uniform(0.5, 1.5, 200), 0.8 + 1e-13 * np.arange(40)])


# (positions, leaf_capacity, max_level): random clouds named
# seed-n-capacity, then the hard trees
INPUTS = {
    "11-120-4": (lambda: _random(11, 120, 0.02, 2.0), 4, 30),
    "12-260-8": (lambda: _random(12, 260, 0.02, 2.0), 8, 30),
    "13-400-3": (lambda: _random(13, 400, 0.02, 2.0), 3, 30),
    "5-800-4": (lambda: _random(5, 800, 0.01, 2.0), 4, 30),
    "strip-10": (lambda: _strip(1, 10.0, 0.01, 0.11), 20, 30),
    "strip-100": (lambda: _strip(2, 100.0, 1.0, 1.1), 20, 30),
    "cluster": (_cluster_in_cloud, 8, 30),
    "interface": (lambda: _random(4, 3000, 5e-3, 1.005), 8, 30),
    "column": (_column, 4, 30),
    "uniform-90k": (lambda: _random(6, 90000), 60, 30),
}
HARD = ["strip-10", "strip-100", "cluster", "interface", "column", "uniform-90k"]


@functools.lru_cache(maxsize=None)
def _input(name):
    positions, cap, max_level = INPUTS[name]
    xs, ys = positions()
    return xs, ys, TreeConfig(leaf_capacity=cap, max_level=max_level)


@functools.lru_cache(maxsize=None)
def _tree(name):
    xs, ys, config = _input(name)
    return build_lists(build_tree(xs, ys, config))


def _node(tree, level, ix, iy):
    return int(np.flatnonzero((tree.level == level) & (tree.ix == ix) & (tree.iy == iy))[0])


def _count(tree, ids):
    return tree.stop[ids] - tree.start[ids]


def _half_width(tree, ids):
    return 0.5 ** (tree.level[ids] + 1)


def _pairs(ids, test):
    """The ordered pairs (a, b) of ids for which test(a, b) holds, a block of rows at a time."""
    out = [np.zeros((0, 2), dtype=np.int64)]
    for rows in np.array_split(ids, max(1, len(ids) // 256)):
        a, b = np.meshgrid(rows, ids, indexing="ij")
        hit = test(a, b)
        out.append(np.c_[a[hit], b[hit]])
    return np.concatenate(out)


def _reference_tree(xs, ys, config):
    """Pure-Python build: recursive stable quadrant split, then 2:1 balance in whole passes.

    Returns {(level, ix, iy): (start, stop, cx, cy)} and the particle order.
    """
    side = max(np.ptp(xs), np.ptp(ys)) or 1.0
    xn, yn = ((xs - xs.min()) / side).tolist(), (ys / side).tolist()
    order = list(range(len(xs)))
    nodes = {(0, 0, 0): (0, len(xs), 0.5, float(ys.min() / side) + 0.5)}

    def split(cell):
        (level, ix, iy), (a, b, cx, cy) = cell, nodes[cell]
        quads = [[], [], [], []]
        for p in order[a:b]:  # stable: each quadrant keeps the span's order
            quads[2 * (yn[p] > cy) + (xn[p] > cx)].append(p)
        order[a:b] = sum(quads, [])
        hw = 0.5 ** (level + 2)
        for lab, members in enumerate(quads):
            if members:
                bx, by = lab & 1, lab >> 1
                kid = (level + 1, 2 * ix + bx, 2 * iy + by)
                nodes[kid] = (a, a + len(members), cx + (2 * bx - 1) * hw, cy + (2 * by - 1) * hw)
                a += len(members)
                if len(members) > config.leaf_capacity and kid[0] < config.max_level:
                    split(kid)

    def is_leaf(cell):
        level, ix, iy = cell
        return not any((level + 1, 2 * ix + bx, 2 * iy + by) in nodes
                       for bx in (0, 1) for by in (0, 1))

    def cover(level, ix, iy):
        while (level, ix, iy) not in nodes:
            level, ix, iy = level - 1, ix >> 1, iy >> 1
        return level, ix, iy

    if len(xs) > config.leaf_capacity:
        split((0, 0, 0))
    while True:
        forced = {c for (level, ix, iy) in filter(is_leaf, list(nodes))
                  for jx in range(ix - 1, ix + 2) for jy in range(iy - 1, iy + 2)
                  if 0 <= jx < 1 << level and 0 <= jy < 1 << level
                  for c in [cover(level, jx, jy)]
                  if c[0] < min(level - 1, config.max_level) and is_leaf(c)}
        if not forced:
            return nodes, order
        for cell in forced:
            split(cell)


def _check_balance(tree):
    hw = _half_width(tree, np.arange(len(tree.level)))
    eps = 1e-12

    def unbalanced(a, b):
        # leaves differing by >= 2 levels must not touch
        touch_x = np.abs(tree.cx[a] - tree.cx[b]) <= hw[a] + hw[b] + eps
        touch_y = np.abs(tree.cy[a] - tree.cy[b]) <= hw[a] + hw[b] + eps
        return (abs(tree.level[a] - tree.level[b]) >= 2) & touch_x & touch_y

    assert not len(_pairs(tree.leaves, unbalanced))


def _check_v_pairs(tree):
    """The V pairs are the same-level box pairs whose parents are adjacent and who are not."""
    level, ix, iy = tree.level, tree.ix, tree.iy

    def v_pair(tgt, src):
        adjacent = np.maximum(abs(ix[src] - ix[tgt]), abs(iy[src] - iy[tgt])) <= 1
        parents_adjacent = np.maximum(abs((ix[src] >> 1) - (ix[tgt] >> 1)),
                                      abs((iy[src] >> 1) - (iy[tgt] >> 1))) <= 1
        return parents_adjacent & ~adjacent

    expect = np.concatenate([_pairs(np.flatnonzero(level == lev), v_pair)
                             for lev in range(1, tree.max_depth + 1)])
    # each pair once, sorted by target, then source
    np.testing.assert_array_equal(np.c_[tree.v_tgt, tree.v_src], expect)


class TestBuild:
    def test_single_particle_root_leaf(self):
        tree = build_tree([0.3], [1.0], TreeConfig(leaf_capacity=10))
        assert tree.leaves.tolist() == [0]
        assert len(tree.level) == 1
        assert _count(tree, 0) == 1

    def test_four_quadrants_split_once(self):
        xs = [0.25, 0.75, 0.25, 0.75]
        ys = [1.25, 1.25, 1.75, 1.75]
        tree = build_tree(xs, ys, TreeConfig(leaf_capacity=1))
        assert 0 not in tree.leaves
        children = np.flatnonzero(tree.parent == 0)
        assert len(children) == 4
        assert sorted(tree.leaves.tolist()) == children.tolist()
        assert np.all(_count(tree, children) == 1)

    def test_leaf_capacity_respected(self):
        cfg = TreeConfig(leaf_capacity=8)
        tree = build_tree(*_random(1, 500), cfg)
        # 2:1 balance refinement may re-split, so only the cap is checked
        assert np.all(_count(tree, tree.leaves) <= cfg.leaf_capacity)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_tree([], [], TreeConfig())

    def test_coincident_particles_capped_at_max_level(self):
        tree = build_tree([0.5] * 20, [1.0] * 20, TreeConfig(leaf_capacity=2, max_level=5))
        assert tree.max_depth <= 5
        assert _count(tree, tree.leaves).sum() == 20

    def test_permutation_is_bijection(self):
        tree = build_tree(*_random(2, 300), TreeConfig(leaf_capacity=10))
        assert sorted(tree.perm.tolist()) == list(range(300))

    def test_spans_partition_particles(self):
        tree = build_tree(*_random(3, 200), TreeConfig(leaf_capacity=10))
        starts, stops = tree.start[tree.leaves], tree.stop[tree.leaves]
        assert starts[0] == 0 and stops[-1] == 200
        np.testing.assert_array_equal(starts[1:], stops[:-1])

    def test_particles_inside_leaf_boxes(self):
        tree = build_tree(*_random(4, 250), TreeConfig(leaf_capacity=10))
        eps = 1e-12
        for leaf in tree.leaves:
            a, b = tree.start[leaf], tree.stop[leaf]
            hw = _half_width(tree, leaf)
            assert np.all(np.abs(tree.x[a:b] - tree.cx[leaf]) <= hw + eps)
            assert np.all(np.abs(tree.y[a:b] - tree.cy[leaf]) <= hw + eps)

    def test_cells_are_children_of_their_parents(self):
        tree = _tree("13-400-3")
        kids = np.arange(1, len(tree.level))
        parent = tree.parent[kids]
        assert tree.parent[0] == -1
        np.testing.assert_array_equal(tree.level[parent], tree.level[kids] - 1)
        np.testing.assert_array_equal(tree.ix[parent], tree.ix[kids] >> 1)
        np.testing.assert_array_equal(tree.iy[parent], tree.iy[kids] >> 1)
        assert np.all(tree.start[parent] <= tree.start[kids])
        assert np.all(tree.stop[kids] <= tree.stop[parent])

    def test_two_to_one_balance(self):
        _check_balance(_tree("5-800-4"))

    def test_physical_round_trip(self):
        xs, ys = _random(6, 50)
        tree = build_tree(xs, ys, TreeConfig(leaf_capacity=10))
        orig_x, orig_y = xs[tree.perm], ys[tree.perm]
        # x is shifted to the root's left edge, y only scaled
        np.testing.assert_allclose(orig_x.min() + tree.side * tree.x, orig_x, atol=1e-13)
        np.testing.assert_allclose(tree.side * tree.y, orig_y, atol=1e-13)


def _v_list(tree, node):
    return tree.v_src[tree.v_tgt == node]


class TestLists:
    def test_root_lists_empty(self):
        tree = build_lists(build_tree(*_random(7, 100), TreeConfig(leaf_capacity=5)))
        assert len(_v_list(tree, 0)) == 0

    def test_uniform_interior_counts(self):
        # a truly interior box (its parent has the full 3x3 parent
        # neighborhood) sees the maximal 27-box interaction list; the
        # first level deep enough for that is level 3
        tree = build_lists(build_tree(*_uniform_grid(8, 3), TreeConfig(leaf_capacity=1)))
        assert len(_v_list(tree, _node(tree, 3, 3, 3))) == 27
        # at level 2 the 4x4 grid clips the parent neighborhood to the
        # whole domain: 16 children minus the 3x3 near block
        shallow = build_lists(build_tree(*_uniform_grid(4, 2), TreeConfig(leaf_capacity=1)))
        assert len(_v_list(shallow, _node(shallow, 2, 1, 1))) == 16 - 9

    def test_uniform_level2_corner_counts(self):
        tree = build_lists(build_tree(*_uniform_grid(4, 2), TreeConfig(leaf_capacity=1)))
        # parent neighborhood covers the 4x4 level-2 grid minus the
        # 2x2 near block: 16 - 4 = 12
        assert len(_v_list(tree, _node(tree, 2, 0, 0))) == 12

    def test_interaction_list_brute_force(self):
        _check_v_pairs(build_lists(build_tree(*_uniform_grid(8, 3), TreeConfig(leaf_capacity=1))))

    def test_well_separation(self):
        tree = build_lists(build_tree(*_random(8, 600, ylo=0.05, yhi=2.0),
                                      TreeConfig(leaf_capacity=6)))
        src, tgt = tree.v_src, tree.v_tgt
        assert len(src) > 0
        np.testing.assert_array_equal(tree.level[src], tree.level[tgt])
        di = np.maximum(abs(tree.ix[src] - tree.ix[tgt]), abs(tree.iy[src] - tree.iy[tgt]))
        assert np.all(di >= 2)

    def test_offset_vocabulary_within_7x7(self):
        tree = build_lists(build_tree(*_random(9, 500), TreeConfig(leaf_capacity=5)))
        src, tgt = tree.v_src, tree.v_tgt
        assert np.all(abs(tree.ix[src] - tree.ix[tgt]) <= 3)
        assert np.all(abs(tree.iy[src] - tree.iy[tgt]) <= 3)

    def test_lists_deterministic(self):
        t1 = build_lists(build_tree(*_random(10, 300), TreeConfig(leaf_capacity=5)))
        t2 = build_lists(build_tree(*_random(10, 300), TreeConfig(leaf_capacity=5)))
        np.testing.assert_array_equal(np.c_[t1.level, t1.ix, t1.iy], np.c_[t2.level, t2.ix, t2.iy])
        np.testing.assert_array_equal(t1.v_src, t2.v_src)
        np.testing.assert_array_equal(t1.v_tgt, t2.v_tgt)


class TestPartition:
    @pytest.mark.parametrize("name", ["11-120-4", "12-260-8", "13-400-3"] + HARD)
    def test_pair_coverage_exactly_once(self, name):
        """Every leaf pair is either near or covered by one M2L along ancestors.

        Per target leaf, the source leaves under the V sources of its
        ancestors and its near sources are runs of leaves in particle
        order; they must tile all leaves with no gap and no overlap.
        """
        tree = _tree(name)
        tgt, src = near_source_leaves(tree)
        leaves = tree.leaves
        n = len(leaves)
        rank = np.empty(len(tree.level), dtype=np.int64)
        rank[leaves] = np.arange(n)
        # the leaves under a node are a run lo..hi of leaves in particle order
        lo = np.searchsorted(tree.start[leaves], tree.start)
        hi = np.searchsorted(tree.start[leaves], tree.stop)
        assert np.all(hi > lo)
        rows, runs = [rank[tgt]], [np.c_[rank[src], rank[src] + 1]]
        anc, row = leaves, np.arange(n)
        while len(anc):  # each leaf with each of its ancestors, the leaf itself first
            first = np.searchsorted(tree.v_tgt, anc)
            last = np.searchsorted(tree.v_tgt, anc, side="right")
            for k in range(int((last - first).max(initial=0))):
                has = first + k < last
                s = tree.v_src[first[has] + k]
                rows.append(row[has])
                runs.append(np.c_[lo[s], hi[s]])
            up = tree.parent[anc] >= 0
            anc, row = tree.parent[anc][up], row[up]
        rows, runs = np.concatenate(rows), np.concatenate(runs)
        order = np.lexsort((runs[:, 0], rows))
        rows, runs = rows[order], runs[order]
        first_of_row = np.r_[True, rows[1:] != rows[:-1]]
        last_of_row = np.r_[first_of_row[1:], True]
        np.testing.assert_array_equal(np.unique(rows), np.arange(n))
        assert np.all(runs[first_of_row, 0] == 0)
        assert np.all(runs[last_of_row, 1] == n)
        follows = ~first_of_row
        np.testing.assert_array_equal(runs[follows, 0], runs[np.r_[follows[1:], False], 1])

    def test_near_map_symmetric(self):
        tree = build_lists(build_tree(*_random(14, 300), TreeConfig(leaf_capacity=6)))
        tgt, src = near_source_leaves(tree)
        pairs = set(zip(tgt.tolist(), src.tolist()))
        assert {(leaf, leaf) for leaf in tree.leaves.tolist()} <= pairs  # self included
        assert pairs == {(b, a) for a, b in pairs}


@pytest.mark.parametrize("name", HARD)
class TestHardTrees:
    """Wide strips, a deep cluster, the interface, max_level and a large uniform set."""

    def test_matches_reference(self, name):
        xs, ys, config = _input(name)
        tree = _tree(name)
        nodes, order = _reference_tree(xs, ys, config)
        cells = sorted(nodes)
        np.testing.assert_array_equal(np.c_[tree.level, tree.ix, tree.iy], cells)
        np.testing.assert_array_equal(np.c_[tree.start, tree.stop, tree.cx, tree.cy],
                                      [nodes[cell] for cell in cells])
        parents = [(level - 1, ix >> 1, iy >> 1) for level, ix, iy in cells[1:]]
        assert tree.parent[0] == -1
        np.testing.assert_array_equal(np.c_[tree.level, tree.ix, tree.iy][tree.parent[1:]], parents)
        np.testing.assert_array_equal(tree.perm, order)
        side = max(np.ptp(xs), np.ptp(ys)) or 1.0
        np.testing.assert_array_equal(tree.x, ((xs - xs.min()) / side)[order])
        np.testing.assert_array_equal(tree.y, (ys / side)[order])

    def test_two_to_one_balance(self, name):
        _check_balance(_tree(name))

    def test_interaction_list_brute_force(self, name):
        _check_v_pairs(_tree(name))

    def test_near_pairs_brute_force(self, name):
        tree = _tree(name)
        level, ix, iy = tree.level, tree.ix, tree.iy

        def near(a, b):
            # ancestors at the shallower level in adjacent or equal cells
            m = np.minimum(level[a], level[b])
            return np.maximum(abs((ix[a] >> (level[a] - m)) - (ix[b] >> (level[b] - m))),
                              abs((iy[a] >> (level[a] - m)) - (iy[b] >> (level[b] - m)))) <= 1

        tgt, src = near_source_leaves(tree)
        # each pair once, sorted by target, then source
        np.testing.assert_array_equal(np.c_[tgt, src], _pairs(np.sort(tree.leaves), near))
