"""Tests for the adaptive quadtree and interaction lists."""

import numpy as np
import pytest

from hfmm.greens import Point2
from hfmm.tree import (Particle, TreeConfig, build_lists, build_tree,
                       near_source_leaves)


def _particles(xs, ys, q=1.0):
    return [Particle(position=Point2(float(x), float(y)), strength=q)
            for x, y in zip(xs, ys)]


def _random_particles(seed, n, ylo=0.5, yhi=1.5):
    rng = np.random.default_rng(seed)
    return _particles(rng.uniform(-0.5, 0.5, n), rng.uniform(ylo, yhi, n))


def _uniform_grid(per_side, level):
    # one particle per cell center of the level grid forces a full
    # uniform tree when leaf_capacity = 1
    n = 1 << level
    assert per_side == n
    step = 1.0 / n
    cs = (np.arange(n) + 0.5) * step
    xx, yy = np.meshgrid(cs, cs)
    return _particles(xx.ravel(), 1.0 + yy.ravel())


class TestBuild:
    def test_single_particle_root_leaf(self):
        tree = build_tree(_particles([0.3], [1.0]), TreeConfig(leaf_capacity=10))
        assert tree.root.is_leaf
        assert len(tree.nodes) == 1
        assert tree.root.count == 1

    def test_four_quadrants_split_once(self):
        xs = [0.25, 0.75, 0.25, 0.75]
        ys = [1.25, 1.25, 1.75, 1.75]
        tree = build_tree(_particles(xs, ys), TreeConfig(leaf_capacity=1))
        assert not tree.root.is_leaf
        assert len(tree.root.children) == 4
        assert all(c.is_leaf and c.count == 1 for c in tree.root.children)

    def test_leaf_capacity_respected(self):
        cfg = TreeConfig(leaf_capacity=8)
        tree = build_tree(_random_particles(1, 500), cfg)
        # 2:1 balance refinement may re-split, so only the cap is checked
        assert all(leaf.count <= cfg.leaf_capacity for leaf in tree.leaves)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_tree([], TreeConfig())

    def test_coincident_particles_capped_at_max_level(self):
        pts = _particles([0.5] * 20, [1.0] * 20)
        tree = build_tree(pts, TreeConfig(leaf_capacity=2, max_level=5))
        assert tree.max_depth <= 5
        assert sum(leaf.count for leaf in tree.leaves) == 20

    def test_permutation_is_bijection(self):
        tree = build_tree(_random_particles(2, 300), TreeConfig(leaf_capacity=10))
        assert sorted(tree.perm.tolist()) == list(range(300))

    def test_spans_partition_particles(self):
        tree = build_tree(_random_particles(3, 200), TreeConfig(leaf_capacity=10))
        spans = sorted(leaf.span for leaf in tree.leaves)
        pos = 0
        for a, b in spans:
            assert a == pos
            pos = b
        assert pos == 200

    def test_particles_inside_leaf_boxes(self):
        tree = build_tree(_random_particles(4, 250), TreeConfig(leaf_capacity=10))
        for leaf in tree.leaves:
            a, b = leaf.span
            eps = 1e-12
            assert np.all(np.abs(tree.x[a:b] - leaf.center.x) <= leaf.half_width + eps)
            assert np.all(np.abs(tree.y[a:b] - leaf.center.y) <= leaf.half_width + eps)

    def test_two_to_one_balance(self):
        tree = build_tree(_random_particles(5, 800, ylo=0.01, yhi=2.0),
                          TreeConfig(leaf_capacity=4))
        leaves = tree.leaves
        eps = 1e-12
        for a in leaves:
            for b in leaves:
                if abs(a.level - b.level) <= 1:
                    continue
                # leaves differing by >= 2 levels must not touch
                touch_x = abs(a.center.x - b.center.x) <= a.half_width + b.half_width + eps
                touch_y = abs(a.center.y - b.center.y) <= a.half_width + b.half_width + eps
                assert not (touch_x and touch_y)

    def test_physical_round_trip(self):
        parts = _random_particles(6, 50)
        tree = build_tree(parts, TreeConfig(leaf_capacity=10))
        orig_x = np.array([p.position.x for p in parts])[tree.perm]
        orig_y = np.array([p.position.y for p in parts])[tree.perm]
        # x is shifted to the root's left edge, y only scaled
        np.testing.assert_allclose(orig_x.min() + tree.side * tree.x, orig_x, atol=1e-13)
        np.testing.assert_allclose(tree.side * tree.y, orig_y, atol=1e-13)


class TestLists:
    def test_root_lists_empty(self):
        tree = build_lists(build_tree(_random_particles(7, 100), TreeConfig(leaf_capacity=5)))
        assert tree.root.interaction_list == []

    def test_uniform_interior_counts(self):
        # a truly interior box (its parent has the full 3x3 parent
        # neighborhood) sees the maximal 27-box interaction list; the
        # first level deep enough for that is level 3
        tree = build_lists(build_tree(_uniform_grid(8, 3), TreeConfig(leaf_capacity=1)))
        inner = tree.node_at(3, 3, 3)
        assert len(inner.interaction_list) == 27
        # at level 2 the 4x4 grid clips the parent neighborhood to the
        # whole domain: 16 children minus the 3x3 near block
        shallow = build_lists(build_tree(_uniform_grid(4, 2), TreeConfig(leaf_capacity=1)))
        assert len(shallow.node_at(2, 1, 1).interaction_list) == 16 - 9

    def test_uniform_level2_corner_counts(self):
        tree = build_lists(build_tree(_uniform_grid(4, 2), TreeConfig(leaf_capacity=1)))
        corner = tree.node_at(2, 0, 0)
        # parent neighborhood covers the 4x4 level-2 grid minus the
        # 2x2 near block: 16 - 4 = 12
        assert len(corner.interaction_list) == 12

    def test_interaction_list_brute_force(self):
        tree = build_lists(build_tree(_uniform_grid(8, 3), TreeConfig(leaf_capacity=1)))
        for key, node in tree.nodes.items():
            level, ix, iy = key
            if level == 0:
                continue
            expect = set()
            for (l2, jx, jy), other in tree.nodes.items():
                if l2 != level or other is node:
                    continue
                adjacent = max(abs(jx - ix), abs(jy - iy)) <= 1
                parents_adjacent = max(abs((jx >> 1) - (ix >> 1)),
                                       abs((jy >> 1) - (iy >> 1))) <= 1
                if parents_adjacent and not adjacent:
                    expect.add((l2, jx, jy))
            got = {(n.level,) + n.index for n in node.interaction_list}
            assert got == expect

    def test_well_separation(self):
        tree = build_lists(build_tree(_random_particles(8, 600, ylo=0.05, yhi=2.0),
                                      TreeConfig(leaf_capacity=6)))
        for node in tree.nodes.values():
            for other in node.interaction_list:
                assert other.level == node.level
                di = max(abs(other.index[0] - node.index[0]),
                         abs(other.index[1] - node.index[1]))
                assert di >= 2

    def test_offset_vocabulary_within_7x7(self):
        tree = build_lists(build_tree(_random_particles(9, 500), TreeConfig(leaf_capacity=5)))
        for node in tree.nodes.values():
            for other in node.interaction_list:
                assert abs(other.index[0] - node.index[0]) <= 3
                assert abs(other.index[1] - node.index[1]) <= 3

    def test_lists_deterministic(self):
        t1 = build_lists(build_tree(_random_particles(10, 300), TreeConfig(leaf_capacity=5)))
        t2 = build_lists(build_tree(_random_particles(10, 300), TreeConfig(leaf_capacity=5)))
        k1 = {k: [(n.level,) + n.index for n in v.interaction_list]
              for k, v in t1.nodes.items()}
        k2 = {k: [(n.level,) + n.index for n in v.interaction_list]
              for k, v in t2.nodes.items()}
        assert k1 == k2


class TestPartition:
    @pytest.mark.parametrize("seed,n,cap", [(11, 120, 4), (12, 260, 8), (13, 400, 3)])
    def test_pair_coverage_exactly_once(self, seed, n, cap):
        """Every leaf pair is either near or covered by one M2L along ancestors."""
        tree = build_lists(build_tree(_random_particles(seed, n, ylo=0.02, yhi=2.0),
                                      TreeConfig(leaf_capacity=cap)))
        near = near_source_leaves(tree)

        def ancestors(node):
            out = []
            while node is not None:
                out.append(node)
                node = node.parent
            return out

        leaves = tree.leaves
        for tgt in leaves:
            tgt_anc = ancestors(tgt)
            for src in leaves:
                src_anc = set(ancestors(src))
                m2l = 0
                for a in tgt_anc:
                    m2l += sum(1 for b in a.interaction_list if b in src_anc)
                is_near = src in near[tgt]
                assert m2l + (1 if is_near else 0) == 1, (
                    f"pair {tgt.index}/{src.index} covered {m2l + is_near} times")

    def test_near_map_symmetric(self):
        tree = build_lists(build_tree(_random_particles(14, 300), TreeConfig(leaf_capacity=6)))
        near = near_source_leaves(tree)
        for tgt, srcs in near.items():
            assert tgt in srcs  # self included
            for src in srcs:
                assert tgt in near[src]
