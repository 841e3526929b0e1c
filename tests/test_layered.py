"""Tests for the heterogeneous translation operators and table store."""

import re
import struct
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import hankel1

from hfmm.driver import RunConfig, _tables, _Workspace, fmm_apply, local_values
from hfmm.expansions import image_coefficients, p2m_arrays, translation_matrix
from hfmm.greens import MediaConfig, Point2, QuadratureConvergenceError, free_space, \
    reflectance, scattered_direct, spectral_breakpoints
from hfmm import layered
from hfmm.layered import (TableKey, TableStore, compute_A, compute_B_tail, key_geometry,
                          load_tables, pair_key, save_tables)
from hfmm.quadrature import gauss_legendre, panel_rule
from hfmm.tree import Particle, TreeConfig, build_lists, build_tree, near_source_leaves


def _entries_A(dx, dy, media, P):
    return compute_A([dx], [dy], media, P)[0][0]


def _entries_B(dx, dy, cutoff, media, P):
    return compute_B_tail([dx], [dy], [cutoff], media, P)[0][0]


def _real_sources(seed, n, center, radius):
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0, 2 * np.pi, n)
    rad = radius * np.sqrt(rng.uniform(0, 1, n))
    return [Particle(Point2(center.x + r * np.cos(a), center.y + r * np.sin(a)),
                     float(rng.normal()))
            for r, a in zip(rad, ang)]


def _scattered_local(parts, src_c, entries, P, k):
    """Scattered-field local coefficients as the driver forms them: image coefficients through A."""
    xs = np.array([p.position.x for p in parts])
    ys = np.array([p.position.y for p in parts])
    qs = np.array([p.strength for p in parts])
    image = image_coefficients(p2m_arrays(xs, ys, qs, src_c.x, src_c.y, P, k))
    return translation_matrix(entries, P) @ image


def _eval_local(coeffs, c, x, k):
    return complex(local_values(coeffs, [x[0]], [x[1]], c.x, c.y, k)[0])


def _uniform_positions(level):
    # one particle per cell of the level grid, root side 1, y from 0.05
    n = 1 << level
    cs = np.arange(n) / (n - 1.0)
    xx, yy = np.meshgrid(cs, cs)
    return xx.ravel(), 0.05 + yy.ravel()


def _uniform_particles(level):
    return [Particle(Point2(float(x), float(y)), 1.0) for x, y in zip(*_uniform_positions(level))]


def _random_positions(seed, n, halfwidth, ylo, yhi):
    rng = np.random.default_rng(seed)
    return rng.uniform(-halfwidth, halfwidth, n), rng.uniform(ylo, yhi, n)


def _node(tree, level, ix, iy):
    return int(np.flatnonzero((tree.level == level) & (tree.ix == ix) & (tree.iy == iy))[0])


def _planned(level, media, P):
    """The workspace of a run on the uniform level grid, after its tables phase."""
    ws = _Workspace(_uniform_particles(level), RunConfig(media=media, order=P, leaf_capacity=1))
    _tables(ws, None)  # the tables pass adds nothing to the potentials
    return ws


def _pair_rows(tree, tgt, src, near=False):
    """The (shift, ax, sy, cut, flip) rows of (target, source) pairs of tree node ids,
    from one pair_key call."""
    cells = np.stack((tree.level, tree.ix, tree.iy))
    keys, flip = pair_key(tree.root_xy[1], cells[:, tgt], cells[:, src], near)
    return np.c_[keys, flip]


def _pair_keys(tree, tgt, src, near=False):
    """(TableKey, flip) of each (target, source) pair of tree node ids, from one pair_key call."""
    y0 = tree.root_xy[1]
    return [(TableKey(y0, *row[:4]), bool(row[4]))
            for row in _pair_rows(tree, tgt, src, near).tolist()]


def _geometry(key):
    """(dx, dy, cutoff) of one TableKey, from key_geometry."""
    return tuple(float(v) for v in key_geometry(key.root_y0, *key[1:]))


def _expected_cutoff(tree, tgt, src):
    """Line-image cutoff of a near pair from the boxes' own floats."""
    src_hw, tgt_hw = 0.5 ** (tree.level[src] + 1), 0.5 ** (tree.level[tgt] + 1)
    src_bottom = tree.cy[src] - src_hw
    tgt_bottom = tree.cy[tgt] - tgt_hw
    w = 2.0 * max(src_hw, tgt_hw)
    return 0.0 if src_bottom >= 2.0 * src_hw else max(0.0, w - (src_bottom + tgt_bottom))


def _scattered_sum(media, parts, x, tol=1e-13):
    return sum(p.strength * scattered_direct(media, x, (p.position.x, p.position.y), tol)
               for p in parts)


class TestGeometry:
    def test_dy_must_be_positive(self):
        media = MediaConfig.two_layer(1.0, 1.0)
        with pytest.raises(ValueError, match="dy > 0"):
            compute_A([1.0, 1.0], [0.5, 0.0], media, 4)
        with pytest.raises(ValueError, match="dy > 0"):
            compute_B_tail([1.0], [0.0], [0.5], media, 4)

    def test_store_key_reconstruction(self):
        # level 2, target iy 0, source iy 1, x offset 3 boxes: in half-widths
        # (h = 1/8) dx = 6 and the summed center heights are 1 + 3 = 4; the
        # same key reduced (h = 1/4); and a tail key
        dx, dy, cutoff = key_geometry(0.25, *np.array([[3, 6, 4, 0], [2, 3, 2, 0],
                                                       [3, 6, 4, 5]]).T)
        w = 0.25
        assert dx[0] == 3 * w
        assert dy[0] == 2 * 0.25 + (0 + 1 + 1) * w
        assert cutoff[0] == 0.0
        # the reduced key is the same geometry bit for bit
        assert (dx[1], dy[1], cutoff[1]) == (dx[0], dy[0], cutoff[0])
        # a tail key: C = cut * h - 2 * root_y0
        assert cutoff[2] == 5 / 8 - 0.5

    def test_key_geometry_matches_tree_boxes(self):
        # a box on the interface, a flat strip, a tree down to 5e-3 and the
        # three-layer workload's root height
        for half_width, ylo, yhi in ((0.5, 0.01, 0.6), (5.0, 0.01, 0.11), (0.5, 5e-3, 1.005),
                                     (0.5, 0.05, 1.05)):
            self._check_tree_keys(half_width, ylo, yhi)

    @staticmethod
    def _check_tree_keys(half_width, ylo, yhi):
        xs, ys = _random_positions(21, 400, half_width, ylo, yhi)
        tree = build_lists(build_tree(xs, ys, TreeConfig(leaf_capacity=8)))
        y0 = tree.root_xy[1]
        level, iy, cx, cy = tree.level, tree.iy, tree.cx, tree.cy
        assert len(set(level[tree.leaves])) > 1
        tgt, src = np.meshgrid(tree.leaves, tree.leaves, indexing="ij")
        close = abs(level[tgt] - level[src]) <= 1
        tgt, src = tgt[close], src[close]
        for t, s, (key, flip) in zip(tgt, src, _pair_keys(tree, tgt, src)):
            dx, dy, cutoff = _geometry(key)
            assert (-dx if flip else dx) == cx[t] - cx[s]
            if level[t] == level[s]:
                # the lattice closed form, one rounding
                assert dy == 2.0 * y0 + (iy[t] + iy[s] + 1) * 0.5 ** level[t]
            assert dy == pytest.approx(cy[t] + cy[s], rel=1e-15)
            assert cutoff == 0.0
        # near pairs: the line-image cutoff from the boxes' own floats
        tgt, src = near_source_leaves(tree)
        cut = 0
        for t, s, (key, _) in zip(tgt, src, _pair_keys(tree, tgt, src, near=True)):
            expect = _expected_cutoff(tree, t, s)
            _, dy, cutoff = _geometry(key)
            assert cutoff == pytest.approx(expect, rel=1e-15, abs=1e-15)
            assert dy == pytest.approx(cy[t] + cy[s], rel=1e-15)
            cut += expect > 0.0
        assert cut > 0

    def test_swapped_levels_share_a_key(self):
        # coarse box to a fine box, and the mirrored fine box to the
        # coarse box, have the same dx and dy; swapping the boxes negates dx
        tree = TestTableStore()._uniform_tree(2)
        coarse = _node(tree, 1, 0, 1)
        left, right = _node(tree, 2, 0, 3), _node(tree, 2, 1, 3)
        (key, flip), swapped, mirrored = _pair_keys(
            tree, [coarse, right, left], [left, coarse, coarse])
        assert not flip
        assert swapped == (key, False)
        assert mirrored == (key, True)
        assert _geometry(key)[0] == tree.cx[coarse] - tree.cx[left]


def _mixed_workspace(media):
    """The workspace of 500 particles down to 5e-3 above the interface: leaves at several levels."""
    xs, ys = _random_positions(33, 500, 0.5, 5e-3, 1.0)
    parts = [Particle(Point2(float(x), float(y)), 1.0) for x, y in zip(xs, ys)]
    return _Workspace(parts, RunConfig(media=media, order=4, leaf_capacity=12))


@pytest.mark.parametrize("media", [
    MediaConfig.two_layer(1.0, 1.0), MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8),
], ids=lambda m: m.variant)
class TestPlan:
    def test_every_pair_in_one_group(self, media):
        # each V pair and each ordered near pair lands in exactly one group
        # (or, three-layer, one cut list), and each group's key, offset or
        # quadrant reproduces the geometry of every box pair in it
        ws = _mixed_workspace(media)
        tree = ws.tree
        level, ix, iy, cx, cy = tree.level, tree.ix, tree.iy, tree.cx, tree.cy
        assert len(set(level[tree.leaves])) > 1

        def pairs(src, tgt, bounds):
            return [list(zip(src[a:b].tolist(), tgt[a:b].tolist()))
                    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]

        v_pairs = Counter(zip(tree.v_src.tolist(), tree.v_tgt.tolist()))
        tgt, src = near_source_leaves(tree)
        near_pairs = Counter(zip(src.tolist(), tgt.tolist()))

        # far: every pair that reads a table entry, at its target's level
        far, lines = Counter(), Counter()
        for lev, (rows, *groups) in ws.far.items():
            geometry = zip(*key_geometry(ws.y0, *rows[:, :4].T))
            for row, (dx, dy, cutoff), group in zip(rows.tolist(), geometry, pairs(*groups)):
                for s, t in group:
                    assert level[t] == lev
                    assert (-dx if row[4] else dx) == cx[t] - cx[s]
                    assert dy == pytest.approx(cy[t] + cy[s], rel=1e-15)
                    want = _expected_cutoff(tree, t, s) if (s, t) in near_pairs else 0.0
                    assert cutoff == pytest.approx(want, rel=1e-15, abs=1e-15)
                far.update(group)
                # the two-layer cut pairs, which also take the line image
                # with their B-tail entry's cutoff
                if row[3]:
                    lines.update({(s, t, float(cutoff)): 1 for s, t in group})
        offsets = Counter()
        for lev, (rows, *groups) in ws.offsets.items():
            for row, group in zip(rows.tolist(), pairs(*groups)):
                assert all(level[t] == lev and row == [ix[t] - ix[s], iy[t] - iy[s]]
                           for s, t in group)
                offsets.update(group)
        assert offsets == v_pairs

        quadrants = Counter()
        for lev, (rows, *groups) in ws.quadrants.items():
            for row, group in zip(rows.tolist(), pairs(*groups)):
                for parent, child in group:
                    assert tree.parent[child] == parent and level[child] == lev
                    assert row == [np.sign(cx[child] - cx[parent]),
                                   np.sign(cy[child] - cy[parent])]
                quadrants.update(child for _, child in group)
        assert quadrants == Counter(range(1, len(level)))

        # each unordered pair once; a mirrored one stands for both directions
        pairs = [(tgt, src, c) for t, s, c, m in zip(*(a.tolist() for a in ws.line_image))
                 for tgt, src in [(t, s)] + [(s, t)] * m]
        assert Counter((src, tgt, c) for tgt, src, c in pairs) == lines
        cut = Counter()
        leaves, bounds, srcs = ws.cut
        for leaf, lo, hi in zip(leaves.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
            # a row lists each source leaf once
            sources = srcs[lo:hi]
            assert len(np.unique(sources)) == len(sources)
            group = [(s, leaf) for s in sources.tolist()]
            assert all(_expected_cutoff(tree, t, s) > 0.0 for s, t in group)
            cut.update(group)
        assert far + cut == v_pairs + near_pairs
        assert not far & cut
        if media.variant == "three-layer":
            assert cut and not lines
        else:
            assert not cut and lines

    def test_no_group_repeats_a_target(self, media):
        # _translate scatters a group with out[tgt] += ..., which keeps only
        # one add of a repeated target
        ws = _mixed_workspace(media)
        plans = [ws.quadrants, ws.offsets, ws.far]
        assert all(plans)
        for plan in plans:
            for _, _, tgt, bounds in plan.values():
                for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                    assert len(np.unique(tgt[a:b])) == b - a


class TestPanelEdges:
    @pytest.mark.parametrize("media", [MediaConfig.two_layer(1.0, 1.0),
                                       MediaConfig.three_layer(1.0, 0.8, 1.6, 0.8)],
                             ids=["two-layer", "three-layer"])
    def test_bisection_cutoff_matches_brentq(self, media):
        # the last edge is where the envelope z^{-2P} e^{-t dy} is 45 e-folds
        # below its peak; scipy's brentq on the same function is the reference
        from scipy.optimize import brentq

        k = media.k1
        for P in (0, 1, 4, 8, 16, 24, 39):
            for dy in np.geomspace(1e-3, 30.0, 13):
                def log_env(t):
                    return 2 * P * np.log((t + np.hypot(t, k)) / k) - t * dy

                tstar = max(2 * P / dy, k)
                target = log_env(tstar) - 45.0
                hi = 2.0 * tstar + (45.0 + 2 * P) / dy
                while log_env(hi) > target:
                    hi *= 2.0
                want = brentq(lambda t: log_env(t) - target, tstar, hi)
                edges = layered._panel_edges(media, P, dy)
                assert edges[-1] == pytest.approx(want, rel=1e-11, abs=0)
                assert np.all(np.diff(edges) > 0) and edges[0] == 0.0


class TestComputeA:
    def test_alpha_zero_point_image_collapse(self):
        # sigma = 1 collapses A(nu) to H_nu(k rho) e^{i nu theta} of the
        # target-about-image offset
        media = MediaConfig.two_layer(1.0, 0.0)
        dx, dy = 1.5, 2.2
        entries = _entries_A(dx, dy, media, 8)
        rho = np.hypot(dx, dy)
        theta = np.arctan2(dy, dx)
        nu = np.arange(-16, 17)
        expect = hankel1(nu, media.k1 * rho) * np.exp(1j * nu * theta)
        np.testing.assert_allclose(entries, expect, atol=1e-11)

    def test_toeplitz_assembly(self):
        media = MediaConfig.two_layer(1.0, 1.0)
        entries = _entries_A(1.0, 2.5, media, 5)
        mat = translation_matrix(entries, 5)
        for d in range(-10, 11):
            diag = np.diagonal(mat, offset=d)
            assert np.max(np.abs(diag - diag[0])) <= 1e-14 * max(1.0, abs(diag[0]))

    def test_free_media_rejected(self):
        with pytest.raises(ValueError):
            _entries_A(1.0, 2.0, MediaConfig.free(1.0), 5)

    def test_node_doubling_stable(self, monkeypatch):
        # every batch checks its grid by doubling; with the cap at the
        # start count there is no second grid to compare, so it raises
        media = MediaConfig.two_layer(1.0, 1.0)
        dx, dy = np.array([1.5, 0.75]), np.array([2.5, 0.26])
        rows, nodes = compute_A(dx, dy, media, 10)
        assert rows.shape == (2, 41) and np.all(np.isfinite(rows)) and nodes > 0
        monkeypatch.setattr(layered, "_GRID_CAP", layered._GRID_START)
        with pytest.raises(QuadratureConvergenceError, match="did not converge"):
            compute_A(dx[1:], dy[1:], media, 10)

    def test_doubling_check_fails_on_nan(self, monkeypatch):
        # a NaN reflectance at one evanescent node never converges
        reflectance = layered.reflectance

        def poisoned(media, kappa):
            out = np.array(reflectance(media, kappa))
            if np.all(np.imag(kappa) == 0.0):
                out[len(out) // 2] = np.nan
            return out

        monkeypatch.setattr(layered, "reflectance", poisoned)
        with pytest.raises(QuadratureConvergenceError):
            compute_A([1.5], [2.5], MediaConfig.two_layer(1.0, 1.0), 8)

    @pytest.mark.parametrize("media,center_y", [
        pytest.param(MediaConfig.two_layer(1.0, 1.0), 1.0, id="media0"),
        pytest.param(MediaConfig.three_layer(1.0, 0.6, 1.3, 0.7), 1.0, id="media1"),
        # dy * min(k, alpha) = 0.6: the decay scale reaches the reflectance pole
        pytest.param(MediaConfig.two_layer(1.0, 1.0), 0.3, id="two-layer-near-interface"),
        # k1 d = 16: sigma oscillates along the propagating contour, which
        # 64 nodes per segment do not resolve
        pytest.param(MediaConfig.three_layer(20.0, 16.0, 12.0, 0.8), 1.0, id="three-layer-thick"),
    ])
    def test_m2l_vs_scattered_oracle(self, media, center_y):
        src_c, tgt_c = Point2(0.0, center_y), Point2(1.5, center_y)
        parts = _real_sources(21, 15, src_c, 0.2)
        P = 25
        entries = _entries_A(tgt_c.x - src_c.x, tgt_c.y + src_c.y, media, P)
        loc = _scattered_local(parts, src_c, entries, P, media.k1)
        rng = np.random.default_rng(22)
        for _ in range(6):
            x = (tgt_c.x + rng.uniform(-0.2, 0.2), tgt_c.y + rng.uniform(-0.2, 0.2))
            assert _eval_local(loc, tgt_c, x, media.k1) == pytest.approx(
                _scattered_sum(media, parts, x), abs=1e-9)

    def test_x_invariance(self):
        # horizontally translated pairs share the same entries exactly
        media = MediaConfig.two_layer(1.0, 1.0)
        shift = 7.3
        src_c = Point2(shift + 0.0, 0.8)
        tgt_c = Point2(shift + 1.25, 0.8)
        parts = _real_sources(23, 10, src_c, 0.15)
        loc = _scattered_local(parts, src_c, _entries_A(1.25, 1.6, media, 15), 15, 1.0)
        x = (tgt_c.x + 0.1, tgt_c.y - 0.05)
        assert _eval_local(loc, tgt_c, x, 1.0) == pytest.approx(
            _scattered_sum(media, parts, x), abs=1e-9)


class TestM2LHeterogeneous:
    def test_order_mismatch(self):
        media = MediaConfig.two_layer(1.0, 1.0)
        entries = _entries_A(1.5, 2.0, media, 8)
        with pytest.raises(ValueError):
            translation_matrix(entries, 7)


class TestComputeBTail:
    def test_alpha_zero_is_zero_vector(self):
        media = MediaConfig.two_layer(1.0, 0.0)
        entries = _entries_B(1.5, 0.8, 0.4, media, 6)
        np.testing.assert_array_equal(entries, 0.0)

    def test_c_to_zero_collapse(self):
        # B(C -> 0+) equals the line-image-only part of A, which is
        # A(alpha) minus the point-image entries A(alpha = 0)
        media = MediaConfig.two_layer(1.0, 1.0)
        full = _entries_A(1.5, 1.1, media, 8)
        point = _entries_A(1.5, 1.1, MediaConfig.two_layer(1.0, 0.0), 8)
        tail = _entries_B(1.5, 1.1, 1e-9, media, 8)
        np.testing.assert_allclose(tail, full - point, atol=1e-10)

    def test_invalid_cutoff(self):
        media = MediaConfig.two_layer(1.0, 1.0)
        with pytest.raises(ValueError):
            _entries_B(1.0, 1.0, 0.0, media, 5)
        with pytest.raises(ValueError):
            _entries_B(1.0, 1.0, 0.5, MediaConfig.three_layer(1.0, 0.6, 1.3, 0.7), 5)

    def test_tail_matches_split_oracle(self):
        # potential II = scattered - point image - integral over [0, C]
        media = MediaConfig.two_layer(1.0, 1.0)
        k = media.k1
        src_c, tgt_c, C = Point2(0.0, 0.3), Point2(1.5, 0.3), 0.5
        parts = _real_sources(25, 8, src_c, 0.15)
        P = 25
        entries = _entries_B(tgt_c.x - src_c.x, tgt_c.y + src_c.y, C, media, P)
        loc = _scattered_local(parts, src_c, entries, P, k)
        nodes, weights = gauss_legendre(48, 0.0, C)
        for x in [(1.4, 0.25), (1.6, 0.4)]:
            expect = 0.0 + 0.0j
            density = 2j * media.alpha * np.exp(1j * media.alpha * nodes)
            for p in parts:
                im = (p.position.x, -p.position.y)
                total = scattered_direct(media, x, (p.position.x, p.position.y), 1e-13)
                point = free_space(k, x, im)
                seg = np.sum(weights * density
                             * np.array([free_space(k, x, (im[0], im[1] - s))
                                         for s in nodes]))
                expect += p.strength * (total - point - seg)
            assert _eval_local(loc, tgt_c, x, k) == pytest.approx(expect, abs=1e-8)


def _interface_batch():
    """dx and dy of an A batch at the near-interface root height 0.0052272: dy from
    0.1355 to 1.8855, dx in eighths.  Some keys of the two smallest dy need 128
    nodes per panel; the rest agree at 64."""
    dx, dy = np.meshgrid([0.0, 0.25, 0.375, 0.5], 2 * 0.0052272 + np.array([1, 2, 4, 8, 15]) / 8)
    return dx.ravel(), dy.ravel()


def _r_evan(media):
    """The evanescent spectral factor of compute_A: the reflectance at kappa = t."""
    return lambda t: reflectance(media, t.astype(complex))


class TestPerEntryRefinement:
    media = MediaConfig.two_layer(1.0, 1.0)

    @staticmethod
    def _recorded(monkeypatch):
        """The (dx, dy) keys that each _evanescent_grid call sees, by nodes per panel."""
        seen, grid = {}, layered._evanescent_grid

        def recorded(media, P, dx, dy, r_evan, edges, count):
            seen.setdefault(count, []).append(set(zip(dx.tolist(), dy.tolist())))
            return grid(media, P, dx, dy, r_evan, edges, count)

        monkeypatch.setattr(layered, "_evanescent_grid", recorded)
        return seen

    def test_only_unconverged_entries_take_the_next_grid(self, monkeypatch):
        P = 16
        dx, dy = _interface_batch()
        grid = layered._evanescent_grid
        seen = self._recorded(monkeypatch)
        rows, nodes = compute_A(dx, dy, self.media, P)
        # the doubling check by hand, on the batch's panels
        edges = layered._panel_edges(self.media, P, dy.min())
        coarse, _ = grid(self.media, P, dx, dy, _r_evan(self.media), edges, 32)
        fine, mass = grid(self.media, P, dx, dy, _r_evan(self.media), edges, 64)
        easy = np.all(np.abs(fine - coarse) <= layered._TOL_REL * np.maximum(np.abs(fine), 1.0)
                      + layered._TOL_MASS * mass, axis=1)
        keys = set(zip(dx.tolist(), dy.tolist()))
        hard = set(zip(dx[~easy].tolist(), dy[~easy].tolist()))
        assert 0 < len(hard) < len(keys)
        assert seen == {32: [keys], 64: [keys], 128: [hard]}
        assert nodes == 128 * (len(edges) - 1)
        # an easy entry is the same with or without the hard ones in its batch
        alone, _ = compute_A(dx[easy], dy[easy], self.media, P)
        scale = np.maximum(np.abs(rows[easy]), mass[easy])
        assert np.all(np.abs(alone - rows[easy]) <= 1e-15 * scale)

    def test_a_converged_entry_keeps_its_finer_value(self, monkeypatch):
        # a mark of count * 1e-14 of the mass, far inside the check's 5e-12 of
        # the mass, shows which grid each row came from
        P = 8
        dx, dy = np.array([1.5, -0.75, 0.0]), np.array([2.5, 0.9, 1.2])
        clean, nodes = compute_A(dx, dy, self.media, P)
        edges = layered._panel_edges(self.media, P, dy.min())
        count = nodes // (len(edges) - 1)
        grid = layered._evanescent_grid

        def marked(media, P, dx, dy, r_evan, edges, count):
            evan, mass = grid(media, P, dx, dy, r_evan, edges, count)
            return evan + 1e-14 * count * mass, mass

        monkeypatch.setattr(layered, "_evanescent_grid", marked)
        rows, _ = compute_A(dx, dy, self.media, P)
        _, mass = grid(self.media, P, dx, dy, _r_evan(self.media), edges, count)
        want = 1e-14 * count * mass * (-1j) ** np.arange(-2 * P, 2 * P + 1) / (1j * np.pi)
        assert count == 64
        assert np.all(np.abs(rows - clean - want) <= 1e-3 * np.abs(want))

    @pytest.mark.parametrize("contour", ["propagating", "evanescent"])
    def test_one_unconverging_entry_fails_the_batch(self, monkeypatch, contour):
        P = 8
        dx, dy = np.array([1.5, 0.75]), np.array([2.5, 2.5])
        panels = layered._panel_edges(self.media, P, 2.5).size - 1
        assert compute_A(dx[:1], dy[:1], self.media, P)[1] == 64 * panels
        if contour == "propagating":
            dx[1] = np.nan  # NaN on both contours: the propagating one raises first
        else:
            grid = layered._evanescent_grid

            def poisoned(media, P, dx, dy, r_evan, edges, count):
                evan, mass = grid(media, P, dx, dy, r_evan, edges, count)
                evan[dx == 0.75] *= 1.0 + 1e-9 * count  # never agrees with the last grid
                return evan, mass

            monkeypatch.setattr(layered, "_evanescent_grid", poisoned)
        seen = self._recorded(monkeypatch)
        with pytest.raises(QuadratureConvergenceError, match=f"{contour} .* for 1 of 2 entries"):
            compute_A(dx, dy, self.media, P)
        if contour == "evanescent":
            # the converged entry stopped at 64 nodes per panel
            keys, bad = set(zip(dx.tolist(), dy.tolist())), {(0.75, 2.5)}
            assert seen == {32: [keys], 64: [keys], 128: [bad], 256: [bad]}

    @pytest.mark.parametrize("case", ["two-layer-A", "two-layer-B", "three-layer-A"])
    def test_grid_matches_the_direct_sum(self, case):
        # the factorized kernel against its docstring integrand, summed per key and node
        media = (MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8) if case == "three-layer-A"
                 else MediaConfig.two_layer(1.0, 1.0))
        if case == "two-layer-B":
            shift, alpha = 0.4, media.alpha
            r_evan = lambda t: 2.0j * alpha / (t - 1j * alpha)  # noqa: E731
        else:
            shift, r_evan = 0.0, _r_evan(media)
        P, count, k = 6, 48, media.k1
        # repeated dx and dy, and a negative dx
        dx = np.array([0.5, 0.5, -0.25, 0.0, 0.5, 1.25])
        dy = np.array([0.3, 0.7, 0.3, 0.7, 0.3, 1.1]) + shift
        edges = layered._panel_edges(media, P, dy.min())
        evan, mass = layered._evanescent_grid(media, P, dx, dy, r_evan, edges, count)
        t, w = panel_rule(edges, count, spectral_breakpoints(media, "evanescent", edges[-1]))
        root = np.hypot(t, k)
        z = k / (root + t)
        f = w * r_evan(t) / root
        want = np.empty_like(evan)
        want_mass = np.empty_like(mass)
        for j in range(len(dx)):
            decay = np.exp(-t * dy[j])
            for col, nu in enumerate(range(-2 * P, 2 * P + 1)):
                want[j, col] = np.sum(f * (np.exp(1j * root * dx[j]) * z ** nu + (-1.0) ** nu
                                           * np.exp(-1j * root * dx[j]) * z ** -nu) * decay)
                want_mass[j, col] = np.sum(np.abs(f) * (z ** nu + z ** -nu) * decay)
        assert np.all(np.abs(evan - want) <= 1e-14 * want_mass)
        assert np.all(np.abs(mass - want_mass) <= 1e-14 * want_mass)

    @pytest.mark.parametrize("media", [MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8),
                                       MediaConfig.two_layer(1.0, 1.0)],
                             ids=lambda m: m.variant)
    def test_key_and_node_blocks_match_one_block(self, monkeypatch, media):
        P = 16
        dx = np.array([0.5, 0.5, -0.25, 0.0, 0.5, 1.25, -0.25])
        dy = np.array([0.3, 0.7, 0.3, 0.7, 0.3, 1.1, 0.14])
        whole, nodes = compute_A(dx, dy, media, P)
        # 7 nodes and 3 keys per block, so every panel and the batch are split
        monkeypatch.setattr(layered, "_BLOCK_BYTES", 16 * 7 * (4 * P + 1))
        chunked, chunked_nodes = compute_A(dx, dy, media, P)
        assert chunked_nodes == nodes
        # the scale of the doubling check: the entry, at least 1, plus its evanescent mass
        edges = layered._panel_edges(media, P, dy.min())
        _, mass = layered._evanescent_grid(media, P, dx, dy, _r_evan(media), edges,
                                           nodes // (len(edges) - 1))
        scale = np.maximum(np.abs(whole), 1.0) + mass
        assert np.all(np.abs(chunked - whole) <= 1e-15 * scale)


class TestTableStore:
    def _uniform_tree(self, level=3):
        return build_lists(build_tree(*_uniform_positions(level), TreeConfig(leaf_capacity=1)))

    def test_cache_sharing(self):
        media = MediaConfig.two_layer(1.0, 1.0)
        store = TableStore(media, 5)
        key = TableKey(0.0, 2, 3, 3, 0)
        row = np.array([[*key[1:], 0]])
        with pytest.raises(KeyError, match=re.escape(str(tuple(key)))):
            store.get(0.0, row)  # get only reads: fill is the one compute path
        store.fill(0.0, np.r_[row, row])
        store.fill(0.0, row[:, :4])
        assert store.misses == 1
        a = store.get(0.0, row)
        assert a.shape == (1, 21)
        np.testing.assert_array_equal(a[0], store.entries[key])
        np.testing.assert_array_equal(store.get(0.0, row ^ [0, 0, 0, 0, 1])[0], a[0][::-1])
        assert store.misses == 1

    def test_get_with_mixed_flips(self):
        # a batch of rows reads each entry as stored or, where flip is
        # set, reversed, in the rows' order
        store = _planned(2, MediaConfig.two_layer(1.0, 1.0), 5).store
        keys = sorted(store.entries)
        y0 = keys[0].root_y0
        assert len(keys) > 3 and len({key.root_y0 for key in keys}) == 1
        rng = np.random.default_rng(3)
        flips = rng.integers(0, 2, 3 * len(keys))
        picks = rng.integers(0, len(keys), len(flips))
        assert 0 < flips.sum() < len(flips)
        rows = np.array([[*keys[i][1:], f] for i, f in zip(picks, flips)])
        got = store.get(y0, rows)
        assert got.shape == (len(rows), 21)
        for i, f, entry in zip(picks, flips, got):
            stored = store.entries[keys[i]]
            np.testing.assert_array_equal(entry, stored[::-1] if f else stored)

    def test_near_tail_keys(self):
        # the bottom row of a two-layer tree cuts its line images
        ws = _planned(2, MediaConfig.two_layer(1.0, 1.0), 5)
        tree, store = ws.tree, ws.store
        y0 = tree.root_xy[1]
        tgt, src = near_source_leaves(tree)
        cut = [(t, s, key) for t, s, (key, _) in zip(tgt, src, _pair_keys(tree, tgt, src, True))
               if key.cut]
        assert cut
        assert all(tree.iy[t] == tree.iy[s] == 0 for t, s, _ in cut)
        assert {key for _, _, key in cut} == {key for key in store.entries if key.cut}
        [(key, _)] = _pair_keys(tree, [_node(tree, 2, 1, 0)], [_node(tree, 2, 2, 0)], near=True)
        assert _geometry(key)[2] == pytest.approx(0.25 - 2 * y0)

    def test_store_size_bound_uniform_l3(self):
        media = MediaConfig.two_layer(1.0, 1.0)
        P = 20
        store = _planned(3, media, P).store
        total = sum(len(v) for v in store.entries.values())
        assert total <= 2 ** 4 * 49 * (4 * P + 1)

    def test_determinism_bit_exact(self):
        media = MediaConfig.two_layer(1.0, 1.0)
        s1 = _planned(2, media, 8).store
        s2 = _planned(2, media, 8).store
        assert s1.entries.keys() == s2.entries.keys()
        for key in s1.entries:
            np.testing.assert_array_equal(s1.entries[key], s2.entries[key])

    def test_save_load_round_trip(self, tmp_path):
        media = MediaConfig.two_layer(1.0, 1.0)
        store = _planned(2, media, 8).store
        path = tmp_path / "tables.bin"
        save_tables(store, path)
        loaded = load_tables(path, media, 8)
        assert list(loaded.entries) == sorted(store.entries)
        for key, vals in loaded.entries.items():
            assert [type(field) for field in key] == [float, int, int, int, int]
            assert vals.dtype == complex and vals.tobytes() == store.entries[key].tobytes()
        again = tmp_path / "again.bin"
        save_tables(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_load_reads_do_not_grow_with_entries(self, tmp_path, monkeypatch):
        # a file of 1 and one of 88 made-up entries: the header, then one
        # read per block
        media = MediaConfig.two_layer(1.0, 1.0)
        rng = np.random.default_rng(3)
        paths = []
        for count in (1, 88):
            store = TableStore(media, 8)
            for i in range(count):
                vals = rng.normal(size=(33, 2)) @ [1.0, 1.0j]
                store.entries[TableKey(0.0625, 4, i, 2 * i + 1, i % 3)] = vals
            paths.append(tmp_path / f"tables{count}.bin")
            save_tables(store, paths[-1])
        reads = []

        class Counted:
            def __init__(self, f):
                self.f = f

            def read(self, size):
                reads.append(size)
                return self.f.read(size)

            def __getattr__(self, name):
                return getattr(self.f, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.f.__exit__(*exc)

        monkeypatch.setattr(layered, "open", lambda *a: Counted(open(*a)), raising=False)
        counts = []
        for path, entries in zip(paths, (1, 88)):
            reads.clear()
            assert len(load_tables(path, media, 8).entries) == entries
            counts.append(len(reads))
        assert counts[0] == counts[1]

    def test_load_rejects_other_media(self, tmp_path):
        store = _planned(2, MediaConfig.two_layer(1.0, 1.0), 8).store
        path = tmp_path / "tables.bin"
        save_tables(store, path)
        with pytest.raises(ValueError):
            load_tables(path, MediaConfig.two_layer(1.0, 0.5), 8)
        with pytest.raises(ValueError):
            load_tables(path, MediaConfig.two_layer(1.0, 1.0), 9)

    def test_load_rejects_other_rule_counts(self, tmp_path):
        # header: P, propagating start and cap nodes per segment, grid start
        # and cap nodes per panel and the three tolerances; runs use
        # (64, 1024, 32, 256, 1e-12, 5e-12, 1e-10)
        media = MediaConfig.two_layer(1.0, 1.0)
        fp = media.fingerprint().encode()
        path = tmp_path / "tables.bin"
        for rule in ((32, 1024, 32, 256, 1e-12, 5e-12, 1e-10),
                     (64, 512, 32, 256, 1e-12, 5e-12, 1e-10),
                     (64, 1024, 48, 256, 1e-12, 5e-12, 1e-10),
                     (64, 1024, 32, 384, 1e-12, 5e-12, 1e-10),
                     (64, 1024, 32, 256, 1e-11, 5e-12, 1e-10),
                     (64, 1024, 32, 256, 1e-12, 5e-12, 1e-9)):
            path.write_bytes(b"HFMMTB7\x00" + struct.pack("<I", len(fp)) + fp
                             + struct.pack("<IIIIIdddQ", 8, *rule, 0))
            with pytest.raises(ValueError, match="quadrature rule"):
                load_tables(path, media, 8)

    def test_load_rejects_old_format(self, tmp_path):
        # first format: magic, fingerprint, P, max level, root height,
        # entries; third: P, propagating and Laguerre counts, Laguerre a;
        # fourth: P, a fixed propagating count, the grid and the tolerances;
        # fifth: the header of today's, with cosine-mapped evanescent panels;
        # sixth: today's header, then per entry its key fields, its value
        # count and its values
        fp = MediaConfig.two_layer(1.0, 1.0).fingerprint().encode()
        path = tmp_path / "tables.bin"
        for magic, header in ((b"HFMMTB1\x00", struct.pack("<IIdQ", 8, 2, 0.05, 0)),
                              (b"HFMMTB3\x00", struct.pack("<IIIdQ", 8, 64, 64, 0.0, 0)),
                              (b"HFMMTB4\x00", struct.pack("<IIIIdddQ", 8, 64, 48, 384, 1e-12,
                                                           5e-12, 1e-10, 0)),
                              (b"HFMMTB5\x00", struct.pack("<IIIIIdddQ", 8, 64, 1024, 48, 384,
                                                           1e-12, 5e-12, 1e-10, 0)),
                              (b"HFMMTB6\x00", struct.pack("<IIIIIdddQ", 8, 64, 1024, 32, 256,
                                                           1e-12, 5e-12, 1e-10, 0))):
            path.write_bytes(magic + struct.pack("<I", len(fp)) + fp + header)
            with pytest.raises(ValueError, match="old format"):
                load_tables(path, MediaConfig.two_layer(1.0, 1.0), 8)

    def test_load_rejects_box_pair_format(self, tmp_path):
        # second format: entries keyed by the box pair, not the geometry
        media = MediaConfig.two_layer(1.0, 1.0)
        fp = media.fingerprint().encode()
        path = tmp_path / "tables.bin"
        path.write_bytes(b"HFMMTB2\x00" + struct.pack("<I", len(fp)) + fp
                         + struct.pack("<IIIdQ", 8, 64, 64, 0.0, 0))
        with pytest.raises(ValueError, match="old format"):
            load_tables(path, media, 8)

    def test_failed_save_leaves_file_and_no_temporary(self, tmp_path):
        media = MediaConfig.two_layer(1.0, 1.0)
        store = _planned(2, media, 8).store
        path = tmp_path / "tables.bin"
        save_tables(store, path)
        before = path.read_bytes()
        store.entries[TableKey(0.0, 2, 3, 3, 0)] = np.array(["not a number"])
        with pytest.raises(ValueError):
            save_tables(store, path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["tables.bin"]

    # short: the header counts one entry more than the file holds; long:
    # one less; cut-*: the file ends inside that block; trailing: bytes
    # follow the values
    @pytest.mark.parametrize("corrupt", ["non-finite", "short", "long", "cut-roots", "cut-keys",
                                         "cut-values", "trailing"])
    def test_load_rejects_corrupt_entry(self, tmp_path, corrupt):
        media = MediaConfig.two_layer(1.0, 1.0)
        store = _planned(2, media, 8).store
        key = sorted(store.entries)[0]
        path = tmp_path / "tables.bin"
        if corrupt == "non-finite":
            store.entries[key] = store.entries[key].copy()
            store.entries[key][3] = complex(np.nan, 0.0)
            save_tables(store, path)
            with pytest.raises(ValueError, match=re.escape(str(key))):
                load_tables(path, media, 8)
            return
        save_tables(store, path)
        raw = path.read_bytes()
        n = len(store.entries)
        roots = len(raw) - n * (8 + 32 + 16 * 33)  # the first block, after the count
        blocks = {"cut-roots": roots, "cut-keys": roots + 8 * n, "cut-values": roots + 40 * n}
        if corrupt in ("short", "long"):
            count = n + 1 if corrupt == "short" else n - 1
            raw = raw[:roots - 8] + struct.pack("<Q", count) + raw[roots:]
        elif corrupt == "trailing":
            raw += bytes(16)
        else:
            raw = raw[:blocks[corrupt] + 4 * n]
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_tables(path, media, 8)

    def test_load_rejects_truncated_file(self, tmp_path):
        media = MediaConfig.two_layer(1.0, 1.0)
        path = tmp_path / "tables.bin"
        save_tables(_planned(2, media, 8).store, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(ValueError, match="truncated"):
            load_tables(path, media, 8)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a table")
        with pytest.raises(ValueError):
            load_tables(path, MediaConfig.two_layer(1.0, 1.0), 8)


def _exact_geometry(y0, tree, tgt, src, cut_line):
    """(|dx|, dy, C) of a box pair as exact rationals, from the boxes' indices."""
    def center(i, node):
        return Fraction(2 * int(i[node]) + 1, 2 ** (int(tree.level[node]) + 1))

    def bottom(node):
        return y0 + Fraction(int(tree.iy[node]), 2 ** int(tree.level[node]))

    dx = abs(center(tree.ix, tgt) - center(tree.ix, src))
    dy = 2 * y0 + center(tree.iy, tgt) + center(tree.iy, src)
    cutoff = Fraction(0)
    if cut_line and bottom(src) < Fraction(1, 2 ** int(tree.level[src])):
        cutoff = max(cutoff, Fraction(1, 2 ** int(min(tree.level[tgt], tree.level[src])))
                     - bottom(src) - bottom(tgt))
    return dx, dy, cutoff


class TestOneEntryPerGeometry:
    # "laguerre" ids: dy times the nearest singularity distance (1 and 0.6)
    # is 2.5 or more; "adaptive" ids: 0.3 or less, near the singularities
    @pytest.mark.parametrize("media, dy", [
        pytest.param(MediaConfig.two_layer(1.0, 1.0), 2.5, id="two-layer-laguerre"),
        pytest.param(MediaConfig.two_layer(1.0, 1.0), 0.3, id="two-layer-adaptive"),
        pytest.param(MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8), 4.0,
                     id="three-layer-laguerre"),
        pytest.param(MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8), 0.3,
                     id="three-layer-adaptive"),
    ])
    def test_negative_dx_is_reversed(self, media, dy):
        # A_{-dx}(nu) = A_{dx}(-nu)
        for dx in (0.375, 1.5):
            plus = _entries_A(dx, dy, media, 8)
            minus = _entries_A(-dx, dy, media, 8)
            assert np.abs(minus - plus[::-1]).max() <= 1e-14 * np.abs(plus).max()

    def test_negative_dx_tail_is_reversed(self):
        media = MediaConfig.two_layer(1.0, 1.0)
        plus = _entries_B(0.375, 0.15, 0.2, media, 8)
        minus = _entries_B(-0.375, 0.15, 0.2, media, 8)
        assert np.abs(minus - plus[::-1]).max() <= 1e-14 * np.abs(plus).max()

    def test_mirror_pairs_share_one_entry(self):
        media = MediaConfig.two_layer(1.0, 1.0)
        tree = TestTableStore()._uniform_tree(3)
        box = lambda ix, iy: _node(tree, 3, ix, iy)  # noqa: E731
        pairs = [(box(2, 2), box(5, 4)),   # dx = -3 boxes, iy 2 + 4
                 (box(2, 4), box(5, 2)),   # its vertical mirror
                 (box(5, 2), box(2, 4))]   # its x mirror
        assert set(pairs) <= set(zip(tree.v_tgt.tolist(), tree.v_src.tolist()))
        store = TableStore(media, 6)
        rows = _pair_rows(tree, *(np.array(side) for side in zip(*pairs)))
        y0 = tree.root_xy[1]
        store.fill(y0, rows)
        entries = store.get(y0, rows)
        assert len(store.entries) == 1 and store.misses == 1
        for (tgt, src), got in zip(pairs, entries):
            direct = _entries_A(tree.cx[tgt] - tree.cx[src], tree.cy[tgt] + tree.cy[src], media, 6)
            assert np.abs(got - direct).max() <= 1e-14 * np.abs(direct).max()

    def test_one_computation_per_geometry(self, monkeypatch):
        # near-interface particles: mixed-level pairs, entries near the
        # reflectance pole and B tails
        xs, ys = _random_positions(31, 300, 0.5, 5e-3, 1.0)
        parts = [Particle(Point2(float(x), float(y)), 1.0) for x, y in zip(xs, ys)]
        tree = build_lists(build_tree(xs, ys, TreeConfig(leaf_capacity=20)))
        y0 = Fraction(tree.root_xy[1])
        geometries = {_exact_geometry(y0, tree, tgt, src, False)
                      for tgt, src in zip(tree.v_tgt, tree.v_src)}
        geometries |= {_exact_geometry(y0, tree, tgt, src, True)
                       for tgt, src in zip(*near_source_leaves(tree))}
        assert any(c > 0 for _, _, c in geometries)
        assert len(set(tree.level[tree.leaves])) > 1
        computed = []
        for name in ("compute_A", "compute_B_tail"):
            fn = getattr(layered, name)
            monkeypatch.setattr(layered, name,
                                lambda g, *a, _fn=fn: computed.extend(g) or _fn(g, *a))
        out = fmm_apply(parts, RunConfig(media=MediaConfig.two_layer(1.0, 1.0), order=4,
                                         leaf_capacity=20))
        assert len(computed) == len(geometries) == out.counts["entries_computed"]
