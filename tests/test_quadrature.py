"""Tests for the fixed quadrature rules."""

import math

import numpy as np
import pytest
from scipy.special import gamma, gammainc, roots_legendre

from hfmm.quadrature import (budget_slices, gauss_laguerre_generalized, gauss_legendre,
                             legendre_base, panel_rule)


def _integrate(rule, f):
    nodes, weights = rule
    return np.sum(weights * f(nodes))


class TestGaussLegendre:
    def test_one_point_is_midpoint_rule(self):
        nodes, weights = gauss_legendre(1, -1.0, 1.0)
        np.testing.assert_allclose(nodes, [0.0], atol=1e-15)
        np.testing.assert_allclose(weights, [2.0], rtol=1e-15)

    def test_two_point_nodes(self):
        nodes, weights = gauss_legendre(2, -1.0, 1.0)
        r = 0.577350269189626
        np.testing.assert_allclose(nodes, [-r, r], atol=1e-14)
        np.testing.assert_allclose(weights, [1.0, 1.0], rtol=1e-14)

    def test_two_point_integrates_x_squared(self):
        rule = gauss_legendre(2, -1.0, 1.0)
        assert _integrate(rule, lambda x: x ** 2) == pytest.approx(2.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("count", [1, 3, 8, 64])
    def test_weights_positive_and_sum_to_length(self, count):
        a, b = 0.3, 2.7
        nodes, weights = gauss_legendre(count, a, b)
        assert np.all(weights > 0)
        assert weights.sum() == pytest.approx(b - a, rel=1e-14)
        assert np.all(np.diff(nodes) > 0)
        assert np.all((a < nodes) & (nodes < b))

    @pytest.mark.parametrize("count,deg", [(3, 5), (6, 11), (10, 19)])
    def test_polynomial_exactness(self, count, deg):
        rule = gauss_legendre(count, 0.0, 1.0)
        exact = 1.0 / (deg + 1)
        assert _integrate(rule, lambda x: x ** deg) == pytest.approx(exact, rel=1e-13)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            gauss_legendre(4, 1.0, 1.0)

    def test_zero_count(self):
        with pytest.raises(ValueError):
            gauss_legendre(0, 0.0, 1.0)

    def test_shared_base_is_read_only(self):
        x, w = legendre_base(8)
        assert legendre_base(8)[0] is x  # built once, shared
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0
        # a mapped rule owns its arrays: mutating it leaves the next rule intact
        for mapped in gauss_legendre(8, -1.0, 1.0):
            mapped[:] = 0.0
        again = gauss_legendre(8, -1.0, 1.0)
        np.testing.assert_array_equal(again[0], x)
        np.testing.assert_array_equal(again[1], w)


class TestLegendreBase:
    # every count up to 40, then a spread up to the package's cap of 1024
    COUNTS = [*range(1, 41), 48, 64, 96, 127, 128, 192, 255, 256, 384, 512, 745, 768,
              1000, 1023, 1024]

    @pytest.mark.parametrize("count", COUNTS)
    def test_nodes_match_scipy(self, count):
        x, w = legendre_base(count)
        assert np.abs(x - roots_legendre(count)[0]).max() <= 4e-16
        np.testing.assert_array_equal(x, -x[::-1])
        np.testing.assert_array_equal(w, w[::-1])

    @pytest.mark.parametrize("count", COUNTS)
    def test_even_moments_are_exact(self, count):
        # sum w x^{2j} = 2/(2j+1) for j < count; scipy's weights are not the
        # reference, being off by up to 2e-9 at the ends of its 1024-point rule
        x, w = legendre_base(count)
        j = np.arange(count)
        terms = w * x ** (2 * j[:, None])
        got = np.array([math.fsum(row) for row in terms])
        assert np.abs(got - 2.0 / (2 * j + 1)).max() <= 2e-15

    def test_middle_node_is_zero(self):
        assert [a.tolist() for a in legendre_base(1)] == [[0.0], [2.0]]
        assert legendre_base(7)[0][3] == 0.0


class TestCosinePanels:
    EDGES = np.array([0.0, 0.3, 1.7, 2.0])

    @pytest.mark.parametrize("split", [1, 4])
    def test_weights_sum_to_segment_lengths(self, split):
        nodes, weights = panel_rule(self.EDGES, 8, self.EDGES, split)
        per_segment = weights.reshape(len(self.EDGES) - 1, -1)
        np.testing.assert_allclose(per_segment.sum(axis=1), np.diff(self.EDGES), rtol=1e-14)
        assert np.all(weights > 0)
        assert np.all(np.diff(nodes) > 0)

    @pytest.mark.parametrize("split", [2, 4, 8])
    def test_split_is_composite_rule_on_u_panels(self, split):
        # each u-panel [j/split, (j+1)/split] carries its own Gauss-Legendre
        # rule, then x = a + h (1 - cos(pi u)) / 2 with dx = h pi sin(pi u) / 2 du
        count = 6
        nodes, weights = panel_rule(self.EDGES, count, self.EDGES, split)
        for seg, (a, b) in enumerate(zip(self.EDGES[:-1], self.EDGES[1:])):
            h = b - a
            for j in range(split):
                u, wu = gauss_legendre(count, j / split, (j + 1) / split)
                block = slice((seg * split + j) * count, (seg * split + j + 1) * count)
                np.testing.assert_allclose(nodes[block], a + 0.5 * h * (1.0 - np.cos(np.pi * u)),
                                           rtol=1e-15, atol=1e-15)
                np.testing.assert_allclose(weights[block],
                                           wu * 0.5 * h * np.pi * np.sin(np.pi * u), rtol=1e-14)

    def test_endpoint_square_root_kink_converges(self):
        # int_0^2 sqrt(x) e^{-x} dx = Gamma(3/2) P(3/2, 2): the map turns the
        # kink at x = 0 into an analytic integrand in u; the plain rule stalls
        exact = gamma(1.5) * gammainc(1.5, 2.0)
        f = lambda x: np.sqrt(x) * np.exp(-x)
        errors = [abs(_integrate(panel_rule([0.0, 2.0], 8, [0.0], split), f) - exact)
                  for split in (1, 2, 4)]
        assert errors[0] > 1e4 * errors[1] and errors[1] > 1e4 * errors[2]
        assert errors[-1] <= 1e-14
        assert abs(_integrate(gauss_legendre(64, 0.0, 2.0), f) - exact) > 1e-7


class TestPanelRule:
    EDGES = np.array([0.0, 0.3, 1.7, 2.0])

    @pytest.mark.parametrize("split", [1, 3])
    def test_unkinked_segments_are_affine_gauss_legendre(self, split):
        nodes, weights = panel_rule(self.EDGES, 6, (), split)
        for seg, (a, b) in enumerate(zip(self.EDGES[:-1], self.EDGES[1:])):
            for j in range(split):
                x, w = gauss_legendre(6, a + (b - a) * j / split, a + (b - a) * (j + 1) / split)
                block = slice((seg * split + j) * 6, (seg * split + j + 1) * 6)
                np.testing.assert_allclose(nodes[block], x, rtol=1e-15, atol=1e-16)
                np.testing.assert_allclose(weights[block], w, rtol=1e-14)

    def test_only_segments_a_kink_ends_are_cosine_mapped(self):
        # [0, 0.3] and [0.3, 1.7] end at the kink 0.3, [1.7, 2] does not
        kinked = panel_rule(self.EDGES, 8, [0.3])
        cosine = panel_rule(self.EDGES, 8, self.EDGES)
        affine = panel_rule(self.EDGES, 8)
        for got, want_cosine, want_affine in zip(kinked, cosine, affine):
            np.testing.assert_array_equal(got[:16], want_cosine[:16])
            np.testing.assert_array_equal(got[16:], want_affine[16:])
            assert not np.allclose(want_cosine[:16], want_affine[:16])

    def test_affine_rule_converges_faster_on_a_smooth_integrand(self):
        # 1 / (t^2 + 1) on [0, 2], the shape of the evanescent factor 1 / root:
        # the cosine map only shrinks the ellipse about the segment in which
        # the integrand is analytic
        exact = math.atan(2.0)
        f = lambda t: 1.0 / (t * t + 1.0)
        for count in (8, 16):
            plain = abs(_integrate(panel_rule([0.0, 2.0], count), f) - exact)
            mapped = abs(_integrate(panel_rule([0.0, 2.0], count, [0.0]), f) - exact)
            assert plain < 1e-3 * mapped


class TestGaussLaguerre:
    def test_one_point_plain(self):
        nodes, weights = gauss_laguerre_generalized(1, 0.0)
        np.testing.assert_allclose(nodes, [1.0], rtol=1e-14)
        np.testing.assert_allclose(weights, [1.0], rtol=1e-14)

    def test_one_point_a_param_one(self):
        nodes, weights = gauss_laguerre_generalized(1, 1.0)
        np.testing.assert_allclose(nodes, [2.0], rtol=1e-14)
        np.testing.assert_allclose(weights, [1.0], rtol=1e-14)

    def test_two_point_integrates_t_cubed(self):
        rule = gauss_laguerre_generalized(2, 0.0)
        assert _integrate(rule, lambda t: t ** 3) == pytest.approx(6.0, rel=1e-12)

    @pytest.mark.parametrize("count", [1, 4, 16, 64])
    @pytest.mark.parametrize("a_param", [0.0, 1.0, 2.5])
    def test_moment_exactness(self, count, a_param):
        nodes, weights = gauss_laguerre_generalized(count, a_param)
        assert np.all(nodes > 0)
        assert np.all(weights > 0)
        for j in range(min(2 * count, 8)):
            exact = gamma(a_param + j + 1)
            got = _integrate((nodes, weights), lambda t, j=j: t ** j)
            assert got == pytest.approx(exact, rel=1e-12)

    def test_zero_count(self):
        with pytest.raises(ValueError):
            gauss_laguerre_generalized(0, 0.0)

    def test_negative_a_param(self):
        with pytest.raises(ValueError):
            gauss_laguerre_generalized(4, -0.5)

    def test_shared_rule_is_read_only(self):
        x, w = gauss_laguerre_generalized(8)
        assert gauss_laguerre_generalized(8)[0] is x  # built once, shared
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_non_finite_rule_refused(self):
        # scipy's 512-point rule has NaN nodes and weights
        with pytest.raises(ValueError, match="non-finite"):
            gauss_laguerre_generalized(512, 0.0)


class TestConvergence:
    def test_doubling_converged_legendre(self):
        f = lambda x: np.exp(np.cos(3.0 * x))
        v64 = _integrate(gauss_legendre(64, 0.0, np.pi), f)
        v128 = _integrate(gauss_legendre(128, 0.0, np.pi), f)
        assert abs(v128 - v64) <= 1e-12 * abs(v64)

    def test_doubling_converged_laguerre(self):
        f = lambda t: 1.0 / np.sqrt(t * t + 4.0)
        v64 = _integrate(gauss_laguerre_generalized(64, 0.0), f)
        v128 = _integrate(gauss_laguerre_generalized(128, 0.0), f)
        assert abs(v128 - v64) <= 1e-12 * abs(v64)



class TestBudgetSlices:
    @pytest.mark.parametrize("count, width, budget", [
        (10, 3, 16 * 3 * 4), (10, 3, 16 * 3 * 4 + 47), (7, 5, 1 << 20), (5, 100, 16), (0, 4, 64)])
    def test_slices_tile_the_rows_under_the_budget(self, count, width, budget):
        slices = budget_slices(count, width, budget)
        rows = [list(range(count))[c] for c in slices]
        assert [i for r in rows for i in r] == list(range(count))
        # each block fits the budget, or is one row wider than it
        assert all(16 * width * len(r) <= budget or len(r) == 1 for r in rows)
        assert all(len(r) == len(rows[0]) for r in rows[:-1])
        assert len(rows) <= 1 or 16 * width * (len(rows[0]) + 1) > budget
