"""Tests for the direct Green's function oracles."""

import tracemalloc

import numpy as np
import pytest

from hfmm import greens
from hfmm.greens import (MediaConfig, domain_green, free_space, reflectance,
                         scattered_batch, scattered_direct, three_layer_sigma)

# Frozen regression constant: scattered_direct(two-layer k=1 alpha=1,
# x=(0.5,1.5), x0=(0,1)) at tol=1e-13, recorded once from the adaptive
# oracle and pinned against silent drift.
SCATTERED_REGRESSION = -0.0008746040461407173 - 0.010916981317584264j


class TestMediaConfig:
    def test_variants(self):
        assert MediaConfig.free(2.0).variant == "free"
        assert MediaConfig.two_layer(1.0, 0.5).alpha == 0.5
        m = MediaConfig.three_layer(1.0, 0.6, 1.3, 0.7)
        assert (m.k2, m.k3, m.d) == (0.6, 1.3, 0.7)

    def test_invalid_wavenumbers(self):
        with pytest.raises(ValueError):
            MediaConfig.free(-1.0)
        with pytest.raises(ValueError):
            MediaConfig.three_layer(1.0, 0.6, 1.3, 0.0)

    @pytest.mark.parametrize("name,make", [
        ("k1", lambda: MediaConfig.free(float("nan"))),
        ("k1", lambda: MediaConfig.two_layer(float("inf"), 1.0)),
        ("alpha", lambda: MediaConfig.two_layer(1.0, float("nan"))),
        ("alpha", lambda: MediaConfig.two_layer(1.0, -0.5)),
        ("k2", lambda: MediaConfig.three_layer(1.0, float("nan"), 0.6, 0.8)),
        ("k3", lambda: MediaConfig.three_layer(1.0, 0.8, float("inf"), 0.8)),
        ("d", lambda: MediaConfig.three_layer(1.0, 0.8, 0.6, float("nan"))),
        ("d", lambda: MediaConfig.three_layer(1.0, 0.8, 0.6, float("inf"))),
    ], ids=["free-k1-nan", "two-layer-k1-inf", "alpha-nan", "alpha-negative",
            "k2-nan", "k3-inf", "d-nan", "d-inf"])
    def test_bad_parameter_refused_by_name(self, name, make):
        # refused up front: a non-finite value would fail deep inside, if at
        # all, and a negative alpha puts the reflectance pole on the
        # propagating contour
        with pytest.raises(ValueError, match=f"^{name} "):
            make()

    def test_guided_mode_guard(self):
        with pytest.raises(ValueError):
            MediaConfig.three_layer(1.0, 1.5, 0.8, 0.5)

    def test_rescaled_round_trip(self):
        m = MediaConfig.three_layer(1.0, 0.6, 1.3, 0.7)
        back = m.rescaled(2.0).rescaled(0.5)
        assert back == m


class TestFreeSpace:
    def test_pinned_value_unit_distance(self):
        v = free_space(1.0, (1.0, 0.0), (0.0, 0.0))
        assert v == pytest.approx(-0.022064241053919 + 0.191299421639492j,
                                  abs=1e-13)

    def test_swap_symmetry(self):
        a, b = (0.2, 1.1), (-0.7, 2.3)
        assert free_space(0.7, a, b) == free_space(0.7, b, a)

    def test_coincident_points(self):
        with pytest.raises(ValueError):
            free_space(1.0, (0.0, 1.0), (0.0, 1.0))

    # the spectral split of the free-space kernel: the alpha = 0 two-layer
    # scattered field (reflectance 1) at dy = |y - y0|

    @pytest.mark.parametrize("k", [0.1, 1.0])
    def test_spectral_split_matches(self, k):
        rng = np.random.default_rng(3)
        for _ in range(10):
            dx, dy = rng.uniform(-2, 2), rng.uniform(0.2, 3.0)
            direct = free_space(k, (dx, 1.0 + dy), (0.0, 1.0))
            split = scattered_batch(MediaConfig.two_layer(k, 0.0), [dx], [dy])[0]
            assert abs(split - direct) <= 1e-10 * abs(direct)

    def test_spectral_reflection_invariance(self):
        media = MediaConfig.two_layer(1.0, 0.0)
        v1 = scattered_batch(media, [0.5], [0.9])[0]
        v2 = scattered_batch(media, [-0.5], [0.9])[0]
        assert v1 == pytest.approx(v2, abs=1e-14)

    def test_spectral_requires_vertical_separation(self):
        for dy in (0.0, -0.5):
            with pytest.raises(ValueError):
                scattered_batch(MediaConfig.two_layer(1.0, 0.0), [1.0], [dy])


class TestReflectance:
    def test_two_layer_alpha_zero_is_one(self):
        media = MediaConfig.two_layer(1.0, 0.0)
        t = np.linspace(0.1, 10.0, 7).astype(complex)
        np.testing.assert_allclose(reflectance(media, t), 1.0, rtol=1e-15)

    def test_two_layer_unit_modulus_on_evanescent_axis(self):
        media = MediaConfig.two_layer(1.0, 0.8)
        t = np.linspace(1e-3, 50.0, 101).astype(complex)
        np.testing.assert_allclose(np.abs(reflectance(media, t)), 1.0, rtol=1e-14)

    def test_two_layer_pole_guard(self):
        media = MediaConfig.two_layer(1.0, 0.5)
        with pytest.raises(ValueError):
            reflectance(media, np.array([0.5j]))

    def test_free_media_reflectance_zero(self):
        v = reflectance(MediaConfig.free(1.0), np.array([1.0 + 0j]))
        np.testing.assert_array_equal(v, 0.0)

    def test_three_layer_equal_wavenumbers(self):
        media = MediaConfig.three_layer(1.0, 1.0, 1.0, 0.7)
        t = np.array([0.5, 2.0])
        s1, s2p, s2m, s3 = three_layer_sigma(media, t, path="evanescent")
        np.testing.assert_allclose(s1, 0.0, atol=1e-13)
        np.testing.assert_allclose(s2p, 1.0, rtol=1e-13)
        np.testing.assert_allclose(s2m, 0.0, atol=1e-13)
        np.testing.assert_allclose(s3, np.exp(-t * 0.7), rtol=1e-12)

    def test_three_layer_thick_limit(self):
        # e^{-kappa2 d} -> 0 eliminates the lower interface:
        # sigma1 -> (kappa1 - kappa2) / (kappa1 + kappa2)
        media = MediaConfig.three_layer(1.0, 0.6, 1.3, 400.0)
        t = np.linspace(0.3, 5.0, 20)
        k2 = np.sqrt(t * t + media.k1 ** 2 - media.k2 ** 2)  # kappa1 = t
        s1, _, _, _ = three_layer_sigma(media, t, path="evanescent")
        np.testing.assert_allclose(s1, (t - k2) / (t + k2), atol=1e-10)

    @pytest.mark.parametrize("medium", [(1.0, 0.8, 0.6, 0.8), (1.0, 0.6, 1.3, 0.7),
                                        (2.0, 1.5, 3.0, 0.2), (1.0, 0.3, 0.9, 5.0)],
                             ids=["slower-layers", "mixed", "faster-bottom", "thick"])
    @pytest.mark.parametrize("path", ["propagating", "evanescent"])
    def test_three_layer_matches_extended_precision_solve(self, medium, path):
        # all four coefficients against a 40-digit solve of the 4x4
        # continuity system from the same kappa1; near a branch point the
        # float kappa_2 carries the rounding of lam^2 - k_j^2, which the
        # measured ~1e-11 there reflects
        mp = pytest.importorskip("mpmath")
        media = MediaConfig.three_layer(*medium)
        k1 = media.k1

        @mp.workdps(40)
        def reference(kappa1):
            g1 = mp.mpc(complex(kappa1))

            def root(kj):
                diff = (g1 * g1).real + mp.mpf(k1) ** 2 - mp.mpf(kj) ** 2
                if diff >= 0:
                    return mp.sqrt(diff)
                return (-1j if path == "propagating" else 1j) * mp.sqrt(-diff)

            g2, g3 = root(media.k2), root(media.k3)
            e = mp.exp(-g2 * mp.mpf(media.d))
            mat = mp.matrix([[1 / g1, -1 / g2, -e / g2, 0], [0, e / g2, 1 / g2, -1 / g3],
                             [1, 1, -e, 0], [0, e, -1, -1]])
            return [complex(v) for v in mp.lu_solve(mat, mp.matrix([-1 / g1, 0, 1, 0]))]

        if path == "propagating":
            upper, ends = np.pi, [0.0, np.pi]
            regular = np.linspace(0.05, np.pi - 0.05, 12)
        else:
            upper, ends = 1e4, [0.0]
            regular = np.geomspace(1e-3, 1e4, 12)
        kinks = greens.spectral_breakpoints(media, path, upper) + ends
        near = np.array([v for b in kinks for d in (1e-10, 1e-6) for v in (b - d, b + d)
                         if 0.0 < v < upper])
        for nodes, bound in ((regular, 1e-14), (near, 1e-10)):
            kappa1 = (-1j * k1 * np.sin(nodes) if path == "propagating"
                      else nodes.astype(complex))
            got = np.array(three_layer_sigma(media, kappa1, path)).T
            want = np.array([reference(kap) for kap in kappa1])
            err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
            assert err.max() <= bound

    def test_three_layer_branch_point_refused(self):
        with pytest.raises(ValueError, match="kappa = 0"):
            three_layer_sigma(MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8),
                              np.array([0.5, 0.0]), path="evanescent")
        with pytest.raises(ValueError, match="kappa = 0"):
            three_layer_sigma(MediaConfig.three_layer(1.0, 1.0, 1.0, 0.7),
                              np.array([-0.3j, 0.0]), path="propagating")

    @pytest.mark.parametrize("k3,kappa1", [(1.0, -0.5), (1.0 + 1e-10, -0.5),
                                           (1.0, float("nan"))],
                             ids=["zero", "tiny", "nan"])
    def test_three_layer_singular_system_refused(self, k3, kappa1):
        # k2 = k1 and kappa1 = -kappa_2 give D = e^2 m12 m23, which vanishes
        # for k3 = k2; D near zero or non-finite must raise rather than
        # return huge coefficients
        media = MediaConfig.three_layer(1.0, 1.0, k3, 0.7)
        with pytest.raises(ValueError, match="ill-conditioned"):
            three_layer_sigma(media, np.array([0.5, kappa1]), path="evanescent")

    def test_three_layer_propagating_near_endpoint(self):
        # near tau = 0 the recomputed kappa_2 would round to zero for
        # equal wavenumbers; the contour-supplied kappa1 must prevent it
        media = MediaConfig.three_layer(1.0, 1.0, 1.0, 0.7)
        kappa1 = -1j * np.sin(np.array([1e-8, 1e-4, 0.3]))
        s1 = reflectance(media, kappa1)
        np.testing.assert_allclose(s1, 0.0, atol=1e-12)


class TestScatteredOracle:
    def test_frozen_regression_constant(self):
        media = MediaConfig.two_layer(1.0, 1.0)
        v = scattered_direct(media, (0.5, 1.5), (0.0, 1.0), 1e-13)
        assert v == pytest.approx(SCATTERED_REGRESSION, abs=1e-13)

    def test_alpha_zero_is_mirror_image(self):
        media = MediaConfig.two_layer(1.3, 0.0)
        x, x0 = (0.4, 0.9), (-0.2, 0.6)
        v = scattered_direct(media, x, x0, 1e-13)
        assert v == pytest.approx(free_space(1.3, x, (x0[0], -x0[1])), abs=1e-12)

    @pytest.mark.parametrize("pair", [((0.5, 1.5), (0.0, 1.0)),
                                      ((-1.0, 0.3), (0.7, 2.0))])
    def test_swap_symmetry(self, pair):
        media = MediaConfig.two_layer(1.0, 1.0)
        x, x0 = pair
        assert scattered_direct(media, x, x0, 1e-12) == pytest.approx(
            scattered_direct(media, x0, x, 1e-12), abs=1e-12)

    def test_tol_range_enforced(self):
        media = MediaConfig.two_layer(1.0, 1.0)
        with pytest.raises(ValueError):
            scattered_direct(media, (0.5, 1.5), (0.0, 1.0), 1e-3)

    def test_source_below_interface_rejected(self):
        media = MediaConfig.two_layer(1.0, 1.0)
        with pytest.raises(ValueError):
            scattered_direct(media, (0.5, 1.5), (0.0, -1.0), 1e-12)

    def test_target_continuation_limited(self):
        # targets slightly below y = 0 are allowed (spectral
        # continuation, used by the boundary check) but y + y0 <= 0 is not
        media = MediaConfig.two_layer(1.0, 1.0)
        scattered_direct(media, (0.5, -0.01), (0.0, 1.0), 1e-12)
        with pytest.raises(ValueError):
            scattered_direct(media, (0.5, -1.5), (0.0, 1.0), 1e-12)

    def test_batch_matches_direct_two_layer(self):
        media = MediaConfig.two_layer(1.0, 1.0)
        pts = [((0.5, 1.5), (0.0, 1.0)), ((-0.3, 0.2), (0.1, 0.4)),
               ((2.0, 0.05), (1.9, 0.07))]
        dx = np.array([x[0] - x0[0] for x, x0 in pts])
        dy = np.array([x[1] + x0[1] for x, x0 in pts])
        batch = scattered_batch(media, dx, dy, 1e-13)
        for j, (x, x0) in enumerate(pts):
            assert batch[j] == pytest.approx(
                scattered_direct(media, x, x0, 1e-13), abs=1e-12)

    def test_batch_matches_direct_three_layer(self):
        media = MediaConfig.three_layer(1.0, 0.6, 1.3, 0.7)
        batch = scattered_batch(media, np.array([0.3]), np.array([1.2]), 1e-13)
        direct = scattered_direct(media, (0.3, 0.7), (0.0, 0.5), 1e-13)
        assert batch[0] == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("media", [MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8),
                                       MediaConfig.two_layer(1.0, 1.0)],
                             ids=lambda m: m.variant)
    def test_batch_node_chunks_match_one_block(self, monkeypatch, media):
        rng = np.random.default_rng(6)
        dx = rng.uniform(-0.5, 0.5, 40)
        dy = rng.uniform(1e-3, 0.5, 40)
        whole = scattered_batch(media, dx, dy)
        # about 7 nodes per block, so every panel level is split
        monkeypatch.setattr(greens, "_BLOCK_BYTES", 16 * dx.size * 7)
        chunked = scattered_batch(media, dx, dy)
        assert np.linalg.norm(chunked - whole) <= 1e-14 * np.linalg.norm(whole)

    def test_batch_block_stays_under_budget(self, monkeypatch):
        # every pair at dy = 1e-3, so that the far evanescent panels take
        # thousands of nodes for all 40 pairs at once: a batch of mixed dy
        # gives each pair its own rule, and its blocks stay small anyway
        media = MediaConfig.two_layer(1.0, 1.0)
        rng = np.random.default_rng(6)
        dx, dy = rng.uniform(-0.5, 0.5, 40), np.full(40, 1e-3)

        def peak_bytes():
            tracemalloc.start()
            try:
                scattered_batch(media, dx, dy)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        whole = peak_bytes()  # one (pairs x nodes) block per panel and level: ~4 MiB
        monkeypatch.setattr(greens, "_BLOCK_BYTES", 16 * dx.size * 7)
        assert peak_bytes() < whole / 4

    def test_far_pairs_take_only_their_own_grids(self, monkeypatch):
        # a pair 1e-3 above the interface needs a long evanescent contour
        # and fine rules; the pairs near dy = 1.5 in its batch must not pay
        # for it: the batch evaluates exactly the kernel values of the near
        # pair alone plus those of the far pairs alone
        media = MediaConfig.two_layer(1.0, 1.0)
        dx = np.array([0.3, -0.4, 0.1, 0.7, -0.2])
        dy = np.array([1e-3, 1.5, 2.0, 1.2, 1.8])

        class Counting:  # numpy, counting the arguments of exp
            values = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x, *args, **kwargs):
                Counting.values += np.size(x)
                return np.exp(x, *args, **kwargs)

        monkeypatch.setattr(greens, "np", Counting())

        def work(part):
            Counting.values = 0
            values = scattered_batch(media, dx[part], dy[part])
            return Counting.values, values

        (mixed, together), (near, alone), (far, apart) = map(work, (slice(None), slice(1),
                                                                   slice(1, None)))
        assert mixed == near + far
        assert np.abs(together - np.r_[alone, apart]).max() <= 1e-15 * np.abs(together).max()

    def test_equal_wavenumber_three_layer_vanishes(self):
        media = MediaConfig.three_layer(1.0, 1.0, 1.0, 0.7)
        rng = np.random.default_rng(5)
        dx = rng.uniform(-2, 2, 8)
        dy = rng.uniform(0.2, 3.0, 8)
        np.testing.assert_allclose(scattered_batch(media, dx, dy, 1e-13), 0.0,
                                   atol=1e-12)


class TestDomainGreen:
    def test_reciprocity(self):
        media = MediaConfig.two_layer(1.0, 1.0)
        x, x0 = (0.5, 1.5), (-0.3, 0.8)
        assert domain_green(media, x, x0, 1e-12) == pytest.approx(
            domain_green(media, x0, x, 1e-12), abs=1e-10)

    def test_boundary_impedance_residual(self):
        # |du/dn - i*alpha*u| / |u| at y = 0, n = (0, -1), centered h=1e-5
        media = MediaConfig.two_layer(1.0, 1.0)
        x0, h = (0.0, 1.0), 1e-5
        for bx in (-0.8, 0.1, 1.2):
            up = domain_green(media, (bx, h), x0, 1e-13)
            u2 = domain_green(media, (bx, 2 * h), x0, 1e-13)
            dn = -(u2 - up) / h          # n = (0, -1)
            u0 = 0.5 * (up + u2)
            # first-order stencil at y = 1.5 h; O(h) truncation dominates
            assert abs(dn - 1j * media.alpha * u0) / abs(u0) <= 1e-4

    def test_boundary_residual_contract_form(self):
        # centered finite differences on the reflected extension via the
        # impedance condition checked at y = 0 through the CLI harness
        from hfmm.cli import check_boundary_residual
        value, ok = check_boundary_residual()
        assert ok and value <= 1e-6

    def test_alpha_zero_neumann_image(self):
        media = MediaConfig.two_layer(0.9, 0.0)
        x, x0 = (0.3, 1.2), (0.0, 0.7)
        v = domain_green(media, x, x0, 1e-13)
        expect = free_space(0.9, x, x0) + free_space(0.9, x, (0.0, -0.7))
        assert v == pytest.approx(expect, abs=1e-12)

    def test_helmholtz_residual(self):
        media = MediaConfig.two_layer(1.0, 1.0)
        x0, h, k = (0.0, 1.0), 1e-3, 1.0
        for pt in [(0.6, 1.4), (-0.9, 0.5)]:
            u = lambda a, b: domain_green(media, (a, b), x0, 1e-12)
            lap = (u(pt[0] + h, pt[1]) + u(pt[0] - h, pt[1])
                   + u(pt[0], pt[1] + h) + u(pt[0], pt[1] - h)
                   - 4.0 * u(*pt)) / h ** 2
            u0 = u(*pt)
            assert abs(lap + k * k * u0) / abs(u0) <= 1e-4

    def test_free_media_reduces_to_kernel(self):
        media = MediaConfig.free(1.0)
        x, x0 = (0.5, 1.5), (0.0, 1.0)
        assert domain_green(media, x, x0) == free_space(1.0, x, x0)
