"""Tests for the free-space expansion operators, composed as the driver composes them."""

import numpy as np
import pytest
from scipy.special import hankel1

from hfmm import driver, expansions, specfun
from hfmm.driver import local_values
from hfmm.expansions import (image_coefficients, p2m_arrays, translation_matrix,
                             translation_vector_h, translation_vector_j)
from hfmm.greens import free_space
from hfmm.specfun import bessel_j_sweep

K = 1.0


def _sources(seed, n, center, radius):
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0, 2 * np.pi, n)
    rad = radius * np.sqrt(rng.uniform(0, 1, n))
    qs = rng.normal(size=n) + 1j * rng.normal(size=n)
    return center[0] + rad * np.cos(ang), center[1] + rad * np.sin(ang), qs


def _direct(sources, x, k=K):
    return sum(q * free_space(k, x, (sx, sy)) for sx, sy, q in zip(*sources))


def _p2m(sources, c, P, k=K):
    return p2m_arrays(*sources, c[0], c[1], P, k)


def eval_multipole(coeffs, c, x, k=K):
    """Reference: (i/4) sum_p alpha_p H_p(k r) e^{i p theta} about center c."""
    P = (len(coeffs) - 1) // 2
    p = np.arange(-P, P + 1)
    dx, dy = x[0] - c[0], x[1] - c[1]
    return complex(0.25j * np.sum(coeffs * hankel1(p, k * np.hypot(dx, dy))
                                  * np.exp(1j * p * np.arctan2(dy, dx))))


def _eval_local(coeffs, c, x, k=K):
    return complex(local_values(coeffs, [x[0]], [x[1]], c[0], c[1], k)[0])


def _m2m(coeffs, old, new, k=K):
    P = (len(coeffs) - 1) // 2
    vec = translation_vector_j(k, new[0] - old[0], new[1] - old[1], P)
    return translation_matrix(vec, P) @ coeffs


def _m2l(coeffs, src, tgt, k=K):
    P = (len(coeffs) - 1) // 2
    vec = translation_vector_h(k, tgt[0] - src[0], tgt[1] - src[1], P)
    return translation_matrix(vec, P) @ coeffs


def _l2l(coeffs, old, new, k=K):
    P = (len(coeffs) - 1) // 2
    vec = translation_vector_j(k, new[0] - old[0], new[1] - old[1], P)
    return translation_matrix(vec, P) @ coeffs


class TestP2M:
    def test_source_at_center(self):
        c = (0.3, 1.1)
        coeffs = p2m_arrays([c[0]], [c[1]], [2.5 + 1j], c[0], c[1], 8, K)
        assert coeffs[8] == 2.5 + 1j  # alpha_0
        others = np.delete(coeffs, 8)
        np.testing.assert_array_equal(others, 0.0)

    def test_linearity_in_strengths(self):
        c = (0.0, 1.0)
        xs, ys, qs = _sources(1, 15, c, 0.4)
        a = _p2m((xs, ys, qs), c, 10)
        b = _p2m((xs, ys, 2.0 * qs), c, 10)
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-14)

    def test_matches_direct_at_5R(self):
        c, R = (0.0, 1.0), 0.5
        src = _sources(2, 20, c, R)
        coeffs = _p2m(src, c, 20)
        for ang in (0.0, 1.1, 2.9):
            x = (c[0] + 5 * R * np.cos(ang), c[1] + 5 * R * np.sin(ang))
            assert eval_multipole(coeffs, c, x) == pytest.approx(_direct(src, x),
                                                                 abs=1e-9)

    def test_arrays_and_particles_agree(self):
        # one array call over all sources equals the sum of one-particle calls
        c = (0.2, 0.9)
        xs, ys, qs = _sources(3, 12, c, 0.3)
        singles = sum(p2m_arrays(xs[i:i + 1], ys[i:i + 1], qs[i:i + 1], c[0], c[1], 9, K)
                      for i in range(len(xs)))
        np.testing.assert_allclose(p2m_arrays(xs, ys, qs, c[0], c[1], 9, K), singles,
                                   rtol=1e-13, atol=1e-14)


class TestLeafChunk:
    """P2M and local evaluation over one chunk of leaves, each particle about its leaf center."""

    P = 16

    def _chunk(self, big):
        # leaf 0: radius 0.04 and one particle exactly at its center;
        # leaf 1: radius 0.04, or 10 (k rho up to 10, past the series bound)
        rng = np.random.default_rng(19)
        centers = [(0.1, 1.2), (-0.3, 0.9)]
        xs, ys, cx, cy = [], [], [], []
        for (c, r, n) in zip(centers, (0.04, 10.0 if big else 0.04), (7, 9)):
            ang, rad = rng.uniform(0, 2 * np.pi, n), r * np.sqrt(rng.uniform(0, 1, n))
            xs += list(c[0] + rad * np.cos(ang))
            ys += list(c[1] + rad * np.sin(ang))
            cx += [c[0]] * n
            cy += [c[1]] * n
        xs[3], ys[3] = centers[0]
        qs = rng.normal(size=len(xs)) + 1j * rng.normal(size=len(xs))
        return np.array(xs), np.array(ys), qs, np.array(cx), np.array(cy), np.array([0, 7])

    @pytest.fixture
    def miller_calls(self, monkeypatch):
        """Miller sweeps made through any module's binding of bessel_j_sweep."""
        calls = []

        def counted(*args):
            calls.append(args)
            return bessel_j_sweep(*args)

        for module in (specfun, expansions, driver):
            monkeypatch.setattr(module, "bessel_j_sweep", counted)
        return calls

    def _miller(self, xs, ys, cx, cy):
        """J_p(k rho) e^{i p theta}, p = -P..P: Miller's sweep times the phase exps."""
        dx, dy = xs - cx, ys - cy
        p = np.arange(-self.P, self.P + 1)[:, None]
        js = bessel_j_sweep(self.P, K * np.hypot(dx, dy))
        js = np.concatenate([js[:0:-1] * (-1.0) ** p[:self.P], js])  # J_{-m} = (-1)^m J_m
        return js * np.exp(1j * p * np.arctan2(dy, dx))

    @pytest.mark.parametrize("big", [False, True], ids=["small-leaves", "large-leaf"])
    def test_p2m_matches_miller_and_exp(self, big, miller_calls):
        xs, ys, qs, cx, cy, starts = self._chunk(big)
        got = p2m_arrays(xs, ys, qs, cx, cy, self.P, K, starts=starts)
        assert len(miller_calls) == big  # the series below the bound, Miller above
        want = np.add.reduceat(np.conj(self._miller(xs, ys, cx, cy)) * qs, starts, axis=1).T
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("big", [False, True], ids=["small-leaves", "large-leaf"])
    def test_local_values_match_miller_and_exp(self, big, miller_calls):
        xs, ys, _, cx, cy, _ = self._chunk(big)
        rng = np.random.default_rng(20)
        coeffs = rng.normal(size=(len(xs), 2 * self.P + 1)) * (1 + 1j)
        got = local_values(coeffs, xs, ys, cx, cy, K)
        assert len(miller_calls) == big
        want = 0.25j * np.sum(self._miller(xs, ys, cx, cy) * coeffs.T, axis=0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


class TestEval:
    def test_impulse_reproduces_kernel(self):
        c = (0.0, 1.0)
        coeffs = np.zeros(2 * 6 + 1, complex)
        coeffs[6] = 1.0
        x = (1.7, 2.4)
        assert eval_multipole(coeffs, c, x) == pytest.approx(free_space(K, x, c),
                                                             abs=1e-14)

    def test_local_impulse_scaling(self):
        c = (0.0, 1.0)
        coeffs = np.zeros(2 * 4 + 1, complex)
        coeffs[4] = 1.0
        assert _eval_local(coeffs, c, c) == pytest.approx(0.25j, abs=1e-15)

    def test_geometric_decay_in_order(self):
        c, R = (0.0, 1.0), 0.5
        src = _sources(4, 25, c, R)
        x = (3 * R, 1.0 + 3 * R * 0.1)
        ref = _direct(src, x)
        errs = []
        for P in (5, 10, 20, 30):
            errs.append(abs(eval_multipole(_p2m(src, c, P), c, x) - ref))
        logs = np.log10(np.maximum(errs, 1e-17))
        slopes = np.diff(logs) / np.diff([5, 10, 20, 30])
        assert slopes[0] < -0.217  # fit slope < -0.5 per 2.3 orders of P
        assert errs[-1] < 1e-12

    def test_rotation_covariance(self):
        c = (0.0, 0.0)
        xs, ys, qs = _sources(5, 10, c, 0.4)
        x = (2.0, 0.7)
        v0 = eval_multipole(_p2m((xs, ys, qs), c, 15), c, x)
        phi = 0.83
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        rxs, rys = rot @ np.vstack([xs, ys])
        v1 = eval_multipole(_p2m((rxs, rys, qs), c, 15), c, tuple(rot @ x))
        assert v1 == pytest.approx(v0, abs=1e-12)


class TestTranslations:
    def test_m2m_identity_at_same_center(self):
        c = (0.1, 1.0)
        coeffs = _p2m(_sources(6, 8, c, 0.3), c, 12)
        np.testing.assert_allclose(_m2m(coeffs, c, c), coeffs, atol=1e-15)

    def test_m2m_cross_evaluation(self):
        child_c = (0.25, 1.25)
        parent_c = (0.5, 1.5)
        child = _p2m(_sources(7, 15, child_c, 0.2), child_c, 25)
        parent = _m2m(child, child_c, parent_c)
        rng = np.random.default_rng(8)
        for _ in range(10):
            ang = rng.uniform(0, 2 * np.pi)
            x = (parent_c[0] + 5.0 * np.cos(ang), parent_c[1] + 5.0 * np.sin(ang))
            assert eval_multipole(parent, parent_c, x) == pytest.approx(
                eval_multipole(child, child_c, x), abs=1e-10)

    def test_m2m_composition(self):
        c0 = (0.0, 1.0)
        c2 = (0.3, 1.4)
        c1 = (0.15, 1.2)
        coeffs = _p2m(_sources(9, 10, c0, 0.15), c0, 30)
        once = _m2m(coeffs, c0, c2)
        twice = _m2m(_m2m(coeffs, c0, c1), c1, c2)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_m2l_single_source_consistency(self):
        src_c = (0.0, 1.0)
        tgt_c = (2.0, 1.0)
        coeffs = np.zeros(2 * 20 + 1, complex)
        coeffs[20] = 1.0
        local = _m2l(coeffs, src_c, tgt_c)
        for x in [(2.1, 1.1), (1.9, 0.95), (2.0, 1.2)]:
            assert _eval_local(local, tgt_c, x) == pytest.approx(free_space(K, x, src_c),
                                                                 abs=1e-10)

    def test_full_chain_vs_direct(self):
        src_c, tgt_c, R = (0.0, 1.0), (3.0, 1.0), 0.5
        src = _sources(10, 30, src_c, R)
        local = _m2l(_p2m(src, src_c, 25), src_c, tgt_c)
        rng = np.random.default_rng(11)
        xs = tgt_c[0] + rng.uniform(-0.3, 0.3, 8)
        ys = tgt_c[1] + rng.uniform(-0.3, 0.3, 8)
        expect = [_direct(src, x) for x in zip(xs, ys)]
        np.testing.assert_allclose(local_values(local, xs, ys, *tgt_c, K), expect,
                                   rtol=0, atol=1e-9)

    def test_m2l_rejects_coincident_centers(self):
        with pytest.raises(ValueError):
            translation_vector_h(K, 0.0, 0.0, 3)

    def test_l2l_zero_shift_identity(self):
        c = (0.4, 1.3)
        local = np.random.default_rng(12).normal(size=21) + 0j
        np.testing.assert_allclose(_l2l(local, c, c), local, atol=1e-15)

    def test_l2l_cross_evaluation(self):
        src_c, parent_c = (0.0, 1.0), (3.0, 1.0)
        child_c = (3.1, 1.1)
        parent = _m2l(_p2m(_sources(13, 12, src_c, 0.4), src_c, 25), src_c, parent_c)
        child = _l2l(parent, parent_c, child_c)
        for x in [(3.12, 1.08), (3.05, 1.15)]:
            assert _eval_local(child, child_c, x) == pytest.approx(
                _eval_local(parent, parent_c, x), abs=1e-11)

    def test_operator_linearity(self):
        src_c, tgt_c = (0.0, 1.0), (2.5, 1.0)
        rng = np.random.default_rng(14)
        a = rng.normal(size=21) + 1j * rng.normal(size=21)
        b = rng.normal(size=21) + 1j * rng.normal(size=21)
        for op in (lambda v: _m2m(v, src_c, tgt_c), lambda v: _m2l(v, src_c, tgt_c),
                   lambda v: _l2l(v, src_c, (0.1, 1.1))):
            np.testing.assert_allclose(op(a + 2j * b), op(a) + 2j * op(b),
                                       atol=1e-12)


class TestToeplitz:
    def test_assembled_operator_is_toeplitz(self):
        P = 6
        mat = translation_matrix(translation_vector_h(K, 2.0, 0.5, P), P)
        for d in range(-2 * P, 2 * P + 1):
            diag = np.diagonal(mat, offset=d)
            assert np.max(np.abs(diag - diag[0])) <= 1e-14 * max(1.0, abs(diag[0]))

    def test_vector_symmetry(self):
        P = 5
        vec = translation_vector_j(K, 0.7, -0.4, P)
        nu = np.arange(-2 * P, 2 * P + 1)
        # F_{-nu} = J_{-nu} e^{-i nu theta} = (-1)^nu conj(F_nu)
        signs = np.where(nu % 2 == 0, 1.0, -1.0)
        np.testing.assert_allclose(vec[::-1], signs * np.conj(vec), atol=1e-13)

    @pytest.mark.parametrize("k_rho", [0.3, 2.0, 2.5, 9.0])
    def test_m2m_equals_the_conjugate_matrix(self, k_rho):
        # M2M under T[p, m] = F(c_parent - c_child)[m - p] against the
        # matrix T[p, m] = conj(F(c_child - c_parent))[p - m], built here:
        # the same numbers on the series path (k rho <= 2), to rounding on
        # Miller's
        P = 8
        dx, dy = 0.6 * k_rho, -0.8 * k_rho
        p = np.arange(-P, P + 1)
        conj = np.conj(translation_vector_j(K, dx, dy, P))[p[:, None] - p[None, :] + 2 * P]
        got = translation_matrix(translation_vector_j(K, -dx, -dy, P), P)
        if k_rho <= 2.0:
            np.testing.assert_array_equal(got, conj)
        else:
            assert np.abs(got - conj).max() <= 1e-15


class TestImageCoefficients:
    def test_matches_mirrored_sources(self):
        c = (0.2, 1.0)
        xs, ys, qs = _sources(15, 10, c, 0.3)
        alpha = _p2m((xs, ys, qs), c, 12)
        beta = _p2m((xs, -ys, qs), (c[0], -c[1]), 12)
        np.testing.assert_allclose(image_coefficients(alpha), beta, atol=1e-13)

    def test_conjugate_for_real_strengths(self):
        c = (0.0, 1.0)
        rng = np.random.default_rng(16)
        xs = c[0] + rng.uniform(-0.2, 0.2, 9)
        ys = c[1] + rng.uniform(-0.2, 0.2, 9)
        alpha = _p2m((xs, ys, rng.normal(size=9)), c, 10)
        np.testing.assert_allclose(image_coefficients(alpha), np.conj(alpha),
                                   atol=1e-13)

    def test_involution(self):
        rng = np.random.default_rng(17)
        alpha = rng.normal(size=15) + 1j * rng.normal(size=15)
        np.testing.assert_array_equal(
            image_coefficients(image_coefficients(alpha)), alpha)

    def test_stack_equals_rows(self):
        rng = np.random.default_rng(18)
        stack = rng.normal(size=(6, 15)) + 1j * rng.normal(size=(6, 15))
        np.testing.assert_array_equal(image_coefficients(stack),
                                      [image_coefficients(row) for row in stack])
