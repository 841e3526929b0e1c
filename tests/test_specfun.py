"""Tests for the Bessel/Hankel primitives."""

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hfmm import greens, specfun
from hfmm.expansions import _signed_orders
from hfmm.specfun import (SUPPORTED_MAX_ARG, bessel_j_sweep, hankel0, hankel0_sq,
                          hankel1_sweep, regular_harmonics)


class TestScalarValues:
    @pytest.mark.parametrize("n,x", [(0, 1.0), (1, 1.0), (5, 2.5), (20, 0.3),
                                     (40, 12.0), (80, 80.0), (3, 1e-3)])
    def test_bessel_j_matches_scipy(self, n, x):
        assert bessel_j_sweep(n, x)[n] == pytest.approx(sp.jv(n, x), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("n,x", [(0, 1.0), (1, 0.5), (7, 3.0), (25, 10.0),
                                     (60, 45.0)])
    def test_bessel_y_matches_scipy(self, n, x):
        assert hankel1_sweep(n, x)[n].imag == pytest.approx(sp.yv(n, x), rel=1e-12)

    def test_hankel_combines_j_and_y(self):
        h = hankel1_sweep(3, 2.0)[3]
        assert h.real == pytest.approx(sp.jv(3, 2.0), rel=1e-12)
        assert h.imag == pytest.approx(sp.yv(3, 2.0), rel=1e-12)

    @pytest.mark.parametrize("n", [-1, -4, -13])
    def test_negative_order_reflection(self, n):
        # the expansions extend each sweep to order n < 0 by C_n = (-1)^n C_{-n}
        x, m = 1.7, -n
        assert _signed_orders(bessel_j_sweep(m, x), m)[0] == pytest.approx(sp.jv(n, x),
                                                                            rel=1e-12)
        assert _signed_orders(hankel1_sweep(m, x).imag, m)[0] == pytest.approx(sp.yv(n, x),
                                                                                rel=1e-12)

    def test_j_at_zero_argument(self):
        vals = bessel_j_sweep(4, 0.0)
        assert vals[0] == 1.0 and vals[4] == 0.0

    def test_hankel0_fast_path(self):
        x = np.array([0.3, 1.0, 7.5])
        expect = sp.jv(0, x) + 1j * sp.yv(0, x)
        np.testing.assert_allclose(hankel0(x), expect, rtol=1e-13)

    @pytest.mark.parametrize("x", [np.array([0.3, 1.0, 7.5, 2.404825557695773]),
                                   np.geomspace(1e-8, 900.0, 60).reshape(6, 10),
                                   np.array(3.25)], ids=["1-d", "2-d", "0-d"])
    def test_hankel0_parts_are_scipy_j0_and_y0(self, x):
        # written in place into one complex array: bit for bit the scipy values
        h = hankel0(x)
        assert h.shape == x.shape and h.dtype == complex
        np.testing.assert_array_equal(h.real, sp.j0(x))
        np.testing.assert_array_equal(h.imag, sp.y0(x))

    def test_free_space_kernel_is_a_python_complex(self):
        value = greens.free_space(2.0, (0.1, 0.5), (0.4, 0.9))
        assert type(value) is complex
        assert value == pytest.approx(0.25j * complex(sp.j0(1.0), sp.y0(1.0)), rel=1e-15)


class TestSweeps:
    @pytest.mark.parametrize("nmax,x", [(10, 0.7), (30, 3.0), (80, 25.0), (80, 400.0)])
    def test_j_sweep_matches_scipy(self, nmax, x):
        orders = np.arange(nmax + 1)
        np.testing.assert_allclose(bessel_j_sweep(nmax, x), sp.jv(orders, x),
                                   rtol=1e-10, atol=1e-280)

    @pytest.mark.parametrize("nmax,x", [(10, 0.7), (30, 3.0), (80, 25.0)])
    def test_y_sweep_matches_scipy(self, nmax, x):
        orders = np.arange(nmax + 1)
        np.testing.assert_allclose(hankel1_sweep(nmax, x).imag, sp.yv(orders, x),
                                   rtol=1e-11)

    def test_hankel_sweep_matches_scipy_on_a_log_grid(self):
        # the upward recurrence keeps H_n's relative accuracy: |H_n| >= |Y_n|
        # grows with n, though the real part drifts off J_n past n = x
        x = np.geomspace(1e-3, 1e3, 2001)
        want = sp.hankel1(np.arange(65)[:, None], x)
        got = hankel1_sweep(64, x)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 2e-13

    def test_sweep_tiny_argument_no_overflow(self):
        vals = bessel_j_sweep(80, 1e-3)
        assert np.all(np.isfinite(vals))
        assert vals[0] == pytest.approx(sp.jv(0, 1e-3), rel=1e-13)
        # high orders underflow to zero rather than produce garbage
        assert abs(vals[80]) < 1e-250

    def test_batched_matches_scalar(self):
        xs = np.array([0.1, 1.0, 9.0, 33.0])
        sweep = bessel_j_sweep(12, xs)
        for j, x in enumerate(xs):
            for n in range(13):
                assert sweep[n, j] == pytest.approx(bessel_j_sweep(n, float(x))[n],
                                                    rel=1e-14, abs=1e-300)

    def test_sweep_shape_scalar_and_array(self):
        assert bessel_j_sweep(5, 1.0).shape == (6,)
        assert bessel_j_sweep(5, np.ones((3, 2))).shape == (6, 3, 2)
        assert hankel1_sweep(4, np.ones(7)).shape == (5, 7)

    def test_zero_entries_mixed_with_positive(self):
        xs = np.array([0.0, 2.0])
        vals = bessel_j_sweep(3, xs)
        assert vals[0, 0] == 1.0 and vals[1, 0] == 0.0
        assert vals[1, 1] == pytest.approx(sp.jv(1, 2.0), rel=1e-13)


class TestRegularHarmonics:
    ANGLES = np.array([0.0, 0.4, -1.3, 2.2, np.pi, -2.9])

    @staticmethod
    def _mpmath(nmax, kr, theta):
        return np.array([[complex(mpmath.besselj(n, kr) * mpmath.expj(n * t)) for t in theta]
                         for n in range(nmax + 1)])

    @pytest.fixture
    def miller_calls(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return bessel_j_sweep(*args)

        monkeypatch.setattr(specfun, "bessel_j_sweep", counted)
        return calls

    @pytest.mark.parametrize("kr", [1e-12, 1e-3, 0.044, 0.5, 1.99])
    def test_series_matches_mpmath_per_order(self, kr, miller_calls):
        # one block at one k rho, orders up to 2P + 2 at P = 16; k = 2 checks
        # that k scales the offsets
        nmax, k = 34, 2.0
        dx, dy = 0.5 * kr * np.cos(self.ANGLES), 0.5 * kr * np.sin(self.ANGLES)
        got = regular_harmonics(nmax, k, dx, dy)
        want = self._mpmath(nmax, kr, self.ANGLES)
        assert got.shape == want.shape and not miller_calls
        tiny = np.abs(want) < 1e-290  # below double range: the series underflows too
        assert np.all(np.abs(got[tiny]) < 1e-290)
        rel = np.abs(got[~tiny] - want[~tiny]) / np.abs(want[~tiny])
        assert rel.max() <= 1e-14

    def test_zero_offset_is_exactly_one_then_zeros(self, miller_calls):
        got = regular_harmonics(12, 3.0, np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(got, np.r_[1.0, np.zeros(12)][:, None] * np.ones(3))
        assert regular_harmonics(0, 1.0, 0.0, 0.0) == 1.0 and not miller_calls

    @pytest.mark.parametrize("kr_max", [5.0, 30.0])
    def test_block_above_the_bound_takes_miller(self, kr_max, miller_calls):
        # the whole block, small arguments and the origin included, takes
        # Miller's recurrence; near a zero of J_n at 30 it is off by 1.4e-13
        kr = np.array([0.0, 1e-3, 0.3, 1.5, kr_max, 0.7 * kr_max])
        theta = np.resize(self.ANGLES, len(kr))
        got = regular_harmonics(20, 1.0, kr * np.cos(theta), kr * np.sin(theta))
        assert len(miller_calls) == 1
        want = np.stack([self._mpmath(20, r, [t])[:, 0] for r, t in zip(kr, theta)], axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)

    def test_shapes_follow_the_offsets(self):
        assert regular_harmonics(5, 1.0, 0.2, 0.1).shape == (6,)
        assert regular_harmonics(5, 1.0, np.ones((3, 2)), 0.1).shape == (6, 3, 2)
        assert regular_harmonics(5, 1.0, np.ones((3, 2)) * 9.0, 0.1).shape == (6, 3, 2)


class TestSmallArgumentSeries:
    # log-spaced over the series' whole range, the bound included
    X = np.geomspace(1e-12, 2.0, 100_001)
    Y0_ZERO = 0.8935769662791675

    @staticmethod
    def _close(got, want):
        # relative 2e-15, or absolute 1e-14 where the value is below 0.1
        err = np.abs(got - want)
        ok = (err <= 2e-15 * np.abs(want)) | ((np.abs(want) < 0.1) & (err <= 1e-14))
        assert ok.all(), (err / np.abs(want))[~ok].max()

    def test_order01_series_matches_scipy(self):
        j0, j1, y0, y1 = specfun._series01(self.X)
        for got, ref in ((j0, sp.j0), (j1, sp.j1), (y0, sp.y0), (y1, sp.y1)):
            self._close(got, ref(self.X))

    def test_hankel0_sq_matches_scipy(self):
        h = hankel0_sq(self.X * self.X)
        assert h.shape == self.X.shape and h.dtype == complex
        self._close(h.real, sp.j0(self.X))
        self._close(h.imag, sp.y0(self.X))

    def test_y0_near_its_zero_against_mpmath(self):
        x = self.Y0_ZERO + np.linspace(-0.02, 0.02, 201)
        want = np.array([float(mpmath.bessely(0, float(t))) for t in x])
        assert np.abs(specfun._series01(x)[2] - want).max() <= 5e-16
        assert np.abs(hankel0_sq(x * x).imag - want).max() <= 5e-16

    def test_hankel0_sq_shapes_and_bound(self):
        assert hankel0_sq(np.full((3, 4), 0.25)).shape == (3, 4)
        assert hankel0_sq(0.25) == pytest.approx(complex(sp.j0(0.5), sp.y0(0.5)), rel=1e-15)
        assert hankel0_sq(np.zeros((0, 2))).shape == (0, 2)
        with pytest.raises(ValueError, match="x2 <= 4"):
            hankel0_sq(np.array([1.0, 4.0001]))

    def test_sweeps_straddling_the_bound(self):
        # order 0/1 from the series up to 2 and from scipy above it, in one array
        x = np.array([1e-9, 0.3, 1.2, 1.999, 2.0, 2.001, 2.9, 17.0, 400.0])
        orders = np.arange(21)
        np.testing.assert_allclose(bessel_j_sweep(20, x), sp.jv(orders[:, None], x),
                                   rtol=1e-12, atol=1e-300)
        y = hankel1_sweep(20, x).imag
        np.testing.assert_allclose(y, sp.yv(orders[:, None], x), rtol=1e-12)
        above = x > 2.0
        np.testing.assert_array_equal(y[0, above], sp.y0(x[above]))
        np.testing.assert_array_equal(y[1, above], sp.y1(x[above]))
        np.testing.assert_array_equal(y[:2, ~above], specfun._series01(x[~above])[2:])


class TestWronskian:
    @pytest.mark.parametrize("x", [1e-3, 0.1, 1.0, 31.0, 1e3])
    def test_wronskian_identity(self, x):
        # J_{n+1}(x) Y_n(x) - J_n(x) Y_{n+1}(x) = 2 / (pi x); at small x
        # only the orders where Y_n is representable in double precision
        # participate (Y_n(1e-3) overflows past n ~ 66).
        nmax = 81
        j = bessel_j_sweep(nmax, x)
        with np.errstate(over="ignore", invalid="ignore"):
            y = hankel1_sweep(nmax, x).imag
            w = j[1:] * y[:-1] - j[:-1] * y[1:]
        ok = np.isfinite(y[:-1]) & np.isfinite(y[1:]) & (np.abs(y[1:]) < 1e280)
        assert np.count_nonzero(ok) >= 40
        np.testing.assert_allclose(w[ok], 2.0 / (np.pi * x), rtol=1e-12)


class TestErrors:
    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j_sweep(0, -1.0)

    def test_y_rejects_zero(self):
        with pytest.raises(ValueError):
            hankel1_sweep(0, 0.0)

    def test_argument_ceiling(self):
        with pytest.raises(ValueError):
            bessel_j_sweep(0, SUPPORTED_MAX_ARG * 1.01)

    def test_negative_nmax_rejected(self):
        with pytest.raises(ValueError):
            bessel_j_sweep(-1, 1.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=60),
       x=st.floats(min_value=1e-3, max_value=1e3))
def test_j_property_against_scipy(n, x):
    # mpmath is the reference: near a zero of J_n at large x scipy's jv
    # itself is off by more than 1e-10 relative (4.8e-10 at n = 35,
    # x = 322.46875; 1.3e-9 at n = 54, x = 852.015625), the sweep by 7e-12
    expect = float(mpmath.besselj(n, x))
    assert bessel_j_sweep(n, x)[n] == pytest.approx(expect, rel=1e-10, abs=1e-280)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=0, max_value=40),
       x=st.floats(min_value=1e-2, max_value=1e3))
def test_hankel_property_against_scipy(n, x):
    expect = complex(sp.jv(n, x), sp.yv(n, x))
    assert hankel1_sweep(n, x)[n] == pytest.approx(expect, rel=1e-10)
