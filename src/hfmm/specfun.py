"""Integer-order Bessel and Hankel functions of real positive argument.

These are the kernel primitives behind every expansion and translation
operator: the regular harmonics J_n(k rho) e^{i n theta} for multipole
coefficients, local evaluation and M2M/L2L, H_n^(1) for outgoing
expansions and multipole-to-local translations.

Every function is an order sweep (all orders 0..nmax at once).
regular_harmonics takes the ascending series below an argument bound
and Miller above it.  J_n uses Miller's downward recurrence, anchored on
the order-0/1 values, which is stable for the full order range needed
here (up to 2P+2 with P as large as 39).  Y_n uses the three-term
recurrence run upward from Y_0, Y_1, which is stable because |Y_n|
grows with n.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np
from scipy.special import j0 as _j0, j1 as _j1, y0 as _y0, y1 as _y1

__all__ = [
    "SUPPORTED_MAX_ARG",
    "bessel_j_sweep",
    "bessel_y_sweep",
    "regular_harmonics",
    "hankel1_sweep",
    "hankel0",
]

# Beyond this the low-frequency expansion regime targeted here does not apply.
SUPPORTED_MAX_ARG = 1.0e4

# Rescaling threshold for Miller's downward recurrence: unnormalized values
# grow toward low orders and can overflow for small arguments.
_MILLER_BIG = 1.0e250
_MILLER_SMALL = 1.0e-250

# regular_harmonics sums the ascending series while every k rho of a block
# is at most this.  Below the first zero of J_0 (2.405) no J_n has a zero,
# and the series' cancellation costs at most a factor I_n/J_n <= 11 of
# rounding; above it the block takes Miller's recurrence.
_SERIES_MAX_ARG = 2.0


def _check_arg(x, allow_zero):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("argument must be nonnegative")
    if not allow_zero and np.any(x == 0.0):
        raise ValueError("argument must be positive (logarithmic singularity at 0)")
    if np.any(x > SUPPORTED_MAX_ARG):
        raise ValueError(f"argument exceeds supported range (x <= {SUPPORTED_MAX_ARG:g})")
    return x


def _miller_start(nmax, xmax):
    # Start high enough that the downward recurrence has converged to the
    # minimal solution by the time it reaches nmax.
    base = max(nmax, int(xmax))
    return base + 20 + int(2.0 * np.sqrt(max(base, 40)))


def bessel_j_sweep(nmax: int, x) -> np.ndarray:
    """J_n(x) for all orders n = 0..nmax.

    Parameters
    ----------
    nmax : int
        Highest order, >= 0.
    x : float or array
        Argument(s), 0 <= x <= SUPPORTED_MAX_ARG.

    Returns
    -------
    ndarray of shape (nmax+1,) + shape(x).
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    x = _check_arg(x, allow_zero=True)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.zeros((nmax + 1,) + x.shape)

    zero = x == 0.0
    out[0, zero] = 1.0
    if np.all(zero):
        return out.reshape(nmax + 1) if scalar else out

    xs = x[~zero]
    m_start = _miller_start(nmax, float(xs.max()))

    fp = np.zeros_like(xs)          # unnormalized J_{n+1}
    fc = np.full_like(xs, 1e-30)    # unnormalized J_n
    vals = np.zeros((nmax + 1, xs.size))
    # bound >= max |fc|, |fp|: a step grows them by at most 2(n+1)/x_min + 1,
    # so the overflow check runs only where the bound passes _MILLER_BIG
    bound, x_min = 1e-30, float(xs.min())
    for n in range(m_start, -1, -1):
        fm = (2.0 * (n + 1) / xs) * fc - fp
        fp, fc = fc, fm
        bound *= 2.0 * (n + 1) / x_min + 1.0
        if bound > _MILLER_BIG:
            big = np.abs(fc) > _MILLER_BIG
            if np.any(big):
                fc[big] *= _MILLER_SMALL
                fp[big] *= _MILLER_SMALL
                vals[:, big] *= _MILLER_SMALL
            bound = max(np.abs(fc).max(), np.abs(fp).max())
        if n <= nmax:
            vals[n] = fc

    # Anchor on whichever of J_0, J_1 is larger to avoid dividing near a zero.
    # After the loop fc, fp hold the unnormalized order-0 and order-1 values.
    a0, a1 = _j0(xs), _j1(xs)
    use0 = np.abs(a0) >= np.abs(a1)
    unnorm1 = vals[1] if nmax >= 1 else fp
    denom = np.where(use0, vals[0], unnorm1)
    scale = np.where(use0, a0, a1) / denom
    vals *= scale

    out[:, ~zero] = vals
    return out.reshape(nmax + 1) if scalar else out


@lru_cache(maxsize=None)
def _series_table(terms: int, nmax: int) -> np.ndarray:
    """c[m, n] = (-1)^m / (m! (n+m)!), m = 0..terms, n = 0..nmax (read-only)."""
    # exact integers, so each entry is rounded once and high orders underflow to 0
    c = np.array([[(-1) ** m / (factorial(m) * factorial(n + m)) for n in range(nmax + 1)]
                  for m in range(terms + 1)])
    c.flags.writeable = False
    return c


def regular_harmonics(nmax: int, k: float, dx, dy) -> np.ndarray:
    """J_n(k rho) e^{i n theta} for n = 0..nmax, with (rho, theta) the polar form of (dx, dy).

    Returns shape (nmax+1,) + the broadcast shape of dx and dy.  While
    every k rho is at most _SERIES_MAX_ARG, the ascending series
    J_n(k rho) e^{i n theta} = w^n sum_m (-|w|^2)^m / (m! (n+m)!) with
    w = k (dx + i dy) / 2 (Abramowitz & Stegun 9.1.10): powers of w by a
    running product from w^0 = 1, so rho = 0 gives exactly 1, 0, 0, ...,
    and the sum by one Horner pass over m = 0..M, with M the smallest count
    for which the next term of the n = 0 sum, s^{M+1} / ((M+1)!)^2 at the
    largest |w|^2 = s, is <= 1e-17.
    Above the bound, bessel_j_sweep times e^{i n theta}.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    w = np.asarray((0.5 * k) * (np.asarray(dx, dtype=float) + 1j * np.asarray(dy, dtype=float)))
    s = w.real * w.real + w.imag * w.imag
    s_max = float(s.max()) if s.size else 0.0
    if not s_max <= (0.5 * _SERIES_MAX_ARG) ** 2:
        theta = np.arctan2(w.imag, w.real)
        phase = np.exp(1j * np.multiply.outer(np.arange(nmax + 1), theta))
        return bessel_j_sweep(nmax, 2.0 * np.abs(w)) * phase
    terms, tail = 0, s_max
    while tail > 1e-17:  # tail: the first left-out term of the n = 0 sum
        terms += 1
        tail *= s_max / (terms + 1) ** 2
    c = _series_table(terms, nmax).reshape((terms + 1, nmax + 1) + (1,) * w.ndim)
    poly = np.empty((nmax + 1,) + w.shape)
    poly[...] = c[terms]
    for m in range(terms - 1, -1, -1):
        poly *= s
        poly += c[m]
    out = np.empty((nmax + 1,) + w.shape, dtype=complex)
    out[0] = 1.0
    for n in range(1, nmax + 1):
        np.multiply(out[n - 1], w, out=out[n, ...])  # a view also when w is 0-d
    out *= poly
    return out


def bessel_y_sweep(nmax: int, x) -> np.ndarray:
    """Y_n(x) for all orders n = 0..nmax (x > 0), by upward recurrence."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    x = _check_arg(x, allow_zero=False)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    vals = np.empty((nmax + 1,) + x.shape)
    vals[0] = _y0(x)
    if nmax >= 1:
        vals[1] = _y1(x)
    for n in range(1, nmax):
        vals[n + 1] = (2.0 * n / x) * vals[n] - vals[n - 1]
    return vals.reshape(nmax + 1) if scalar else vals


def hankel1_sweep(nmax: int, x) -> np.ndarray:
    """H_n^(1)(x) = J_n(x) + i Y_n(x) for n = 0..nmax (x > 0)."""
    return bessel_j_sweep(nmax, x) + 1j * bessel_y_sweep(nmax, x)


def hankel0(x) -> np.ndarray:
    """H_0^(1)(x), vectorized fast path for the near-field kernel.

    J_0 and Y_0 are written straight into the real and imaginary parts
    of one complex array, so a kernel block makes no temporaries.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    _j0(x, out=out.real)
    _y0(x, out=out.imag)
    return out
