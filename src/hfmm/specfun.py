"""Integer-order Bessel and Hankel functions of real positive argument.

These are the kernel primitives behind every expansion and translation
operator: the regular harmonics J_n(k rho) e^{i n theta} for multipole
coefficients, local evaluation and M2M/L2L, H_n^(1) for outgoing
expansions and multipole-to-local translations.

Every sweep gives all orders 0..nmax at once.  regular_harmonics takes
the ascending series below an argument bound and Miller above it.  J_n
uses Miller's downward recurrence, normalized by J_0 or J_1, which is
stable for the full order range needed here (up to 2P+2 with P as large
as 39).  H_n^(1) uses the three-term recurrence run upward from H_0,
H_1 on complex values: its imaginary part is the upward Y_n recurrence,
stable because |Y_n| grows with n, and |H_n| >= |Y_n|, so the real
part's drift off J_n stays within rounding of |H_n|.  The order-0/1
values come from the ascending series up to the same bound (_order01)
and from scipy.special above it, imported at the first call that needs
it; hankel0_sq is the near-field kernel H_0^(1) from x^2 by the series,
and hankel0 the scipy reference for any x.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, pi

import numpy as np

__all__ = [
    "SUPPORTED_MAX_ARG",
    "bessel_j_sweep",
    "regular_harmonics",
    "hankel1_sweep",
    "hankel0",
    "hankel0_sq",
]

# Beyond this the low-frequency expansion regime targeted here does not apply.
SUPPORTED_MAX_ARG = 1.0e4

# Rescaling threshold for Miller's downward recurrence: unnormalized values
# grow toward low orders and can overflow for small arguments.
_MILLER_BIG = 1.0e250
_MILLER_SMALL = 1.0e-250

# regular_harmonics sums the ascending series while every k rho of a block
# is at most this, and _order01 and hankel0_sq sum it up to this argument.
# Below the first zero of J_0 (2.405) no J_n has a zero, and the series'
# cancellation costs at most a factor I_n/J_n <= 11 of rounding; above it
# the block takes Miller's recurrence and the order-0/1 values scipy's.
_SERIES_MAX_ARG = 2.0

_EULER_GAMMA = 0.5772156649015329


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
    a0, a1 = _order01(xs)[:2]
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


def _series_terms(s_max: float) -> int:
    """The smallest M for which the first left-out term of the J_0 series in
    s = x^2/4, s^{M+1} / ((M+1)!)^2 at s = s_max, is <= 1e-17."""
    terms, tail = 0, s_max
    while tail > 1e-17:
        terms += 1
        tail *= s_max / (terms + 1) ** 2
    return terms


@lru_cache(maxsize=None)
def _order01_table(terms: int) -> np.ndarray:
    """Rows j0, j1, q0, q1 (read-only), m = 0..terms, of the order-0/1 series in s = x^2/4.

    With H_m the harmonic numbers (Abramowitz & Stegun 9.1.10-11):
    J_0 = sum j0_m s^m, j0_m = (-1)^m / (m!)^2; J_1 = (x/2) sum j1_m s^m,
    j1_m = (-1)^m / (m! (m+1)!); Y_0 = ln(s) J_0 / pi + sum q0_m s^m,
    q0_m = 2 (gamma - H_m) j0_m / pi; and Y_1 = ln(s) J_1 / pi - 2 / (pi x)
    + (x/2) sum q1_m s^m, q1_m = (2 gamma - H_m - H_{m+1}) j1_m / pi.
    The sums are exact rationals, rounded once before the division by pi.
    """
    harmonic = [Fraction(0)]
    for m in range(1, terms + 2):
        harmonic.append(harmonic[-1] + Fraction(1, m))
    gamma = Fraction(_EULER_GAMMA)
    j0 = [Fraction((-1) ** m, factorial(m) ** 2) for m in range(terms + 1)]
    j1 = [Fraction((-1) ** m, factorial(m) * factorial(m + 1)) for m in range(terms + 1)]
    q0 = [2 * (gamma - harmonic[m]) * a for m, a in enumerate(j0)]
    q1 = [(2 * gamma - harmonic[m] - harmonic[m + 1]) * b for m, b in enumerate(j1)]
    c = np.array([list(map(float, j0)), list(map(float, j1)),
                  [float(v) / pi for v in q0], [float(v) / pi for v in q1]])
    c.flags.writeable = False
    return c


def _horner(c, s):
    """sum_m c[i, m] s^m for each row i of c, in one Horner pass: shape (len(c),) + s.shape."""
    c = c.reshape(c.shape + (1,) * s.ndim)
    out = np.empty((len(c),) + s.shape)
    out[...] = c[:, -1]
    for m in range(c.shape[1] - 2, -1, -1):
        out *= s
        out += c[:, m]
    return out


def _series01(x) -> np.ndarray:
    """J_0, J_1, Y_0, Y_1 at 0 < x <= _SERIES_MAX_ARG by the ascending series,
    with as many terms as the largest x needs (_order01_table); shape (4,) + x.shape."""
    half = 0.5 * x
    s = half * half
    out = _horner(_order01_table(_series_terms(float(s.max()))), s)
    out[1] *= half
    out[3] *= half
    out[3] -= (2.0 / pi) / x
    logs = np.log(s) * out[:2]
    logs *= 1.0 / pi
    out[2:] += logs
    return out


def _order01(x) -> np.ndarray:
    """J_0, J_1, Y_0, Y_1 at x > 0, shape (4,) + x.shape: the series up to
    _SERIES_MAX_ARG, scipy.special above it (imported only then)."""
    out = np.empty((4,) + x.shape)
    small = x <= _SERIES_MAX_ARG
    if small.any():
        out[:, small] = _series01(x[small])
    if not small.all():
        from scipy.special import j0, j1, y0, y1

        big = x[~small]
        out[:, ~small] = j0(big), j1(big), y0(big), y1(big)
    return out


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
    poly = _horner(_series_table(_series_terms(s_max), nmax).T, s)
    out = np.empty((nmax + 1,) + w.shape, dtype=complex)
    out[0] = 1.0
    for n in range(1, nmax + 1):
        np.multiply(out[n - 1], w, out=out[n, ...])  # a view also when w is 0-d
    out *= poly
    return out


def hankel1_sweep(nmax: int, x) -> np.ndarray:
    """H_n^(1)(x) = J_n(x) + i Y_n(x) for n = 0..nmax (x > 0), by upward recurrence.

    H_{n+1} = (2n/x) H_n - H_{n-1} from H_0, H_1 (_order01).  A real
    factor times a complex value scales each part alone, so the
    imaginary part is the upward Y_n recurrence.  The real part loses
    J_n's own relative accuracy once n passes x, but not that of H_n.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    x = _check_arg(x, allow_zero=False)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    vals = np.empty((nmax + 1,) + x.shape, dtype=complex)
    j0, j1, y0, y1 = _order01(x)
    vals[0].real, vals[0].imag = j0, y0
    if nmax >= 1:
        vals[1].real, vals[1].imag = j1, y1
    for n in range(1, nmax):
        vals[n + 1] = (2.0 * n / x) * vals[n] - vals[n - 1]
    return vals.reshape(nmax + 1) if scalar else vals


def hankel0(x) -> np.ndarray:
    """H_0^(1)(x) for any x > 0: scipy's j0 and y0, bit for bit.

    The reference kernel of the oracle paths (driver.direct_apply,
    greens.free_space) and the near field's kernel above the series
    bound.  J_0 and Y_0 are written straight into the real and imaginary
    parts of one complex array, so a kernel block makes no temporaries.
    """
    from scipy.special import j0, y0

    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    j0(x, out=out.real)
    y0(x, out=out.imag)
    return out


def hankel0_sq(x2) -> np.ndarray:
    """H_0^(1)(x) from x2 = x^2, 0 < x2 <= _SERIES_MAX_ARG^2: the near-field kernel.

    J_0 = sum j0_m s^m and Y_0 = ln(s) J_0 / pi + sum q0_m s^m in
    s = x2/4 (_order01_table): one log and two Horner passes, no sqrt,
    with as many terms as the block's largest s needs.
    """
    s = np.array(x2, dtype=float)
    s *= 0.25
    s_max = float(s.max()) if s.size else 0.0
    if not s_max <= (0.5 * _SERIES_MAX_ARG) ** 2:
        raise ValueError(f"hankel0_sq needs x2 <= {_SERIES_MAX_ARG ** 2:g}")
    j0, y0 = _horner(_order01_table(_series_terms(s_max))[::2], s)  # J_0 and sum q0_m s^m
    np.log(s, out=s)
    s *= j0
    s *= 1.0 / pi
    y0 += s
    out = np.empty(s.shape, dtype=complex)
    out.real = j0
    out.imag = y0
    return out
