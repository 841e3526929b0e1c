"""Free-space and layered-media Green's functions for the 2-D Helmholtz equation.

Everything here is direct (non-hierarchical) evaluation: the free-space
kernel, the spectral (Sommerfeld) representations, interface reflectance
coefficients in closed form, and the adaptive-quadrature oracle for the
scattered field: one panel-doubling loop over quadrature.cosine_panels.
The fast path, its three-layer cut field (driver._cut_field) included,
is validated against these routines, which share no grid with it.

Conventions
-----------
The interface sits at y = 0 (two-layer) with a second interface at y = -d
for the three-layer medium; sources and targets live in y > 0.  The
vertical spectral wavenumber kappa = sqrt(lambda^2 - k^2) uses the
outgoing-wave branch: positive real for |lambda| > k and -i*sqrt(k^2 -
lambda^2) for |lambda| < k.  The propagating part of every integral is
parameterized by lambda = -k cos(tau), tau in [0, pi], which makes
kappa = -i k sin(tau) and never touches the branch cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import cosine_panels, gauss_legendre
from .specfun import hankel0

__all__ = [
    "Point2",
    "MediaConfig",
    "QuadratureConvergenceError",
    "reflectance",
    "three_layer_sigma",
    "free_space",
    "free_space_spectral",
    "scattered_direct",
    "scattered_batch",
    "domain_green",
]


class QuadratureConvergenceError(RuntimeError):
    """Adaptive quadrature did not converge within the node budget."""


@dataclass(frozen=True)
class Point2:
    x: float
    y: float


def _xy(p):
    if isinstance(p, Point2):
        return p.x, p.y
    return float(p[0]), float(p[1])


@dataclass(frozen=True)
class MediaConfig:
    """Medium description: wavenumbers, impedance parameter, layer geometry.

    variant is one of "free", "two-layer", "three-layer".  k1 is the
    (top-layer) wavenumber in every variant; alpha the impedance
    parameter of the two-layer interface; k2, k3, d the middle/bottom
    wavenumbers and middle-layer thickness of the three-layer medium
    (interfaces at y = 0 and y = -d).
    """

    variant: str
    k1: float
    alpha: float = 0.0
    k2: float = 0.0
    k3: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        if self.variant not in ("free", "two-layer", "three-layer"):
            raise ValueError(f"unknown media variant {self.variant!r}")
        for name in ("k1", "alpha", "k2", "k3", "d"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)!r}")
        if self.variant == "two-layer" and self.alpha < 0:
            # the reflectance pole kappa = i*alpha would sit on the propagating contour
            raise ValueError(f"alpha must be >= 0, not {self.alpha!r}")
        if self.k1 <= 0:
            raise ValueError("wavenumber must be positive")
        if self.variant == "three-layer":
            if self.k2 <= 0 or self.k3 <= 0:
                raise ValueError("wavenumbers must be positive")
            if self.d <= 0:
                raise ValueError("layer thickness must be positive")
            if self.k2 > self.k1:
                # A denser middle layer traps guided modes, which put real
                # poles of sigma_1 on the evanescent contour; the real-axis
                # quadrature used throughout does not apply then.
                raise ValueError("middle-layer wavenumber k2 > k1 is not supported "
                                 "(guided-mode poles on the integration contour)")

    @classmethod
    def free(cls, k: float) -> "MediaConfig":
        return cls(variant="free", k1=k)

    @classmethod
    def two_layer(cls, k: float, alpha: float) -> "MediaConfig":
        return cls(variant="two-layer", k1=k, alpha=alpha)

    @classmethod
    def three_layer(cls, k1: float, k2: float, k3: float, d: float) -> "MediaConfig":
        return cls(variant="three-layer", k1=k1, k2=k2, k3=k3, d=d)

    def rescaled(self, length_scale: float) -> "MediaConfig":
        """Medium in coordinates scaled by length_scale (y' = y * scale).

        Wavenumbers and the impedance parameter divide by the scale,
        thicknesses multiply.
        """
        return MediaConfig(
            variant=self.variant,
            k1=self.k1 / length_scale,
            alpha=self.alpha / length_scale,
            k2=self.k2 / length_scale if self.variant == "three-layer" else 0.0,
            k3=self.k3 / length_scale if self.variant == "three-layer" else 0.0,
            d=self.d * length_scale if self.variant == "three-layer" else 0.0,
        )

    def fingerprint(self) -> str:
        return (f"{self.variant};k1={self.k1!r};alpha={self.alpha!r};"
                f"k2={self.k2!r};k3={self.k3!r};d={self.d!r}")


def three_layer_sigma(media: MediaConfig, kappa1, path: str = "evanescent"):
    """Spectral reflection/transmission coefficients (sigma1, sigma2+, sigma2-, sigma3).

    Closed form, per spectral node, of field and normal-derivative
    continuity at the two interfaces (Chew, Waves and Fields in
    Inhomogeneous Media, 1990, ch. 2).  With e = exp(-kappa_2 d), which
    has |e| <= 1 on both contours, p_ij = kappa_i + kappa_j and m_ij =
    kappa_i - kappa_j: D = p12 p23 + e^2 m12 m23, sigma1 = (m12 p23 + e^2
    p12 m23) / D, sigma2+ = 2 kappa_2 p23 / D, sigma2- = 2 e kappa_2 m23 / D
    and sigma3 = 4 e kappa_2 kappa_3 / D.  A non-finite D, or |D| below
    1e-8 (|kappa_1| + |kappa_2|)(|kappa_2| + |kappa_3|), raises ValueError.
    kappa1 is the
    top-layer vertical wavenumber from the contour parameterization: t on
    the evanescent contour, -i k1 sin(tau) on the propagating one.

    path selects the branch of kappa_2, kappa_3 where lam^2 < k_j^2: on
    the propagating contour all three follow the -i branch of kappa_1,
    which makes an equal-wavenumber medium exactly reflection-free; on
    the evanescent contour (where lam >= k_1 and kappa_1 is real) the
    lower-layer roots take the principal branch.
    """
    if media.variant != "three-layer":
        raise ValueError("three_layer_sigma requires a three-layer medium")
    if path not in ("propagating", "evanescent"):
        raise ValueError("path must be 'propagating' or 'evanescent'")
    lower = -1 if path == "propagating" else 1
    k1_ = np.atleast_1d(np.asarray(kappa1, dtype=complex))
    # lam^2 - k_j^2 = kappa1^2 + (k1^2 - k_j^2) avoids the catastrophic
    # cancellation of lam^2 - k_j^2 near lam = k_j (kappa1^2 is real on
    # both contour parameterizations)
    k1sq = (k1_ * k1_).real

    def lower_root(kj):
        diff = k1sq + (media.k1 ** 2 - kj ** 2)
        pos = np.sqrt(np.maximum(diff, 0.0))
        neg = lower * 1j * np.sqrt(np.maximum(-diff, 0.0))
        return np.where(diff >= 0.0, pos.astype(complex), neg)

    k2_ = lower_root(media.k2)
    k3_ = lower_root(media.k3)
    if np.any(k1_ == 0.0) or np.any(k2_ == 0.0) or np.any(k3_ == 0.0):
        raise ValueError("spectral node exactly on a branch point (kappa = 0)")
    e = np.exp(-k2_ * media.d)
    ee = e * e
    p12, m12 = k1_ + k2_, k1_ - k2_
    p23, m23 = k2_ + k3_, k2_ - k3_
    denom = p12 * p23 + ee * m12 * m23
    worst = np.min(np.abs(denom) / ((np.abs(k1_) + np.abs(k2_)) * (np.abs(k2_) + np.abs(k3_))))
    if not np.isfinite(worst) or worst < 1e-8:
        raise ValueError(
            f"ill-conditioned three-layer spectral system (relative denominator {worst:.2e})")
    two_k2 = 2.0 * k2_ / denom
    return ((m12 * p23 + ee * p12 * m23) / denom, two_k2 * p23, two_k2 * e * m23,
            2.0 * two_k2 * e * k3_)


def reflectance(media: MediaConfig, kappa1):
    """Spectral reflectance evaluated at the top-layer vertical wavenumber.

    Two-layer: (kappa + i*alpha) / (kappa - i*alpha).  Three-layer:
    sigma1 of three_layer_sigma (lambda^2 recovered from
    kappa1^2 + k1^2, which is real on both split branches).  Free space
    returns 0.
    """
    kappa1 = np.asarray(kappa1, dtype=complex)
    if media.variant == "free":
        return np.zeros(kappa1.shape, dtype=complex)
    if media.variant == "two-layer":
        denom = kappa1 - 1j * media.alpha
        if np.any(np.abs(denom) < 1e-12 * max(1.0, abs(media.alpha))):
            raise ValueError("reflectance pole kappa = i*alpha on the evaluation path")
        return (kappa1 + 1j * media.alpha) / denom
    lam_sq = kappa1 * kappa1 + media.k1 ** 2
    if np.any(np.abs(lam_sq.imag) > 1e-9 * (1.0 + np.abs(lam_sq.real))):
        raise ValueError("kappa1 must come from the propagating or evanescent parameterization")
    # kappa1 real (t >= 0) means the evanescent contour; -i k sin(tau) the
    # propagating one.  The two are not mixed in a single call.
    path = "propagating" if np.any(kappa1.imag < -1e-300) else "evanescent"
    sigma1, _, _, _ = three_layer_sigma(media, kappa1.ravel(), path)
    return sigma1.reshape(kappa1.shape)


def free_space(k: float, x, x0) -> complex:
    """Free-space kernel (i/4) H_0^(1)(k * distance)."""
    x1, y1 = _xy(x)
    x2, y2 = _xy(x0)
    r = np.hypot(x1 - x2, y1 - y2)
    if r == 0.0:
        raise ValueError("free_space is singular at coincident points")
    return complex(0.25j * hankel0(k * r))


def free_space_spectral(k: float, x, x0) -> complex:
    """Free-space kernel through the propagating/evanescent split.

    Validation-only path; requires a nonzero vertical separation.  The
    propagating part takes a fixed 64-node Gauss-Legendre rule, enough
    for the moderate k |x - x0| of the checks that call it (the table
    entries double theirs to convergence).
    """
    x1, y1 = _xy(x)
    x2, y2 = _xy(x0)
    dx = x1 - x2
    dy = abs(y1 - y2)
    if dy == 0.0:
        raise ValueError("split spectral form requires |y - y0| > 0")
    tau, w = gauss_legendre(64, 0.0, np.pi)
    val_p = np.sum(w * np.exp(1j * k * (dy * np.sin(tau) - dx * np.cos(tau))))

    # The evanescent integrand peaks at the scale t ~ k (through the
    # 1/sqrt(t^2 + k^2) factor) and decays at the scale 1/dy; a single
    # fixed rule cannot serve both when k*dy is small, so this part is
    # panel-doubled to convergence with a breakpoint at t = k.
    def evan_value(t, w):
        root = np.sqrt(t * t + k * k)
        return np.sum(w * np.exp(-t * dy) * 2.0 * np.cos(root * dx) / root)

    T = max(2.0 * k, 45.0 / dy)
    val_e = _panel_doubling(evan_value, T, [k] if k < T else [], 1e-13)
    return complex(0.25j / np.pi * val_p + 0.25 / np.pi * val_e)


def spectral_breakpoints(media: MediaConfig, path: str, upper: float):
    """Integration-variable values where the reflectance has a kink.

    Three-layer sigma_1 is analytic in kappa_2 and kappa_3, so it picks
    up square-root branch points where lambda crosses k_2 or k_3.  On
    the propagating contour (variable tau, lambda = -k_1 cos tau) that
    happens for k_j < k_1; on the evanescent contour (variable t,
    lambda = sqrt(t^2 + k_1^2)) for k_j > k_1.  Two-layer reflectance
    is smooth and yields no breakpoints.
    """
    pts = []
    if media.variant == "three-layer":
        k1 = media.k1
        for kj in (media.k2, media.k3):
            if path == "propagating" and kj < k1:
                pts.append(float(np.arccos(kj / k1)))
                pts.append(float(np.arccos(-kj / k1)))
            elif path == "evanescent" and kj > k1:
                pts.append(float(np.sqrt(kj * kj - k1 * k1)))
    return sorted({p for p in pts if 0.0 < p < upper})


def _check_layered_geometry(media, y, y0):
    if media.variant == "free":
        raise ValueError("scattered field is zero in free space")
    if y0 <= 0:
        raise ValueError("layered evaluation requires the source in the top layer (y0 > 0)")
    if y + y0 <= 0:
        # y slightly below the interface is allowed: the spectral form
        # continues there, which finite-difference boundary checks use.
        raise ValueError("layered evaluation requires y + y0 > 0")


def scattered_direct(media: MediaConfig, x, x0, tol: float = 1e-12) -> complex:
    """Scattered field u^s(x; x0) of one pair by adaptive Sommerfeld quadrature.

    The one-pair case of scattered_batch, after checking tol and the
    geometry.
    """
    if not 1e-14 <= tol <= 1e-6:
        raise ValueError("tol must lie in [1e-14, 1e-6]")
    x1, y1 = _xy(x)
    x2, y2 = _xy(x0)
    _check_layered_geometry(media, y1, y2)
    return complex(scattered_batch(media, [x1 - x2], [y1 + y2], tol)[0])


def _panel_doubling(fn, b, interior, tol):
    """Integral over [0, b] by cosine-mapped panels doubled per segment.

    The range is split at the interior breakpoints.  fn(x, w) returns
    the node sums (one entry per output) of a rule.  Each segment
    doubles its 16-node panels (quadrature.cosine_panels) until two
    successive levels agree to tol / segments relative to
    max(1, |value|), and gives up past 4096 panels.
    """
    edges = np.array([0.0, *interior, b])
    seg_tol = tol / (len(edges) - 1)
    total = 0.0
    for seg in zip(edges[:-1], edges[1:]):
        prev, panels = None, 2
        while True:
            val = fn(*cosine_panels(seg, 16, panels))
            if prev is not None:
                err = np.max(np.abs(val - prev) / np.maximum(1.0, np.abs(val)))
                if err <= seg_tol:
                    break
            if panels > 4096:
                raise QuadratureConvergenceError(
                    f"panel-doubling quadrature on [0, {b:g}] did not converge to {tol:g}")
            prev = val
            panels *= 2
        total = total + val
    return total


# Largest (pairs x nodes) complex block scattered_batch forms at once.
_BLOCK_BYTES = 1 << 23


def scattered_batch(media: MediaConfig, dx, dy, tol: float = 1e-12) -> np.ndarray:
    """Scattered field for many (dx, dy) offsets at once.

    dx = x - x0 and dy = y + y0 as arrays; panel counts are doubled
    until the whole batch is converged.  Used by the O(N^2) reference
    driver, where per-pair adaptivity would be too slow.  The node axis
    is chunked so that no (pairs x nodes) block exceeds _BLOCK_BYTES.
    """
    dx = np.asarray(dx, dtype=float)
    dy = np.asarray(dy, dtype=float)
    if media.variant == "free":
        return np.zeros(dx.shape, dtype=complex)
    if np.any(dy <= 0):
        raise ValueError("layered evaluation requires y + y0 > 0")
    k = media.k1
    step = max(1, _BLOCK_BYTES // (16 * max(1, dx.size)))

    def prop_value(tau, w):
        base = w * reflectance(media, -1j * k * np.sin(tau))
        val = np.zeros(dx.shape, dtype=complex)
        for a in range(0, tau.size, step):
            c = slice(a, a + step)
            val += np.exp(1j * k * (np.outer(dy, np.sin(tau[c]))
                                    - np.outer(dx, np.cos(tau[c])))) @ base[c]
        return val

    def evan_value(t, w):
        root = np.sqrt(t * t + k * k)
        base = w * reflectance(media, t.astype(complex)) / root
        val = np.zeros(dx.shape, dtype=complex)
        for a in range(0, t.size, step):
            c = slice(a, a + step)
            val += (np.exp(-np.outer(dy, t[c]))
                    * 2.0 * np.cos(np.outer(dx, root[c]))) @ base[c]
        return val

    # e^{-T dy} is below tol at the smallest decay height; both halves
    # break at the kinks of the reflectance (spectral_breakpoints)
    T = max(2.0 * k, (-np.log(max(tol, 1e-16)) + 8.0) / dy.min())
    return (0.25j / np.pi * _panel_doubling(
                prop_value, np.pi, spectral_breakpoints(media, "propagating", np.pi), tol)
            + 0.25 / np.pi * _panel_doubling(
                evan_value, T, spectral_breakpoints(media, "evanescent", T), tol))


def domain_green(media: MediaConfig, x, x0, tol: float = 1e-12) -> complex:
    """Total field: free-space kernel plus the interface-scattered part."""
    g = free_space(media.k1, x, x0)
    if media.variant == "free":
        return g
    return g + scattered_direct(media, x, x0, tol)
