"""Gauss-Legendre and generalized Gauss-Laguerre rules, each a (nodes, weights) pair.

Every spectral integral of the package maps Gauss-Legendre rules
(legendre_base) onto its own intervals, affinely (gauss_legendre) or
cosine-mapped (cosine_panels, shared by the table entries and the
Sommerfeld oracle).  gauss_laguerre_generalized has no caller in the
package; the benchmark tracer (perfbench/tracing.py) wraps it by name.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre, roots_genlaguerre

__all__ = ["legendre_base", "gauss_legendre", "cosine_panels", "gauss_laguerre_generalized"]


@lru_cache(maxsize=None)
def legendre_base(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Count-point Gauss-Legendre nodes and weights on [-1, 1].

    Built once per count and shared by every caller, so the arrays are
    read-only; callers map them onto their own intervals.  This is the
    only place in the package that computes Gauss-Legendre nodes.  The
    cache is keyed by the count alone and the package uses a handful of
    counts, so it stays small.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    x, w = roots_legendre(count)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(count: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Count-point Gauss-Legendre nodes and weights affinely mapped to [a, b].

    Exact for polynomials up to degree 2*count - 1.
    """
    if not a < b:
        raise ValueError("invalid interval: need a < b")
    x, w = legendre_base(count)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


def cosine_panels(edges, count: int, split: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Cosine-mapped composite Gauss-Legendre nodes and weights between edges.

    Each segment [a, a + h] of edges is the image of u in [0, 1] under
    x = a + h (1 - cos(pi u)) / 2; u is cut into split equal panels of
    count Gauss-Legendre nodes each, ordered by segment, then panel.  The
    map clusters nodes quadratically at both segment ends, which turns an
    endpoint square-root kink into an analytic integrand.
    """
    x, wx = legendre_base(count)
    u = ((np.arange(split)[:, None] + 0.5 * (x + 1.0)) / split).ravel()
    edges = np.asarray(edges, dtype=float)
    a, h = edges[:-1, None], np.diff(edges)[:, None]
    return ((a + 0.5 * h * (1.0 - np.cos(np.pi * u))).ravel(),
            (0.25 * h * np.pi * np.sin(np.pi * u) * (np.tile(wx, split) / split)).ravel())


@lru_cache(maxsize=None)
def gauss_laguerre_generalized(count: int, a_param: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Count-point generalized Gauss-Laguerre nodes and weights.

    Integrates f against the weight t^a_param e^{-t} on [0, inf);
    exact for polynomial f up to degree 2*count - 1.  Built once per
    (count, a_param) and shared like legendre_base, so the arrays are
    read-only.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if a_param < 0:
        raise ValueError("a_param must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        x, w = roots_genlaguerre(count, a_param)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise ValueError(f"{count}-point generalized Laguerre rule (a = {a_param:g}) "
                         "has non-finite nodes or weights")
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w
