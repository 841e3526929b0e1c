"""Gauss-Legendre and generalized Gauss-Laguerre rules, each a (nodes, weights) pair.

Every spectral integral of the package maps Gauss-Legendre rules
(legendre_base) onto its own intervals.  gauss_laguerre_generalized has
no caller in the package; the benchmark tracer (perfbench/tracing.py)
wraps it by name.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre, roots_genlaguerre

__all__ = ["legendre_base", "gauss_legendre", "gauss_laguerre_generalized"]


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
