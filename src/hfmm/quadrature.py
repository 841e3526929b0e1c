"""Fixed quadrature rules for the Sommerfeld-integral split.

The propagating part lives on a finite interval (Gauss-Legendre);
the evanescent part is a semi-infinite integral with exponential decay
(generalized Gauss-Laguerre, the e^{-t y} factor supplying the weight
after rescaling t -> t / y).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre, roots_genlaguerre

__all__ = ["QuadratureRule", "legendre_base", "gauss_legendre", "gauss_laguerre_generalized",
           "SommerfeldRules"]


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    count: int
    a_param: float = 0.0  # generalized-Laguerre weight exponent; 0 for Legendre


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


def gauss_legendre(count: int, a: float, b: float) -> QuadratureRule:
    """Count-point Gauss-Legendre rule affinely mapped to [a, b].

    Exact for polynomials up to degree 2*count - 1.
    """
    if not a < b:
        raise ValueError("invalid interval: need a < b")
    x, w = legendre_base(count)
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b) + half * x
    weights = half * w
    return QuadratureRule(nodes=nodes, weights=weights, kind=f"legendre-on-[{a:g},{b:g}]", count=count)


def gauss_laguerre_generalized(count: int, a_param: float = 0.0) -> QuadratureRule:
    """Count-point generalized Gauss-Laguerre rule.

    Integrates f against the weight t^a_param e^{-t} on [0, inf);
    exact for polynomial f up to degree 2*count - 1.
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
    return QuadratureRule(nodes=x, weights=w, kind=f"generalized-laguerre({a_param:g})",
                          count=count, a_param=a_param)


@dataclass(frozen=True)
class SommerfeldRules:
    """Node-count bundle for the propagating/evanescent split.

    The counts are tunables; 64/64 reproduces the reference accuracy
    tables in the convergence tests.
    """

    propagating: QuadratureRule
    evanescent: QuadratureRule

    @classmethod
    def default(cls, prop: int = 64, evan: int = 64,
                a_param: float = 0.0) -> "SommerfeldRules":
        return cls(
            propagating=gauss_legendre(prop, 0.0, np.pi),
            evanescent=gauss_laguerre_generalized(evan, a_param),
        )
