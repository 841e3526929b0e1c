"""Gauss-Legendre and generalized Gauss-Laguerre rules, each a (nodes, weights) pair,
and the one doubling loop of the package's adaptive integrals.

Every spectral integral of the package maps Gauss-Legendre rules
(legendre_base, computed here by Newton's method) onto its own
intervals: gauss_legendre on one interval, and panel_rule on the panels
between edges, shared by the table entries, the three-layer cut field
and the Sommerfeld oracle.  panel_rule maps a panel by the cosine only
where a kink of the integrand ends it, and affinely everywhere else.
refine doubles the rule of each of many integrals until it converges,
each on its own, and budget_slices cuts rows into blocks under a byte
budget.  gauss_laguerre_generalized takes scipy's rule, imported when
it is called; it has no caller in the package, and the benchmark tracer
(perfbench/tracing.py) wraps it by name.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["legendre_base", "gauss_legendre", "panel_rule", "QuadratureConvergenceError", "refine",
           "budget_slices", "gauss_laguerre_generalized"]


@lru_cache(maxsize=None)
def legendre_base(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Count-point Gauss-Legendre nodes and weights on [-1, 1].

    Built once per count and shared by every caller, so the arrays are
    read-only; callers map them onto their own intervals.  This is the
    only place in the package that computes Gauss-Legendre nodes, by
    Newton's method over half of them (_legendre_roots), mirrored.  The
    cache is keyed by the count alone and the package uses a handful of
    counts, so it stays small.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    theta, slope = _legendre_roots(count)
    x = -np.cos(theta)  # the nodes in [-1, 0], ascending
    if count % 2:
        x[-1] = 0.0  # the middle node, theta = pi/2
    w = 2.0 / slope ** 2
    inner = len(x) - count % 2  # the nodes below 0, mirrored above it
    x, w = np.r_[x, -x[:inner][::-1]], np.r_[w, w[:inner][::-1]]
    # the recurrence's rounding leaves each weight some sqrt(count) eps
    # off; scaling them to their exact sum 2, as scipy does, removes the
    # part they share
    w *= 2.0 / math.fsum(w)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _legendre_roots(n):
    """(theta, dP_n/dtheta) at the roots x = cos(theta) of P_n in [0, 1], theta ascending.

    Newton's method in theta, from Tricomi's x = (1 - 1/(8n^2) +
    1/(8n^3)) cos(phi), phi = (4i - 1) pi / (4n + 2).  A pass runs the
    three-term recurrence to P_{n-1}, P_n at x = cos(theta); then
    dP_n/dtheta = -n (P_{n-1} - x P_n) / sin(theta) has no 1 - x^2 to
    cancel.  A step below 1e-10 of its theta leaves an error the next
    step squares away, and one that moves x by at most 1e-15 is rounding;
    once every step is either, one more pass gives the slope: four passes
    for every count from 2 to 1024.
    """
    phi = (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) * np.pi / (4 * n + 2)
    theta = phi + (1.0 - 1.0 / n) / (8.0 * n * n) / np.tan(phi)
    converged = False
    for _ in range(20):
        x = np.cos(theta)
        prev, cur = np.ones_like(x), x  # P_{j-1}, P_j
        for j in range(1, n):
            xp = x * cur
            prev, cur = cur, xp + (j / (j + 1.0)) * (xp - prev)
        sine = np.sin(theta)
        slope = (-n) * (prev - x * cur) / sine
        step = cur / slope
        theta -= step
        if converged:
            return theta, slope
        step = np.abs(step)
        converged = bool(np.all((step <= 1e-10 * theta) | (step * sine <= 1e-15)))
    raise RuntimeError(f"Gauss-Legendre nodes for count {n} did not converge")


def gauss_legendre(count: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Count-point Gauss-Legendre nodes and weights affinely mapped to [a, b].

    Exact for polynomials up to degree 2*count - 1.
    """
    if not a < b:
        raise ValueError("invalid interval: need a < b")
    x, w = legendre_base(count)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


def panel_rule(edges, count: int, kinks=(), split: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights between edges, cosine-mapped only at kinks.

    Each segment [a, a + h] of edges is the image of u in [0, 1]; u is
    cut into split equal panels of count Gauss-Legendre nodes each,
    ordered by segment, then panel.  A segment with an end in kinks maps
    u by x = a + h (1 - cos(pi u)) / 2, which clusters nodes
    quadratically at both ends and turns an endpoint square-root kink
    into an analytic integrand.  Every other segment maps u affinely,
    x = a + h u: there the cosine map would only shrink the region about
    the segment where the integrand is analytic, which sets how fast a
    Gauss rule converges.
    """
    x, wx = legendre_base(count)
    u = ((np.arange(split)[:, None] + 0.5 * (x + 1.0)) / split).ravel()
    wu = np.tile(wx, split) / split
    edges = np.asarray(edges, dtype=float)
    a, h = edges[:-1, None], np.diff(edges)[:, None]
    nodes, weights = a + h * u, 0.5 * h * wu
    if len(kinks):  # most callers pass none: skip the two isin calls
        cosine = np.isin(edges[:-1], kinks) | np.isin(edges[1:], kinks)
        a, h = a[cosine], h[cosine]
        nodes[cosine] = a + 0.5 * h * (1.0 - np.cos(np.pi * u))
        weights[cosine] = 0.25 * h * np.pi * np.sin(np.pi * u) * wu
    return nodes.ravel(), weights.ravel()


class QuadratureConvergenceError(RuntimeError):
    """Adaptive quadrature did not converge within the node budget."""


def refine(grid, size: int, start: int, cap: int, accept, failure):
    """(values, count): size integrals, each refined on its own by doubling its rule.

    grid(keys, count) returns (values, aux) for the integrals keys (an
    ascending index array) on the rule of count nodes per panel, one
    value or row of values per key; accept(new, old, aux, last) returns
    per key whether its values on this rule (new) and on the last (old)
    agree, where last is True on the finest rule cap allows.  Every
    integral starts on start and takes the doubled rule until its two
    last values agree, then keeps the finer one, so only the integrals
    not yet converged take the next rule.  Past cap, raises
    QuadratureConvergenceError with the message failure(keys, count).
    count is the finest rule any integral took.
    """
    keys, count = np.arange(size), start
    values, _ = grid(keys, count)
    while True:
        if 2 * count > cap:
            raise QuadratureConvergenceError(failure(keys, count))
        count *= 2
        new, aux = grid(keys, count)
        done = accept(new, values[keys], aux, 2 * count > cap)
        values[keys] = new
        keys = keys[~done]
        if not keys.size:
            return values, count


def budget_slices(count: int, width: int, budget: int) -> list[slice]:
    """Slices of range(count), each as many complex rows of width values as fit in budget
    bytes, and at least one row."""
    step = max(1, budget // (16 * width))
    return [slice(a, a + step) for a in range(0, count, step)]


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
    from scipy.special import roots_genlaguerre

    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        x, w = roots_genlaguerre(count, a_param)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise ValueError(f"{count}-point generalized Laguerre rule (a = {a_param:g}) "
                         "has non-finite nodes or weights")
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w
