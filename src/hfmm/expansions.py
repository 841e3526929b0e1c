"""Free-space multipole and local expansion operators on coefficient arrays.

Cylindrical-harmonic expansions about box centers, held as plain
arrays of 2P+1 coefficients (p = -P..P, index p + P), or as stacks of
such rows.  The operators the driver applies:

    p2m_arrays            sources -> multipole coefficients about a center,
                          or about each segment's own center
    translation_vector_j  F_nu = J_nu e^{i nu theta} (M2M and L2L)
    translation_vector_h  G_nu = H_nu e^{i nu theta} (free-space M2L)
    translation_matrix    the (2P+1)^2 Toeplitz matrix of a 4P+1 vector
    image_coefficients    multipole coefficients of the mirrored sources

Conventions (all fixed by the single-source consistency tests, which
any correct convention must pass):

    alpha_p = sum_j q_j J_p(k rho_j) e^{-i p theta_j}
    u(x)    = (i/4) sum_p alpha_p H_p^(1)(k r) e^{i p theta}

with (rho_j, theta_j) the polar offset of source j about the expansion
center and (r, theta) that of the target.  Local expansions use the
same layout with J_p in place of H_p.  With these, M2M is
translation_matrix(conj(F(c_child - c_parent)), P, "p-m"), L2L is
translation_matrix(F(c_child - c_parent), P, "m-p") and M2L is
translation_matrix(G(c_target - c_source), P, "m-p"), each applied to
the coefficient vector.
"""

from __future__ import annotations

import numpy as np

from .specfun import bessel_j_sweep, hankel1_sweep

__all__ = [
    "p2m_arrays",
    "image_coefficients",
    "translation_vector_j",
    "translation_vector_h",
    "translation_matrix",
]


def _signed_orders(sweep, P):
    """Extend an order sweep 0..P to -P..P using C_{-n} = (-1)^n C_n.

    sweep has shape (P+1,) + tail; the result (2P+1,) + tail is indexed
    by p + P.
    """
    signs = np.where(np.arange(1, P + 1) % 2 == 1, -1.0, 1.0)
    neg = sweep[1:][::-1] * signs[::-1].reshape((P,) + (1,) * (sweep.ndim - 1))
    return np.concatenate([neg, sweep], axis=0)


def p2m_arrays(xs, ys, qs, cx, cy, P: int, k: float, starts=None) -> np.ndarray:
    """Multipole coefficients alpha_p (p = -P..P) for sources given as arrays.

    (cx, cy) is the expansion center, or one center per source.  Without
    starts, all sources make one expansion, shape (2P+1,).  With starts
    (increasing), the sources split into the segments [starts[i],
    starts[i+1]), each summed about its own center: shape (len(starts), 2P+1).
    """
    dx = np.asarray(xs, dtype=float) - cx
    dy = np.asarray(ys, dtype=float) - cy
    qs = np.asarray(qs, dtype=complex)
    rho = np.hypot(dx, dy)
    theta = np.arctan2(dy, dx)
    js = _signed_orders(bessel_j_sweep(P, k * rho), P)      # (2P+1, N)
    # built in place, so that a sweep over many leaves holds one complex block
    terms = np.outer(-1j * np.arange(-P, P + 1), theta)
    np.exp(terms, out=terms)
    terms *= js
    if starts is None:
        return terms @ qs
    terms *= qs
    return np.add.reduceat(terms, starts, axis=1).T


def _offset_vector(sweep, dx, dy, P):
    """C_nu(k rho) e^{i nu theta}, nu = -2P..2P, from an order sweep over k rho."""
    nu = np.arange(-2 * P, 2 * P + 1).reshape((-1,) + (1,) * np.ndim(dx))
    vec = _signed_orders(sweep, 2 * P) * np.exp(1j * nu * np.arctan2(dy, dx))
    return np.moveaxis(vec, 0, -1)


def translation_vector_j(k: float, dx, dy, P: int) -> np.ndarray:
    """F_nu = J_nu(k rho) e^{i nu theta}, nu = -2P..2P: (4P+1,), or (n, 4P+1) for n offsets."""
    return _offset_vector(bessel_j_sweep(2 * P, k * np.hypot(dx, dy)), dx, dy, P)


def translation_vector_h(k: float, dx, dy, P: int) -> np.ndarray:
    """G_nu = H_nu^(1)(k rho) e^{i nu theta}, nu = -2P..2P: (4P+1,), or (n, 4P+1) for n offsets."""
    rho = np.hypot(dx, dy)
    if np.any(rho == 0.0):
        raise ValueError("M2L requires separated centers")
    return _offset_vector(hankel1_sweep(2 * P, k * rho), dx, dy, P)


def translation_matrix(vec_nu: np.ndarray, P: int, index: str) -> np.ndarray:
    """Toeplitz matrix T with out = T @ coeffs, from a vector indexed by nu + 2P.

    index selects the diagonal convention: "m-p" gives T[p, m] =
    vec[m - p] (M2L and L2L), "p-m" gives T[p, m] = vec[p - m] (M2M).
    """
    if len(vec_nu) != 4 * P + 1:
        raise ValueError(f"translation vector must have length 4P+1 = {4 * P + 1}")
    p = np.arange(-P, P + 1)
    if index == "m-p":
        idx = p[None, :] - p[:, None]
    elif index == "p-m":
        idx = p[:, None] - p[None, :]
    else:
        raise ValueError("index must be 'm-p' or 'p-m'")
    return vec_nu[idx + 2 * P]


def image_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """Multipole coefficients of the mirrored sources about the mirrored center.

    Reflecting every source about y = 0 maps alpha_p to (-1)^p
    alpha_{-p}, which is linear in the strengths and coincides with
    conj(alpha_p) when all strengths are real.  coeffs is one row of
    2P+1 coefficients or a stack of rows, shape (nodes, 2P+1).
    """
    P = (coeffs.shape[-1] - 1) // 2
    signs = np.where(np.arange(-P, P + 1) % 2 == 0, 1.0, -1.0)
    return signs * coeffs[..., ::-1]
