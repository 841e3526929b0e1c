"""Free-space multipole and local expansion operators on coefficient arrays.

Cylindrical-harmonic expansions about box centers, held as plain
arrays of 2P+1 coefficients (p = -P..P, index p + P), or as stacks of
such rows.  P2M, local evaluation and the F vectors take the regular
harmonics J_p e^{i p theta} of specfun.regular_harmonics (ascending
series below its argument bound, Miller above), extended to p < 0 by
J_{-p} e^{-i p theta} = (-1)^p conj(J_p e^{i p theta}).  The operators
the driver applies:

    signed_harmonics      J_p e^{i p theta}, p = -P..P (P2M, F, local evaluation)
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
same layout with J_p in place of H_p.  Every translation is
translation_matrix(vec, P) applied to the coefficient vector, with
T[p, m] = vec[m - p] and vec the F or G vector of the new center minus
the old: M2M is F(c_parent - c_child), L2L is F(c_child - c_parent) and
M2L is G(c_target - c_source).  (F(-d) is conj(F(d)) reversed, so M2M
is also the matrix T[p, m] = conj(F(c_child - c_parent))[p - m].)
"""

from __future__ import annotations

import numpy as np

# bessel_j_sweep has no caller here; the benchmark tracer wraps this binding
from .specfun import bessel_j_sweep, hankel1_sweep, regular_harmonics  # noqa: F401

__all__ = [
    "signed_harmonics",
    "p2m_arrays",
    "image_coefficients",
    "translation_vector_j",
    "translation_vector_h",
    "translation_matrix",
]


def signed_harmonics(P: int, k: float, dx, dy) -> np.ndarray:
    """J_p(k rho) e^{i p theta} for p = -P..P, shape (2P+1,) + shape(dx), indexed by p + P.

    The orders p < 0 are (-1)^p times the conjugates of p > 0, so the
    block takes one regular_harmonics call.
    """
    reg = regular_harmonics(P, k, dx, dy)
    out = np.empty((2 * P + 1,) + reg.shape[1:], dtype=complex)
    out[P:] = reg
    np.conj(reg[:0:-1], out=out[:P])
    out[:P][::-2] *= -1.0  # odd p < 0
    return out


def p2m_arrays(xs, ys, qs, cx, cy, P: int, k: float, starts=None) -> np.ndarray:
    """Multipole coefficients alpha_p (p = -P..P) for sources given as arrays.

    (cx, cy) is the expansion center, or one center per source.  Without
    starts, all sources make one expansion, shape (2P+1,).  With starts
    (increasing), the sources split into the segments [starts[i],
    starts[i+1]), each summed about its own center: shape (len(starts), 2P+1).
    """
    qs = np.asarray(qs, dtype=complex)
    # J_p(k rho) e^{-i p theta}: the harmonics of the offset with dy -> -dy
    terms = signed_harmonics(P, k, np.asarray(xs, dtype=float) - cx,
                             cy - np.asarray(ys, dtype=float))    # (2P+1, N)
    if starts is None:
        return terms @ qs
    terms *= qs
    return np.add.reduceat(terms, starts, axis=1).T


def translation_vector_j(k: float, dx, dy, P: int) -> np.ndarray:
    """F_nu = J_nu(k rho) e^{i nu theta}, nu = -2P..2P: (4P+1,), or (n, 4P+1) for n offsets."""
    return np.moveaxis(signed_harmonics(2 * P, k, dx, dy), 0, -1)


def translation_vector_h(k: float, dx, dy, P: int) -> np.ndarray:
    """G_nu = H_nu^(1)(k rho) e^{i nu theta}, nu = -2P..2P: (4P+1,), or (n, 4P+1) for n offsets."""
    rho = np.hypot(dx, dy)
    if np.any(rho == 0.0):
        raise ValueError("M2L requires separated centers")
    top = 2 * P
    nu = np.arange(-top, top + 1).reshape((-1,) + (1,) * np.ndim(dx))
    vec = np.empty((2 * top + 1,) + np.shape(rho), dtype=complex)
    vec[top:] = hankel1_sweep(top, k * rho)
    vec[:top] = vec[:top:-1]  # H_{-m} = (-1)^m H_m, as in signed_harmonics
    vec[:top][::-2] *= -1.0  # odd m
    vec *= np.exp(1j * nu * np.arctan2(dy, dx))
    return np.moveaxis(vec, 0, -1)


def translation_matrix(vec_nu: np.ndarray, P: int) -> np.ndarray:
    """Toeplitz matrix T[p, m] = vec[m - p], out = T @ coeffs, from a vector indexed by nu + 2P."""
    if len(vec_nu) != 4 * P + 1:
        raise ValueError(f"translation vector must have length 4P+1 = {4 * P + 1}")
    p = np.arange(-P, P + 1)
    return vec_nu[p[None, :] - p[:, None] + 2 * P]


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
