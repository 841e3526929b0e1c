"""Sampled Sommerfeld oracle, built from hfmm's public primitives only.

For a sampled target i the reference potential is

    u_i = sum_{j != i} q_j (i/4) H_0(k r_ij) + sum_j q_j u^s(x_i; x_j),

the driver's convention: the singular free-space self term is dropped
and the finite scattered self term kept.  The free part uses
``specfun.hankel0``; the scattered part ``greens.scattered_batch``,
fed in chunks sorted by dy so that each chunk's adaptive quadrature
stays small and no chunk needs much memory.
"""

from __future__ import annotations

import numpy as np

PAIR_CHUNK = 2048


def kernel_rows(media, xs, ys, targets, tol=1e-12):
    """Matrix G with u[targets] = G @ q, shape (len(targets), len(xs))."""
    from hfmm.greens import scattered_batch
    from hfmm.specfun import hankel0

    tx, ty = xs[targets][:, None], ys[targets][:, None]
    r = np.hypot(tx - xs[None, :], ty - ys[None, :])
    self_term = np.zeros(r.shape, dtype=bool)
    self_term[np.arange(len(targets)), targets] = True
    r[self_term] = 1.0
    rows = 0.25j * hankel0(media.k1 * r)
    rows[self_term] = 0.0

    dx = (tx - xs[None, :]).ravel()
    dy = (ty + ys[None, :]).ravel()
    order = np.argsort(dy)
    scattered = np.empty(dx.size, dtype=complex)
    for start in range(0, dx.size, PAIR_CHUNK):
        idx = order[start:start + PAIR_CHUNK]
        scattered[idx] = scattered_batch(media, dx[idx], dy[idx], tol)
    return rows + scattered.reshape(rows.shape)


def relative_error(reference, values):
    """Relative l2 error of values against reference."""
    return float(np.linalg.norm(values - reference) / np.linalg.norm(reference))
