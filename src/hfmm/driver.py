"""Fast-summation orchestration: upward pass, downward pass, near field.

fmm_apply evaluates u_i = sum_j q_j u_{x_j}(x_i) for the configured
medium, where u_{x_0} is the domain Green's function.  The free-space
singular self term (j = i) is omitted; the finite scattered self term
is kept, so that an alpha = 0 two-layer run equals a free-space run on
sources plus mirror images.

direct_apply is the O(N^2) reference built on the Sommerfeld-quadrature
oracle; error_metric is the relative l2 error over the first M targets.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import expansions as ex
from . import layered
from .greens import MediaConfig, scattered_batch
from .quadrature import SommerfeldRules, legendre_base
from .specfun import bessel_j_sweep, hankel0
from .tree import TreeConfig, build_lists, build_tree, near_source_leaves

__all__ = ["RunConfig", "PotentialVector", "fmm_apply", "direct_apply", "error_metric"]


@dataclass
class RunConfig:
    media: MediaConfig
    order: int
    leaf_capacity: int = 40
    table_policy: str = "precompute"  # "precompute" | "on-the-fly"
    table_cache: str = ""             # optional path for the binary table cache
    prop_count: int = 64
    evan_count: int = 0               # 0: 64 for two-layer, 128 for three-layer
    threads: int = 1
    oracle_tol: float = 1e-12

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("expansion order must be >= 1")
        if self.table_policy not in ("precompute", "on-the-fly"):
            raise ValueError("table_policy must be 'precompute' or 'on-the-fly'")

    def resolved_evan_count(self) -> int:
        if self.evan_count:
            return self.evan_count
        # sigma_1 of the three-layer medium decays slowly in the spectral
        # variable; more Laguerre nodes keep table entries near 1e-9.
        return 128 if self.media.variant == "three-layer" else 64


@dataclass
class PotentialVector:
    values: np.ndarray
    timings: dict = field(default_factory=dict)


def error_metric(reference, test, M: int) -> float:
    """Relative l2 error over the first M entries."""
    ref = np.asarray(reference.values if isinstance(reference, PotentialVector) else reference)
    tst = np.asarray(test.values if isinstance(test, PotentialVector) else test)
    if len(ref) != len(tst) or len(ref) < M or M < 1:
        raise ValueError("need equal-length vectors of at least M entries")
    ref, tst = ref[:M], tst[:M]
    denom = np.linalg.norm(ref)
    if denom == 0.0:
        raise ValueError("zero-norm reference")
    return float(np.linalg.norm(ref - tst) / denom)


def _check_above_interface(ys, media):
    if media.variant != "free" and np.any(ys <= 0.0):
        raise ValueError("layered media require all particles strictly above y = 0")


# ---------------------------------------------------------------------------
# direct reference


def direct_apply(particles, media: MediaConfig, tol: float = 1e-12,
                 max_n: int = 20000) -> PotentialVector:
    """O(N^2) reference potentials via the quadrature oracle."""
    n = len(particles)
    if n > max_n:
        raise ValueError(f"direct_apply guard: N={n} > {max_n} (raise max_n to override)")
    xs = np.array([p.position.x for p in particles])
    ys = np.array([p.position.y for p in particles])
    qs = np.array([p.strength for p in particles], dtype=complex)
    _check_above_interface(ys, media)

    t0 = time.perf_counter()
    dx = xs[:, None] - xs[None, :]
    dyf = ys[:, None] - ys[None, :]
    r = np.hypot(dx, dyf)
    np.fill_diagonal(r, 1.0)  # masked below; avoids the singular self term
    g = 0.25j * hankel0(media.k1 * r)
    np.fill_diagonal(g, 0.0)
    out = g @ qs

    if media.variant != "free":
        # chunk the quadrature: near-interface pairs can need thousands of
        # nodes per pair, so the full N^2 batch would exhaust memory
        dys = ys[:, None] + ys[None, :]
        block = max(1, 16384 // n)
        for a in range(0, n, block):
            b = min(a + block, n)
            us = scattered_batch(media, dx[a:b].ravel(), dys[a:b].ravel(),
                                 tol).reshape(b - a, n)
            out[a:b] += us @ qs
    return PotentialVector(values=out, timings={"total": time.perf_counter() - t0})


# ---------------------------------------------------------------------------
# fmm passes


def _group_offsets(pairs):
    """Group (source, target) node pairs by their integer index offset."""
    groups = {}
    for src, tgt in pairs:
        key = (tgt.index[0] - src.index[0], tgt.index[1] - src.index[1])
        groups.setdefault(key, []).append((src, tgt))
    return groups


class _Workspace:
    """Per-run state: tree, scaled media, coefficient arrays."""

    def __init__(self, particles, config):
        self.config = config
        xs = np.array([p.position.x for p in particles])
        ys = np.array([p.position.y for p in particles])
        _check_above_interface(ys, config.media)
        self.tree = build_tree(particles, TreeConfig(leaf_capacity=config.leaf_capacity))
        build_lists(self.tree)
        self.media = config.media.rescaled(1.0 / self.tree.side)
        self.k = self.media.k1
        qs = np.array([p.strength for p in particles], dtype=complex)
        self.q = qs[self.tree.perm]
        self.x = self.tree.x
        self.y = self.tree.y
        self.P = config.order
        self.rules = SommerfeldRules.default(config.prop_count,
                                             config.resolved_evan_count())
        self.multipole = {}
        self.local = {}
        self.near = near_source_leaves(self.tree)
        self.store = None

    def build_tables(self):
        """Load the table cache (or start a store); precompute fills it."""
        if self.media.variant == "free":
            return
        cache = self.config.table_cache
        if cache and os.path.exists(cache):
            self.store = layered.load_tables(cache, self.media, self.P, self.rules)
        else:
            self.store = layered.TableStore(self.media, self.P, self.rules)
        if self.config.table_policy == "precompute":
            layered.fill_tables(self.store, self.tree, self.near)


def _upward(ws):
    """P2M at the leaves, then grouped M2M toward the root."""
    P, k = ws.P, ws.k
    for leaf in ws.tree.leaves:
        a, b = leaf.span
        ws.multipole[leaf] = ex.p2m_arrays(ws.x[a:b], ws.y[a:b], ws.q[a:b],
                                           leaf.center.x, leaf.center.y, P, k)
    by_level = {}
    for node in ws.tree.nodes.values():
        if not node.is_leaf:
            by_level.setdefault(node.level, []).append(node)
    for level in sorted(by_level, reverse=True):
        pairs = [(child, node) for node in by_level[level] for child in node.children]
        for (ox, oy), group in _group_offsets_child(pairs).items():
            # child center minus parent center, in normalized units
            hw = group[0][1].half_width / 2.0
            vec = np.conj(ex.translation_vector_j(k, ox * hw, oy * hw, P))
            mat = _toeplitz_matrix(vec, P, "p-m")
            src = np.stack([ws.multipole[c] for c, _ in group], axis=1)
            dst = mat @ src
            for i, (_, parent) in enumerate(group):
                acc = ws.multipole.get(parent)
                ws.multipole[parent] = dst[:, i] if acc is None else acc + dst[:, i]


def _group_offsets_child(pairs):
    groups = {}
    for child, parent in pairs:
        key = (2 * (child.index[0] - 2 * parent.index[0]) - 1,
               2 * (child.index[1] - 2 * parent.index[1]) - 1)
        groups.setdefault(key, []).append((child, parent))
    return groups


def _toeplitz_matrix(vec_nu, P, index):
    p = np.arange(-P, P + 1)
    if index == "m-p":
        idx = p[None, :] - p[:, None]
    else:
        idx = p[:, None] - p[None, :]
    return vec_nu[idx + 2 * P]


def _downward(ws):
    """L2L from parents plus grouped free and heterogeneous M2L."""
    P, k = ws.P, ws.k
    layered_run = ws.media.variant != "free"
    nodes_by_level = {}
    for node in ws.tree.nodes.values():
        nodes_by_level.setdefault(node.level, []).append(node)
        ws.local[node] = np.zeros(2 * P + 1, dtype=complex)

    for level in sorted(nodes_by_level):
        nodes = nodes_by_level[level]
        # L2L from parents (4 possible quadrant offsets)
        pairs = [(node.parent, node) for node in nodes if node.parent is not None]
        groups = {}
        for parent, node in pairs:
            key = (2 * (node.index[0] - 2 * parent.index[0]) - 1,
                   2 * (node.index[1] - 2 * parent.index[1]) - 1)
            groups.setdefault(key, []).append((parent, node))
        for (ox, oy), group in groups.items():
            hw = group[0][1].half_width
            vec = ex.translation_vector_j(k, ox * hw, oy * hw, P)
            mat = _toeplitz_matrix(vec, P, "m-p")
            src = np.stack([ws.local[parent] for parent, _ in group], axis=1)
            dst = mat @ src
            for i, (_, node) in enumerate(group):
                ws.local[node] += dst[:, i]

        # free-space M2L over the interaction lists, grouped by offset
        vpairs = [(src, node) for node in nodes for src in node.interaction_list]
        if vpairs:
            w = 2.0 * vpairs[0][1].half_width
            for (ox, oy), group in _group_offsets(vpairs).items():
                vec = ex.translation_vector_h(k, ox * w, oy * w, P)
                mat = _toeplitz_matrix(vec, P, "m-p")
                src = np.stack([ws.multipole[s] for s, _ in group], axis=1)
                dst = mat @ src
                for i, (_, node) in enumerate(group):
                    ws.local[node] += dst[:, i]

        # heterogeneous M2L: one table entry per (heights, x offset) group
        if layered_run and vpairs:
            y0 = ws.tree.root_xy[1]
            hgroups = {}
            for src, tgt in vpairs:
                key = (src.index[1], tgt.index[0] - src.index[0], tgt.index[1] - src.index[1])
                hgroups.setdefault(key, []).append((src, tgt))
            for group in hgroups.values():
                first_src, first_tgt = group[0]
                entries = ws.store.get(layered.pair_key(y0, first_tgt, first_src))
                mat = _toeplitz_matrix(entries, P, "m-p")
                src = np.stack([ex.image_coefficients(ws.multipole[s]) for s, _ in group],
                               axis=1)
                dst = mat @ src
                for i, (_, node) in enumerate(group):
                    ws.local[node] += dst[:, i]


def _leaf_potentials(ws, leaf):
    """Potential at one target leaf: local expansion + near field."""
    P, k = ws.P, ws.k
    a, b = leaf.span
    tx, ty = ws.x[a:b], ws.y[a:b]
    nt = b - a
    out = np.zeros(nt, dtype=complex)
    layered_run = ws.media.variant != "free"
    two_layer = ws.media.variant == "two-layer"

    # collect the scattered near-field contributions into the leaf local
    # expansion before evaluating it
    local = ws.local[leaf].copy()
    pair_quads = []   # (src_leaf, C) pairs needing pairwise image quadrature
    oracle_srcs = []  # three-layer near-interface sources: pairwise oracle
    if layered_run:
        y0 = ws.tree.root_xy[1]
        for src in ws.near[leaf]:
            key = layered.pair_key(y0, leaf, src, near=True)
            if key.tail and not two_layer:
                oracle_srcs.append(src)
                continue
            entries = ws.store.get(key)
            coeffs = ex.image_coefficients(ws.multipole[src])
            local += _toeplitz_matrix(entries, P, "m-p") @ coeffs
            if key.tail:
                pair_quads.append((src, ws.store.geometry(key).cutoff))

    # evaluate the accumulated local expansion at the targets
    rho = np.hypot(tx - leaf.center.x, ty - leaf.center.y)
    theta = np.arctan2(ty - leaf.center.y, tx - leaf.center.x)
    js = ex._signed_orders(bessel_j_sweep(P, k * rho), P)
    orders = np.arange(-P, P + 1)
    out += 0.25j * (local[:, None] * js * np.exp(1j * np.outer(orders, theta))).sum(axis=0)

    # free-space near field, pairwise
    for src in ws.near[leaf]:
        c, d = src.span
        r = np.hypot(tx[:, None] - ws.x[c:d][None, :], ty[:, None] - ws.y[c:d][None, :])
        mask = r == 0.0
        r[mask] = 1.0
        g = 0.25j * hankel0(k * r)
        g[mask] = 0.0
        out += g @ ws.q[c:d]

    # two-layer near-interface part I: point image plus truncated line image
    for src, C in pair_quads:
        c, d = src.span
        sx, sy, sq = ws.x[c:d], ws.y[c:d], ws.q[c:d]
        r_img = np.hypot(tx[:, None] - sx[None, :], ty[:, None] + sy[None, :])
        out += (0.25j * hankel0(k * r_img)) @ sq
        gl_x, gl_w = legendre_base(32)
        s_nodes = 0.5 * C * (gl_x + 1.0)
        s_w = 0.5 * C * gl_w
        mu = 2j * ws.media.alpha * np.exp(1j * ws.media.alpha * s_nodes)
        for idx in range(len(s_nodes)):
            r_line = np.hypot(tx[:, None] - sx[None, :],
                              ty[:, None] + sy[None, :] + s_nodes[idx])
            out += (s_w[idx] * mu[idx]) * ((0.25j * hankel0(k * r_line)) @ sq)

    # three-layer near-interface: pairwise oracle quadrature
    for src in oracle_srcs:
        c, d = src.span
        sx, sy, sq = ws.x[c:d], ws.y[c:d], ws.q[c:d]
        ddx = (tx[:, None] - sx[None, :]).ravel()
        ddy = (ty[:, None] + sy[None, :]).ravel()
        us = scattered_batch(ws.media, ddx, ddy, ws.config.oracle_tol)
        out += us.reshape(nt, d - c) @ sq
    return out


def fmm_apply(particles, config: RunConfig) -> PotentialVector:
    """Hierarchical evaluation of the pairwise potential sums."""
    timings = {}
    t0 = time.perf_counter()
    ws = _Workspace(particles, config)
    timings["build"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    ws.build_tables()
    timings["tables"] = time.perf_counter() - t1

    t1 = time.perf_counter()
    _upward(ws)
    timings["upward"] = time.perf_counter() - t1

    t1 = time.perf_counter()
    _downward(ws)
    timings["downward"] = time.perf_counter() - t1

    t1 = time.perf_counter()
    values = np.zeros(len(particles), dtype=complex)
    leaves = ws.tree.leaves
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(lambda lf: _leaf_potentials(ws, lf), leaves))
    else:
        results = [_leaf_potentials(ws, leaf) for leaf in leaves]
    for leaf, vals in zip(leaves, results):
        a, b = leaf.span
        values[ws.tree.perm[a:b]] = vals
    timings["near"] = time.perf_counter() - t1

    # one write per call, and only when this call computed an entry
    if config.table_cache and ws.store is not None and ws.store.misses:
        t1 = time.perf_counter()
        layered.save_tables(ws.store, config.table_cache)
        timings["tables"] += time.perf_counter() - t1
    timings["total"] = time.perf_counter() - t0
    return PotentialVector(values=values, timings=timings)
