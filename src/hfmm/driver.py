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
from dataclasses import dataclass, field

import numpy as np

from . import expansions as ex
from . import layered
from .greens import MediaConfig, scattered_batch, scattered_sum
from .quadrature import SommerfeldRules, legendre_base
from .specfun import bessel_j_sweep, hankel0
from .tree import TreeConfig, build_lists, build_tree, near_source_leaves

__all__ = ["RunConfig", "PotentialVector", "fmm_apply", "direct_apply", "error_metric"]


@dataclass
class RunConfig:
    media: MediaConfig
    order: int
    leaf_capacity: int = 40
    table_cache: str = ""             # optional path for the binary table cache

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("expansion order must be >= 1")


@dataclass
class PotentialVector:
    values: np.ndarray
    timings: dict = field(default_factory=dict)
    # table entries this call computed, and those its store held at the end
    counts: dict = field(default_factory=dict)


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


def _check_positions(xs, ys, media):
    """Refuse particles on or below the interface and distinct coincident particles."""
    if media.variant != "free" and np.any(ys <= 0.0):
        raise ValueError("layered media require all particles strictly above y = 0")
    order = np.lexsort((ys, xs))
    same = (np.diff(xs[order]) == 0.0) & (np.diff(ys[order]) == 0.0)
    if np.any(same):
        i = int(np.argmax(same))
        a, b = sorted((int(order[i]), int(order[i + 1])))
        raise ValueError(f"particles {a} and {b} coincide at ({xs[a]!r}, {ys[a]!r}); "
                         "their interaction is infinite")


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
    _check_positions(xs, ys, media)

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


def _quadrant(child, parent):
    """Child center minus parent center, in half-widths of the child."""
    return (2 * (child.index[0] - 2 * parent.index[0]) - 1,
            2 * (child.index[1] - 2 * parent.index[1]) - 1)


def _index_offset(src, tgt):
    return (tgt.index[0] - src.index[0], tgt.index[1] - src.index[1])


class _Workspace:
    """Per-run state: tree, scaled media, coefficient arrays, table plan.

    multipole, local and image hold one row of 2P+1 coefficients per
    tree node, indexed by the node's id in ids.  A layered run keys each
    scattered read once, here (the table plan):
    - far[level] groups the level's V pairs (source in the target's
      interaction list) by (key, flip) from layered.pair_key;
    - near_reads[leaf] lists (source leaf, key, flip) for the near pairs
      that read a table entry;
    - cut[leaf] lists the three-layer near sources whose line image is
      cut; greens.scattered_sum sums them without an entry.
    """

    def __init__(self, particles, config):
        self.config = config
        xs = np.array([p.position.x for p in particles])
        ys = np.array([p.position.y for p in particles])
        _check_positions(xs, ys, config.media)
        self.tree = build_tree(particles, TreeConfig(leaf_capacity=config.leaf_capacity))
        build_lists(self.tree)
        self.media = config.media.rescaled(1.0 / self.tree.side)
        self.k = self.media.k1
        qs = np.array([p.strength for p in particles], dtype=complex)
        self.q = qs[self.tree.perm]
        self.x = self.tree.x
        self.y = self.tree.y
        self.P = config.order
        # sigma_1 of the three-layer medium decays slowly in the spectral
        # variable; more Laguerre nodes keep table entries near 1e-9
        self.rules = SommerfeldRules.default(
            evan=128 if self.media.variant == "three-layer" else 64)
        self.ids = {node: i for i, node in enumerate(self.tree.nodes.values())}
        self.levels = {}
        for node in self.tree.nodes.values():
            self.levels.setdefault(node.level, []).append(node)
        self.vpairs = {level: [(src, node) for node in nodes for src in node.interaction_list]
                       for level, nodes in self.levels.items()}
        self.multipole = self.local = self.image = None
        self.near = near_source_leaves(self.tree)
        self.store = None
        self.far, self.near_reads, self.cut = {}, {}, {}
        if self.media.variant != "free":
            self._plan_tables()

    def _plan_tables(self):
        """Fill far, near_reads and cut: one pair_key call per V pair and near pair."""
        y0 = self.tree.root_xy[1]
        for level, pairs in self.vpairs.items():
            self.far[level] = self.grouped(pairs, lambda src, tgt: layered.pair_key(y0, tgt, src))
        three_layer = self.media.variant == "three-layer"
        for leaf, srcs in self.near.items():
            reads = self.near_reads[leaf] = []
            cut = self.cut[leaf] = []
            for src in srcs:
                key, flip = layered.pair_key(y0, leaf, src, near=True)
                if key.cut and three_layer:
                    cut.append(src)
                else:
                    reads.append((src, key, flip))

    def build_tables(self):
        """Load the table cache (or start a store) and get every planned entry."""
        if self.media.variant == "free":
            return
        cache = self.config.table_cache
        if cache and os.path.exists(cache):
            self.store = layered.load_tables(cache, self.media, self.P, self.rules)
        else:
            self.store = layered.TableStore(self.media, self.P, self.rules)
        keys = {key for groups in self.far.values() for key, _ in groups}
        keys.update(key for reads in self.near_reads.values() for _, key, _ in reads)
        for key in keys:
            self.store.get(key)

    def grouped(self, pairs, key):
        """Node ids of (source, target) pairs, grouped by key(source, target).

        Groups keep first-seen order.  Every key used here fixes the
        source of a target, so a target appears at most once per group.
        """
        groups = {}
        for src, tgt in pairs:
            s, t = groups.setdefault(key(src, tgt), ([], []))
            s.append(self.ids[src])
            t.append(self.ids[tgt])
        return {k: (np.array(s), np.array(t)) for k, (s, t) in groups.items()}


def _translate(out, coeffs, groups, vectors, index):
    """out[targets] += T(vector) @ coeffs[sources]: one gather, GEMM and scatter per group.

    vectors(keys) gives the translation vectors of all group keys in one call."""
    if not groups:
        return
    P = (coeffs.shape[1] - 1) // 2
    for vec, (src, tgt) in zip(vectors(list(groups)), groups.values()):
        out[tgt] += coeffs[src] @ ex.translation_matrix(vec, P, index).T


def _offsets(keys, scale):
    """x and y arrays of integer offset keys times scale."""
    return scale * np.array(keys, dtype=float).T


def _upward(ws):
    """P2M at the leaves, then M2M toward the root, one GEMM per child quadrant."""
    P, k = ws.P, ws.k
    ws.multipole = np.zeros((len(ws.ids), 2 * P + 1), dtype=complex)
    for leaf in ws.tree.leaves:
        a, b = leaf.span
        ws.multipole[ws.ids[leaf]] = ex.p2m_arrays(ws.x[a:b], ws.y[a:b], ws.q[a:b],
                                                   leaf.center.x, leaf.center.y, P, k)
    for level in sorted(ws.levels, reverse=True):
        hw = 0.5 ** (level + 2)  # half width of the children
        pairs = [(child, node) for node in ws.levels[level] for child in node.children]
        _translate(ws.multipole, ws.multipole, ws.grouped(pairs, _quadrant),
                   lambda o: np.conj(ex.translation_vector_j(k, *_offsets(o, hw), P)),
                   "p-m")


def _downward(ws):
    """L2L from parents plus free and heterogeneous M2L, level by level."""
    P, k = ws.P, ws.k
    ws.local = np.zeros_like(ws.multipole)
    if ws.store is not None:
        ws.image = ex.image_coefficients(ws.multipole)
    for level in sorted(ws.levels):
        nodes = ws.levels[level]
        hw = 0.5 ** (level + 1)  # half width of the boxes at this level
        pairs = [(node.parent, node) for node in nodes if node.parent is not None]
        _translate(ws.local, ws.local,
                   ws.grouped(pairs, lambda parent, child: _quadrant(child, parent)),
                   lambda o: ex.translation_vector_j(k, *_offsets(o, hw), P), "m-p")
        _translate(ws.local, ws.multipole, ws.grouped(ws.vpairs[level], _index_offset),
                   lambda o: ex.translation_vector_h(k, *_offsets(o, 2 * hw), P), "m-p")
        if ws.store is not None:
            # the scattered part: image coefficients through one table entry
            # per (key, flip), so the pairs of one geometry share a GEMM
            _translate(ws.local, ws.image, ws.far[level],
                       lambda keys: [ws.store.get(*kf) for kf in keys], "m-p")


def local_values(coeffs, xs, ys, cx: float, cy: float, k: float) -> np.ndarray:
    """Local expansion (i/4) sum_p beta_p J_p(k r) e^{i p theta} at the targets.

    coeffs holds beta_p for p = -P..P; (r, theta) is the polar offset of
    each target (xs, ys) about the expansion center (cx, cy).
    """
    P = (len(coeffs) - 1) // 2
    dx = np.asarray(xs, dtype=float) - cx
    dy = np.asarray(ys, dtype=float) - cy
    js = ex._signed_orders(bessel_j_sweep(P, k * np.hypot(dx, dy)), P)
    orders = np.arange(-P, P + 1)
    phases = np.exp(1j * np.outer(orders, np.arctan2(dy, dx)))
    return 0.25j * (coeffs[:, None] * js * phases).sum(axis=0)


def _leaf_potentials(ws, leaf):
    """Potential at one target leaf: local expansion + near field."""
    P, k = ws.P, ws.k
    a, b = leaf.span
    tx, ty = ws.x[a:b], ws.y[a:b]

    # collect the scattered near-field contributions into the leaf local
    # expansion before evaluating it
    local = ws.local[ws.ids[leaf]].copy()
    pair_quads = []   # (src_leaf, C) pairs needing pairwise image quadrature
    for src, key, flip in ws.near_reads.get(leaf, ()):
        mat = ex.translation_matrix(ws.store.get(key, flip), P, "m-p")
        local += mat @ ws.image[ws.ids[src]]
        if key.cut:
            pair_quads.append((src, ws.store.geometry(key).cutoff))

    out = local_values(local, tx, ty, leaf.center.x, leaf.center.y, k)

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

    # three-layer near-interface: one spectral sum over every cut source
    if ws.cut.get(leaf):
        idx = np.concatenate([np.arange(*src.span) for src in ws.cut[leaf]])
        out += scattered_sum(ws.media, tx, ty, ws.x[idx], ws.y[idx], ws.q[idx])
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
    for leaf in ws.tree.leaves:
        a, b = leaf.span
        values[ws.tree.perm[a:b]] = _leaf_potentials(ws, leaf)
    timings["near"] = time.perf_counter() - t1

    # one write per call, and only when this call computed an entry
    if config.table_cache and ws.store is not None and ws.store.misses:
        t1 = time.perf_counter()
        layered.save_tables(ws.store, config.table_cache)
        timings["tables"] += time.perf_counter() - t1
    timings["total"] = time.perf_counter() - t0
    store = ws.store
    counts = {"entries_computed": store.misses if store else 0,
              "entries_held": len(store.entries) if store else 0}
    return PotentialVector(values=values, timings=timings, counts=counts)
