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
from .quadrature import legendre_base
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
    # table entries this call computed and those its store held at the
    # end; evanescent nodes of the grids that computed them; leaves;
    # ordered near (target, source) leaf pairs; free-space kernel blocks
    # the near field evaluated (one per unordered pair)
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


def _check_positions(xs, ys, qs, media):
    """Refuse non-finite input, particles on or below the interface and distinct coincident ones."""
    finite = np.isfinite(xs) & np.isfinite(ys) & np.isfinite(qs)
    if not np.all(finite):
        i = int(np.argmin(finite))
        raise ValueError(f"particle {i} is not finite: position ({xs[i]!r}, {ys[i]!r}), "
                         f"charge {qs[i]!r}")
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
    _check_positions(xs, ys, qs, media)

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


# Particles per sweep of P2M or local evaluation: a chunk's (2P+1) x n
# complex block of Bessel terms stays near this many bytes.
_SWEEP_BYTES = 1 << 18


class _Workspace:
    """Per-run state: tree, scaled media, coefficient arrays, leaf and table plans.

    multipole, local and image hold one row of 2P+1 coefficients per
    tree node, indexed by the node's id in ids.  The leaf plan:
    - leaves lists the leaves in particle order: their spans tile 0..N
      in this order, which tree.leaves does not follow;
    - row, cx and cy give each particle its leaf's node id and center;
    - chunks splits leaves into runs of consecutive leaves, each swept
      by one P2M and one local evaluation call;
    - near_pairs holds each near leaf pair once, with the lower node id
      first, and each leaf's pair with itself.

    A layered run keys each scattered read once, here (the table plan):
    - far[level] groups the level's V pairs (source in the target's
      interaction list) by (key, flip) from layered.pair_key;
    - near_reads groups the near pairs that read a table entry the
      same way; line_image[leaf] lists the two-layer ones cut near the
      interface as (source leaf, key), for the pairwise [0, C] image;
    - cut[leaf] lists the three-layer near sources whose line image is
      cut; greens.scattered_sum sums them without an entry.
    """

    def __init__(self, particles, config):
        self.config = config
        xs = np.array([p.position.x for p in particles])
        ys = np.array([p.position.y for p in particles])
        qs = np.array([p.strength for p in particles], dtype=complex)
        _check_positions(xs, ys, qs, config.media)
        self.tree = build_tree(particles, TreeConfig(leaf_capacity=config.leaf_capacity))
        build_lists(self.tree)
        self.media = config.media.rescaled(1.0 / self.tree.side)
        self.k = self.media.k1
        self.q = qs[self.tree.perm]
        self.x = self.tree.x
        self.y = self.tree.y
        self.P = config.order
        self.ids = {node: i for i, node in enumerate(self.tree.nodes.values())}
        self.levels = {}
        for node in self.tree.nodes.values():
            self.levels.setdefault(node.level, []).append(node)
        self.vpairs = {level: [(src, node) for node in nodes for src in node.interaction_list]
                       for level, nodes in self.levels.items()}
        self.multipole = self.local = self.image = None
        self._plan_leaves()
        self.near = near_source_leaves(self.tree)
        self.near_pairs = self._unordered_near_pairs()
        self.store = None
        self.far, self.near_reads, self.line_image, self.cut = {}, {}, {}, {}
        if self.media.variant != "free":
            self._plan_tables()

    def _plan_leaves(self):
        """Fill leaves, row, cx, cy and chunks."""
        self.leaves = sorted(self.tree.leaves, key=lambda leaf: leaf.span[0])
        starts = np.array([leaf.span[0] for leaf in self.leaves])
        sizes = np.array([leaf.count for leaf in self.leaves])
        ids = np.array([self.ids[leaf] for leaf in self.leaves])
        self.row = np.repeat(ids, sizes)
        self.cx = np.repeat([leaf.center.x for leaf in self.leaves], sizes)
        self.cy = np.repeat([leaf.center.y for leaf in self.leaves], sizes)
        # a new chunk begins where the next leaf would take the current one
        # past the budget; a leaf larger than the budget is a chunk alone
        budget = max(1, _SWEEP_BYTES // (16 * (2 * self.P + 1)))
        bounds = [0]
        for i in range(1, len(starts)):
            if starts[i] + sizes[i] - starts[bounds[-1]] > budget:
                bounds.append(i)
        bounds.append(len(starts))
        # (particle slice, leaf node ids, leaf starts within the slice)
        self.chunks = [(slice(starts[i], starts[j - 1] + sizes[j - 1]), ids[i:j],
                        starts[i:j] - starts[i]) for i, j in zip(bounds, bounds[1:])]

    def _unordered_near_pairs(self):
        """Each near leaf pair once; raises unless the near map is symmetric.

        The free-space near field evaluates one kernel block per pair for
        both directions, so a one-sided entry of the map would be summed
        in a direction the map does not ask for.
        """
        nodes = list(self.tree.nodes.values())
        ordered = {(self.ids[tgt], self.ids[src]) for tgt, srcs in self.near.items()
                   for src in srcs}
        for i, j in ordered:
            if (j, i) not in ordered:
                a, b = nodes[i], nodes[j]
                raise ValueError(
                    f"near map is not symmetric: leaf {a.index} at level {a.level} lists "
                    f"leaf {b.index} at level {b.level}, which does not list it")
        return [(nodes[i], nodes[j]) for i, j in sorted(ordered) if i <= j]

    def _plan_tables(self):
        """Fill far, near_reads, line_image and cut: one pair_key call per V pair and near pair."""
        y0 = self.tree.root_xy[1]
        for level, pairs in self.vpairs.items():
            self.far[level] = self.grouped((layered.pair_key(y0, tgt, src), src, tgt)
                                           for src, tgt in pairs)
        three_layer = self.media.variant == "three-layer"
        reads = []
        for leaf, srcs in self.near.items():
            for src in srcs:
                key, flip = layered.pair_key(y0, leaf, src, near=True)
                if key.cut and three_layer:
                    self.cut.setdefault(leaf, []).append(src)
                    continue
                reads.append(((key, flip), src, leaf))
                if key.cut:
                    self.line_image.setdefault(leaf, []).append((src, key))
        self.near_reads = self.grouped(reads)

    def build_tables(self):
        """Load the table cache (or start a store) and fill it with every planned key."""
        if self.media.variant == "free":
            return
        cache = self.config.table_cache
        if cache and os.path.exists(cache):
            self.store = layered.load_tables(cache, self.media, self.P)
        else:
            self.store = layered.TableStore(self.media, self.P)
        keys = {key for groups in self.far.values() for key, _ in groups}
        keys.update(key for key, _ in self.near_reads)
        self.store.fill(keys)

    def grouped(self, keyed):
        """Node ids of (key, source, target) triples, grouped by key.

        Groups keep first-seen order.  Every key used here fixes the
        source of a target, so a target appears at most once per group.
        """
        groups = {}
        for key, src, tgt in keyed:
            s, t = groups.setdefault(key, ([], []))
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
    """P2M at the leaves, one sweep per chunk, then M2M toward the root, one GEMM per child quadrant."""
    P, k = ws.P, ws.k
    ws.multipole = np.zeros((len(ws.ids), 2 * P + 1), dtype=complex)
    for span, ids, starts in ws.chunks:
        ws.multipole[ids] = ex.p2m_arrays(ws.x[span], ws.y[span], ws.q[span],
                                          ws.cx[span], ws.cy[span], P, k, starts=starts)
    for level in sorted(ws.levels, reverse=True):
        hw = 0.5 ** (level + 2)  # half width of the children
        pairs = ws.grouped((_quadrant(child, node), child, node)
                           for node in ws.levels[level] for child in node.children)
        _translate(ws.multipole, ws.multipole, pairs,
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
        parents = ws.grouped((_quadrant(node, node.parent), node.parent, node)
                             for node in nodes if node.parent is not None)
        _translate(ws.local, ws.local, parents,
                   lambda o: ex.translation_vector_j(k, *_offsets(o, hw), P), "m-p")
        _translate(ws.local, ws.multipole,
                   ws.grouped((_index_offset(src, tgt), src, tgt) for src, tgt in ws.vpairs[level]),
                   lambda o: ex.translation_vector_h(k, *_offsets(o, 2 * hw), P), "m-p")
        if ws.store is not None:
            # the scattered part: image coefficients through one table entry
            # per (key, flip), so the pairs of one geometry share a GEMM
            _translate(ws.local, ws.image, ws.far[level],
                       lambda keys: [ws.store.get(*kf) for kf in keys], "m-p")


def local_values(coeffs, xs, ys, cx, cy, k: float) -> np.ndarray:
    """Local expansion (i/4) sum_p beta_p J_p(k r) e^{i p theta} at the targets.

    coeffs holds beta_p for p = -P..P, one row for every target or one
    row per target, shape (n, 2P+1); (r, theta) is the polar offset of
    each target (xs, ys) about the expansion center (cx, cy), one center
    for every target or one per target.
    """
    P = (np.shape(coeffs)[-1] - 1) // 2
    dx = np.asarray(xs, dtype=float) - cx
    dy = np.asarray(ys, dtype=float) - cy
    js = ex._signed_orders(bessel_j_sweep(P, k * np.hypot(dx, dy)), P)
    # built in place, so that a sweep over many leaves holds one complex block
    terms = np.outer(1j * np.arange(-P, P + 1), np.arctan2(dy, dx))
    np.exp(terms, out=terms)
    terms *= js
    terms *= np.reshape(np.transpose(coeffs), (2 * P + 1, -1))
    return 0.25j * terms.sum(axis=0)


def _local_potentials(ws):
    """Every leaf's local expansion at its own particles, in tree order: one sweep per chunk."""
    out = np.empty(len(ws.q), dtype=complex)
    for span, _, _ in ws.chunks:
        out[span] = local_values(ws.local[ws.row[span]], ws.x[span], ws.y[span],
                                 ws.cx[span], ws.cy[span], ws.k)
    return out


def _near_free(ws, out):
    """out += the free-space near field: one kernel block per unordered near pair.

    G is symmetric in target and source, so a block gives both
    directions: out_A += G @ q_B and out_B += G.T @ q_A.
    """
    x, y, q, k = ws.x, ws.y, ws.q, ws.k
    for tgt, src in ws.near_pairs:
        a, b = tgt.span
        c, d = src.span
        r = np.hypot(x[a:b, None] - x[None, c:d], y[a:b, None] - y[None, c:d])
        if src is tgt:
            np.fill_diagonal(r, 1.0)  # masked below; omits the singular self term
        g = 0.25j * hankel0(k * r)
        if src is tgt:
            np.fill_diagonal(g, 0.0)
            out[a:b] += g @ q[a:b]
        else:
            out[a:b] += g @ q[c:d]
            out[c:d] += g.T @ q[a:b]


def _near_cut(ws, out):
    """out += the scattered near field of cut pairs the tables leave out, per target leaf."""
    k, x, y, q = ws.k, ws.x, ws.y, ws.q
    # two-layer near-interface part I: point image plus truncated line image
    gl_x, gl_w = legendre_base(32)
    for leaf, pairs in ws.line_image.items():
        a, b = leaf.span
        tx, ty = x[a:b], y[a:b]
        for src, key in pairs:
            C = ws.store.geometry(key).cutoff
            c, d = src.span
            sx, sy, sq = x[c:d], y[c:d], q[c:d]
            r_img = np.hypot(tx[:, None] - sx[None, :], ty[:, None] + sy[None, :])
            out[a:b] += (0.25j * hankel0(k * r_img)) @ sq
            s_nodes = 0.5 * C * (gl_x + 1.0)
            s_w = 0.5 * C * gl_w
            mu = 2j * ws.media.alpha * np.exp(1j * ws.media.alpha * s_nodes)
            for idx in range(len(s_nodes)):
                r_line = np.hypot(tx[:, None] - sx[None, :],
                                  ty[:, None] + sy[None, :] + s_nodes[idx])
                out[a:b] += (s_w[idx] * mu[idx]) * ((0.25j * hankel0(k * r_line)) @ sq)
    # three-layer near-interface: one spectral sum over every cut source
    for leaf, srcs in ws.cut.items():
        a, b = leaf.span
        idx = np.concatenate([np.arange(*src.span) for src in srcs])
        out[a:b] += scattered_sum(ws.media, x[a:b], y[a:b], x[idx], y[idx], q[idx])


def _leaf_potentials(ws):
    """Potentials at every particle, in tree order: local expansions plus near field.

    The near pairs that read a table entry go into the leaf local
    expansions first, one GEMM per (key, flip) as in the downward pass.
    """
    if ws.store is not None:
        _translate(ws.local, ws.image, ws.near_reads,
                   lambda keys: [ws.store.get(*kf) for kf in keys], "m-p")
    out = _local_potentials(ws)
    _near_free(ws, out)
    _near_cut(ws, out)
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
    values = np.empty(len(particles), dtype=complex)
    values[ws.tree.perm] = _leaf_potentials(ws)
    timings["near"] = time.perf_counter() - t1

    # one write per call, and only when this call computed an entry
    if config.table_cache and ws.store is not None and ws.store.misses:
        t1 = time.perf_counter()
        layered.save_tables(ws.store, config.table_cache)
        timings["tables"] += time.perf_counter() - t1
    timings["total"] = time.perf_counter() - t0
    store = ws.store
    counts = {"entries_computed": store.misses if store else 0,
              "entries_held": len(store.entries) if store else 0,
              "grid_nodes": store.grid_nodes if store else 0,
              "leaves": len(ws.leaves),
              "near_pairs": sum(len(srcs) for srcs in ws.near.values()),
              "near_blocks": len(ws.near_pairs)}
    return PotentialVector(values=values, timings=timings, counts=counts)
