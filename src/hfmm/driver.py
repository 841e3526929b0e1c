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
from . import greens, layered
from .greens import MediaConfig, QuadratureConvergenceError, scattered_batch, spectral_breakpoints
from .quadrature import cosine_panels, legendre_base
# bessel_j_sweep has no caller here; the benchmark tracer wraps this binding
from .specfun import bessel_j_sweep, hankel0  # noqa: F401
from .tree import TreeConfig, _ranges, build_lists, build_tree, near_source_leaves

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
    # end; evanescent nodes of the grids that computed them; leaves; the
    # deepest level; V pairs; ordered near (target, source) leaf pairs;
    # the most source leaves of one target leaf; unordered near leaf
    # pairs, each of which the free-space near field evaluates once;
    # spectral nodes of the three-layer cut field's grid, summed over its
    # doubling levels (0 without cut rows)
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


def _particle_arrays(particles, media):
    """Positions and charges as arrays, once per call.

    Refuses non-finite input, particles on or below the interface and
    distinct coincident ones.
    """
    xs = np.array([p.position.x for p in particles], dtype=float)
    ys = np.array([p.position.y for p in particles], dtype=float)
    qs = np.array([p.strength for p in particles], dtype=complex)
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
    return xs, ys, qs


# ---------------------------------------------------------------------------
# direct reference


def direct_apply(particles, media: MediaConfig, tol: float = 1e-12,
                 max_n: int = 20000) -> PotentialVector:
    """O(N^2) reference potentials via the quadrature oracle."""
    n = len(particles)
    if n > max_n:
        raise ValueError(f"direct_apply guard: N={n} > {max_n} (raise max_n to override)")
    xs, ys, qs = _particle_arrays(particles, media)

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


# Particles per sweep of P2M or local evaluation: a chunk's (2P+1) x n
# complex block of Bessel terms stays near this many bytes.  The near
# field holds each of its complex kernel blocks, and the particle-column
# index of each run of rows, under the same budget.
_SWEEP_BYTES = 1 << 18


def _runs(edges, budget):
    """[0, ..., len(edges) - 1]: cuts of the items between increasing edges into
    runs of consecutive items that span at most budget, or one wider item alone."""
    cuts = [0]
    while cuts[-1] < len(edges) - 1:
        i = cuts[-1]
        cuts.append(max(i + 1, int(np.searchsorted(edges, edges[i] + budget, "right")) - 1))
    return cuts


def _rows(tgt, src):
    """(targets, bounds, src): (tgt, src) leaf pairs, sorted by target, as one row per target.

    Row i lists the source leaves of targets[i]: src[bounds[i]:bounds[i + 1]]."""
    first = np.flatnonzero(np.diff(tgt, prepend=-1))
    return tgt[first], np.r_[first, len(tgt)], src


def _groups(src, tgt, *columns):
    """(rows, src, tgt, bounds): the distinct rows of the integer columns, sorted,
    and the pairs in group order, from one lexsort; group i holds the pairs
    bounds[i]:bounds[i + 1], in their given order."""
    order = np.lexsort(columns[::-1])
    cols = np.stack([column[order] for column in columns])
    new = np.ones(cols.shape[1], dtype=bool)
    new[1:] = np.any(cols[:, 1:] != cols[:, :-1], axis=0)
    first = np.flatnonzero(new)
    return cols[:, first].T, src[order], tgt[order], np.r_[first, cols.shape[1]]


def _per_level(level, src, tgt, *columns):
    """{level: (rows, src, tgt, bounds)}: one group-by, sliced by level."""
    rows, src, tgt, bounds = _groups(src, tgt, level, *columns)
    levels, first = np.unique(rows[:, 0], return_index=True)
    cuts = np.r_[first, len(rows)].tolist()
    return {lev: (rows[a:b, 1:], src[bounds[a]:bounds[b]], tgt[bounds[a]:bounds[b]],
                  bounds[a:b + 1] - bounds[a])
            for lev, a, b in zip(levels.tolist(), cuts[:-1], cuts[1:])}


class _Workspace:
    """Per-run state: tree, scaled media, coefficient arrays and the integer plan.

    The tree (tree.py) is node-id arrays, and the passes read them as
    built: the workspace names level, ix, iy, start, stop and leaves
    (leaf ids in particle order) from it and adds per id a row of
    multipole, local and image.  _plan_nodes adds near, the ordered
    near leaf pairs as (tgt, src) id arrays; blocks, each near pair
    once; row, cx, cy: each particle's leaf id and leaf center; chunks:
    runs of leaves, each one P2M and one local evaluation sweep.
    One group-by (_groups), sliced by target level, makes every grouping,
    a GEMM per group: quadrants[level] (M2M, L2L), offsets[level] (free
    M2L), and in a layered run far[level], every pair that reads a table
    entry (V pairs and near pairs, from one pair_key call) by (key, flip);
    line_image, the two-layer cut pairs as (tgt, src, cutoff C) arrays,
    which also read a B-tail entry and take the [0, C] line image; and
    cut, the three-layer pairs cut near the interface, as rows by target
    leaf.  near_rows lays out the blocks as one row (_rows) of source leaf
    ids per target leaf.  cut_nodes counts the nodes of the cut field's grid.
    """

    def __init__(self, particles, config):
        self.config = config
        xs, ys, qs = _particle_arrays(particles, config.media)
        tree = self.tree = build_tree(xs, ys, TreeConfig(leaf_capacity=config.leaf_capacity))
        build_lists(tree)
        self.level, self.ix, self.iy = tree.level, tree.ix, tree.iy
        self.start, self.stop, self.leaves = tree.start, tree.stop, tree.leaves
        self.media = config.media.rescaled(1.0 / tree.side)
        self.k = self.media.k1
        self.q = qs[tree.perm]
        self.x, self.y = tree.x, tree.y
        self.P = config.order
        self.multipole = self.local = self.image = None
        self._plan_nodes()
        level, ix, iy = self.level, self.ix, self.iy
        child = np.arange(1, len(level))
        self.quadrants = _per_level(level[child], tree.parent[child], child,
                                    2 * (ix[child] & 1) - 1, 2 * (iy[child] & 1) - 1)
        src, tgt = tree.v_src, tree.v_tgt
        self.offsets = _per_level(level[tgt], src, tgt, ix[tgt] - ix[src], iy[tgt] - iy[src])
        self.store, self.far = None, {}
        none = np.zeros(0, dtype=np.int64)
        self.line_image = (none, none, np.zeros(0))
        self.cut, self.cut_nodes = _rows(none, none), 0
        if self.media.variant != "free":
            self._plan_tables()
        # blocks are sorted by (tgt, src) and each leaf pairs with itself,
        # so a row starts with its own leaf
        self.near_rows = _rows(*self.blocks)

    def _plan_nodes(self):
        """Near pairs, kernel blocks and the leaf sweeps.

        The near map must be symmetric: _near_free sums both directions
        of a pair from one kernel block.
        """
        tgt, src = near_source_leaves(self.tree)
        n = len(self.level)
        one_sided = ~np.isin(src * n + tgt, tgt * n + src)
        if one_sided.any():
            a, b = ((int(self.level[i]), int(self.ix[i]), int(self.iy[i]))
                    for i in (tgt[np.argmax(one_sided)], src[np.argmax(one_sided)]))
            raise ValueError(f"near map is not symmetric: leaf {a[1:]} at level {a[0]} lists "
                             f"leaf {b[1:]} at level {b[0]}, which does not list it")
        self.near = (tgt, src)
        self.blocks = np.divmod(np.unique((tgt * n + src)[tgt <= src]), n)
        starts, ends = self.start[self.leaves], self.stop[self.leaves]
        sizes = ends - starts
        self.row = np.repeat(self.leaves, sizes)
        self.cx = np.repeat(self.tree.cx[self.leaves], sizes)
        self.cy = np.repeat(self.tree.cy[self.leaves], sizes)
        bounds = _runs(np.r_[starts, ends[-1:]], _SWEEP_BYTES // (16 * (2 * self.P + 1)))
        # (particle slice, leaf node ids, leaf starts within the slice)
        self.chunks = [(slice(starts[i], ends[j - 1]), self.leaves[i:j], starts[i:j] - starts[i])
                       for i, j in zip(bounds, bounds[1:])]

    def _plan_tables(self):
        """Fill far, line_image and cut from one pair_key call over the V pairs and the near pairs."""
        tree = self.tree
        y0 = tree.root_xy[1]
        cells = np.stack((self.level, self.ix, self.iy))
        src, tgt = np.r_[tree.v_src, self.near[1]], np.r_[tree.v_tgt, self.near[0]]
        keys, flip = layered.pair_key(y0, cells[:, tgt], cells[:, src],
                                      near=np.arange(len(src)) >= len(tree.v_src))
        cut = keys[:, 3] > 0
        line = cut & (self.media.variant == "two-layer")
        cut &= ~line
        read = ~cut
        groups = _per_level(self.level[tgt[read]], src[read], tgt[read], *keys[read].T, flip[read])
        # (key, flip) of each (shift, ax, sy, cut, flip) row
        self.far = {level: ([(layered.TableKey(y0, *row[:4]), bool(row[4]))
                             for row in rows.tolist()], *pairs)
                    for level, (rows, *pairs) in groups.items()}
        self.cut = _rows(tgt[cut], src[cut])
        shift, cutoff = keys[line, 0], keys[line, 3]
        self.line_image = (tgt[line], src[line], np.ldexp(cutoff, -shift) - 2.0 * y0)

    def build_tables(self):
        """Load the table cache (or start a store) and fill it with every planned key."""
        if self.media.variant == "free":
            return
        cache = self.config.table_cache
        if cache and os.path.exists(cache):
            self.store = layered.load_tables(cache, self.media, self.P)
        else:
            self.store = layered.TableStore(self.media, self.P)
        self.store.fill({key for reads, *_ in self.far.values() for key, _ in reads})


def _translate(out, coeffs, groups, vectors, index):
    """out[tgt] += T(vector) @ coeffs[src]: one Toeplitz matrix, gather, GEMM and scatter per group.

    groups is (rows, src, tgt, bounds) (_groups) or None, vectors(rows)
    all its vectors at once.  A group's pairs share one translation, which
    fixes each target's source, so no group repeats a target.
    """
    if groups is None:
        return
    rows, src, tgt, bounds = groups
    P = (out.shape[1] - 1) // 2
    for vec, a, b in zip(vectors(rows), bounds[:-1].tolist(), bounds[1:].tolist()):
        out[tgt[a:b]] += coeffs[src[a:b]] @ ex.translation_matrix(vec, P, index).T


def _upward(ws):
    """P2M at the leaves, one sweep per chunk, then M2M toward the root, one GEMM per child quadrant."""
    P, k = ws.P, ws.k
    ws.multipole = np.zeros((len(ws.level), 2 * P + 1), dtype=complex)
    for span, ids, starts in ws.chunks:
        ws.multipole[ids] = ex.p2m_arrays(ws.x[span], ws.y[span], ws.q[span],
                                          ws.cx[span], ws.cy[span], P, k, starts=starts)
    for level in sorted(ws.quadrants, reverse=True):
        hw = 0.5 ** (level + 1)  # half width of the children
        quadrants, parents, children, bounds = ws.quadrants[level]
        _translate(ws.multipole, ws.multipole, (quadrants, children, parents, bounds),
                   lambda q: np.conj(ex.translation_vector_j(k, *(hw * q.T), P)), "p-m")


def _downward(ws):
    """L2L from parents, free M2L and every table read, level by level.

    A leaf's local expansion is final once its level is done, so the near
    pairs that read a table entry join the M2L of their target leaf's level.
    """
    P, k = ws.P, ws.k
    ws.local = np.zeros_like(ws.multipole)
    if ws.store is not None:
        ws.image = ex.image_coefficients(ws.multipole)
    for level in range(int(ws.level[-1]) + 1):
        hw = 0.5 ** (level + 1)  # half width of the boxes at this level
        _translate(ws.local, ws.local, ws.quadrants.get(level),
                   lambda q: ex.translation_vector_j(k, *(hw * q.T), P), "m-p")
        _translate(ws.local, ws.multipole, ws.offsets.get(level),
                   lambda o: ex.translation_vector_h(k, *(2 * hw * o.T), P), "m-p")
        # the scattered part: image coefficients through one table entry
        # per (key, flip), so the V and near pairs of one geometry share a GEMM
        _translate(ws.local, ws.image, ws.far.get(level),
                   lambda reads: [ws.store.get(*read) for read in reads], "m-p")


def local_values(coeffs, xs, ys, cx, cy, k: float) -> np.ndarray:
    """Local expansion (i/4) sum_p beta_p J_p(k r) e^{i p theta} at the targets.

    coeffs holds beta_p for p = -P..P, one row for every target or one
    row per target, shape (n, 2P+1); (r, theta) is the polar offset of
    each target (xs, ys) about the expansion center (cx, cy), one center
    for every target or one per target.
    """
    P = (np.shape(coeffs)[-1] - 1) // 2
    terms = ex.signed_harmonics(P, k, np.asarray(xs, dtype=float) - cx,
                                np.asarray(ys, dtype=float) - cy)
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
    """out += the free-space near field: one row of kernel blocks per target leaf.

    A target leaf t's row holds the particles of its near source leaves
    s >= t, its own first, cut into column chunks whose complex block
    stays under _SWEEP_BYTES.  G is symmetric in target and source, so
    a block gives both directions: out_t += G @ q_s and, for s > t,
    out_s += G.T @ q_t.
    """
    x, y, q, k, start, stop = ws.x, ws.y, ws.q, ws.k, ws.start, ws.stop
    targets, bounds, srcs = ws.near_rows
    # each row's first column; the particle columns are built per run of rows
    edges = np.r_[0, np.cumsum(stop[srcs] - start[srcs])][bounds]
    cuts = _runs(edges, _SWEEP_BYTES // 8)  # 8 bytes per int64 column id
    for first, last in zip(cuts, cuts[1:]):  # rows first..last - 1
        run = srcs[bounds[first]:bounds[last]]
        cols = _ranges(start[run], stop[run])
        row_edges = (edges[first:last + 1] - edges[first]).tolist()
        for t, lo, hi in zip(targets[first:last].tolist(), row_edges[:-1], row_edges[1:]):
            a, b = int(start[t]), int(stop[t])
            n = b - a
            width = max(1, _SWEEP_BYTES // (16 * n))
            for off in range(0, hi - lo, width):  # off: the chunk's first column in the row
                j = cols[lo + off:min(lo + off + width, hi)]
                dx = x[a:b, None] - x[j]
                dy = y[a:b, None] - y[j]
                dx *= dx
                dy *= dy
                r = np.add(dx, dy, out=dx)
                np.sqrt(r, out=r)
                r *= k
                # the own leaf's diagonal in this chunk: masked below, omits
                # the singular self term
                own = np.arange(off, min(n, off + len(j)))
                r[own, own - off] = 1.0
                g = hankel0(r)
                g[own, own - off] = 0.0
                out[a:b] += 0.25j * (g @ q[j])
                past = max(n - off, 0)  # the chunk's first column of a source s > t
                if past < len(j):
                    out[j[past:]] += 0.25j * (q[a:b] @ g[:, past:])


def _near_cut(ws, out):
    """out += the scattered near field of cut pairs the tables leave out."""
    k, x, y, q, start, stop = ws.k, ws.x, ws.y, ws.q, ws.start, ws.stop
    # two-layer near-interface part I: the point image plus the truncated
    # line image, as one kernel sum over the stacked nodes per cut pair
    gl_x, gl_w = legendre_base(32)
    alpha = ws.media.alpha
    for t, s, C in zip(*(a.tolist() for a in ws.line_image)):
        a, b, c, d = int(start[t]), int(stop[t]), int(start[s]), int(stop[s])
        s_nodes = 0.5 * C * (gl_x + 1.0)
        shifts = np.r_[0.0, s_nodes]
        weights = np.r_[1.0, 0.5 * C * gl_w * (2j * alpha * np.exp(1j * alpha * s_nodes))]
        dx2 = np.subtract.outer(x[a:b], x[c:d])
        dx2 *= dx2
        height = np.add.outer(y[a:b], y[c:d])
        step = max(1, _SWEEP_BYTES // (16 * dx2.size))
        g = np.zeros(dx2.shape, dtype=complex)
        for i in range(0, len(shifts), step):
            r = height + shifts[i:i + step, None, None]
            r *= r
            r += dx2
            np.sqrt(r, out=r)
            r *= k
            g += np.tensordot(weights[i:i + step], hankel0(r), axes=1)
        out[a:b] += 0.25j * (g @ q[c:d])
    # three-layer near-interface: every cut row on one spectral grid
    if len(ws.cut[0]):
        targets, u, ws.cut_nodes = _cut_field(ws)
        out[targets] += u


_CUT_CAP = 1024  # the most nodes per panel of the cut field's grid


def _cut_field(ws):
    """(targets, u, nodes): the scattered field of the three-layer cut rows, on one grid.

    The grid: cosine panels over [0, pi] broken at the kinks of sigma, and
    the table entries' geometric evanescent panels (layered._panel_edges)
    up to the cutoff of the smallest y_t + y_s.  At a node the integrand of
    u^s (greens.scattered_batch) is a target times a source factor, both of
    modulus <= 1: e^{ik(y_t sin tau - x_t cos tau)} e^{ik(y_s sin tau + x_s
    cos tau)}, and E_t conj(E_s) + conj(E_t) E_s with E = e^{-t y + i root x}.
    A level evaluates sigma once per contour, and the rows' source sums as
    per-leaf sums times a leaf-row membership matrix, in node chunks under
    _SWEEP_BYTES.  Nodes per panel double from 16 until u changes by at most
    1e-12 relative to max(|u_i|, the row's sum |q|), or past _CUT_CAP raise
    QuadratureConvergenceError.  nodes counts the nodes of all levels.
    """
    leaves, bounds, srcs = ws.cut
    start, stop, media, k = ws.start, ws.stop, ws.media, ws.k
    # factors once per particle of a cut leaf, summed per leaf (first: each
    # leaf's first point); member[leaf, row] = 1 where row lists leaf as a source
    every = np.union1d(leaves, srcs)
    sizes = stop[every] - start[every]
    points = _ranges(start[every], stop[every])
    first = np.r_[0, np.cumsum(sizes)[:-1]]
    i, j = np.searchsorted(every, leaves), np.searchsorted(every, srcs)
    tp = _ranges(first[i], first[i] + sizes[i])
    row = np.repeat(np.arange(len(leaves)), sizes[i])
    member = np.zeros((len(every), len(leaves)))
    member[j, np.repeat(np.arange(len(leaves)), np.diff(bounds))] = 1.0
    qp = ws.q[points]
    floor = (np.add.reduceat(np.abs(qp), first) @ member)[row]
    # phases about a nearby origin keep their arguments small
    px, py = ws.x[points] - 0.5 * (ws.x[points].min() + ws.x[points].max()), ws.y[points]
    low = np.minimum.reduceat(py, first)
    dy = float(low[i].min() + low[j].min())
    prop_edges = [0.0, *spectral_breakpoints(media, "propagating", np.pi), np.pi]
    evan_edges = layered._panel_edges(media, 0, dy)
    step = max(1, _SWEEP_BYTES // (16 * len(points)))

    def field(tgt, src, weight):  # sum over the nodes of tgt * weight * the rows' source sums
        sums = np.add.reduceat(src * qp, first, axis=1) @ member
        return np.einsum("ji,ji->i", tgt, (weight[:, None] * sums)[:, row])

    def level(count):
        tau, w = cosine_panels(prop_edges, count)
        ks, kc = k * np.sin(tau), k * np.cos(tau)
        w = 0.25j / np.pi * w * greens.reflectance(media, -1j * ks)
        u = sum(field(np.exp(1j * (np.outer(ks[c], py[tp]) - np.outer(kc[c], px[tp]))),
                      np.exp(1j * (np.outer(ks[c], py) + np.outer(kc[c], px))), w[c])
                for c in map(slice, range(0, len(tau), step), range(step, len(tau) + step, step)))
        t, v = cosine_panels(evan_edges, count)
        root = np.hypot(t, k)
        v = 0.25 / np.pi * v * greens.reflectance(media, t.astype(complex)) / root
        for c in map(slice, range(0, len(t), step), range(step, len(t) + step, step)):
            e = np.exp(np.outer(-t[c], py) + 1j * np.outer(root[c], px))
            u += field(e[:, tp], np.conj(e), v[c]) + field(np.conj(e[:, tp]), e, v[c])
        return u

    count, prev = 16, None
    while True:
        u = level(count)
        if prev is not None and np.all(np.abs(u - prev) <= 1e-12 * np.maximum(np.abs(u), floor)):
            return points[tp], u, (2 * count - 16) * (len(prop_edges) + len(evan_edges) - 2)
        if 2 * count > _CUT_CAP:
            raise QuadratureConvergenceError(f"three-layer cut field did not converge at {count} "
                                             f"nodes per panel (smallest y_t + y_s {dy:.3g})")
        prev, count = u, 2 * count


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

    # the leaf potentials in tree order: local expansions, then the near
    # field; near is the sum of its three sub-phases
    t1 = time.perf_counter()
    out = _local_potentials(ws)
    timings["near_local"] = time.perf_counter() - t1
    for phase, near in (("near_free", _near_free), ("near_cut", _near_cut)):
        t1 = time.perf_counter()
        near(ws, out)
        timings[phase] = time.perf_counter() - t1
    timings["near"] = timings["near_local"] + timings["near_free"] + timings["near_cut"]
    values = np.empty(len(particles), dtype=complex)
    values[ws.tree.perm] = out

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
              "depth": ws.tree.max_depth,
              "v_pairs": len(ws.tree.v_src),
              "near_pairs": len(ws.near[0]),
              "max_near": int(np.bincount(ws.near[0]).max()),
              "near_blocks": len(ws.blocks[0]),
              "cut_nodes": ws.cut_nodes}
    return PotentialVector(values=values, timings=timings, counts=counts)
