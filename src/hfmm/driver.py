"""Fast-summation orchestration: upward pass, downward pass, near field.

fmm_apply evaluates u_i = sum_j q_j u_{x_j}(x_i) for the configured
medium, where u_{x_0} is the domain Green's function.  The free-space
singular self term (j = i) is omitted; the finite scattered self term
is kept, so that an alpha = 0 two-layer run equals a free-space run on
sources plus mirror images.

direct_apply is the O(N^2) reference built on the Sommerfeld-quadrature
oracle (greens.scattered_batch), one block of target rows at a time;
error_metric is the relative l2 error over the first M targets.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import expansions as ex
from . import greens, layered
from .greens import MediaConfig, scattered_batch
from .quadrature import budget_slices, panel_rule, refine
# bessel_j_sweep has no caller here; the benchmark tracer wraps this binding
from .specfun import _SERIES_MAX_ARG, bessel_j_sweep, hankel0, hankel0_sq  # noqa: F401
from .tree import _ranges, build_lists, build_tree, near_source_leaves

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
    """O(N^2) reference potentials, one block of target rows at a time.

    A block's free-space rows come from hankel0 with the singular self
    terms masked, and in layered media its scattered rows from the
    quadrature oracle (greens.scattered_batch, to tol); one matrix-vector
    product per block, so memory is O(block), not O(N^2).  tol must lie in
    [1e-14, 1e-6] in every medium, free space included.
    """
    n = len(particles)
    if n > max_n:
        raise ValueError(f"direct_apply guard: N={n} > {max_n} (raise max_n to override)")
    greens.check_tol(tol)
    xs, ys, qs = _particle_arrays(particles, media)

    t0 = time.perf_counter()
    out = np.empty(n, dtype=complex)
    # blocks of rows under _SWEEP_BYTES: a near-interface pair can need
    # thousands of quadrature nodes
    for block in budget_slices(n, max(n, 1), _SWEEP_BYTES):
        a, b = block.start, min(block.stop, n)
        own = (np.arange(b - a), np.arange(a, b))  # the block's diagonal
        dx = xs[a:b, None] - xs
        r = np.hypot(dx, ys[a:b, None] - ys)
        r[own] = 1.0  # masked below; avoids the singular self term
        g = 0.25j * hankel0(media.k1 * r)
        g[own] = 0.0
        if media.variant != "free":
            g += scattered_batch(media, dx.ravel(), (ys[a:b, None] + ys).ravel(),
                                 tol).reshape(b - a, n)
        out[a:b] = g @ qs
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
    and the pairs in group order; group i holds the pairs bounds[i]:bounds[i + 1],
    in their given order (one stable lexsort of the columns).
    """
    order = np.lexsort(columns[::-1])
    cols = np.stack([column[order] for column in columns])
    new = np.ones(len(src), dtype=bool)
    new[1:] = np.any(cols[:, 1:] != cols[:, :-1], axis=0)
    first = np.flatnonzero(new)
    return np.ascontiguousarray(cols[:, first].T), src[order], tgt[order], np.r_[first, len(src)]


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
    entry (V pairs and near pairs, from one pair_key call) by the key rows
    (shift, ax, sy, cut, flip) of root height y0 that TableStore.get reads;
    line_image, the two-layer cut pairs, which also read a B-tail entry and
    take the [0, C] line image, as (tgt, src, cutoff C, mirror) arrays:
    each unordered pair once, like blocks, mirror where its reverse is cut
    too (both share one key, so one C); and cut, the three-layer pairs cut
    near the interface, as rows by target leaf.  near_rows lays out the
    blocks as one row (_rows) of source leaf ids per target leaf.
    cut_nodes counts the nodes of the cut field's grid; timings, the
    call's wall times (fmm_apply).
    """

    def __init__(self, particles, config):
        self.config = config
        xs, ys, qs = _particle_arrays(particles, config.media)
        tree = self.tree = build_tree(xs, ys, config.leaf_capacity)
        build_lists(tree)
        self.level, self.ix, self.iy = tree.level, tree.ix, tree.iy
        self.start, self.stop, self.leaves = tree.start, tree.stop, tree.leaves
        self.media = config.media.rescaled(1.0 / tree.side)
        self.k = self.media.k1
        self.q = qs[tree.perm]
        self.x, self.y = tree.x, tree.y
        self.P = config.order
        self.multipole = self.local = self.image = None
        self.timings = dict.fromkeys(_OPERATORS, 0.0)
        self._plan_nodes()
        level, ix, iy = self.level, self.ix, self.iy
        child = np.arange(1, len(level))
        self.quadrants = _per_level(level[child], tree.parent[child], child,
                                    2 * (ix[child] & 1) - 1, 2 * (iy[child] & 1) - 1)
        src, tgt = tree.v_src, tree.v_tgt
        self.offsets = _per_level(level[tgt], src, tgt, ix[tgt] - ix[src], iy[tgt] - iy[src])
        self.store, self.far, self.y0 = None, {}, tree.root_xy[1]
        none = np.zeros(0, dtype=np.int64)
        self.line_image = (none, none, np.zeros(0), np.zeros(0, dtype=bool))
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
        # near_source_leaves gives the pairs unique and sorted by (tgt, src)
        self.blocks = tgt[tgt <= src], src[tgt <= src]
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
        cells = np.stack((self.level, self.ix, self.iy))
        src, tgt = np.r_[tree.v_src, self.near[1]], np.r_[tree.v_tgt, self.near[0]]
        keys, flip = layered.pair_key(self.y0, cells[:, tgt], cells[:, src],
                                      near=np.arange(len(src)) >= len(tree.v_src))
        cut = keys[:, 3] > 0
        line = cut & (self.media.variant == "two-layer")
        cut &= ~line
        read = ~cut
        self.far = _per_level(self.level[tgt[read]], src[read], tgt[read], *keys[read].T, flip[read])
        self.cut = _rows(tgt[cut], src[cut])
        tgt, src, cutoff = tgt[line], src[line], layered.key_geometry(self.y0, *keys[line].T)[2]
        n = len(self.level)
        both = np.isin(src * n + tgt, tgt * n + src)
        once = ~both | (tgt <= src)
        self.line_image = (tgt[once], src[once], cutoff[once], (both & (tgt != src))[once])


# the timings key of each translation operator, and its name in errors
_OPERATORS = {"m2m": "M2M", "l2l": "L2L", "m2l_free": "M2L", "m2l_table": "table"}


def _translate(ws, out, coeffs, groups, vectors, phase, level):
    """out[tgt] += T(vector) @ coeffs[src]: one Toeplitz matrix, gather, GEMM and scatter per group.

    groups is (rows, src, tgt, bounds) (_groups) or None, vectors(rows)
    all its vectors at once, one row each; T[p, m] = vector[m - p].  A
    group's pairs share one translation, which fixes each target's source,
    so no group repeats a target.  Its wall time adds to ws.timings[phase].
    A non-finite vector (H_{2P} overflows at high P and small k*w) raises
    ValueError naming the operator, level and k*w.
    """
    if groups is None:
        return
    t0 = time.perf_counter()
    rows, src, tgt, bounds = groups
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        vecs = vectors(rows)
    if not np.isfinite(vecs).all():
        raise ValueError(f"{_OPERATORS[phase]} vectors at level {level} are not finite "
                         f"(k*w = {ws.k * 0.5 ** level:.3g}, P = {ws.P})")
    for vec, a, b in zip(vecs, bounds[:-1].tolist(), bounds[1:].tolist()):
        out[tgt[a:b]] += coeffs[src[a:b]] @ ex.translation_matrix(vec, ws.P).T
    ws.timings[phase] += time.perf_counter() - t0


def _tables(ws, out):
    """Load the table cache (or start a store) and fill it with every planned key."""
    if ws.media.variant == "free":
        return
    cache = ws.config.table_cache
    ws.store = (layered.load_tables(cache, ws.media, ws.P) if cache and os.path.exists(cache)
                else layered.TableStore(ws.media, ws.P))
    reads = [rows for rows, *_ in ws.far.values()]
    ws.store.fill(ws.y0, np.concatenate(reads) if reads else [])


def _upward(ws, out):
    """P2M at the leaves, one sweep per chunk, then M2M toward the root, one GEMM per child quadrant."""
    P, k = ws.P, ws.k
    ws.multipole = np.zeros((len(ws.level), 2 * P + 1), dtype=complex)
    for span, ids, starts in ws.chunks:
        ws.multipole[ids] = ex.p2m_arrays(ws.x[span], ws.y[span], ws.q[span],
                                          ws.cx[span], ws.cy[span], P, k, starts=starts)
    for level in sorted(ws.quadrants, reverse=True):
        hw = 0.5 ** (level + 1)  # half width of the children
        quadrants, parents, children, bounds = ws.quadrants[level]
        # the quadrant is the child center minus the parent's, in half widths
        _translate(ws, ws.multipole, ws.multipole, (quadrants, children, parents, bounds),
                   lambda q: ex.translation_vector_j(k, *(-hw * q.T), P), "m2m", level)


def _downward(ws, out):
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
        _translate(ws, ws.local, ws.local, ws.quadrants.get(level),
                   lambda q: ex.translation_vector_j(k, *(hw * q.T), P), "l2l", level)
        _translate(ws, ws.local, ws.multipole, ws.offsets.get(level),
                   lambda o: ex.translation_vector_h(k, *(2 * hw * o.T), P), "m2l_free", level)
        # the scattered part: image coefficients through one table entry
        # per (key, flip), so the V and near pairs of one geometry share a GEMM
        _translate(ws, ws.local, ws.image, ws.far.get(level),
                   lambda rows: ws.store.get(ws.y0, rows), "m2l_table", level)


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


def _local_potentials(ws, out):
    """out += every leaf's local expansion at its own particles: one sweep per chunk."""
    for span, _, _ in ws.chunks:
        out[span] += local_values(ws.local[ws.row[span]], ws.x[span], ws.y[span],
                                  ws.cx[span], ws.cy[span], ws.k)


def _kernel_sq(x2):
    """H_0^(1)(sqrt(x2)) of a near-field block, overwriting x2: hankel0_sq while
    every x2 is within the series bound, else hankel0 of the square roots."""
    if x2.max() <= _SERIES_MAX_ARG ** 2:
        return hankel0_sq(x2)
    return hankel0(np.sqrt(x2, out=x2))


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
            for chunk in budget_slices(hi - lo, n, _SWEEP_BYTES):
                off, j = chunk.start, cols[lo:hi][chunk]  # off: the chunk's first column
                dx = x[a:b, None] - x[j]
                dy = y[a:b, None] - y[j]
                dx *= dx
                dy *= dy
                r2 = np.add(dx, dy, out=dx)
                r2 *= k * k
                # the own leaf's diagonal in this chunk: masked below, omits
                # the singular self term; a tiny placeholder, since the
                # block's largest value sets the series' term count
                own = np.arange(off, min(n, off + len(j)))
                r2[own, own - off] = 1e-300
                g = _kernel_sq(r2)
                g[own, own - off] = 0.0
                out[a:b] += 0.25j * (g @ q[j])
                past = max(n - off, 0)  # the chunk's first column of a source s > t
                if past < len(j):
                    out[j[past:]] += 0.25j * (q[a:b] @ g[:, past:])


def _near_cut(ws, out):
    """out += the scattered near field of cut pairs the tables leave out."""
    k, x, y, q, start, stop = ws.k, ws.x, ws.y, ws.q, ws.start, ws.stop
    # two-layer near-interface part I: the point image plus the truncated
    # line image, as one kernel sum over the stacked nodes per cut pair.
    # The kernel depends on dx^2 and y_t + y_s alone, so where a pair is
    # mirrored one block g serves both, g @ q_s at t and g.T @ q_t at s
    alpha = ws.media.alpha
    for t, s, C, mirror in zip(*(a.tolist() for a in ws.line_image)):
        a, b, c, d = int(start[t]), int(stop[t]), int(start[s]), int(stop[s])
        height = np.add.outer(y[a:b], y[c:d])
        # the integrand's log singularity sits at s = -height: 32-node panels
        # halve toward s = 0 until the first is at most 24 smallest heights long
        edges = [0.0, C]
        while edges[1] > 24.0 * height.min():
            edges.insert(1, 0.5 * edges[1])
        s_nodes, s_w = panel_rule(edges, 32)
        shifts = np.r_[0.0, s_nodes]
        weights = np.r_[1.0, s_w * (2j * alpha * np.exp(1j * alpha * s_nodes))]
        dx2 = np.subtract.outer(x[a:b], x[c:d])
        dx2 *= dx2
        g = np.zeros(dx2.shape, dtype=complex)
        for part in budget_slices(len(shifts), dx2.size, _SWEEP_BYTES):
            r2 = height + shifts[part, None, None]
            r2 *= r2
            r2 += dx2
            r2 *= k * k
            g += np.tensordot(weights[part], _kernel_sq(r2), axes=1)
        out[a:b] += 0.25j * (g @ q[c:d])
        if mirror:
            out[c:d] += 0.25j * (q[a:b] @ g)
    # three-layer near-interface: every cut row on one spectral grid
    if len(ws.cut[0]):
        targets, u, ws.cut_nodes = _cut_field(ws)
        out[targets] += u


_CUT_CAP = 1024  # the most nodes per panel of the cut field's grid


def _cut_field(ws):
    """(targets, u, nodes): the scattered field of the three-layer cut rows, on one grid.

    The grid: the table entries' propagating rule over [0, pi], broken at
    the kinks of sigma (layered.propagating_rule), and their geometric
    evanescent panels (layered._panel_edges) up to the cutoff of the
    smallest y_t + y_s, with affine Gauss-Legendre nodes on every panel
    that no kink of sigma ends (quadrature.panel_rule).  At a node the integrand of u^s
    (greens.scattered_batch) is a target times a source factor, both of
    modulus <= 1: e^{ik(y_t sin tau - x_t cos tau)} e^{ik(y_s sin tau + x_s
    cos tau)}, and E_t conj(E_s) + conj(E_t) E_s with E = e^{-t y + i root x}.
    A level evaluates sigma once, and the rows' source sums as per-leaf sums
    times a leaf-row membership matrix, in node chunks under _SWEEP_BYTES.
    Each contour doubles its nodes per panel on its own (quadrature.refine),
    the propagating one from 16 and the evanescent one from 8, until its
    part of u changes by at most 1e-12 relative to max(that part's |u_i|,
    the row's sum |q|), or past _CUT_CAP raises QuadratureConvergenceError.
    nodes counts the nodes of all levels of both contours.
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
    evan_edges = layered._panel_edges(media, 0, dy)
    kinks = greens.spectral_breakpoints(media, "evanescent", evan_edges[-1])

    def field(tgt, src, weight):  # sum over the nodes of tgt * weight * the rows' source sums
        sums = np.add.reduceat(src * qp, first, axis=1) @ member
        return np.einsum("ji,ji->i", tgt, (weight[:, None] * sums)[:, row])

    def propagating(count):
        tau, w = layered.propagating_rule(media, count)
        ks, kc = k * np.sin(tau), k * np.cos(tau)
        w = 0.25j / np.pi * w * greens.reflectance(media, -1j * ks)
        return sum(field(np.exp(1j * (np.outer(ks[c], py[tp]) - np.outer(kc[c], px[tp]))),
                         np.exp(1j * (np.outer(ks[c], py) + np.outer(kc[c], px))), w[c])
                   for c in budget_slices(len(tau), len(points), _SWEEP_BYTES)), len(tau)

    def evanescent(count):
        t, v = panel_rule(evan_edges, count, kinks)
        root = np.hypot(t, k)
        v = 0.25 / np.pi * v * greens.reflectance(media, t.astype(complex)) / root
        u = 0.0
        for c in budget_slices(len(t), len(points), _SWEEP_BYTES):
            e = np.exp(np.outer(-t[c], py) + 1j * np.outer(root[c], px))
            u += field(e[:, tp], np.conj(e), v[c]) + field(np.conj(e[:, tp]), e, v[c])
        return u, len(t)

    nodes = 0

    def converged(contour, start, name):
        def grid(_, count):  # the one integral: u at every target row
            nonlocal nodes
            u, used = contour(count)
            nodes += used
            return np.reshape(u, (1, -1)), None

        u, _ = refine(grid, 1, start, _CUT_CAP,
                      lambda u, prev, _, last: np.all(np.abs(u - prev) <= 1e-12 * np.maximum(
                          np.abs(u), floor), axis=1),
                      lambda _, count: (f"three-layer cut field's {name} contour did not converge "
                                        f"at {count} nodes per panel (smallest y_t + y_s {dy:.3g})"))
        return u[0]

    u = converged(propagating, 16, "propagating") + converged(evanescent, 8, "evanescent")
    return points[tp], u, nodes


def fmm_apply(particles, config: RunConfig) -> PotentialVector:
    """Hierarchical evaluation of the pairwise potential sums."""
    t0 = time.perf_counter()
    ws = _Workspace(particles, config)
    timings = ws.timings  # _translate adds each operator's share of upward and downward
    timings["build"] = time.perf_counter() - t0
    out = np.zeros(len(ws.q), dtype=complex)  # the leaf potentials in tree order
    # every pass is run(ws, out), and only the near passes add to out;
    # tables finishes before upward's first P2M
    for phase, run in (("tables", _tables), ("upward", _upward), ("downward", _downward),
                       ("near_local", _local_potentials), ("near_free", _near_free),
                       ("near_cut", _near_cut)):
        t1 = time.perf_counter()
        run(ws, out)
        timings[phase] = time.perf_counter() - t1
    timings["near"] = timings["near_local"] + timings["near_free"] + timings["near_cut"]
    values = np.empty(len(particles), dtype=complex)
    values[ws.tree.perm] = out
    if not np.isfinite(values).all():
        raise ValueError(f"potentials are not finite (P = {ws.P}, depth {ws.tree.max_depth})")

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
