"""Heterogeneous multipole-to-local translation for the scattered field.

The scattered part of the layered-media kernel is not translation
invariant, so its M2L operator A depends on the source-image/target
geometry (horizontal offset dx and interface height dy = y_t + y_s).
A is Toeplitz in the expansion orders, A_{p,m} = A(m - p), and each
entry is a Sommerfeld integral on the propagating/evanescent split.
Near the interface the line-image tail is translated separately
(operator B with cutoff C).

Entries are computed in batches with one quadrature, which this module
alone fixes (_RULE): on the propagating contour a Gauss-Legendre rule
(cosine-mapped per segment where a three-layer sigma_1 kinks), and on the
evanescent contour geometric panels of Gauss-Legendre nodes placed for
the batch (quadrature.panel_rule: affine, and cosine-mapped only on a
panel that a kink of sigma_1 ends, which no panel of a two-layer medium
or of a medium with k2, k3 < k1 is).  Each entry is refined on its own
(quadrature.refine): its count doubles from 64 nodes per segment, or 32
per panel, until its own last two rules agree, and only the entries not
yet converged take the next rule.  The spectral factor depends only on
the spectral variable, so each half is a product of a (keys x nodes)
matrix with a (nodes x 4P+1) matrix, taken in blocks; the exponentials
of the key side are taken once per distinct dx and dy.

Entries are cached in one table store keyed by the geometry (|dx|, dy,
C) as exact integers (TableKey): the kernel is invariant under
horizontal translation, so every box pair with one geometry shares an
entry, and a pair with dx < 0 reads the entry of -dx reversed.  Keys
travel as integer rows (pair_key) that the store fills and reads in
batches; key_geometry decodes them into dx, dy and C arrays.  A table
file (save_tables) is the magic HFMMTB7, a header (medium fingerprint,
P and the quadrature rule constants, all checked on load, and the entry
count) and three array blocks, each read whole (load_tables).
"""

from __future__ import annotations

import math
import os
import struct
from typing import NamedTuple

import numpy as np

from .greens import MediaConfig, evanescent_edges, reflectance, spectral_breakpoints
from .quadrature import budget_slices, gauss_legendre, panel_rule, refine

__all__ = [
    "TableKey",
    "TableStore",
    "pair_key",
    "key_geometry",
    "propagating_rule",
    "compute_A",
    "compute_B_tail",
    "save_tables",
    "load_tables",
]

_I_POWERS = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


def propagating_rule(media: MediaConfig, count: int):
    """Nodes/weights on [0, pi] for the propagating spectral integral.

    Plain Gauss-Legendre for smooth reflectance; for three-layer media
    the range is split at the branch-point kinks of sigma_1 and each
    segment gets a cosine-mapped rule of `count` nodes, preserving
    spectral accuracy.
    """
    pts = spectral_breakpoints(media, "propagating", np.pi)
    if not pts:
        return gauss_legendre(count, 0.0, np.pi)
    return panel_rule([0.0, *pts, np.pi], count, pts)


# The table quadrature (_spectral_entries), written to and checked in the
# table file header: Gauss-Legendre nodes per propagating segment, and
# evanescent nodes per panel, each from its start count doubled up to its
# cap; and the three tolerances of the doubling checks.
_RULE = _PROP_NODES, _PROP_CAP, _GRID_START, _GRID_CAP, _TOL_REL, _TOL_MASS, _TOL_CAP = \
    64, 1024, 32, 256, 1e-12, 5e-12, 1e-10

# Largest complex block, (keys x nodes) or (nodes x 4P+1), that the entry
# products form at once; each product holds several such blocks.
_BLOCK_BYTES = 1 << 16


def _panel_edges(media, P, dy):
    """Evanescent panel edges for a batch whose smallest decay height is dy.

    Panels double in width from the singularity scale up to where the
    envelope z^{-2P} e^{-t dy} is 45 e-folds below its peak (keys with a
    larger dy decay sooner), and break at the kinks of a three-layer sigma_1
    (greens.evanescent_edges).  Past its peak at tstar the log envelope
    decreases, so bisection finds that cutoff, to within 2e-12 + 4 eps t.
    """
    k = media.k1
    n2 = 2 * P

    def log_env(t):
        return n2 * math.log((t + math.hypot(t, k)) / k) - t * dy

    tstar = max(n2 / dy, k)
    target = log_env(tstar) - 45.0
    lo, hi = tstar, 2.0 * tstar + (45.0 + n2) / dy
    while log_env(hi) > target:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 2e-12 + 4.0 * math.ulp(1.0) * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if log_env(mid) > target else (lo, mid)
    return evanescent_edges(media, 0.5 * (lo + hi))


def _key_blocks(dx, dy, width):
    """Key slices for (keys x width) blocks under _BLOCK_BYTES, each with its distinct dx
    and dy and the indices that gather them back per key (np.unique)."""
    return [(c, *np.unique(dx[c], return_inverse=True), *np.unique(dy[c], return_inverse=True))
            for c in budget_slices(len(dx), width, _BLOCK_BYTES)]


def _evanescent_grid(media, P, dx, dy, r_evan, edges, count):
    """Evanescent integrals of the keys on count nodes per panel, and a bound on their L1 mass.

    _spectral_entries passes the keys not yet converged.  Row j holds, for
    nu = -2P..2P, the integral of r(t)/root * (e^{i root dx} z^nu + (-1)^nu
    e^{-i root dx} z^{-nu}) e^{-t dy}, without the (-i)^nu/(i pi) prefactor.
    With e^{+-i root dx} = cos +- i sin, both halves come from the sums of
    env cos(root dx) Z and env sin(root dx) Z, each one real product: the
    key side env = e^{-t dy} z^{-2P} meets Z = w r/root z^{2P+nu}, |z| <= 1,
    and the z^{-nu} half is reversed.  The key side's exponentials are
    taken once per distinct dx and dy of a block of keys, and the mass once
    per distinct dy.  An overflow (of env at high P and small dy) raises ValueError.
    """
    k, m = media.k1, 4 * P + 1
    t, w = panel_rule(edges, count, spectral_breakpoints(media, "evanescent", edges[-1]))
    nodes = budget_slices(len(t), m, _BLOCK_BYTES)
    # the cos and sin sides of a block of keys are together one (keys x nodes) complex block
    blocks = _key_blocks(dx, dy, len(t[nodes[0]]))
    cos_z = np.zeros((len(dx), m), dtype=complex)
    sin_z = np.zeros_like(cos_z)
    mass = np.zeros((len(dx), m))
    root = np.hypot(t, k)
    lnz = np.log(k) - np.log(root + t)  # z = (root - t)/k without cancellation
    base = w * r_evan(t) / root
    try:
        with np.errstate(over="raise"):
            for n in nodes:
                zpow = np.exp(np.outer(lnz[n], np.arange(m)))
                z_re = (base[n, None] * zpow).view(float)  # Z as (nodes x 2m) reals
                z_abs = np.abs(base[n, None]) * zpow
                for c, ux, ix, uy, iy in blocks:
                    env = np.exp(-uy[:, None] * t[n] - 2 * P * lnz[n])
                    mass[c] += (env @ z_abs)[iy]
                    phase = ux[:, None] * root[n]
                    side = np.stack((np.cos(phase), np.sin(phase))).take(ix, axis=1)
                    side *= env.take(iy, axis=0)
                    for half, out in zip(side, (cos_z, sin_z)):
                        out[c] += (half @ z_re).view(complex)
    except FloatingPointError:
        raise ValueError(f"evanescent table grid overflows at P={P} (smallest dy {dy.min():.3g}): "
                         "e^(-t dy) z^(-2P) passes the largest double") from None
    # plus + (-1)^nu (minus reversed), where plus and minus are cos_z +- i sin_z
    sign = np.where(np.arange(-2 * P, 2 * P + 1) % 2 == 0, 1.0, -1.0)
    cos_z += sign * cos_z[:, ::-1]
    sin_z -= sign * sin_z[:, ::-1]
    cos_z += 1j * sin_z
    return cos_z, mass + mass[:, ::-1]


def _spectral_entries(media, dx, dy, P, r_prop, r_evan):
    """Plane-wave split entries of a batch (rows of 4P+1) and the evanescent nodes used.

    dx and dy hold one offset per key; r_prop(tau) and r_evan(t) supply
    the spectral factor (reflectance for A, tail factor for B).  Each
    contour refines every entry on its own: the rule's nodes per segment
    or panel double, and the next rule is evaluated only for the entries
    whose last two rules still differ, until each entry's two agree (it
    keeps the finer value), or QuadratureConvergenceError is raised at
    the cap.  The evanescent panels are the batch's (_panel_edges of its
    smallest dy), and the nodes are those of the finest grid any entry took.
    """
    k = media.k1
    dx = np.asarray(dx, dtype=float)
    dy = np.asarray(dy, dtype=float)
    if not np.all(dy > 0):
        raise ValueError("heterogeneous translation requires dy > 0")
    nu = np.arange(-2 * P, 2 * P + 1)
    i_nu = _I_POWERS[nu % 4]

    def accept(vals, prev, mass, last):
        diff = np.abs(vals - prev)
        done = np.all(diff <= _TOL_REL * np.maximum(np.abs(vals), 1.0) + _TOL_MASS * mass, axis=1)
        if last:
            # discretization error decays exponentially under doubling, so a
            # persistent change this far below the integrand mass is noise
            done |= np.all(diff <= _TOL_CAP * mass, axis=1)
        return done

    def failure(rule, unit):
        return lambda keys, count: (
            f"{rule} did not converge at {count} nodes per {unit} for {keys.size} of "
            f"{len(dx)} entries (P={P}, smallest dy {dy[keys].min():.3g}, "
            f"largest |dx| {np.abs(dx[keys]).max():.3g})")

    def propagating(keys, count):
        tau, w_tau = propagating_rule(media, count)
        waves = (w_tau * r_prop(tau))[:, None] * np.exp(-1j * np.outer(tau, nu))
        prop = np.empty((len(keys), len(nu)), dtype=complex)
        for c, ux, ix, uy, iy in _key_blocks(dx[keys], dy[keys], len(tau)):
            prop[c] = (np.exp(1j * k * np.outer(uy, np.sin(tau)))[iy]
                       * np.exp(-1j * k * np.outer(ux, np.cos(tau)))[ix]) @ waves
        return prop, 0.0  # checked relative to the entries alone

    # an electrically thick three-layer medium needs far more than 64 nodes
    # per segment: its sigma oscillates along the contour
    prop, _ = refine(propagating, len(dx), _PROP_NODES, _PROP_CAP, accept,
                     failure("propagating table rule", "segment"))
    edges = _panel_edges(media, P, float(dy.min()))
    evan, count = refine(
        lambda keys, count: _evanescent_grid(media, P, dx[keys], dy[keys], r_evan, edges, count),
        len(dx), _GRID_START, _GRID_CAP, accept, failure("evanescent table grid", "panel"))
    rows = (i_nu / np.pi) * prop + (np.conj(i_nu) / (1j * np.pi)) * evan
    return rows, count * (len(edges) - 1)


def compute_A(dx, dy, media: MediaConfig, P: int):
    """Heterogeneous M2L entries A(nu), nu = -2P..2P, of a batch of translations.

    dx is the target-center x minus the source-image-center x and dy > 0
    the sum of the two center heights, one array entry per translation.
    Returns (rows, grid_nodes): row j holds the entries of translation j,
    and grid_nodes counts the evanescent nodes of the finest grid any
    entry took.  The assembled operator A_{p,m} = A(m - p) maps the image
    coefficients (expansions.image_coefficients) of a source box to the
    scattered-field local expansion at a well-separated target box.
    """
    if media.variant == "free":
        raise ValueError("heterogeneous translation undefined in free space")

    def r_prop(tau):
        return reflectance(media, -1j * media.k1 * np.sin(tau))

    def r_evan(t):
        return reflectance(media, t.astype(complex))

    return _spectral_entries(media, dx, dy, P, r_prop, r_evan)


def compute_B_tail(dx, dy, cutoff, media: MediaConfig, P: int):
    """Tail translation entries B(nu) for line images cut at C = cutoff, per translation.

    dx and dy are as for compute_A.  Returns (rows, grid_nodes) like
    compute_A.  The line-image spectral
    factor 2i*alpha/(kappa - i*alpha) is replaced by its analytically
    integrated tail 2i*alpha*exp((i*alpha - kappa)C)/(kappa - i*alpha);
    the point-image term is excluded (it moves to near-field part I when
    C > 0).  The e^{-kappa C} factor is a decay over dy + C on both
    contours, and e^{i alpha C} scales each row.
    """
    if media.variant != "two-layer":
        raise ValueError("tail translation is defined for two-layer media only")
    C = np.asarray(cutoff, dtype=float)
    if not np.all(C > 0):
        raise ValueError("tail cutoff must be positive (use compute_A when C = 0)")
    if not np.all(np.greater(dy, 0)):
        raise ValueError("heterogeneous translation requires dy > 0")
    k, alpha = media.k1, media.alpha

    def r_prop(tau):
        # kappa = -i k sin(tau); e^{-kappa C} = e^{i k C sin(tau)} is in dy + C
        return -2.0 * alpha / (k * np.sin(tau) + alpha)

    def r_evan(t):
        return 2.0j * alpha / (t - 1j * alpha)

    rows, nodes = _spectral_entries(media, dx, dy + C, P, r_prop, r_evan)
    return np.exp(1j * alpha * C)[:, None] * rows, nodes


class TableKey(NamedTuple):
    """Exact key of one table entry: its translation geometry as integers.

    With h = 2**-shift, the entry translates by dx = ax * h >= 0 and
    dy = 2 * root_y0 + sy * h; cut > 0 marks a B-tail entry with line-image
    cutoff C = cut * h - 2 * root_y0, cut == 0 an A entry (key_geometry).
    pair_key reduces the integers (ax, sy and cut not all even), so every
    box pair with one geometry, at any level, maps to one key.
    """

    root_y0: float
    shift: int
    ax: int
    sy: int
    cut: int


def pair_key(root_y0: float, tgt, src, near=False):
    """Table keys of the scattered translations from tree boxes src to tree boxes tgt.

    tgt and src are (level, ix, iy) integer arrays, one entry per pair.
    Returns (keys, flip): rows of TableKey fields (shift, ax, sy, cut),
    and whether dx < 0, when the entries are the key's reversed, since
    A_{-dx}(nu) = A_{dx}(-nu).  near marks the near pairs, one bool for
    all pairs or one per pair: a near pair whose source box sits less than
    its own width above the interface has its line image cut at C > 0, if
    C comes out positive.
    """
    lt, ixt, iyt = (np.asarray(a, dtype=np.int64) for a in tgt)
    ls, ixs, iys = (np.asarray(a, dtype=np.int64) for a in src)
    fine = np.maximum(lt, ls)
    shift = fine + 1  # lengths in half-widths of the finer box
    ax = ((2 * ixt + 1) << (fine - lt)) - ((2 * ixs + 1) << (fine - ls))
    sy = ((2 * iyt + 1) << (fine - lt)) + ((2 * iys + 1) << (fine - ls))
    # C = coarser width + both half widths - dy; with root_y0 > 0 only
    # the bottom row (iys == 0) can sit that low
    c = (3 << (fine - np.minimum(lt, ls))) + 1 - sy
    low = near & (iys == 0) & (root_y0 < np.ldexp(1.0, -ls))
    cut = np.where(low & (c * np.ldexp(1.0, -shift) - 2.0 * root_y0 > 0.0), c, 0)
    flip, ax = ax < 0, np.abs(ax)
    # divide out the common power of two: v & -v is the lowest set bit of
    # v > 0 (sy > 0), and frexp reads its exponent exactly
    v = ax | sy | cut
    tz = np.frexp((v & -v).astype(float))[1] - 1
    return np.stack([shift - tz, ax >> tz, sy >> tz, cut >> tz], axis=-1), flip


def key_geometry(root_y0: float, shift, ax, sy, cut):
    """(dx, dy, cutoff) arrays from key field arrays of one root height, as TableKey
    defines them (cutoff 0 where cut is 0); every reduced form gives the same floats."""
    h = np.ldexp(1.0, -shift)
    return ax * h, 2.0 * root_y0 + sy * h, np.where(cut > 0, cut * h - 2.0 * root_y0, 0.0)


class TableStore:
    """The one cache of heterogeneous translation entries, keyed by TableKey.

    Both paths take integer key rows of one root height, (shift, ax, sy,
    cut) as pair_key makes them: fill() computes the keys not held, one
    batch per kind, and is the only compute path; get() is the only read
    path.  misses counts the keys computed and grid_nodes, per batch, the
    evanescent nodes of the finest grid any of its entries took.  Entries
    of several root heights can share one store.
    """

    def __init__(self, media: MediaConfig, P: int):
        self.media = media
        self.fingerprint = media.fingerprint()
        self.P = P
        self.entries = {}
        self.misses = 0
        self.grid_nodes = 0

    def fill(self, root_y0: float, key_rows):
        """Compute the keys of the rows not held (columns past the key fields are
        ignored): one compute_A batch and one compute_B_tail batch."""
        keys = {TableKey(root_y0, *row[:4]) for row in np.asarray(key_rows).tolist()}
        missing = sorted(keys - self.entries.keys())
        for tail in (False, True):
            batch = [key for key in missing if (key.cut > 0) == tail]
            if batch:
                dx, dy, cutoff = key_geometry(root_y0, *np.array([key[1:] for key in batch]).T)
                rows, nodes = (compute_B_tail(dx, dy, cutoff, self.media, self.P) if tail
                               else compute_A(dx, dy, self.media, self.P))
                self.entries.update(zip(batch, rows))
                self.misses += len(batch)
                self.grid_nodes += nodes

    def get(self, root_y0: float, rows) -> np.ndarray:
        """Entries of the rows (shift, ax, sy, cut, flip), stacked, each reversed (the dx < 0
        translation) where flip is set; KeyError if a key is not held."""
        out = np.stack([self.entries[(root_y0, *key)] for key in rows[:, :4].tolist()])
        flip = rows[:, 4] != 0
        out[flip] = out[flip, ::-1]
        return out


_MAGIC = b"HFMMTB7\x00"
_HEADER = struct.Struct("<IIIIIddd")  # P, then _RULE


def save_tables(store: TableStore, path):
    """Serialize a table store (little-endian, complex as re/im f64 pairs).

    After the header and the entry count come three blocks, one row per
    entry in key order: the root heights, the key fields (shift, ax, sy,
    cut) and the 4P+1 values.  The file is written beside path and renamed
    over it, so a reader never sees a partial file; a failed write removes
    its temporary file and leaves path as it was.
    """
    fp = store.fingerprint.encode()
    keys = sorted(store.entries)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<I", len(fp)))
            f.write(fp)
            f.write(_HEADER.pack(store.P, *_RULE))
            f.write(struct.pack("<Q", len(keys)))
            f.write(np.array([key.root_y0 for key in keys], dtype="<f8").tobytes())
            f.write(np.array([key[1:] for key in keys], dtype="<i8").tobytes())
            f.write(np.array([store.entries[key] for key in keys], dtype="<c16").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read(f, size):
    raw = f.read(size)
    if len(raw) != size:
        raise ValueError("table cache file is truncated")
    return raw


def load_tables(path, media: MediaConfig, P: int) -> TableStore:
    """Load a table store; media fingerprint, P and quadrature rule must match, the file
    size must be the one its entry count implies, and every value must be finite."""
    with open(path, "rb") as f:
        magic = f.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError("table cache has an old format; delete it to rebuild"
                             if magic.startswith(b"HFMMTB") else "not a translation table file")
        (fplen,) = struct.unpack("<I", _read(f, 4))
        fp = _read(f, fplen).decode()
        p_stored, *rule = _HEADER.unpack(_read(f, _HEADER.size))
        if fp != media.fingerprint():
            raise ValueError("table cache was built for different media "
                             f"({fp}, not {media.fingerprint()})")
        if p_stored != P:
            raise ValueError(f"table cache was built for P={p_stored}, not P={P}")
        if tuple(rule) != _RULE:
            raise ValueError(
                "table cache was built with the quadrature rule (propagating start and cap, "
                f"grid start and cap, tolerances) {tuple(rule)}, not {_RULE}")
        (count,) = struct.unpack("<Q", _read(f, 8))
        m = 4 * P + 1
        size, want = os.fstat(f.fileno()).st_size, f.tell() + count * (8 + 32 + 16 * m)
        if size != want:
            raise ValueError(f"table cache file is truncated or corrupt: {size} bytes, not {want}")
        roots = np.frombuffer(_read(f, 8 * count), dtype="<f8").tolist()
        fields = np.frombuffer(_read(f, 32 * count), dtype="<i8").reshape(count, 4)
        vals = np.frombuffer(_read(f, 16 * m * count), dtype="<c16").reshape(count, m).copy()
    keys = list(map(TableKey._make, zip(roots, *fields.T.tolist())))
    bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
    if len(bad):
        raise ValueError(f"table cache entry {keys[bad[0]]} is corrupt: not all values finite")
    store = TableStore(media, P)
    store.entries = dict(zip(keys, vals))
    return store
