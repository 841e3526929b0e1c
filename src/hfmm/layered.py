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
evanescent contour geometric panels of cosine-mapped Gauss-Legendre
nodes (quadrature.cosine_panels); each rule is shared by the batch, and
its count doubles from 64 nodes per segment, or 48 per panel, until two
rules agree for every entry of the batch.  The
spectral factor depends only on the spectral variable, so each half is
a product of a (keys x nodes) matrix with a (nodes x 4P+1) matrix,
taken in blocks.

Entries are cached in one table store keyed by the geometry (|dx|, dy,
C) as exact integers (TableKey): the kernel is invariant under
horizontal translation, so every box pair with one geometry shares an
entry, and a pair with dx < 0 reads the entry of -dx reversed.  A table
file (save_tables) is the magic HFMMTB5, a header (medium fingerprint,
P and the quadrature rule constants, all checked on load) and the
entries, each as its key fields and its 4P+1 complex values.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from .greens import (MediaConfig, QuadratureConvergenceError,
                     reflectance, spectral_breakpoints)
from .quadrature import cosine_panels, gauss_legendre

__all__ = [
    "TranslationGeometry",
    "TableKey",
    "TableStore",
    "pair_key",
    "propagating_rule",
    "compute_A",
    "compute_B_tail",
    "save_tables",
    "load_tables",
]

_I_POWERS = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


@dataclass(frozen=True)
class TranslationGeometry:
    """Geometry of one heterogeneous translation.

    dx is the target-center x minus the source-image-center x; dy is
    y_target_center + y_source_center (both measured from the
    interface).  cutoff is the arclength C where the line image of a
    near-interface pair is cut: [0, C] is integrated pairwise, [C, inf)
    is translated by the tail entries B.  cutoff == 0 selects the full
    operator A.
    """

    dx: float
    dy: float
    cutoff: float = 0.0

    def __post_init__(self):
        if self.dy <= 0:
            raise ValueError("heterogeneous translation requires dy > 0")


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
    return cosine_panels([0.0, *pts, np.pi], count)


# The table quadrature (_spectral_entries), written to and checked in the
# table file header: Gauss-Legendre nodes per propagating segment, and
# evanescent nodes per panel, each from its start count doubled up to its
# cap; and the three tolerances of the doubling checks.
_RULE = _PROP_NODES, _PROP_CAP, _GRID_START, _GRID_CAP, _TOL_REL, _TOL_MASS, _TOL_CAP = \
    64, 1024, 48, 384, 1e-12, 5e-12, 1e-10

# Largest complex block, (keys x nodes) or (nodes x 4P+1), that the entry
# products form at once; each product holds several such blocks.
_BLOCK_BYTES = 1 << 16


def _singularity_scale(media):
    """Distance from the evanescent contour to the nearest spectral singularity.

    Two-layer media have the reflectance pole at t = i*alpha and the
    branch point at t = i*k; three-layer media have branch points at
    t = i*sqrt(k1^2 - kj^2) for each slower layer.
    """
    k1 = media.k1
    if media.variant == "two-layer":
        return min(k1, media.alpha) if media.alpha > 0.0 else k1
    return min([k1] + [float(np.sqrt(k1 * k1 - kj * kj)) for kj in (media.k2, media.k3) if kj < k1])


def _panel_edges(media, P, dy):
    """Evanescent panel edges for a batch whose smallest decay height is dy.

    Panels double in width from the singularity scale up to where the
    envelope z^{-2P} e^{-t dy} is 45 e-folds below its peak (keys with a
    larger dy decay sooner), and break at the kinks of a three-layer sigma_1.
    """
    k = media.k1
    n2 = 2 * P

    def log_env(t):
        return n2 * np.log((t + np.hypot(t, k)) / k) - t * dy

    tstar = max(n2 / dy, k)
    target = log_env(tstar) - 45.0
    hi = 2.0 * tstar + (45.0 + n2) / dy
    while log_env(hi) > target:
        hi *= 2.0
    cutoff = brentq(lambda t: log_env(t) - target, tstar, hi)
    s0 = min(max(_singularity_scale(media), 1e-3), cutoff / 2.0)
    edges = [0.0, s0]
    while edges[-1] < cutoff:
        edges.append(min(2.0 * edges[-1], cutoff))
    return np.array(sorted(set(edges) | set(spectral_breakpoints(media, "evanescent", cutoff))))


def _chunks(rows, width):
    """Row slices of a (rows x width) complex array, each block at most _BLOCK_BYTES."""
    step = max(1, _BLOCK_BYTES // (16 * width))
    return [slice(a, a + step) for a in range(0, rows, step)]


def _evanescent_grid(media, P, dx, dy, r_evan, edges, count):
    """Evanescent integrals of every key on count nodes per panel, and a bound on their L1 mass.

    Row j holds, for nu = -2P..2P, the integral of r(t)/root * (e^{i root
    dx} z^nu + (-1)^nu e^{-i root dx} z^{-nu}) e^{-t dy}, without the
    (-i)^nu/(i pi) prefactor.  The key side E+- = w r/root e^{+-i root dx
    - t dy} z^{-2P} meets Z = z^{2P+nu} <= 1 in one product, so nothing
    overflows unless the integrand does; the z^{-nu} half is E- @ Z reversed.
    """
    k = media.k1
    t, w = cosine_panels(edges, count)
    plus = np.zeros((len(dx), 4 * P + 1), dtype=complex)
    minus = np.zeros_like(plus)
    mass = np.zeros(plus.shape)
    for n in _chunks(len(t), 4 * P + 1):
        root = np.hypot(t[n], k)
        lnz = np.log(k) - np.log(root + t[n])  # z = (root - t)/k without cancellation
        base = w[n] * r_evan(t[n]) / root
        zpow = np.exp(np.outer(lnz, np.arange(4 * P + 1)))
        for c in _chunks(len(dx), len(root)):
            env = np.exp(-np.outer(dy[c], t[n]) - 2 * P * lnz)
            side = base * env
            psi = np.exp(1j * np.outer(dx[c], root))
            plus[c] += (side * psi) @ zpow
            minus[c] += (side * np.conj(psi)) @ zpow
            mass[c] += (np.abs(base) * env) @ zpow
    sign = np.where(np.arange(-2 * P, 2 * P + 1) % 2 == 0, 1.0, -1.0)
    return plus + sign * minus[:, ::-1], mass + mass[:, ::-1]


def _spectral_entries(media, geoms, P, r_prop, r_evan, shift=0.0):
    """Plane-wave split entries of a batch (rows of 4P+1) and the evanescent nodes used.

    r_prop(tau) and r_evan(t) supply the spectral factor (reflectance for
    A, tail factor for B); shift adds a decay e^{-t shift} per key on both
    contours.  Each contour's rule is shared by the batch; its nodes per
    segment or panel double until two successive rules agree for every
    entry, or QuadratureConvergenceError is raised at the cap.
    """
    k = media.k1
    dx = np.array([g.dx for g in geoms])
    dy = np.array([g.dy for g in geoms]) + shift
    nu = np.arange(-2 * P, 2 * P + 1)
    i_nu = _I_POWERS[nu % 4]

    def propagating(count):
        tau, w_tau = propagating_rule(media, count)
        base_p = w_tau * r_prop(tau)
        waves = np.exp(-1j * np.outer(tau, nu))
        prop = np.empty((len(dx), len(nu)), dtype=complex)
        for c in _chunks(len(dx), len(tau)):
            prop[c] = (np.exp(1j * k * (np.outer(dy[c], np.sin(tau))
                                        - np.outer(dx[c], np.cos(tau)))) * base_p) @ waves
        return prop

    # an electrically thick three-layer medium needs far more than 64 nodes
    # per segment: its sigma oscillates along the contour
    count, prop = _PROP_NODES, propagating(_PROP_NODES)
    while True:
        count *= 2
        prev, prop = prop, propagating(count)
        if np.all(np.abs(prop - prev) <= _TOL_REL * np.maximum(np.abs(prop), 1.0)):
            break
        if 2 * count > _PROP_CAP:
            raise QuadratureConvergenceError(
                f"propagating table rule did not converge at {count} nodes per segment "
                f"(P={P}, smallest dy {dy.min():.3g}, largest |dx| {np.abs(dx).max():.3g})")

    edges = _panel_edges(media, P, float(dy.min()))
    count, evan = _GRID_START, None
    while True:
        prev = evan
        evan, mass = _evanescent_grid(media, P, dx, dy, r_evan, edges, count)
        if prev is not None:
            diff = np.abs(evan - prev)
            if np.all(diff <= _TOL_REL * np.maximum(np.abs(evan), 1.0) + _TOL_MASS * mass):
                break
        if 2 * count > _GRID_CAP:
            # discretization error decays exponentially under doubling, so a
            # persistent change this far below the integrand mass is noise
            if prev is not None and np.all(diff <= _TOL_CAP * mass):
                break
            raise QuadratureConvergenceError(
                f"evanescent table grid did not converge at {count} nodes per panel "
                f"(P={P}, smallest dy {dy.min():.3g}, largest |dx| {np.abs(dx).max():.3g})")
        count *= 2
    rows = (i_nu / np.pi) * prop + (np.conj(i_nu) / (1j * np.pi)) * evan
    return rows, count * (len(edges) - 1)


def compute_A(geoms, media: MediaConfig, P: int):
    """Heterogeneous M2L entries A(nu), nu = -2P..2P, of a batch of translations.

    Returns (rows, grid_nodes): row j holds the entries of geoms[j], and
    grid_nodes counts the evanescent nodes of the accepted grid.  The
    assembled operator A_{p,m} = A(m - p) maps the image coefficients
    (expansions.image_coefficients) of a source box to the
    scattered-field local expansion at a well-separated target box.
    """
    if media.variant == "free":
        raise ValueError("heterogeneous translation undefined in free space")

    def r_prop(tau):
        return reflectance(media, -1j * media.k1 * np.sin(tau))

    def r_evan(t):
        return reflectance(media, t.astype(complex))

    return _spectral_entries(media, geoms, P, r_prop, r_evan)


def compute_B_tail(geoms, media: MediaConfig, P: int):
    """Tail translation entries B(nu) for line images cut at C = geom.cutoff, per geometry.

    Returns (rows, grid_nodes) like compute_A.  The line-image spectral
    factor 2i*alpha/(kappa - i*alpha) is replaced by its analytically
    integrated tail 2i*alpha*exp((i*alpha - kappa)C)/(kappa - i*alpha);
    the point-image term is excluded (it moves to near-field part I when
    C > 0).  The e^{-kappa C} factor is a decay shift by C on both
    contours, and e^{i alpha C} scales each row.
    """
    if media.variant != "two-layer":
        raise ValueError("tail translation is defined for two-layer media only")
    C = np.array([g.cutoff for g in geoms])
    if not np.all(C > 0):
        raise ValueError("tail cutoff must be positive (use compute_A when C = 0)")
    k, alpha = media.k1, media.alpha

    def r_prop(tau):
        # kappa = -i k sin(tau); e^{-kappa C} = e^{i k C sin(tau)} is in the shift
        return -2.0 * alpha / (k * np.sin(tau) + alpha)

    def r_evan(t):
        return 2.0j * alpha / (t - 1j * alpha)

    rows, nodes = _spectral_entries(media, geoms, P, r_prop, r_evan, shift=C)
    return np.exp(1j * alpha * C)[:, None] * rows, nodes


class TableKey(NamedTuple):
    """Exact key of one table entry: its translation geometry as integers.

    With h = 2**-shift, the entry translates by dx = ax * h >= 0 and
    dy = 2 * root_y0 + sy * h; cut > 0 marks a B-tail entry with line-image
    cutoff C = cut * h - 2 * root_y0, cut == 0 an A entry.  pair_key
    reduces the integers (ax, sy and cut not all even), so every box pair
    with one geometry, at any level, maps to one key.
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


class TableStore:
    """The one cache of heterogeneous translation entries, keyed by TableKey.

    geometry() maps a key to its translation; fill() computes the keys
    not held, one batch per kind, and is the only compute path; get() is
    the only read path.  misses counts the keys computed and grid_nodes
    the evanescent nodes of the grids that computed them.  Entries of
    several root heights can share one store.
    """

    def __init__(self, media: MediaConfig, P: int):
        self.media = media
        self.fingerprint = media.fingerprint()
        self.P = P
        self.entries = {}
        self.misses = 0
        self.grid_nodes = 0

    @staticmethod
    def geometry(key: TableKey) -> TranslationGeometry:
        h = 0.5 ** key.shift
        cutoff = key.cut * h - 2.0 * key.root_y0 if key.cut else 0.0
        return TranslationGeometry(dx=key.ax * h, dy=2.0 * key.root_y0 + key.sy * h,
                                   cutoff=cutoff)

    def fill(self, keys):
        """Compute the keys not held: one compute_A batch and one compute_B_tail batch."""
        missing = sorted(set(keys) - self.entries.keys())
        for compute, batch in ((compute_A, [key for key in missing if not key.cut]),
                               (compute_B_tail, [key for key in missing if key.cut])):
            if batch:
                rows, nodes = compute([self.geometry(key) for key in batch], self.media, self.P)
                self.entries.update(zip(batch, rows))
                self.misses += len(batch)
                self.grid_nodes += nodes

    def get(self, key: TableKey, flip: bool = False) -> np.ndarray:
        """Entries of key, reversed (the dx < 0 translation) when flip is set; KeyError if not held."""
        found = self.entries[key]
        return found[::-1] if flip else found


_MAGIC = b"HFMMTB5\x00"
# older formats: keyed by the root height (1), by the box pair (2), built
# with the Laguerre and per-entry adaptive rules (3), or with a fixed
# propagating rule (4)
_OLD_MAGICS = (b"HFMMTB1\x00", b"HFMMTB2\x00", b"HFMMTB3\x00", b"HFMMTB4\x00")
_HEADER = struct.Struct("<IIIIIddd")  # P, then _RULE
_ENTRY = struct.Struct("<diqqqI")  # TableKey fields, then the value count


def save_tables(store: TableStore, path):
    """Serialize a table store (little-endian, complex as re/im f64 pairs).

    The file is written beside path and renamed over it, so a reader
    never sees a partial file; a failed write removes its temporary file
    and leaves path as it was.
    """
    fp = store.fingerprint.encode()
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<I", len(fp)))
            f.write(fp)
            f.write(_HEADER.pack(store.P, *_RULE))
            f.write(struct.pack("<Q", len(store.entries)))
            for key, vals in sorted(store.entries.items()):
                f.write(_ENTRY.pack(*key, len(vals)))
                f.write(np.ascontiguousarray(vals, dtype="<c16").tobytes())
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
    """Load a table store; media fingerprint, P and quadrature rule must match, entries be sound."""
    with open(path, "rb") as f:
        magic = f.read(len(_MAGIC))
        if magic in _OLD_MAGICS:
            raise ValueError("table cache has an old format; delete it to rebuild")
        if magic != _MAGIC:
            raise ValueError("not a translation table file")
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
        store = TableStore(media, P)
        (count,) = struct.unpack("<Q", _read(f, 8))
        for _ in range(count):
            *key, nvals = _ENTRY.unpack(_read(f, _ENTRY.size))
            vals = np.frombuffer(_read(f, 16 * nvals), dtype="<c16")
            if nvals != 4 * P + 1 or not np.all(np.isfinite(vals)):
                raise ValueError(f"table cache entry {TableKey(*key)} is corrupt: want "
                                 f"4P+1 = {4 * P + 1} finite values, found {nvals} values")
            store.entries[TableKey(*key)] = vals.copy()
    return store
