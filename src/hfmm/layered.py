"""Heterogeneous multipole-to-local translation for the scattered field.

The scattered part of the layered-media kernel is not translation
invariant, so its M2L operator A depends on the source-image/target
geometry (horizontal offset dx and interface height dy = y_t + y_s).
A is Toeplitz in the expansion orders, A_{p,m} = A(m - p), and each
entry is a Sommerfeld integral evaluated on the propagating/evanescent
split with fixed quadrature rules, whose node counts this module alone
chooses (_rule_counts).  Near the interface the line-image tail is
translated separately (operator B with cutoff C).

Entries are cached in one table store keyed by the geometry (|dx|, dy,
C) as exact integers (TableKey): the kernel is invariant under
horizontal translation, so every box pair with one geometry shares an
entry, and a pair with dx < 0 reads the entry of -dx reversed.  A table
file (save_tables) is the magic HFMMTB3, a header (medium fingerprint,
P and the rule counts, all checked on load) and the entries, each as
its key fields and its 4P+1 complex values.
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
from .quadrature import gauss_laguerre_generalized, gauss_legendre, legendre_base

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
    edges = [0.0] + pts + [np.pi]
    u, w = gauss_legendre(count, 0.0, 1.0)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        h = b - a
        nodes.append(a + 0.5 * h * (1.0 - np.cos(np.pi * u)))
        weights.append(0.5 * h * np.pi * np.sin(np.pi * u) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _rule_counts(media):
    """(propagating, Laguerre) node counts of the table entries of media.

    sigma_1 of the three-layer medium decays slowly in the spectral
    variable; more Laguerre nodes keep its entries near 1e-9.  The
    Laguerre parameter is always 0.
    """
    return (64, 128) if media.variant == "three-layer" else (64, 64)


def _singularity_scale(media):
    """Distance from the evanescent contour to the nearest spectral singularity.

    Two-layer media have the reflectance pole at t = i*alpha and the
    branch point at t = i*k; three-layer media have branch points at
    t = i*sqrt(k1^2 - kj^2) for each slower layer.
    """
    k1 = media.k1
    scales = [k1]
    if media.variant == "two-layer":
        if media.alpha > 0.0:
            scales.append(media.alpha)
    elif media.variant == "three-layer":
        for kj in (media.k2, media.k3):
            if kj < k1:
                scales.append(float(np.sqrt(k1 * k1 - kj * kj)))
    return min(scales)


def _evan_entries_adaptive(media, dx, dy_eff, P, r_evan, tol=1e-12):
    """Evanescent entry integrals by adaptive geometric-panel Gauss-Legendre.

    Used when dy_eff is too small for the Laguerre rule to resolve the
    spectral structure near the origin.  The exponents of z^nu and the
    decay e^{-t dy} are combined before exponentiation, so intermediate
    factors never overflow even when the entries themselves are huge.
    Returns the integral without the (-i)^nu/(i pi) prefactor.
    """
    k = media.k1
    nu = np.arange(-2 * P, 2 * P + 1)
    sign_nu = np.where(nu % 2 == 0, 1.0, -1.0)
    n2 = 2 * P

    def log_env(t):
        # magnitude envelope of the dominant z^{-|nu|} e^{-t dy} factor
        return n2 * np.log((t + np.hypot(t, k)) / k) - t * dy_eff

    tstar = max(n2 / dy_eff, k)
    target = log_env(tstar) - 45.0
    hi = 2.0 * tstar + (45.0 + n2) / dy_eff
    while log_env(hi) > target:
        hi *= 2.0
    cutoff = brentq(lambda t: log_env(t) - target, tstar, hi)

    s0 = min(max(_singularity_scale(media), 1e-3), cutoff / 2.0)
    edges = [0.0, s0]
    while edges[-1] < cutoff:
        edges.append(min(2.0 * edges[-1], cutoff))
    # sigma_1 of a faster lower layer has a sqrt kink on the contour;
    # panels must break there to keep Gauss-Legendre spectral
    kinks = spectral_breakpoints(media, "evanescent", cutoff)
    if kinks:
        edges = sorted(set(edges) | set(kinks))

    prev = None
    count = 24
    while count <= 384:
        total = np.zeros(len(nu), dtype=complex)
        mass = np.zeros(len(nu))  # L1 mass: sets the roundoff floor
        xg, wg = legendre_base(count)
        ug = 0.5 * (xg + 1.0)
        for a, b in zip(edges[:-1], edges[1:]):
            # cosine map clusters nodes at the panel ends, keeping the
            # rule spectral across endpoint sqrt kinks
            t = a + 0.5 * (b - a) * (1.0 - np.cos(np.pi * ug))
            w = 0.25 * (b - a) * np.pi * np.sin(np.pi * ug) * wg
            root = np.hypot(t, k)
            lnz = np.log(k) - np.log(root + t)
            base = w * r_evan(t) / root
            psi = np.exp(1j * root * dx)
            up = np.exp(np.outer(nu, lnz) - t * dy_eff)
            # nu runs symmetrically over -2P..2P and (-a)*b == -(a*b)
            # exactly, so the -nu rows are the nu rows reversed
            dn = up[::-1]
            terms = psi * up + np.conj(psi) * sign_nu[:, None] * dn
            total += terms @ base
            mass += np.abs(terms) @ np.abs(base)
        if prev is not None:
            # entries with heavy cancellation cannot beat the noise
            # floor of the real-axis contour; allow noise at that level
            allowed = tol * np.maximum(np.abs(total), 1.0) + 5e-12 * mass
            diff = np.abs(total - prev)
            if bool(np.all(diff <= allowed)):
                return total
        prev = total
        count *= 2
    # discretization error decays exponentially under doubling, so a
    # persistent change this far below the integrand mass is noise
    if bool(np.all(diff <= 1e-10 * mass)):
        return total
    raise QuadratureConvergenceError(
        "adaptive evanescent entry integration failed to converge "
        f"(dx={dx:.3g}, dy_eff={dy_eff:.3g}, P={P})")


def _spectral_entries(media, dx, dy, P, r_prop, r_evan, decay_shift=0.0, refine=1):
    """Assemble the (4P+1)-vector of plane-wave split entries.

    r_prop(tau) and r_evan(t) supply the spectral factor of the operator
    being built (full reflectance for A, tail factor for B).
    decay_shift adds extra exponential decay exp(-t*shift) handled by
    rescaling the Laguerre nodes, keeping them where the integrand
    actually lives.  refine multiplies both rule counts (2 for the
    doubling check).
    """
    k = media.k1
    nu = np.arange(-2 * P, 2 * P + 1)
    i_nu = _I_POWERS[nu % 4]
    neg_i_nu = np.conj(i_nu)
    sign_nu = np.where(nu % 2 == 0, 1.0, -1.0)

    n_prop, n_lag = (refine * n for n in _rule_counts(media))
    tau, w_tau = propagating_rule(media, n_prop)
    base_p = w_tau * np.exp(1j * k * (dy * np.sin(tau) - dx * np.cos(tau))) * r_prop(tau)
    prop = (i_nu / np.pi) * (np.exp(-1j * np.outer(nu, tau)) @ base_p)

    dy_eff = dy + decay_shift
    if dy_eff * _singularity_scale(media) < 2.0:
        # the Laguerre rule cannot resolve the spectral structure when
        # the decay scale 1/dy_eff dwarfs the singularity distances
        raw = _evan_entries_adaptive(media, dx, dy_eff, P, r_evan)
        return prop + (neg_i_nu / (1j * np.pi)) * raw

    nodes, weights = gauss_laguerre_generalized(n_lag)
    scale = dy_eff
    t = nodes / scale
    root = np.sqrt(t * t + k * k)
    # z = (root - t)/k computed without cancellation
    lnz = np.log(k) - np.log(root + t)
    base_e = weights * r_evan(t) / (root * scale)
    psi = np.exp(1j * root * dx)
    zpow = np.exp(np.outer(nu, lnz))
    term = (psi * zpow + np.conj(psi) * sign_nu[:, None] / zpow) * base_e
    evan = (neg_i_nu / (1j * np.pi)) * term.sum(axis=1)
    return prop + evan


def _verify_doubling(entries, doubled, where):
    scale = np.maximum(np.abs(entries), 1.0)
    err = float((np.abs(entries - doubled) / scale).max())
    if not err <= 1e-11:  # a NaN entry fails too
        raise QuadratureConvergenceError(
            f"{where}: node doubling changes entries by {err:.2e} (> 1e-11)")


def compute_A(geom: TranslationGeometry, media: MediaConfig, P: int,
              verify: bool = False) -> np.ndarray:
    """Heterogeneous M2L entries A(nu), nu = -2P..2P.

    The assembled operator A_{p,m} = A(m - p) maps the image
    coefficients (expansions.image_coefficients) of a source box to the
    scattered-field local expansion at a well-separated target box.
    """
    if media.variant == "free":
        raise ValueError("heterogeneous translation undefined in free space")

    def r_prop(tau):
        return reflectance(media, -1j * media.k1 * np.sin(tau))

    def r_evan(t):
        return reflectance(media, t.astype(complex))

    entries = _spectral_entries(media, geom.dx, geom.dy, P, r_prop, r_evan)
    if verify:
        doubled = _spectral_entries(media, geom.dx, geom.dy, P, r_prop, r_evan, refine=2)
        _verify_doubling(entries, doubled, "compute_A")
    return entries


def compute_B_tail(geom: TranslationGeometry, media: MediaConfig, P: int,
                   verify: bool = False) -> np.ndarray:
    """Tail translation entries B(nu) for the truncated line image cut at C = geom.cutoff.

    The line-image spectral factor 2i*alpha/(kappa - i*alpha) is
    replaced by its analytically integrated tail
    2i*alpha*exp((i*alpha - kappa)C)/(kappa - i*alpha); the point-image
    term is excluded (it moves to near-field part I when C > 0).
    """
    if media.variant != "two-layer":
        raise ValueError("tail translation is defined for two-layer media only")
    C = geom.cutoff
    if C <= 0:
        raise ValueError("tail cutoff must be positive (use compute_A when C = 0)")
    k, alpha = media.k1, media.alpha
    phase_c = np.exp(1j * alpha * C)

    def r_prop(tau):
        # kappa = -i k sin(tau): 2i*alpha*e^{(i alpha - kappa)C}/(kappa - i alpha)
        return -2.0 * alpha * phase_c * np.exp(1j * k * C * np.sin(tau)) \
            / (k * np.sin(tau) + alpha)

    def r_evan(t):
        # the e^{-tC} decay is folded into the Laguerre rescale
        return 2.0j * alpha * phase_c / (t - 1j * alpha)

    entries = _spectral_entries(media, geom.dx, geom.dy, P, r_prop, r_evan, decay_shift=C)
    if verify:
        doubled = _spectral_entries(media, geom.dx, geom.dy, P, r_prop, r_evan,
                                    decay_shift=C, refine=2)
        _verify_doubling(entries, doubled, "compute_B_tail")
    return entries


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


def pair_key(root_y0: float, tgt, src, near: bool = False):
    """Table key of the scattered translation from tree box src to tree box tgt.

    Returns (key, flip): the translation's dx is negative when flip is
    set, and its entries are then the key's entries reversed, since
    A_{-dx}(nu) = A_{dx}(-nu) (TableStore.get).  A near pair (near=True)
    whose source box sits less than its own width above the interface
    has its line image cut at C > 0, if C comes out positive.
    """
    lt, (ixt, iyt) = tgt.level, tgt.index
    ls, (ixs, iys) = src.level, src.index
    fine = max(lt, ls)
    shift = fine + 1  # lengths in half-widths of the finer box
    ax = ((2 * ixt + 1) << (fine - lt)) - ((2 * ixs + 1) << (fine - ls))
    sy = ((2 * iyt + 1) << (fine - lt)) + ((2 * iys + 1) << (fine - ls))
    cut = 0
    # with root_y0 > 0 only the bottom row (iys == 0) can sit that low
    if near and iys == 0 and root_y0 < 0.5 ** ls:
        # C = coarser width + both half widths - dy
        cut = (3 << (fine - min(lt, ls))) + 1 - sy
        if cut * 0.5 ** shift - 2.0 * root_y0 <= 0.0:
            cut = 0
    flip, ax = ax < 0, abs(ax)
    while not (ax | sy | cut) & 1:  # sy > 0, so this ends
        shift, ax, sy, cut = shift - 1, ax >> 1, sy >> 1, cut >> 1
    return TableKey(root_y0, shift, ax, sy, cut), flip


class TableStore:
    """The one cache of heterogeneous translation entries, keyed by TableKey.

    geometry() maps a key to its translation; get() is the only read
    path and computes (and keeps) an entry on a miss.  Entries of
    several root heights can share one store.
    """

    def __init__(self, media: MediaConfig, P: int):
        self.media = media
        self.fingerprint = media.fingerprint()
        self.P = P
        self.entries = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def geometry(key: TableKey) -> TranslationGeometry:
        h = 0.5 ** key.shift
        cutoff = key.cut * h - 2.0 * key.root_y0 if key.cut else 0.0
        return TranslationGeometry(dx=key.ax * h, dy=2.0 * key.root_y0 + key.sy * h,
                                   cutoff=cutoff)

    def get(self, key: TableKey, flip: bool = False) -> np.ndarray:
        """Entries of key, reversed (the dx < 0 translation) when flip is set."""
        found = self.entries.get(key)
        if found is not None:
            self.hits += 1
        else:
            self.misses += 1
            geom = self.geometry(key)
            if geom.cutoff > 0.0:
                found = compute_B_tail(geom, self.media, self.P)
            else:
                found = compute_A(geom, self.media, self.P)
            self.entries[key] = found
        return found[::-1] if flip else found


_MAGIC = b"HFMMTB3\x00"
# older formats, keyed by the root height (1) or by the box pair (2)
_OLD_MAGICS = (b"HFMMTB1\x00", b"HFMMTB2\x00")
_HEADER = struct.Struct("<IIId")   # P, the two rule counts, Laguerre a_param
_ENTRY = struct.Struct("<diqqqI")  # TableKey fields, then the value count


def save_tables(store: TableStore, path):
    """Serialize a table store (little-endian, complex as re/im f64 pairs).

    The file is written beside path and renamed over it, so a reader
    never sees a partial file.
    """
    fp = store.fingerprint.encode()
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    with open(tmp, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(fp)))
        f.write(fp)
        f.write(_HEADER.pack(store.P, *_rule_counts(store.media), 0.0))
        f.write(struct.pack("<Q", len(store.entries)))
        for key, vals in sorted(store.entries.items()):
            f.write(_ENTRY.pack(*key, len(vals)))
            f.write(np.ascontiguousarray(vals, dtype="<c16").tobytes())
    os.replace(tmp, path)


def _read(f, size):
    raw = f.read(size)
    if len(raw) != size:
        raise ValueError("table cache file is truncated")
    return raw


def load_tables(path, media: MediaConfig, P: int) -> TableStore:
    """Load a table store; the media fingerprint, P and rule counts must match."""
    with open(path, "rb") as f:
        magic = f.read(len(_MAGIC))
        if magic in _OLD_MAGICS:
            raise ValueError("table cache has an old format; delete it to rebuild")
        if magic != _MAGIC:
            raise ValueError("not a translation table file")
        (fplen,) = struct.unpack("<I", _read(f, 4))
        fp = _read(f, fplen).decode()
        p_stored, *counts = _HEADER.unpack(_read(f, _HEADER.size))
        if fp != media.fingerprint():
            raise ValueError("table cache was built for different media "
                             f"({fp}, not {media.fingerprint()})")
        if p_stored != P:
            raise ValueError(f"table cache was built for P={p_stored}, not P={P}")
        expected = (*_rule_counts(media), 0.0)
        if tuple(counts) != expected:
            raise ValueError(
                "table cache was built with rule counts (propagating, evanescent, "
                f"Laguerre a) = {tuple(counts)}, not {expected}")
        store = TableStore(media, P)
        (count,) = struct.unpack("<Q", _read(f, 8))
        for _ in range(count):
            *key, nvals = _ENTRY.unpack(_read(f, _ENTRY.size))
            vals = np.frombuffer(_read(f, 16 * nvals), dtype="<c16")
            store.entries[TableKey(*key)] = vals.copy()
    return store
