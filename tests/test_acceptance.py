"""Acceptance gate: the nine end-to-end criteria.

Each test prints one [criterion N] PASS/FAIL line directly to the
terminal (outside pytest capture) so the gate summary is visible in the
plain pytest log.
"""

import time

import numpy as np
import pytest

from hfmm.cli import (check_boundary_residual, check_sommerfeld_identity,
                      check_toeplitz, grid_particles, random_particles)
from hfmm.driver import RunConfig, direct_apply, error_metric, fmm_apply, local_values
from hfmm.expansions import p2m_arrays, translation_matrix, translation_vector_h
from hfmm.greens import MediaConfig, Point2, free_space, scattered_batch, \
    three_layer_sigma
from hfmm.tree import Particle, TreeConfig, build_lists, build_tree, \
    near_source_leaves


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _particles(xs, ys, qs):
    return [Particle(Point2(float(x), float(y)), complex(q))
            for x, y, q in zip(xs, ys, qs)]


def _table1_errors(k):
    media = MediaConfig.two_layer(k, 1.0)
    xs, ys = grid_particles(100, 100)
    qs = np.random.default_rng(2026).normal(size=len(xs))
    parts = _particles(xs, ys, qs)
    ref = fmm_apply(parts, RunConfig(media=media, order=39, leaf_capacity=200))
    errs = {}
    for P in (5, 10, 20, 30):
        out = fmm_apply(parts, RunConfig(media=media, order=P, leaf_capacity=200))
        errs[P] = error_metric(ref, out, len(parts))
    return errs


def test_criterion_1_table1_accuracy_bands(capsys):
    # On this grid, far above the interface, E_P is the free-space
    # truncation error. Greengard-Rokhlin bound it only from above, by
    # about 0.55^P for one-box separation, so the bands have no floor
    # past P = 5; the E_5 floor shows that P = 5 truncates at all, and
    # the step check shows that every higher P keeps converging.
    bands = {5: (3e-5, 5e-4), 10: (0.0, 2e-5), 20: (0.0, 2e-8),
             30: (0.0, 1e-10)}
    min_step = 10.0
    orders = sorted(bands)
    lines, all_ok = [], True
    for k in (0.1, 1.0):
        errs = _table1_errors(k)
        for P, (lo, hi) in bands.items():
            ok = lo <= errs[P] <= hi
            all_ok = all_ok and ok
            lines.append(f"k={k} E_{P}={errs[P]:.2e}"
                         + ("" if ok else f" outside [{lo:.0e},{hi:.0e}]"))
        for P, Q in zip(orders, orders[1:]):
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.float64(errs[P]) / errs[Q]
            ok = step >= min_step  # a 0/0 step (NaN) fails too
            all_ok = all_ok and ok
            lines.append(f"k={k} E_{P}/E_{Q}={step:.3g}"
                         + ("" if ok else f" below {min_step:g}"))
    _report(capsys, 1, all_ok, "; ".join(lines))


def test_criterion_2_scaling(capsys):
    media = MediaConfig.two_layer(1.0, 1.0)
    t_start = time.perf_counter()
    totals, ns = [], [10000, 90000, 360000]
    for n in ns:
        xs, ys = random_particles(42, n)
        qs = np.random.default_rng(42).normal(size=n)
        parts = _particles(xs, ys, qs)
        cfg = RunConfig(media=media, order=16, leaf_capacity=60)
        # the faster of two calls: on a shared machine one call can read
        # several times slower than the next
        totals.append(min(fmm_apply(parts, cfg).timings["total"] for _ in range(2)))
    beta = float(np.polyfit(np.log(ns), np.log(totals), 1)[0])
    elapsed = time.perf_counter() - t_start
    ok = 0.9 <= beta <= 1.2 and elapsed <= 300.0
    _report(capsys, 2, ok,
            f"beta={beta:.3f} (target [0.9,1.2]), suite {elapsed:.0f}s "
            f"(limit 300s), totals={['%.2f' % t for t in totals]}")


def test_criterion_3_oracle_equivalence(capsys):
    media = MediaConfig.two_layer(1.0, 1.0)
    rng = np.random.default_rng(300)
    n = 500
    parts = _particles(rng.uniform(-0.5, 0.5, n), rng.uniform(1.0, 2.0, n),
                       rng.normal(size=n))
    t0 = time.perf_counter()
    ref = direct_apply(parts, media)
    out = fmm_apply(parts, RunConfig(media=media, order=25, leaf_capacity=40))
    err = error_metric(ref, out, n)
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-8 and elapsed <= 60.0
    _report(capsys, 3, ok, f"rel l2 error {err:.2e} (limit 1e-8), "
                           f"{elapsed:.0f}s (limit 60s)")


def test_criterion_4_mirror_limit(capsys):
    rng = np.random.default_rng(400)
    n = 1000
    parts = _particles(rng.uniform(-0.5, 0.5, n), rng.uniform(0.5, 1.5, n),
                       rng.normal(size=n))
    layered = fmm_apply(parts, RunConfig(media=MediaConfig.two_layer(1.0, 0.0),
                                         order=30, leaf_capacity=40))
    doubled = parts + [Particle(Point2(p.position.x, -p.position.y), p.strength)
                       for p in parts]
    free = fmm_apply(doubled, RunConfig(media=MediaConfig.free(1.0),
                                        order=30, leaf_capacity=40))
    err = error_metric(layered.values, free.values[:n], n)
    _report(capsys, 4, err <= 1e-9, f"rel l2 error {err:.2e} (limit 1e-9)")


def test_criterion_5_boundary_condition(capsys):
    value, ok = check_boundary_residual()
    _report(capsys, 5, ok, f"impedance residual {value:.2e} (limit 1e-6)")


def test_criterion_6_sommerfeld_identity(capsys):
    value, ok = check_sommerfeld_identity()
    _report(capsys, 6, ok, f"worst split-vs-kernel deviation {value:.2e} "
                           f"(limit 1e-10, 50 pairs, k in {{0.1, 1}})")


def test_criterion_7_three_layer_sanity(capsys):
    # (a) equal wavenumbers: scattered field vanishes
    equal = MediaConfig.three_layer(1.0, 1.0, 1.0, 0.7)
    rng = np.random.default_rng(700)
    worst_eq = float(np.abs(scattered_batch(
        equal, rng.uniform(-2, 2, 20), rng.uniform(0.3, 3.0, 20), 1e-13)).max())

    # (b) d -> infinity: sigma_1 -> (kappa1 - kappa2) / (kappa1 + kappa2)
    thick = MediaConfig.three_layer(1.0, 0.6, 1.3, 500.0)
    t = np.linspace(0.2, 6.0, 20)
    s1, _, _, _ = three_layer_sigma(thick, t, path="evanescent")  # kappa1 = t
    k2 = np.sqrt(t * t + thick.k1 ** 2 - thick.k2 ** 2)
    worst_d = float(np.abs(s1 - (t - k2) / (t + k2)).max())

    # (c) fmm vs direct, N = 300 top-layer particles
    media = MediaConfig.three_layer(1.0, 0.6, 1.3, 0.7)
    parts = _particles(rng.uniform(-0.5, 0.5, 300), rng.uniform(0.1, 1.1, 300),
                       rng.normal(size=300))
    ref = direct_apply(parts, media)
    out = fmm_apply(parts, RunConfig(media=media, order=20, leaf_capacity=40))
    err = error_metric(ref, out, 300)

    ok = worst_eq <= 1e-12 and worst_d <= 1e-10 and err <= 1e-7
    _report(capsys, 7, ok,
            f"equal-k {worst_eq:.2e} (limit 1e-12), d->inf {worst_d:.2e} "
            f"(limit 1e-10), fmm-vs-direct {err:.2e} (limit 1e-7)")


def test_criterion_8_structural(capsys, tmp_path):
    # Toeplitz structure of the assembled heterogeneous operator
    toe_val, toe_ok = check_toeplitz()

    # store size bound and bit-exact determinism on a uniform L=3 tree:
    # two runs write their table files, which must be byte-identical
    n = 8
    cs = np.arange(n) / (n - 1.0)
    xx, yy = np.meshgrid(cs, cs)
    parts = _particles(xx.ravel(), 0.05 + yy.ravel(), np.ones(n * n))
    media = MediaConfig.two_layer(1.0, 1.0)
    P = 20
    files = [tmp_path / f"tables{i}.bin" for i in range(2)]
    runs = [fmm_apply(parts, RunConfig(media=media, order=P, leaf_capacity=1,
                                       table_cache=str(path))) for path in files]
    total = runs[0].counts["entries_held"] * (4 * P + 1)
    bound = 2 ** 4 * 49 * (4 * P + 1)
    size_ok = total <= bound
    det_ok = files[0].read_bytes() == files[1].read_bytes()

    ok = toe_ok and size_ok and det_ok
    _report(capsys, 8, ok,
            f"Toeplitz {toe_val:.1e} (limit 1e-14), store {total} complex "
            f"entries (bound {bound}), determinism {'bit-exact' if det_ok else 'BROKEN'}")


def test_criterion_9_property_suites(capsys):
    # free-space chain geometric decay in P: P2M about c, M2L to the
    # target box center t, local evaluation at x
    c, R = Point2(0.0, 1.0), 0.5
    rng = np.random.default_rng(900)
    src = [Particle(Point2(c.x + rng.uniform(-R / 2, R / 2),
                           c.y + rng.uniform(-R / 2, R / 2)),
                    complex(rng.normal())) for _ in range(20)]
    t = Point2(c.x + 3 * R, c.y)
    x = (t.x, t.y + 0.2)
    ref = sum(p.strength * free_space(1.0, x, (p.position.x, p.position.y))
              for p in src)
    sx = np.array([p.position.x for p in src])
    sy = np.array([p.position.y for p in src])
    sq = np.array([p.strength for p in src])

    def chain(P):
        m2l = translation_matrix(translation_vector_h(1.0, t.x - c.x, t.y - c.y, P), P, "m-p")
        local = m2l @ p2m_arrays(sx, sy, sq, c.x, c.y, P, 1.0)
        return local_values(local, [x[0]], [x[1]], t.x, t.y, 1.0)[0]

    errs = [abs(chain(P) - ref) for P in (5, 10, 20, 30)]
    decay_ok = errs[1] < errs[0] and errs[2] < errs[1] and errs[-1] < 1e-12

    # linearity of the layered pipeline and reciprocity of the oracle
    media = MediaConfig.two_layer(1.0, 1.0)
    pos = _particles(rng.uniform(-0.5, 0.5, 200), rng.uniform(0.1, 1.5, 200),
                     np.ones(200))
    q1 = rng.normal(size=200) + 1j * rng.normal(size=200)
    q2 = rng.normal(size=200) + 1j * rng.normal(size=200)
    cfg = RunConfig(media=media, order=12, leaf_capacity=25)

    def run(qs):
        parts = [Particle(p.position, complex(q)) for p, q in zip(pos, qs)]
        return fmm_apply(parts, cfg).values

    combined = run(q1 + q2)
    lin_err = float(np.max(np.abs(combined - (run(q1) + run(q2))))
                    / np.max(np.abs(combined)))
    lin_ok = lin_err <= 1e-12

    from hfmm.greens import scattered_direct
    rec = abs(scattered_direct(media, (0.4, 1.2), (-0.3, 0.7))
              - scattered_direct(media, (-0.3, 0.7), (0.4, 1.2)))
    rec_ok = rec <= 1e-12

    # interaction-list partition on a <= 4-level tree
    tparts = _particles(rng.uniform(-0.5, 0.5, 250), rng.uniform(0.05, 1.5, 250),
                        np.ones(250))
    tree = build_lists(build_tree([p.position.x for p in tparts], [p.position.y for p in tparts],
                                  TreeConfig(leaf_capacity=6, max_level=4)))
    near = set(zip(*near_source_leaves(tree)))
    v_pairs = set(zip(tree.v_tgt, tree.v_src))

    def ancestors(node):
        out = []
        while node >= 0:
            out.append(node)
            node = tree.parent[node]
        return out

    part_ok = True
    for tgt in tree.leaves:
        tanc = ancestors(tgt)
        for srcl in tree.leaves:
            sanc = ancestors(srcl)
            hits = sum(1 for a in tanc for b in sanc if (a, b) in v_pairs)
            hits += 1 if (tgt, srcl) in near else 0
            if hits != 1:
                part_ok = False

    ok = decay_ok and lin_ok and rec_ok and part_ok
    _report(capsys, 9, ok,
            f"P-decay {['%.1e' % e for e in errs]}, linearity {lin_err:.1e}, "
            f"reciprocity {rec:.1e}, partition {'ok' if part_ok else 'BROKEN'}")
