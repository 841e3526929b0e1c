"""Tests for the FMM driver and the direct reference."""

import importlib.util
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hfmm import cli, driver, expansions, greens, layered, quadrature
from hfmm.driver import (PotentialVector, RunConfig, direct_apply, error_metric,
                         fmm_apply)
from hfmm.greens import MediaConfig, Point2
from hfmm.tree import Particle, TreeConfig, build_lists, build_tree, near_source_leaves
from hfmm.specfun import hankel0, hankel0_sq


def _random_particles(seed, n, ylo=0.5, yhi=1.5, complex_q=True):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-0.5, 0.5, n)
    ys = rng.uniform(ylo, yhi, n)
    if complex_q:
        qs = rng.normal(size=n) + 1j * rng.normal(size=n)
    else:
        qs = rng.normal(size=n)
    return [Particle(Point2(float(x), float(y)), complex(q))
            for x, y, q in zip(xs, ys, qs)]


def _line_pairs(ws):
    """The two-layer cut pairs of ws.line_image as (tgt, src, C), a mirrored pair both ways."""
    return [pair for t, s, C, mirror in zip(*(a.tolist() for a in ws.line_image))
            for pair in [(t, s, C)] + [(s, t, C)] * mirror]


class TestErrorMetric:
    def test_identical_vectors(self):
        v = np.array([1.0 + 2j, 3.0])
        assert error_metric(v, v, 2) == 0.0

    def test_unit_mismatch(self):
        assert error_metric(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 1) == 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        ref = rng.normal(size=10) + 1j * rng.normal(size=10)
        test = ref + 0.01 * rng.normal(size=10)
        c = 2.0 - 3.0j
        assert error_metric(c * ref, c * test, 10) == pytest.approx(
            error_metric(ref, test, 10), rel=1e-12)

    def test_accepts_potential_vectors(self):
        a = PotentialVector(np.ones(3, complex))
        b = PotentialVector(np.ones(3, complex) * 1.5)
        assert error_metric(a, b, 3) == pytest.approx(0.5, rel=1e-14)

    def test_guards(self):
        with pytest.raises(ValueError):
            error_metric(np.ones(3), np.ones(4), 3)
        with pytest.raises(ValueError):
            error_metric(np.ones(3), np.ones(3), 5)
        with pytest.raises(ValueError):
            error_metric(np.zeros(3), np.ones(3), 3)


class TestDirectApply:
    def test_zero_strengths(self):
        parts = [Particle(Point2(0.1, 1.0), 0.0), Particle(Point2(0.5, 1.3), 0.0)]
        out = direct_apply(parts, MediaConfig.two_layer(1.0, 1.0))
        np.testing.assert_array_equal(out.values, 0.0)

    def test_swap_symmetry(self):
        media = MediaConfig.two_layer(1.0, 1.0)
        a = Particle(Point2(0.0, 1.0), 1.0 + 0j)
        b = Particle(Point2(0.5, 1.4), 2.0 + 0j)
        fwd = direct_apply([a, b], media).values
        rev = direct_apply([b, a], media).values
        np.testing.assert_allclose(fwd, rev[::-1], rtol=1e-13)

    def test_size_guard(self):
        parts = _random_particles(2, 30)
        with pytest.raises(ValueError):
            direct_apply(parts, MediaConfig.free(1.0), max_n=10)

    def test_below_interface_rejected(self):
        parts = [Particle(Point2(0.0, -0.1), 1.0)]
        with pytest.raises(ValueError):
            direct_apply(parts, MediaConfig.two_layer(1.0, 1.0))

    @pytest.mark.parametrize("media", [
        MediaConfig.free(1.0), MediaConfig.two_layer(1.0, 1.0),
        MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8)], ids=lambda m: m.variant)
    def test_no_particles(self, media):
        assert direct_apply([], media).values.shape == (0,)

    @pytest.mark.parametrize("tol", [0.0, 1e-3])
    def test_tol_outside_the_oracle_range_refused(self, tol):
        # refused before any quadrature, as scattered_direct refuses it, and
        # in free space too, where no quadrature runs
        parts = [Particle(Point2(0.1, 1.0), 1.0), Particle(Point2(0.5, 1.3), 1.0)]
        for media in (MediaConfig.two_layer(1.0, 1.0), MediaConfig.free(1.0)):
            with pytest.raises(ValueError, match="tol"):
                direct_apply(parts, media, tol=tol)

    def test_memory_is_one_block_of_rows(self):
        # one N x N complex kernel alone would be 64 MB at N = 2000
        parts = _random_particles(8, 2000)
        tracemalloc.start()
        try:
            direct_apply(parts, MediaConfig.free(1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestRunConfig:
    def test_order_guard(self):
        with pytest.raises(ValueError):
            RunConfig(media=MediaConfig.free(1.0), order=0)

    def test_evan_count_resolution(self, tmp_path):
        # the table file header holds P and the quadrature rule: propagating
        # start and cap nodes per segment, grid start and cap nodes per
        # panel and the three tolerances, the same for every medium
        parts = _random_particles(9, 60)
        headers = {}
        for media in (MediaConfig.two_layer(1.0, 1.0),
                      MediaConfig.three_layer(1.0, 0.6, 1.3, 0.7)):
            path = tmp_path / f"{media.variant}.bin"
            fmm_apply(parts, RunConfig(media=media, order=5, leaf_capacity=10,
                                       table_cache=str(path)))
            raw = path.read_bytes()
            (fplen,) = struct.unpack_from("<I", raw, 8)
            headers[media.variant] = struct.unpack_from("<IIIIIddd", raw, 12 + fplen)
        rule = (5, 64, 1024, 32, 256, 1e-12, 5e-12, 1e-10)
        assert headers == {"two-layer": rule, "three-layer": rule}


class TestNonFinite:
    # H_{2P}(k 2w) passes the largest double at the deepest M2L level, so
    # the vectors, and without the check every potential, are not finite
    @pytest.mark.parametrize("warn", ["error", "ignore"])
    @pytest.mark.parametrize("media, leaf, P, level", [
        pytest.param(MediaConfig.free(0.01), 20, 40, 2, id="free-k0.01"),
        pytest.param(MediaConfig.two_layer(0.01, 1.0), 20, 40, 2, id="two-layer-k0.01"),
        pytest.param(MediaConfig.free(1.0), 3, 48, 6, id="free-k1-leaf3"),
    ])
    def test_overflowing_m2l_raises(self, media, leaf, P, level, warn):
        xs, ys = cli.random_particles(42, 3000)
        parts = [Particle(Point2(x, y), q)
                 for x, y, q in zip(xs, ys, np.random.default_rng(7).normal(size=3000))]
        with warnings.catch_warnings():
            warnings.simplefilter(warn)
            with pytest.raises(ValueError, match=f"M2L vectors at level {level} are not finite "
                                                 rf"\(k\*w = .*, P = {P}\)"):
                fmm_apply(parts, RunConfig(media=media, order=P, leaf_capacity=leaf))

    def test_non_finite_potentials_raise(self, monkeypatch):
        monkeypatch.setattr(driver, "_local_potentials", lambda ws, out: out.fill(np.nan))
        with pytest.raises(ValueError, match="potentials are not finite"):
            fmm_apply(_random_particles(9, 60), RunConfig(media=MediaConfig.free(1.0), order=5))

    @pytest.mark.parametrize("warn", ["error", "ignore"])
    def test_overflowing_table_grid_raises(self, warn):
        # the width-3 strip of test_flat_strip_near_interface: at P = 60 the
        # grid's e^(-t dy) z^(-2P) passes the largest double, at P = 50 it does not
        rng = np.random.default_rng(41)
        xs, ys = rng.uniform(-1.5, 1.5, 400), rng.uniform(0.01, 0.11, 400)
        parts = [Particle(Point2(float(x), float(y)), float(q))
                 for x, y, q in zip(xs, ys, rng.normal(size=400))]
        media = MediaConfig.two_layer(1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter(warn)
            with pytest.raises(ValueError, match=r"evanescent table grid overflows at P=60 "
                                                 r"\(smallest dy 0\.0382\)"):
                fmm_apply(parts, RunConfig(media=media, order=60, leaf_capacity=20))
            got = fmm_apply(parts, RunConfig(media=media, order=50, leaf_capacity=20)).values
        assert np.isfinite(got).all()


class TestFmmAgainstDirect:
    def test_free_space(self):
        parts = _random_particles(3, 400)
        media = MediaConfig.free(1.0)
        ref = direct_apply(parts, media)
        got = fmm_apply(parts, RunConfig(media=media, order=20, leaf_capacity=30))
        assert error_metric(ref, got, len(parts)) <= 1e-9

    def test_two_layer_elevated(self):
        parts = _random_particles(4, 250, ylo=1.0, yhi=2.0)
        media = MediaConfig.two_layer(1.0, 1.0)
        ref = direct_apply(parts, media)
        got = fmm_apply(parts, RunConfig(media=media, order=20, leaf_capacity=30))
        assert error_metric(ref, got, len(parts)) <= 1e-9

    def test_two_layer_near_interface(self):
        parts = _random_particles(5, 220, ylo=0.02, yhi=1.0)
        media = MediaConfig.two_layer(1.0, 1.0)
        ref = direct_apply(parts, media)
        got = fmm_apply(parts, RunConfig(media=media, order=20, leaf_capacity=30))
        assert error_metric(ref, got, len(parts)) <= 1e-8

    @pytest.mark.parametrize("half_width", [5.0, 1.5], ids=["width-10", "width-3"])
    def test_flat_strip_near_interface(self, half_width):
        # a strip 0.1 high just above the interface: its rescaled k and
        # alpha reach 10, and entries with dx several times dy must
        # resolve e^{i root dx} on the evanescent contour
        rng = np.random.default_rng(41)
        xs = rng.uniform(-half_width, half_width, 400)
        ys = rng.uniform(0.01, 0.11, 400)
        qs = rng.normal(size=400)
        parts = [Particle(Point2(float(x), float(y)), float(q)) for x, y, q in zip(xs, ys, qs)]
        media = MediaConfig.two_layer(1.0, 1.0)
        got = fmm_apply(parts, RunConfig(media=media, order=16, leaf_capacity=20)).values
        # sampled oracle: free-space rows plus batched scattered rows
        rows = rng.choice(400, 8, replace=False)
        ref = []
        for i in rows:
            r = np.hypot(xs[i] - xs, ys[i] - ys)
            r[i] = 1.0
            free = 0.25j * hankel0(r)
            free[i] = 0.0
            ref.append(free @ qs + greens.scattered_batch(media, xs[i] - xs, ys[i] + ys) @ qs)
        assert error_metric(np.array(ref), got[rows], len(rows)) <= 1e-8

    def test_three_layer(self):
        parts = _random_particles(6, 150, ylo=0.05, yhi=1.0)
        media = MediaConfig.three_layer(1.0, 0.6, 1.3, 0.7)
        ref = direct_apply(parts, media)
        got = fmm_apply(parts, RunConfig(media=media, order=20, leaf_capacity=30))
        assert error_metric(ref, got, len(parts)) <= 1e-7

    def test_alpha_zero_mirror_construction(self):
        parts = _random_particles(7, 300, ylo=0.1, yhi=1.2)
        layered = fmm_apply(parts, RunConfig(media=MediaConfig.two_layer(1.0, 0.0),
                                             order=25, leaf_capacity=30))
        mirrored = parts + [Particle(Point2(p.position.x, -p.position.y),
                                     p.strength) for p in parts]
        free = fmm_apply(mirrored, RunConfig(media=MediaConfig.free(1.0),
                                             order=25, leaf_capacity=30))
        # free-space run reports all 2N targets; the first N match the
        # layered potentials up to each target's own mirror contribution,
        # which the doubled direct sum includes and the layered sum
        # includes through the scattered kernel; values must agree
        assert error_metric(layered.values, free.values[:len(parts)],
                            len(parts)) <= 1e-9


class TestStructure:
    def test_determinism(self):
        parts = _random_particles(8, 300, ylo=0.05, yhi=1.5)
        cfg = RunConfig(media=MediaConfig.two_layer(1.0, 1.0), order=12,
                        leaf_capacity=25)
        a = fmm_apply(parts, cfg).values
        b = fmm_apply(parts, cfg).values
        np.testing.assert_array_equal(a, b)

    def test_linearity(self):
        pos = _random_particles(10, 250, ylo=0.1, yhi=1.5)
        rng = np.random.default_rng(11)
        q1 = rng.normal(size=250) + 1j * rng.normal(size=250)
        q2 = rng.normal(size=250) + 1j * rng.normal(size=250)
        media = MediaConfig.two_layer(1.0, 1.0)
        cfg = RunConfig(media=media, order=12, leaf_capacity=25)

        def run(qs):
            parts = [Particle(p.position, complex(q)) for p, q in zip(pos, qs)]
            return fmm_apply(parts, cfg).values

        combined = run(q1 + q2)
        summed = run(q1) + run(q2)
        assert np.max(np.abs(combined - summed)) <= 1e-11 * np.max(np.abs(combined))

    def test_timings_reported(self):
        parts = _random_particles(12, 150)
        passes = ("tables", "upward", "downward", "near_local", "near_free", "near_cut")
        for media in (MediaConfig.free(1.0), MediaConfig.two_layer(1.0, 1.0),
                      MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8)):
            t = fmm_apply(parts, RunConfig(media=media, order=8)).timings
            # every key is a pass, a translation operator within one, or an aggregate
            assert set(t) == {"build", *passes, "m2m", "l2l", "m2l_free", "m2l_table",
                              "near", "total"}
            assert all(seconds >= 0.0 for seconds in t.values())
            assert t["upward"] >= t["m2m"] > 0.0
            assert t["downward"] >= t["l2l"] + t["m2l_free"] + t["m2l_table"]
            assert (t["m2l_table"] > 0.0) == (media.variant != "free")
            # the near sub-phases partition the near phase
            assert t["near"] == pytest.approx(t["near_local"] + t["near_free"] + t["near_cut"])
            assert t["total"] >= t["build"] + sum(t[phase] for phase in passes)

    def test_table_cache_round_trip(self, tmp_path):
        parts = _random_particles(14, 200, ylo=0.1, yhi=1.2)
        media = MediaConfig.two_layer(1.0, 1.0)
        cache = str(tmp_path / "tables.bin")
        cfg = RunConfig(media=media, order=10, table_cache=cache)
        first = fmm_apply(parts, cfg).values
        assert (tmp_path / "tables.bin").exists()
        second = fmm_apply(parts, cfg).values  # now loaded from disk
        np.testing.assert_array_equal(first, second)

    def test_warm_call_builds_no_legendre_rule(self, monkeypatch):
        # y down to 5e-3: entries near the reflectance pole, B tails and
        # near pairs through the truncated line image
        parts = _random_particles(15, 300, ylo=5e-3, yhi=1.0)
        cfg = RunConfig(media=MediaConfig.two_layer(1.0, 1.0), order=12,
                        leaf_capacity=30)
        first = fmm_apply(parts, cfg).values
        calls = {"rule": 0, "A": 0, "tail": 0}

        def counted(key, fn):
            # a table computation counts its keys
            def wrapped(*args, **kwargs):
                calls[key] += len(args[0]) if key != "rule" else 1
                return fn(*args, **kwargs)
            return wrapped

        for mod in (quadrature, greens, layered, driver):
            if hasattr(mod, "roots_legendre"):
                monkeypatch.setattr(mod, "roots_legendre",
                                    counted("rule", mod.roots_legendre))
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            counted("rule", np.polynomial.legendre.leggauss))
        monkeypatch.setattr(layered, "compute_A", counted("A", layered.compute_A))
        monkeypatch.setattr(layered, "compute_B_tail",
                            counted("tail", layered.compute_B_tail))
        second = fmm_apply(parts, cfg).values
        assert calls["A"] > 0 and calls["tail"] > 0
        assert calls["rule"] == 0
        np.testing.assert_array_equal(first, second)

    def test_three_layer_near_pairs_skip_the_pairwise_oracle(self, monkeypatch):
        parts = _random_particles(17, 300, ylo=0.01, yhi=1.0)
        cfg = RunConfig(media=MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8), order=12,
                        leaf_capacity=30)
        assert len(driver._Workspace(parts, cfg).cut[0]) > 0
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return greens.scattered_batch(*args, **kwargs)

        monkeypatch.setattr(driver, "scattered_batch", counted)
        fmm_apply(parts, cfg)
        assert calls == []

    @pytest.mark.parametrize("media", [
        MediaConfig.free(1.0), MediaConfig.two_layer(1.0, 1.0),
        MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8)], ids=lambda m: m.variant)
    def test_one_pair_key_call_for_v_pairs_and_one_for_near_pairs(self, monkeypatch, media):
        # one call in all: its near mask is False for the V pairs, then
        # True for the near pairs
        parts = _random_particles(26, 600, ylo=0.01, yhi=1.0)
        calls = []
        real = layered.pair_key

        def counted(*args, near=False):
            calls.append(np.asarray(near).tolist())
            return real(*args, near=near)

        monkeypatch.setattr(layered, "pair_key", counted)
        out = fmm_apply(parts, RunConfig(media=media, order=6, leaf_capacity=20))
        v, near = out.counts["v_pairs"], out.counts["near_pairs"]
        assert calls == ([] if media.variant == "free" else [[False] * v + [True] * near])

    @pytest.mark.parametrize("media", [
        MediaConfig.free(1.0), MediaConfig.two_layer(1.0, 1.0),
        MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8)], ids=lambda m: m.variant)
    def test_coincident_particles_rejected(self, media):
        parts = _random_particles(18, 120)
        parts.append(Particle(parts[7].position, 2.0))
        with pytest.raises(ValueError, match="coincide"):
            fmm_apply(parts, RunConfig(media=media, order=8, leaf_capacity=30))
        with pytest.raises(ValueError, match="coincide"):
            direct_apply(parts, media)

    @pytest.mark.parametrize("bad", ["nan-x", "inf-y", "nan-charge"])
    def test_non_finite_input_rejected(self, bad):
        parts = _random_particles(20, 200)
        pos, q = parts[7].position, parts[7].strength
        parts[7] = {"nan-x": Particle(Point2(np.nan, pos.y), q),
                    "inf-y": Particle(Point2(pos.x, np.inf), q),
                    "nan-charge": Particle(pos, complex(np.nan, 0.0))}[bad]
        media = MediaConfig.two_layer(1.0, 1.0)
        with pytest.raises(ValueError, match="particle 7 is not finite"):
            fmm_apply(parts, RunConfig(media=media, order=8, leaf_capacity=30))
        with pytest.raises(ValueError, match="particle 7 is not finite"):
            direct_apply(parts, media)

    def test_below_interface_rejected(self):
        parts = [Particle(Point2(0.0, 0.5), 1.0), Particle(Point2(0.1, -0.2), 1.0)]
        with pytest.raises(ValueError):
            fmm_apply(parts, RunConfig(media=MediaConfig.two_layer(1.0, 1.0), order=5))


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


class TestBenchmarkHooks:
    """The benchmark wraps functions at the names the driver calls them by."""

    def test_tracer_finds_every_function(self):
        tracer = _tracing().Tracer()
        try:
            assert tracer.missing == set()
        finally:
            tracer.restore()

    def test_counts_match_the_traced_tree(self):
        # the tree shape in counts comes from the plan arrays; the tracer
        # reads it off the tree objects
        tracing = _tracing()
        parts = _clustered_particles(25, 1200)
        tracer = tracing.Tracer()
        try:
            tracer.recording = True
            out = fmm_apply(parts, RunConfig(media=MediaConfig.two_layer(1.0, 1.0), order=6,
                                             leaf_capacity=20))
            tracer.recording = False
            layers = tracing.summarize(tracer.drain())
        finally:
            tracer.restore()
        assert out.counts["depth"] == layers["tree.build_tree"]["depth"] > 2
        assert out.counts["leaves"] == layers["tree.build_tree"]["leaves"]
        assert out.counts["v_pairs"] == layers["tree.build_lists"]["v_pairs"] > 0
        assert out.counts["near_pairs"] == layers["tree.near_source_leaves"]["near_pairs"]

    def test_benchmark_smoke_check_passes(self):
        # every workload, untraced and traced, on tiny inputs: the tracer
        # names and the table-cache guard of the resolve workload hold
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, str(root / "perfbench" / "smoke.py")],
                              cwd=root, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]

    def test_upward_pass_calls_p2m_through_the_module(self, monkeypatch):
        # one p2m_arrays call per chunk of leaves, not one per leaf
        parts = _random_particles(16, 1200)
        cfg = RunConfig(media=MediaConfig.free(1.0), order=16, leaf_capacity=30)
        calls = []
        p2m = expansions.p2m_arrays

        def counted(*args, **kwargs):
            calls.append(args)
            return p2m(*args, **kwargs)

        monkeypatch.setattr(expansions, "p2m_arrays", counted)
        fmm_apply(parts, cfg)
        leaves = len(build_tree(*_positions(parts), TreeConfig(leaf_capacity=30)).leaves)
        assert len(calls) == len(driver._Workspace(parts, cfg).chunks)
        assert 1 <= len(calls) < leaves


def _clustered_particles(seed, n):
    """Three tight clusters over a uniform background: an adaptive tree with leaves on several levels."""
    rng = np.random.default_rng(seed)
    m = n // 4
    xs = np.concatenate([rng.uniform(-0.5, 0.5, n - 3 * m)]
                        + [rng.normal(cx, 0.02, m) for cx in (-0.3, 0.05, 0.32)])
    ys = np.concatenate([rng.uniform(0.5, 1.5, n - 3 * m)]
                        + [rng.normal(cy, 0.02, m) for cy in (0.7, 1.25, 0.9)])
    qs = rng.normal(size=n) + 1j * rng.normal(size=n)
    return [Particle(Point2(float(x), float(y)), complex(q)) for x, y, q in zip(xs, ys, qs)]


def _positions(parts):
    return [p.position.x for p in parts], [p.position.y for p in parts]


def _close(got, want, rtol):
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestLeafSweeps:
    """P2M and local evaluation sweep chunks of leaves taken in particle order."""

    def _workspace(self):
        ws = driver._Workspace(_clustered_particles(21, 1500),
                               RunConfig(media=MediaConfig.free(1.0), order=12,
                                         leaf_capacity=20))
        tree = ws.tree
        # the leaves in particle order: their spans tile the particles
        starts, stops = tree.start[tree.leaves], tree.stop[tree.leaves]
        assert starts[0] == 0 and stops[-1] == len(ws.q)
        np.testing.assert_array_equal(starts[1:], stops[:-1])
        assert len(set(tree.level[tree.leaves])) > 1
        assert 1 < len(ws.chunks) < len(ws.leaves) == len(tree.leaves)
        return ws

    def test_chunk_bounds_follow_the_greedy_rule(self):
        ws = self._workspace()
        # per leaf: a new chunk begins where the next leaf would take the
        # current one past the budget; a leaf larger than it is a chunk alone
        budget = driver._SWEEP_BYTES // (16 * (2 * ws.P + 1))
        starts, stops = ws.start[ws.leaves], ws.stop[ws.leaves]
        bounds = [0]
        for i in range(1, len(starts)):
            if stops[i] - starts[bounds[-1]] > budget:
                bounds.append(i)
        bounds.append(len(starts))
        assert [(span.start, span.stop, ids.tolist(), offsets.tolist())
                for span, ids, offsets in ws.chunks] == [
            (starts[i], stops[j - 1], ws.leaves[i:j].tolist(), (starts[i:j] - starts[i]).tolist())
            for i, j in zip(bounds, bounds[1:])]

    def test_chunked_p2m_matches_per_leaf(self):
        ws = self._workspace()
        tree = ws.tree
        driver._upward(ws, None)  # upward adds nothing to the potentials
        for i in ws.leaves:
            a, b = tree.start[i], tree.stop[i]
            want = expansions.p2m_arrays(ws.x[a:b], ws.y[a:b], ws.q[a:b],
                                         tree.cx[i], tree.cy[i], ws.P, ws.k)
            assert _close(ws.multipole[i], want, 1e-14)

    def test_chunked_local_evaluation_matches_per_leaf(self):
        ws = self._workspace()
        tree = ws.tree
        rng = np.random.default_rng(22)
        shape = (len(ws.level), 2 * ws.P + 1)
        ws.local = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = np.zeros(len(ws.q), dtype=complex)
        driver._local_potentials(ws, got)
        for i in ws.leaves:
            a, b = tree.start[i], tree.stop[i]
            want = driver.local_values(ws.local[i], ws.x[a:b], ws.y[a:b],
                                       tree.cx[i], tree.cy[i], ws.k)
            assert _close(got[a:b], want, 1e-14)


class TestNearField:
    # 2 KiB: 128 complex values, so rows split into several column
    # chunks and the line-image nodes into several batches
    SMALL = 1 << 11

    @pytest.mark.parametrize("budget", [None, SMALL], ids=["whole-rows", "chunked"])
    def test_symmetric_blocks_match_ordered_pairs(self, monkeypatch, budget):
        ws = driver._Workspace(_clustered_particles(23, 1500),
                               RunConfig(media=MediaConfig.free(1.0), order=8,
                                         leaf_capacity=20))
        assert len(set(ws.level[ws.leaves])) > 1
        if budget is not None:
            monkeypatch.setattr(driver, "_SWEEP_BYTES", budget)
            targets, bounds, srcs = ws.near_rows
            sizes = ws.stop[targets] - ws.start[targets]
            widths = np.add.reduceat(ws.stop[srcs] - ws.start[srcs], bounds[:-1])
            # some row is wider than its chunks
            assert np.any(widths > budget // (16 * sizes))
        got = np.zeros(len(ws.q), dtype=complex)
        driver._near_free(ws, got)
        want = np.zeros_like(got)
        tgt, src = near_source_leaves(ws.tree)
        start, stop = ws.tree.start, ws.tree.stop
        for t, s in zip(tgt, src):  # every (target, source) block on its own
            a, b, c, d = start[t], stop[t], start[s], stop[s]
            r = np.hypot(ws.x[a:b, None] - ws.x[None, c:d],
                         ws.y[a:b, None] - ws.y[None, c:d])
            g = np.zeros(r.shape, dtype=complex)
            g[r > 0] = 0.25j * hankel0(ws.k * r[r > 0])
            want[a:b] += g @ ws.q[c:d]
        assert len(ws.blocks[0]) < len(ws.near[0]) == len(tgt)
        assert _close(got, want, 1e-14)

    def test_rows_hold_the_blocks_own_leaf_first(self):
        ws = driver._Workspace(_clustered_particles(23, 1500),
                               RunConfig(media=MediaConfig.free(1.0), order=8,
                                         leaf_capacity=20))
        targets, bounds, srcs = ws.near_rows
        tgt, src = ws.blocks
        assert targets.tolist() == sorted(set(tgt.tolist()))
        # one source leaf id per block: the persistent layout holds no
        # per-particle index
        assert len(srcs) == len(src) and len(bounds) == len(targets) + 1
        for t, lo, hi in zip(targets.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
            assert srcs[lo:hi].tolist() == sorted(src[tgt == t].tolist())
            assert srcs[lo] == t

    @pytest.mark.parametrize("budget", [None, SMALL], ids=["whole-nodes", "chunked"])
    def test_stacked_line_image_matches_per_node_loop(self, monkeypatch, budget):
        # two-layer near-interface part I: the point image and the 32
        # line-image nodes, summed one node and one pair at a time
        ws = driver._Workspace(_random_particles(27, 400, ylo=5e-3, yhi=1.0),
                               RunConfig(media=MediaConfig.two_layer(1.0, 1.0), order=8,
                                         leaf_capacity=20))
        assert len(np.unique(ws.line_image[2])) >= 2
        if budget is not None:
            monkeypatch.setattr(driver, "_SWEEP_BYTES", budget)
            sizes = ws.stop - ws.start
            t, s, _, _ = ws.line_image
            # some pair's 33 nodes take more than one batch
            assert np.any(budget // (16 * sizes[t] * sizes[s]) < 33)
        got = np.zeros(len(ws.q), dtype=complex)
        driver._near_cut(ws, got)
        want = np.zeros_like(got)
        k, x, y, q, start, stop = ws.k, ws.x, ws.y, ws.q, ws.start, ws.stop
        gl_x, gl_w = quadrature.legendre_base(32)
        for t, s, C in _line_pairs(ws):
            s_nodes = 0.5 * C * (gl_x + 1.0)
            s_w = 0.5 * C * gl_w
            mu = 2j * ws.media.alpha * np.exp(1j * ws.media.alpha * s_nodes)
            a, b, c, d = start[t], stop[t], start[s], stop[s]
            tx, ty = x[a:b], y[a:b]
            sx, sy, sq = x[c:d], y[c:d], q[c:d]
            r_img = np.hypot(tx[:, None] - sx[None, :], ty[:, None] + sy[None, :])
            want[a:b] += (0.25j * hankel0(k * r_img)) @ sq
            for idx in range(len(s_nodes)):
                r_line = np.hypot(tx[:, None] - sx[None, :],
                                  ty[:, None] + sy[None, :] + s_nodes[idx])
                want[a:b] += (s_w[idx] * mu[idx]) * ((0.25j * hankel0(k * r_line)) @ sq)
        assert np.any(want != 0)
        assert _close(got, want, 1e-14)

    def test_line_image_near_the_interface_matches_quad(self):
        # part I of a cut pair whose particles sit about 1e-4 above the
        # interface: the line image's log singularity at s = -(y_t + y_s)
        # is 600 times closer to its [0, C] than C is long, which one
        # 32-node panel over [0, C] misses by up to 3e-7 relative
        from scipy.integrate import quad
        from scipy.special import hankel1

        rng = np.random.default_rng(5)
        xs = np.r_[rng.uniform(0.0, 1.0, 60), 0.30, 0.31, 0.46, 0.47]
        ys = np.r_[rng.uniform(0.05, 1.0, 60), 1e-4, 1.3e-4, 1e-4, 1.1e-4]
        parts = [Particle(Point2(float(x), float(y)), float(q))
                 for x, y, q in zip(xs, ys, rng.normal(size=len(xs)))]
        ws = driver._Workspace(parts, RunConfig(media=MediaConfig.two_layer(1.0, 1.0),
                                                order=8, leaf_capacity=4))
        start, stop, x, y = ws.start, ws.stop, ws.x, ws.y
        t, s, C, mirror = ws.line_image
        low = np.array([y[start[a]:stop[a]].min() + y[start[b]:stop[b]].min()
                        for a, b in zip(t, s)])
        i = int(np.argmax(C / low))
        assert low[i] < 3e-4 and C[i] > 500 * low[i]
        ws.line_image = (t[i:i + 1], s[i:i + 1], C[i:i + 1], mirror[i:i + 1])
        got = np.zeros(len(ws.q), dtype=complex)
        driver._near_cut(ws, got)

        k, alpha = ws.k, ws.media.alpha
        a, b = start[t[i]], stop[t[i]]
        want = np.zeros(b - a, dtype=complex)
        for ti in range(a, b):
            for sj in range(start[s[i]], stop[s[i]]):
                dx, height = x[ti] - x[sj], y[ti] + y[sj]

                def line(u, part):
                    value = (2j * alpha * np.exp(1j * alpha * u)
                             * hankel1(0, k * np.hypot(dx, height + u)))
                    return value.real if part == 0 else value.imag

                re, im = (quad(line, 0.0, C[i], args=(part,), epsabs=0.0, epsrel=1e-13,
                               limit=200)[0] for part in (0, 1))
                image = hankel1(0, k * np.hypot(dx, height))
                want[ti - a] += ws.q[sj] * 0.25j * (image + re + 1j * im)
        assert np.all(np.abs(got[a:b] - want) <= 1e-13 * np.abs(want))

    def test_no_kernel_value_evaluated_twice(self, monkeypatch):
        # one value per unordered near particle pair, and 33 (the point
        # image and 32 line-image nodes) per particle pair of an unordered
        # cut leaf pair, summed over both kernels: the series from r^2 and
        # scipy's hankel0
        parts = _random_particles(27, 400, ylo=5e-3, yhi=1.0)
        cfg = RunConfig(media=MediaConfig.two_layer(1.0, 1.0), order=8, leaf_capacity=20)
        ws = driver._Workspace(parts, cfg)
        sizes = ws.stop - ws.start
        tgt, src = ws.blocks
        pairs = _line_pairs(ws)
        cut = {(min(a, b), max(a, b)) for a, b, _ in pairs}
        assert len(cut) == len(ws.line_image[0]) < len(pairs) and any(a != b for a, b in cut)
        want = int(np.sum(sizes[tgt] * sizes[src]) + 33 * sum(sizes[a] * sizes[b] for a, b in cut))
        values = []

        def counted(kernel):
            def wrapped(x):
                values.append(np.size(x))
                return kernel(x)
            return wrapped

        monkeypatch.setattr(driver, "hankel0", counted(hankel0))
        monkeypatch.setattr(driver, "hankel0_sq", counted(hankel0_sq))
        fmm_apply(parts, cfg)
        assert sum(values) == want

    def test_asymmetric_near_map_refused(self, monkeypatch):
        parts = _clustered_particles(24, 600)
        real = driver.near_source_leaves

        def one_sided(tree):
            tgt, src = real(tree)
            # one leaf keeps only itself; its partners still list it
            leaf = tgt[np.argmax(tgt != src)]
            keep = (tgt != leaf) | (src == leaf)
            return tgt[keep], src[keep]

        monkeypatch.setattr(driver, "near_source_leaves", one_sided)
        with pytest.raises(ValueError, match="not symmetric"):
            driver._Workspace(parts, RunConfig(media=MediaConfig.free(1.0), order=8,
                                               leaf_capacity=20))


def _cut_workspace(media, ylo, n=200, leaf=20, pin=None, seed=31):
    """Workspace of a three-layer tree with cut rows; pin puts particle 0 at y = pin."""
    parts = _random_particles(seed, n, ylo=ylo, yhi=1.0)
    if pin is not None:
        parts[0] = Particle(Point2(parts[0].position.x, pin), parts[0].strength)
    ws = driver._Workspace(parts, RunConfig(media=media, order=8, leaf_capacity=leaf))
    assert len(ws.cut[0]) > 0
    return ws


def _pairwise_cut(ws):
    """The cut field of ws summed pair by pair with the scattered_batch oracle."""
    x, y, q, start, stop = ws.x, ws.y, ws.q, ws.start, ws.stop
    want = np.zeros(len(q), dtype=complex)
    leaves, bounds, srcs = ws.cut
    for t, lo, hi in zip(leaves.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
        a, b = start[t], stop[t]
        j = np.concatenate([np.arange(start[s], stop[s]) for s in srcs[lo:hi]])
        us = greens.scattered_batch(ws.media, (x[a:b, None] - x[j]).ravel(),
                                    (y[a:b, None] + y[j]).ravel())
        want[a:b] += us.reshape(b - a, len(j)) @ q[j]
    return want


class TestCutField:
    """The three-layer cut field: every cut row on one spectral grid (driver._cut_field)."""

    def test_matches_pairwise_batch_down_to_1e_3(self):
        # particle 0 sits at y = 5e-4, so its own pair has y_t + y_s = 1e-3,
        # and its leaf is a cut row that lists itself as a source
        ws = _cut_workspace(MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8), 1e-3, pin=5e-4)
        i = int(np.flatnonzero(ws.tree.perm == 0)[0])
        assert 2 * ws.y[i] * ws.tree.side == pytest.approx(1e-3)
        leaves, bounds, srcs = ws.cut
        r = int(np.flatnonzero(leaves == ws.row[i])[0])
        assert ws.row[i] in srcs[bounds[r]:bounds[r + 1]]
        got = np.zeros(len(ws.q), dtype=complex)
        driver._near_cut(ws, got)
        want = _pairwise_cut(ws)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_matches_pairwise_batch_with_branch_point_on_evanescent_contour(self):
        # k3 > k1 puts a kink of sigma on the evanescent contour, which
        # the grid must break at
        media = MediaConfig.three_layer(1.0, 0.6, 1.3, 0.7)
        ws = _cut_workspace(media, 1e-3)
        assert greens.spectral_breakpoints(ws.media, "evanescent", np.inf)
        got = np.zeros(len(ws.q), dtype=complex)
        driver._near_cut(ws, got)
        want = _pairwise_cut(ws)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_node_chunks_match_one_block(self, monkeypatch):
        ws = _cut_workspace(MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8), 0.01)
        runs = []
        # the whole level in one block, then about three nodes per block
        for budget in (1 << 40, 16 * len(ws.q) * 3):
            monkeypatch.setattr(driver, "_SWEEP_BYTES", budget)
            runs.append(np.zeros(len(ws.q), dtype=complex))
            driver._near_cut(ws, runs[-1])
        whole, chunked = runs
        assert np.any(whole != 0)
        assert np.linalg.norm(chunked - whole) <= 1e-14 * np.linalg.norm(whole)

    def test_zero_charges_give_zeros(self):
        ws = _cut_workspace(MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8), 0.01)
        ws.q[:] = 0.0
        got = np.zeros(len(ws.q), dtype=complex)
        driver._near_cut(ws, got)
        np.testing.assert_array_equal(got, 0.0)
        assert ws.cut_nodes > 0

    def test_low_cap_raises_and_leaves_the_field_unchanged(self, monkeypatch):
        # y down to 1e-5 needs 64 nodes per panel: a cap of 32 must raise
        ws = _cut_workspace(MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8), 1e-5, n=300,
                            leaf=30)
        got = np.zeros(len(ws.q), dtype=complex)
        monkeypatch.setattr(driver, "_CUT_CAP", 32)
        with pytest.raises(greens.QuadratureConvergenceError):
            driver._near_cut(ws, got)
        np.testing.assert_array_equal(got, 0.0)
        monkeypatch.undo()
        driver._near_cut(ws, got)
        assert np.all(np.isfinite(got)) and np.any(got != 0)

    def test_sigma_once_per_node_through_the_greens_module(self, monkeypatch):
        # the benchmark tracer wraps greens.reflectance by module attribute
        ws = _cut_workspace(MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8), 0.01)
        sizes = []

        def counted(media, kappa1):
            # kappa1 = -i k sin(tau) on the propagating contour, t >= 0 on the other
            sizes.append((bool(np.any(np.imag(kappa1) < 0)), np.size(kappa1)))
            return reflectance(media, kappa1)

        reflectance = greens.reflectance
        monkeypatch.setattr(greens, "reflectance", counted)
        driver._near_cut(ws, np.zeros(len(ws.q), dtype=complex))
        # one call per level of each contour, which doubles on its own and
        # takes at least two levels, and each node's sigma evaluated once
        levels = [sum(prop == contour for prop, _ in sizes) for contour in (True, False)]
        assert min(levels) >= 2 and sum(n for _, n in sizes) == ws.cut_nodes

    def test_cut_nodes_count(self):
        media = MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8)
        parts = _random_particles(17, 300, ylo=0.01, yhi=1.0)
        out = fmm_apply(parts, RunConfig(media=media, order=8, leaf_capacity=30))
        assert out.counts["cut_nodes"] > 0
        for other in (MediaConfig.free(1.0), MediaConfig.two_layer(1.0, 1.0)):
            assert fmm_apply(parts, RunConfig(media=other, order=8,
                                              leaf_capacity=30)).counts["cut_nodes"] == 0
        # the benchmark's three-layer geometry (process 0): two levels of
        # one grid, where one panel-doubling sum per row took 19,968 nodes
        pos = np.random.default_rng([0])
        xs, ys = pos.uniform(-0.5, 0.5, 1200), pos.uniform(0.05, 1.05, 1200)
        ws = driver._Workspace([Particle(Point2(x, y), 1.0) for x, y in zip(xs, ys)],
                               RunConfig(media=media, order=16, leaf_capacity=60))
        driver._near_cut(ws, np.zeros(1200, dtype=complex))
        assert 0 < ws.cut_nodes <= 1000


def _cosine_segments(edges, count, split, nodes):
    """Per segment of a panel_rule call: True where its nodes are cosine-mapped, False
    where they are affine."""
    x, _ = quadrature.legendre_base(count)
    u = ((np.arange(split)[:, None] + 0.5 * (x + 1.0)) / split).ravel()
    maps = []
    for a, b, got in zip(edges[:-1], edges[1:], nodes.reshape(len(edges) - 1, -1)):
        cosine = np.allclose(got, a + 0.5 * (b - a) * (1.0 - np.cos(np.pi * u)), rtol=1e-14, atol=0)
        affine = np.allclose(got, a + (b - a) * u, rtol=1e-14, atol=0)
        assert cosine != affine
        maps.append(cosine)
    return maps


class TestKinkedSegments:
    """Every spectral integral maps a segment by the cosine exactly when a kink of sigma ends it."""

    @pytest.mark.parametrize("media", [
        MediaConfig.two_layer(1.0, 1.0),
        MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8),  # kinks on the propagating contour
        MediaConfig.three_layer(1.0, 0.6, 1.3, 0.7),  # k3 > k1: a kink on the evanescent one
    ], ids=["two-layer", "three-layer", "three-layer-k3-fast"])
    def test_segments_touching_a_breakpoint_keep_cosine_nodes(self, monkeypatch, media):
        calls = []

        def recorded(edges, count, kinks=(), split=1):
            nodes, weights = quadrature.panel_rule(edges, count, kinks, split)
            calls.append((np.asarray(edges, dtype=float), count, split, nodes))
            return nodes, weights

        for module in (layered, greens, driver):
            monkeypatch.setattr(module, "panel_rule", recorded)
        layered.compute_A(np.array([0.5, -0.25]), np.array([0.3, 0.9]), media, 6)
        greens.scattered_batch(media, [0.3, -0.6], [2e-3, 1.1])
        scaled = [media]
        if media.variant == "three-layer":  # the cut field, in the tree's rescaled medium
            ws = _cut_workspace(media, 0.01)
            driver._near_cut(ws, np.zeros(len(ws.q), dtype=complex))
            scaled.append(ws.media)
        kinks = {kink for m in scaled for path, upper in (("propagating", np.pi),
                                                          ("evanescent", np.inf))
                 for kink in greens.spectral_breakpoints(m, path, upper)}
        seen = set()
        for edges, count, split, nodes in calls:
            touch = [a in kinks or b in kinks for a, b in zip(edges[:-1], edges[1:])]
            assert _cosine_segments(edges, count, split, nodes) == touch
            seen.update(touch)
        # an affine segment everywhere; cosine ones wherever sigma kinks
        assert seen == ({False} if media.variant == "two-layer" else {True, False})


def _pinned_particles(seed, n, ylo):
    # x spans [-0.5, 0.5] exactly, so the root side is 1 for any ylo
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-0.5, 0.5, n)
    ys = rng.uniform(ylo, ylo + 1.0, n)
    xs[:2] = (-0.5, 0.5)
    qs = rng.normal(size=n)
    return [Particle(Point2(float(x), float(y)), float(q)) for x, y, q in zip(xs, ys, qs)]


def _count_entry_work(monkeypatch):
    # keys computed per kind, and table file writes
    calls = {"compute_A": 0, "compute_B_tail": 0, "save_tables": 0}
    for name in calls:
        fn = getattr(layered, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1 if _name == "save_tables" else len(args[0])
            return _fn(*args, **kwargs)

        monkeypatch.setattr(layered, name, counted)
    return calls


class TestTableCache:
    def test_shared_file_across_root_heights(self, tmp_path):
        # same root side (same rescaled medium), different root heights:
        # the second set must not translate with the first set's entries
        media = MediaConfig.two_layer(1.0, 1.0)
        cfg = RunConfig(media=media, order=16, leaf_capacity=60,
                        table_cache=str(tmp_path / "tables.bin"))
        fmm_apply(_pinned_particles(1, 3000, 1.0), cfg)
        second = _pinned_particles(2, 3000, 0.5)
        shared = fmm_apply(second, cfg).values
        fresh = fmm_apply(second, RunConfig(media=media, order=16, leaf_capacity=60)).values
        assert error_metric(fresh, shared, len(second)) <= 1e-13
        # the file now serves both heights without computing anything
        again = fmm_apply(second, cfg).values
        np.testing.assert_array_equal(again, shared)

    @pytest.mark.parametrize("media, ylo", [
        (MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8), 0.05),
        (MediaConfig.two_layer(1.0, 1.0), 5e-3),
    ], ids=["three-layer", "two-layer-tail"])
    def test_warm_call_computes_nothing(self, tmp_path, monkeypatch, media, ylo):
        parts = _random_particles(16, 600, ylo=ylo, yhi=ylo + 1.0, complex_q=False)
        cfg = RunConfig(media=media, order=12, table_cache=str(tmp_path / "tables.bin"))
        calls = _count_entry_work(monkeypatch)
        fmm_apply(parts, cfg)
        assert calls["compute_A"] > 0 and calls["save_tables"] == 1
        if media.variant == "two-layer":
            assert calls["compute_B_tail"] > 0
        calls.update(compute_A=0, compute_B_tail=0, save_tables=0)
        warm = fmm_apply(parts, cfg).values
        assert calls == {"compute_A": 0, "compute_B_tail": 0, "save_tables": 0}
        plain = fmm_apply(parts, RunConfig(media=media, order=12)).values
        np.testing.assert_array_equal(warm, plain)

    def test_counts_report_computed_and_held(self, tmp_path):
        parts = _random_particles(19, 300, ylo=5e-3, yhi=1.0, complex_q=False)
        media = MediaConfig.two_layer(1.0, 1.0)
        cfg = RunConfig(media=media, order=10, table_cache=str(tmp_path / "tables.bin"))
        cold = fmm_apply(parts, cfg)
        warm = fmm_apply(parts, cfg)
        held = cold.counts["entries_held"]
        tree = build_lists(build_tree(*_positions(parts), TreeConfig(leaf_capacity=40)))
        tgt, src = near_source_leaves(tree)
        sources = {leaf: [s for t, s in zip(tgt, src) if t == leaf] for leaf in tree.leaves}
        shape = {"leaves": len(sources), "depth": tree.max_depth,
                 "v_pairs": len(tree.v_src),
                 "near_pairs": sum(len(srcs) for srcs in sources.values()),
                 "max_near": max(len(srcs) for srcs in sources.values()),
                 "near_blocks": len({frozenset((leaf, s)) for leaf, srcs in sources.items()
                                     for s in srcs})}
        assert shape["max_near"] > 1
        grid = cold.counts["grid_nodes"]
        assert cold.counts == {"entries_computed": held, "entries_held": held,
                               "grid_nodes": grid, "cut_nodes": 0, **shape}
        assert held > 0
        # an A batch and a B-tail batch, each on panels of at least 64 nodes
        assert grid >= 2 * 64 and grid % 64 == 0
        assert warm.counts == {"entries_computed": 0, "entries_held": held,
                               "grid_nodes": 0, "cut_nodes": 0, **shape}
        assert "entries_held" not in cold.timings
        free = fmm_apply(parts, RunConfig(media=MediaConfig.free(1.0), order=10))
        assert free.counts == {"entries_computed": 0, "entries_held": 0, "grid_nodes": 0,
                               "cut_nodes": 0, **shape}

    def test_file_refuses_other_rule_counts(self, tmp_path):
        # root side 1, so the run's rescaled medium is media itself and
        # only the quadrature rule differs from the file's (runs use 64,
        # 1024, 32, 256, 1e-12, 5e-12, 1e-10)
        parts = _pinned_particles(17, 200, 0.1)
        media = MediaConfig.two_layer(1.0, 1.0)
        fp = media.fingerprint().encode()
        cache = tmp_path / "tables.bin"
        for rule in ((64, 2048, 32, 256, 1e-12, 5e-12, 1e-10),
                     (64, 1024, 64, 256, 1e-12, 5e-12, 1e-10),
                     (64, 1024, 32, 512, 1e-12, 5e-12, 1e-10),
                     (64, 1024, 32, 256, 1e-12, 1e-11, 1e-10)):
            cache.write_bytes(b"HFMMTB7\x00" + struct.pack("<I", len(fp)) + fp
                              + struct.pack("<IIIIIdddQ", 10, *rule, 0))
            with pytest.raises(ValueError, match="quadrature rule"):
                fmm_apply(parts, RunConfig(media=media, order=10, table_cache=str(cache)))


def _lexsort_groups(src, tgt, *columns):
    """_groups by one lexsort: the reference order of the mixed-radix key."""
    order = np.lexsort(columns[::-1])
    cols = np.stack([column[order] for column in columns])
    new = np.ones(cols.shape[1], dtype=bool)
    new[1:] = np.any(cols[:, 1:] != cols[:, :-1], axis=0)
    first = np.flatnonzero(new)
    return cols[:, first].T, src[order], tgt[order], np.r_[first, cols.shape[1]]


class TestGroups:
    @staticmethod
    def _same(columns):
        src = np.arange(len(columns[0]))
        tgt = src[::-1].copy()
        got = driver._groups(src, tgt, *columns)
        want = _lexsort_groups(src, tgt, *columns)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        return got

    @pytest.mark.parametrize("seed", range(4))
    def test_key_order_is_lexsort_order(self, seed):
        # negative and positive values, repeats, and a boolean last column
        # as in the table plan's flip
        rng = np.random.default_rng(seed)
        n = 3000
        columns = (rng.integers(0, 5, n), rng.integers(-7, 8, n), rng.integers(-3, 40, n),
                   rng.integers(0, 2, n).astype(bool))
        rows, _, _, bounds = self._same(columns)
        assert 1 < len(rows) < n and np.all(np.diff(bounds) > 0)

    def test_overflowing_key_takes_lexsort(self):
        # the spans' product passes 2^63, so the key could not hold the rows
        rng = np.random.default_rng(9)
        big = np.int64(2) ** 40
        columns = (rng.integers(-big, big, 500), rng.integers(-big, big, 500) // 3 * 3,
                   rng.integers(0, 3, 500))
        assert np.prod([float(c.max() - c.min() + 1) for c in columns]) > 2.0 ** 63
        self._same(columns)

    def test_no_pairs(self):
        none = np.zeros(0, dtype=np.int64)
        rows, src, tgt, bounds = self._same((none, none))
        assert rows.shape == (0, 2) and bounds.tolist() == [0]


class TestColdStart:
    def test_cold_calls_never_load_scipy(self, tmp_path):
        # importing the driver and the command line, then one cold call per
        # layered medium, as the benchmark workloads run them: scipy stays
        # unloaded, since every Bessel argument is within the series bound
        root = Path(__file__).resolve().parents[1]
        script = """
import sys
import numpy as np
import hfmm.cli, hfmm.driver
from hfmm.driver import RunConfig, fmm_apply
from hfmm.greens import MediaConfig, Point2
from hfmm.tree import Particle

def particles(seed, y_low, n=600):
    rng = np.random.default_rng(seed)
    xs, ys = rng.uniform(-0.5, 0.5, n), rng.uniform(y_low, y_low + 1.0, n)
    return [Particle(Point2(x, y), q) for x, y, q in zip(xs, ys, rng.normal(size=n))]

fmm_apply(particles(1, 0.005), RunConfig(media=MediaConfig.two_layer(1.0, 1.0), order=16,
                                         leaf_capacity=60))
fmm_apply(particles(2, 0.05), RunConfig(media=MediaConfig.three_layer(1.0, 0.8, 0.6, 0.8),
                                        order=16, leaf_capacity=60, table_cache=sys.argv[1]))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "tables.bin")],
                              cwd=tmp_path, capture_output=True, text=True, timeout=300, env=env)
        assert done.returncode == 0, done.stderr[-3000:]
        assert (tmp_path / "tables.bin").exists()
        assert done.stdout.split("\n")[-2] == "[]"
