"""hfmm benchmark: time to a solution at a checked accuracy, on three workloads.

Usage, from the root of a source checkout (hfmm is imported from ./src):

    python3 perfbench/run.py --workload halfspace-bulk --seed 1 --seconds 12 --trace 0

A run starts PROCESSES fresh Python processes one after another
(perfbench/worker.py).  Each imports hfmm, makes its inputs from the
seed, makes one cold ``fmm_apply`` call and then warm calls for its share
of ``--seconds``.  All calls use RunConfig's default threads=1, and BLAS
is held to one thread.  Afterwards this process checks every call
against a sampled Sommerfeld oracle (perfbench/oracle.py), so the
oracle never sets a worker's memory high-water mark.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics:

    apply_s         median wall time of one warm fmm_apply call
    setup_s         median over processes of the time from process start
                    to the end of its cold call (import, inputs, first call)
    rel_err_digits  -log10 of the relative l2 error over all sampled
                    targets of all calls: correct digits, higher is better
    peak_rss_mb     median over processes of the RSS high-water mark

Above that line it prints the same metrics for reading, the median
phase times, the worst per-call relative error (rel_err), failed_frac
with its counts, and a record of the machine and versions.  Accuracy is
a metric in digits because the error varies by factors between inputs:
the worst per-call error spreads too widely across seeds to bound.

With ``--trace 1`` the warm calls alternate untraced and traced
(perfbench/tracing.py) and the JSON object holds the per-layer metrics;
the spans are written to perfbench/out/<workload>/.  A call fails when
it raises, returns non-finite values, has a relative error above
REL_ERR_CEILING or takes the wrong table path.  The exit code is 1 when
any call failed, and 2, with no result printed, on a usage error or when
hfmm cannot be imported or a process dies.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True
# single-threaded baseline: set before numpy loads BLAS, inherited by workers
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import ORDER, WORKLOADS, call_arrays, make_media, sampled_targets  # noqa: E402

REL_ERR_CEILING = 1e-7   # measured errors are about 1e-10; a broken table gives ~5e-2
PROCESSES = 3            # cold set-ups per run; setup_s is their median
PROCESS_TIMEOUT_S = 150.0


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_record(seed, load_start):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
    }


def run_processes(workload, seed, seconds, trace, workdir, deadline):
    """Run the worker processes one after another; return their records."""
    results = []
    for process in range(PROCESSES):
        # each process gets an equal share of the warm-call time still left
        used = sum(r["wall_s"] for res in results for r in res["calls"] if r["warm"])
        share = max(0.0, seconds - used) / (PROCESSES - process)
        job = {"workload": workload.to_json(), "seed": seed, "process": process,
               "seconds": share, "trace": bool(trace), "workdir": str(workdir)}
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                                cwd=ROOT, stdout=subprocess.DEVNULL,
                                env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise HarnessError(f"worker process {process} timed out")
        report = workdir / f"process-{process}.json"
        if code != 0 or not report.exists():
            raise HarnessError(f"worker process {process} exited with code {code}")
        with open(report) as f:
            result = json.load(f)
        # time.monotonic is the system-wide CLOCK_MONOTONIC on Linux, so the
        # worker's reading and this one share a time base
        result["setup_s"] = result["calls"][0]["end_monotonic"] - spawned
        results.append(result)
    return results


def check_calls(workload, seed, results, workdir):
    """Compare every call with the oracle; mark failures in place.

    Returns, per call that produced values, the squared l2 norms of the
    error and of the reference over the call's sampled targets.
    """
    import numpy as np

    from oracle import kernel_rows

    media = make_media(workload.media)
    checked = []
    for result in results:
        process = result["process"]
        shared_rows = None
        for rec in result["calls"]:
            if rec["error"] is not None:
                continue
            values = np.load(workdir / f"p{process}-c{rec['call']}.npy")
            if not np.all(np.isfinite(values)):
                rec["error"] = "non-finite potentials"
                continue
            xs, ys, qs = call_arrays(workload, seed, process, rec["call"])
            targets = sampled_targets(workload, seed, process, rec["call"])
            if workload.resolve:
                if shared_rows is None:
                    shared_rows = kernel_rows(media, xs, ys, targets)
                rows = shared_rows
            else:
                rows = kernel_rows(media, xs, ys, targets)
            reference = rows @ qs
            err2 = float(np.sum(np.abs(values[targets] - reference) ** 2))
            ref2 = float(np.sum(np.abs(reference) ** 2))
            checked.append((err2, ref2))
            rec["rel_err"] = (err2 / ref2) ** 0.5
            if not rec["rel_err"] <= REL_ERR_CEILING:
                rec["error"] = (f"relative error {rec['rel_err']:.3e} above the ceiling "
                                f"{REL_ERR_CEILING:g}")
    return checked


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _finished(results, warm=True):
    """Calls that returned (their potentials may still fail the check)."""
    return [r for res in results for r in res["calls"] if r["warm"] == warm and r["timings"]]


def end_to_end(results, checked):
    warm = [r["wall_s"] for r in _finished(results)]
    return {
        "apply_s": _metric(statistics.median(warm), "s"),
        "setup_s": _metric(statistics.median(res["setup_s"] for res in results), "s"),
        "rel_err_digits": _metric(digits(pooled_error(checked)), "digits"),
        "peak_rss_mb": _metric(statistics.median(res["peak_rss_mb"] for res in results), "MiB"),
    }


def pooled_error(checked):
    """Relative l2 error over all sampled targets of all checked calls."""
    return (sum(e for e, _ in checked) / sum(r for _, r in checked)) ** 0.5


def digits(error):
    """Correct decimal digits, -log10 of a relative error (at most 16)."""
    return -math.log10(max(error, 1e-16))


PHASES = ("build", "tables", "upward", "downward", "near")
# functions that run on every workload: self seconds, median over traced warm calls
SELF_SECONDS = (
    "tree.build_tree", "tree.build_lists", "tree.near_source_leaves",
    "specfun.bessel_j_sweep", "specfun.hankel1_sweep", "specfun.hankel0",
    "expansions.p2m_arrays", "expansions.translation_vector_j",
    "expansions.translation_vector_h", "expansions.image_coefficients",
    "quadrature.gauss_legendre", "layered.compute_A", "layered.propagating_rule",
    "greens.reflectance",
)
# functions that only some workloads reach: self time as a share of the call
# (save_tables runs in the cold call only, so its share is of the cold call)
SELF_SHARE = (
    "layered.compute_B_tail", "layered.load_tables", "greens.three_layer_sigma",
    "greens.scattered_batch",
)
CALL_COUNTS = (
    "specfun.bessel_j_sweep", "specfun.hankel1_sweep", "specfun.hankel0",
    "expansions.p2m_arrays", "expansions.translation_vector_j",
    "expansions.translation_vector_h", "expansions.image_coefficients",
    "quadrature.gauss_legendre", "quadrature.gauss_laguerre_generalized",
    "layered.table_get", "layered.compute_A", "layered.compute_B_tail",
    "layered.propagating_rule", "layered.save_tables", "layered.load_tables",
    "greens.reflectance", "greens.three_layer_sigma", "greens.scattered_batch",
)
VALUE_COUNTS = ("specfun.bessel_j_sweep", "specfun.hankel0", "greens.reflectance")


def per_layer(results, missing):
    """Per-layer metrics from the traced run.

    Counts come from the first traced warm call of the first process, so
    they repeat exactly for a seed.  A metric whose function could not be
    wrapped is reported with value None.
    """
    warm = _finished(results)
    plain = [r for r in warm if not r["traced"]]
    traced = [r for r in warm if r["traced"]]
    cold = [res["calls"][0] for res in results]
    first = results[0]["calls"][2]["layers"]  # call 1 is untraced, call 2 traced

    median = statistics.median

    def lost(name):
        return name in missing

    def count(name, key="calls"):
        return None if lost(name) else first.get(name, {}).get(key, 0)

    metrics = {}
    for phase in PHASES:
        metrics[f"driver.{phase}_s"] = _metric(
            median(r["timings"][phase] for r in plain), "s")
    for name in SELF_SECONDS:
        metrics[f"{name}.self_s"] = _metric(None if lost(name) else median(
            r["layers"].get(name, {}).get("self_s", 0.0) for r in traced), "s")
    for name in SELF_SHARE:
        metrics[f"{name}.self_frac"] = _metric(None if lost(name) else median(
            r["layers"].get(name, {}).get("self_s", 0.0) / r["wall_s"] for r in traced), "1")
    metrics["layered.save_tables.self_frac"] = _metric(
        None if lost("layered.save_tables") else median(
            r["layers"].get("layered.save_tables", {}).get("self_s", 0.0) / r["wall_s"]
            for r in cold), "1")
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = _metric(count(name), "count")
    for name in VALUE_COUNTS:
        metrics[f"{name}.values"] = _metric(count(name, "values"), "count")
    metrics["greens.scattered_batch.pairs"] = _metric(
        count("greens.scattered_batch", "values"), "count")

    tree = first.get("tree.build_tree", {})
    for key in ("nodes", "leaves", "depth"):
        metrics[f"tree.{key}"] = _metric(None if lost("tree.build_tree") else tree.get(key),
                                         "count")
    metrics["tree.near_pairs"] = _metric(count("tree.near_source_leaves", "near_pairs"), "count")
    metrics["tree.v_pairs"] = _metric(count("tree.build_lists", "v_pairs"), "count")

    gets, misses = count("layered.table_get"), count("layered.table_get", "misses")
    metrics["layered.table_hit_ratio"] = _metric(
        None if gets is None else (gets - misses) / gets if gets else 0.0, "1")
    metrics["layered.adaptive_entries"] = _metric(
        count("layered.spectral_breakpoints", "evanescent"), "count")
    metrics["layered.table_file_bytes"] = _metric(cold[0]["table_file_bytes"], "B")
    metrics["trace.overhead_frac"] = _metric(
        median(r["wall_s"] for r in traced) / median(r["wall_s"] for r in plain) - 1.0,
        "1")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    load_start = os.getloadavg()
    try:
        import hfmm.driver  # noqa: F401
    except ImportError as exc:
        raise HarnessError(f"cannot import hfmm from {ROOT / 'src'}: {exc}") from exc

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=work_root))
    try:
        results = run_processes(workload, args.seed, args.seconds, args.trace,
                                workdir, deadline)
        checked = check_calls(workload, args.seed, results, workdir)
        if args.trace:
            out_dir = HERE / "out" / workload.name
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir(parents=True)
            for spans in workdir.glob("spans-p*.jsonl"):
                shutil.move(str(spans), out_dir / spans.name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    calls = [(res["process"], r) for res in results for r in res["calls"]]
    failed = [(p, r) for p, r in calls if r["error"] is not None]
    missing = set().union(*(res["missing"] for res in results))
    if args.trace:
        metrics = per_layer(results, missing)
    else:
        metrics = end_to_end(results, checked) if checked else {}

    print(f"workload {workload.name}, seed {args.seed}: {len(results)} processes, "
          f"{len(calls)} calls ({sum(r['warm'] for _, r in calls)} warm), "
          f"N = {workload.n}, P = {ORDER}, trace = {args.trace}")
    for process, rec in failed:
        print(f"  failed: process {process} call {rec['call']}: {rec['error']}")
    for name in sorted(missing):
        print(f"  missing traced function: {name}")
    for name, m in metrics.items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:44s} {value:>14s} {m['unit']}")
    plain = [r for r in _finished(results) if not r["traced"]]
    if plain:
        walls = sorted(r["wall_s"] for r in plain)
        print(f"  untraced warm calls: {len(walls)}, from {walls[0]:.4g} s to {walls[-1]:.4g} s; "
              "median phases: " + ", ".join(
                  f"{phase} {statistics.median(r['timings'][phase] for r in plain):.4g} s"
                  for phase in PHASES))
    print(f"  {'failed_frac':44s} {len(failed) / len(calls):>14.6g} 1 "
          f"({len(failed)} failed of {len(calls)} attempted)")
    if checked:
        worst = max((e / r) ** 0.5 for e, r in checked)
        print(f"  {'rel_err':44s} {worst:>14.6g} 1 (worst of {len(checked)} checked calls, "
              f"{workload.oracle_rows} sampled targets each; ceiling {REL_ERR_CEILING:g})")
    print("run record: " + json.dumps(run_record(args.seed, load_start)))
    correct = not failed and bool(checked)
    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": len(failed),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
