"""One benchmark process: import hfmm, make inputs, run a cold call, then warm calls.

run.py starts it with one argument, a JSON job:

    python3 perfbench/worker.py '{"workload": {...}, "seed": 1, "process": 0,
                                  "seconds": 4.0, "trace": false, "workdir": "..."}'

The worker writes every call's potentials to ``<workdir>/p<process>-c<call>.npy``
and a record of the process to ``<workdir>/process-<process>.json``; it
prints nothing on standard output.  The first call is the cold one.  Warm
calls follow while another one still fits in ``seconds``; there is at
least one (two when traced).  In a traced job the cold call is traced
and the warm calls alternate untraced and traced, starting untraced.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer, dump, summarize  # noqa: E402
from workloads import LEAF_CAPACITY, ORDER, Workload, call_arrays, make_media  # noqa: E402


class CacheGuard:
    """Counts table-file reads and writes per call and checks the tables phase.

    A warm call of the resolve workload must read the file once, write it
    never and compute no table entry before the upward pass starts (the
    first ``p2m_arrays`` call ends the tables phase); otherwise it
    measured the compute path, not the reuse path.  Entries computed
    later, in the near phase, are part of the measured call.
    """

    def __init__(self, layered, expansions):
        self._layered, self._expansions = layered, expansions
        self._load, self._save = layered.load_tables, layered.save_tables
        self._p2m = expansions.p2m_arrays
        layered.load_tables, layered.save_tables = self._counted_load, self._counted_save
        expansions.p2m_arrays = self._marked_p2m
        self.reset()

    def _counted_load(self, *args, **kwargs):
        self.stores.append(self._load(*args, **kwargs))
        return self.stores[-1]

    def _counted_save(self, *args, **kwargs):
        self.saves += 1
        return self._save(*args, **kwargs)

    def _marked_p2m(self, *args, **kwargs):
        if self.table_misses is None:
            self.table_misses = sum(store.misses for store in self.stores)
        return self._p2m(*args, **kwargs)

    def reset(self):
        self.stores, self.saves, self.table_misses = [], 0, None

    def problem(self, warm):
        """None if the call took the expected table path, else a message."""
        loads = len(self.stores)
        if not warm:
            return None if (loads, self.saves) == (0, 1) else \
                f"cold call made {loads} table loads and {self.saves} saves (want 0 and 1)"
        if (loads, self.saves) != (1, 0):
            return f"warm call made {loads} table loads and {self.saves} saves (want 1 and 0)"
        if self.table_misses is None:
            return "warm call never reached p2m_arrays, so its tables phase is unchecked"
        if self.table_misses != 0:
            return ("warm call computed table entries in the tables phase "
                    f"(misses before the upward pass: {self.table_misses})")
        return None

    def restore(self):
        self._layered.load_tables, self._layered.save_tables = self._load, self._save
        self._expansions.p2m_arrays = self._p2m


def main(job):
    from hfmm import expansions, layered
    from hfmm.driver import RunConfig, fmm_apply
    from hfmm.greens import Point2
    from hfmm.tree import Particle

    workload = Workload.from_json(job["workload"])
    seed, process, workdir = job["seed"], job["process"], Path(job["workdir"])
    cache_dir = tempfile.mkdtemp(prefix=f"tables-p{process}-", dir=workdir)
    cache_file = os.path.join(cache_dir, "tables.bin") if workload.resolve else ""
    config = RunConfig(media=make_media(workload.media), order=ORDER,
                       leaf_capacity=LEAF_CAPACITY, table_cache=cache_file)
    # the guard wraps first and is restored last, so the tracer wraps its wrappers
    guard = CacheGuard(layered, expansions) if workload.resolve else None
    tracer = Tracer() if job["trace"] else None

    records, spans = [], []
    try:
        call = 0
        while True:
            warm = call > 0
            traced = tracer is not None and call % 2 == 0
            xs, ys, qs = call_arrays(workload, seed, process, call)
            particles = [Particle(Point2(x, y), q) for x, y, q in zip(xs, ys, qs)]
            if guard is not None:
                guard.reset()
            if traced:
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                out = fmm_apply(particles, config)
                error = None
            except Exception as exc:  # a call that raises is a failed call
                out, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            end = time.monotonic()
            if tracer is not None:
                tracer.recording = False

            record = {"call": call, "warm": warm, "traced": traced, "wall_s": wall,
                      "error": error, "timings": out.timings if out is not None else {}}
            if guard is not None and error is None:
                record["error"] = guard.problem(warm)
            if traced:
                call_spans = tracer.drain()
                spans.extend(call_spans)
                record["layers"] = summarize(call_spans)
            if out is not None:
                np.save(workdir / f"p{process}-c{call}.npy", out.values)
            if not warm:
                record["end_monotonic"] = end
                record["table_file_bytes"] = (os.path.getsize(cache_file)
                                              if os.path.isfile(cache_file) else 0)
                warm_start = time.perf_counter()
            records.append(record)
            call += 1
            # stop when another call of this length would overrun the share
            if (call - 1 >= (2 if tracer is not None else 1)
                    and time.perf_counter() - warm_start + wall > job["seconds"]):
                break
    finally:
        if tracer is not None:
            tracer.restore()
        if guard is not None:
            guard.restore()
        shutil.rmtree(cache_dir, ignore_errors=True)

    if tracer is not None:
        dump(spans, workdir / f"spans-p{process}.jsonl")
    with open(workdir / f"process-{process}.json", "w") as f:
        json.dump({
            "process": process,
            "calls": records,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "missing": sorted(tracer.missing) if tracer is not None else [],
        }, f)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
