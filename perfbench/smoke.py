"""Smoke check of the benchmark harness on tiny inputs; takes about twenty seconds.

    python3 perfbench/smoke.py

Runs every workload's code path (cold call, warm calls, table cache,
guard, oracle check) untraced and traced, with a few hundred particles
and one process per run, and checks that each run passes and reports
every metric BENCHMARK.json declares.  Exits nonzero on the first
problem.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def main():
    with open(HERE.parent / "BENCHMARK.json") as f:
        declared = json.load(f)
    run.PROCESSES = 1
    for name, workload in list(run.WORKLOADS.items()):
        run.WORKLOADS[name] = dataclasses.replace(workload, n=300, oracle_rows=2)
    for name in sorted(run.WORKLOADS):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", name, "--seed", "7", "--seconds", "0.1",
                                 "--trace", str(trace)])
            result = json.loads(out.getvalue().splitlines()[-1])
            want = {m["name"] for m in declared[group]}
            got = {k for k, m in result["metrics"].items() if m["value"] is not None}
            if code != 0 or not result["correct"] or want - got or got - want:
                print(out.getvalue())
                sys.exit(f"smoke: {name} trace={trace} failed (exit {code}); "
                         f"missing {sorted(want - got)}, undeclared {sorted(got - want)}")
            print(f"smoke: {name} trace={trace} ok, {result['attempted']} calls")


if __name__ == "__main__":
    main()
