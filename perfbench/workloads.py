"""The benchmark's workloads and their seeded inputs.

Every workload uses P = 16 and leaf_capacity = 60, with x uniform in
[-0.5, 0.5] and y uniform in [y_low, y_low + 1].  Inputs depend only on
(seed, process, call), so any process can regenerate the inputs of any
call, which is how the oracle check finds them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

ORDER = 16
LEAF_CAPACITY = 60


@dataclass(frozen=True)
class Workload:
    name: str
    media: tuple      # ("two-layer", k, alpha) or ("three-layer", k1, k2, k3, d)
    n: int
    y_low: float
    resolve: bool     # per process: one geometry, one table_cache file, fresh charges
    oracle_rows: int  # sampled targets checked per call

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, data):
        return cls(**{**data, "media": tuple(data["media"])})


# The sizes keep a run near half a minute (three cold set-ups, the warm
# calls, the oracle) and keep the tree depth from flipping between draws
# at leaf_capacity 60: depth 4 for bulk, depth 3 for the other two.
WORKLOADS = {
    w.name: w for w in (
        Workload("halfspace-bulk", ("two-layer", 1.0, 1.0), n=10000, y_low=1.0,
                 resolve=False, oracle_rows=3),
        Workload("halfspace-interface", ("two-layer", 1.0, 1.0), n=1500, y_low=0.005,
                 resolve=False, oracle_rows=4),
        Workload("three-layer-resolve", ("three-layer", 1.0, 0.8, 0.6, 0.8), n=1200,
                 y_low=0.05, resolve=True, oracle_rows=12),
    )
}


def make_media(spec):
    from hfmm.greens import MediaConfig

    if spec[0] == "two-layer":
        return MediaConfig.two_layer(*spec[1:])
    return MediaConfig.three_layer(*spec[1:])


def call_arrays(workload: Workload, seed: int, process: int, call: int):
    """Positions and real charges of one call.

    A resolve workload gives each process one fixed geometry for all its
    calls, the same for every seed: the warm-call cost differs by up to
    2x between geometries (the near-interface oracle pairs), which would
    swamp the run-to-run spread.  Its charges still come from the seed.
    """
    if workload.resolve:
        pos = np.random.default_rng([process])
    else:
        pos = np.random.default_rng([seed, process, call, 0])
    xs = pos.uniform(-0.5, 0.5, workload.n)
    ys = pos.uniform(workload.y_low, workload.y_low + 1.0, workload.n)
    qs = np.random.default_rng([seed, process, call, 1]).normal(size=workload.n)
    return xs, ys, qs


def sampled_targets(workload: Workload, seed: int, process: int, call: int):
    """Indices of the targets the oracle checks for one call.

    With fixed positions every call of a process checks the same
    targets, so the oracle's kernel rows are computed once per process.
    """
    if workload.resolve:
        rng = np.random.default_rng([seed, process, 2])
    else:
        rng = np.random.default_rng([seed, process, call, 2])
    return np.sort(rng.choice(workload.n, size=workload.oracle_rows, replace=False))
