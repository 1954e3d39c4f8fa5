"""Benchmark workloads: the configs each generates from a seed.

Seed 0 gives exactly the acceptance-suite fixture of each workload.  Any
other seed moves both window endpoints by up to JITTER (relative), drawn
from a generator seeded with the workload name and the seed.  The program
only ever sees the generated config.

A run builds INPUTS[workload] configs in turn, each jittered on its own.
`buck-tri-coarse` has 8: its point count is chaotic in the window (any
jitter, down to 1e-8, gives 858 to 1017 points and build times that follow
them), so one input per run would put that spread between the runs.  The run measures
the mean over its inputs instead (see worker.py).  The other workloads'
build times do not follow their jitter (`spring-tet` has 14 or 17
branches at the same cost), and one input each keeps their few long
builds per run.
"""

from __future__ import annotations

import copy
import random

JITTER = 1e-3
INPUTS = {"lj-tri-fine": 1, "spring-tet": 1, "buck-tri-coarse": 8}

WORKLOADS: dict[str, dict] = {
    "lj-tri-fine": {
        "problem": "triangle",
        "potential": {"family": "lennard_jones",
                      "params": {"c1": 1, "c2": 2, "delta1": 12, "delta2": 6}},
        "window": [0.3, 0.9],
        "continuation": {"h_max": 0.01},
    },
    "spring-tet": {
        "problem": "tetrahedron",
        "potential": {"family": "spring", "params": {"k": 1, "beta": -0.1}},
        "window": [0.5, 4.0],
        "continuation": {"h_max": 0.05, "max_points": 400},
    },
    "buck-tri-coarse": {
        "problem": "triangle",
        "potential": {"family": "buckingham",
                      "params": {"alpha": 1, "beta": 1, "gamma": 1, "eta": 4}},
        "window": [1.0, 100.0],
        "continuation": {"h_max": 0.2},
    },
}


def make_config(workload: str, seed: int, index: int = 0) -> dict:
    """Input `index` of the run with this seed; seed 0 gives the fixture for every index."""
    cfg = copy.deepcopy(WORKLOADS[workload])
    if seed != 0:
        rng = random.Random(f"{workload}:{seed}" + (f":{index}" if index else ""))
        cfg["window"] = [v * (1.0 + rng.uniform(-JITTER, JITTER)) for v in cfg["window"]]
    return cfg


def make_configs(workload: str, seed: int) -> list[dict]:
    return [make_config(workload, seed, i) for i in range(INPUTS[workload])]
