"""The three benchmark workloads: what each runs and which modules it uses.

Sizes are fixed here and never depend on the run length, so the golden
outputs in `golden/` stay valid for every `--seconds`.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

DEFAULT_SEED = 0

SIM_LARGE_N, SIM_LARGE_SAMPLES = 100_000, 128
ANALYZE_N = 1_000_000
SADDLE_N = 10**6

# Every module whose public functions a traced run wraps in spans.
TRACED_MODULES = ("cli", "mapping", "exact", "renyi", "series", "asymptotics", "montecarlo")

# Modules imported before the timed calls start; their import is set-up.
IMPORTS = {
    "sim-large": ("cli", "montecarlo", "asymptotics"),
    "analytic": ("cli", "series", "renyi", "exact", "asymptotics"),
    "analyze-1e6": ("cli", "mapping"),
}

NAMES = tuple(IMPORTS)

# Workloads whose outputs depend on the seed; the others are deterministic.
SEEDED = ("sim-large", "analyze-1e6")


def samples(workload: str) -> int:
    """Monte-Carlo samples one run of the workload draws (0 if it does not sample)."""
    return SIM_LARGE_SAMPLES if workload == "sim-large" else 0


def make_input(workload: str, seed: int, work: str) -> dict:
    """Write the workload's seeded input files into `work`; return their description.

    Only `analyze-1e6` reads a file: `n`, then `n` uniform 1-based targets
    drawn from PCG64 seeded by `seed`.
    """
    if workload != "analyze-1e6":
        return {}
    targets = np.random.default_rng(seed).integers(1, ANALYZE_N + 1, size=ANALYZE_N)
    data = (f"{ANALYZE_N}\n" + "\n".join(map(str, targets.tolist())) + "\n").encode("ascii")
    path = os.path.join(work, "mapping.txt")
    with open(path, "wb") as fh:
        fh.write(data)
    return {"mapping": path, "mapping_sha256": hashlib.sha256(data).hexdigest()}


def calls(workload: str, seed: int, work: str, inputs: dict) -> list[dict]:
    """The calls of one workload run, in order.

    A CLI call is {"argv": [...], "files": {role: path}}, where `files`
    names the outputs it writes; a library call is {"lib": "module.func",
    "args": [...]}.
    """
    out = os.path.join(work, "out.txt")
    if workload == "sim-large":
        hist = os.path.join(work, "hist.csv")
        argv = ["simulate", "--n", str(SIM_LARGE_N), "--samples", str(SIM_LARGE_SAMPLES),
                "--seed", str(seed), "--histogram", hist, "--out", out]
        return [{"argv": argv, "files": {"out": out, "histogram": hist}}]
    if workload == "analytic":
        paths = [os.path.join(work, f"out{i}.txt") for i in range(4)]
        return [
            {"argv": ["series", "--degree", "20000", "--eval-n", "5000", "10000", "20000",
                      "--out", paths[0]], "files": {"out": paths[0]}},
            {"argv": ["exact", "--n", "40", "--out", paths[1]], "files": {"out": paths[1]}},
            {"argv": ["asymptotics", "--n", "100000", "1000000", "10000000", "--out", paths[2]],
             "files": {"out": paths[2]}},
            {"argv": ["constants", "--out", paths[3]], "files": {"out": paths[3]}},
            {"lib": "series.saddle_point", "args": [SADDLE_N]},
        ]
    if workload == "analyze-1e6":
        return [{"argv": ["analyze", inputs["mapping"], "--out", out], "files": {"out": out}}]
    raise ValueError(f"unknown workload {workload!r}")
