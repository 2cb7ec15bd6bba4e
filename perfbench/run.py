"""Benchmark of the itermap CLI and library, one workload per invocation.

    python3 perfbench/run.py --workload sim-large --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload, then a table

Run from the root of a checkout; itermap is imported from its `src/`.
Each workload run is a fresh interpreter (perfbench/worker.py) with no
warm-up calls, repeated until `--seconds` have passed and at least
MIN_RUNS times.  Every run's outputs are checked (perfbench/check.py).
With `--trace 0` the end-to-end metrics of BENCHMARK.json are the
medians over the runs.  With `--trace 1` one run with tracemalloc gives
the memory peaks, then untraced and span-only runs alternate; the
per-layer times are medians over the span-only runs.  The last line of stdout is the JSON result; the line before it
holds the provenance.  Inputs, outputs and a full record of each
invocation (with spans, when traced) go to `.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy

import check
import spans
import workloads
from worker import EXIT_NO_PROGRAM

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
WORKER = os.path.join(HERE, "worker.py")

# Fixed on both sides of every comparison: the first exp_series call
# swings from 0.13 s to 1.3 s with OpenBLAS at its default thread count.
RUN_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONHASHSEED": "0"}
MIN_RUNS = 3
WORKER_TIMEOUT_S = 120


class NoProgram(RuntimeError):
    """The checkout holds no itermap source to benchmark."""


def run_once(workload: str, calls: list[dict], trace: str | None) -> tuple[dict | None, list[dict]]:
    """One workload run in a fresh interpreter: (worker report or None, observed outputs).

    trace is None (untraced), "spans" or "memory" (spans and tracemalloc).
    """
    spec = {
        "root": ROOT,
        "imports": workloads.IMPORTS[workload],
        "calls": calls,
        "trace": trace,
        "traced_modules": workloads.TRACED_MODULES,
    }
    env = dict(os.environ, **RUN_ENV)
    spec["t_spawn"] = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, json.dumps(spec)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode == EXIT_NO_PROGRAM:
        raise NoProgram(proc.stderr.strip())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None, []
    report = json.loads(proc.stdout.splitlines()[-1])
    observed = []
    for call, result in zip(calls, report["results"]):
        files = {}
        for role, path in call.get("files", {}).items():
            try:
                with open(path) as fh:
                    files[role] = fh.read()
                os.remove(path)
            except OSError:
                files[role] = None
        observed.append(check.observe(call, result, files))
    return report, observed


def block_count_errors(calls: list[dict], observed: list[dict], layer: dict) -> list[str]:
    """In a traced run with checked outputs, block_rng is called once per simulated block."""
    blocks = sum(int(o["out"][0]["blocks"]) for c, o in zip(calls, observed) if check.kind(c) == "simulate")
    if layer["montecarlo.block_rng.calls"] != blocks:
        return [f"block_rng called {layer['montecarlo.block_rng.calls']} times for {blocks} blocks"]
    return []


def provenance(workload: str, seed: int, traced: bool, calls: list[dict], inputs: dict) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    src_dir = os.path.join(ROOT, "src", "itermap")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "run_env": RUN_ENV,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "argv": [c.get("argv") or [c["lib"], *map(str, c["args"])] for c in calls],
        "inputs": {k: v for k, v in inputs.items() if k.endswith("sha256")},
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Repeat the workload for `seconds` (at least MIN_RUNS per mode); check every run."""
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        inputs = workloads.make_input(workload, seed, work)
        calls = workloads.calls(workload, seed, work, inputs)
        golden = None
        if seed == workloads.DEFAULT_SEED or workload not in workloads.SEEDED:
            golden = check.load_golden(workload)
        # A traced invocation makes one memory run, then alternates untraced
        # and span-only runs.
        modes = (None, "spans") if trace else (None,)
        min_runs = MIN_RUNS * len(modes) + trace
        by_mode: dict = {None: [], "spans": [], "memory": []}
        records = []
        deadline = time.monotonic() + seconds
        while len(records) < min_runs or time.monotonic() < deadline:
            mode = "memory" if trace and not records else modes[len(records) % len(modes)]
            report, observed = run_once(workload, calls, mode)
            errors = ["worker failed"] if report is None else check.check_run(calls, observed, inputs, golden)
            record = {"trace": mode, "errors": errors}
            if report is not None:
                record.update({k: report[k] for k in ("setup_s", "wall_s", "peak_rss_mb")})
                if mode:
                    record["spans"] = report["spans"]
                    record["layers"] = spans.layer_metrics(report["spans"], workloads.samples(workload))
                    if not errors:
                        errors += block_count_errors(calls, observed, record["layers"])
                by_mode[mode].append(record)
            records.append(record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def median(mode, key):
        return statistics.median(r[key] for r in by_mode[mode])

    if trace:
        # Times come from span-only runs; tracemalloc slows Python-heavy code
        # several-fold, so memory peaks come from runs of their own.
        metrics = {
            k: statistics.median(r["layers"][k] for r in by_mode["memory" if k.endswith("_mb") else "spans"])
            for k in by_mode["spans"][0]["layers"]
        }
        metrics["trace.overhead_s"] = median("spans", "wall_s") - median(None, "wall_s")
    else:
        metrics = {k: median(None, k) for k in ("wall_s", "setup_s", "peak_rss_mb")}
    return {
        "provenance": provenance(workload, seed, trace, calls, inputs),
        "attempted": len(records),
        "failed": sum(bool(r["errors"]) for r in records),
        "metrics": metrics,
        "runs": records,
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def report(workload: str, seed: int, trace: bool, result: dict, spec: dict) -> dict:
    """Print the human summary and provenance; return the contract's result object."""
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(result["metrics"]):
        raise RuntimeError(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(units)}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload} seed={seed} trace={int(trace)} runs={attempted} "
          f"fail_frac={failed / attempted:.4g} ({failed}/{attempted}) [fraction]")
    for name, value in result["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    for r in result["runs"]:
        for e in r["errors"]:
            print(f"  FAIL: {e}")
    print(json.dumps({"provenance": result["provenance"]}))
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"result-{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump({**result, "result": out}, fh)
    return out


def print_table(table: list[tuple[str, dict]]) -> None:
    """Markdown table: one row per metric, one column per workload."""
    names = [name for name, _ in table]
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---" * (len(names) + 2) + "|")
    first = table[0][1]["metrics"]
    for metric in first:
        vals = " | ".join(f"{out['metrics'][metric]['value']:.4g}" for _, out in table)
        print(f"| {metric} | {first[metric]['unit']} | {vals} |")
    vals = " | ".join(f"{out['failed'] / out['attempted']:.4g}" for _, out in table)
    print(f"| fail_frac | fraction | {vals} |")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "itermap", "cli.py")):
        print(f"error: no itermap source under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    table = []
    for name in names:
        try:
            result = measure(name, args.seed, seconds, bool(args.trace))
        except NoProgram as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        table.append((name, report(name, args.seed, bool(args.trace), result, spec)))
    if args.workload == "all":
        print_table(table)
        return 0 if all(out["correct"] for _, out in table) else 1
    print(json.dumps(table[0][1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
