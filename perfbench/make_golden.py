"""Regenerate golden/<workload>.json from one run of each workload at the default seed.

    python3 perfbench/make_golden.py [workload ...]

Run it only when an output is meant to change, and say why in the change
that commits the new files: the golden files are what the benchmark
checks every default-seed run against.
"""

import json
import os
import shutil
import sys
import tempfile

import check
import run
import workloads


def main(names: list[str]) -> int:
    os.makedirs(run.WORK, exist_ok=True)
    os.makedirs(check.GOLDEN_DIR, exist_ok=True)
    for name in names or workloads.NAMES:
        work = tempfile.mkdtemp(prefix=f"golden-{name}-", dir=run.WORK)
        try:
            inputs = workloads.make_input(name, workloads.DEFAULT_SEED, work)
            calls = workloads.calls(name, workloads.DEFAULT_SEED, work, inputs)
            report, observed = run.run_once(name, calls, trace=None)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        errors = ["worker failed"] if report is None else check.check_invariants(calls, observed)
        if errors:
            print(f"{name}: not written: {errors}", file=sys.stderr)
            return 1
        golden = {
            "inputs": {k: v for k, v in inputs.items() if k.endswith("sha256")},
            "calls": observed,
        }
        with open(os.path.join(check.GOLDEN_DIR, f"{name}.json"), "w") as fh:
            json.dump(golden, fh, indent=1)
            fh.write("\n")
        print(f"{name}: wall {report['wall_s']:.3f} s, setup {report['setup_s']:.3f} s, "
              f"rss {report['peak_rss_mb']:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
