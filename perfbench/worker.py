"""One workload run in a fresh interpreter; started by run.py, not by hand.

argv[1] is a JSON spec: {"root", "t_spawn", "imports", "calls", "trace",
"traced_modules"}, where trace is null, "spans" or "memory" (spans with
tracemalloc running).  The worker imports the modules (set-up), makes the
calls in order (timed), and prints one JSON line with set-up time, wall
time, peak RSS, each call's exit code and captured streams, and, when
traced, the spans.  Only the standard library is imported before set-up
is measured, so set-up is what a user of the CLI pays.
"""

import contextlib
import dataclasses
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback
import tracemalloc

EXIT_NO_PROGRAM = 3  # itermap could not be imported from the checkout's src/


def _call(c: dict, cli) -> dict:
    out, err = io.StringIO(), io.StringIO()
    value = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in c:
                code = cli.main(c["argv"])
            else:
                module, func = c["lib"].rsplit(".", 1)
                result = getattr(sys.modules[f"itermap.{module}"], func)(*c["args"])
                value = dataclasses.asdict(result) if dataclasses.is_dataclass(result) else result
                code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = 1
        err.write(traceback.format_exc())
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "value": value}


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    try:
        modules = [importlib.import_module(f"itermap.{m}") for m in spec["imports"]]
    except ImportError:
        traceback.print_exc()
        return EXIT_NO_PROGRAM
    setup_s = time.monotonic() - spec["t_spawn"]
    if not modules[0].__file__.startswith(src + os.sep):
        print(f"itermap imported from {modules[0].__file__}, not {src}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    cli = sys.modules["itermap.cli"]

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        for m in spec["traced_modules"]:
            tracer.install(importlib.import_module(f"itermap.{m}"), m)
        if spec["trace"] == "memory":
            tracemalloc.start()

    t0 = time.perf_counter()
    results = [_call(c, cli) for c in spec["calls"]]
    wall_s = time.perf_counter() - t0

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "results": results,
    }
    if tracer is not None:
        tracemalloc.stop()
        report["spans"] = tracer.spans
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
