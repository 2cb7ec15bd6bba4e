"""Spans around the public functions of the itermap modules.

The program itself is not instrumented: `Tracer.install` replaces each
public function of a module with a wrapper that records a span, so that
calls made through the module attribute (as the CLI and the library
make them) are traced.  Spans are kept in memory; the caller writes them
out when the run ends.  With tracemalloc running, each span also records
the peak of traced memory inside it.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
import uuid


class Tracer:
    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def _open(self, name: str) -> dict:
        cur, peak = tracemalloc.get_traced_memory()
        for open_span in self._stack:
            open_span["peak"] = max(open_span["peak"], peak)
        tracemalloc.reset_peak()
        span = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "base": cur,
            "peak": cur,
        }
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        span["peak"] = max(span["peak"], tracemalloc.get_traced_memory()[1])
        if self._stack:
            self._stack[-1]["peak"] = max(self._stack[-1]["peak"], span["peak"])

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def install(self, module, short: str) -> None:
        """Wrap every public function defined in `module`; spans are named short.func."""
        for attr, obj in list(vars(module).items()):
            if (
                attr.startswith("_")
                or isinstance(obj, type)
                or not callable(obj)
                or getattr(obj, "__module__", None) != module.__name__
            ):
                continue
            setattr(module, attr, self.wrap(f"{short}.{attr}", obj))


def layer_metrics(spans: list[dict], samples: int) -> dict[str, float]:
    """Per-layer figures of one traced run, from its spans.

    Self time is a span's duration minus the durations of its children
    (calls are sequential, so children never overlap).  `<func>.s` is the
    inclusive time of the outermost spans of that function; a module's
    `peak_alloc_mb` is the largest traced-memory rise inside any of its spans.
    """
    child_time: dict[int, float] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    peak: dict[str, float] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        module = s["name"].split(".", 1)[0]
        self_s[module] = self_s.get(module, 0.0) + dur - child_time.get(s["id"], 0.0)
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        peak[module] = max(peak.get(module, 0.0), (s["peak"] - s["base"]) / 1e6)
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] != s["name"]:
            parent = by_id[parent]["parent"]
        if parent is None:
            incl_s[s["name"]] = incl_s.get(s["name"], 0.0) + dur
    run_experiment_s = incl_s.get("montecarlo.run_experiment", 0.0)
    return {
        "montecarlo.self_s": self_s.get("montecarlo", 0.0),
        "montecarlo.ms_per_sample": 1e3 * run_experiment_s / samples if samples else 0.0,
        "montecarlo.peak_alloc_mb": peak.get("montecarlo", 0.0),
        "montecarlo.block_rng.calls": calls.get("montecarlo.block_rng", 0),
        "series.exp_series.s": incl_s.get("series.exp_series", 0.0),
        "series.saddle_point.s": incl_s.get("series.saddle_point", 0.0),
        "series.self_s": self_s.get("series", 0.0),
        "series.g_eval.calls": calls.get("series.g_eval", 0),
        "renyi.c_table.s": incl_s.get("renyi.c_table", 0.0),
        "renyi.c_table.calls": calls.get("renyi.c_table", 0),
        "exact.enumerate_summary.s": incl_s.get("exact.enumerate_summary", 0.0),
        "exact.perm_order_mean.s": incl_s.get("exact.perm_order_mean", 0.0),
        "exact.self_s": self_s.get("exact", 0.0),
        "exact.peak_alloc_mb": peak.get("exact", 0.0),
        "asymptotics.self_s": self_s.get("asymptotics", 0.0),
        "mapping.parse_mapping.s": incl_s.get("mapping.parse_mapping", 0.0),
        "mapping.analyze.s": incl_s.get("mapping.analyze", 0.0),
        "mapping.period_stats.s": incl_s.get("mapping.period_stats", 0.0),
        "mapping.peak_alloc_mb": peak.get("mapping", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
    }

