"""Spans around calls into locsym's public functions, recorded from outside.

A traced run replaces each function named in LAYERS, in every ``locsym``
module namespace that holds it, with a wrapper that records a span: name,
start, end, parent span and job id.  Nothing in ``src/`` changes, and calls
the library makes between its own modules (``bench_all`` calling
``build_locop``) are caught too.  ``gabor`` and ``wigner`` are not wrapped:
their time counts inside the ``recovery`` spans that reach them.

Spans are kept in memory and written out when the run ends.  Only calls
made while a job is open are recorded, so set-up and correctness checks
stay out of the per-layer figures.  ``tracemalloc`` runs only in a traced
run, and there only once memory tracing is switched on: it slows
Python-heavy layers (CSV formatting, eigenvector sorting) several times
over, so peak allocations come from spans recorded with it on and times
from spans recorded with it off.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

LAYERS = (
    "core.hermite_system",
    "symbols.gen_symbol",
    "operator.build_locop",
    "operator.eigendecompose",
    "operator.load_locop",
    "operator.save_locop",
    "recovery.gp_recover",
    "recovery.pt_recover",
    "recovery.wn_recover",
    "recovery.was_recover",
    "recovery.wawd_recover",
    "recovery.wn_limit",
    "recovery.impulse_kernel",
    "recovery.deconvolve",
    "mapio.load_map",
    "mapio.save_csv",
    "mapio.save_pgm",
    "bench.bench_all",
)

# position of the file-path argument of the layers whose I/O volume is counted
BYTES_ARG = {
    "mapio.load_map": 0,
    "mapio.save_csv": 1,
    "mapio.save_pgm": 1,
    "operator.load_locop": 0,
}

BENCH_METHODS = ("wn", "was", "wawd", "pt", "gp")

_MB = 2.0 ** 20


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: int | None = None
    self_s: float = 0.0
    peak_alloc_bytes: int | None = None
    bytes: int | None = None
    row_seconds: dict | None = None
    # bookkeeping while open: highest traced memory seen around children
    _peak_seen: int = field(default=0, repr=False)
    _base: int = field(default=0, repr=False)
    _child_s: float = field(default=0.0, repr=False)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the functions in LAYERS while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._job: int | None = None
        self._patches: list = []

    # -- installation ---------------------------------------------------
    def install(self):
        for qualname in LAYERS:
            module_name, func_name = qualname.split(".")
            module = importlib.import_module("locsym." + module_name)
            original = getattr(module, func_name)
            wrapper = self._wrap(qualname, original)
            for name, mod in list(sys.modules.items()):
                if (name == "locsym" or name.startswith("locsym.")) \
                        and getattr(mod, func_name, None) is original:
                    setattr(mod, func_name, wrapper)
                    self._patches.append((mod, func_name, original))

    def uninstall(self):
        for mod, func_name, original in reversed(self._patches):
            setattr(mod, func_name, original)
        self._patches.clear()
        tracemalloc.stop()

    def trace_memory(self):
        """Start ``tracemalloc``: spans opened from now on record peak allocations."""
        tracemalloc.start()

    # -- spans ----------------------------------------------------------
    def _open(self, name: str) -> Span:
        current, peak = tracemalloc.get_traced_memory()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent._peak_seen = max(parent._peak_seen, peak)
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        span = Span(len(self.spans), name, time.perf_counter(),
                    parent=parent.sid if parent else None, job=self._job,
                    _peak_seen=current, _base=current)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        peak = max(span._peak_seen, tracemalloc.get_traced_memory()[1])
        if tracemalloc.is_tracing():
            span.peak_alloc_bytes = peak - span._base
        span.self_s = span.seconds - span._child_s
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent._peak_seen = max(parent._peak_seen, peak)
            parent._child_s += span.seconds

    @contextmanager
    def job(self, job_id: int, kind: str):
        """Open the root span of one job; layer calls inside become its children."""
        self._job = job_id
        span = self._open("job." + kind)
        try:
            yield span
        finally:
            self._close(span)
            self._job = None

    def _wrap(self, qualname: str, original):
        path_arg = BYTES_ARG.get(qualname)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self._job is None:
                return original(*args, **kwargs)
            span = self._open(qualname)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if path_arg is not None and len(args) > path_arg:
                span.bytes = os.path.getsize(args[path_arg])
            if qualname == "bench.bench_all":
                span.row_seconds = {}
                for row in result["rows"]:
                    method = row["method"]
                    span.row_seconds[method] = (span.row_seconds.get(method, 0.0)
                                                + row["seconds"])
            return result

        return traced

    # -- results --------------------------------------------------------
    def _timed_spans(self) -> list:
        """Spans recorded with memory tracing off, or all when there are none."""
        untraced = [s for s in self.spans if s.peak_alloc_bytes is None]
        return untraced or self.spans

    def layer_metrics(self) -> dict:
        """Per-layer metrics over the spans recorded inside jobs.

        Counts, times and bytes come from the spans recorded with memory
        tracing off; peak allocations from those recorded with it on.
        """
        timed = self._timed_spans()
        metrics = {}
        for name in LAYERS:
            spans = [s for s in timed if s.name == name]
            seconds = [s.seconds for s in spans]
            peaks = [s.peak_alloc_bytes for s in self.spans
                     if s.name == name and s.peak_alloc_bytes is not None]
            metrics[f"{name}.calls"] = (len(spans), "count")
            metrics[f"{name}.busy_s"] = (sum(seconds, 0.0), "s")
            metrics[f"{name}.p50_ms"] = (
                1e3 * statistics.median(seconds) if seconds else 0.0, "ms")
            metrics[f"{name}.peak_alloc_mb"] = (max(peaks, default=0) / _MB, "MB")
            if name in BYTES_ARG:
                metrics[f"{name}.bytes"] = (sum(s.bytes or 0 for s in spans), "bytes")
        bench_spans = [s for s in timed if s.name == "bench.bench_all"]
        row_total = 0.0
        for method in BENCH_METHODS:
            seconds = sum((s.row_seconds.get(method, 0.0) for s in bench_spans), 0.0)
            row_total += seconds
            metrics[f"bench.row.{method}_s"] = (seconds, "s")
        metrics["bench.bench_all.other_s"] = (
            sum((s.seconds for s in bench_spans), 0.0) - row_total, "s")
        return metrics

    def coverage(self) -> float:
        """Share of job time spent inside the outermost layer calls."""
        timed = self._timed_spans()
        jobs = {s.sid: s for s in timed if s.parent is None}
        covered = sum(s.seconds for s in timed if s.parent in jobs)
        total = sum(s.seconds for s in jobs.values())
        return covered / total if total else 0.0

    def write(self, path):
        """Write every span, with its self time, as JSON."""
        rows = []
        for span in self.spans:
            row = {k: v for k, v in asdict(span).items() if not k.startswith("_")}
            row["seconds"] = span.seconds
            rows.append(row)
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)
            fh.write("\n")
