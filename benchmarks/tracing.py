"""Span tracing of hbtsim's layers, installed from outside the package.

Each public layer function is replaced, for the duration of a traced
operation, by a wrapper that records a span (name, start, end, parent).
Wrappers are installed under the name the *calling* module looks up: the
pipeline calls ``generate_trace`` through ``hbtsim.pipeline.generate_trace``,
so that is the attribute patched.  Spans stay in memory and are written out
when the benchmark ends.  No file of the package is changed.

A span's self time is its duration minus the time its child spans cover.
Calls are strictly nested (one thread), so the children's coverage is the
sum of their durations.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("source", "bench", "correlate", "pipeline", "cli", "csv", "oracle")


def _n_samples(args, kwargs, result):
    return {"samples": len(result.samples)}


def _n_jumps(args, kwargs, result):
    return {"jumps": len(result[0])}


def _n_rows(args, kwargs, result):
    return {"samples": len(result)}


def _g2_overlap(args, kwargs, result):
    # Computed, not measured: the two float64 overlap windows the estimator
    # reads once each.  Temporaries and cache misses are not counted.
    return {"overlap": result.n_samples, "bytes": 2 * 8 * result.n_samples}


def _csv_write(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1]), "rows": len(args[0])}


def _csv_read(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]), "rows": len(result)}


# (module, attribute looked up by the caller, span name, attributes of the call)
TARGETS = (
    ("hbtsim.cli", "main", "cli.main", None),
    ("hbtsim.cli", "parse_config_file", "cli.parse_config", None),
    ("hbtsim.cli", "run_sweep", "cli.run_sweep", None),
    ("hbtsim.cli", "sweep_rows", "cli.sweep_rows", None),
    ("hbtsim.cli", "estimate_point", "pipeline.estimate_point", None),
    ("hbtsim.cli", "simulate_detectors", "pipeline.simulate_detectors", None),
    ("hbtsim.pipeline", "simulate_detectors", "pipeline.simulate_detectors", None),
    ("hbtsim.pipeline", "generate_trace", "source.generate_trace", _n_samples),
    ("hbtsim.source", "phase_jump_process", "source.phase_jump_process", _n_jumps),
    ("hbtsim.pipeline", "propagate", "bench.propagate", _n_rows),
    ("hbtsim.pipeline", "mean_intensity", "bench.mean_intensity", None),
    ("hbtsim.pipeline", "g2_cross", "correlate.g2", _g2_overlap),
    ("hbtsim.pipeline", "g2_self", "correlate.g2", _g2_overlap),
    ("hbtsim.correlate", "g2_cross", "correlate.g2", _g2_overlap),
    ("hbtsim.correlate", "g2_self", "correlate.g2", _g2_overlap),
    ("hbtsim.cli", "g2_delay_scan", "correlate.g2_delay_scan", None),
    ("hbtsim.cli", "save_detector_traces", "csv.write", _csv_write),
    ("hbtsim.cli", "load_detector_traces", "csv.read", _csv_read),
    ("hbtsim.cli", "solid_angle_of_setup", "oracle.solid_angle_of_setup", None),
    ("hbtsim.cli", "predict_g2_cross", "oracle.predict_g2_cross", None),
    ("hbtsim.cli", "predict_g2_self", "oracle.predict_g2_self", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans of the operations run while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self.op = 0

    def _wrap(self, fn, name, attrs_of):
        def traced(*args, **kwargs):
            # Forked pool workers inherit the wrapper but not the recorder.
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, op: int):
        """Patch every target for one operation, then restore the originals."""
        self.op = op
        saved = []
        try:
            for module_name, attr, name, attrs_of in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, attrs_of))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def as_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, **s.attrs}
            for s in self.spans
        ]


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that do not close inside their parent, or whose children's
    durations add up to more than their own."""
    errors = []
    child_sum = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.end < s.start:
            errors.append(f"span {i} {s.name} ends before it starts")
        if s.parent is None:
            continue
        p = spans[s.parent]
        if not (p.start <= s.start and s.end <= p.end):
            errors.append(f"span {i} {s.name} is not inside its parent {p.name}")
        child_sum[s.parent] += s.end - s.start
    for i, s in enumerate(spans):
        if child_sum[i] > (s.end - s.start) + 1e-9:
            errors.append(f"children of span {i} {s.name} cover more than it")
    return errors


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span of a complete recording."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def op_layer_metrics(
    spans: list[Span], own: list[float], child_cpu_s: float, workers: int
) -> dict[str, float]:
    """Per-layer metrics of one traced operation from its spans and their
    self times."""
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr_sum: dict[tuple[str, str], float] = {}
    g2_ms = []
    for s, t_self in zip(spans, own):
        dur = s.end - s.start
        busy[s.name] = busy.get(s.name, 0.0) + dur
        self_s[s.name] = self_s.get(s.name, 0.0) + t_self
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, val in s.attrs.items():
            attr_sum[s.name, key] = attr_sum.get((s.name, key), 0) + val
        if s.name == "correlate.g2":
            g2_ms.append(dur * 1e3)

    def b(name):
        return busy.get(name, 0.0)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0.0 else 0.0

    oracle_names = [n for n in busy if n.startswith("oracle.")]
    samples = attr_sum.get(("source.generate_trace", "samples"), 0)
    propagated = attr_sum.get(("bench.propagate", "samples"), 0)
    write_bytes = attr_sum.get(("csv.write", "bytes"), 0)
    read_bytes = attr_sum.get(("csv.read", "bytes"), 0)
    run_sweep_s = b("cli.run_sweep")
    m = {
        "source.generate_trace.calls": calls.get("source.generate_trace", 0),
        "source.generate_trace.busy_s": b("source.generate_trace"),
        "source.generate_trace.self_s": self_s.get("source.generate_trace", 0.0),
        "source.phase_jump_process.busy_s": b("source.phase_jump_process"),
        "source.samples": samples,
        "source.jumps": attr_sum.get(("source.phase_jump_process", "jumps"), 0),
        "source.msamples_per_s": rate(samples / 1e6, b("source.generate_trace")),
        "bench.propagate.calls": calls.get("bench.propagate", 0),
        "bench.propagate.busy_s": b("bench.propagate"),
        "bench.propagate.msamples_per_s": rate(propagated / 1e6, b("bench.propagate")),
        "correlate.g2.calls": calls.get("correlate.g2", 0),
        "correlate.g2.busy_s": b("correlate.g2"),
        "correlate.g2.call_ms_p50": statistics.median(g2_ms) if g2_ms else 0.0,
        "correlate.g2.overlap_samples": attr_sum.get(("correlate.g2", "overlap"), 0),
        "correlate.g2.bytes_computed": attr_sum.get(("correlate.g2", "bytes"), 0),
        "correlate.g2_delay_scan.busy_s": b("correlate.g2_delay_scan"),
        "pipeline.estimate_point.calls": calls.get("pipeline.estimate_point", 0),
        "pipeline.estimate_point.busy_s": b("pipeline.estimate_point"),
        "pipeline.estimate_point.self_s": self_s.get("pipeline.estimate_point", 0.0),
        "pipeline.simulate_detectors.self_s": self_s.get("pipeline.simulate_detectors", 0.0),
        "cli.run_sweep.self_s": self_s.get("cli.run_sweep", 0.0),
        "cli.sweep_rows.busy_s": b("cli.sweep_rows"),
        "cli.parse_config.busy_s": b("cli.parse_config"),
        "cli.pool.child_cpu_s": child_cpu_s if workers > 1 else 0.0,
        "cli.pool.busy_frac": rate(child_cpu_s, workers * run_sweep_s) if workers > 1 else 0.0,
        "csv.write.busy_s": b("csv.write"),
        "csv.write.bytes": write_bytes,
        "csv.write.mb_per_s": rate(write_bytes / 1e6, b("csv.write")),
        "csv.read.busy_s": b("csv.read"),
        "csv.read.mb_per_s": rate(read_bytes / 1e6, b("csv.read")),
        "csv.rows": attr_sum.get(("csv.write", "rows"), 0) + attr_sum.get(("csv.read", "rows"), 0),
        "oracle.calls": sum(calls[n] for n in oracle_names),
        "oracle.busy_s": sum(busy[n] for n in oracle_names),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            t for n, t in self_s.items() if n.split(".", 1)[0] == layer
        )
    return m
