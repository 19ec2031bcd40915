"""Observability: sim-clock tracing and session metrics (``repro.obs``).

Everything here derives from simulator state only — never wall clock —
so traces and metrics are byte-identical for a fixed seed.
"""

from repro.obs import metrics, trace
from repro.obs.metrics import Histogram, MetricsRegistry, merge_snapshots
from repro.obs.trace import (
    CAT_DIVERGENCE,
    CAT_FAILOVER,
    CAT_RING,
    CAT_SESSION,
    CAT_SYSCALL,
    CAT_WAIT,
    JsonlSink,
    MemorySink,
    TraceRecord,
    Tracer,
    activate,
    active,
    chrome_trace_json,
    deactivate,
    jsonl_line,
    tracing,
)

__all__ = [
    "CAT_DIVERGENCE", "CAT_FAILOVER", "CAT_RING", "CAT_SESSION",
    "CAT_SYSCALL", "CAT_WAIT", "Histogram", "JsonlSink", "MemorySink",
    "MetricsRegistry", "TraceRecord", "Tracer", "activate", "active",
    "chrome_trace_json", "deactivate", "jsonl_line", "merge_snapshots",
    "metrics", "trace", "tracing",
]
