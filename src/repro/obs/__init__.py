"""repro.obs — the unified observability subsystem.

One registry of metrics per database (counters, gauges, fixed-bucket
histograms), a span tracer with a bounded ring buffer and slow-op log,
a wait-event profiler (lock waits, buffer misses, page I/O, WAL
flushes, each tagged with the waiting transaction), EXPLAIN ANALYZE
plan trees read off live operator counters, and JSON/Prometheus
exporters.  Every engine-internal count — buffer hits, lock waits, WAL
flushes, index probes, swizzle faults, query phases — is an instrument
its component registers here, and every reader asks the registry by
name (``value``, ``snapshot(prefix)``, ``reset(prefix)``).

The system statistics views (:mod:`repro.obs.sysviews`) are **not**
re-exported here: that module imports the multidb and query layers,
which import this package back — the database imports it lazily.
"""

from .explain import ExplainResult, PlanNode, operator_tree
from .export import (
    export_json,
    observability_payload,
    render_prometheus,
    write_bench_artifact,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracing import SlowOp, Span, Tracer
from .waits import WAIT_KINDS, WaitEvent, WaitProfiler

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "ExplainResult",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PlanNode",
    "SlowOp",
    "Span",
    "Tracer",
    "WAIT_KINDS",
    "WaitEvent",
    "WaitProfiler",
    "export_json",
    "observability_payload",
    "operator_tree",
    "render_prometheus",
    "write_bench_artifact",
]
