"""repro.obs — telemetry registry, causal tracing, and health reporting.

The public surface:

* :class:`Telemetry` / :data:`NOOP_TELEMETRY` — the per-simulation facade
  (enable via ``Network.enable_telemetry()`` or ``ItdosSystem(telemetry=True)``);
  disabled, its five sinks below are ``None`` and every call site guards on
  ``telemetry.enabled``, so each sink has exactly one implementation
* :class:`MetricRegistry` — labeled counters/gauges/histograms
* :class:`Tracer` / :class:`Span` / :class:`TraceContext` — span trees
* :class:`HealthBoard` — per-element dissent/view-change/expulsion rollup
  with suspicion scores and evidence counts
* :class:`AuditLog` — tamper-evident, hash-chained intrusion-evidence log
  (:func:`verify_chain` re-checks an exported chain offline)
* :class:`FaultEstimator` — streaming per-element suspicion scores
  (phi-accrual timeliness, latency anomaly, garbage/dissent rates)
* :mod:`repro.obs.export` — JSONL + table exporters
"""

from repro.obs.audit import AuditEntry, AuditLog, verify_chain
from repro.obs.detect import (
    ACCUSE_THRESHOLD,
    REPORT_THRESHOLD,
    Ewma,
    FaultEstimator,
    PhiAccrual,
)
from repro.obs.export import (
    FoldedMetrics,
    aggregate_by_shard,
    audit_records,
    detect_records,
    fold_metric_records,
    fold_node_records,
    metric_records,
    node_telemetry_files,
    read_jsonl,
    read_node_records,
    render_metrics_table,
    span_records,
    telemetry_records,
    to_jsonl,
    tracer_from_records,
    write_jsonl,
)
from repro.obs.health import ElementHealth, HealthBoard, HealthEvent
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricRegistry,
)
from repro.obs.telemetry import NOOP_TELEMETRY, Telemetry
from repro.obs.tracing import Span, TraceContext, Tracer

__all__ = [
    "ACCUSE_THRESHOLD",
    "AuditEntry",
    "AuditLog",
    "Counter",
    "ElementHealth",
    "Ewma",
    "FaultEstimator",
    "FoldedMetrics",
    "Gauge",
    "HealthBoard",
    "HealthEvent",
    "Histogram",
    "MetricFamily",
    "MetricRegistry",
    "NOOP_TELEMETRY",
    "PhiAccrual",
    "REPORT_THRESHOLD",
    "Span",
    "Telemetry",
    "TraceContext",
    "Tracer",
    "aggregate_by_shard",
    "audit_records",
    "detect_records",
    "fold_metric_records",
    "fold_node_records",
    "metric_records",
    "node_telemetry_files",
    "read_jsonl",
    "read_node_records",
    "render_metrics_table",
    "span_records",
    "telemetry_records",
    "to_jsonl",
    "tracer_from_records",
    "verify_chain",
    "write_jsonl",
]
