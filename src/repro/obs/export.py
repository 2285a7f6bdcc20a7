"""Exporters: JSONL dumps and human-readable tables for telemetry data.

Every line of a JSONL export is self-describing via a ``"record"`` field
(``metric`` / ``span`` / ``health_element`` / ``health_event`` /
``audit_entry`` / ``audit_chain`` / ``suspicion``), so one file can hold a
whole run and ``tools/generate_report.py`` can fold it into the results
report without guessing. An exported audit chain remains offline-verifiable:
``repro.obs.audit.verify_chain`` re-checks the ``audit_entry`` records as
read back from disk.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry
    from repro.obs.tracing import Tracer


def metric_records(registry: Any) -> list[dict[str, Any]]:
    out = []
    for entry in registry.collect():
        record = {"record": "metric"}
        record.update(entry)
        out.append(record)
    return out


def span_records(tracer: Any) -> list[dict[str, Any]]:
    out = []
    for span in tracer.spans:
        record = {"record": "span"}
        record.update(span.to_dict())
        out.append(record)
    return out


def health_records(board: Any) -> list[dict[str, Any]]:
    snapshot = board.as_dict()
    out: list[dict[str, Any]] = []
    for element in snapshot["elements"]:
        record = {"record": "health_element"}
        record.update(element)
        out.append(record)
    for event in snapshot["events"]:
        record = {"record": "health_event"}
        record.update(event)
        out.append(record)
    return out


def audit_records(audit: Any) -> list[dict[str, Any]]:
    """``audit_entry`` per chain link plus one ``audit_chain`` stat line."""
    return list(audit.to_records())


def detect_records(detect: Any) -> list[dict[str, Any]]:
    """One ``suspicion`` record per element the estimator tracks."""
    return list(detect.to_records())


def telemetry_records(telemetry: "Telemetry") -> list[dict[str, Any]]:
    """Everything one run produced, as one flat JSONL-ready list."""
    return (
        metric_records(telemetry.registry)
        + span_records(telemetry.tracer)
        + health_records(telemetry.health)
        + audit_records(telemetry.audit)
        + detect_records(telemetry.detect)
    )


def to_jsonl(records: Iterable[dict[str, Any]]) -> str:
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def write_jsonl(path: str, records: Iterable[dict[str, Any]]) -> int:
    """Write records to ``path``; returns the number of lines written."""
    text = to_jsonl(records)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text.count("\n")


def read_jsonl(path: str) -> list[dict[str, Any]]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


TELEMETRY_SUFFIX = ".telemetry.jsonl"


def node_telemetry_files(directory: str) -> dict[str, str]:
    """Map node id → path for every ``<node>.telemetry.jsonl`` in a dir.

    This is the reader side of the per-process exports left behind by
    ``python -m repro serve`` (see :mod:`repro.net.node`).
    """
    out: dict[str, str] = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(TELEMETRY_SUFFIX):
            out[name[: -len(TELEMETRY_SUFFIX)]] = os.path.join(directory, name)
    return out


def read_node_records(directory: str) -> dict[str, list[dict[str, Any]]]:
    """JSONL records per node, for every node that exported telemetry."""
    return {
        node: read_jsonl(path)
        for node, path in node_telemetry_files(directory).items()
    }


def tracer_from_records(records: Iterable[dict[str, Any]]) -> "Tracer":
    """Rebuild an offline, query/render-capable tracer from span records.

    The returned tracer holds :class:`~repro.obs.tracing.Span` objects
    reconstructed from ``"record": "span"`` lines; ``tree``/``render``/
    ``find`` all work as they would on the live tracer.
    """
    from repro.obs.tracing import Span, Tracer

    tracer = Tracer()
    for record in records:
        if record.get("record") != "span":
            continue
        tracer.spans.append(
            Span(
                trace_id=record["trace_id"],
                span_id=record["span_id"],
                parent_id=record.get("parent_id"),
                name=record["name"],
                pid=record.get("pid", ""),
                start=record["start"],
                end=record.get("end"),
                attrs=record.get("attrs") or {},
            )
        )
    return tracer


class FoldedMetrics:
    """Registry-shaped view over metric records folded from many nodes.

    Duck-types ``collect()`` so :func:`render_metrics_table` renders the
    combined table; every entry carries a ``node`` label identifying which
    process reported it.
    """

    def __init__(self, entries: list[dict[str, Any]]) -> None:
        self._entries = entries

    def collect(self) -> list[dict[str, Any]]:
        return list(self._entries)


def fold_metric_records(
    by_node: dict[str, list[dict[str, Any]]]
) -> FoldedMetrics:
    """Fold per-node ``metric`` records into one :class:`FoldedMetrics`."""
    entries: list[dict[str, Any]] = []
    for node in sorted(by_node):
        for record in by_node[node]:
            if record.get("record") != "metric":
                continue
            entry = {k: v for k, v in record.items() if k != "record"}
            labels = dict(entry.get("labels") or {})
            labels["node"] = node
            entry["labels"] = labels
            entries.append(entry)
    return FoldedMetrics(entries)


#: Synthetic shard label values minted by :func:`aggregate_by_shard`.
CLUSTER_SHARD = "cluster"
UNSHARDED = "unsharded"


def aggregate_by_shard(
    by_node: dict[str, list[dict[str, Any]]]
) -> FoldedMetrics:
    """Aggregate per-node metric records per shard plus cluster-wide (E20).

    Nodes of a sharded deployment stamp every metric with a ``shard``
    label (the shard domain the process belongs to, or ``gm``/``client``);
    records missing the label group under ``shard="unsharded"``. Counters
    and gauges sum within one (metric, shard, residual-labels) group.
    Histograms merge exactly on count/sum/min/max — mean is recomputed
    from the merged totals — while the reported p95 is the *maximum* of
    the per-node p95s (a conservative bound: true quantiles cannot be
    reconstructed from summaries). A parallel ``shard="cluster"`` group
    carries the totals across every shard.
    """
    groups: dict[tuple, dict[str, Any]] = {}

    def feed(entry: dict[str, Any], shard: str) -> None:
        labels = {
            k: v
            for k, v in (entry.get("labels") or {}).items()
            if k not in ("node", "shard")
        }
        key = (entry["metric"], entry["kind"], shard, tuple(sorted(labels.items())))
        agg = groups.get(key)
        if agg is None:
            agg = groups[key] = {
                "value": 0.0,
                "count": 0.0,
                "sum": 0.0,
                "min": float("inf"),
                "max": float("-inf"),
                "p95": 0.0,
            }
        if entry["kind"] == "histogram":
            count = float(entry.get("count", 0.0))
            agg["count"] += count
            agg["sum"] += float(entry.get("mean", 0.0)) * count
            agg["min"] = min(agg["min"], float(entry.get("min", float("inf"))))
            agg["max"] = max(agg["max"], float(entry.get("max", float("-inf"))))
            agg["p95"] = max(agg["p95"], float(entry.get("p95", 0.0)))
        else:
            agg["value"] += float(entry.get("value", 0.0))

    for node in sorted(by_node):
        for record in by_node[node]:
            if record.get("record") != "metric":
                continue
            shard = (record.get("labels") or {}).get("shard") or UNSHARDED
            feed(record, shard)
            feed(record, CLUSTER_SHARD)

    entries: list[dict[str, Any]] = []
    for metric, kind, shard, label_items in sorted(groups):
        agg = groups[(metric, kind, shard, label_items)]
        labels = dict(label_items)
        labels["shard"] = shard
        entry: dict[str, Any] = {"metric": metric, "kind": kind, "labels": labels}
        if kind == "histogram":
            count = agg["count"]
            entry["count"] = count
            entry["mean"] = agg["sum"] / count if count else 0.0
            entry["p95"] = agg["p95"]
            if count:
                entry["min"] = agg["min"]
                entry["max"] = agg["max"]
        else:
            entry["value"] = agg["value"]
        entries.append(entry)
    return FoldedMetrics(entries)


def fold_node_records(
    by_node: dict[str, list[dict[str, Any]]]
) -> list[dict[str, Any]]:
    """Flatten per-node records into one list, tagging each with its node."""
    out: list[dict[str, Any]] = []
    for node in sorted(by_node):
        for record in by_node[node]:
            tagged = dict(record)
            tagged["node"] = node
            out.append(tagged)
    return out


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render_metrics_table(registry: Any) -> str:
    """Fixed-width table of every metric child, grouped by family."""
    entries = registry.collect()
    if not entries:
        return "no metrics recorded"
    rows: list[tuple[str, str, str]] = []
    for entry in entries:
        name = entry["metric"] + _format_labels(entry["labels"])
        if entry["kind"] == "histogram":
            value = (
                f"count={_format_value(entry['count'])} "
                f"mean={entry['mean']:.6g} p95={entry['p95']:.6g}"
            )
        else:
            value = _format_value(entry["value"])
        rows.append((name, entry["kind"], value))
    name_w = max(len(r[0]) for r in rows)
    kind_w = max(len(r[1]) for r in rows)
    lines = [f"{'metric'.ljust(name_w)}  {'kind'.ljust(kind_w)}  value"]
    lines.append(f"{'-' * name_w}  {'-' * kind_w}  -----")
    lines.extend(
        f"{name.ljust(name_w)}  {kind.ljust(kind_w)}  {value}"
        for name, kind, value in rows
    )
    return "\n".join(lines)
