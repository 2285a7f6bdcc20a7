"""Message-flow tracing.

Experiments F1–F3 reproduce the paper's figures as *verified traces*: the
recorder captures every send and delivery with timestamps so a test can
assert, e.g., that connection establishment follows exactly the 5-step
sequence of Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class TraceEvent:
    """One network-level occurrence.

    ``kind`` is one of ``"send"``, ``"deliver"``, ``"drop"``, ``"multicast"``.
    ``label`` is derived from the payload by one rule: its type name, then
    its ``int`` and ``str`` dataclass fields in declaration order, e.g.
    ``PrepareMsg(view=0,seq=2,sender=calc-e1)``. A payload that is not a
    dataclass is labelled by its type name alone.
    """

    time: float
    kind: str
    src: str
    dst: str
    label: str
    payload: Any

    def __str__(self) -> str:
        return f"[{self.time:10.6f}] {self.kind:9s} {self.src} -> {self.dst}: {self.label}"


def _label_for(payload: Any) -> str:
    name = type(payload).__name__
    if not is_dataclass(payload):
        return name
    shown = ",".join(
        f"{f.name}={value}"
        for f in fields(payload)
        if isinstance(value := getattr(payload, f.name), (int, str))
    )
    return f"{name}({shown})"


class TraceRecorder:
    """Accumulates :class:`TraceEvent` records for later assertion/printing.

    The network records only while ``enabled`` is set (:meth:`Network.enable_trace`).
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.enabled = True

    def record(self, time: float, kind: str, src: str, dst: str, payload: Any) -> None:
        self.events.append(
            TraceEvent(
                time=time,
                kind=kind,
                src=src,
                dst=dst,
                label=_label_for(payload),
                payload=payload,
            )
        )

    def clear(self) -> None:
        self.events.clear()

    def filter(
        self,
        kind: str | None = None,
        label: str | None = None,
        src: str | None = None,
        dst: str | None = None,
        predicate: Callable[[TraceEvent], bool] | None = None,
    ) -> list[TraceEvent]:
        """Select events matching every given criterion."""
        out = []
        for event in self.events:
            if kind is not None and event.kind != kind:
                continue
            if label is not None and event.label != label:
                continue
            if src is not None and event.src != src:
                continue
            if dst is not None and event.dst != dst:
                continue
            if predicate is not None and not predicate(event):
                continue
            out.append(event)
        return out

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


def render_sequence_diagram(
    events: list[TraceEvent],
    participants: list[str],
    collapse: dict[str, str] | None = None,
    max_rows: int = 60,
) -> str:
    """ASCII sequence diagram of ``events`` between ``participants``.

    ``collapse`` maps process ids to lane names, letting a whole
    replication domain share one lane ("calc-e0".."calc-e3" -> "calc[4]").
    Only ``send`` events between known lanes are drawn; consecutive sends
    between the same lanes of one payload type are merged into one row with
    a repeat count — exactly what a protocol figure does with fan-out
    arrows. The row shows the label if every merged label is equal, else
    the type name.
    """
    collapse = collapse or {}

    def lane_of(pid: str) -> str | None:
        name = collapse.get(pid, pid)
        return name if name in participants else None

    width = max(len(p) for p in participants) + 2
    header = "".join(p.center(width) for p in participants)
    columns = {p: i for i, p in enumerate(participants)}
    lines = [header]
    merged: list[tuple[str, str, str, str, int]] = []  # (src, dst, type, label, count)
    for event in events:
        if event.kind != "send":
            continue
        src, dst = lane_of(event.src), lane_of(event.dst)
        if src is None or dst is None or src == dst:
            continue
        name = event.label.partition("(")[0]  # every label starts with the type name
        if merged and merged[-1][:3] == (src, dst, name):
            label, count = merged[-1][3:]
            merged[-1] = (src, dst, name, label if label == event.label else name, count + 1)
        else:
            merged.append((src, dst, name, event.label, 1))
    for src, dst, _, label, count in merged[:max_rows]:
        a, b = columns[src], columns[dst]
        left, right = min(a, b), max(a, b)
        start = left * width + width // 2
        end = right * width + width // 2
        arrow = [" "] * (len(participants) * width)
        for column in columns.values():
            arrow[column * width + width // 2] = "|"  # lifelines
        for i in range(start + 1, end):
            arrow[i] = "-"
        if a < b:
            arrow[end] = ">"
        else:
            arrow[start] = "<"
        text = label + (f" x{count}" if count > 1 else "")
        lines.append("".join(arrow) + "  " + text)
    if len(merged) > max_rows:
        lines.append(f"... {len(merged) - max_rows} more rows")
    return "\n".join(lines)
