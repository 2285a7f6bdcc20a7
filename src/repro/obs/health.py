"""Per-element health: dissent, view changes, checkpoint lag, expulsions.

The :class:`HealthBoard` is the operator-facing rollup of the paper's
intrusion-tolerance story. Voters report dissenting replies, BFT replicas
report view changes and checkpoint progress, and the Group Manager reports
expulsions/readmissions — each also lands in an event log carrying the
trace/span of the decision that caused it, so "why was calc-e2 expelled?"
is answerable from the board alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Iterable

from repro.obs.tracing import TraceContext


@dataclass
class ElementHealth:
    """Rolling state for one replicated element (or BFT replica)."""

    pid: str
    dissents: int = 0
    view_changes: int = 0
    last_view: int = 0
    stable_seq: int = 0
    checkpoint_lag: int = 0
    expelled: bool = False
    readmitted: bool = False
    # Fault-estimation rollup (repro.obs.detect): current suspicion score,
    # audit evidence count, and the most damning evidence kind seen.
    suspicion: float = 0.0
    evidence: int = 0
    hard_evidence: int = 0
    last_evidence: str = ""


@dataclass(frozen=True)
class HealthEvent:
    """One notable moment: an expulsion, readmission, or view change."""

    time: float
    kind: str
    element: str
    detail: str = ""
    trace_id: int | None = None
    span_id: int | None = None


@dataclass
class HealthBoard:
    """The registry of per-element health plus the decision event log."""

    elements: dict[str, ElementHealth] = field(default_factory=dict)
    events: list[HealthEvent] = field(default_factory=list)
    # Highest communication-key membership epoch observed (Group Manager
    # rollup): every expulsion/readmission advances it.
    key_epoch: int = 0

    def element(self, pid: str) -> ElementHealth:
        health = self.elements.get(pid)
        if health is None:
            health = ElementHealth(pid=pid)
            self.elements[pid] = health
        return health

    def _event(
        self,
        time: float,
        kind: str,
        element: str,
        detail: str,
        ctx: TraceContext | None,
    ) -> None:
        self.events.append(
            HealthEvent(
                time=time,
                kind=kind,
                element=element,
                detail=detail,
                trace_id=ctx.trace_id if ctx else None,
                span_id=ctx.span_id if ctx else None,
            )
        )

    # -- reporters -----------------------------------------------------------

    def record_dissent(self, pid: str) -> None:
        self.element(pid).dissents += 1

    def record_suspicion(self, pid: str, score: float) -> None:
        self.element(pid).suspicion = score

    def record_evidence(
        self,
        pid: str,
        kind: str,
        hard: bool = False,
        time: float = 0.0,
        ctx: TraceContext | None = None,
    ) -> None:
        health = self.element(pid)
        health.evidence += 1
        if hard:
            health.hard_evidence += 1
        # Hard evidence is never displaced by later soft noise.
        if hard or not health.hard_evidence:
            health.last_evidence = kind
        if hard:
            self._event(time, "evidence", pid, kind, ctx)

    def record_view_change(
        self,
        pid: str,
        new_view: int,
        time: float = 0.0,
        ctx: TraceContext | None = None,
    ) -> None:
        health = self.element(pid)
        health.view_changes += 1
        health.last_view = max(health.last_view, new_view)
        self._event(time, "view_change", pid, f"view={new_view}", ctx)

    def record_checkpoint(self, pid: str, stable_seq: int, lag: int) -> None:
        health = self.element(pid)
        health.stable_seq = max(health.stable_seq, stable_seq)
        health.checkpoint_lag = lag

    def record_expulsion(
        self,
        pids: Iterable[str],
        time: float = 0.0,
        ctx: TraceContext | None = None,
        detail: str = "",
    ) -> int:
        """Mark elements expelled; dedups replayed GM executions.

        Returns how many elements newly transitioned (every replica of the
        GM executes the same ordered expulsion, so only the first report
        counts).
        """
        newly = 0
        for pid in pids:
            health = self.element(pid)
            if health.expelled:
                continue
            health.expelled = True
            newly += 1
            self._event(time, "expulsion", pid, detail, ctx)
        return newly

    def record_readmission(
        self,
        pids: Iterable[str],
        time: float = 0.0,
        ctx: TraceContext | None = None,
        detail: str = "",
    ) -> int:
        newly = 0
        for pid in pids:
            health = self.element(pid)
            if not health.expelled or health.readmitted:
                continue
            health.expelled = False
            health.readmitted = True
            newly += 1
            self._event(time, "readmission", pid, detail, ctx)
        return newly

    def record_key_epoch(
        self,
        epoch: int,
        time: float = 0.0,
        ctx: TraceContext | None = None,
        detail: str = "",
    ) -> bool:
        """Roll the key epoch forward; dedups replayed GM executions.

        Returns True only on the first report of a new epoch (every GM
        replica executes the same ordered membership change).
        """
        if epoch <= self.key_epoch:
            return False
        self.key_epoch = epoch
        self._event(time, "key_epoch", "gm", detail or f"epoch={epoch}", ctx)
        return True

    # -- queries / rendering -------------------------------------------------

    def expelled(self) -> list[str]:
        return [pid for pid, h in sorted(self.elements.items()) if h.expelled]

    def events_of(self, kind: str) -> list[HealthEvent]:
        return [e for e in self.events if e.kind == kind]

    def as_dict(self) -> dict[str, Any]:
        return {
            "elements": [asdict(h) for _, h in sorted(self.elements.items())],
            "events": [asdict(e) for e in self.events],
            "key_epoch": self.key_epoch,
        }

    def render(self) -> str:
        if not self.elements and not self.events:
            return "health board: no data"
        headers = (
            "element",
            "dissents",
            "view_chg",
            "stable_seq",
            "ckpt_lag",
            "suspicion",
            "evidence",
            "status",
        )
        rows = []
        for pid in sorted(self.elements):
            h = self.elements[pid]
            status = "expelled" if h.expelled else ("readmitted" if h.readmitted else "ok")
            evidence = ""
            if h.evidence:
                strength = f"{h.hard_evidence} hard" if h.hard_evidence else "soft"
                evidence = f"{h.evidence} ({strength}: {h.last_evidence})"
            rows.append(
                (
                    pid,
                    str(h.dissents),
                    str(h.view_changes),
                    str(h.stable_seq),
                    str(h.checkpoint_lag),
                    f"{h.suspicion:.2f}",
                    evidence,
                    status,
                )
            )
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
            for i in range(len(headers))
        ]

        def fmt(cells: tuple[str, ...]) -> str:
            return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

        lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
        lines.extend(fmt(row) for row in rows)
        if self.key_epoch:
            lines.append("")
            lines.append(f"key epoch: {self.key_epoch}")
        if self.events:
            lines.append("")
            lines.append("events:")
            for event in self.events:
                span = (
                    f" trace={event.trace_id} span={event.span_id}"
                    if event.trace_id is not None
                    else ""
                )
                detail = f" {event.detail}" if event.detail else ""
                lines.append(
                    f"  t={event.time * 1000:.3f}ms {event.kind} {event.element}{detail}{span}"
                )
        return "\n".join(lines)
