"""Causal request tracing: spans, trace trees, and the span store.

One *trace* is one logical invocation (``stub.add(2, 3)``) as it travels
client stub → SMIOP → PBFT phases → servant dispatch → reply voting. Each
instrumented step is a :class:`Span` carrying ``(trace_id, span_id)``;
causality is the ``parent_id`` chain, handed across layers as a
:class:`TraceContext`.

The simulator is single-threaded and discrete-event, so two kinds of span
exist in practice:

* **interval spans** (``begin``/``end``) whose endpoints land on different
  scheduler events — real simulated-time durations (a PBFT prepare phase,
  an SMIOP round trip);
* **point spans** (``point``/``record``) marking one instant (a dispatch,
  a vote decision, a Group Manager verdict).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

DEFAULT_SPAN_CAPACITY = 100_000


@dataclass(frozen=True)
class TraceContext:
    """The propagated causal handle: which trace, which parent span."""

    trace_id: int
    span_id: int


class Span:
    """One named step of one trace."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "pid", "start", "end", "attrs")

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: int | None,
        name: str,
        pid: str,
        start: float,
        end: float | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.pid = pid
        self.start = start
        self.end = end
        self.attrs = attrs or {}

    @property
    def ctx(self) -> TraceContext:
        """Context for parenting children under this span."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "pid": self.pid,
            "start": self.start,
            "end": self.end if self.end is not None else self.start,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        return (
            f"<Span {self.name} trace={self.trace_id} id={self.span_id} "
            f"pid={self.pid} t={self.start:.6f}>"
        )


class Tracer:
    """Allocates ids, stores finished and open spans, answers queries."""

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        capacity: int = DEFAULT_SPAN_CAPACITY,
    ) -> None:
        self._clock = clock or (lambda: 0.0)
        self.capacity = capacity
        self.spans: list[Span] = []
        self.dropped = 0
        self._next_trace_id = 1
        self._next_span_id = 1

    def now(self) -> float:
        return self._clock()

    # -- span creation -------------------------------------------------------

    def _alloc(self, parent: TraceContext | None) -> tuple[int, int, int | None]:
        if parent is None:
            trace_id = self._next_trace_id
            self._next_trace_id += 1
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span_id = self._next_span_id
        self._next_span_id += 1
        return trace_id, span_id, parent_id

    def begin(
        self,
        name: str,
        parent: TraceContext | None = None,
        pid: str = "",
        start: float | None = None,
        **attrs: Any,
    ) -> Span | None:
        """Open an interval span (close it with :meth:`end`)."""
        if len(self.spans) >= self.capacity:
            self.dropped += 1
            return None
        trace_id, span_id, parent_id = self._alloc(parent)
        span = Span(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            pid=pid,
            start=self.now() if start is None else start,
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    def end(self, span: Span | None, end: float | None = None) -> None:
        if span is not None and span.end is None:
            span.end = self.now() if end is None else end

    def point(
        self,
        name: str,
        parent: TraceContext | None = None,
        pid: str = "",
        **attrs: Any,
    ) -> Span | None:
        """A zero-duration span at the current instant."""
        span = self.begin(name, parent=parent, pid=pid, **attrs)
        self.end(span)
        return span

    def record(
        self,
        name: str,
        start: float,
        end: float | None = None,
        parent: TraceContext | None = None,
        pid: str = "",
        **attrs: Any,
    ) -> Span | None:
        """A retroactive span whose interval is already known."""
        span = self.begin(name, parent=parent, pid=pid, start=start, **attrs)
        self.end(span, end=start if end is None else end)
        return span

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def trace_ids(self) -> list[int]:
        seen: dict[int, None] = {}
        for span in self.spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def spans_of(self, trace_id: int) -> list[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]

    def find(
        self,
        name: str | None = None,
        trace_id: int | None = None,
        pid: str | None = None,
    ) -> list[Span]:
        out = []
        for span in self.spans:
            if name is not None and span.name != name:
                continue
            if trace_id is not None and span.trace_id != trace_id:
                continue
            if pid is not None and span.pid != pid:
                continue
            out.append(span)
        return out

    def span(self, span_id: int) -> Span | None:
        for candidate in self.spans:
            if candidate.span_id == span_id:
                return candidate
        return None

    def children(self, span: Span) -> list[Span]:
        return [
            s
            for s in self.spans
            if s.parent_id == span.span_id and s.trace_id == span.trace_id
        ]

    def roots(self, trace_id: int) -> list[Span]:
        """Spans of a trace with no stored parent (orphans included)."""
        present = {s.span_id for s in self.spans if s.trace_id == trace_id}
        return [
            s
            for s in self.spans
            if s.trace_id == trace_id
            and (s.parent_id is None or s.parent_id not in present)
        ]

    def tree(self, trace_id: int) -> list[tuple[Span, list]]:
        """Nested ``(span, children)`` pairs, children in start order."""

        def expand(span: Span) -> tuple[Span, list]:
            kids = sorted(self.children(span), key=lambda s: (s.start, s.span_id))
            return (span, [expand(k) for k in kids])

        return [expand(root) for root in
                sorted(self.roots(trace_id), key=lambda s: (s.start, s.span_id))]

    # -- rendering -----------------------------------------------------------

    def render(self, trace_id: int) -> str:
        """ASCII tree of one trace, with times and key attributes."""
        spans = self.spans_of(trace_id)
        if not spans:
            return f"trace {trace_id}: no spans"
        t0 = min(s.start for s in spans)
        t1 = max(s.end if s.end is not None else s.start for s in spans)
        lines = [
            f"trace {trace_id} — {len(spans)} spans, "
            f"{(t1 - t0) * 1000:.3f} ms simulated"
        ]

        def attr_text(span: Span) -> str:
            parts = [f"{k}={span.attrs[k]}" for k in sorted(span.attrs)]
            return (" " + " ".join(parts)) if parts else ""

        def draw(node: tuple[Span, list], prefix: str, last: bool) -> None:
            span, kids = node
            connector = "└─ " if last else "├─ "
            duration = (
                f" +{span.duration * 1000:.3f}ms" if span.duration > 0 else ""
            )
            lines.append(
                f"{prefix}{connector}{span.name} [{span.pid}] "
                f"@{(span.start - t0) * 1000:.3f}ms{duration}{attr_text(span)}"
            )
            child_prefix = prefix + ("   " if last else "│  ")
            for i, kid in enumerate(kids):
                draw(kid, child_prefix, i == len(kids) - 1)

        forest = self.tree(trace_id)
        for i, node in enumerate(forest):
            draw(node, "", i == len(forest) - 1)
        if self.dropped:
            lines.append(f"... {self.dropped} spans dropped (capacity {self.capacity})")
        return "\n".join(lines)
