"""The Telemetry facade: one handle per simulation, wired through Network.

Instrumented code never imports concrete registries or tracers; it asks the
facade. When disabled (the default — benchmarks stay honest) the five sinks
(``registry``, ``tracer``, ``health``, ``audit``, ``detect``) are ``None``:
every call site guards on ``enabled`` first, and every helper below bails on
that same check, so the cost at each site is one attribute load and one
branch. An unguarded sink access fails loudly instead of recording nothing.

Two propagation mechanisms, both safe because the simulator executes one
scheduled callback at a time in one Python process:

* ``current`` + :meth:`use` — a dynamically-scoped ambient span context.
  Code that fires async continuations re-establishes the context itself
  (the callback closes over the ctx and wraps its body in ``use``).
* :meth:`bind` / :meth:`lookup` — a bounded correlation map for hops where
  no closure survives, keyed by protocol identifiers that already cross
  the layer boundary (e.g. a ``ClientRequest`` content digest reappearing
  in a BFT pre-prepare). No wire format changes, ever.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Hashable, Iterator

from repro.obs.audit import AuditLog
from repro.obs.detect import FaultEstimator
from repro.obs.health import HealthBoard
from repro.obs.registry import MetricRegistry
from repro.obs.tracing import Span, TraceContext, Tracer

# The correlation map evicts its oldest binding past this size; protocol
# identifiers are unbound as soon as their hop completes, so a healthy run
# stays far below it.
DEFAULT_CORRELATION_CAP = 4096


class Telemetry:
    """Facade over registry + tracer + health board + propagation state."""

    def __init__(
        self, enabled: bool = True, clock: Callable[[], float] | None = None
    ) -> None:
        self.enabled = enabled
        self.registry: MetricRegistry | None = None
        self.tracer: Tracer | None = None
        self.health: HealthBoard | None = None
        self.audit: AuditLog | None = None
        self.detect: FaultEstimator | None = None
        if enabled:
            self.registry = MetricRegistry()
            self.tracer = Tracer(clock=clock)
            self.health = HealthBoard()
            self.audit = AuditLog(clock=self.now)
            self.detect = FaultEstimator(
                self.registry, self.health, self.audit, clock=self.now
            )
        self.current: TraceContext | None = None
        self.correlation_dropped = 0
        self._correlation: OrderedDict[Hashable, TraceContext] = OrderedDict()

    def now(self) -> float:
        return self.tracer.now() if self.enabled else 0.0

    def evidence(
        self,
        kind: str,
        accused: str,
        reporter: str = "",
        hard: bool = False,
        detail: str = "",
        evidence: dict[str, Any] | None = None,
        dedup: Any = None,
    ) -> None:
        """One intrusion-evidence observation: audit it, score it, roll it
        into the health board. The single entry point every protocol layer
        uses, so the three sinks can never drift apart. ``dedup`` suppresses
        replayed reports of one decision (each replica of a replicated
        observer executes it against this shared facade)."""
        if not self.enabled:
            return
        entry = self.audit.record(
            kind, accused, reporter=reporter, hard=hard, detail=detail,
            evidence=evidence, dedup=dedup,
        )
        if dedup is not None and entry is None:
            return
        self.health.record_evidence(
            accused, kind, hard=hard, time=self.now(), ctx=self.current
        )
        self.detect.note_evidence(kind, accused, hard)

    # -- ambient context -----------------------------------------------------

    @contextmanager
    def use(self, ctx: TraceContext | None) -> Iterator[None]:
        """Make ``ctx`` the ambient parent for the enclosed synchronous work."""
        previous = self.current
        self.current = ctx
        try:
            yield
        finally:
            self.current = previous

    # -- correlation map -----------------------------------------------------

    def bind(self, key: Hashable, ctx: TraceContext | None) -> None:
        """Remember ``ctx`` under a protocol identifier for a later hop."""
        if not self.enabled or ctx is None:
            return
        if key in self._correlation:
            self._correlation.move_to_end(key)
        elif len(self._correlation) >= DEFAULT_CORRELATION_CAP:
            self._correlation.popitem(last=False)
            self.correlation_dropped += 1
        self._correlation[key] = ctx

    def lookup(self, key: Hashable) -> TraceContext | None:
        return self._correlation.get(key)

    def unbind(self, key: Hashable) -> None:
        self._correlation.pop(key, None)

    # -- span helpers (each bails immediately when disabled) -----------------

    def begin(
        self,
        name: str,
        parent: TraceContext | None = None,
        pid: str = "",
        **attrs: Any,
    ) -> Span | None:
        if not self.enabled:
            return None
        return self.tracer.begin(name, parent=parent, pid=pid, **attrs)

    def end(self, span: Span | None, end: float | None = None) -> None:
        if self.enabled:
            self.tracer.end(span, end=end)

    def point(
        self,
        name: str,
        parent: TraceContext | None = None,
        pid: str = "",
        **attrs: Any,
    ) -> Span | None:
        if not self.enabled:
            return None
        return self.tracer.point(name, parent=parent, pid=pid, **attrs)

    def record(
        self,
        name: str,
        start: float,
        end: float | None = None,
        parent: TraceContext | None = None,
        pid: str = "",
        **attrs: Any,
    ) -> Span | None:
        if not self.enabled:
            return None
        return self.tracer.record(
            name, start, end=end, parent=parent, pid=pid, **attrs
        )


#: The shared disabled facade — the default everywhere telemetry is optional.
NOOP_TELEMETRY = Telemetry(enabled=False)
