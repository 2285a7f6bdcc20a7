"""The PBFT client side.

A client sends its request to the primary, starts a retransmission timer,
and accepts a result once it has ``f+1`` matching replies from distinct
replicas — at least one of which must be correct (§3.1: "The client waits
for f+1 replies with the same result; this is the result of the operation").
On timeout it retransmits to *all* replicas, which triggers the
forward-to-primary / view-change path if the primary is faulty.

Two classes:

* :class:`BftClientEngine` — the protocol logic, embeddable in any simulated
  process. ITDOS processes embed several engines at once (one per
  replication group they talk to: target domains, the Group Manager, their
  own domain for reply routing).
* :class:`BftClient` — a standalone client process wrapping one engine;
  convenient for tests and BFT-only benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.bft.config import BftConfig
from repro.bft.messages import BftReply, ClientRequest
from repro.sim.process import Process
from repro.sim.scheduler import TimerHandle

ReplyCallback = Callable[[bytes], None]


@dataclass
class _PendingOp:
    request: ClientRequest
    callback: ReplyCallback
    replies: dict[str, bytes] = field(default_factory=dict)  # sender -> result
    done: bool = False
    timer: TimerHandle | None = None
    retransmissions: int = 0


class BftClientEngine:
    """Client-role protocol engine against one replication group.

    ``owner`` supplies identity, sends, and timers; the engine keeps the
    pending-operation table. Deliveries must be routed to
    :meth:`handle_message`, which returns True when it consumed the payload.
    """

    def __init__(
        self,
        owner: Process,
        config: BftConfig,
        max_outstanding: int | None = None,
        timestamp_base: int = 0,
    ) -> None:
        self.owner = owner
        self.config = config
        # Client-side pipelining cap: with ``max_outstanding`` set, extra
        # invokes queue locally and dispatch as earlier ones complete.
        # PBFT's client-table dedup keys on the *latest* timestamp per
        # client, so a single client must keep its requests ordered — cap 1
        # reproduces the paper's one-outstanding-request discipline while
        # letting callers submit back-to-back load; batching then amortizes
        # across many such clients.
        self.max_outstanding = max_outstanding
        # PBFT timestamps must be monotonic across client *incarnations*:
        # a rebooted client starting again at 0 would match the replicas'
        # client-table entries and be served stale cached replies. The sim
        # keeps base 0 (one incarnation per pid, determinism preserved);
        # real-wire processes seed this from their local clock, exactly the
        # paper's "value of the client's local clock" suggestion.
        self._timestamp = timestamp_base
        self._view_estimate = 0
        self._pending: dict[int, _PendingOp] = {}  # timestamp -> op
        self._queue: list[tuple[bytes, ReplyCallback]] = []

    @property
    def client_id(self) -> str:
        return self.owner.pid

    @property
    def _believed_primary(self) -> str:
        return self.config.primary_of_view(self._view_estimate)

    def invoke(self, payload: bytes, callback: ReplyCallback | None = None) -> int:
        """Submit an operation; returns its timestamp (the client-local id).

        ``callback`` fires once with the accepted (f+1-matching) result.
        Returns ``-1`` when the outstanding cap defers the submission; the
        operation gets its timestamp when it actually dispatches.
        """
        if (
            self.max_outstanding is not None
            and len(self._pending) >= self.max_outstanding
        ):
            self._queue.append((payload, callback or (lambda result: None)))
            return -1
        return self._submit(payload, callback)

    def _submit(self, payload: bytes, callback: ReplyCallback | None) -> int:
        self._timestamp += 1
        timestamp = self._timestamp
        request = ClientRequest(
            client_id=self.client_id, timestamp=timestamp, payload=payload
        )
        op = _PendingOp(request=request, callback=callback or (lambda result: None))
        self._pending[timestamp] = op
        t = self.owner.telemetry
        if t.enabled:
            # The ambient span (an SMIOP request or connect, if any) becomes
            # the parent of the BFT phase spans replicas emit for this
            # request; the content digest is the correlation key that
            # reappears verbatim in their pre-prepares.
            if t.current is not None:
                t.bind(request.content_digest(), t.current)
            t.registry.counter(
                "bft_client_requests_total", "Client operations submitted, by group",
                labels=("group",),
            ).labels(group=self.config.address).inc()
        self.owner.send(self._believed_primary, request)
        op.timer = self.owner.set_timer(
            self.config.client_retry_timeout, lambda: self._retry(timestamp)
        )
        return timestamp

    def _retry(self, timestamp: int) -> None:
        op = self._pending.get(timestamp)
        if op is None or op.done:
            return
        op.retransmissions += 1
        t = self.owner.telemetry
        if t.enabled:
            t.registry.counter(
                "bft_client_retransmissions_total",
                "Client retry broadcasts, by group",
                labels=("group",),
            ).labels(group=self.config.address).inc()
        for replica_id in self.config.replica_ids:
            self.owner.send(replica_id, op.request)
        op.timer = self.owner.set_timer(
            self.config.client_retry_timeout * (2 ** min(op.retransmissions, 6)),
            lambda: self._retry(timestamp),
        )

    def handle_message(self, src: str, payload: Any) -> bool:
        """Process a delivery if it belongs to this engine."""
        if not isinstance(payload, BftReply):
            return False
        if payload.client_id != self.client_id or src != payload.sender:
            return False
        if src not in self.config.replica_ids:
            return False
        op = self._pending.get(payload.timestamp)
        if op is None or op.done:
            return True  # ours, but already settled
        self._view_estimate = max(self._view_estimate, payload.view)
        op.replies[src] = payload.result
        matching = sum(1 for r in op.replies.values() if r == payload.result)
        if matching >= self.config.reply_quorum:
            op.done = True
            if op.timer is not None:
                self.owner.cancel_timer(op.timer)
                op.timer = None
            del self._pending[payload.timestamp]
            op.callback(payload.result)
            self._dispatch_queued()
        return True

    def _dispatch_queued(self) -> None:
        while self._queue and (
            self.max_outstanding is None
            or len(self._pending) < self.max_outstanding
        ):
            payload, callback = self._queue.pop(0)
            self._submit(payload, callback)

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    @property
    def queued(self) -> int:
        return len(self._queue)


class BftClient(Process):
    """Standalone client process for one replication group."""

    def __init__(
        self, pid: str, config: BftConfig, max_outstanding: int | None = None
    ) -> None:
        super().__init__(pid)
        self.engine = BftClientEngine(self, config, max_outstanding=max_outstanding)
        self.config = config

    def invoke(self, payload: bytes, callback: ReplyCallback | None = None) -> int:
        return self.engine.invoke(payload, callback)

    def on_message(self, src: str, payload: Any) -> None:
        self.engine.handle_message(src, payload)

    @property
    def outstanding(self) -> int:
        return self.engine.outstanding
