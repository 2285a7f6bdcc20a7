"""The per-element recovery coordinator.

Drives the two halves of recovery for one
:class:`~repro.itdos.replica.ItdosServerElement`:

1. **Rejoin** — send the signed :class:`RejoinPetition` through the Group
   Manager's ordering and wait for the replicated verdict. A successful
   verdict means the GM has re-added the element to domain membership and
   rotated every affected connection key to a new membership epoch.
2. **Queue state transfer** — one :class:`~repro.recovery.fetch.StateFetch`
   round (the same one the read tier runs) fetches each peer's
   ``MessageQueue.snapshot()``, servant state and stable PBFT checkpoint and
   cross-validates the fingerprints; this class supplies what is specific
   to a *core* element: the peer's execution position must cover our
   buffering anchor, the checkpoint certificate must verify, and after the
   restore the *buffered ordered tail* is replayed — every payload the
   element's own ordering executed while it was diverged (buffered by
   ``ItdosServerElement._bft_execute``) whose sequence number postdates the
   adopted snapshot.

A quorum that only reaches ``f+1`` may be stale; staleness is safe because
adoption additionally requires the peer's execution position to cover our
buffering anchor, so the snapshot plus our replayed tail reconstructs a
prefix-consistent queue.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.crypto.digests import digest
from repro.itdos.queuestate import QueueOverflow
from repro.recovery.fetch import StateFetch
from repro.recovery.messages import (
    QueueStateResponse,
    RejoinPetition,
    petition_body,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.itdos.replica import ItdosServerElement

#: Verdicts after which the joiner is (again) a member in good standing.
ADMITTED_VERDICTS = (b"READMITTED", b"REFRESHED", b"OK")


class RecoveryCoordinator:
    """Petition, then fetch → restore → replay the buffered tail."""

    def __init__(self, element: "ItdosServerElement") -> None:
        self.element = element
        self.active = False
        self.last_verdict: bytes | None = None
        self.transfers_completed = 0
        self.bytes_transferred = 0
        self._petition_nonce = 0
        self.fetch = StateFetch(
            element,
            acceptable=self._covers_anchor,
            adopt=self._adopt,
            on_give_up=lambda: self._finish(False),
        )
        self._span: Any = None
        self._on_complete: Callable[[bool], None] | None = None

    # -- rejoin petition ---------------------------------------------------

    def _next_nonce(self) -> int:
        # Monotone even across a restart that wiped the counter: anchor on
        # simulated time in microseconds, tiebroken by the local counter.
        now_us = int(self.element.now * 1_000_000)
        self._petition_nonce = max(self._petition_nonce + 1, now_us)
        return self._petition_nonce

    def make_petition(self, fresh_keys: bool = False) -> RejoinPetition:
        element = self.element
        nonce = self._next_nonce()
        body = petition_body(element.pid, element.domain_id, fresh_keys, nonce)
        return RejoinPetition(
            element=element.pid,
            domain_id=element.domain_id,
            fresh_keys=bool(fresh_keys),
            nonce=nonce,
            signature=element.signer.sign(body),
        )

    def petition(
        self,
        callback: Callable[[bytes], None] | None = None,
        fresh_keys: bool = False,
    ) -> None:
        """Send the signed rejoin handshake (membership only, no transfer)."""
        element = self.element
        t = element.telemetry
        request = self.make_petition(fresh_keys)
        span = (
            t.begin("recovery.petition", pid=element.pid, fresh=bool(fresh_keys))
            if t.enabled
            else None
        )

        def on_verdict(verdict: bytes) -> None:
            self.last_verdict = verdict
            if span is not None:
                span.attrs["verdict"] = verdict.decode("ascii", "replace")
                t.end(span)
            if callback is not None:
                callback(verdict)

        with t.use(span.ctx if span is not None else None):
            element.endpoint.gm_engine.invoke(request.to_payload(), on_verdict)

    # -- full recovery -----------------------------------------------------

    def begin(
        self,
        callback: Callable[[bytes], None] | None = None,
        fresh_keys: bool = False,
        on_complete: Callable[[bool], None] | None = None,
    ) -> None:
        """Rejoin, then (queue mode) transfer state until caught up.

        ``callback`` receives the GM's petition verdict; ``on_complete``
        fires once the whole recovery finishes (``True``) or every transfer
        attempt is exhausted (``False``). In object mode the petition alone
        completes recovery — servant state is repaired by the ordinary BFT
        checkpoint/state-transfer machinery, not by queue adoption.
        """
        element = self.element
        if self.active:
            return
        self.active = True
        self._on_complete = on_complete
        t = element.telemetry
        self._span = (
            t.begin("recovery.recover", pid=element.pid, fresh=bool(fresh_keys))
            if t.enabled
            else None
        )
        if element.state_mode == "queue":
            # From here on the ordered tail is buffered, so anything our own
            # ordering executes during recovery can be replayed on top of
            # whatever snapshot we adopt.
            element._mark_diverged()

        def on_verdict(verdict: bytes) -> None:
            if callback is not None:
                callback(verdict)
            if verdict not in ADMITTED_VERDICTS:
                self._finish(False)
            elif element.state_mode == "queue":
                self.fetch.start(
                    trace_parent=self._span.ctx if self._span is not None else None
                )
            else:
                self._finish(True)

        with t.use(self._span.ctx if self._span is not None else None):
            self.petition(callback=on_verdict, fresh_keys=fresh_keys)

    # -- queue state transfer ----------------------------------------------

    def _covers_anchor(self, response: QueueStateResponse) -> bool:
        # A snapshot that predates our buffering anchor is useless: the
        # buffer cannot bridge the gap between it and our own execution
        # position.
        element = self.element
        anchor = (
            element._recovery_anchor
            if element._recovery_anchor is not None
            else element.last_executed
        )
        return response.last_executed >= anchor

    def _adopt(self, response: QueueStateResponse) -> bool:
        element = self.element
        t = element.telemetry
        # The checkpoint certificate must check out before anything mutates:
        # 2f+1 signed-by-membership CheckpointMsgs over the peer's snapshot.
        if response.stable_seq > 0 and not element.verify_checkpoint_proof(
            response.stable_seq,
            digest(response.checkpoint_snapshot),
            response.checkpoint_proof,
        ):
            return False
        if not element._restore_queue_state(response):
            return False  # retry round will overwrite any partial state
        # Replay the buffered ordered tail past the snapshot position.
        replayed = 0
        for seq, payload in element._recovery_buffer:
            if seq <= response.last_executed:
                continue
            try:
                element._append(seq, payload)
            except (ValueError, QueueOverflow):
                return False
            replayed += 1
        if response.last_executed > element.last_executed:
            element.last_executed = response.last_executed
        element.diverged = False
        element._clear_recovery_buffer()
        # Adopt the peer's stable checkpoint *after* un-diverging so any
        # execution it unblocks appends to the queue instead of the buffer.
        if response.stable_seq > element.stable_seq:
            element.adopt_stable_checkpoint(
                response.stable_seq,
                response.checkpoint_snapshot,
                response.checkpoint_proof,
            )
        self.transfers_completed += 1
        self.bytes_transferred += response.wire_size()
        if t.enabled:
            t.point(
                "recovery.restore",
                parent=self._span.ctx if self._span is not None else None,
                pid=element.pid,
                source=response.sender,
                adopted_exec=response.last_executed,
                replayed=replayed,
                snapshot_bytes=len(response.snapshot),
            )
            t.registry.counter(
                "recovery_transfers_total", "Queue state transfers completed"
            ).inc()
        element._pump()
        self._finish(True)
        return True

    def _finish(self, success: bool) -> None:
        self.active = False
        t = self.element.telemetry
        if self._span is not None:
            self._span.attrs["outcome"] = "recovered" if success else "gave_up"
            t.end(self._span)
            self._span = None
        if t.enabled and not success:
            t.registry.counter(
                "recovery_failures_total", "Recoveries that exhausted every attempt"
            ).inc()
        on_complete, self._on_complete = self._on_complete, None
        if on_complete is not None:
            on_complete(success)
