"""Byzantine replica behaviours for fault-injection experiments.

Correct-process code never checks "am I faulty?" flags; faults are expressed
as subclasses overriding behaviour — the same structure the adversary has in
the Byzantine model (full control over up to f replicas, §2).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.bft import messages as m
from repro.bft.messages import BftReply
from repro.bft.replica import BftReplica
from repro.crypto.encoding import canonical_bytes


class SilentReplica(BftReplica):
    """Participates in nothing: the crash end of the Byzantine spectrum."""

    def on_message(self, src: str, payload: Any) -> None:
        return


class CorruptReplyReplica(BftReplica):
    """Orders correctly but sends garbage results to clients.

    Detected only by clients comparing reply values — the paper's primary
    fault-detection path ("faulty processes ... detected primarily by
    processes external to it; ... clients receiving a faulty result", §2).
    """

    def _p2p(self, dst: str, message: Any) -> None:
        if isinstance(message, BftReply):
            message = BftReply(
                view=message.view,
                timestamp=message.timestamp,
                client_id=message.client_id,
                sender=message.sender,
                result=b"\xde\xad" + message.result,
            )
        super()._p2p(dst, message)


class StutteringPrimaryReplica(BftReplica):
    """As primary, never orders requests (but otherwise participates).

    Forces the backups' view-change timers to fire — the liveness path.
    """

    def _order(self, request: Any) -> None:
        return


class EquivocatingPrimaryReplica(BftReplica):
    """As primary, assigns the same sequence number twice.

    Correct backups accept at most one pre-prepare per (view, seq), so
    equivocation cannot produce two committed requests at one seq; it can
    only stall progress and trigger a view change.
    """

    def _order(self, request: Any) -> None:
        if self.next_seq >= 1:
            self.next_seq -= 1  # reuse the previous sequence number
        super()._order(request)


class SlowReplica(BftReplica):
    """Delays all sends by a fixed lag: Byzantine-slow, not crashed.

    Exercises the voter's refusal to wait for all 3f+1 messages (§3.6:
    waiting for stragglers "would cause the system to be vulnerable to ...
    faulty processes that may be deliberately slow").
    """

    lag: float = 0.5

    def _mcast(self, message: Any) -> None:
        self.set_timer(self.lag, lambda: BftReplica._mcast(self, message))

    def _p2p(self, dst: str, message: Any) -> None:
        self.set_timer(self.lag, lambda: BftReplica._p2p(self, dst, message))


class CertificateForger(BftReplica):
    """Lies inside every certificate it sends: a made-up checkpoint for a
    catch-up request, a made-up batch for a lagger's next seq, a checkpoint 1000
    and a prepared request 500 past its stable seq in each view change, and,
    as a new primary, one pre-prepare more than its view-change set decides.
    """

    def _forged(self, seq: int) -> m.PrePrepareMsg:
        request = m.ClientRequest(client_id="forged", timestamp=seq, payload=b"1000")
        batch = m.BatchMsg(requests=(request,))
        return m.PrePrepareMsg(self.view, seq, batch.content_digest(), batch, self.pid)

    def _p2p(self, dst: str, message: Any) -> None:
        super()._p2p(dst, self._lie(message))

    def _mcast(self, message: Any) -> None:
        super()._mcast(self._lie(message))

    def _lie(self, message: Any) -> Any:
        if isinstance(message, m.FillMsg):
            return replace(message, entries=(self._forged(message.entries[0].seq),))
        if isinstance(message, m.CatchUpResponse):
            return replace(message, checkpoint=canonical_bytes({"app": b"999", "clients": {}}))
        if isinstance(message, m.ViewChangeMsg):
            far = self._forged(message.stable_seq + 500)
            return replace(
                message,
                checkpoints=message.checkpoints + ((message.stable_seq + 1000, b"\x09" * 32),),
                pre_prepared=message.pre_prepared + (far,),
                prepared=message.prepared + ((far.seq, far.view, far.request_digest),),
            )
        if isinstance(message, m.NewViewMsg):
            extra = self._forged(self.next_seq + 1)
            return replace(message, pre_prepares=message.pre_prepares + (extra,))
        return message
