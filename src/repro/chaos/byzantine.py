"""Every Byzantine behaviour in the repository, one mixin per lie.

The adversary controls up to f elements of any domain (§2), and no
correct-process code asks "am I faulty?". A behaviour overrides only the
hook of the layer it lies in: ``_p2p``, ``_mcast``, ``on_message`` or
``_order`` on a PBFT replica; ``_send_reply``, ``_serve_read``,
``_dispatch`` or ``_issue_nested`` on a queue element; ``_handle_commit_feed``
on a reader. One ``{pid: behaviour}`` mapping names the faulty processes
(``build_group(byzantine=...)``, ``ItdosSystem.add_server_domain(byzantine=...)``,
elements and readers keyed alike), and :func:`repro.sim.process.with_behaviour`
puts each behaviour in front of the class the builder makes. The wire
adversary (:mod:`repro.chaos.adversary`) is the other half.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.bft import messages as m
from repro.crypto.encoding import canonical_bytes
from repro.giop.messages import ReplyMessage, decode_message, encode_reply
from repro.itdos.messages import ChangeRequest, ProofItem

# -- PBFT replicas -------------------------------------------------------------


class SilentReplica:
    """Participates in nothing: the crash end of the Byzantine spectrum."""

    def on_message(self, src: str, payload: Any) -> None:
        return


class CorruptReplyReplica:
    """Orders correctly but sends garbage results to clients.

    Detected only by clients comparing reply values — the paper's primary
    fault-detection path ("faulty processes ... detected primarily by
    processes external to it; ... clients receiving a faulty result", §2).
    """

    def _p2p(self, dst: str, message: Any) -> None:
        if isinstance(message, m.BftReply):
            message = replace(message, result=b"\xde\xad" + message.result)
        super()._p2p(dst, message)


class StutteringPrimaryReplica:
    """As primary, never orders requests (but otherwise participates).

    Forces the backups' view-change timers to fire — the liveness path.
    """

    def _order(self, request: Any) -> None:
        return


class EquivocatingPrimaryReplica:
    """As primary, assigns the same sequence number twice.

    Correct backups accept at most one pre-prepare per (view, seq), so
    equivocation cannot produce two committed requests at one seq; it can
    only stall progress and trigger a view change.
    """

    def _order(self, request: Any) -> None:
        if self.next_seq >= 1:
            self.next_seq -= 1  # reuse the previous sequence number
        super()._order(request)


class SlowReplica:
    """Delays all sends by a fixed lag: Byzantine-slow, not crashed.

    Exercises the voter's refusal to wait for all 3f+1 messages (§3.6:
    waiting for stragglers "would cause the system to be vulnerable to ...
    faulty processes that may be deliberately slow").
    """

    lag: float = 0.5

    def _mcast(self, message: Any) -> None:
        send = super()._mcast
        self.set_timer(self.lag, lambda: send(message))

    def _p2p(self, dst: str, message: Any) -> None:
        send = super()._p2p
        self.set_timer(self.lag, lambda: send(dst, message))


class CertificateForger:
    """Lies inside every certificate it sends: a made-up checkpoint for a
    catch-up request, a made-up batch for a lagger's next seq, a checkpoint 1000
    and a prepared request 500 past its stable seq in each view change, and,
    as a new primary, one pre-prepare more than its view-change set decides.
    On a core element it forges the element's BFT certificates alike.
    """

    def _p2p(self, dst: str, message: Any) -> None:
        super()._p2p(dst, _lie(self, message))

    def _mcast(self, message: Any) -> None:
        super()._mcast(_lie(self, message))


def _forged(replica: Any, seq: int) -> m.PrePrepareMsg:
    request = m.ClientRequest(client_id="forged", timestamp=seq, payload=b"1000")
    batch = m.BatchMsg(requests=(request,))
    return m.PrePrepareMsg(replica.view, seq, batch.content_digest(), batch, replica.pid)


def _lie(replica: Any, message: Any) -> Any:
    """``message`` as :class:`CertificateForger` sends it from ``replica``."""
    if isinstance(message, m.FillMsg):
        return replace(message, entries=(_forged(replica, message.entries[0].seq),))
    if isinstance(message, m.CatchUpResponse):
        return replace(message, checkpoint=canonical_bytes({"app": b"999", "clients": {}}))
    if isinstance(message, m.ViewChangeMsg):
        far = _forged(replica, message.stable_seq + 500)
        return replace(
            message,
            checkpoints=message.checkpoints + ((message.stable_seq + 1000, b"\x09" * 32),),
            pre_prepared=message.pre_prepared + (far,),
            prepared=message.prepared + ((far.seq, far.view, far.request_digest),),
        )
    if isinstance(message, m.NewViewMsg):
        extra = _forged(replica, replica.next_seq + 1)
        return replace(message, pre_prepares=message.pre_prepares + (extra,))
    return message


# -- queue elements ------------------------------------------------------------
#
# The interesting intrusions at this layer are value-level: PBFT masks the
# protocol-level ones below, so a compromised element computes correctly
# enough to stay in ordering while returning corrupted results — the paper's
# central detection scenario ("clients receiving a faulty result", §2).


def corrupt(value: Any) -> Any:
    """A genuinely different value of the same shape, so the lie survives
    heterogeneity: it is applied before marshalling, not to the bytes."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1_000_001
    if isinstance(value, str):
        return value + "!corrupted"
    if isinstance(value, list):
        return [corrupt(v) for v in value] or [666]
    if isinstance(value, dict):
        return {k: corrupt(v) for k, v in value.items()}
    return value


def _corrupted_reply(element: Any, plaintext: bytes) -> bytes:
    """A successful GIOP reply re-marshalled around a :func:`corrupt`-ed
    result; any other plaintext, or a result that resists corruption, as is."""
    try:
        message = decode_message(element.directory.repository, plaintext)
        if isinstance(message, ReplyMessage) and message.reply_status == 0:
            return encode_reply(
                element.directory.repository,
                message.interface_name,
                message.operation,
                request_id=message.request_id,
                result=corrupt(message.result),
                byte_order=element.orb.platform.byte_order,
            )
    except Exception:  # noqa: BLE001 - some results resist corruption
        pass
    return plaintext


class LyingElement:
    """Returns corrupted result values on every request.

    Setting :attr:`repaired` (:func:`repair`) stops the lying — the
    "operator has cleaned the machine" precondition for readmission.
    """

    repaired = False

    def _send_reply(self, record: Any, request_id: int, plaintext: bytes) -> None:
        if not self.repaired:
            plaintext = _corrupted_reply(self, plaintext)
        super()._send_reply(record, request_id, plaintext)


def repair(element: Any) -> None:
    """The operator cleans a :class:`LyingElement`'s machine: it lies no more."""
    element.repaired = True


class IntermittentLyingElement:
    """Corrupts only every ``period``-th reply — harder to catch (§3.6:
    "it is possible that the faulty response is not among those received").
    """

    period = 3
    _replies = 0

    def _send_reply(self, record: Any, request_id: int, plaintext: bytes) -> None:
        self._replies += 1
        if self._replies % self.period == 0:
            plaintext = _corrupted_reply(self, plaintext)
        super()._send_reply(record, request_id, plaintext)


class RequestCorruptingElement:
    """Corrupts the arguments of its *nested* requests to other domains.

    Exercises the other detection direction of §2: "other servers receiving
    a faulty request" — the downstream domain's request voters see this
    element dissenting from its domain siblings and report it to the GM.
    """

    def _issue_nested(self, parked: Any, record: Any, request_id: int, call: Any) -> None:
        corrupted = replace(call, args=tuple(corrupt(arg) for arg in call.args))
        try:
            super()._issue_nested(parked, record, request_id, corrupted)
        except Exception:  # noqa: BLE001 - corrupted args may not marshal
            super()._issue_nested(parked, record, request_id, call)


class MuteElement:
    """Participates in ordering but never answers clients.

    The voter must decide from the other 2f+1 replies without waiting for
    all 3f+1 (§3.6's refusal to wait for stragglers).
    """

    def _send_reply(self, record: Any, request_id: int, plaintext: bytes) -> None:
        return


class StateLeakElement:
    """A malicious-but-undetectable element leaking state (§2.1's caveat).

    It behaves correctly toward clients while copying every decrypted
    request to an exfiltration sink — the confidentiality compromise the
    paper warns "can leak server state to unauthorized recipients".
    """

    exfil_target = "eavesdropper"

    def _dispatch(self, message: Any, record: Any, request_id: int) -> None:
        self.send(self.exfil_target, ("exfil", message.operation, message.args))
        super()._dispatch(message, record, request_id)


class ForgedWatermarkElement:
    """A core element whose tentative reads lie about the commit watermark.

    Alternates between *futuristic* (claims a prefix nobody committed yet)
    and *stale* (claims an old prefix while serving current state) — both
    validly MACed, so only the client's 2f+1 matching-(watermark, value)
    quorum stands between the lie and a decided read. The chaos invariant
    ``read-decided-beyond-commit`` asserts the quorum always wins.
    """

    #: How far ahead the forged watermark claims to be.
    FORGE_AHEAD = 7

    def _serve_read(self, src: str, envelope: Any) -> None:
        queue = self.queue
        true_processed = queue.processed_count
        if envelope.read_id % 2:
            queue.processed_count = true_processed + self.FORGE_AHEAD
        else:
            queue.processed_count = max(0, true_processed - self.FORGE_AHEAD)
        try:
            super()._serve_read(src, envelope)
        finally:
            queue.processed_count = true_processed


# -- readers -------------------------------------------------------------------


class LaggingReader:
    """A read-tier element that silently drops most of its commit feed.

    Models a reader that fell far behind (slow disk, long GC pause): it
    keeps serving reads from its stale prefix — legal, the watermark tag
    makes staleness explicit — until the feed gap forces a full catch-up.
    """

    #: Apply only every ``KEEP_EVERY``-th feed index; drop the rest.
    KEEP_EVERY = 4

    def _handle_commit_feed(self, src: str, feed: Any) -> None:
        if feed.index % self.KEEP_EVERY:
            return
        super()._handle_commit_feed(src, feed)


# -- singleton clients ---------------------------------------------------------


def forged_change_request(
    requester: str,
    accused_domain: str,
    accused: tuple[str, ...],
    request_id: int = 1,
) -> ChangeRequest:
    """A malicious client's attempt to expel *correct* processes (§3.6): the
    proof is fabricated, unsigned replies, and the Group Manager must deny it."""
    proof = tuple(
        ProofItem(sender=pid, plaintext=b"forged-reply", signature=b"\x00" * 32)
        for pid in accused
    )
    return ChangeRequest(
        requester=requester,
        requester_kind="singleton",
        requester_domain="",
        accused_domain=accused_domain,
        accused=accused,
        request_id=request_id,
        proof=proof,
    )
