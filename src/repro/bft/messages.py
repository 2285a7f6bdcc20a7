"""PBFT protocol messages.

Every message is a frozen dataclass (registered with
:func:`repro.schema.message`, which reads its one field list) with:

* ``canonical_fields()`` — deterministic content for digests/signing,
* ``wire_size()`` — estimated encoded size, so the simulated network can
  model size-dependent delay and the benchmarks can count bytes.

A figure trace labels a message by one rule (:mod:`repro.sim.trace`): its
type name, then its ``int`` and ``str`` fields in declaration order, e.g.
``PrepareMsg(view=0,seq=2,sender=calc-e1)``. No message writes its own.

``auth`` carries authentication material (MAC vector or signature) and is
excluded from the canonical content, since the MAC covers the content.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.crypto.digests import digest
from repro.crypto.encoding import canonical_bytes
from repro.crypto.memo import WeakMemo
from repro.schema import message, plan_of

_HEADER_OVERHEAD = 48  # nominal per-message framing cost in bytes

# Content-addressed memos shared by every message instance. Keys are the
# messages themselves: frozen dataclasses whose ``auth`` field is excluded
# from comparison and hashing, so a clean message, its stamped copy and an
# equal copy decoded separately map to the same entry — the bytes computed
# when the sender stamps are the bytes every receiver verifies, hashed
# exactly once. An entry lives exactly as long as the message it was stored
# under: a request or batch carries its payload and its encoding is as
# large again, so nothing here may outlive the protocol's own reference.
_ENCODING_CACHE = WeakMemo()
_DIGEST_CACHE = WeakMemo()


def marshal_cache_stats() -> dict[str, dict[str, float]]:
    """Observability hook: size and hit/miss counters for both memos."""
    return {
        "encoding": _ENCODING_CACHE.stats(),
        "digest": _DIGEST_CACHE.stats(),
    }


def _auth_size(auth: dict[str, bytes] | bytes | None) -> int:
    if auth is None:
        return 0
    if isinstance(auth, (bytes, bytearray)):
        return len(auth)
    return sum(len(mac) for mac in auth.values())


@dataclass(frozen=True)
class BftMessage:
    """Common behaviour for all protocol messages."""

    def canonical_fields(self) -> dict:
        """The signed form (:mod:`repro.schema`): every field but ``auth``."""
        return plan_of(type(self)).signed(self)

    def canonical_encoding(self) -> bytes:
        """Canonical TLV bytes of the message content, memoized.

        Level 1 is a per-instance slot; level 2 is the content-addressed
        memo, which a stamped copy (equal under dataclass comparison — the
        ``auth`` field never compares) shares with the clean original while
        that original lives.
        """
        cached = self.__dict__.get("_enc")
        if cached is None:
            cached = _ENCODING_CACHE.memo(self, lambda: canonical_bytes(self))
            object.__setattr__(self, "_enc", cached)
        return cached

    def content_digest(self) -> bytes:
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = _DIGEST_CACHE.memo(
                self, lambda: digest(self.canonical_encoding())
            )
            object.__setattr__(self, "_digest", cached)
        return cached

    def wire_size(self) -> int:
        return _HEADER_OVERHEAD + _payload_size(self.canonical_fields())


def _payload_size(value: Any) -> int:
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, (list, tuple)):
        return sum(_payload_size(v) for v in value) + 4
    if isinstance(value, dict):
        return sum(len(k) + _payload_size(v) for k, v in value.items()) + 4
    fields_fn = getattr(value, "canonical_fields", None)
    if callable(fields_fn):
        return _payload_size(fields_fn())
    return 8


@message
@dataclass(frozen=True)
class ClientRequest(BftMessage):
    """<REQUEST, o, t, c>: operation payload, client timestamp, client id."""

    client_id: str
    timestamp: int
    payload: bytes
    auth: bytes | None = field(default=None, compare=False)

    def wire_size(self) -> int:
        return super().wire_size() + _auth_size(self.auth)


@message
@dataclass(frozen=True)
class BatchMsg(BftMessage):
    """An ordered batch of client requests sharing one sequence number.

    Castro–Liskov batching: under load the primary runs the three-phase
    protocol once per *batch*, amortizing protocol messages and
    authentication across requests from many clients / virtual
    connections. The batch digest is what prepare, commit, and
    view-change certificates cover; execution unpacks the requests in
    batch order, so per-client reply semantics are untouched. An empty
    batch is the no-op filler for view-change sequence gaps.
    """

    requests: tuple[ClientRequest, ...]

    def wire_size(self) -> int:
        return _HEADER_OVERHEAD + sum(r.wire_size() for r in self.requests)


@message(unsigned=("batch",))
@dataclass(frozen=True)
class PrePrepareMsg(BftMessage):
    """<PRE-PREPARE, v, n, d> piggybacking the request batch itself."""

    view: int
    seq: int
    request_digest: bytes  # the batch's content digest
    batch: BatchMsg
    sender: str
    auth: dict[str, bytes] | bytes | None = field(default=None, compare=False)

    def wire_size(self) -> int:
        return super().wire_size() + self.batch.wire_size() + _auth_size(self.auth)


@message
@dataclass(frozen=True)
class PrepareMsg(BftMessage):
    """<PREPARE, v, n, d, i>."""

    view: int
    seq: int
    request_digest: bytes
    sender: str
    auth: dict[str, bytes] | bytes | None = field(default=None, compare=False)

    def wire_size(self) -> int:
        return super().wire_size() + _auth_size(self.auth)


@message
@dataclass(frozen=True)
class CommitMsg(BftMessage):
    """<COMMIT, v, n, d, i>."""

    view: int
    seq: int
    request_digest: bytes
    sender: str
    auth: dict[str, bytes] | bytes | None = field(default=None, compare=False)

    def wire_size(self) -> int:
        return super().wire_size() + _auth_size(self.auth)


@message
@dataclass(frozen=True)
class BftReply(BftMessage):
    """<REPLY, v, t, c, i, r> from replica ``sender`` to the client."""

    view: int
    timestamp: int
    client_id: str
    sender: str
    result: bytes
    auth: bytes | None = field(default=None, compare=False)

    def wire_size(self) -> int:
        return super().wire_size() + _auth_size(self.auth)


@message
@dataclass(frozen=True)
class CheckpointMsg(BftMessage):
    """<CHECKPOINT, n, d, i>: digest of the application state at seq n."""

    seq: int
    state_digest: bytes
    sender: str
    auth: dict[str, bytes] | bytes | None = field(default=None, compare=False)


@message
@dataclass(frozen=True)
class ViewChangeMsg(BftMessage):
    """<VIEW-CHANGE, v+1, h, C, P, Q, i>, carrying no proofs: the sender's
    stable seq, the ``(seq, state digest)`` of each checkpoint it holds from
    there, and above it, per seq, executed entries included, the last
    pre-prepare it accepted and the last ``(seq, view, digest)`` it prepared.
    No claim is believed on one sender's word (``select_new_view``).
    """

    new_view: int
    stable_seq: int
    checkpoints: tuple[tuple[int, bytes], ...]
    pre_prepared: tuple[PrePrepareMsg, ...]
    prepared: tuple[tuple[int, int, bytes], ...]
    sender: str
    auth: dict[str, bytes] | bytes | None = field(default=None, compare=False)


@message
@dataclass(frozen=True)
class NewViewMsg(BftMessage):
    """<NEW-VIEW, v+1, V, O>: view-change quorum + re-issued pre-prepares."""

    new_view: int
    view_changes: tuple[ViewChangeMsg, ...]
    pre_prepares: tuple[PrePrepareMsg, ...]
    sender: str
    auth: dict[str, bytes] | bytes | None = field(default=None, compare=False)


@message
@dataclass(frozen=True)
class StatusMsg(BftMessage):
    """Periodic liveness beacon: how far this replica has progressed.

    Peers that are ahead respond with a :class:`FillMsg` carrying the
    executed entries the sender is missing — the log-retransmission half
    of Castro–Liskov's status mechanism, which keeps lagging replicas
    inside the watermark window even before a checkpoint stabilises.
    """

    view: int
    last_executed: int
    stable_seq: int
    sender: str


@message
@dataclass(frozen=True)
class FillMsg(BftMessage):
    """Executed log entries for a lagging peer: their pre-prepares.

    One filler proves nothing; the lagger executes an entry once f+1
    distinct replicas have filled the same digest at its sequence number.
    """

    entries: tuple[PrePrepareMsg, ...]
    sender: str

    def wire_size(self) -> int:
        return 48 + sum(pp.wire_size() for pp in self.entries)


@message
@dataclass(frozen=True)
class CatchUpRequest(BftMessage):
    """Attempt ``attempt`` of a catch-up round (:mod:`repro.bft.catchup`):
    send me your stable checkpoint and whatever your layer keeps beside it."""

    attempt: int
    sender: str
    auth: dict[str, bytes] | bytes | None = field(default=None, compare=False)


@message
@dataclass(frozen=True)
class CatchUpResponse(BftMessage):
    """The responder's stable checkpoint at ``stable_seq`` and an opaque
    ``blob`` the layer above fills: empty for a plain replica and the Group
    Manager; a queue-mode ITDOS element's queue image, append chain and
    servant state (:meth:`repro.itdos.element.QueueElement.queue_image`)."""

    attempt: int
    stable_seq: int
    checkpoint: bytes
    blob: bytes
    sender: str
    auth: dict[str, bytes] | bytes | None = field(default=None, compare=False)
