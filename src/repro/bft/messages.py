"""PBFT protocol messages.

Every message is a frozen dataclass (registered with
:func:`repro.schema.message`, which reads its one field list) with:

* ``canonical_fields()`` — deterministic content for digests/signing,
* ``wire_size()`` — estimated encoded size, so the simulated network can
  model size-dependent delay and the benchmarks can count bytes,
* ``trace_label()`` — compact label for figure traces.

``auth`` carries authentication material (MAC vector or signature) and is
excluded from the canonical content, since the MAC covers the content.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.crypto.digests import digest
from repro.crypto.encoding import canonical_bytes
from repro.crypto.memo import MemoCache
from repro.schema import message, plan_of

_HEADER_OVERHEAD = 48  # nominal per-message framing cost in bytes

# Content-addressed caches shared by every message instance. Keys are the
# messages themselves: frozen dataclasses whose ``auth`` field is excluded
# from comparison and hashing, so a clean message and its stamped copy map
# to the same entry — the bytes computed when the sender stamps are the
# bytes every receiver verifies, hashed exactly once.
_ENCODING_CACHE = MemoCache(maxsize=8192)
_DIGEST_CACHE = MemoCache(maxsize=8192)


def marshal_cache_stats() -> dict[str, dict[str, float]]:
    """Observability hook: hit/miss/eviction counters for both caches."""
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
        LRU, which a stamped copy (equal under dataclass comparison — the
        ``auth`` field never compares) shares with the clean original.
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

    def trace_label(self) -> str:
        return type(self).__name__


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

    def trace_label(self) -> str:
        return f"Request(c={self.client_id},t={self.timestamp})"


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

    def trace_label(self) -> str:
        return f"Batch(k={len(self.requests)})"


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

    def trace_label(self) -> str:
        return f"PrePrepare(v={self.view},n={self.seq})"


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

    def trace_label(self) -> str:
        return f"Prepare(v={self.view},n={self.seq},i={self.sender})"


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

    def trace_label(self) -> str:
        return f"Commit(v={self.view},n={self.seq},i={self.sender})"


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

    def trace_label(self) -> str:
        return f"Reply(t={self.timestamp},i={self.sender})"


@message
@dataclass(frozen=True)
class CheckpointMsg(BftMessage):
    """<CHECKPOINT, n, d, i>: digest of the application state at seq n."""

    seq: int
    state_digest: bytes
    sender: str
    auth: dict[str, bytes] | bytes | None = field(default=None, compare=False)

    def trace_label(self) -> str:
        return f"Checkpoint(n={self.seq},i={self.sender})"


@message
@dataclass(frozen=True)
class PreparedCertificate(BftMessage):
    """Proof that a request prepared at (view, seq): pre-prepare + 2f prepares."""

    pre_prepare: PrePrepareMsg
    prepares: tuple[PrepareMsg, ...]


@message
@dataclass(frozen=True)
class ViewChangeMsg(BftMessage):
    """<VIEW-CHANGE, v+1, n, C, P, i>.

    ``stable_seq`` and ``checkpoint_proof`` establish the sender's stable
    checkpoint; ``prepared`` carries a certificate for every request the
    sender prepared above it.
    """

    new_view: int
    stable_seq: int
    checkpoint_proof: tuple[CheckpointMsg, ...]
    prepared: tuple[PreparedCertificate, ...]
    sender: str
    auth: dict[str, bytes] | bytes | None = field(default=None, compare=False)

    def trace_label(self) -> str:
        return f"ViewChange(v={self.new_view},i={self.sender})"


@message
@dataclass(frozen=True)
class NewViewMsg(BftMessage):
    """<NEW-VIEW, v+1, V, O>: view-change quorum + re-issued pre-prepares."""

    new_view: int
    view_changes: tuple[ViewChangeMsg, ...]
    pre_prepares: tuple[PrePrepareMsg, ...]
    sender: str
    auth: dict[str, bytes] | bytes | None = field(default=None, compare=False)

    def trace_label(self) -> str:
        return f"NewView(v={self.new_view})"


@message
@dataclass(frozen=True)
class StatusMsg(BftMessage):
    """Periodic liveness beacon: how far this replica has progressed.

    Peers that are ahead respond with a :class:`FillMsg` carrying the
    committed entries the sender is missing — the log-retransmission half
    of Castro–Liskov's status mechanism, which keeps lagging replicas
    inside the watermark window even before a checkpoint stabilises.
    """

    view: int
    last_executed: int
    stable_seq: int
    sender: str

    def trace_label(self) -> str:
        return f"Status(exec={self.last_executed},i={self.sender})"


@message
@dataclass(frozen=True)
class FillMsg(BftMessage):
    """Committed log entries for a lagging peer.

    Each entry is a pre-prepare plus a *commit certificate* (2f+1 commits
    from distinct replicas for the same digest) — sufficient proof that the
    request committed at that sequence number, independently of views.
    """

    entries: tuple[tuple[PrePrepareMsg, tuple[CommitMsg, ...]], ...]
    sender: str

    def wire_size(self) -> int:
        return 48 + sum(
            pp.wire_size() + sum(c.wire_size() for c in commits)
            for pp, commits in self.entries
        )

    def trace_label(self) -> str:
        seqs = [pp.seq for pp, _ in self.entries]
        return f"Fill(seqs={seqs})"


@message
@dataclass(frozen=True)
class StateRequestMsg(BftMessage):
    """Ask a peer for the application state at its stable checkpoint."""

    low_seq: int
    sender: str

    def trace_label(self) -> str:
        return f"StateRequest(from={self.low_seq})"


@message
@dataclass(frozen=True)
class StateResponseMsg(BftMessage):
    """State snapshot + proof it matches a stable checkpoint."""

    stable_seq: int
    state_digest: bytes
    snapshot: bytes
    checkpoint_proof: tuple[CheckpointMsg, ...]
    sender: str

    def trace_label(self) -> str:
        return f"StateResponse(n={self.stable_seq})"
