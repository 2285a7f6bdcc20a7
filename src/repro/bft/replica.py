"""The PBFT replica state machine.

One :class:`BftReplica` is one member of a replication group ordering client
requests. The normal-case flow:

1. the primary assigns a sequence number and multicasts PRE-PREPARE;
2. backups multicast PREPARE; a request is *prepared* at a replica once it
   holds the pre-prepare plus ``2f`` matching prepares;
3. prepared replicas multicast COMMIT; with ``2f+1`` matching commits the
   request is *committed-local* and executes in sequence order;
4. each replica sends its REPLY directly to the client.

Checkpoints every ``k`` executions garbage-collect the log; view changes
replace an unresponsive primary; one catch-up round (:mod:`repro.bft.catchup`)
fetches the state of a stable checkpoint a replica missed or disagrees
with. The application is a pluggable upcall — ITDOS installs its
message-queue state machine here (§3.1).

A checkpoint covers the whole replicated state: the application snapshot
and the client table. So ``execute_fn``'s results must be deterministic
across a group (ITDOS returns a static ack, the GM status strings); one that
is not splits the digest, and the ``checkpoint-divergence`` invariant fails.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import takewhile
from typing import Any, Callable

from repro.bft.auth import MessageAuth, NullAuth
from repro.bft.catchup import CatchUp
from repro.bft.config import BftConfig
from repro.bft.messages import (
    BatchMsg,
    BftReply,
    CatchUpRequest,
    CatchUpResponse,
    CheckpointMsg,
    ClientRequest,
    CommitMsg,
    FillMsg,
    NewViewMsg,
    PrepareMsg,
    PrePrepareMsg,
    StatusMsg,
    ViewChangeMsg,
)
from repro.crypto.digests import digest
from repro.crypto.encoding import canonical_bytes, parse_canonical
from repro.sim.process import Process, with_behaviour
from repro.sim.scheduler import TimerHandle

ExecuteFn = Callable[[bytes, int, str, int], bytes]
SnapshotFn = Callable[[], bytes]
RestoreFn = Callable[[bytes, int], None]


def _default_execute(payload: bytes, seq: int, client_id: str, timestamp: int) -> bytes:
    """Echo application used by tests when no app is installed."""
    return b"ok:" + payload


@dataclass
class _LogEntry:
    """Per-sequence-number protocol state."""

    pre_prepare: PrePrepareMsg | None = None
    prepares: dict[str, PrepareMsg] = field(default_factory=dict)
    commits: dict[str, CommitMsg] = field(default_factory=dict)
    prepared: bool = False
    committed: bool = False
    executed: bool = False
    commit_sent: bool = False
    # Our own contribution messages, kept so retransmission ticks and
    # duplicate pre-prepares re-send the identical (cache-hitting) form
    # instead of rebuilding and re-stamping it.
    own_prepare: PrepareMsg | None = None
    own_commit: CommitMsg | None = None
    # Phase entry times (telemetry only; 0.0 = phase not observed locally).
    t_pre_prepare: float = 0.0
    t_prepared: float = 0.0
    fills: dict[str, bytes] = field(default_factory=dict)

    def matching_prepares(self, view: int, request_digest: bytes) -> int:
        return sum(
            1
            for p in self.prepares.values()
            if p.view == view and p.request_digest == request_digest
        )

    def matching_commits(self, view: int, request_digest: bytes) -> int:
        return sum(
            1
            for c in self.commits.values()
            if c.view == view and c.request_digest == request_digest
        )


def vouched(claims: dict[str, Any], claim: Any, f: int) -> bool:
    """Did f+1 distinct senders (``claims`` holds one per direct sender)
    each tell us ``claim`` themselves? The certificate rule: a checkpoint, a
    committed entry or a prepared request is believed only on 2f+1 messages
    received from their senders, or when f+1 replicas vouch for it directly,
    so one of them is honest. Names listed inside a message never count."""
    return sum(1 for held in claims.values() if held == claim) > f


def select_new_view(
    view_changes: tuple[ViewChangeMsg, ...], new_view: int, config: BftConfig
) -> tuple[int, tuple[PrePrepareMsg, ...]] | None:
    """The NEW-VIEW a view-change set decides by Castro–Liskov's MAC-only
    rule: its last seq and pre-prepares, or None while it decides nothing.

    It starts at the highest seq s that 2f+1 messages have reached (stable
    seq <= s) and f+1 hold a checkpoint at, with one digest. Each seq n in
    (s, s + log_window], up to the last one reported prepared, re-issues the
    batch of (v, d) if 2f+1 messages below n report at n no prepare, one at
    a lower view or (v, d), and f+1 a pre-prepare of d at a view >= v; else
    an empty batch if 2f+1 report no prepare; else nothing is decided.
    """
    f, quorum = config.f, config.quorum
    held = Counter(c for vc in view_changes for c in set(vc.checkpoints))
    starts = [
        seq for (seq, _), holders in held.items()
        if holders > f and sum(vc.stable_seq <= seq for vc in view_changes) >= quorum
    ]
    if not starts:
        return None
    start = max(starts)
    reports = [(
        vc.stable_seq,
        {seq: (view, d) for seq, view, d in vc.prepared},
        {q.seq: q for q in vc.pre_prepared if q.request_digest == q.batch.content_digest()},
    ) for vc in view_changes]
    window = range(start + 1, start + config.log_window + 1)
    top = max((seq for _, p, _ in reports for seq in p if seq in window), default=start)
    pre_prepares = []
    for seq in range(start + 1, top + 1):
        below = [(p.get(seq), q.get(seq)) for stable, p, q in reports if stable < seq]
        candidates = {p for p, _ in below if p} | {(q.view, q.request_digest) for _, q in below if q}
        for view, d in sorted(candidates, reverse=True):
            agree = sum(p is None or p[0] < view or p == (view, d) for p, _ in below)
            carriers = [q for _, q in below if q and q.request_digest == d and q.view >= view]
            if agree >= quorum and len(carriers) > f:
                batch = carriers[0].batch
                break
        else:
            if sum(p is None for p, _ in below) < quorum:
                return None
            batch = BatchMsg(requests=())
        pre_prepares.append(PrePrepareMsg(
            view=new_view, seq=seq, request_digest=batch.content_digest(),
            batch=batch, sender=config.primary_of_view(new_view),
        ))
    return top, tuple(pre_prepares)


class BftReplica(Process):
    """One replica of a Castro–Liskov replication group."""

    def __init__(
        self,
        pid: str,
        config: BftConfig,
        execute_fn: ExecuteFn | None = None,
        snapshot_fn: SnapshotFn | None = None,
        restore_fn: RestoreFn | None = None,
        auth: MessageAuth | None = None,
        client_auth: MessageAuth | None = None,
    ) -> None:
        super().__init__(pid)
        if pid not in config.replica_ids:
            raise ValueError(f"{pid!r} is not in the replica set")
        self.config = config
        self.execute_fn = execute_fn or _default_execute
        self.snapshot_fn = snapshot_fn or (lambda: b"")
        self.restore_fn = restore_fn or (lambda snapshot, seq: None)
        # Replica-to-replica protocol authentication (MAC vectors or RSA),
        # and a separate policy for client requests — in PBFT clients sign
        # requests independently of the inter-replica authenticators.
        self.auth = auth or NullAuth()
        self.client_auth = client_auth or NullAuth()

        self.view = 0
        self.next_seq = 0  # last sequence number assigned (primary only)
        self.last_executed = 0
        self.stable_seq = 0
        self.log: dict[int, _LogEntry] = {}
        # Requests delivered but not orderable yet (view change in flight).
        self.pending_requests: list[ClientRequest] = []
        # Primary-side batch accumulator: requests waiting for the current
        # batch to fill, its delay timer to fire, or the pipeline window /
        # watermark window to free a sequence number.
        self._batch: list[ClientRequest] = []
        self._batch_digests: set[bytes] = set()
        self._batch_timer: TimerHandle | None = None
        # client_id -> (timestamp, result) of its last executed request.
        self.client_table: dict[str, tuple[int, bytes]] = {}
        # Checkpoint messages by seq then sender.
        self._checkpoints: dict[int, dict[str, CheckpointMsg]] = {}
        # Our own snapshots by seq, retained until superseded (genesis at 0).
        self._own_snapshots: dict[int, bytes] = {0: b""}
        # What a view change reports above the stable checkpoint, kept across
        # views: per seq, the last pre-prepare accepted and (view, digest)
        # prepared.
        self._pre_prepared: dict[int, PrePrepareMsg] = {}
        self._prepared: dict[int, tuple[int, bytes]] = {}
        # View change machinery.
        self.in_view_change = False
        self._view_changes: dict[int, dict[str, ViewChangeMsg]] = {}
        self._vc_timer: TimerHandle | None = None
        # Consecutive view changes without an intervening execution; the
        # view-change timeout doubles with it so a lossy period escalates
        # to long patience instead of thrashing through views.
        self._consecutive_view_changes = 0
        # Outstanding requests (Castro–Liskov): client_id -> the highest
        # timestamp we accepted from it, dropped once the client table
        # reaches it. The view-change timer runs while this is non-empty.
        self._awaiting: dict[str, int] = {}
        self._future: list[tuple[str, Any]] = []  # messages for future views
        self.catch_up = CatchUp(
            self, config.replica_ids, config.f, self._p2p,
            self._catch_up_rank, self._catch_up_adopt, self._catch_up_failed,
        )
        # Executed pre-prepares, kept one checkpoint interval below the stable
        # checkpoint, so f+1 peers can still fill a replica that lags it.
        self._executed: dict[int, PrePrepareMsg] = {}
        # Retransmission machinery (lossy links): periodically re-multicast
        # our protocol messages for unfinished work, as the Castro–Liskov
        # library's status/retransmission mechanism does.
        self._last_view_change: ViewChangeMsg | None = None
        self._last_new_view: NewViewMsg | None = None
        self._retransmit_timer: TimerHandle | None = None
        # Delivery dispatch table: built once here, not on every on_message.
        # A subclass extends it in place with the types it consumes itself.
        self._handlers: dict[type, Callable[[str, Any], None]] = {
            ClientRequest: self._on_client_request,
            PrePrepareMsg: self._on_pre_prepare,
            PrepareMsg: self._on_prepare,
            CommitMsg: self._on_commit,
            CheckpointMsg: self._on_checkpoint,
            ViewChangeMsg: self._on_view_change,
            NewViewMsg: self._on_new_view,
            CatchUpRequest: self._on_catch_up_request,
            CatchUpResponse: self.catch_up.handle_response,
            StatusMsg: self._on_status,
            FillMsg: self._on_fill,
        }
        # Observability.
        self.messages_sent: dict[str, int] = {}

    # ---------------------------------------------------------------- utils

    @property
    def primary(self) -> str:
        return self.config.primary_of_view(self.view)

    @property
    def is_primary(self) -> bool:
        return self.primary == self.pid

    @property
    def high_watermark(self) -> int:
        return self.stable_seq + self.config.log_window

    def _entry(self, seq: int) -> _LogEntry:
        if seq not in self.log:
            self.log[seq] = _LogEntry()
        return self.log[seq]

    def _count(self, label: str) -> None:
        self.messages_sent[label] = self.messages_sent.get(label, 0) + 1
        t = self.telemetry
        if t.enabled:
            t.registry.counter(
                "bft_messages_total",
                "Protocol messages sent, by group and message type",
                labels=("group", "type"),
            ).labels(group=self.config.address, type=label).inc()

    def _mcast(self, message: Any) -> None:
        stamped = self.auth.stamp(message, self.config.replica_ids)
        self._count(type(message).__name__)
        self.multicast(self.config.address, stamped)

    def _p2p(self, dst: str, message: Any) -> None:
        stamped = self.auth.stamp(message, (dst,))
        self._count(type(message).__name__)
        self.send(dst, stamped)

    # ------------------------------------------------------------- dispatch

    def on_message(self, src: str, payload: Any) -> None:
        if self._admit(src, payload):
            handler = self._handlers.get(type(payload))
            if handler is not None:
                handler(src, payload)

    def _admit(self, src: str, payload: Any) -> bool:
        """The gate in front of the dispatch table: arm the retransmission
        tick on the first delivery, then ask the authenticator."""
        if self._retransmit_timer is None:
            self._schedule_retransmit()
        checker = self.client_auth if isinstance(payload, ClientRequest) else self.auth
        if src == self.pid or checker.accept(src, payload):
            return True
        t = self.telemetry
        if t.enabled:
            # Soft evidence only: a bad MAC/signature is indistinguishable
            # from wire corruption of an honest sender's message.
            reason = getattr(checker, "last_reject_reason", "") or "rejected"
            t.evidence(
                "invalid-auth",
                accused=src,
                reporter=self.pid,
                detail=f"{type(payload).__name__}: {reason}",
            )
            t.detect.observe_auth_reject(src, reason)
        return False

    def on_restart(self) -> None:
        """Reboot bookkeeping: timer handles died with the restart, so drop
        them; the retransmission tick re-arms on the next delivery."""
        self._retransmit_timer = None
        self._vc_timer = None
        self._batch_timer = None
        self.catch_up.stop()

    # --------------------------------------------------- retransmission tick

    def _schedule_retransmit(self) -> None:
        self._retransmit_timer = self.set_timer(
            self.config.view_change_timeout, self._retransmit_tick
        )

    def _retransmit_tick(self) -> None:
        """Re-multicast our protocol messages for work that is stuck.

        Message loss can starve any quorum; periodic retransmission of
        *our own* last contribution per unfinished item restores liveness
        without changing safety (all messages are idempotent at receivers).
        """
        self._schedule_retransmit()
        if self.in_view_change and self._last_view_change is not None:
            self._mcast(self._last_view_change)
            return
        # A batch stranded by a restart or a re-gained window: force it out.
        if self._batch:
            self._maybe_flush(force=True)
        # Unexecuted log entries: re-send our contribution for the lowest
        # few, reusing the stored message objects so the auth layer's
        # stamped-form cache hits instead of re-MACing every tick.
        pending = sorted(
            seq for seq, entry in self.log.items()
            if entry.pre_prepare is not None and not entry.executed
        )[:4]
        for seq in pending:
            entry = self.log[seq]
            pre_prepare = entry.pre_prepare
            assert pre_prepare is not None
            if pre_prepare.view != self.view:
                continue
            if self.is_primary:
                self._mcast(pre_prepare)
            self._recontribute(entry)
        # Own checkpoints that have not stabilised yet.
        for seq in sorted(self._own_snapshots):
            if seq > self.stable_seq:
                self._send_checkpoint(seq)
        self._send_status()

    def _send_status(self) -> None:
        """Status beacon: lets peers that are ahead fill our log gaps."""
        self._mcast(
            StatusMsg(
                view=self.view,
                last_executed=self.last_executed,
                stable_seq=self.stable_seq,
                sender=self.pid,
            )
        )

    # ----------------------------------------------------- status / log fill

    def _on_status(self, src: str, msg: StatusMsg) -> None:
        if msg.sender == src and msg.stable_seq < self.stable_seq:
            self._send_checkpoint(self.stable_seq, src)  # it may have missed ours
        if msg.sender != src or msg.last_executed >= self.last_executed:
            return
        span = range(msg.last_executed + 1, min(self.last_executed, msg.last_executed + 8) + 1)
        entries = tuple(takewhile(bool, map(self._executed.get, span)))
        if entries:  # a peer behind the entries we keep catches up instead
            self._p2p(src, FillMsg(entries=entries, sender=self.pid))

    def _on_fill(self, src: str, msg: FillMsg) -> None:
        if msg.sender != src or src not in self.config.replica_ids:
            return
        for pre_prepare in msg.entries:
            seq, claim = pre_prepare.seq, pre_prepare.request_digest
            if not self.last_executed < seq <= self.high_watermark:
                # The log is a bounded buffer: a replica this far behind its
                # own stable checkpoint must catch up through checkpoint
                # stabilization or a catch-up round, not by growing the log
                # past the window.
                continue
            if claim != pre_prepare.batch.content_digest():
                return
            entry = self._entry(seq)
            first = not entry.fills
            entry.fills[src] = claim
            if vouched(entry.fills, claim, self.config.f):
                # f+1 fillers executed it, so one honest replica saw it commit.
                entry.pre_prepare = self._pre_prepared[seq] = pre_prepare
                entry.prepared = entry.committed = entry.commit_sent = True
            elif first and seq == self.last_executed + 1:
                # One filler is not enough: ask the others now, once per seq,
                # rather than at the next beacon.
                self._send_status()
        self._try_execute()

    # ------------------------------------------------------ client requests

    def _on_client_request(self, src: str, request: ClientRequest) -> None:
        last = self.client_table.get(request.client_id)
        if last is not None and request.timestamp <= last[0]:
            # Already executed: resend its result (at-most-once).
            if request.timestamp == last[0]:
                self._reply(request, last[1])
                # Let the application layer retransmit ITS reply too (ITDOS
                # replies travel separately from the BFT-level ack, §3.1).
                self.on_duplicate_request(request)
            return
        self._await(request)
        if self.in_view_change:
            self.pending_requests.append(request)
            return
        if self.is_primary:
            self._order(request)
        elif src == request.client_id:
            # Backup: relay to the primary so a client that only knows one
            # replica still makes progress; keep our own copy pending.
            self._p2p(self.primary, request)

    def _await(self, request: ClientRequest) -> None:
        """Count ``request`` as outstanding unless the client table has
        already reached its timestamp."""
        last = self.client_table.get(request.client_id)
        if last is not None and request.timestamp <= last[0]:
            return
        if request.timestamp > self._awaiting.get(request.client_id, 0):
            self._awaiting[request.client_id] = request.timestamp
            self._sync_vc_timer()

    def _order(self, request: ClientRequest) -> None:
        """Primary: queue the request for the next batch and maybe flush."""
        request_digest = request.content_digest()
        if request_digest in self._batch_digests:
            return  # already queued for an upcoming batch
        # Don't order the same request twice — but re-multicast the original
        # pre-prepare, which may have been lost at some backups.
        for entry in self.log.values():
            if (
                entry.pre_prepare is not None
                and not entry.executed
                and any(
                    r.content_digest() == request_digest
                    for r in entry.pre_prepare.batch.requests
                )
            ):
                if entry.pre_prepare.view == self.view:
                    self._mcast(entry.pre_prepare)
                return
        self._batch.append(request)
        self._batch_digests.add(request_digest)
        self._maybe_flush()

    def _can_assign(self) -> bool:
        """May the primary put another sequence number in flight?"""
        if self.next_seq + 1 > self.high_watermark:
            return False
        window = self.config.pipeline_window
        if window and self.next_seq - self.last_executed >= window:
            return False
        return True

    def _maybe_flush(self, force: bool = False) -> None:
        """Emit as many batches as the pipeline allows.

        An under-full batch waits for ``batch_delay`` (zero-delay timers
        still coalesce every same-tick arrival, thanks to the scheduler's
        FIFO tie-break) unless ``force`` is set. Requests that the
        watermark or pipeline window keeps out stay queued here and flush
        when :meth:`_try_execute` or :meth:`_stabilize` frees a slot.
        """
        if not self.is_primary or self.in_view_change:
            return
        while self._batch and self._can_assign():
            if len(self._batch) < self.config.batch_size and not force:
                self._arm_batch_timer()
                return
            count = min(len(self._batch), self.config.batch_size)
            chunk, self._batch = self._batch[:count], self._batch[count:]
            for request in chunk:
                self._batch_digests.discard(request.content_digest())
            self._emit_batch(tuple(chunk))
        if not self._batch and self._batch_timer is not None:
            self.cancel_timer(self._batch_timer)
            self._batch_timer = None

    def _arm_batch_timer(self) -> None:
        if self._batch_timer is None:
            self._batch_timer = self.set_timer(
                self.config.batch_delay, self._on_batch_timeout
            )

    def _on_batch_timeout(self) -> None:
        self._batch_timer = None
        self._maybe_flush(force=True)

    def _emit_batch(self, requests: tuple[ClientRequest, ...]) -> None:
        """Assign the next sequence number to one batch and pre-prepare."""
        batch = BatchMsg(requests=requests)
        self.next_seq += 1
        pre_prepare = PrePrepareMsg(
            view=self.view,
            seq=self.next_seq,
            request_digest=batch.content_digest(),
            batch=batch,
            sender=self.pid,
        )
        t = self.telemetry
        if t.enabled:
            for request in requests:
                ctx = t.lookup(request.content_digest())
                if ctx is not None:
                    t.point(
                        "bft.pre_prepare",
                        parent=ctx,
                        pid=self.pid,
                        seq=self.next_seq,
                        view=self.view,
                    )
            t.registry.histogram(
                "bft_batch_size",
                "Requests per ordered batch",
                labels=("group",),
            ).labels(group=self.config.address).observe(float(len(requests)))
            t.registry.histogram(
                "bft_pipeline_occupancy",
                "In-flight sequence numbers when a batch is emitted",
                labels=("group",),
            ).labels(group=self.config.address).observe(
                float(self.next_seq - self.last_executed)
            )
        self._mcast(pre_prepare)

    def on_duplicate_request(self, request: ClientRequest) -> None:
        """Hook: a fully executed request was retransmitted. Subclasses may
        resend application-level replies; the base replica does nothing."""

    def _drain_pending(self) -> None:
        pending, self.pending_requests = self.pending_requests, []
        for request in pending:
            self._on_client_request(self.pid, request)

    def _fold_batch_into_pending(self) -> None:
        """Return accumulated-but-unordered requests to the pending list."""
        if self._batch:
            self.pending_requests.extend(self._batch)
            self._batch = []
            self._batch_digests.clear()
        if self._batch_timer is not None:
            self.cancel_timer(self._batch_timer)
            self._batch_timer = None

    # ------------------------------------------------------ three-phase core

    def _on_pre_prepare(self, src: str, msg: PrePrepareMsg) -> None:
        if msg.view > self.view:
            self._future.append((src, msg))
            return
        if self.in_view_change or msg.view != self.view:
            return
        if src != self.config.primary_of_view(msg.view):
            return
        if not self.stable_seq < msg.seq <= self.high_watermark:
            return
        if msg.request_digest != msg.batch.content_digest():
            # The header digest disagrees with the batch it carries. Soft
            # evidence: with authenticated channels only the primary can
            # produce this, but we cannot rule out wire corruption here.
            t = self.telemetry
            if t.enabled:
                t.evidence(
                    "inconsistent-preprepare",
                    accused=src,
                    reporter=self.pid,
                    detail=f"view={msg.view} seq={msg.seq}",
                    evidence={"claimed_digest": msg.request_digest},
                )
            return
        entry = self._entry(msg.seq)
        if entry.executed:
            # Executed history is immutable: a different batch re-issued here
            # is ignored. The same batch re-issued in a later view we join,
            # without executing it again, so that peers which had not
            # executed it can commit it in this view.
            executed = entry.pre_prepare
            if executed.request_digest != msg.request_digest or executed.view >= msg.view:
                return
            entry = self.log[msg.seq] = _LogEntry(executed=True)
        if entry.pre_prepare is not None:
            if entry.pre_prepare.view >= msg.view:
                # Already accepted: a duplicate means the primary suspects
                # loss — re-contribute our prepare/commit for this entry.
                if (
                    entry.pre_prepare.view == msg.view
                    and entry.pre_prepare.request_digest == msg.request_digest
                ):
                    self._recontribute(entry)
                elif entry.pre_prepare.view == msg.view:
                    # Two internally-consistent pre-prepares for the same
                    # (view, seq) with different digests: hard evidence of an
                    # equivocating primary. Both messages passed the
                    # digest-vs-batch check, so no wire fault explains this —
                    # and both full encodings are retained so the conflict
                    # re-verifies offline.
                    t = self.telemetry
                    if t.enabled:
                        t.evidence(
                            "equivocation",
                            accused=src,
                            reporter=self.pid,
                            hard=True,
                            detail=f"view={msg.view} seq={msg.seq}",
                            evidence={
                                "accepted": entry.pre_prepare.canonical_encoding(),
                                "conflicting": msg.canonical_encoding(),
                                "accepted_digest": entry.pre_prepare.request_digest,
                                "conflicting_digest": msg.request_digest,
                            },
                        )
                return  # already accepted one for this (or a later) view
        entry.pre_prepare = self._pre_prepared[msg.seq] = msg
        entry.t_pre_prepare = self.now
        for request in msg.batch.requests:
            self._await(request)
        if not self.is_primary:
            prepare = PrepareMsg(
                view=msg.view,
                seq=msg.seq,
                request_digest=msg.request_digest,
                sender=self.pid,
            )
            entry.own_prepare = prepare
            self._mcast(prepare)
        self._check_prepared(msg.seq)
        self._check_committed(msg.seq)

    def _recontribute(self, entry: _LogEntry) -> None:
        """Re-send our prepare (a backup's) and commit for an accepted entry."""
        pre_prepare = entry.pre_prepare
        assert pre_prepare is not None
        fields = dict(
            view=pre_prepare.view,
            seq=pre_prepare.seq,
            request_digest=pre_prepare.request_digest,
            sender=self.pid,
        )
        if not self.is_primary:
            self._mcast(entry.own_prepare or PrepareMsg(**fields))
        if entry.commit_sent:
            self._mcast(entry.own_commit or CommitMsg(**fields))

    def _on_prepare(self, src: str, msg: PrepareMsg) -> None:
        if msg.view > self.view:
            self._future.append((src, msg))
            return
        if self.in_view_change or msg.view != self.view or msg.sender != src:
            return
        if not self.stable_seq < msg.seq <= self.high_watermark:
            return
        entry = self._entry(msg.seq)
        entry.prepares[src] = msg
        self._flag_digest_dissent(entry, src, msg, "conflicting-prepare")
        self._check_prepared(msg.seq)

    def _check_prepared(self, seq: int) -> None:
        entry = self.log.get(seq)
        if entry is None or entry.prepared or entry.pre_prepare is None:
            return
        pre_prepare = entry.pre_prepare
        # The primary's pre-prepare counts as its prepare; 2f more needed.
        count = entry.matching_prepares(pre_prepare.view, pre_prepare.request_digest)
        if count >= 2 * self.config.f:
            entry.prepared = True
            entry.t_prepared = self.now
            self._prepared[seq] = (pre_prepare.view, pre_prepare.request_digest)
            t = self.telemetry
            if t.enabled:
                t.detect.observe_phase(
                    self.pid, "prepare", self.now - (entry.t_pre_prepare or self.now)
                )
                for request in pre_prepare.batch.requests:
                    ctx = t.lookup(request.content_digest())
                    if ctx is not None:
                        t.record(
                            "bft.prepare",
                            entry.t_pre_prepare or self.now,
                            end=self.now,
                            parent=ctx,
                            pid=self.pid,
                            seq=seq,
                        )
            if not entry.commit_sent:
                entry.commit_sent = True
                commit = CommitMsg(
                    view=pre_prepare.view,
                    seq=seq,
                    request_digest=pre_prepare.request_digest,
                    sender=self.pid,
                )
                entry.own_commit = commit
                self._mcast(commit)
            self._check_committed(seq)

    def _on_commit(self, src: str, msg: CommitMsg) -> None:
        if msg.view > self.view:
            self._future.append((src, msg))
            return
        if self.in_view_change or msg.view != self.view or msg.sender != src:
            return
        if not self.stable_seq < msg.seq <= self.high_watermark:
            return
        entry = self._entry(msg.seq)
        entry.commits[src] = msg
        self._flag_digest_dissent(entry, src, msg, "conflicting-commit")
        self._check_committed(msg.seq)

    def _flag_digest_dissent(
        self, entry: _LogEntry, src: str, msg: Any, kind: str
    ) -> None:
        """A prepare/commit naming a different digest than the accepted
        pre-prepare for its slot. Soft evidence against the sender: it is
        equally consistent with an equivocating primary having fed *them*
        the other variant, so it never convicts on its own."""
        t = self.telemetry
        if not t.enabled:
            return
        pre_prepare = entry.pre_prepare
        if (
            pre_prepare is not None
            and pre_prepare.view == msg.view
            and pre_prepare.request_digest != msg.request_digest
        ):
            t.evidence(
                kind,
                accused=src,
                reporter=self.pid,
                detail=f"view={msg.view} seq={msg.seq}",
                evidence={
                    "accepted_digest": pre_prepare.request_digest,
                    "claimed_digest": msg.request_digest,
                },
            )

    def _check_committed(self, seq: int) -> None:
        entry = self.log.get(seq)
        if entry is None or entry.committed or not entry.prepared:
            return
        pre_prepare = entry.pre_prepare
        assert pre_prepare is not None
        if (
            entry.matching_commits(pre_prepare.view, pre_prepare.request_digest)
            >= self.config.quorum
        ):
            entry.committed = True
            t = self.telemetry
            if t.enabled:
                t.detect.observe_phase(
                    self.pid, "commit", self.now - (entry.t_prepared or self.now)
                )
                for request in pre_prepare.batch.requests:
                    ctx = t.lookup(request.content_digest())
                    if ctx is not None:
                        t.record(
                            "bft.commit",
                            entry.t_prepared or self.now,
                            end=self.now,
                            parent=ctx,
                            pid=self.pid,
                            seq=seq,
                        )
            self._try_execute()

    def _try_execute(self) -> None:
        while True:
            entry = self.log.get(self.last_executed + 1)
            if entry is None or not entry.committed or entry.executed:
                break
            assert entry.pre_prepare is not None
            self.last_executed += 1
            entry.executed = True
            self._executed[self.last_executed] = entry.pre_prepare
            # (seq, batch content digest) to the observer: the chaos checker
            # asserts every replica agrees on the digest at each sequence
            # number it executed — committed-sequence prefix agreement.
            observer = self.network.observer
            if observer is not None:
                observer.on_order(
                    self.pid, self.last_executed, entry.pre_prepare.request_digest
                )
            # Real progress: relax the escalated view-change patience.
            self._consecutive_view_changes = 0
            self._run(self.last_executed, entry.pre_prepare)
        self._sync_vc_timer()
        # Completed instances free pipeline-window slots for queued batches.
        self._maybe_flush()

    def _run(self, seq: int, pre_prepare: PrePrepareMsg) -> None:
        """Execute the batch ordered at ``seq``. Every replica unpacks it in
        its recorded order, so execution stays deterministic across the
        group; all requests of one batch share its sequence number."""
        self.last_executed = seq
        for request in pre_prepare.batch.requests:
            self._execute(request, seq)
        if seq % self.config.checkpoint_interval == 0:
            self._take_checkpoint(seq)

    def _execute(self, request: ClientRequest, seq: int) -> None:
        last = self.client_table.get(request.client_id)
        if last is not None and request.timestamp <= last[0]:
            return  # duplicate ordered twice across a view change
        t = self.telemetry
        ctx = t.lookup(request.content_digest()) if t.enabled else None
        if ctx is not None:
            span = t.begin("bft.execute", parent=ctx, pid=self.pid, seq=seq)
            # The application upcall runs under the execute span so spans it
            # emits (GM verdicts, servant dispatch) nest into this trace.
            with t.use(span.ctx if span is not None else ctx):
                result = self.execute_fn(
                    request.payload, seq, request.client_id, request.timestamp
                )
            t.end(span)
        else:
            result = self.execute_fn(
                request.payload, seq, request.client_id, request.timestamp
            )
        observer = self.network.observer
        if observer is not None:
            observer.on_execute(self.pid, seq, request.client_id, request.timestamp)
        self.client_table[request.client_id] = (request.timestamp, result)
        if self._awaiting.get(request.client_id, 0) <= request.timestamp:
            self._awaiting.pop(request.client_id, None)
        self._reply(request, result)

    def _reply(self, request: ClientRequest, result: bytes) -> None:
        reply = BftReply(
            view=self.view, timestamp=request.timestamp, client_id=request.client_id,
            sender=self.pid, result=result,
        )
        self._p2p(request.client_id, reply)

    # ------------------------------------------------------------ checkpoints

    def _take_checkpoint(self, seq: int) -> None:
        snapshot = canonical_bytes({"app": self.snapshot_fn(), "clients": self.client_table})
        self._own_snapshots[seq] = snapshot
        self._send_checkpoint(seq)

    def _send_checkpoint(self, seq: int, dst: str | None = None) -> None:
        state_digest = digest(self._own_snapshots[seq])
        message = CheckpointMsg(seq=seq, state_digest=state_digest, sender=self.pid)
        if dst is None:
            self._mcast(message)
        else:
            self._p2p(dst, message)

    def _on_checkpoint(self, src: str, msg: CheckpointMsg) -> None:
        if msg.sender != src or msg.seq <= self.stable_seq:
            return
        self._checkpoints.setdefault(msg.seq, {})[src] = msg
        held = Counter(m.state_digest for m in self._checkpoints[msg.seq].values())
        for state_digest, count in held.items():
            if count >= self.config.quorum:
                self._stabilize(msg.seq, state_digest)
                return

    def _stabilize(self, seq: int, state_digest: bytes) -> None:
        own = self._own_snapshots.get(seq)  # None while we have not executed seq
        if own is None or digest(own) != state_digest:
            self._disagree(seq, state_digest)  # we are behind, or wrong
            return
        self._install_checkpoint(seq, own)
        t = self.telemetry
        if t.enabled:
            t.health.record_checkpoint(self.pid, seq, self.last_executed - seq)
            t.registry.gauge(
                "bft_stable_seq", "Latest stable checkpoint, per replica",
                labels=("pid",),
            ).labels(pid=self.pid).set(seq)
        if self.is_primary:
            self._drain_pending()
            # The advanced watermark may admit batches the window held back.
            self._maybe_flush()

    def _install_checkpoint(self, seq: int, snapshot: bytes) -> None:
        """Make ``(seq, snapshot)`` the stable checkpoint and prune below it.

        The one place checkpoint bookkeeping moves, whether the certificate
        formed here (:meth:`_stabilize`) or was fetched (:meth:`_adopt`).
        The caller has brought the application to at least ``seq``.
        """
        self.stable_seq = seq
        self._own_snapshots[seq] = snapshot
        if self.last_executed < seq:
            self.last_executed = seq
        kept = seq - self.config.checkpoint_interval
        for table, low in ((self.log, seq), (self._checkpoints, seq), (self._pre_prepared, seq),
                           (self._prepared, seq), (self._executed, kept)):
            for old_seq in [s for s in table if s <= low]:
                del table[old_seq]
        for old_seq in [s for s in self._own_snapshots if s < seq]:
            del self._own_snapshots[old_seq]
        if self.is_primary:
            self.next_seq = max(self.next_seq, seq)

    # -------------------------------------------------------------- catch-up

    def stable_checkpoint(self) -> tuple[int, bytes]:
        """The latest stable checkpoint: ``(seq, snapshot)``."""
        return self.stable_seq, self._own_snapshots.get(self.stable_seq, b"")

    def _disagree(self, seq: int, state_digest: bytes) -> None:
        """Our group certified ``(seq, state_digest)`` to us and our state is
        not it: we have not executed seq, or we have and our digest differs.
        A certificate newer than the last one starts one catch-up round; one
        at or below it starts none, so a round that gave up is not retried
        on every tick."""
        last = self.catch_up.certificate
        if last is not None and seq <= last[0]:
            return
        self.catch_up.certificate = (seq, state_digest)
        self._start_catch_up()

    def _start_catch_up(self) -> None:
        if not self.catch_up.active:
            self.catch_up.start()

    def _catch_up_blob(self, src: str) -> bytes | None:
        """What we add beside our checkpoint for ``src``; None: ``src`` gets
        no answer from us. A plain replica answers its group, with nothing."""
        return b"" if src in self.config.replica_ids else None

    def _on_catch_up_request(self, src: str, msg: CatchUpRequest) -> None:
        blob = self._catch_up_blob(src) if msg.sender == src else None
        if blob is not None:
            stable_seq, snapshot = self.stable_checkpoint()
            self._p2p(src, CatchUpResponse(
                attempt=msg.attempt, stable_seq=stable_seq, checkpoint=snapshot,
                blob=blob, sender=self.pid,
            ))

    def _catch_up_rank(self, response: CatchUpResponse) -> int | None:
        """A checkpoint at or past the one we were certified is fresh enough."""
        target = self.catch_up.certificate
        seq = response.stable_seq
        if seq <= self.stable_seq or (target is not None and seq < target[0]):
            return None
        return seq

    def _catch_up_adopt(self, response: CatchUpResponse) -> bool:
        return self._adopt(response.stable_seq, response.checkpoint, restore=True)

    def _catch_up_failed(self) -> None:
        """Every attempt failed: we stay as we are until the next certificate
        we disagree with, and say so as soft evidence against ourselves."""
        t = self.telemetry
        if t.enabled:
            t.evidence(
                "catch-up-failed", accused=self.pid, reporter=self.pid,
                detail=f"{CatchUp.MAX_ATTEMPTS} attempts",
            )

    def adopt_stable_checkpoint(self, seq: int, snapshot: bytes) -> bool:
        """Adopt a peer's stable checkpoint without restoring the application.

        A queue-mode element's catch-up brought the application to (at
        least) ``seq`` and had f+1 peers vouch for ``(seq, snapshot)``. The
        client table merges forward, then stable seq and log pruning move.
        Returns False if it is not ahead, or not a checkpoint.
        """
        return seq > self.stable_seq and self._adopt(seq, snapshot, restore=False)

    def _adopt(self, seq: int, snapshot: bytes, restore: bool) -> bool:
        """The one way a peer's checkpoint enters; False, with nothing
        changed, for bytes that are not one. With ``restore`` the application
        and the client table become the checkpoint's and every entry we
        executed above ``seq`` runs again on top; without, the client table
        merges forward only (an entry never moves back in timestamp). Then
        it installs, and executes whatever the log already holds past it."""
        try:
            state = parse_canonical(snapshot)
            app, clients = state["app"], dict(state["clients"])
        except (KeyError, TypeError, ValueError):
            return False
        replay = []
        if restore:
            span = range(seq + 1, self.last_executed + 1)
            replay = list(takewhile(bool, map(self._executed.get, span)))
            self.restore_fn(app, seq)
            self.client_table, self.last_executed = {}, min(self.last_executed, seq)
        self._merge_clients(clients)
        self._install_checkpoint(seq, snapshot)
        for pre_prepare in replay:
            self._run(pre_prepare.seq, pre_prepare)
        self._awaiting.clear()
        self._try_execute()
        return True

    def _merge_clients(self, clients: dict[str, Any]) -> None:
        """Merge a peer's client table forward only (an entry never moves
        back in timestamp); a request it shows executed is not outstanding."""
        for client_id, (timestamp, result) in clients.items():
            if timestamp > self.client_table.get(client_id, (0, b""))[0]:
                self.client_table[client_id] = (timestamp, result)
                if self._awaiting.get(client_id, 0) <= timestamp:
                    self._awaiting.pop(client_id, None)
        self._sync_vc_timer()

    # ------------------------------------------------------------ view change

    @property
    def _vc_timeout(self) -> float:
        return self.config.view_change_timeout * (
            2 ** min(self._consecutive_view_changes, 8)
        )

    def _sync_vc_timer(self, fresh: bool = False) -> None:
        """The only place the view-change timer is armed or cancelled.

        It runs while a view change is in flight (to escalate a failed one)
        or a request we accepted is outstanding, and nowhere else: an idle
        group never suspects its primary. ``fresh`` restarts it at the
        current back-off.
        """
        running = self.in_view_change or bool(self._awaiting)
        if self._vc_timer is not None and (fresh or not running):
            self.cancel_timer(self._vc_timer)
            self._vc_timer = None
        if running and self._vc_timer is None:
            self._vc_timer = self.set_timer(self._vc_timeout, self._on_vc_timeout)

    @property
    def _view_change_target(self) -> int:
        """The view we are currently trying to move to."""
        if self.in_view_change and self._last_view_change is not None:
            return self._last_view_change.new_view
        return self.view

    def _on_vc_timeout(self) -> None:
        self._vc_timer = None
        if self.catch_up.active and not self.in_view_change:
            # We are fetching state: our requests wait on our own lag, not
            # on the primary, so we suspect nobody until the round ends.
            self._sync_vc_timer()
            return
        # Escalate past the view we were TRYING to reach, not the view we
        # are in — otherwise a crashed would-be primary of view v+1 leaves
        # the group re-proposing v+1 forever.
        self._start_view_change(self._view_change_target + 1)

    def _start_view_change(self, new_view: int) -> None:
        if new_view <= self.view:
            return
        self.in_view_change = True
        self._consecutive_view_changes += 1
        # Unflushed batched requests go back to pending: the new primary
        # re-orders them (ours never reached a pre-prepare, so nothing is
        # lost by the log wipe below).
        self._fold_batch_into_pending()
        t = self.telemetry
        if t.enabled:
            t.health.record_view_change(self.pid, new_view, time=self.now)
            t.registry.counter(
                "bft_view_changes_total",
                "View changes started, by group",
                labels=("group",),
            ).labels(group=self.config.address).inc()
        message = ViewChangeMsg(
            new_view=new_view,
            stable_seq=self.stable_seq,
            checkpoints=tuple(
                (seq, digest(snapshot))
                for seq, snapshot in sorted(self._own_snapshots.items())
                if seq >= self.stable_seq
            ),
            pre_prepared=tuple(self._pre_prepared[seq] for seq in sorted(self._pre_prepared)),
            prepared=tuple((seq, *self._prepared[seq]) for seq in sorted(self._prepared)),
            sender=self.pid,
        )
        self._last_view_change = message
        self._mcast(message)
        # A failed view change escalates to the next view.
        self._sync_vc_timer(fresh=True)
        # Adopt the target view optimistically only in our VC bookkeeping;
        # self.view advances when the NEW-VIEW arrives (or when we are the
        # new primary and assemble it).

    def _on_view_change(self, src: str, msg: ViewChangeMsg) -> None:
        if msg.sender != src:
            return
        if msg.new_view <= self.view:
            # A straggler still asking for a view we already entered: if we
            # assembled that view's NEW-VIEW, re-send it (it may have been
            # lost on the way to the straggler).
            if (
                self._last_new_view is not None
                and self._last_new_view.new_view == msg.new_view == self.view
            ):
                self._p2p(src, self._last_new_view)
            return
        self._view_changes.setdefault(msg.new_view, {})[src] = msg
        # Liveness (the PBFT join rule): if f+1 distinct replicas have sent
        # view-changes for views greater than ours — for *any* such views —
        # adopt the smallest of them, even if our own timer has not fired
        # and even if we had targeted a different (higher) view. Without
        # cross-view counting, partitioned stragglers escalate to disjoint
        # view numbers and never re-align.
        senders = {
            sender
            for view, votes in self._view_changes.items()
            if view > self.view
            for sender in votes
        }
        if len(senders) >= self.config.f + 1:
            # Convergence is strictly upward: adopt the smallest proposed
            # view beyond our current target (stale lower proposals are
            # ignored, so groups cannot ping-pong between view numbers).
            candidates = [
                view for view in self._view_changes if view > self._view_change_target
            ]
            if candidates:
                self._start_view_change(min(candidates))
        self._maybe_assemble_new_view(msg.new_view)

    def _maybe_assemble_new_view(self, new_view: int) -> None:
        if self.config.primary_of_view(new_view) != self.pid:
            return
        if new_view <= self.view and not (new_view == self.view and self.in_view_change):
            return
        votes = self._view_changes.get(new_view, {})
        if len(votes) < self.config.quorum:
            return
        view_changes = tuple(votes[s] for s in sorted(votes))
        decision = select_new_view(view_changes, new_view, self.config)
        if decision is None:
            return  # the set decides nothing yet: wait for more view changes
        next_seq, pre_prepares = decision
        new_view_msg = NewViewMsg(
            new_view=new_view,
            view_changes=view_changes,
            pre_prepares=pre_prepares,
            sender=self.pid,
        )
        self._last_new_view = new_view_msg
        self._enter_view(new_view)
        self.next_seq = next_seq
        self._mcast(new_view_msg)
        for pre_prepare in pre_prepares:
            # Process our own pre-prepares immediately (loopback also
            # delivers them to the other replicas).
            self._on_pre_prepare(self.pid, pre_prepare)
        self._drain_pending()

    def _on_new_view(self, src: str, msg: NewViewMsg) -> None:
        if msg.sender != src or msg.new_view < self.view:
            return
        if self.config.primary_of_view(msg.new_view) != src:
            return
        if msg.new_view == self.view and not self.in_view_change:
            return
        if src == self.pid:
            return  # we assembled it ourselves
        members = {vc.sender for vc in msg.view_changes} & set(self.config.replica_ids)
        if len(members) < max(self.config.quorum, len(msg.view_changes)) or not all(
            vc.new_view == msg.new_view and (vc.sender == self.pid or self.auth.accept(vc.sender, vc))
            for vc in msg.view_changes
        ):
            return
        # A NEW-VIEW its own view-change set does not decide is a faulty
        # primary's: the view-change timer moves past it.
        decision = select_new_view(msg.view_changes, msg.new_view, self.config)
        if decision is None or decision[1] != msg.pre_prepares:
            return
        self._enter_view(msg.new_view)
        for pre_prepare in msg.pre_prepares:
            self._on_pre_prepare(src, pre_prepare)
        self._drain_pending()

    def _enter_view(self, new_view: int) -> None:
        self.view = new_view
        self.in_view_change = False
        self._sync_vc_timer(fresh=True)
        # A primary demoted without having started the view change itself
        # may still hold an accumulating batch; requeue it for reordering.
        self._fold_batch_into_pending()
        # Entries from the old view that never prepared are superseded; the
        # new primary's re-issued pre-prepares will replace them.
        for seq, entry in list(self.log.items()):
            if entry.pre_prepare is not None and entry.pre_prepare.view < new_view:
                if not entry.executed:
                    self.log[seq] = _LogEntry()
        for view in [v for v in self._view_changes if v <= new_view]:
            del self._view_changes[view]
        # Pending requests drain once the NEW-VIEW's pre-prepares are in the
        # log (the callers'), so none takes a seq the NEW-VIEW re-issues.
        future, self._future = self._future, []
        for src, message in future:
            self.on_message(src, message)


def build_group(
    network: Any,
    config: BftConfig,
    auth_factory: Callable[[str], MessageAuth] | None = None,
    byzantine: dict[str, type] | None = None,
) -> list[BftReplica]:
    """Wire a full replication group onto a network.

    Creates the multicast group, instantiates one replica per configured id
    (``byzantine`` puts a behaviour in front of the ids it names), and joins
    them all.
    """
    byzantine = byzantine or {}
    unknown = set(byzantine) - set(config.replica_ids)
    if unknown:
        raise ValueError(f"no such replicas: {sorted(unknown)}")
    group = network.create_group(config.address)
    replicas = []
    for pid in config.replica_ids:
        cls = with_behaviour(BftReplica, byzantine.get(pid))
        replica = cls(pid, config, auth=auth_factory(pid) if auth_factory else None)
        network.add_process(replica)
        group.join(pid)
        replicas.append(replica)
    return replicas
