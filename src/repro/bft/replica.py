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
replace an unresponsive primary; state transfer catches up replicas that
missed a stable checkpoint. The application is a pluggable upcall — ITDOS
installs its message-queue state machine here (§3.1).

A checkpoint covers the whole replicated state: the application snapshot
and the client table. So ``execute_fn``'s results must be deterministic
across a group (ITDOS returns a static ack, the GM status strings); one that
is not splits the digest, and the ``checkpoint-divergence`` invariant fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.bft.auth import MessageAuth, NullAuth
from repro.bft.config import BftConfig
from repro.bft.messages import (
    BatchMsg,
    BftReply,
    CheckpointMsg,
    ClientRequest,
    CommitMsg,
    FillMsg,
    NewViewMsg,
    PreparedCertificate,
    PrepareMsg,
    PrePrepareMsg,
    StateRequestMsg,
    StateResponseMsg,
    StatusMsg,
    ViewChangeMsg,
)
from repro.crypto.digests import digest
from repro.crypto.encoding import canonical_bytes, parse_canonical
from repro.sim.process import Process
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
        # Our own snapshots by seq, retained until superseded.
        self._own_snapshots: dict[int, bytes] = {}
        self._stable_proof: tuple[CheckpointMsg, ...] = ()
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
        self._state_transfer_pending = False
        self._state_transfer_started = 0.0
        self._state_transfer_proof: tuple[CheckpointMsg, ...] = ()
        self._state_transfer_attempt = 0
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
            StateRequestMsg: self._on_state_request,
            StateResponseMsg: self._on_state_response,
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
        self._state_transfer_pending = False

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
        # A stalled state transfer: retry with the next candidate.
        if self._state_transfer_pending and (
            self.now - self._state_transfer_started
            > 2 * self.config.view_change_timeout
        ):
            self._state_transfer_pending = False
            self._request_state_transfer(self._state_transfer_proof)
        # Status beacon: lets peers that are ahead fill our log gaps.
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
        if msg.sender != src or msg.last_executed >= self.last_executed:
            return
        if msg.last_executed < self.stable_seq:
            # The peer is behind our stable checkpoint: entries below it are
            # garbage-collected here, so it needs the full state snapshot
            # (entries above the checkpoint can still be filled afterwards).
            self._on_state_request(
                src, StateRequestMsg(low_seq=self.stable_seq, sender=src)
            )
        entries = []
        low = max(msg.last_executed, self.stable_seq)
        for seq in range(low + 1, min(self.last_executed, low + 8) + 1):
            entry = self.log.get(seq)
            if entry is None or not entry.executed or entry.pre_prepare is None:
                break
            matching = tuple(
                c
                for c in entry.commits.values()
                if c.request_digest == entry.pre_prepare.request_digest
            )
            if len(matching) < self.config.quorum:
                break
            entries.append((entry.pre_prepare, matching[: self.config.quorum]))
        if entries:
            self._p2p(src, FillMsg(entries=tuple(entries), sender=self.pid))

    def _on_fill(self, src: str, msg: FillMsg) -> None:
        if msg.sender != src:
            return
        for pre_prepare, commits in msg.entries:
            seq = pre_prepare.seq
            if seq <= self.last_executed:
                continue
            if seq > self.high_watermark:
                # The log is a bounded buffer: a replica this far behind its
                # own stable checkpoint must catch up through checkpoint
                # stabilization or state transfer, not by growing the log
                # past the window.
                continue
            # Validate the commit certificate: 2f+1 distinct replicas over
            # the pre-prepare's digest, each individually authentic.
            if pre_prepare.request_digest != pre_prepare.batch.content_digest():
                return
            senders = set()
            for commit in commits:
                if commit.request_digest != pre_prepare.request_digest:
                    return
                if commit.sender not in self.config.replica_ids:
                    return
                if commit.sender != self.pid and not self.auth.accept(
                    commit.sender, commit
                ):
                    return
                senders.add(commit.sender)
            if len(senders) < self.config.quorum:
                return
            entry = self._entry(seq)
            entry.pre_prepare = pre_prepare
            entry.prepared = True
            entry.committed = True
            entry.commit_sent = True
            for commit in commits:
                entry.commits[commit.sender] = commit
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
            # Executed history is immutable. A new-view primary that lost the
            # prepared certificate for this sequence (restarted peers, n-f
            # amnesia) may re-issue a *different* pre-prepare for it at a
            # higher view; accepting it would rewrite the stored
            # pre-prepare/commit certificate — the very thing the status/fill
            # protocol serves to lagging replicas — while our execution (and
            # journal) keeps the original batch. Ignore it: lagging peers
            # catch up from the retained certificate via FillMsg instead.
            return
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
        entry.pre_prepare = msg
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
            # Every replica unpacks the batch in its recorded order, so
            # execution stays deterministic across the group; all requests
            # of one batch share its sequence number.
            for request in entry.pre_prepare.batch.requests:
                self._execute(request, self.last_executed)
            if self.last_executed % self.config.checkpoint_interval == 0:
                self._take_checkpoint(self.last_executed)
        self._sync_vc_timer()
        # Completed instances free pipeline-window slots for queued batches.
        self._maybe_flush()

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

    def _send_checkpoint(self, seq: int) -> None:
        state_digest = digest(self._own_snapshots[seq])
        self._mcast(CheckpointMsg(seq=seq, state_digest=state_digest, sender=self.pid))

    def _on_checkpoint(self, src: str, msg: CheckpointMsg) -> None:
        if msg.sender != src or msg.seq <= self.stable_seq:
            return
        self._checkpoints.setdefault(msg.seq, {})[src] = msg
        by_digest: dict[bytes, list[CheckpointMsg]] = {}
        for message in self._checkpoints[msg.seq].values():
            by_digest.setdefault(message.state_digest, []).append(message)
        for state_digest, messages in by_digest.items():
            if len(messages) >= self.config.quorum:
                self._stabilize(msg.seq, state_digest, tuple(messages))
                return

    def _stabilize(
        self, seq: int, state_digest: bytes, proof: tuple[CheckpointMsg, ...]
    ) -> None:
        own = self._own_snapshots.get(seq)  # None while we have not executed seq
        if own is None or digest(own) != state_digest:
            # We are behind the group, or our state diverged from the
            # quorum: remember the proof and fetch state from a peer.
            self._request_state_transfer(proof)
            return
        self._install_checkpoint(seq, own, proof)
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

    def _install_checkpoint(
        self, seq: int, snapshot: bytes, proof: tuple[CheckpointMsg, ...]
    ) -> None:
        """Make ``(seq, snapshot)`` the stable checkpoint and prune below it.

        The one place checkpoint bookkeeping moves, whether the certificate
        formed here (:meth:`_stabilize`) or came from a peer (:meth:`_adopt`).
        The caller has validated ``proof`` and brought the application to at
        least ``seq``.
        """
        self.stable_seq = seq
        self._stable_proof = proof
        self._own_snapshots[seq] = snapshot
        if self.last_executed < seq:
            self.last_executed = seq
        for old_seq in [s for s in self.log if s <= seq]:
            del self.log[old_seq]
        for old_seq in [s for s in self._checkpoints if s <= seq]:
            del self._checkpoints[old_seq]
        for old_seq in [s for s in self._own_snapshots if s < seq]:
            del self._own_snapshots[old_seq]
        if self.is_primary:
            self.next_seq = max(self.next_seq, seq)

    # ---------------------------------------------- checkpoint fetch (recovery)

    def stable_checkpoint(self) -> tuple[int, bytes, tuple[CheckpointMsg, ...]]:
        """The latest stable checkpoint: ``(seq, snapshot, 2f+1 proof)``.

        Public accessor for the recovery subsystem: a rejoining element
        fetches peers' stable checkpoints out of band and validates them
        with :meth:`verify_checkpoint_proof`.
        """
        snapshot = self._own_snapshots.get(self.stable_seq, b"")
        return self.stable_seq, snapshot, self._stable_proof

    def verify_checkpoint_proof(
        self, seq: int, state_digest: bytes, proof: tuple[CheckpointMsg, ...]
    ) -> bool:
        """Is ``proof`` a valid 2f+1 certificate for ``(seq, digest)``?"""
        senders = {c.sender for c in proof}
        digests = {c.state_digest for c in proof}
        seqs = {c.seq for c in proof}
        return (
            len(senders) >= self.config.quorum
            and digests == {state_digest}
            and seqs == {seq}
            and senders.issubset(set(self.config.replica_ids))
        )

    def adopt_stable_checkpoint(
        self, seq: int, snapshot: bytes, proof: tuple[CheckpointMsg, ...]
    ) -> bool:
        """Adopt a peer's stable checkpoint without restoring the application.

        Used by recovery-level state transfer: the caller brought the
        application to (at least) ``seq`` by other means. A checkpoint
        covers it and the client table (deterministic results only), so the
        table merges forward here, then stable seq, proof and log pruning
        move. Returns False if the proof fails or is not ahead.
        """
        if seq <= self.stable_seq:
            return False
        if not self.verify_checkpoint_proof(seq, digest(snapshot), proof):
            return False
        self._adopt(seq, snapshot, proof, restore=False)
        return True

    def _adopt(
        self, seq: int, snapshot: bytes, proof: tuple[CheckpointMsg, ...], restore: bool
    ) -> None:
        """The one way a peer's certified checkpoint enters: restore the
        application part if ``restore``, merge the client table forward
        only (an entry never moves back in timestamp), install, and execute
        whatever the log already holds past ``seq``."""
        state = parse_canonical(snapshot)
        if restore:
            self.restore_fn(state["app"], seq)
        for client_id, (timestamp, result) in state["clients"].items():
            if timestamp > self.client_table.get(client_id, (0, b""))[0]:
                self.client_table[client_id] = (timestamp, result)
        self._install_checkpoint(seq, snapshot, proof)
        self._awaiting.clear()
        self._try_execute()

    # --------------------------------------------------------- state transfer

    def _request_state_transfer(self, proof: tuple[CheckpointMsg, ...]) -> None:
        """Fetch the stable checkpoint ``proof`` (2f+1 messages at one seq)
        certifies."""
        if self._state_transfer_pending:
            return
        self._state_transfer_pending = True
        self._state_transfer_started = self.now
        self._state_transfer_proof = proof
        # Ask a replica that vouched for the checkpoint (not ourselves);
        # rotate through candidates across retry attempts.
        candidates = sorted(m.sender for m in proof if m.sender != self.pid)
        if not candidates:
            self._state_transfer_pending = False
            return
        target = candidates[self._state_transfer_attempt % len(candidates)]
        self._state_transfer_attempt += 1
        self._p2p(target, StateRequestMsg(low_seq=proof[0].seq, sender=self.pid))

    def _on_state_request(self, src: str, msg: StateRequestMsg) -> None:
        if msg.sender != src:
            return
        if self.stable_seq == 0 or not self._stable_proof:
            return
        response = StateResponseMsg(
            stable_seq=self.stable_seq,
            snapshot=self._own_snapshots[self.stable_seq],
            checkpoint_proof=self._stable_proof,
            sender=self.pid,
        )
        self._p2p(src, response)

    def _on_state_response(self, src: str, msg: StateResponseMsg) -> None:
        # Proof: 2f+1 checkpoint messages from distinct replicas, same digest.
        if not self.verify_checkpoint_proof(
            msg.stable_seq, digest(msg.snapshot), msg.checkpoint_proof
        ):
            return
        # Only a certified answer ends the transfer; junk above left it
        # pending, so _retransmit_tick still rotates to the next candidate.
        self._state_transfer_pending = False
        if msg.stable_seq > self.last_executed:
            self._adopt(msg.stable_seq, msg.snapshot, msg.checkpoint_proof, restore=True)

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
        prepared_certs = []
        for seq in sorted(self.log):
            entry = self.log[seq]
            if entry.prepared and entry.pre_prepare is not None and not entry.executed:
                matching = tuple(
                    p
                    for p in entry.prepares.values()
                    if p.view == entry.pre_prepare.view
                    and p.request_digest == entry.pre_prepare.request_digest
                )
                prepared_certs.append(
                    PreparedCertificate(
                        pre_prepare=entry.pre_prepare, prepares=matching
                    )
                )
        message = ViewChangeMsg(
            new_view=new_view,
            stable_seq=self.stable_seq,
            checkpoint_proof=self._stable_proof,
            prepared=tuple(prepared_certs),
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
        min_s = max(vc.stable_seq for vc in view_changes)
        # Re-issue pre-prepares for every prepared request above min_s,
        # choosing the certificate from the highest view per sequence.
        best: dict[int, PreparedCertificate] = {}
        for vc in view_changes:
            for cert in vc.prepared:
                seq = cert.pre_prepare.seq
                if seq <= min_s:
                    continue
                current = best.get(seq)
                if current is None or cert.pre_prepare.view > current.pre_prepare.view:
                    best[seq] = cert
        max_s = max(best) if best else min_s
        pre_prepares = []
        empty_batch = BatchMsg(requests=())
        for seq in range(min_s + 1, max_s + 1):
            # Sequence gaps are filled with an empty batch — a no-op that
            # keeps execution contiguous without inventing null requests.
            batch = best[seq].pre_prepare.batch if seq in best else empty_batch
            pre_prepares.append(
                PrePrepareMsg(
                    view=new_view,
                    seq=seq,
                    request_digest=batch.content_digest(),
                    batch=batch,
                    sender=self.pid,
                )
            )
        new_view_msg = NewViewMsg(
            new_view=new_view,
            view_changes=view_changes,
            pre_prepares=tuple(pre_prepares),
            sender=self.pid,
        )
        self._last_new_view = new_view_msg
        self._enter_view(new_view)
        self.next_seq = max_s
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
        if len({vc.sender for vc in msg.view_changes}) < self.config.quorum:
            return
        if msg.new_view == self.view and not self.in_view_change:
            return
        if src == self.pid:
            return  # we assembled it ourselves
        self._enter_view(msg.new_view)
        for pre_prepare in msg.pre_prepares:
            self._on_pre_prepare(src, pre_prepare)

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
        future, self._future = self._future, []
        for src, message in future:
            self.on_message(src, message)
        self._drain_pending()


def build_group(
    network: Any,
    config: BftConfig,
    auth_factory: Callable[[str], MessageAuth] | None = None,
    byzantine: dict[str, type[BftReplica]] | None = None,
) -> list[BftReplica]:
    """Wire a full replication group onto a network.

    Creates the multicast group, instantiates one replica per configured id
    (optionally substituting Byzantine classes per id), and joins them all.
    """
    group = network.create_group(config.address)
    replicas = []
    byzantine = byzantine or {}
    for pid in config.replica_ids:
        cls = byzantine.get(pid, BftReplica)
        replica = cls(pid, config, auth=auth_factory(pid) if auth_factory else None)
        network.add_process(replica)
        group.join(pid)
        replicas.append(replica)
    return replicas
