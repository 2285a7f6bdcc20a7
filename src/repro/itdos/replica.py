"""The ITDOS replication domain element.

One :class:`ItdosServerElement` is one deterministic state machine of a
replicated server (§2): the *voting* shell over
:class:`~repro.itdos.element.QueueElement` — the message queue that *is*
the replicated state and the ORB loop draining it (§3.1). It adds what
makes the element a member of the 3f+1 group:

* a **PBFT replica** (its other base class) ordering the domain's traffic —
  the Secure Reliable Multicast of Figure 2: the BFT execute upcall appends
  the ordered payload and returns the static CL-level acknowledgement;
* the **reply path**: encrypted, signed replies (through the client's own
  ordering when it is a domain), the large-object digest/body exchange;
* an embedded **SMIOP endpoint** for the element's *client* role: nested
  invocations (§3.1's two-thread technique: when a servant generator parks
  awaiting a nested reply, ordered delivery continues into the queue, and
  only the awaited reply copies may jump the queue) and accusations (§3.6);
* **recovery**: the tail buffer kept while diverged, the rejoin petition,
  and what its catch-up round (:mod:`repro.bft.catchup`) fetches and serves.

State modes (experiment E4):

* ``queue`` — the paper's design: checkpoints cover the bounded queue
  digest, which no checkpoint can rebuild a queue from. An element that
  loses sync catches up or is expelled (virtual synchrony, §3.1): it goes
  diverged and fetches peers' queue images in one catch-up round.
* ``object`` — the Castro–Liskov baseline: checkpoints carry the full
  application state; catch-up restores one, at a cost in bytes
  proportional to object size.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.bft.messages import BftReply, CatchUpRequest
from repro.bft.replica import BftReplica
from repro.crypto.digests import digest
from repro.crypto.encoding import canonical_bytes, parse_canonical
from repro.crypto.signing import RsaSigner
from repro.crypto.symmetric import encrypt
from repro.giop.messages import ReplyMessage, decode_message
from repro.itdos.domain import SystemDirectory
from repro.itdos.element import IncomingConnection, QueueElement, _Parked
from repro.itdos.messages import (
    BodyReply,
    BodyRequest,
    ChangeRequest,
    CommitFeed,
    GmShareEnvelope,
    PayloadError,
    ReadReply,
    ReadRequest,
    SmiopReply,
    SmiopRequest,
    parse_payload,
)
from repro.itdos.sockets import SmiopEndpoint, traffic_nonce
from repro.itdos.voter import VoteOutcome
from repro.orb.core import Orb
from repro.orb.servant import PendingCall
from repro.recovery.coordinator import RecoveryCoordinator

STATIC_ACK = b"ACK"  # the CL-level reply is a static acknowledgement (§3.1)


class ItdosServerElement(QueueElement, BftReplica):
    """One replication domain element: BFT replica + queue + ORB."""

    def __init__(
        self,
        pid: str,
        directory: SystemDirectory,
        domain_id: str,
        orb: Orb,
        signer: RsaSigner,
        state_mode: str = "queue",
        queue_max_bytes: int = 1 << 22,
        auth: Any = None,
    ) -> None:
        BftReplica.__init__(
            self,
            pid,
            directory.bft_config_for(domain_id),
            execute_fn=self._bft_execute,
            snapshot_fn=self._snapshot,
            restore_fn=self._restore,
            auth=auth,
        )
        self._init_element(
            directory, domain_id, orb, signer, state_mode, queue_max_bytes
        )
        self.endpoint = SmiopEndpoint(
            self, directory, self.key_store, kind="domain", own_domain=domain_id
        )
        # Recovery (repro.recovery): while diverged, every payload our own
        # ordering executes is buffered so a catch-up can replay the tail
        # past whatever image it adopts. The anchor is the execution
        # position buffering started at — the buffer covers (anchor, now].
        self.recovery = RecoveryCoordinator(self)
        self._recovery_buffer: list[tuple[int, bytes]] = []
        self._recovery_buffer_bytes = 0
        self._recovery_anchor: int | None = None
        # Large-object digest path: last full-body reply per connection,
        # retained for exactly one fetch window (one outstanding request).
        self._body_cache: dict[int, tuple[int, bytes]] = {}
        # Last SmiopReply sent to each singleton client's connection, for
        # retransmission when the (point-to-point) reply is lost.
        self._reply_cache: dict[int, SmiopReply] = {}
        # The rows this shell adds to the replica's dispatch table: handled
        # here, ahead of the replica-to-replica authenticator.
        rows: dict[type, Callable[[str, Any], None]] = {
            GmShareEnvelope: self._on_gm_share,
            BodyRequest: self._handle_body_request,
            ReadRequest: self._serve_read,
            **dict.fromkeys(
                (SmiopReply, ReadReply, BodyReply, BftReply), self._on_endpoint_message
            ),
        }
        self._handlers.update(rows)
        self._shell_rows = frozenset(rows)

    # -- message routing -----------------------------------------------------------

    def on_message(self, src: str, payload: Any) -> None:
        kind = type(payload)
        # A reader's catch-up request carries no replica authenticator.
        if kind in self._shell_rows or (
            kind is CatchUpRequest and src in self.domain_info.read_only_ids
        ):
            self._handlers[kind](src, payload)
        else:  # PBFT's own rows, behind the replica's authenticator
            super().on_message(src, payload)

    def _on_gm_share(self, src: str, envelope: GmShareEnvelope) -> None:
        if not self._handle_server_share(src, envelope):
            self.endpoint.handle_gm_share(src, envelope)  # our client role

    def _on_endpoint_message(self, src: str, payload: Any) -> None:
        """Our client role's reply traffic. A copy the endpoint does not claim
        meets the ordering protocol's gate, which has no row for it either."""
        if not self.endpoint.handle_message(src, payload):
            self._admit(src, payload)

    # -- the state machine (BFT execute upcall) ----------------------------------------

    def _bft_execute(self, payload: bytes, seq: int, client_id: str, timestamp: int) -> bytes:
        if self.diverged:
            # Keep acking so the domain's ordering makes progress, and
            # buffer the tail for the recovery replay.
            self._buffer_tail(seq, payload)
            return STATIC_ACK
        self._append(seq, payload)
        self._feed_read_tier(payload)
        self._pump()
        return STATIC_ACK

    def _feed_read_tier(self, payload: bytes) -> None:
        """Stream one committed payload to the domain's read tier.

        Every core element feeds every reader; the reader applies an index
        on f+1 byte-identical copies from distinct core senders, so no
        single faulty core element can feed it a forged history. With no
        readers configured this is a no-op — zero extra traffic.
        """
        readers = self.domain_info.read_only_ids
        if not readers:
            return
        feed = CommitFeed(
            sender=self.pid,
            domain_id=self.domain_id,
            index=self.queue.total_appended,
            payload=payload,
        )
        for reader in readers:
            self.send(reader, feed)

    # -- divergence and the recovery tail buffer ----------------------------------------

    def _mark_diverged(self) -> None:
        """Flag loss of sync, start buffering the ordered tail, and catch up.

        Everything :meth:`_bft_execute` sees from here on is kept (byte-
        bounded) so :class:`~repro.recovery.coordinator.RecoveryCoordinator`
        can replay the entries that postdate whatever peer image it adopts.
        The anchor records where coverage begins. A member in good standing
        starts the catch-up round itself; a rejoining element runs it after
        the GM's verdict.
        """
        super()._mark_diverged()
        if self._recovery_anchor is None:
            self._clear_recovery_buffer()
            self._recovery_anchor = self.last_executed
        recovery = self.recovery
        if recovery.in_good_standing and not recovery.active and not self.catch_up.active:
            self.catch_up.start()

    def _start_catch_up(self) -> None:
        """A certified checkpoint we are behind or wrong at: no queue-mode
        element can rebuild its queue from one, so it goes diverged."""
        if self.state_mode == "queue":
            self._mark_diverged()
        else:
            super()._start_catch_up()

    def _catch_up_blob(self, src: str) -> bytes | None:
        """Served to the domain's own elements — a core peer or a read-tier
        element — and only from an element that is itself in sync: a
        diverged element must not export state it does not trust, and one
        parked on a nested invocation has a servant mid-call whose state
        matches no queue position. In object mode a core peer needs the
        checkpoint alone; everyone else gets the queue image (see
        :func:`~repro.itdos.element.parse_image`)."""
        if src not in self.domain_info.all_ids or self.diverged or self._parked is not None:
            return None
        if self.state_mode == "object" and src in self.config.replica_ids:
            return b""
        return canonical_bytes({
            "appended": self.queue.total_appended, "chain": self._append_chain,
            "queue": self.queue.snapshot(), "last_executed": self.last_executed,
            "clients": self.client_table, "app": self.servant_state(),
        })

    def _catch_up_rank(self, response: Any) -> int | None:
        if self.state_mode == "queue":
            return self.recovery.rank(response)
        return super()._catch_up_rank(response)

    def _catch_up_adopt(self, response: Any) -> bool:
        if self.state_mode == "queue":
            return self.recovery.adopt(response)
        return super()._catch_up_adopt(response)

    def _catch_up_failed(self) -> None:
        super()._catch_up_failed()
        if self.recovery.active:
            self.recovery._finish(False)

    def _buffer_tail(self, seq: int, payload: bytes) -> None:
        if self._recovery_anchor is None:
            self._recovery_anchor = seq - 1
        self._recovery_buffer.append((seq, payload))
        self._recovery_buffer_bytes += len(payload)
        if self._recovery_buffer_bytes <= self.queue.max_bytes:
            return
        # Same budget as the queue itself. On overflow drop stale entries
        # from the front and re-anchor past them — always whole sequence
        # numbers at a time: a batched BFT instance appends several
        # same-seq payloads, and the replay is only sound all-or-nothing
        # per instance (the coordinator compares the anchor against peers'
        # instance-granular execution positions). The coordinator then
        # requires a snapshot at least anchor-fresh before adopting.
        buffer = self._recovery_buffer
        dropped = 0
        dropped_bytes = 0
        while (
            dropped < len(buffer)
            and self._recovery_buffer_bytes - dropped_bytes > self.queue.max_bytes
        ):
            group_seq = buffer[dropped][0]
            while dropped < len(buffer) and buffer[dropped][0] == group_seq:
                dropped_bytes += len(buffer[dropped][1])
                dropped += 1
            self._recovery_anchor = group_seq
        del buffer[:dropped]
        self._recovery_buffer_bytes -= dropped_bytes

    def _clear_recovery_buffer(self) -> None:
        self._recovery_buffer = []
        self._recovery_buffer_bytes = 0
        self._recovery_anchor = None

    # -- the element's client role: ordered replies, accusations, nested calls -------

    def _process_ordered_reply(self, reply: SmiopReply) -> None:
        """A reply copy for our client role, delivered via our ordering."""
        connection = self.endpoint.connections.get(reply.conn_id)
        if connection is not None:
            connection.handle_reply(reply)

    def _report_request_fault(
        self, record: IncomingConnection, outcome: VoteOutcome
    ) -> None:
        # "other servers receiving a faulty request" (§2): each element
        # independently notifies the GM; the GM acts on f+1 matching
        # domain-origin change_requests — no proof needed (§3.6).
        for accused in outcome.dissenters:
            accusation_key = (record.conn_id, outcome.request_id, accused)
            if accusation_key in self.endpoint._accusations_sent:
                continue
            self.endpoint._accusations_sent.add(accusation_key)
            request = ChangeRequest(
                requester=self.pid,
                requester_kind="domain",
                requester_domain=self.domain_id,
                accused_domain=record.client_domain,
                accused=(accused,),
                request_id=outcome.request_id,
                proof=(),
            )
            self.endpoint.change_requests_sent.append(request)
            self.endpoint.gm_engine.invoke(request.to_payload())

    def _issue_nested(
        self,
        parked: _Parked,
        record: IncomingConnection,
        request_id: int,
        call: PendingCall,
    ) -> None:
        """Send the nested request via our own client-side connection."""
        t = self.telemetry
        # Captured now, re-established when the connection handshake lands:
        # the nested request's span must hang off the servant's dispatch.
        nested_ctx = t.current if t.enabled else None

        def on_ready(connection: Any) -> None:
            wire = self.orb.marshal_request(
                call.ref,
                call.operation,
                call.args,
                request_id=connection._next_request_id + 1,
            )

            def on_voted_reply(plaintext: bytes) -> None:
                if self._parked is not parked:
                    return  # superseded (should not happen)
                self._parked = None
                try:
                    value = Orb.result_from_reply(self.orb.unmarshal_reply(plaintext))
                    exc = None
                except Exception as raised:  # noqa: BLE001 - rethrow in servant
                    value, exc = None, raised
                self._drive_generator(
                    parked.generator,
                    parked.origin,
                    record,
                    request_id,
                    first=False,
                    sent_value=value,
                    sent_exc=exc,
                )

            with t.use(nested_ctx):
                connection.send_request(wire, on_voted_reply)
            parked.awaiting_conn = connection.conn_id
            parked.awaiting_request = connection._next_request_id
            self._pump()  # awaited copies may already be queued

        self.endpoint.connect(call.ref.domain_id, on_ready)

    # -- replies ---------------------------------------------------------------------------

    def _reply_key(self, record: IncomingConnection):
        # Prefer the generation the request arrived under — the client is
        # guaranteed to still hold it; fall back to our current generation.
        # None: rekeyed away from us (we may be expelled).
        return self.key_store.key_for(
            record.conn_id, record.reply_key_id
        ) or self.key_store.current_key(record.conn_id)

    def _send_reply(
        self, record: IncomingConnection, request_id: int, plaintext: bytes
    ) -> None:
        key = self._reply_key(record)
        if key is None:
            return
        t = self.telemetry
        if t.enabled:
            t.point(
                "smiop.reply",
                parent=self._request_ctx(record, request_id),
                pid=self.pid,
                conn=record.conn_id,
                request=request_id,
            )
        if self._use_digest_path(record, plaintext):
            self._send_digest_reply(record, request_id, plaintext, key)
            return
        nonce = traffic_nonce(record.conn_id, request_id, self.pid, "rep")
        reply = SmiopReply(
            conn_id=record.conn_id,
            request_id=request_id,
            key_id=key.key_id,
            ciphertext=encrypt(key, plaintext, nonce),
            sender=self.pid,
            signature=self.signer.sign(plaintext),
        )
        if record.client_kind == "singleton":
            self._reply_cache[record.conn_id] = reply
            self.send(record.client, reply)
        else:
            # Replies to a replicated client travel through the *client's*
            # ordering, "in the same fashion" as requests (§2). The client
            # engine's retransmission makes this path loss-tolerant.
            self.endpoint.engine_for(record.client_domain).invoke(reply.to_payload())

    # -- large-object digest path (extension, §4 future work) ----------------------------

    def _use_digest_path(self, record: IncomingConnection, plaintext: bytes) -> bool:
        threshold = self.directory.large_reply_threshold
        if threshold is None or len(plaintext) <= threshold:
            return False
        if record.client_kind != "singleton":
            return False  # domain clients keep the ordered full-body path
        try:
            message = decode_message(self.directory.repository, plaintext)
        except Exception:  # noqa: BLE001
            return False
        if not isinstance(message, ReplyMessage):
            return False
        if int(message.reply_status) != 0:
            return False  # exceptions are small; send normally
        from repro.giop.typecodes import contains_float

        op = self.directory.repository.lookup(message.interface_name).operation(
            message.operation
        )
        return not contains_float(op.result)

    def _send_digest_reply(
        self,
        record: IncomingConnection,
        request_id: int,
        plaintext: bytes,
        key,
    ) -> None:
        """Send a 32-byte value digest; keep the body for one fetch.

        The digest covers the *unmarshalled* result (canonical encoding),
        so heterogeneous byte orders digest identically. Exact-valued
        results only — the :meth:`_use_digest_path` gate guarantees it.
        """
        message = decode_message(self.directory.repository, plaintext)
        manifest = canonical_bytes(
            {"status": int(message.reply_status), "result": message.result}
        )
        value_digest = digest(manifest)
        self._body_cache[record.conn_id] = (request_id, plaintext)
        nonce = traffic_nonce(record.conn_id, request_id, self.pid, "dig")
        reply = SmiopReply(
            conn_id=record.conn_id,
            request_id=request_id,
            key_id=key.key_id,
            ciphertext=encrypt(key, value_digest, nonce),
            sender=self.pid,
            signature=self.signer.sign(value_digest),
            is_digest=True,
        )
        self.send(record.client, reply)

    def _handle_body_request(self, src: str, request: "BodyRequest") -> None:
        record = self.incoming.get(request.conn_id)
        if record is None or record.client != src:
            return
        cached = self._body_cache.get(request.conn_id)
        if cached is None or cached[0] != request.request_id:
            return
        key = self._reply_key(record)
        if key is None:
            return
        nonce = traffic_nonce(request.conn_id, request.request_id, self.pid, "body")
        self.send(
            src,
            BodyReply(
                conn_id=request.conn_id,
                request_id=request.request_id,
                key_id=key.key_id,
                ciphertext=encrypt(key, cached[1], nonce),
                sender=self.pid,
            ),
        )

    def _resend_reply(self, conn_id: int, request_id: int) -> None:
        """Send our cached SMIOP reply again: the point-to-point copy to a
        singleton client may have been lost."""
        cached = self._reply_cache.get(conn_id)
        if cached is not None and cached.request_id == request_id:
            self.send(self.incoming[conn_id].client, cached)

    def on_duplicate_request(self, request: Any) -> None:
        """A retransmitted, already-executed request (the BFT layer saw the
        duplicate; it never reaches the queue)."""
        try:
            message = parse_payload(request.payload)
        except PayloadError:
            return
        if isinstance(message, SmiopRequest):
            self._resend_reply(message.conn_id, message.request_id)

    # -- readmission and recovery (extension, paper §4 future work) ---------------------------

    def petition_readmission(self, callback: Callable[[bytes], None] | None = None) -> None:
        """Ask the Group Manager to re-admit this (repaired) element.

        Sends the *signed* rejoin handshake (:mod:`repro.recovery`): the GM
        verifies the element's signature and replay nonce, re-adds it to
        domain membership, and rotates every affected communication group
        to a fresh membership key epoch. Membership only — use
        :meth:`recover_membership` to also catch the replicated queue up.
        """
        self.recovery.petition(callback=callback)

    def recover_membership(
        self,
        callback: Callable[[bytes], None] | None = None,
        fresh_keys: bool = False,
        on_complete: Callable[[bool], None] | None = None,
    ) -> None:
        """Full recovery: rejoin handshake, then the catch-up round.

        The end-to-end path for a repaired or restarted element: petition
        the GM (readmission + key-epoch rotation; pass ``fresh_keys`` to
        force the rotation even when never expelled, the proactive-recovery
        case), then adopt a cross-validated queue image and the servant
        state that goes with it from ``2f+1`` peers (f+1 late), and replay
        the buffered ordered tail. ``callback`` receives the GM verdict;
        ``on_complete`` fires when recovery finishes (with its success as
        a bool).
        """
        self.recovery.begin(
            callback=callback, fresh_keys=fresh_keys, on_complete=on_complete
        )

    def on_restart(self) -> None:
        """Reboot (:meth:`QueueElement._wipe_volatile`): a queue-mode element
        comes back diverged, out of good standing until
        :meth:`recover_membership`'s verdict, then re-adopts the queue from
        peers; object mode instead heals through checkpoint catch-up."""
        super().on_restart()
        self.recovery.in_good_standing = False
        self._wipe_volatile()
        self._body_cache.clear()
        self._reply_cache.clear()

    # -- checkpoint state --------------------------------------------------------------------

    def _snapshot(self) -> bytes:
        # The paper's design (queue mode): the queue is the state machine;
        # the checkpointable view is the rolling digest of the ordered
        # history plus the (bounded) unprocessed suffix. Object mode adds
        # the full application state.
        view = {
            "mode": self.state_mode,
            "chain": self._append_chain,
            "appended": self.queue.total_appended,
        }
        if self.state_mode == "object":
            view["app"] = self.servant_state()
        return canonical_bytes(view)

    def _restore(self, snapshot: bytes, seq: int) -> None:
        """Castro–Liskov-style catch-up (object mode): adopt the full object
        state. A queue-mode element never gets here: it adopts a peer's queue
        image instead (:meth:`RecoveryCoordinator.adopt`)."""
        data = parse_canonical(snapshot)
        if not isinstance(data, dict) or data.get("mode") != "object":
            return
        self._append_chain = data.get("chain", self._append_chain)
        self._adopt_servant_state(data.get("app"))
        self.queue.items.clear()
        self.queue.bytes_held = 0
        self.queue.processed_count = data.get("appended", 0)
        self.queue.total_appended = data.get("appended", 0)
        self.diverged = False
        self._clear_recovery_buffer()
