"""The ITDOS replication domain element.

One :class:`ItdosServerElement` is one deterministic state machine of a
replicated server (§2). It composes:

* a **PBFT replica** (its base class) ordering the domain's traffic — the
  Secure Reliable Multicast of Figure 2;
* the **message queue** that *is* the replicated state (§3.1): the BFT
  execute upcall appends the ordered payload and returns the static
  CL-level acknowledgement; the ORB loop then drains the queue;
* an **ORB** hosting the domain's servants on this element's platform
  profile (its byte order and float behaviour — the heterogeneity);
* a **request voter** per connection whose client is itself a replication
  domain (§3.6);
* an embedded **SMIOP endpoint** for the element's *client* role in nested
  invocations (§3.1's two-thread technique: when a servant generator parks
  awaiting a nested reply, ordered delivery continues into the queue, and
  only the awaited reply copies may jump the queue).

State modes (experiment E4):

* ``queue`` — the paper's design: checkpoints cover the bounded queue
  digest; a diverged element cannot be recovered by state transfer and is
  flagged for expulsion (virtual synchrony, §3.1).
* ``object`` — the Castro–Liskov baseline: checkpoints carry the full
  application state; recovery works but costs bytes proportional to object
  size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.bft.replica import BftReplica
from repro.crypto.digests import digest
from repro.crypto.encoding import canonical_bytes, parse_canonical
from repro.crypto.signing import RsaSigner
from repro.crypto.symmetric import (
    AuthenticationError,
    SymmetricKey,
    decrypt,
    encrypt,
)
from repro.giop.ior import ObjectRef
from repro.giop.messages import ReplyMessage, RequestMessage, decode_message
from repro.itdos.domain import SystemDirectory
from repro.itdos.keys import ConnectionKeys, KeyStore
from repro.itdos.messages import (
    BodyReply,
    BodyRequest,
    CommitFeed,
    GmShareEnvelope,
    PayloadError,
    ReadReply,
    ReadRequest,
    SmiopReply,
    SmiopRequest,
    key_share_from_dict,
    parse_payload,
)
from repro.itdos.queuestate import MessageQueue, QueueOverflow
from repro.itdos.sockets import SmiopEndpoint, traffic_nonce
from repro.recovery.coordinator import RecoveryCoordinator
from repro.recovery.messages import QueueStateRequest, QueueStateResponse
from repro.itdos.voter import RequestVoter, VoteOutcome
from repro.itdos.vvm import Comparator
from repro.orb.core import Orb
from repro.orb.servant import PendingCall
from repro.orb.stubs import Stub

STATIC_ACK = b"ACK"  # the CL-level reply is a static acknowledgement (§3.1)


@dataclass
class IncomingConnection:
    """Server-side record of one virtual connection."""

    conn_id: int
    client: str
    client_kind: str
    client_domain: str
    request_voter: RequestVoter | None = None  # only for domain clients
    # Key generation of the most recent request: replies go out under the
    # generation the client used, so a rekey mid-flight cannot orphan them.
    reply_key_id: int = 0
    # Highest request id dispatched on this connection (singleton clients).
    # §3.6: ids are strictly increasing with one outstanding request, so an
    # ordered duplicate must re-send the cached reply, never re-execute.
    last_request_id: int = 0
    # Highest tentative read id served on this connection. Read ids are
    # strictly increasing per client incarnation; refusing duplicates keeps
    # the (conn, read_id)-derived AEAD reply nonce single-use even when the
    # network duplicates a ReadRequest after the watermark moved.
    last_read_id: int = 0


@dataclass
class _Parked:
    """A servant generator awaiting a nested reply (§3.1)."""

    generator: Any
    origin: RequestMessage
    origin_conn: int
    awaiting_conn: int | None = None
    awaiting_request: int | None = None


class ItdosServerElement(BftReplica):
    """One replication domain element: BFT replica + queue + ORB."""

    def __init__(
        self,
        pid: str,
        directory: SystemDirectory,
        domain_id: str,
        orb: Orb,
        signer: RsaSigner,
        state_mode: str = "queue",
        app_state_fn: Callable[[], Any] | None = None,
        app_restore_fn: Callable[[Any], None] | None = None,
        queue_max_bytes: int = 1 << 22,
        auth: Any = None,
    ) -> None:
        if directory.dprf_public is None:
            raise ValueError("directory has no DPRF public parameters")
        if state_mode not in ("queue", "object"):
            raise ValueError(f"bad state_mode {state_mode!r}")
        config = self._bft_config(directory, domain_id, pid)
        super().__init__(pid, config, execute_fn=None, auth=auth)
        self.directory = directory
        self.domain_id = domain_id
        self.domain_info = directory.domain(domain_id)
        self.orb = orb
        self.signer = signer
        self.state_mode = state_mode
        self.app_state_fn = app_state_fn or (lambda: None)
        self.app_restore_fn = app_restore_fn or (lambda state: None)
        self.queue = MessageQueue(max_bytes=queue_max_bytes)
        self._append_chain = b"\x00" * 32  # rolling digest of ordered payloads
        self.key_store = KeyStore(directory.dprf_public)
        # Telemetry attaches after the process joins a network; bind lazily.
        self.key_store.telemetry_provider = lambda: self.telemetry
        self.key_store.owner_pid = pid
        self.endpoint = SmiopEndpoint(
            self, directory, self.key_store, kind="domain", own_domain=domain_id
        )
        self.incoming: dict[int, IncomingConnection] = {}
        self._parked: _Parked | None = None
        self._pumping = False
        # Head-of-line stall guard: a queue head blocked on a key that never
        # assembles (a garbled conn/key id that still parses) must not jam
        # the whole ordered queue forever — after a bounded wait, discard it.
        self._head_stall_timer: Any = None
        self._stalled_head: Any = None
        self.stalled_heads_discarded = 0
        self.diverged = False  # queue-mode element that lost sync (§3.1)
        # Recovery (repro.recovery): while diverged, every payload our own
        # ordering executes is buffered so a state transfer can replay the
        # tail past whatever snapshot it adopts. The anchor is the execution
        # position buffering started at — the buffer covers (anchor, now].
        self.recovery = RecoveryCoordinator(self)
        self._recovery_buffer: list[tuple[int, bytes]] = []
        self._recovery_buffer_bytes = 0
        self._recovery_anchor: int | None = None
        # BFT hooks.
        self.execute_fn = self._bft_execute
        self.snapshot_fn = self._snapshot
        self.restore_fn = self._restore
        # Large-object digest path: last full-body reply per connection,
        # retained for exactly one fetch window (one outstanding request).
        self._body_cache: dict[int, tuple[int, bytes]] = {}
        # Last SmiopReply sent to each singleton client's connection, for
        # retransmission when the (point-to-point) reply is lost.
        self._reply_cache: dict[int, SmiopReply] = {}
        # Observability.
        self.dispatched: list[tuple[int, str, str]] = []  # (conn, iface, op)
        # Parallel (conn, request_id) log — the chaos InvariantChecker reads
        # this to assert no duplicate execution per connection (§3.6).
        self.dispatch_log: list[tuple[int, int]] = []
        self.undecryptable_skipped = 0
        self.stale_requests_discarded = 0
        # Read fast path (tentative execution) bookkeeping. Served reads
        # never enter dispatch_log — they do not consume ordered request
        # ids and must not disturb the at-most-once ordered discipline.
        self.reads_served = 0
        self.reads_refused = 0

    def _bft_config(self, directory: SystemDirectory, domain_id: str, pid: str):
        """The BFT group configuration this element runs under.

        Core elements use the domain's canonical config; the read tier
        (:mod:`repro.itdos.readtier`) overrides this, since a non-voting
        element is not in the replica set at all.
        """
        return directory.bft_config_for(domain_id)

    # -- servant-side stub factory (nested invocations) ---------------------------

    def stub(self, ref: ObjectRef) -> Stub:
        """A stub for use *inside servants*: calls return a PendingCall that
        the servant must ``yield``."""
        interface = self.directory.repository.lookup(ref.interface_name)
        return Stub(
            ref,
            interface,
            lambda r, operation, args: PendingCall(ref=r, operation=operation, args=args),
        )

    # -- message routing -----------------------------------------------------------

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, GmShareEnvelope):
            if self._handle_server_share(src, payload):
                return
            if self.endpoint.handle_gm_share(src, payload):
                return
            return
        if isinstance(payload, BodyRequest):
            self._handle_body_request(src, payload)
            return
        if isinstance(payload, ReadRequest):
            self._serve_read(src, payload)
            return
        if isinstance(payload, QueueStateRequest):
            self._serve_queue_state(src, payload)
            return
        if isinstance(payload, QueueStateResponse):
            self.recovery.fetch.handle_response(src, payload)
            return
        if self.endpoint.handle_message(src, payload):
            return
        super().on_message(src, payload)

    def _handle_server_share(self, src: str, envelope: GmShareEnvelope) -> bool:
        """Figure 3 step 2: a key share for a connection we *serve*."""
        if envelope.recipient != self.pid or src != envelope.gm_element:
            return False
        if self.pid not in self.directory.domain(envelope.target_domain).all_ids:
            return False
        if envelope.target_domain != self.domain_id:
            return False
        try:
            pairwise = SymmetricKey(
                material=self.directory.pairwise_key(envelope.gm_element, self.pid)
            )
            plaintext = decrypt(pairwise, envelope.ciphertext)
            nonce, share = key_share_from_dict(parse_canonical(plaintext))
        except (AuthenticationError, ValueError, KeyError):
            return True  # corrupt envelope: drop
        if envelope.conn_id not in self.incoming:
            record = IncomingConnection(
                conn_id=envelope.conn_id,
                client=envelope.client,
                client_kind=envelope.client_kind,
                client_domain=envelope.client_domain,
            )
            if envelope.client_kind == "domain":
                client_info = self.directory.domain(envelope.client_domain)
                record.request_voter = RequestVoter(
                    client_n=client_info.n,
                    client_f=client_info.f,
                    on_deliver=lambda outcome, c=envelope.conn_id: self._voted_request(
                        c, outcome
                    ),
                    telemetry=self.telemetry,
                    owner=self.pid,
                )
            self.incoming[envelope.conn_id] = record
        key = self.key_store.offer_share(
            envelope.gm_element,
            envelope.conn_id,
            envelope.key_id,
            nonce,
            share,
            epoch=envelope.epoch,
            fence_floor=envelope.fence_floor,
        )
        if key is not None:
            self._pump()  # a deferred request may now be decryptable
        return True

    # -- the state machine (BFT execute upcall) ----------------------------------------

    def _bft_execute(self, payload: bytes, seq: int, client_id: str, timestamp: int) -> bytes:
        if self.diverged:
            # Keep acking so the domain's ordering makes progress, and
            # buffer the tail for the recovery replay.
            self._buffer_tail(seq, payload)
            return STATIC_ACK
        self.queue.append(seq, payload)
        self._append_chain = digest(self._append_chain + payload)
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
        """Flag loss of sync and start buffering the ordered tail.

        Everything :meth:`_bft_execute` sees from here on is kept (byte-
        bounded) so :class:`~repro.recovery.coordinator.RecoveryCoordinator`
        can replay the entries that postdate whatever peer snapshot it
        adopts. The anchor records where coverage begins.
        """
        self.diverged = True
        if self._recovery_anchor is None:
            self._recovery_anchor = self.last_executed
            self._recovery_buffer = []
            self._recovery_buffer_bytes = 0

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

    # -- the ORB loop -------------------------------------------------------------------

    def _pump(self) -> None:
        if self._pumping or self.diverged:
            return
        self._pumping = True
        try:
            while True:
                if self.diverged:
                    return  # went out of sync mid-drain; await recovery
                if self._parked is not None:
                    if not self._feed_parked():
                        return
                    continue
                head = self.queue.head()
                if head is None:
                    return
                try:
                    message = parse_payload(head.payload)
                except PayloadError:
                    self.queue.pop_head()
                    continue
                if isinstance(message, SmiopRequest):
                    if not self._process_request(message):
                        # Blocked on a key; retry on install, but bound the
                        # wait — an unsatisfiable key reference would
                        # otherwise jam the queue head forever.
                        self._arm_head_stall()
                        return
                elif isinstance(message, SmiopReply):
                    self.queue.pop_head()
                    self._process_ordered_reply(message)
                else:
                    self.queue.pop_head()  # not addressed to the ORB loop
        finally:
            self._pumping = False

    #: Simulated seconds a blocked queue head may wait for its key before it
    #: is declared unsatisfiable and discarded. Generous against any honest
    #: share-delivery latency, small against the life of the element.
    HEAD_STALL_TIMEOUT = 5.0

    def _arm_head_stall(self) -> None:
        head = self.queue.head()
        if head is None:
            return
        if self._head_stall_timer is not None:
            if self._stalled_head is head:
                return  # already counting down for this exact item
            self.cancel_timer(self._head_stall_timer)
        self._stalled_head = head
        self._head_stall_timer = self.set_timer(
            self.HEAD_STALL_TIMEOUT, self._on_head_stall
        )

    def _on_head_stall(self) -> None:
        self._head_stall_timer = None
        head, self._stalled_head = self._stalled_head, None
        if head is None or self.queue.head() is not head:
            return  # the pump advanced past it; the stall resolved itself
        self.queue.pop_head()
        self.undecryptable_skipped += 1
        self.stalled_heads_discarded += 1
        if self.state_mode == "queue":
            self._mark_diverged()
        self._pump()

    def _feed_parked(self) -> bool:
        """While parked, only the awaited nested reply may leave the queue.

        Returns True if progress was made (an item consumed or the park
        resolved), False to stop pumping until new input arrives.
        """
        parked = self._parked
        assert parked is not None
        if parked.awaiting_conn is None:
            return False  # nested connect handshake still in flight

        def is_awaited(raw: bytes) -> bool:
            try:
                message = parse_payload(raw)
            except PayloadError:
                return False
            return (
                isinstance(message, SmiopReply)
                and message.conn_id == parked.awaiting_conn
                and message.request_id == parked.awaiting_request
            )

        item = self.queue.pop_first(is_awaited)
        if item is None:
            return False
        self._process_ordered_reply(parse_payload(item.payload))
        return True

    def _process_ordered_reply(self, reply: SmiopReply) -> None:
        """A reply copy for our client role, delivered via our ordering."""
        connection = self.endpoint.connections.get(reply.conn_id)
        if connection is not None:
            connection.handle_reply(reply)

    def _process_request(self, envelope: SmiopRequest) -> bool:
        record = self.incoming.get(envelope.conn_id)
        key = self.key_store.key_for(envelope.conn_id, envelope.key_id)
        if record is None or key is None:
            current = self.key_store.current_key(envelope.conn_id)
            if current is not None and current.key_id > envelope.key_id:
                # A generation we were keyed out of (we were expelled, or
                # aged past the retention window): we can never decrypt
                # this item. Skip it — in object mode the checkpoint/state
                # transfer machinery repairs the resulting state gap; in
                # queue mode the gap is unrecoverable (§3.1).
                self.queue.pop_head()
                self.undecryptable_skipped += 1
                if self.state_mode == "queue":
                    self._mark_diverged()
                return True
            if (
                current is not None
                and envelope.key_id
                > current.key_id + ConnectionKeys.RETAINED_GENERATIONS
            ):
                # A generation unreachably far ahead of any rekey in flight:
                # a garbled envelope, not a key race. Waiting would block the
                # ordered queue behind a key that can never assemble.
                self.queue.pop_head()
                self.undecryptable_skipped += 1
                if self.state_mode == "queue":
                    self._mark_diverged()
                return True
            # Key shares (Figure 3 step 2) have not landed yet; the request
            # stays at the head so ordering is preserved.
            return False
        self.queue.pop_head()
        try:
            plaintext = decrypt(key, envelope.ciphertext)
            message = decode_message(self.directory.repository, plaintext)
        except Exception:  # noqa: BLE001 - undecryptable/garbled: discard
            return True
        if not isinstance(message, RequestMessage):
            return True
        record.reply_key_id = envelope.key_id
        if record.client_kind == "domain":
            assert record.request_voter is not None
            value = {
                "iface": message.interface_name,
                "op": message.operation,
                "object_key": message.object_key,
                "args": list(message.args),
            }
            comparator = self._request_comparator(message)
            record.request_voter.offer(
                envelope.sender,
                envelope.request_id,
                value,
                comparator,
                raw=message,
            )
            return True
        if envelope.request_id <= record.last_request_id:
            # §3.6: a connection carries strictly increasing request ids with
            # one request outstanding. A duplicated ordered delivery (replay
            # through a second BFT timestamp, or a reordered straggler) must
            # never reach the servant twice — re-send the cached reply for an
            # exact duplicate, discard anything older outright.
            self.stale_requests_discarded += 1
            cached = self._reply_cache.get(record.conn_id)
            if (
                envelope.request_id == record.last_request_id
                and cached is not None
                and cached.request_id == envelope.request_id
            ):
                self.send(record.client, cached)
            return True
        record.last_request_id = envelope.request_id
        self._dispatch(message, record, envelope.request_id)
        return True

    def _request_comparator(self, message: RequestMessage) -> Comparator:
        args_comparator = self.directory.request_comparator(
            message.interface_name, message.operation
        )

        def equal(a: dict, b: dict) -> bool:
            return (
                a["iface"] == b["iface"]
                and a["op"] == b["op"]
                and a["object_key"] == b["object_key"]
                and args_comparator.equal(a["args"], b["args"])
            )

        return Comparator(equal=equal)

    def _voted_request(self, conn_id: int, outcome: VoteOutcome) -> None:
        """A replicated client's request reached its vote threshold."""
        record = self.incoming[conn_id]
        if outcome.dissenters:
            # "other servers receiving a faulty request" (§2): each element
            # independently notifies the GM; the GM acts on f+1 matching
            # domain-origin change_requests — no proof needed (§3.6).
            self._report_request_fault(record, outcome)
        message: RequestMessage = outcome.representative
        self._dispatch(message, record, outcome.request_id)

    def _report_request_fault(
        self, record: IncomingConnection, outcome: VoteOutcome
    ) -> None:
        from repro.itdos.messages import ChangeRequest

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

    # -- dispatch and nested invocations ------------------------------------------------

    def _request_ctx(self, record: IncomingConnection, request_id: int):
        """The trace context of the client's outstanding request, if any.

        Prefer the ambient span (we usually run inside bft.execute); a
        request that was deferred on a missing key resumes outside any
        ambient scope, so fall back to the client-side correlation binding.
        """
        t = self.telemetry
        if not t.enabled:
            return None
        if t.current is not None:
            return t.current
        return t.lookup(("smiop.req", self.domain_id, record.conn_id, request_id))

    def _dispatch(
        self, message: RequestMessage, record: IncomingConnection, request_id: int
    ) -> None:
        self.dispatched.append((record.conn_id, message.interface_name, message.operation))
        self.dispatch_log.append((record.conn_id, request_id))
        t = self.telemetry
        if t.enabled:
            t.point(
                "orb.dispatch",
                parent=self._request_ctx(record, request_id),
                pid=self.pid,
                iface=message.interface_name,
                op=message.operation,
            )
        try:
            result = self.orb.dispatch(message)
        except Exception as exc:  # noqa: BLE001 - marshalled back to the client
            self._send_reply(
                record, request_id, self.orb.marshal_exception_reply(message, exc)
            )
            return
        if hasattr(result, "send") and hasattr(result, "throw"):
            self._drive_generator(result, message, record, request_id, first=True)
            return
        if message.response_expected:
            self._send_reply(record, request_id, self.orb.marshal_reply(message, result))

    def _drive_generator(
        self,
        generator: Any,
        message: RequestMessage,
        record: IncomingConnection,
        request_id: int,
        first: bool,
        sent_value: Any = None,
        sent_exc: Exception | None = None,
    ) -> None:
        try:
            if first:
                step = next(generator)
            elif sent_exc is not None:
                step = generator.throw(sent_exc)
            else:
                step = generator.send(sent_value)
        except StopIteration as stop:
            self._parked = None
            if message.response_expected:
                self._send_reply(
                    record, request_id, self.orb.marshal_reply(message, stop.value)
                )
            self._pump()
            return
        except Exception as exc:  # noqa: BLE001 - servant failure -> exception reply
            self._parked = None
            self._send_reply(
                record, request_id, self.orb.marshal_exception_reply(message, exc)
            )
            self._pump()
            return
        if not isinstance(step, PendingCall):
            self._parked = None
            self._send_reply(
                record,
                request_id,
                self.orb.marshal_exception_reply(
                    message, RuntimeError("servant yielded a non-PendingCall")
                ),
            )
            self._pump()
            return
        parked = _Parked(
            generator=generator, origin=message, origin_conn=record.conn_id
        )
        self._parked = parked
        self._issue_nested(parked, record, request_id, step)

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

    def _send_reply(
        self, record: IncomingConnection, request_id: int, plaintext: bytes
    ) -> None:
        # Prefer the generation the request arrived under — the client is
        # guaranteed to still hold it; fall back to our current generation.
        key = self.key_store.key_for(record.conn_id, record.reply_key_id)
        if key is None:
            key = self.key_store.current_key(record.conn_id)
        if key is None:
            return  # rekeyed away from us (we may be expelled)
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
        key = self.key_store.key_for(record.conn_id, record.reply_key_id)
        if key is None:
            key = self.key_store.current_key(record.conn_id)
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

    # -- read fast path: tentative execution (Castro–Liskov read-only opt.) --------

    #: Reply tier tag; the read tier overrides this with "read" so clients
    #: can keep its (non-voting) replies out of quorum arithmetic.
    READ_TIER = "core"

    def _serve_read(self, src: str, envelope: ReadRequest) -> None:
        """Execute a read-only request tentatively against committed state.

        No ordering, no queue, no dispatch log: the operation must be
        declared ``read_only`` in the IDL, and the reply is tagged with the
        commit watermark (count of processed ordered payloads) so the
        client can only combine replies computed on the same prefix. A
        refused read is simply dropped — the client's timeout resubmits it
        through the ordered path.
        """
        if self.diverged:
            self.reads_refused += 1
            return
        record = self.incoming.get(envelope.conn_id)
        key = self.key_store.key_for(envelope.conn_id, envelope.key_id)
        if record is None or key is None:
            self.reads_refused += 1
            return
        if record.client != src or envelope.sender != src:
            self.reads_refused += 1
            return
        if record.client_kind != "singleton":
            # Replicated clients vote their *requests* through the ordered
            # path (§3.6); the fast path is a singleton-client shortcut.
            self.reads_refused += 1
            return
        if envelope.read_id <= record.last_read_id:
            self.reads_refused += 1  # duplicate delivery: nonce already used
            return
        try:
            plaintext = decrypt(key, envelope.ciphertext)
            message = decode_message(self.directory.repository, plaintext)
        except Exception:  # noqa: BLE001 - undecryptable/garbled: drop
            self.reads_refused += 1
            return
        if not isinstance(message, RequestMessage):
            self.reads_refused += 1
            return
        op = self.directory.repository.lookup(message.interface_name).operation(
            message.operation
        )
        if not op.read_only:
            # The IDL contract is enforced server-side: a mutation can
            # never sneak past ordering by arriving as a ReadRequest.
            self.reads_refused += 1
            return
        record.last_read_id = envelope.read_id
        watermark = self.queue.processed_count
        t = self.telemetry
        if t.enabled:
            t.point(
                "read.serve",
                pid=self.pid,
                conn=envelope.conn_id,
                read=envelope.read_id,
                wm=watermark,
                tier=self.READ_TIER,
            )
            t.registry.counter(
                "read_tentative_served_total",
                "Tentative read executions served, by tier",
                labels=("tier",),
            ).labels(tier=self.READ_TIER).inc()
        try:
            result = self.orb.dispatch(message)
        except Exception as exc:  # noqa: BLE001 - deterministic servant errors vote too
            reply_wire = self.orb.marshal_exception_reply(message, exc)
        else:
            if hasattr(result, "send") and hasattr(result, "throw"):
                # Nested invocations need ordering; drop and let the client
                # fall back rather than tentatively deciding an error.
                result.close()
                self.reads_refused += 1
                return
            reply_wire = self.orb.marshal_reply(message, result)
        self.reads_served += 1
        nonce = traffic_nonce(envelope.conn_id, envelope.read_id, self.pid, "trd")
        self.send(
            src,
            ReadReply(
                conn_id=envelope.conn_id,
                read_id=envelope.read_id,
                key_id=key.key_id,
                ciphertext=encrypt(key, reply_wire, nonce),
                sender=self.pid,
                signature=self.signer.sign(
                    canonical_bytes({"wm": watermark, "body": reply_wire})
                ),
                watermark=watermark,
                tier=self.READ_TIER,
            ),
        )

    def on_duplicate_request(self, request: Any) -> None:
        """A retransmitted, already-executed request: resend our SMIOP reply
        (the point-to-point reply to a singleton client may have been lost)."""
        try:
            message = parse_payload(request.payload)
        except PayloadError:
            return
        if not isinstance(message, SmiopRequest):
            return
        cached = self._reply_cache.get(message.conn_id)
        if cached is not None and cached.request_id == message.request_id:
            record = self.incoming.get(message.conn_id)
            if record is not None and record.client_kind == "singleton":
                self.send(record.client, cached)

    # -- readmission and recovery (extension, paper §4 future work) ---------------------------

    def petition_readmission(self, callback: Callable[[bytes], None] | None = None) -> None:
        """Ask the Group Manager to re-admit this (repaired) element.

        Sends the *signed* rejoin handshake (:mod:`repro.recovery`): the GM
        verifies the element's signature and replay nonce, re-adds it to
        domain membership, and rotates every affected communication group
        to a fresh membership key epoch. Membership only — use
        :meth:`recover_membership` to also catch the replicated queue up
        via state transfer.
        """
        self.recovery.petition(callback=callback)

    def recover_membership(
        self,
        callback: Callable[[bytes], None] | None = None,
        fresh_keys: bool = False,
        on_complete: Callable[[bool], None] | None = None,
    ) -> None:
        """Full recovery: rejoin handshake plus queue state transfer.

        The end-to-end path for a repaired or restarted element: petition
        the GM (readmission + key-epoch rotation; pass ``fresh_keys`` to
        force the rotation even when never expelled, the proactive-recovery
        case), then adopt a cross-validated ``MessageQueue`` snapshot and
        the servant state that goes with it from ``2f+1`` peers, and replay
        the buffered ordered tail. ``callback`` receives the GM verdict;
        ``on_complete`` fires when recovery finishes (with its success as
        a bool).
        """
        self.recovery.begin(
            callback=callback, fresh_keys=fresh_keys, on_complete=on_complete
        )

    def _serve_queue_state(self, src: str, request: QueueStateRequest) -> None:
        """Answer a catch-up fetch (:mod:`repro.recovery.fetch`).

        Served to the domain's own elements — a rejoining core peer or a
        lagging read-tier element, with the same response — and only from
        an element that is itself in sync: a diverged element must not
        export state it does not trust, and one parked on a nested
        invocation has a servant mid-call whose state matches no queue
        position. The response pairs the live queue snapshot and the
        servant state at its processed position with our stable PBFT
        checkpoint certificate, so a core joiner can anchor the fetched
        state to the BFT layer (a reader ignores the checkpoint triple).
        """
        if request.domain_id != self.domain_id or request.requester != src:
            return
        if src not in self.domain_info.all_ids:
            return
        if self.diverged or self._parked is not None:
            return
        stable_seq, snapshot, proof = self.stable_checkpoint()
        t = self.telemetry
        if t.enabled:
            t.point(
                "recovery.serve", pid=self.pid, peer=src, attempt=request.attempt
            )
        self.send(
            src,
            QueueStateResponse(
                sender=self.pid,
                domain_id=self.domain_id,
                attempt=request.attempt,
                appended=self.queue.total_appended,
                chain=self._append_chain,
                snapshot=self.queue.snapshot(),
                last_executed=self.last_executed,
                stable_seq=stable_seq,
                checkpoint_snapshot=snapshot,
                app_state=canonical_bytes({"app": self.app_state_fn()}),
                checkpoint_proof=proof,
            ),
        )

    def _restore_queue_state(self, response: QueueStateResponse) -> bool:
        """Install a cross-validated peer's queue and the servant state at
        its processed position. False — a failed adoption, the caller goes
        another round — if either is refused; nothing is touched unless the
        app state parses and the queue snapshot validates in full."""
        try:
            app = parse_canonical(response.app_state)["app"]
            self.queue.restore(response.snapshot)
            self.app_restore_fn(app)
        except (KeyError, TypeError, ValueError, QueueOverflow):
            return False
        self._append_chain = response.chain
        return True

    def on_restart(self) -> None:
        """A rebooted element keeps its identity, directory, and key store,
        but every volatile piece of the ORB loop is wiped. A queue-mode
        element comes back diverged: the queue contents cannot be trusted
        across a reboot, so :meth:`recover_membership` must re-adopt them
        from peers (object mode instead heals through ordinary BFT state
        transfer)."""
        super().on_restart()
        self._parked = None
        self._pumping = False
        self._head_stall_timer = None  # timer handles died with the reboot
        self._stalled_head = None
        self._body_cache.clear()
        self._reply_cache.clear()
        if self.state_mode == "queue":
            self.queue.items.clear()
            self.queue.bytes_held = 0
            self._mark_diverged()

    # -- checkpoint state --------------------------------------------------------------------

    def _snapshot(self) -> bytes:
        if self.state_mode == "queue":
            # The paper's design: the queue is the state machine; the
            # checkpointable view is the rolling digest of the ordered
            # history plus the (bounded) unprocessed suffix.
            return canonical_bytes(
                {
                    "mode": "queue",
                    "chain": self._append_chain,
                    "appended": self.queue.total_appended,
                }
            )
        return canonical_bytes(
            {
                "mode": "object",
                "chain": self._append_chain,
                "appended": self.queue.total_appended,
                "app": self.app_state_fn(),
            }
        )

    def _restore(self, snapshot: bytes, seq: int) -> None:
        data = parse_canonical(snapshot)
        if not isinstance(data, dict):
            return
        self._append_chain = data.get("chain", self._append_chain)
        if data.get("mode") == "object":
            # Castro–Liskov-style recovery: adopt the full object state.
            self.app_restore_fn(data.get("app"))
            self.queue.items.clear()
            self.queue.bytes_held = 0
            self.queue.processed_count = data.get("appended", 0)
            self.queue.total_appended = data.get("appended", 0)
            self.diverged = False
            self._clear_recovery_buffer()
        else:
            # Queue mode cannot reconstruct the queue contents from a
            # digest checkpoint: the element is out of sync until the
            # recovery subsystem re-adopts the queue from peers (or, if it
            # never recovers, until expulsion — the virtual synchrony
            # consequence §3.1 accepts). State transfer moved our execution
            # position, so re-anchor the tail buffer at the restored
            # position: entries before it were never buffered by us and
            # must come from a peer snapshot at least this fresh.
            self.diverged = True
            self._recovery_buffer = []
            self._recovery_buffer_bytes = 0
            self._recovery_anchor = seq
