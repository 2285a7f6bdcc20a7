"""What a replication domain element does with *already ordered* payloads.

"A message queue that *is* the replicated state, drained by a
single-threaded ORB loop" (§3.1) — :class:`QueueElement` is that half of an
element and nothing else: the queue and its append chain, the connection
keys and records Figure 3 step 2 delivers, the pump that decrypts, votes
and dispatches each request to the servants, and the tentative read path.
*How* payloads get ordered, and what leaves the element once a servant is
done, is not decided here. Two shells mix it into the process hierarchy:

* :class:`~repro.itdos.replica.ItdosServerElement` — ``QueueElement`` +
  :class:`~repro.bft.replica.BftReplica`: the Secure Reliable Multicast of
  §3.2 appends, replies are sent and voted on, the element is a client of
  other domains (nested calls, accusations) and can rejoin after a fault;
* :class:`~repro.itdos.readtier.ReadOnlyElement` — ``QueueElement`` + a plain
  :class:`~repro.sim.process.Process`: the commit feed appends, and every
  one of those other jobs is *defined* as not the reader's.

The mixin expects the process side to be initialised first (``pid``,
``send``, timers, ``telemetry``), then :meth:`QueueElement._init_element`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crypto.digests import digest
from repro.crypto.encoding import parse_canonical
from repro.crypto.signing import RsaSigner
from repro.crypto.symmetric import decrypt, encrypt
from repro.giop.ior import ObjectRef
from repro.giop.messages import RequestMessage, decode_message
from repro.itdos.domain import SystemDirectory
from repro.itdos.keys import ConnectionKeys, KeyStore
from repro.itdos.messages import (
    GmShareEnvelope,
    PayloadError,
    ReadReply,
    ReadRequest,
    SmiopReply,
    SmiopRequest,
    parse_payload,
    read_reply_mac,
)
from repro.itdos.queuestate import MessageQueue, QueueOverflow
from repro.itdos.sockets import traffic_nonce
from repro.itdos.voter import RequestVoter, VoteOutcome
from repro.itdos.vvm import Comparator
from repro.orb.core import Orb
from repro.orb.errors import ObjectNotExist
from repro.orb.servant import PendingCall
from repro.orb.stubs import Stub


def parse_image(blob: bytes) -> dict[str, Any] | None:
    """A peer's queue image (the ``blob`` of a catch-up response, written by
    ``ItdosServerElement._catch_up_blob``): the unprocessed queue, the append
    chain, the payloads ever appended, the execution position with the
    client table at it, and the servant state at the processed position.
    None if ``blob`` is not one."""
    try:
        image = parse_canonical(blob)
    except ValueError:
        return None
    if not isinstance(image, dict) or not {"queue", "app"} <= image.keys():
        return None
    kinds = {"appended": int, "last_executed": int, "chain": bytes, "clients": dict}
    if all(isinstance(image.get(key), kind) for key, kind in kinds.items()):
        return image
    return None


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
    awaiting_conn: int | None = None
    awaiting_request: int | None = None


class QueueElement:
    """Queue + key store + ORB loop of one element (see the module doc).

    The core runs the servants. What leaves the element afterwards, and
    everything it would do as a *client* of other domains, a shell defines:

    * ``_send_reply(record, request_id, plaintext)`` — a servant finished;
    * ``_resend_reply(conn_id, request_id)`` — that request came in again;
    * ``_report_request_fault(record, outcome)`` — elements of a client
      domain dissented from their siblings' request;
    * ``_issue_nested(parked, record, request_id, call)`` — a servant
      yielded a call into another domain and is now parked;
    * ``_process_ordered_reply(reply)`` — a reply copy for the element's
      client role came off the queue.
    """

    #: Reply tier tag of tentative reads; the read tier sets "read" so
    #: clients can keep its (non-voting) replies out of quorum arithmetic.
    READ_TIER = "core"

    #: Simulated seconds a blocked queue head may wait for its key before it
    #: is declared unsatisfiable and discarded. Generous against any honest
    #: share-delivery latency, small against the life of the element.
    HEAD_STALL_TIMEOUT = 5.0

    def _init_element(
        self,
        directory: SystemDirectory,
        domain_id: str,
        orb: Orb,
        signer: RsaSigner,
        state_mode: str,
        queue_max_bytes: int,
    ) -> None:
        if directory.dprf_public is None:
            raise ValueError("directory has no DPRF public parameters")
        if state_mode not in ("queue", "object"):
            raise ValueError(f"bad state_mode {state_mode!r}")
        self.directory = directory
        self.domain_id = domain_id
        self.domain_info = directory.domain(domain_id)
        self.orb = orb
        self.signer = signer
        self.state_mode = state_mode
        self.queue = MessageQueue(max_bytes=queue_max_bytes)
        self._append_chain = b"\x00" * 32  # rolling digest of ordered payloads
        self.key_store = KeyStore(directory.dprf_public)
        # Telemetry attaches after the process joins a network; bind lazily.
        self.key_store.telemetry_provider = lambda: self.telemetry
        self.key_store.owner_pid = self.pid
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
        # Observability.
        self.dispatched: list[tuple[int, str, str]] = []  # (conn, iface, op)
        self.undecryptable_skipped = 0
        self.stale_requests_discarded = 0
        # Read fast path (tentative execution) bookkeeping. Served reads are
        # not dispatches — they do not consume ordered request ids and must
        # not disturb the at-most-once ordered discipline.
        self.reads_served = 0
        self.reads_refused = 0

    def _mark_diverged(self) -> None:
        """Flag loss of sync (§3.1): the pump stops and reads are refused
        until a catch-up round re-adopts the queue from the core elements."""
        self.diverged = True

    # -- servant-side stub factory (nested invocations) ------------------------

    def stub(self, ref: ObjectRef) -> Stub:
        """A stub for use *inside servants*: calls return a PendingCall that
        the servant must ``yield``."""
        interface = self.directory.repository.lookup(ref.interface_name)
        return Stub(
            ref,
            interface,
            lambda r, operation, args: PendingCall(ref=r, operation=operation, args=args),
        )

    # -- connection establishment, server side ---------------------------------

    def _handle_server_share(self, src: str, envelope: GmShareEnvelope) -> bool:
        """Figure 3 step 2: a key share for a connection we *serve*.

        One GM element may be faulty (§3.5), so neither the key nor a single
        field of the connection record is taken from one envelope: the record
        is created when the key assembles, which is when ``f_gm + 1`` elements
        whose envelopes authenticated and whose shares verified agree with
        this envelope's ``(client, client_kind, client_domain)``. Until then
        requests on the connection wait at the queue head, as for any missing
        key.
        """
        if envelope.recipient != self.pid or src != envelope.gm_element:
            return False
        if envelope.target_domain != self.domain_id:
            return False
        client_info = None
        if envelope.client_kind == "domain":
            client_info = self.directory.domains.get(envelope.client_domain)
            if client_info is None:
                return True  # names a domain nobody deployed: drop
        if self.key_store.offer_envelope(envelope, self.directory) is None:
            return True
        if envelope.conn_id not in self.incoming:
            record = IncomingConnection(
                conn_id=envelope.conn_id,
                client=envelope.client,
                client_kind=envelope.client_kind,
                client_domain=envelope.client_domain,
            )
            if client_info is not None:
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
        self._pump()  # a deferred request may now be decryptable
        return True

    # -- the queue ---------------------------------------------------------------

    def _append(self, seq: int, payload: bytes) -> None:
        """One more ordered payload: onto the queue and into the chain."""
        self.queue.append(seq, payload)
        self._append_chain = digest(self._append_chain + payload)

    def servant_state(self) -> dict[str, Any] | None:
        """The servant half of catch-up and object-mode checkpoints: each
        servant's ``get_state()`` by object key (latin-1), ``None`` if no
        servant declares state."""
        adapter = self.orb.adapter
        states = {
            key.decode("latin-1"): state
            for key in adapter.object_keys()
            if (state := adapter.servant_for(key).get_state()) is not None
        }
        return states or None

    def _adopt_servant_state(self, states: Any) -> None:
        """Hand each servant its part of a peer's :meth:`servant_state`, all
        or nothing: a key with no active servant (``ObjectNotExist``) or a
        state a servant rejects raises with every servant as it was."""
        if not isinstance(states, (dict, type(None))):
            raise TypeError("servant state is not keyed by object key")
        adapter = self.orb.adapter
        servants = {key: adapter.servant_for(key.encode("latin-1")) for key in states or {}}
        kept = {key: servant.get_state() for key, servant in servants.items()}
        try:
            for key, servant in servants.items():
                servant.set_state(states[key])
        except (KeyError, TypeError, ValueError):
            for key, servant in servants.items():
                servant.set_state(kept[key])
            raise

    def _restore_queue_state(self, image: dict[str, Any]) -> bool:
        """Install a cross-validated peer's queue image (:func:`parse_image`)
        and the servant state at its processed position. False — a failed
        adoption, the caller goes another round — if either is refused, with
        the queue, the chain and every servant left as they were."""
        kept = self.queue.snapshot()
        try:
            self.queue.restore(image["queue"])
            self._adopt_servant_state(image["app"])
        except (KeyError, TypeError, ValueError, QueueOverflow, ObjectNotExist):
            self.queue.restore(kept)
            return False
        self._append_chain = image["chain"]
        return True

    def _wipe_volatile(self) -> None:
        """Reboot: the element keeps its identity, directory and key store,
        but every volatile piece of the ORB loop is gone. A queue-mode
        element comes back diverged — the queue contents cannot be trusted
        across a reboot and must be re-adopted from peers."""
        self._parked = None
        self._pumping = False
        self._head_stall_timer = None  # timer handles died with the reboot
        self._stalled_head = None
        if self.state_mode == "queue":
            self.queue.items.clear()
            self.queue.bytes_held = 0
            self._mark_diverged()

    # -- the ORB loop ------------------------------------------------------------

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
                    message = None
                if isinstance(message, SmiopRequest):
                    if not self._process_request(message):
                        # Blocked on a key; retry on install, but bound the
                        # wait — an unsatisfiable key reference would
                        # otherwise jam the queue head forever.
                        self._arm_head_stall(head)
                        return
                    continue
                self.queue.pop_head()  # garbled, or not addressed to the ORB loop
                if isinstance(message, SmiopReply):
                    self._process_ordered_reply(message)
        finally:
            self._pumping = False

    def _arm_head_stall(self, head: Any) -> None:
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
        self.stalled_heads_discarded += 1
        self._skip_head()
        self._pump()

    def _skip_head(self) -> None:
        """Discard a queue head we can never decrypt. In object mode
        checkpoint catch-up repairs the resulting state gap; in queue mode no
        checkpoint can, so the element goes diverged and catches up from its
        peers' queue images (§3.1)."""
        self.queue.pop_head()
        self.undecryptable_skipped += 1
        if self.state_mode == "queue":
            self._mark_diverged()

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

    def _process_request(self, envelope: SmiopRequest) -> bool:
        record = self.incoming.get(envelope.conn_id)
        key = self.key_store.key_for(envelope.conn_id, envelope.key_id)
        if record is None or key is None:
            current = self.key_store.current_key(envelope.conn_id)
            if current is not None and not (
                0
                <= envelope.key_id - current.key_id
                <= ConnectionKeys.RETAINED_GENERATIONS
            ):
                # Behind: a generation we were keyed out of (we were
                # expelled, or aged past the retention window). Unreachably
                # far ahead of any rekey in flight: a garbled envelope, not a
                # key race. Either way the key can never assemble, and
                # waiting would block the ordered queue behind it.
                self._skip_head()
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
            # never reach the servant twice — an exact duplicate gets the
            # finished reply again, anything older is discarded outright.
            self.stale_requests_discarded += 1
            if envelope.request_id == record.last_request_id:
                self._resend_reply(record.conn_id, envelope.request_id)
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
            self._report_request_fault(record, outcome)
        message: RequestMessage = outcome.representative
        self._dispatch(message, record, outcome.request_id)

    # -- dispatch ----------------------------------------------------------------

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
        observer = self.network.observer
        if observer is not None:
            # The chaos checker asserts at most one dispatch per (connection,
            # request id), ids strictly increasing (§3.6).
            observer.on_dispatch(self.pid, record.conn_id, request_id)
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
            reply = (
                self.orb.marshal_reply(message, stop.value)
                if message.response_expected
                else None
            )
        except Exception as exc:  # noqa: BLE001 - servant failure -> exception reply
            reply = self.orb.marshal_exception_reply(message, exc)
        else:
            if isinstance(step, PendingCall):
                parked = self._parked = _Parked(generator=generator, origin=message)
                self._issue_nested(parked, record, request_id, step)
                return
            reply = self.orb.marshal_exception_reply(
                message, RuntimeError("servant yielded a non-PendingCall")
            )
        self._parked = None
        if reply is not None:
            self._send_reply(record, request_id, reply)
        self._pump()

    # -- read fast path: tentative execution (Castro–Liskov read-only opt.) ------

    def _admit_read(self, src: str, envelope: ReadRequest):
        """``(record, key, request)`` of a read we may serve, else ``None``."""
        if self.diverged:
            return None
        record = self.incoming.get(envelope.conn_id)
        key = self.key_store.key_for(envelope.conn_id, envelope.key_id)
        if record is None or key is None:
            return None
        if record.client != src or envelope.sender != src:
            return None
        if record.client_kind != "singleton":
            # Replicated clients vote their *requests* through the ordered
            # path (§3.6); the fast path is a singleton-client shortcut.
            return None
        if envelope.read_id <= record.last_read_id:
            return None  # duplicate delivery: nonce already used
        try:
            plaintext = decrypt(key, envelope.ciphertext)
            message = decode_message(self.directory.repository, plaintext)
        except Exception:  # noqa: BLE001 - undecryptable/garbled: drop
            return None
        if not isinstance(message, RequestMessage):
            return None
        op = self.directory.repository.lookup(message.interface_name).operation(
            message.operation
        )
        # The IDL contract is enforced server-side: a mutation can never
        # sneak past ordering by arriving as a ReadRequest.
        return (record, key, message) if op.read_only else None

    def _serve_read(self, src: str, envelope: ReadRequest) -> None:
        """Execute a read-only request tentatively against committed state.

        No ordering, no queue, no dispatch log: the operation must be
        declared ``read_only`` in the IDL, and the reply is tagged with the
        commit watermark (count of processed ordered payloads) so the
        client can only combine replies computed on the same prefix. A
        refused read is simply dropped — the client's timeout resubmits it
        through the ordered path.
        """
        admitted = self._admit_read(src, envelope)
        mac_key = self.directory.read_key(src, self.pid)
        if admitted is None or mac_key is None:
            self.reads_refused += 1
            return
        record, key, message = admitted
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
        ciphertext = encrypt(key, reply_wire, nonce)
        self.send(
            src,
            ReadReply(
                conn_id=envelope.conn_id,
                read_id=envelope.read_id,
                key_id=key.key_id,
                ciphertext=ciphertext,
                sender=self.pid,
                mac=read_reply_mac(
                    mac_key, envelope.conn_id, envelope.read_id, self.pid,
                    self.READ_TIER, watermark, ciphertext,
                ),
                watermark=watermark,
                tier=self.READ_TIER,
            ),
        )
