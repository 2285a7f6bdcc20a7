"""ITDOS Sockets: virtual connection semantics over the BFT transport.

"CORBA's General Inter-ORB Protocol requires connection semantics ...; the
ITDOS prototype creates virtual connections over the Castro–Liskov transport
layer" (§3.3). A :class:`SmiopEndpoint` is the client half of that socket
layer, embeddable in any process (singleton clients embed one; every server
element embeds one too, for nested invocations):

* **connect** — Figure 3: an ``open_request`` to the Group Manager, key
  shares back from ``f_gm+1`` GM elements, shares verified and combined into
  the communication key, connection usable;
* **send_request** — strictly increasing request identifiers, exactly one
  outstanding request per connection (§3.6), payload encrypted under the
  connection key and submitted into the target domain's BFT ordering;
* **reply voting** — a per-connection :class:`~repro.itdos.voter.ReplyVoter`
  decrypts, signature-checks, unmarshals, and votes the reply copies;
* **fault reporting** — a dissenting reply triggers a ``change_request``
  with signed-plaintext proof (singleton) or the domain variant (element).
"""

from __future__ import annotations

import struct
from typing import Any, Callable

from repro.bft.client import BftClientEngine
from repro.bft.messages import BftReply
from repro.crypto.digests import constant_time_equal, digest
from repro.crypto.encoding import canonical_bytes
from repro.crypto.symmetric import AuthenticationError, decrypt, encrypt
from repro.giop.messages import (
    ReplyMessage,
    decode_message,
    peek_request_header,
)
from repro.itdos.domain import DomainInfo, SystemDirectory
from repro.itdos.keys import KeyStore
from repro.itdos.messages import (
    BodyReply,
    BodyRequest,
    ChangeRequest,
    GmShareEnvelope,
    OpenRequest,
    ProofItem,
    ReadReply,
    ReadRequest,
    SmiopReply,
    SmiopRequest,
    read_reply_mac,
)
from repro.itdos.voter import ReadOutcome, ReadVoter, ReplyVoter, VoteOutcome
from repro.sim.process import Process


def _copy_value(value: Any) -> Any:
    """Structural copy of a decoded CDR value (dicts/lists/primitives).

    The decode memo must never alias its cached results: decoded dicts and
    lists are handed to the voter and onward to the application, and a
    consumer mutating a delivered value would otherwise poison every future
    memo hit for the same plaintext.
    """
    if isinstance(value, dict):
        return {k: _copy_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_copy_value(v) for v in value]
    return value


# traffic_nonce hashes the canonical encoding of
# ``{"conn": conn, "dir": dir, "req": req, "sender": sender}`` (keys sort in
# that order), laid out by hand: constant key bytes around the four atoms.
_NONCE_HEAD = struct.Struct(">cII")  # M | body length | 4 items
_NONCE_CONN = canonical_bytes("conn") + b"I"
_NONCE_DIR = canonical_bytes("dir") + b"S"
_NONCE_REQ = canonical_bytes("req") + b"I"
_NONCE_SENDER = canonical_bytes("sender") + b"S"
# the item count, the four atoms' length fields and the keys
_NONCE_FIXED = 4 + 4 * 4 + sum(map(len, (_NONCE_CONN, _NONCE_DIR, _NONCE_REQ, _NONCE_SENDER)))
_ulong = struct.Struct(">I").pack


def traffic_nonce(conn_id: int, request_id: int, sender: str, direction: str) -> bytes:
    """Deterministic unique nonce for one encrypted SMIOP message."""
    conn, req = b"%d" % conn_id, b"%d" % request_id
    way, who = direction.encode("utf-8"), sender.encode("utf-8")
    size = _NONCE_FIXED + len(conn) + len(way) + len(req) + len(who)
    return digest(b"".join((
        _NONCE_HEAD.pack(b"M", size, 4),
        _NONCE_CONN, _ulong(len(conn)), conn,
        _NONCE_DIR, _ulong(len(way)), way,
        _NONCE_REQ, _ulong(len(req)), req,
        _NONCE_SENDER, _ulong(len(who)), who,
    )))[:16]


def reply_value_comparator(
    directory: SystemDirectory, interface_name: str, operation: str
) -> "Comparator":
    """Comparator over voter reply values ``(reply_status, result)``.

    Normal results compare with the operation's (inexact-capable) result
    comparator; exception payloads compare exactly.
    """
    from repro.itdos.vvm import Comparator, _structural_exact

    result_comparator = directory.reply_comparator(interface_name, operation)

    def equal(a: tuple, b: tuple) -> bool:
        status_a, value_a = a
        status_b, value_b = b
        if status_a != status_b:
            return False
        if status_a == 0:
            return result_comparator.equal(value_a, value_b)
        return _structural_exact(value_a, value_b)

    return Comparator(equal=equal)


class OutgoingConnection:
    """Client side of one virtual connection to a replicated server."""

    #: Outstanding-envelope retransmission backoff (base doubles per attempt).
    RETRY_BASE = 0.5
    RETRY_CAP = 4.0

    def __init__(
        self, endpoint: "SmiopEndpoint", conn_id: int, target: DomainInfo
    ) -> None:
        self.endpoint = endpoint
        self.conn_id = conn_id
        self.target = target
        # §3.4 connection reuse means a restarted client inherits a conn_id
        # whose request history is already advanced; servers discard any
        # request id at or below the high-water mark (§3.6), and the AEAD
        # traffic nonce is derived from (conn, request) — so a fresh
        # incarnation must never restart the counter at 0. Real-wire
        # processes seed the base from their local clock (same rule as BFT
        # client timestamps); the simulator keeps 0.
        self._next_request_id = endpoint.request_id_base
        self._on_reply: Callable[[bytes], None] | None = None
        self.voter = ReplyVoter(
            n=target.n,
            f=target.f,
            on_decide=self._decided,
            on_fault=self._fault_detected,
            telemetry=endpoint.owner.telemetry,
            owner=endpoint.owner.pid,
        )
        self.requests_sent = 0
        # Outstanding-request retransmission: the BFT client engine only
        # guarantees the *ordering* of our envelope (its f+1 ACKs can land
        # while every point-to-point SmiopReply copy is lost), so the socket
        # itself must re-submit until the reply vote decides. Re-submission
        # is safe because servers enforce §3.6 strictly-increasing request
        # ids per connection: a re-ordered duplicate re-sends the cached
        # reply instead of re-executing.
        self._retry_timer: Any = None
        self._retry_attempt = 0
        self.retransmissions = 0
        # Span covering the outstanding request, ended when voting decides.
        self._active_span = None
        # Large-object digest path (extension): body fetch in progress.
        self._awaiting_body: tuple[int, bytes, list[str]] | None = None
        self.body_fetches = 0
        # Decoded-ballot memos, one per voter, for its one vote in progress:
        # heterogeneous replicas produce different bytes for equal values,
        # but same-platform elements produce identical plaintext — unmarshal
        # those once per vote, not once per element. Pure memoization:
        # voting still happens on the decoded values via the §3.6
        # comparators.
        self._reply_memo: dict[bytes, tuple[int, Any]] = {}
        self._read_memo: dict[bytes, tuple[int, Any]] = {}
        self.reply_decodes = 0
        self.reply_memo_hits = 0
        # Read fast path (Castro–Liskov read-only optimization). Reads live
        # in their own id space, seeded like request ids for incarnation
        # safety; they never consume ordered request ids, so any number of
        # fast-path reads leaves the §3.6 ordered discipline untouched.
        self._next_read_id = endpoint.request_id_base
        self.read_voter = ReadVoter(
            n=target.n,
            f=target.f,
            core_ids=target.element_ids,
            on_decide=self._read_decided,
            on_exhausted=self._read_exhausted,
            telemetry=endpoint.owner.telemetry,
            owner=endpoint.owner.pid,
        )
        self._read_handler: Callable[[bytes], None] | None = None
        self._read_fallback_cb: Callable[[], None] | None = None
        self._read_timer: Any = None
        self._read_span = None
        self.reads_sent = 0
        self.read_fastpath_hits = 0
        self.read_fastpath_fallbacks = 0
        # Read-tier load balancing: reads rotate through the domain's
        # read-only replicas instead of always fanning to the whole set.
        self._read_rr = 0
        self.reader_polls: dict[str, int] = {}
        self._read_decided_wm: int | None = None

    @property
    def connected(self) -> bool:
        return self.endpoint.key_store.current_key(self.conn_id) is not None

    @property
    def outstanding(self) -> bool:
        return self._on_reply is not None

    def send_request(self, wire: bytes, on_reply: Callable[[bytes], None] | None) -> None:
        """Encrypt and submit one GIOP request into the target's ordering."""
        if self._on_reply is not None:
            raise RuntimeError(
                f"connection {self.conn_id} already has an outstanding request "
                "(ITDOS allows exactly one, §3.6)"
            )
        key = self.endpoint.key_store.current_key(self.conn_id)
        if key is None:
            raise RuntimeError(f"connection {self.conn_id} has no communication key")
        self._next_request_id += 1
        request_id = self._next_request_id
        # Peek our own marshalling's preamble to learn interface/operation,
        # which select the reply comparator (inexact for float results,
        # §3.6) — no need to re-unmarshal the argument payload we just built.
        header = peek_request_header(wire)
        comparator = reply_value_comparator(
            self.endpoint.directory, header.interface_name, header.operation
        )
        self.voter.begin(request_id, comparator)
        self._reply_memo.clear()
        self._on_reply = on_reply
        nonce = traffic_nonce(self.conn_id, request_id, self.endpoint.owner.pid, "req")
        envelope = SmiopRequest(
            conn_id=self.conn_id,
            request_id=request_id,
            key_id=key.key_id,
            ciphertext=encrypt(key, wire, nonce),
            sender=self.endpoint.owner.pid,
        )
        self.requests_sent += 1
        t = self.endpoint.owner.telemetry
        if t.enabled:
            span = t.begin(
                "smiop.request",
                parent=t.current,
                pid=self.endpoint.owner.pid,
                conn=self.conn_id,
                request=request_id,
                iface=header.interface_name,
                op=header.operation,
            )
            self._active_span = span
            ctx = span.ctx if span is not None else t.current
            # Server elements find this ctx again when they send their reply
            # copies — the (domain, conn, request) triple crosses the wire.
            t.bind(
                ("smiop.req", self.target.domain_id, self.conn_id, request_id), ctx
            )
            with t.use(ctx):
                self.endpoint.engine_for(self.target.domain_id).invoke(
                    envelope.to_payload()
                )
        else:
            self.endpoint.engine_for(self.target.domain_id).invoke(envelope.to_payload())
        if on_reply is None:
            self._on_reply = None  # oneway: nothing outstanding
        else:
            self._retry_attempt = 0
            self._schedule_retry(envelope)

    # -- retransmission ------------------------------------------------------

    def _schedule_retry(self, envelope: SmiopRequest) -> None:
        delay = min(self.RETRY_BASE * (2 ** self._retry_attempt), self.RETRY_CAP)
        self._retry_timer = self.endpoint.owner.set_timer(
            delay, lambda: self._retry(envelope)
        )

    def _retry(self, envelope: SmiopRequest) -> None:
        self._retry_timer = None
        if (
            self._on_reply is None
            or self.voter.current_request_id != envelope.request_id
            or self.voter.decision is not None
        ):
            return  # decided (or superseded): nothing outstanding to push
        self._retry_attempt += 1
        self.retransmissions += 1
        t = self.endpoint.owner.telemetry
        if t.enabled:
            # Retransmission pressure against this server domain feeds the
            # timeliness side of fault estimation.
            t.detect.observe_retransmission(self.target.domain_id)
        self.endpoint.engine_for(self.target.domain_id).invoke(envelope.to_payload())
        self._schedule_retry(envelope)

    def _cancel_retry(self) -> None:
        if self._retry_timer is not None:
            self.endpoint.owner.cancel_timer(self._retry_timer)
            self._retry_timer = None

    # -- read fast path --------------------------------------------------------

    @property
    def outstanding_read(self) -> bool:
        return self._read_handler is not None

    def read_request(
        self,
        wire: bytes,
        on_reply: Callable[[bytes], None],
        on_fallback: Callable[[], None],
    ) -> None:
        """Fan a read-only request out for tentative execution.

        Point-to-point to every element of the target domain (core and read
        tier), bypassing BFT ordering entirely. Decides on 2f+1 core
        replies matching on (watermark, value); on timeout or divergence,
        ``on_fallback`` fires exactly once and the caller resubmits the
        same GIOP wire through the ordered path (which allocates a fresh
        ordered request id — no id-space interference, no duplicate
        execution, because the tentative execution touched no state).
        """
        if self._read_handler is not None:
            raise RuntimeError(
                f"connection {self.conn_id} already has an outstanding read"
            )
        key = self.endpoint.key_store.current_key(self.conn_id)
        if key is None:
            raise RuntimeError(f"connection {self.conn_id} has no communication key")
        self._next_read_id += 1
        read_id = self._next_read_id
        header = peek_request_header(wire)
        comparator = reply_value_comparator(
            self.endpoint.directory, header.interface_name, header.operation
        )
        readers = self._rotate_readers()
        self.read_voter.begin(read_id, comparator, readers_polled=readers)
        self._read_memo.clear()
        self._read_handler = on_reply
        self._read_fallback_cb = on_fallback
        self._read_decided_wm = None
        nonce = traffic_nonce(self.conn_id, read_id, self.endpoint.owner.pid, "trq")
        envelope = ReadRequest(
            conn_id=self.conn_id,
            read_id=read_id,
            key_id=key.key_id,
            ciphertext=encrypt(key, wire, nonce),
            sender=self.endpoint.owner.pid,
        )
        self.reads_sent += 1
        t = self.endpoint.owner.telemetry
        if t.enabled:
            self._read_span = t.begin(
                "smiop.read",
                parent=t.current,
                pid=self.endpoint.owner.pid,
                conn=self.conn_id,
                read=read_id,
                iface=header.interface_name,
                op=header.operation,
            )
        for pid in self.target.element_ids + readers:
            self.endpoint.owner.send(pid, envelope)
        self._read_timer = self.endpoint.owner.set_timer(
            self.endpoint.directory.READ_TIMEOUT,
            lambda: self._read_give_up(read_id, "timeout"),
        )

    #: Read-tier replicas polled per read. The quorum always comes from the
    #: core fan-out; readers only absorb load, so one per read suffices and
    #: rotating the pick round-robin spreads reads evenly across the tier.
    READ_TIER_FANOUT = 1

    def _rotate_readers(self) -> tuple[str, ...]:
        """The read-tier subset this read polls (round-robin rotation)."""
        readers = self.target.read_only_ids
        if len(readers) > self.READ_TIER_FANOUT:
            start = self._read_rr % len(readers)
            self._read_rr += 1
            readers = tuple(
                readers[(start + i) % len(readers)]
                for i in range(self.READ_TIER_FANOUT)
            )
        for pid in readers:
            self.reader_polls[pid] = self.reader_polls.get(pid, 0) + 1
        return readers

    def _cancel_read_timer(self) -> None:
        if self._read_timer is not None:
            self.endpoint.owner.cancel_timer(self._read_timer)
            self._read_timer = None

    def _finish_read_span(self, outcome: str) -> None:
        span, self._read_span = self._read_span, None
        t = self.endpoint.owner.telemetry
        if not t.enabled:
            return
        if span is not None:
            t.point("read.outcome", parent=span.ctx, outcome=outcome)
            t.end(span)
            t.registry.histogram(
                "smiop_read_seconds",
                "Fast-path read latency (fan-out to voted reply)",
                labels=("domain", "outcome"),
            ).labels(domain=self.target.domain_id, outcome=outcome).observe(
                span.end - span.start
            )

    def handle_read_reply(self, src: str, reply: ReadReply) -> None:
        """Feed one tentative reply through MAC check/decrypt/read-vote.

        Late core replies of a settled read carry no information; a late
        *reader* reply feeds the per-tier lag metric once, as its ballot
        refuses a replay before the MAC and decrypt."""
        if reply.read_id != self.read_voter.current_read_id:
            return
        settled = self._read_handler is None
        if settled:
            if reply.tier != "read" or self._read_decided_wm is None:
                return
            if refusal := self.read_voter.refusal(reply.sender, reply.read_id, "read"):
                self.read_voter.discard(refusal)
                return
        # A reply re-labelled, replayed from another read or connection, or
        # claiming another sender costs one HMAC: the MAC binds them all.
        mac_key = self.endpoint.directory.read_key(
            self.endpoint.owner.pid, reply.sender
        )
        expected = mac_key and read_reply_mac(
            mac_key, self.conn_id, reply.read_id, reply.sender, reply.tier,
            reply.watermark, reply.ciphertext,
        )
        if not expected or not constant_time_equal(reply.mac, expected):
            self.read_voter.discard("mac")
            self._garbage(reply.sender, "mac")
            return
        key = self.endpoint.key_store.key_for(self.conn_id, reply.key_id)
        if key is None:
            return  # rekey in flight: let the read fall back rather than park
        try:
            plaintext = decrypt(key, reply.ciphertext)
        except AuthenticationError:
            self.read_voter.discard("decrypt")
            self._garbage(reply.sender, "decrypt")
            return
        if settled:
            self._observe_reader_lag(reply.sender, reply.watermark)
            self.read_voter.offer(reply.sender, reply.read_id, reply.watermark, None, tier="read")
            return
        decoded = self._decode_reply(self.read_voter, self._read_memo, reply.sender, plaintext)
        if decoded is None:
            return
        value, _memoized = decoded
        self.read_voter.offer(
            reply.sender,
            reply.read_id,
            reply.watermark,
            value,
            raw=plaintext,
            tier=reply.tier,
        )

    def _observe_reader_lag(self, sender: str, watermark: int) -> None:
        t = self.endpoint.owner.telemetry
        if t.enabled and self._read_decided_wm is not None:
            t.registry.histogram(
                "read_tier_reply_lag",
                "Committed-prefix lag of read-tier replies vs the decided "
                "watermark (ordered payloads)",
                labels=("element",),
            ).labels(element=sender).observe(
                float(self._read_decided_wm - watermark)
            )

    def _read_decided(self, outcome: ReadOutcome) -> None:
        self._cancel_read_timer()
        self.read_fastpath_hits += 1
        self._read_decided_wm = outcome.watermark
        owner = self.endpoint.owner
        observer = owner.network.observer
        if observer is not None:
            # The chaos checker holds the decided watermark to the prefix.
            observer.on_read_decided(
                owner.pid, self.conn_id, outcome.read_id, outcome.watermark
            )
        t = owner.telemetry
        if t.enabled:
            t.registry.counter(
                "read_fastpath_hits_total",
                "Fast-path reads decided tentatively, by domain",
                labels=("domain",),
            ).labels(domain=self.target.domain_id).inc()
            for sender, wm in self.read_voter.reader_ballots:
                self._observe_reader_lag(sender, wm)
        self._finish_read_span("hit")
        handler, self._read_handler = self._read_handler, None
        self._read_fallback_cb = None
        if handler is not None:
            handler(outcome.representative)

    def _read_exhausted(self, read_id: int) -> None:
        self._read_give_up(read_id, "divergence")

    def _read_give_up(self, read_id: int, reason: str) -> None:
        """Timeout or divergence: resubmit through the ordered path."""
        if self._read_handler is None or read_id != self.read_voter.current_read_id:
            self._read_timer = None
            return
        self._cancel_read_timer()
        self.read_voter.abandon()
        self.read_fastpath_fallbacks += 1
        t = self.endpoint.owner.telemetry
        if t.enabled:
            t.registry.counter(
                "read_fastpath_fallbacks_total",
                "Fast-path reads resubmitted through ordering, by reason",
                labels=("domain", "reason"),
            ).labels(domain=self.target.domain_id, reason=reason).inc()
        self._finish_read_span("fallback")
        self._read_handler = None
        fallback, self._read_fallback_cb = self._read_fallback_cb, None
        if fallback is not None:
            fallback()

    # -- reply path ----------------------------------------------------------

    def _garbage(self, sender: str, reason: str) -> None:
        """Attribute an undecodable reply copy to its claimed sender.

        Soft signal only: the simulated network never spoofs sender ids,
        but corruption of an honest sender's ciphertext or signature in
        flight produces exactly the same observation. A copy the voter
        refuses unread (see :meth:`handle_reply`) never gets here.
        """
        t = self.endpoint.owner.telemetry
        if t.enabled:
            t.detect.observe_garbage(sender, reason)

    def _decode_reply(
        self, voter: Any, memo: dict, sender: str, plaintext: bytes
    ) -> tuple[tuple[int, Any], bool] | None:
        """``((status, result), memoized)`` for one reply plaintext, through
        ``voter``'s decode memo; ``None`` once garbage is discarded from
        ``voter``."""
        cached = memo.get(plaintext)
        if cached is not None:
            self.reply_memo_hits += 1
            return (cached[0], _copy_value(cached[1])), True
        self.reply_decodes += 1
        try:
            message = decode_message(self.endpoint.directory.repository, plaintext)
        except Exception:  # noqa: BLE001 - garbage from a Byzantine element
            message = None
        if not isinstance(message, ReplyMessage):
            voter.discard("malformed")
            self._garbage(sender, "malformed")
            return None
        status = int(message.reply_status)
        # The memo keeps a private copy so no consumer of the decoded value
        # can mutate the cached entry (see _copy_value).
        memo[plaintext] = (status, _copy_value(message.result))
        return (status, message.result), False

    def handle_reply(self, reply: SmiopReply) -> None:
        """Feed one element's reply copy through decrypt/verify/vote.

        A copy :meth:`ReplyVoter.refusal` refuses from its clear-text fields
        is discarded first: no key lookup, decrypt, verify or unmarshal, and
        never parked. So a forged copy under a stale id is not reported to
        :meth:`_garbage`; the id is the sender's own claim (§3.6). Stragglers
        of the current request still take the full path.
        """
        if (reason := self.voter.refusal(reply.sender, reply.request_id)) is not None:
            self.voter.discard(reason)
            return
        key = self.endpoint.key_store.key_for(self.conn_id, reply.key_id)
        if key is None:
            # Key generation not assembled yet (rekey in flight): park it.
            self.endpoint.key_store.when_key(
                self.conn_id, reply.key_id, lambda _key: self.handle_reply(reply)
            )
            return
        try:
            plaintext = decrypt(key, reply.ciphertext)
        except AuthenticationError:
            self.voter.discard("decrypt")
            self._garbage(reply.sender, "decrypt")
            return
        if not self.endpoint.directory.keyring.verify(
            reply.sender, plaintext, reply.signature
        ):
            self.voter.discard("signature")
            self._garbage(reply.sender, "signature")
            return
        if reply.is_digest:
            # Large-object path: the plaintext IS the 32-byte value digest.
            if len(plaintext) != 32:
                self.voter.discard("malformed")
                self._garbage(reply.sender, "malformed")
                return
            self.voter.offer(
                reply.sender,
                reply.request_id,
                ("__digest__", plaintext),
                raw=None,
            )
            return
        decoded = self._decode_reply(self.voter, self._reply_memo, reply.sender, plaintext)
        if decoded is None:
            return
        value, memoized = decoded
        t = self.endpoint.owner.telemetry
        if t.enabled:
            t.registry.counter(
                "smiop_reply_unmarshal_total",
                "Reply-copy unmarshals on the client voter path",
                labels=("source",),
            ).labels(source="memo" if memoized else "decode").inc()
        self.voter.offer(
            reply.sender,
            reply.request_id,
            value,
            raw=(plaintext, reply.signature),
        )

    def _finish_request_span(self, request_id: int) -> None:
        span, self._active_span = self._active_span, None
        t = self.endpoint.owner.telemetry
        if not t.enabled:
            return
        t.unbind(("smiop.req", self.target.domain_id, self.conn_id, request_id))
        if span is not None:
            t.end(span)
            t.registry.histogram(
                "smiop_request_seconds",
                "Outstanding-request latency (send to voted reply)",
                labels=("domain",),
            ).labels(domain=self.target.domain_id).observe(span.end - span.start)

    def _decided(self, outcome: VoteOutcome) -> None:
        self._cancel_retry()
        t = self.endpoint.owner.telemetry
        if t.enabled:
            t.point(
                "vote.decide",
                parent=self._active_span.ctx if self._active_span else t.current,
                pid=self.endpoint.owner.pid,
                conn=self.conn_id,
                request=outcome.request_id,
                supporters=len(outcome.supporters),
                dissenters=len(outcome.dissenters),
            )
        if isinstance(outcome.value, tuple) and outcome.value[0] == "__digest__":
            # Digest vote decided: fetch the body once from a supporter.
            self._awaiting_body = (
                outcome.request_id,
                outcome.value[1],
                sorted(outcome.supporters),
            )
            self._fetch_body()
            return
        self._finish_request_span(outcome.request_id)
        handler, self._on_reply = self._on_reply, None
        plaintext, _signature = outcome.representative
        if handler is not None:
            handler(plaintext)

    # -- large-object body fetch (extension, §4 future work) --------------------

    def _fetch_body(self) -> None:
        if self._awaiting_body is None:
            return
        request_id, value_digest, supporters = self._awaiting_body
        if not supporters:
            self._awaiting_body = None
            return  # every supporter refused: give up, client will retry
        target = supporters[0]
        self.body_fetches += 1
        self.endpoint.owner.send(
            target,
            BodyRequest(
                conn_id=self.conn_id,
                request_id=request_id,
                requester=self.endpoint.owner.pid,
            ),
        )
        # If the chosen supporter is Byzantine-mute, fall through to the
        # next one after a grace period.
        def fallback() -> None:
            if self._awaiting_body is not None and self._awaiting_body[0] == request_id:
                self._awaiting_body = (request_id, value_digest, supporters[1:])
                self._fetch_body()

        self.endpoint.owner.set_timer(0.25, fallback)

    def handle_body_reply(self, src: str, reply: BodyReply) -> None:
        if self._awaiting_body is None:
            return
        request_id, value_digest, _supporters = self._awaiting_body
        if reply.request_id != request_id or reply.conn_id != self.conn_id:
            return
        key = self.endpoint.key_store.key_for(self.conn_id, reply.key_id)
        if key is None:
            return
        try:
            plaintext = decrypt(key, reply.ciphertext)
            message = decode_message(self.endpoint.directory.repository, plaintext)
        except Exception:  # noqa: BLE001 - bad body: wait for fallback
            return
        if not isinstance(message, ReplyMessage):
            return
        manifest = canonical_bytes(
            {"status": int(message.reply_status), "result": message.result}
        )
        if digest(manifest) != value_digest:
            return  # body does not match the voted digest: reject, fallback
        self._awaiting_body = None
        self._finish_request_span(request_id)
        handler, self._on_reply = self._on_reply, None
        if handler is not None:
            handler(plaintext)

    def _fault_detected(
        self, sender: str, request_id: int, evidence: list[tuple[str, Any, Any]]
    ) -> None:
        self.endpoint.report_fault(self, sender, request_id, evidence)

    def close(self) -> None:
        self._cancel_retry()
        self._cancel_read_timer()
        self.endpoint.drop_connection(self)


class SmiopEndpoint:
    """The client half of the ITDOS socket layer for one process."""

    def __init__(
        self,
        owner: Process,
        directory: SystemDirectory,
        key_store: KeyStore,
        kind: str = "singleton",  # "singleton" | "domain"
        own_domain: str = "",
    ) -> None:
        if kind not in ("singleton", "domain"):
            raise ValueError(f"bad endpoint kind {kind!r}")
        self.owner = owner
        self.directory = directory
        self.key_store = key_store
        self.kind = kind
        self.own_domain = own_domain
        self.gm_engine = BftClientEngine(owner, directory.bft_config_for(directory.gm_domain_id))
        self._engines: dict[str, BftClientEngine] = {}
        self.connections: dict[int, OutgoingConnection] = {}
        self._by_target: dict[str, OutgoingConnection] = {}
        self._awaiting_open: dict[str, list[Callable[[OutgoingConnection], None]]] = {}
        self.change_requests_sent: list[ChangeRequest] = []
        self._accusations_sent: set[tuple[int, int, str]] = set()
        self.open_requests_sent = 0
        # Open connect spans by target domain, ended when the key assembles.
        self._connect_spans: dict[str, Any] = {}
        self._closed = False
        # Incarnation bases: 0 in the simulator, local-clock values in
        # real-wire processes so a restarted client never reuses a previous
        # incarnation's BFT timestamps (client-table dedup) or SMIOP request
        # ids (per-connection high-water dedup + traffic-nonce uniqueness).
        self.timestamp_base = 0
        self.request_id_base = 0
        # Inbound routing: exact type -> handler, built once (see handle_message).
        self._routes: dict[type, Callable[[str, Any], bool]] = {
            GmShareEnvelope: self.handle_gm_share,
            BftReply: self._on_bft_reply,
            SmiopReply: self._reply_route(lambda c, src, reply: c.handle_reply(reply)),
            ReadReply: self._reply_route(OutgoingConnection.handle_read_reply),
            BodyReply: self._reply_route(OutgoingConnection.handle_body_reply),
        }

    # -- engines ---------------------------------------------------------------

    def engine_for(self, domain_id: str) -> BftClientEngine:
        engine = self._engines.get(domain_id)
        if engine is None:
            engine = BftClientEngine(
                self.owner,
                self.directory.bft_config_for(domain_id),
                timestamp_base=self.timestamp_base,
            )
            self._engines[domain_id] = engine
        return engine

    # -- shutdown ---------------------------------------------------------------

    def shutdown(self) -> None:
        """Element stop: close every virtual connection and abandon opens.

        Closing a connection cancels its retransmission timer; clearing the
        open waiters turns any still-armed ``_send_open`` retries into
        no-ops that never re-arm. Callers that need a fully quiet scheduler
        (the real-wire node harness does, to drain its event loop) follow
        up with :meth:`~repro.sim.process.Process.cancel_all_timers` on the
        owning process.
        """
        self._closed = True
        for connection in list(self.connections.values()):
            connection.close()
        self._awaiting_open.clear()
        self._connect_spans.clear()

    # -- connection establishment -------------------------------------------------

    def connect(
        self, target_domain: str, on_ready: Callable[[OutgoingConnection], None]
    ) -> None:
        """Figure 3 step 1 (or §3.4 connection reuse)."""
        if self._closed:
            raise RuntimeError(f"endpoint of {self.owner.pid!r} is shut down")
        existing = self._by_target.get(target_domain)
        if existing is not None and existing.connected:
            on_ready(existing)
            return
        waiters = self._awaiting_open.setdefault(target_domain, [])
        waiters.append(on_ready)
        if len(waiters) > 1:
            return  # open already in flight
        t = self.owner.telemetry
        if t.enabled:
            span = t.begin(
                "smiop.connect",
                parent=t.current,
                pid=self.owner.pid,
                target=target_domain,
            )
            if span is not None:
                self._connect_spans[target_domain] = span
                with t.use(span.ctx):
                    self._send_open(target_domain, attempt=0)
                return
        self._send_open(target_domain, attempt=0)

    def _send_open(self, target_domain: str, attempt: int) -> None:
        """(Re)issue the open_request; retried until the key assembles.

        Key shares travel point-to-point and can be lost; a repeated
        open_request makes the Group Manager re-issue the current
        generation's shares idempotently.
        """
        if target_domain not in self._awaiting_open:
            return  # connection came up meanwhile
        request = OpenRequest(
            requester=self.owner.pid,
            requester_kind=self.kind,
            requester_domain=self.own_domain,
            target_domain=target_domain,
        )
        self.open_requests_sent += 1
        t = self.owner.telemetry
        if t.enabled:
            t.registry.counter(
                "smiop_open_requests_total", "open_requests sent to the GM"
            ).inc()
        self.gm_engine.invoke(request.to_payload())
        retry_delay = min(2.0 * (attempt + 1), 8.0)
        self.owner.set_timer(
            retry_delay, lambda: self._send_open(target_domain, attempt + 1)
        )

    def handle_gm_share(self, src: str, envelope: GmShareEnvelope) -> bool:
        """Figure 3 step 3 (client side): verify and assemble a key share."""
        if envelope.recipient != self.owner.pid or src != envelope.gm_element:
            return False
        if not self._is_client_of(envelope):
            return False
        if self.key_store.offer_envelope(envelope, self.directory) is not None:
            self._key_ready(envelope)
        return True

    def _is_client_of(self, envelope: GmShareEnvelope) -> bool:
        if envelope.client_kind == "singleton":
            return envelope.client == self.owner.pid
        domain = self.directory.domains.get(envelope.client_domain)
        return domain is not None and self.owner.pid in domain.element_ids

    def _key_ready(self, envelope: GmShareEnvelope) -> None:
        connection = self.connections.get(envelope.conn_id)
        if connection is None:
            target = self.directory.domains.get(envelope.target_domain)
            if target is None:
                return  # f_gm + 1 elements naming an undeployed domain: drop
            connection = OutgoingConnection(self, envelope.conn_id, target)
            self.connections[envelope.conn_id] = connection
            self._by_target[envelope.target_domain] = connection
        t = self.owner.telemetry
        span = self._connect_spans.pop(envelope.target_domain, None)
        if t.enabled and span is not None:
            t.end(span)
            t.registry.histogram(
                "smiop_connect_seconds",
                "Connection establishment latency (Figure 3 round trip)",
            ).observe(span.end - span.start)
        for on_ready in self._awaiting_open.pop(envelope.target_domain, []):
            on_ready(connection)

    def drop_connection(self, connection: OutgoingConnection) -> None:
        self.connections.pop(connection.conn_id, None)
        if self._by_target.get(connection.target.domain_id) is connection:
            del self._by_target[connection.target.domain_id]

    # -- inbound routing --------------------------------------------------------

    def handle_message(self, src: str, payload: Any) -> bool:
        """Route a delivery by its type to key-share assembly, a connection's
        reply path or the BFT client engines. Returns True when consumed."""
        route = self._routes.get(type(payload))
        return route is not None and route(src, payload)

    def _reply_route(self, handle: Callable[[OutgoingConnection, str, Any], None]):
        """The route of one reply type: the connection the reply names gets
        it, if there is one and ``src`` is the sender it claims."""

        def route(src: str, reply: Any) -> bool:
            connection = self.connections.get(reply.conn_id)
            if connection is None or src != reply.sender:
                return False
            handle(connection, src, reply)
            return True

        return route

    def _on_bft_reply(self, src: str, payload: BftReply) -> bool:
        """A CL-level acknowledgement: the GM engine's or a domain engine's."""
        return self.gm_engine.handle_message(src, payload) or any(
            engine.handle_message(src, payload) for engine in self._engines.values()
        )

    # -- fault reporting -----------------------------------------------------------

    def report_fault(
        self,
        connection: OutgoingConnection,
        sender: str,
        request_id: int,
        evidence: list[tuple[str, Any, Any]],
    ) -> None:
        """§3.6: notify the Group Manager that expulsion is required."""
        accusation_key = (connection.conn_id, request_id, sender)
        if accusation_key in self._accusations_sent:
            return
        proof: tuple[ProofItem, ...] = ()
        if self.kind == "singleton":
            items = []
            for element, _value, raw in evidence:
                if raw is None:
                    continue
                plaintext, signature = raw
                items.append(
                    ProofItem(sender=element, plaintext=plaintext, signature=signature)
                )
            proof = tuple(items)
            if len(proof) < 2 * connection.target.f + 1:
                # Not enough transferable evidence yet; the voter re-calls
                # this handler as further reply copies arrive.
                return
        self._accusations_sent.add(accusation_key)
        request = ChangeRequest(
            requester=self.owner.pid,
            requester_kind=self.kind,
            requester_domain=self.own_domain,
            accused_domain=connection.target.domain_id,
            accused=(sender,),
            request_id=request_id,
            proof=proof,
        )
        self.change_requests_sent.append(request)
        t = self.owner.telemetry
        if t.enabled:
            t.registry.counter(
                "smiop_change_requests_total", "Accusations sent to the GM"
            ).inc()
            # The accusation itself is auditable: a singleton's ChangeRequest
            # carries the 2f+1 signed reply copies (transferable proof), so
            # the entry re-verifies offline; a replicated requester's GM
            # domain re-votes instead, so its request is soft here.
            t.evidence(
                "change-request",
                accused=sender,
                reporter=self.owner.pid,
                hard=bool(proof),
                detail=(
                    f"domain={connection.target.domain_id} request={request_id}"
                ),
                evidence={
                    "request_id": request_id,
                    "ballots": [
                        {
                            "sender": item.sender,
                            "plaintext": item.plaintext,
                            "signature": item.signature,
                        }
                        for item in proof
                    ],
                },
            )
            # Root a span over the accusation so the GM's verdict (and the
            # resulting expulsion event) hangs off a queryable trace.
            span = t.begin(
                "smiop.fault_report",
                parent=t.current,
                pid=self.owner.pid,
                accused=sender,
                domain=connection.target.domain_id,
                request=request_id,
            )
            with t.use(span.ctx if span is not None else t.current):
                self.gm_engine.invoke(request.to_payload())
            t.end(span)
        else:
            self.gm_engine.invoke(request.to_payload())
