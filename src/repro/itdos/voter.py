"""Per-connection voters.

"There is a voter element for each connection in our protocol stack" (§3.6).
Two kinds exist, matching the two directions of a connection:

* :class:`ReplyVoter` — on the client side of a connection to a replicated
  server: collates the ``n`` reply copies for the one outstanding request,
  decides at ``f+1`` identical (or by majority among ``2f+1``), flags
  dissenting senders as candidate faults, and discards anything carrying a
  stale request identifier ("the receiver neither uses the message's value
  nor penalizes the sender"). :meth:`ReplyVoter.refusal` lets the transport
  apply that rule before any crypto, so a forged stale copy is not garbage.
* :class:`RequestVoter` — on each server element, for connections whose
  client is itself a replication domain: collates the ordered copies of a
  logical request and delivers one voted request to the ORB. Because the
  copies arrive in the same total order everywhere and the voter is
  deterministic, every element delivers the same request at the same point
  (§3.6).

Both bound their memory (voter garbage collection, experiment E9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.itdos.vvm import (
    Comparator,
    VoteDecision,
    ballot_key,
    dissenting_senders,
    majority_vote,
    watermarked_comparator,
)
from repro.obs.telemetry import NOOP_TELEMETRY, Telemetry

# Hard cap on ballots retained for one request id: n can never legitimately
# exceed the domain size, so anything beyond that is an attack or a bug.
MAX_BALLOTS_FACTOR = 2

# Hard cap on *distinct* pending request ids a RequestVoter tracks. The
# client side of a connection is one-outstanding (§3.6), so honest ordered
# copies only ever reference the next one or two ids; a Byzantine client
# element spraying far-future ids must not be able to allocate per-id state
# without bound. Delivery happens in id order, so the window keeps the
# lowest pending ids — the ones that can actually still be delivered.
MAX_PENDING_REQUESTS = 8


def _is_signed_raw(raw: Any) -> bool:
    """Does a voter's raw ballot carry a (plaintext, signature) byte pair?

    The SMIOP transport offers replies as ``raw=(plaintext, signature)``
    only after the keyring verified the signature, so a True here means the
    sender provably signed the ballot value.
    """
    return (
        isinstance(raw, tuple)
        and len(raw) == 2
        and all(isinstance(part, (bytes, bytearray)) for part in raw)
    )


@dataclass(frozen=True)
class VoteOutcome:
    """What a voter tells its owner when a vote concludes."""

    request_id: int
    value: Any
    representative: Any  # the raw message whose value was chosen
    supporters: tuple[str, ...]
    dissenters: tuple[str, ...]


class ReplyVoter:
    """Client-side voter: one outstanding request per connection (§3.6)."""

    def __init__(
        self,
        n: int,
        f: int,
        on_decide: Callable[[VoteOutcome], None],
        on_fault: Callable[[str, int, list[tuple[str, Any, Any]]], None] | None = None,
        telemetry: Telemetry | None = None,
        owner: str = "",
    ) -> None:
        if n < 3 * f + 1:
            raise ValueError(f"n={n} too small for f={f}")
        self.n = n
        self.f = f
        self.on_decide = on_decide
        self.on_fault = on_fault or (lambda sender, request_id, evidence: None)
        self.telemetry = telemetry or NOOP_TELEMETRY
        self.owner = owner  # reporting identity for audit-log entries
        self.current_request_id: int | None = None
        self.comparator: Comparator = Comparator.exact()
        self._ballots: list[tuple[str, Any]] = []
        # Content keys parallel to ``_ballots``: byte-identical copies (the
        # common case — all correct replicas of a deterministic servant)
        # share comparator evaluations inside majority_vote. Purely a
        # memoisation; decisions are identical with or without keys.
        self._keys: list[bytes | None] = []
        self._raw: dict[str, Any] = {}
        self._decided: VoteDecision | None = None
        self.discarded = 0  # stale / overflow messages dropped (E9)
        # Elements already health-flagged for the current request, so a
        # straggler re-report does not double-count one dissent.
        self._dissent_reported: set[str] = set()

    def discard(self, reason: str) -> None:
        """Drop one message without penalty, keeping the count observable."""
        self.discarded += 1
        t = self.telemetry
        if t.enabled:
            t.registry.counter(
                "voter_discarded_total", "Messages voters dropped, by reason",
                labels=("kind", "reason"),
            ).labels(kind="reply", reason=reason).inc()

    # -- lifecycle ----------------------------------------------------------

    def begin(self, request_id: int, comparator: Comparator) -> None:
        """Start voting for a new outstanding request.

        Garbage-collects all state of the previous request — "the voter
        must perform garbage collection to continue making progress and
        limit the resources it uses".
        """
        if self.current_request_id is not None and request_id <= self.current_request_id:
            raise ValueError("request identifiers must be strictly increasing")
        self.current_request_id = request_id
        self.comparator = comparator
        self._ballots = []
        self._keys = []
        self._raw = {}
        self._decided = None
        self._dissent_reported = set()

    @property
    def ballots_held(self) -> int:
        """Memory bound check for E9."""
        return len(self._ballots)

    # -- message intake -------------------------------------------------------

    def refusal(self, sender: str, request_id: int) -> str | None:
        """``"stale"``, ``"duplicate"`` or ``"overflow"`` if a copy can no
        longer count, else None; both inputs travel in the clear."""
        if request_id != self.current_request_id:
            return "stale"
        if sender in self._raw:
            return "duplicate"
        if len(self._ballots) >= self.n * MAX_BALLOTS_FACTOR:
            return "overflow"
        return None

    def offer(self, sender: str, request_id: int, value: Any, raw: Any = None) -> None:
        """Consider one reply copy.

        Copies :meth:`refusal` refuses are discarded without penalty: a late
        reply and a Byzantine replay are indistinguishable here (§3.6). The
        transport asks first, so such copies skip decrypt and verify too.
        """
        if (reason := self.refusal(sender, request_id)) is not None:
            self.discard(reason)
            return
        self._ballots.append((sender, value))
        self._keys.append(ballot_key(value))
        self._raw[sender] = raw
        if self._decided is None:
            self._maybe_decide()
        else:
            # Post-decision stragglers still inform fault detection — and
            # each one *grows the evidence*, so re-report every known
            # dissenter (the owner deduplicates accusations; a proof that
            # was too thin at decision time may be sufficient now).
            dissenters = list(
                dissenting_senders(self._decided.value, self._ballots, self.comparator)
            )
            if dissenters:
                self._report_faults(dissenters)

    def _maybe_decide(self) -> None:
        # Early decision: f+1 identical values guarantee one correct sender.
        decision = majority_vote(
            self._ballots, self.f + 1, self.comparator, keys=self._keys
        )
        if not decision.decided and len(self._ballots) >= 2 * self.f + 1:
            # 2f+1 total received but no f+1 agreement — with at most f
            # faults this cannot happen for equal-valued correct replicas;
            # keep waiting for more copies.
            return
        if not decision.decided:
            return
        self._decided = decision
        t = self.telemetry
        if t.enabled:
            t.registry.counter(
                "voter_decisions_total", "Concluded votes", labels=("kind",)
            ).labels(kind="reply").inc()
        representative = self._raw.get(decision.supporters[0])
        outcome = VoteOutcome(
            request_id=self.current_request_id or 0,
            value=decision.value,
            representative=representative,
            supporters=decision.supporters,
            dissenters=decision.dissenters,
        )
        if decision.dissenters:
            self._report_faults(list(decision.dissenters))
        self.on_decide(outcome)

    def _report_faults(self, senders: list[str]) -> None:
        assert self._decided is not None
        t = self.telemetry
        if t.enabled:
            # Signed ballots make the accusation transferable: anyone can
            # re-run the comparator and the signature checks offline.
            signed_ballots = [
                {"sender": s, "plaintext": raw[0], "signature": raw[1]}
                for s, raw in sorted(self._raw.items())
                if _is_signed_raw(raw)
            ]
            for sender in senders:
                if sender not in self._dissent_reported:
                    self._dissent_reported.add(sender)
                    t.health.record_dissent(sender)
                    t.registry.counter(
                        "voter_dissent_total", "Dissenting reply copies, by element",
                        labels=("element",),
                    ).labels(element=sender).inc()
                    # Hard only when the dissenting reply carried a valid
                    # signature (the transport verified it before offering):
                    # the element provably vouched for the wrong value. An
                    # unsigned dissent could still be wire damage.
                    t.evidence(
                        "vote-dissent",
                        accused=sender,
                        reporter=self.owner,
                        hard=_is_signed_raw(self._raw.get(sender)),
                        detail=f"request={self.current_request_id}",
                        evidence={
                            "request_id": self.current_request_id,
                            "dissenter": sender,
                            "supporters": list(self._decided.supporters),
                            "ballots": signed_ballots,
                        },
                    )
        evidence = [
            (sender, value, self._raw.get(sender))
            for sender, value in self._ballots
        ]
        for sender in senders:
            self.on_fault(sender, self.current_request_id or 0, evidence)


@dataclass(frozen=True)
class ReadOutcome:
    """A concluded tentative-read vote (read fast path)."""

    read_id: int
    watermark: int
    value: Any
    representative: Any  # raw of one supporter (the reply plaintext)
    supporters: tuple[str, ...]
    dissenters: tuple[str, ...]


class ReadVoter:
    """Client-side voter for the tentative read fast path.

    The Castro–Liskov read-only optimization acceptance rule: ``2f+1``
    ballots matching on *(watermark, value)* from distinct **core**
    elements — at least f+1 of them correct, and all computed against the
    same committed prefix, so the decided value is the one an ordered read
    at that prefix would have returned. Read-tier ballots are recorded for
    observability (per-tier reply lag) but are excluded from quorum
    arithmetic entirely: correctness never rests on a non-voting reader.

    Unlike the :class:`ReplyVoter`, divergence is not a fault symptom here:
    honest elements race reads against in-flight writes, so mismatched
    watermarks are expected. The voter therefore reports *exhaustion* (all
    ``n`` core elements answered without agreement) instead of accusing
    anyone — the owner falls back to the ordered path, whose ReplyVoter
    does assign blame.
    """

    def __init__(
        self,
        n: int,
        f: int,
        core_ids: tuple[str, ...],
        on_decide: Callable[[ReadOutcome], None],
        on_exhausted: Callable[[int], None],
        telemetry: Telemetry | None = None,
        owner: str = "",
    ) -> None:
        if n < 3 * f + 1:
            raise ValueError(f"n={n} too small for f={f}")
        self.n = n
        self.f = f
        self.core_ids = frozenset(core_ids)
        self.on_decide = on_decide
        self.on_exhausted = on_exhausted
        self.telemetry = telemetry or NOOP_TELEMETRY
        self.owner = owner
        self.current_read_id: int | None = None
        self._comparator: Comparator = Comparator.exact()
        self._ballots: list[tuple[str, Any]] = []  # sender -> (wm, value)
        self._keys: list[bytes | None] = []
        self._raw: dict[str, Any] = {}
        # (sender, watermark) per read-tier reply for the current read.
        self.reader_ballots: list[tuple[str, int]] = []
        # Read-tier replicas the current read was fanned to (rotated by the
        # owning connection; empty when the domain has no read tier).
        self.readers_polled: tuple[str, ...] = ()
        self._decided: VoteDecision | None = None
        self._exhausted = False
        self.discarded = 0

    @property
    def threshold(self) -> int:
        return 2 * self.f + 1

    @property
    def decided(self) -> bool:
        return self._decided is not None

    @property
    def ballots_held(self) -> int:
        return len(self._ballots) + len(self.reader_ballots)

    def discard(self, reason: str) -> None:
        self.discarded += 1
        t = self.telemetry
        if t.enabled:
            t.registry.counter(
                "voter_discarded_total", "Messages voters dropped, by reason",
                labels=("kind", "reason"),
            ).labels(kind="read", reason=reason).inc()

    def begin(
        self,
        read_id: int,
        value_comparator: Comparator,
        readers_polled: tuple[str, ...] = (),
    ) -> None:
        """Start a new tentative read; GCs all prior-read state.

        ``readers_polled`` names the read-tier replicas the socket fanned
        this read to (the connection rotates the set for load balancing) —
        recorded so lag observability can tell "reader not polled" apart
        from "reader silent".
        """
        if self.current_read_id is not None and read_id <= self.current_read_id:
            raise ValueError("read identifiers must be strictly increasing")
        self.current_read_id = read_id
        self._comparator = watermarked_comparator(value_comparator)
        self._ballots = []
        self._keys = []
        self._raw = {}
        self.reader_ballots = []
        self.readers_polled = tuple(readers_polled)
        self._decided = None
        self._exhausted = False

    def abandon(self) -> None:
        """The owner gave up on the current read (timeout -> fallback)."""
        self._exhausted = True

    def offer(
        self,
        sender: str,
        read_id: int,
        watermark: int,
        value: Any,
        raw: Any = None,
        tier: str = "core",
    ) -> None:
        if read_id != self.current_read_id or self._exhausted:
            self.discard("stale")
            return
        if tier != "core" or sender not in self.core_ids:
            # Non-voting tier: observability only, never quorum input. A
            # core element claiming tier="read" is demoting itself — its
            # ballot simply stops counting, which is never an advantage.
            self.reader_ballots.append((sender, watermark))
            return
        if sender in self._raw:
            self.discard("duplicate")
            return
        if len(self._ballots) >= self.n * MAX_BALLOTS_FACTOR:
            self.discard("overflow")
            return
        ballot = (watermark, value)
        self._ballots.append((sender, ballot))
        self._keys.append(ballot_key(ballot))
        self._raw[sender] = raw
        if self._decided is not None:
            return
        decision = majority_vote(
            self._ballots, self.threshold, self._comparator, keys=self._keys
        )
        if decision.decided:
            self._decided = decision
            t = self.telemetry
            if t.enabled:
                t.registry.counter(
                    "voter_decisions_total", "Concluded votes", labels=("kind",)
                ).labels(kind="read").inc()
            wm, decided_value = decision.value
            self.on_decide(
                ReadOutcome(
                    read_id=read_id,
                    watermark=wm,
                    value=decided_value,
                    representative=self._raw.get(decision.supporters[0]),
                    supporters=decision.supporters,
                    dissenters=decision.dissenters,
                )
            )
            return
        if len(self._raw) >= self.n:
            # Every core element answered and no 2f+1 (watermark, value)
            # agreement exists — concurrent writes moved the prefix under
            # us (or <=f elements lied). Report exhaustion exactly once.
            self._exhausted = True
            self.on_exhausted(read_id)


class RequestVoter:
    """Server-side voter for requests from a replicated client domain.

    Ordered copies stream in; at ``f_client + 1`` equal copies the request
    is delivered once. State for a request id is garbage-collected on
    delivery; stale copies of already-delivered requests are discarded.
    """

    def __init__(
        self,
        client_n: int,
        client_f: int,
        on_deliver: Callable[[VoteOutcome], None],
        telemetry: Telemetry | None = None,
        owner: str = "",
    ) -> None:
        self.client_n = client_n
        self.client_f = client_f
        self.on_deliver = on_deliver
        self.telemetry = telemetry or NOOP_TELEMETRY
        self.owner = owner
        self._ballots: dict[int, list[tuple[str, Any]]] = {}
        # Parallel content keys per request id (see ReplyVoter._keys).
        self._keys: dict[int, list[bytes | None]] = {}
        self._raw: dict[int, dict[str, Any]] = {}
        self._delivered_up_to = 0
        self.discarded = 0

    def discard(self, reason: str, count: int = 1) -> None:
        """Drop messages without penalty, keeping the count observable."""
        self.discarded += count
        t = self.telemetry
        if t.enabled and count:
            t.registry.counter(
                "voter_discarded_total", "Messages voters dropped, by reason",
                labels=("kind", "reason"),
            ).labels(kind="request", reason=reason).inc(count)

    @property
    def threshold(self) -> int:
        return self.client_f + 1

    def ballots_held(self) -> int:
        return sum(len(b) for b in self._ballots.values())

    def offer(
        self,
        sender: str,
        request_id: int,
        value: Any,
        comparator: Comparator,
        raw: Any = None,
    ) -> None:
        if request_id <= self._delivered_up_to:
            # Already garbage-collected: the copy is counted and dropped, it
            # must never resurrect per-request state (E9).
            self.discard("stale")
            return
        if request_id not in self._raw and len(self._raw) >= MAX_PENDING_REQUESTS:
            highest = max(self._raw)
            if request_id > highest:
                self.discard("overflow")
                return
            # The new id precedes a tracked one, so the tracked maximum is
            # the furthest from delivery — evict it to stay bounded.
            self.discard("overflow", len(self._ballots.pop(highest, [])))
            self._keys.pop(highest, None)
            self._raw.pop(highest, None)
        raw_by_sender = self._raw.setdefault(request_id, {})
        if sender in raw_by_sender:
            self.discard("duplicate")
            return
        ballots = self._ballots.setdefault(request_id, [])
        if len(ballots) >= self.client_n * MAX_BALLOTS_FACTOR:
            self.discard("overflow")
            return
        ballots.append((sender, value))
        keys = self._keys.setdefault(request_id, [])
        keys.append(ballot_key(value))
        raw_by_sender[sender] = raw
        decision = majority_vote(ballots, self.threshold, comparator, keys=keys)
        if decision.decided:
            representative = raw_by_sender.get(decision.supporters[0])
            outcome = VoteOutcome(
                request_id=request_id,
                value=decision.value,
                representative=representative,
                supporters=decision.supporters,
                dissenters=decision.dissenters,
            )
            t = self.telemetry
            if t.enabled:
                t.registry.counter(
                    "voter_decisions_total", "Concluded votes", labels=("kind",)
                ).labels(kind="request").inc()
                for dissenter in decision.dissenters:
                    t.health.record_dissent(dissenter)
                    t.registry.counter(
                        "voter_dissent_total", "Dissenting reply copies, by element",
                        labels=("element",),
                    ).labels(element=dissenter).inc()
                    # Ordered request copies are not individually signed, so
                    # a divergent copy is soft evidence only.
                    t.evidence(
                        "request-dissent",
                        accused=dissenter,
                        reporter=self.owner,
                        detail=f"request={request_id}",
                        evidence={"request_id": request_id},
                    )
            # Requests must be delivered in id order per connection: the
            # single-threaded client sends one at a time, so ids arrive in
            # order and delivery here is naturally ordered.
            self._delivered_up_to = request_id
            del self._ballots[request_id]
            del self._keys[request_id]
            del self._raw[request_id]
            # Drop any older stragglers wholesale.
            for stale in [r for r in self._ballots if r <= request_id]:
                self.discard("superseded", len(self._ballots.pop(stale, [])))
                self._keys.pop(stale, None)
                self._raw.pop(stale, None)
            self.on_deliver(outcome)
