"""Per-connection voters.

"There is a voter element for each connection in our protocol stack" (§3.6).
Three kinds exist, one per kind of vote a connection holds:

* :class:`ReplyVoter` — on the client side of a connection to a replicated
  server: collates the ``n`` reply copies for the one outstanding request,
  decides at ``f+1`` identical (or by majority among ``2f+1``), flags
  dissenting senders as candidate faults, and discards anything carrying a
  stale request identifier ("the receiver neither uses the message's value
  nor penalizes the sender"). :meth:`ReplyVoter.refusal` lets the transport
  apply that rule before any crypto, so a forged stale copy is not garbage.
* :class:`ReadVoter` — on the same client side, for the tentative read fast
  path: decides at ``2f+1`` core ballots matching on *(watermark, value)*
  and falls back to the ordered path instead of accusing anyone.
* :class:`RequestVoter` — on each server element, for connections whose
  client is itself a replication domain: collates the ordered copies of a
  logical request and delivers one voted request to the ORB. Because the
  copies arrive in the same total order everywhere and the voter is
  deterministic, every element delivers the same request at the same point
  (§3.6).

Every vote keeps its copies in one :class:`_Ballots` box, which refuses a
second copy from one sender and anything past its cap, so each voter's
memory stays bounded (voter garbage collection, experiment E9). The shared
:class:`_Voter` base keeps the discard, decision and dissent accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.itdos.vvm import (
    Comparator,
    VoteDecision,
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


class _Ballots:
    """The copies of one vote: ``(sender, value)`` in arrival order, and
    each sender's raw message."""

    __slots__ = ("copies", "raw")

    def __init__(self) -> None:
        self.copies: list[tuple[str, Any]] = []
        self.raw: dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self.copies)

    def refusal(self, sender: str, cap: int) -> str | None:
        """``"duplicate"`` or ``"overflow"`` if the copy can no longer
        count, else None."""
        if sender in self.raw:
            return "duplicate"
        if len(self.copies) >= cap:
            return "overflow"
        return None

    def add(self, sender: str, value: Any, raw: Any = None) -> None:
        self.copies.append((sender, value))
        self.raw[sender] = raw

    def vote(self, threshold: int, comparator: Comparator) -> VoteDecision:
        return majority_vote(self.copies, threshold, comparator)

    def outcome(self, request_id: int, decision: VoteDecision) -> VoteOutcome:
        """A decided vote, represented by its first supporter's raw message."""
        return VoteOutcome(
            request_id, decision.value, self.raw.get(decision.supporters[0]),
            decision.supporters, decision.dissenters,
        )


class _Voter:
    """Discard, decision and dissent accounting shared by the voters."""

    kind = ""  # the ``kind`` label of this voter's metric rows

    def __init__(self, telemetry: Telemetry | None, owner: str) -> None:
        self.telemetry = telemetry or NOOP_TELEMETRY
        self.owner = owner  # reporting identity for audit-log entries
        self.discarded = 0  # stale / duplicate / overflow copies dropped (E9)

    def discard(self, reason: str, count: int = 1) -> None:
        """Drop messages without penalty, keeping the count observable."""
        self.discarded += count
        t = self.telemetry
        if t.enabled and count:
            t.registry.counter(
                "voter_discarded_total", "Messages voters dropped, by reason",
                labels=("kind", "reason"),
            ).labels(kind=self.kind, reason=reason).inc(count)

    def _count_decision(self) -> None:
        t = self.telemetry
        if t.enabled:
            t.registry.counter(
                "voter_decisions_total", "Concluded votes", labels=("kind",)
            ).labels(kind=self.kind).inc()

    def _report_dissent(
        self, audit_kind: str, dissenter: str, request_id: int | None, hard: bool,
        evidence: dict[str, Any],
    ) -> None:
        """One dissenting copy to the health board, the metrics and the
        audit log; the caller has checked that telemetry is enabled."""
        t = self.telemetry
        t.health.record_dissent(dissenter)
        t.registry.counter(
            "voter_dissent_total", "Dissenting reply copies, by element",
            labels=("element",),
        ).labels(element=dissenter).inc()
        t.evidence(
            audit_kind, accused=dissenter, reporter=self.owner, hard=hard,
            detail=f"request={request_id}", evidence=evidence,
        )


class ReplyVoter(_Voter):
    """Client-side voter: one outstanding request per connection (§3.6)."""

    kind = "reply"

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
        super().__init__(telemetry, owner)
        self.n = n
        self.f = f
        self.on_decide = on_decide
        self.on_fault = on_fault or (lambda sender, request_id, evidence: None)
        self.current_request_id: int | None = None
        self.comparator: Comparator = Comparator.exact()
        self._box = _Ballots()
        self.decision: VoteDecision | None = None
        # Elements already health-flagged for the current request, so a
        # straggler re-report does not double-count one dissent.
        self._dissent_reported: set[str] = set()

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
        self._box = _Ballots()
        self.decision = None
        self._dissent_reported = set()

    @property
    def ballots_held(self) -> int:
        """Memory bound check for E9."""
        return len(self._box)

    # -- message intake -------------------------------------------------------

    def refusal(self, sender: str, request_id: int) -> str | None:
        """``"stale"``, ``"duplicate"`` or ``"overflow"`` if a copy can no
        longer count, else None; both inputs travel in the clear."""
        if request_id != self.current_request_id:
            return "stale"
        return self._box.refusal(sender, self.n * MAX_BALLOTS_FACTOR)

    def offer(self, sender: str, request_id: int, value: Any, raw: Any = None) -> None:
        """Consider one reply copy.

        Copies :meth:`refusal` refuses are discarded without penalty: a late
        reply and a Byzantine replay are indistinguishable here (§3.6). The
        transport asks first, so such copies skip decrypt and verify too.
        """
        if (reason := self.refusal(sender, request_id)) is not None:
            self.discard(reason)
            return
        self._box.add(sender, value, raw)
        if self.decision is None:
            self._maybe_decide()
        else:
            # Post-decision stragglers still inform fault detection — and
            # each one *grows the evidence*, so re-report every known
            # dissenter (the owner deduplicates accusations; a proof that
            # was too thin at decision time may be sufficient now).
            dissenters = list(
                dissenting_senders(self.decision.value, self._box.copies, self.comparator)
            )
            if dissenters:
                self._report_faults(dissenters)

    def _maybe_decide(self) -> None:
        # Early decision: f+1 identical values guarantee one correct sender.
        # With 2f+1 copies and no f+1 agreement (impossible for equal-valued
        # correct replicas with at most f faults), keep waiting for more.
        decision = self._box.vote(self.f + 1, self.comparator)
        if not decision.decided:
            return
        self.decision = decision
        self._count_decision()
        outcome = self._box.outcome(self.current_request_id or 0, decision)
        if decision.dissenters:
            self._report_faults(list(decision.dissenters))
        self.on_decide(outcome)

    def _report_faults(self, senders: list[str]) -> None:
        assert self.decision is not None
        raw = self._box.raw
        if self.telemetry.enabled:
            # Signed ballots make the accusation transferable: anyone can
            # re-run the comparator and the signature checks offline.
            signed_ballots = [
                {"sender": s, "plaintext": r[0], "signature": r[1]}
                for s, r in sorted(raw.items())
                if _is_signed_raw(r)
            ]
            for sender in senders:
                if sender not in self._dissent_reported:
                    self._dissent_reported.add(sender)
                    # Hard only when the dissenting reply carried a valid
                    # signature (the transport verified it before offering):
                    # the element provably vouched for the wrong value. An
                    # unsigned dissent could still be wire damage.
                    self._report_dissent(
                        "vote-dissent", sender, self.current_request_id,
                        hard=_is_signed_raw(raw.get(sender)),
                        evidence={
                            "request_id": self.current_request_id,
                            "dissenter": sender,
                            "supporters": list(self.decision.supporters),
                            "ballots": signed_ballots,
                        },
                    )
        evidence = [(sender, value, raw.get(sender)) for sender, value in self._box.copies]
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


class ReadVoter(_Voter):
    """Client-side voter for the tentative read fast path.

    The Castro–Liskov read-only optimization acceptance rule: ``2f+1``
    ballots matching on *(watermark, value)* from distinct **core**
    elements — at least f+1 of them correct, and all computed against the
    same committed prefix, so the decided value is the one an ordered read
    at that prefix would have returned. Read-tier ballots are recorded for
    observability (per-tier reply lag) in a box of their own, refused and
    capped like core ballots, but are excluded from quorum arithmetic
    entirely: correctness never rests on a non-voting reader.

    Unlike the :class:`ReplyVoter`, divergence is not a fault symptom here:
    honest elements race reads against in-flight writes, so mismatched
    watermarks are expected. The voter therefore reports *exhaustion* (all
    ``n`` core elements answered without agreement) instead of accusing
    anyone — the owner falls back to the ordered path, whose ReplyVoter
    does assign blame.
    """

    kind = "read"

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
        super().__init__(telemetry, owner)
        self.n = n
        self.f = f
        self.core_ids = frozenset(core_ids)
        self.on_decide = on_decide
        self.on_exhausted = on_exhausted
        self.current_read_id: int | None = None
        self._comparator: Comparator = Comparator.exact()
        self._box = _Ballots()  # core ballots: sender -> (watermark, value)
        self._readers = _Ballots()  # read-tier ballots: sender -> watermark
        # Read-tier replicas the current read was fanned to (rotated by the
        # owning connection; empty when the domain has no read tier).
        self.readers_polled: tuple[str, ...] = ()
        self.decision: VoteDecision | None = None
        self._exhausted = False

    @property
    def threshold(self) -> int:
        return 2 * self.f + 1

    @property
    def ballots_held(self) -> int:
        return len(self._box) + len(self._readers)

    @property
    def reader_ballots(self) -> list[tuple[str, int]]:
        """``(sender, watermark)`` per read-tier reply for the current read."""
        return self._readers.copies

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
        self._box = _Ballots()
        self._readers = _Ballots()
        self.readers_polled = tuple(readers_polled)
        self.decision = None
        self._exhausted = False

    def abandon(self) -> None:
        """The owner gave up on the current read (timeout -> fallback)."""
        self._exhausted = True

    def refusal(self, sender: str, read_id: int, tier: str) -> str | None:
        """``"stale"``, ``"duplicate"`` or ``"overflow"`` if a copy can no
        longer count, else None; every input travels in the clear."""
        if read_id != self.current_read_id or self._exhausted:
            return "stale"
        box = self._box if tier == "core" and sender in self.core_ids else self._readers
        return box.refusal(sender, self.n * MAX_BALLOTS_FACTOR)

    def offer(
        self,
        sender: str,
        read_id: int,
        watermark: int,
        value: Any,
        raw: Any = None,
        tier: str = "core",
    ) -> None:
        if (reason := self.refusal(sender, read_id, tier)) is not None:
            self.discard(reason)
            return
        if tier != "core" or sender not in self.core_ids:
            # Non-voting tier: observability only, never quorum input. A core
            # element claiming tier="read" is demoting itself — its ballot
            # simply stops counting, which is never an advantage.
            self._readers.add(sender, watermark)
            return
        box = self._box
        box.add(sender, (watermark, value), raw)
        if self.decision is not None:
            return
        decision = box.vote(self.threshold, self._comparator)
        if decision.decided:
            self.decision = decision
            self._count_decision()
            wm, decided_value = decision.value
            self.on_decide(
                ReadOutcome(
                    read_id=read_id,
                    watermark=wm,
                    value=decided_value,
                    representative=box.raw.get(decision.supporters[0]),
                    supporters=decision.supporters,
                    dissenters=decision.dissenters,
                )
            )
            return
        if len(box) >= self.n:
            # Every core element answered and no 2f+1 (watermark, value)
            # agreement exists — concurrent writes moved the prefix under
            # us (or <=f elements lied). Report exhaustion exactly once.
            self._exhausted = True
            self.on_exhausted(read_id)


class RequestVoter(_Voter):
    """Server-side voter for requests from a replicated client domain.

    Ordered copies stream in; at ``f_client + 1`` equal copies the request
    is delivered once. State for a request id is garbage-collected on
    delivery; stale copies of already-delivered requests are discarded.
    """

    kind = "request"

    def __init__(
        self,
        client_n: int,
        client_f: int,
        on_deliver: Callable[[VoteOutcome], None],
        telemetry: Telemetry | None = None,
        owner: str = "",
    ) -> None:
        super().__init__(telemetry, owner)
        self.client_n = client_n
        self.client_f = client_f
        self.on_deliver = on_deliver
        self._pending: dict[int, _Ballots] = {}  # one box per request id
        self._delivered_up_to = 0

    @property
    def threshold(self) -> int:
        return self.client_f + 1

    @property
    def ballots_held(self) -> int:
        return sum(len(box) for box in self._pending.values())

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
        if request_id not in self._pending and len(self._pending) >= MAX_PENDING_REQUESTS:
            highest = max(self._pending)
            if request_id > highest:
                self.discard("overflow")
                return
            # The new id precedes a tracked one, so the tracked maximum is
            # the furthest from delivery — evict it to stay bounded.
            self.discard("overflow", len(self._pending.pop(highest)))
        box = self._pending.setdefault(request_id, _Ballots())
        if (reason := box.refusal(sender, self.client_n * MAX_BALLOTS_FACTOR)) is not None:
            self.discard(reason)
            return
        box.add(sender, value, raw)
        decision = box.vote(self.threshold, comparator)
        if not decision.decided:
            return
        outcome = box.outcome(request_id, decision)
        self._count_decision()
        if self.telemetry.enabled:
            for dissenter in decision.dissenters:
                # Ordered request copies are not individually signed, so
                # a divergent copy is soft evidence only.
                self._report_dissent(
                    "request-dissent", dissenter, request_id, hard=False,
                    evidence={"request_id": request_id},
                )
        # Requests must be delivered in id order per connection: the
        # single-threaded client sends one at a time, so ids arrive in
        # order and delivery here is naturally ordered.
        self._delivered_up_to = request_id
        del self._pending[request_id]
        # Drop any older stragglers wholesale.
        for stale in [r for r in self._pending if r <= request_id]:
            self.discard("superseded", len(self._pending.pop(stale)))
        self.on_deliver(outcome)
