"""The one catch-up round: ask every core element, adopt what a quorum agrees on.

Both adopters of replicated queue state — a rejoining core element
(:class:`~repro.recovery.coordinator.RecoveryCoordinator`) and a lagging
read-tier element (:class:`~repro.itdos.readtier.ReadOnlyElement`) — run
this same round. :class:`StateFetch` sends a
:class:`~repro.recovery.messages.QueueStateRequest` to every core element of
the domain, keys the answers by sender, groups them by
:meth:`~repro.recovery.messages.QueueStateResponse.fingerprint`, and hands
the freshest group that reaches the quorum to the caller's ``adopt``.

The quorum starts at ``2f+1`` matching responses — enough that the adopted
state is both *correct* (≥ f+1 honest) and *fresh* (intersects every commit
quorum) — capped at the number of peers that exist. If the domain cannot
produce that many identical answers (peers mid-checkpoint, or f of them
mute), rounds after :attr:`StateFetch.FULL_QUORUM_ATTEMPTS` degrade to the
correctness minimum ``f+1``: any f+1 matching responses contain at least one
honest element's, and staleness is the caller's ``acceptable`` to refuse.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.recovery.messages import QueueStateRequest, QueueStateResponse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.itdos.element import QueueElement


class StateFetch:
    """Fetch → cross-validate → adopt, with a growing window and retries.

    The caller supplies only what differs between adopters:
    ``acceptable(response)`` (is this state fresh enough for *me*?),
    ``adopt(response) -> bool`` (install it; False means "try another
    round") and ``on_give_up()`` (every attempt exhausted).
    """

    #: Simulated seconds round ``k`` collects responses for is ``k`` times
    #: this — later rounds wait longer, peers may be settling a checkpoint.
    FETCH_WINDOW = 0.25
    MAX_ATTEMPTS = 8
    #: Rounds that insist on the 2f+1 freshness quorum before f+1 will do.
    FULL_QUORUM_ATTEMPTS = 3

    def __init__(
        self,
        element: "QueueElement",
        acceptable: Callable[[QueueStateResponse], bool],
        adopt: Callable[[QueueStateResponse], bool],
        on_give_up: Callable[[], None],
    ) -> None:
        self.element = element
        # Only core elements other than ourselves vouch for state.
        self._peers = [
            p for p in element.domain_info.element_ids if p != element.pid
        ]
        self._acceptable = acceptable
        self._adopt = adopt
        self._on_give_up = on_give_up
        self.active = False
        self.attempt = 0
        # sender -> (fingerprint, response) for the current round.
        self._responses: dict[str, tuple[bytes, QueueStateResponse]] = {}
        self._timer: Any = None
        self._trace_parent: Any = None

    def start(self, trace_parent: Any = None) -> None:
        """Begin at round 1, abandoning any round in flight."""
        self.stop()
        self.attempt = 0
        self._trace_parent = trace_parent
        self._next_round()

    def stop(self) -> None:
        self.active = False
        # Snapshots are the largest payloads in the system; a finished
        # round must not keep every peer's queue image parked.
        self._responses = {}
        if self._timer is not None:
            self.element.cancel_timer(self._timer)
            self._timer = None

    def required_matching(self) -> int:
        info = self.element.domain_info
        if self.attempt <= self.FULL_QUORUM_ATTEMPTS:
            return min(2 * info.f + 1, len(self._peers))
        return info.f + 1

    def _next_round(self) -> None:
        if self.attempt >= self.MAX_ATTEMPTS:
            self._on_give_up()
            return
        self.active = True
        self.attempt += 1
        element = self.element
        t = element.telemetry
        if t.enabled:
            t.point(
                "recovery.transfer",
                parent=self._trace_parent,
                pid=element.pid,
                attempt=self.attempt,
                quorum=self.required_matching(),
            )
        request = QueueStateRequest(
            requester=element.pid, domain_id=element.domain_id, attempt=self.attempt
        )
        for peer in self._peers:
            element.send(peer, request)
        self._timer = element.set_timer(
            self.FETCH_WINDOW * self.attempt, lambda: self._settle(self._best())
        )

    def handle_response(self, src: str, response: QueueStateResponse) -> None:
        if not self.active or response.attempt != self.attempt:
            return  # stale round
        if response.sender != src or response.domain_id != self.element.domain_id:
            return
        if src not in self._peers:
            return
        self._responses[src] = (response.fingerprint(), response)
        # Adopt as soon as some fingerprint reaches the quorum — no need to
        # sit out the rest of the window.
        best = self._best()
        if best is not None:
            self._settle(best)

    def _best(self) -> QueueStateResponse | None:
        """The freshest acceptable response whose fingerprint has a quorum."""
        required = self.required_matching()
        groups: dict[bytes, list[QueueStateResponse]] = {}
        for fingerprint, response in self._responses.values():
            groups.setdefault(fingerprint, []).append(response)
        best: QueueStateResponse | None = None
        for members in groups.values():
            candidate = members[0]
            if len(members) < required or not self._acceptable(candidate):
                continue
            if best is None or candidate.appended > best.appended:
                best = candidate
        return best

    def _settle(self, best: QueueStateResponse | None) -> None:
        # The round is closed before adopting: what an adoption unblocks may
        # itself call start() (a reader that finds a fresh feed gap).
        self.stop()
        if best is None or not self._adopt(best):
            self._next_round()
