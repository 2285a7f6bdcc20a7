"""The one catch-up round: ask every peer, adopt what a quorum agrees on.

Every replica that is behind or wrong runs this same round. :class:`CatchUp`
sends a :class:`~repro.bft.messages.CatchUpRequest` to every peer, keys the
answers by sender, and hands the freshest answer whose parts are vouched for
to the caller's ``adopt``. Four callers differ only in the functions they
pass:

* a PBFT replica whose group certified a checkpoint it has not reached, or
  disagrees with (:class:`~repro.bft.replica.BftReplica`);
* a queue-mode ITDOS element that went diverged, and a rejoining one after
  the Group Manager's verdict
  (:class:`~repro.recovery.coordinator.RecoveryCoordinator`);
* a lagging read-tier element (:class:`~repro.itdos.readtier.ReadOnlyElement`).

A response carries the responder's stable checkpoint and an opaque ``blob``
that the layer above fills (empty for a plain replica). Each part is vouched
for on its own, so a liar's true parts still count. The checkpoint: it
equals the :attr:`CatchUp.certificate` the caller collected itself (2f+1
checkpoint messages from their senders), or enough distinct responders sent
the same one. The blob, unless empty: enough distinct responders sent the
same bytes; no certificate covers it. Enough is ``2f+1`` in the first
:attr:`CatchUp.FULL_QUORUM_ATTEMPTS` attempts, so that the state is both
correct and fresh, capped at the number of peers; ``f+1`` after that, since
any f+1 matching answers contain an honest one, and staleness is for the
caller's ``rank`` to refuse.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Sequence

from repro.bft.messages import CatchUpRequest, CatchUpResponse
from repro.crypto.digests import digest


class CatchUp:
    """Fetch → cross-validate → adopt, with a growing window and retries.

    ``rank(response)`` is None for a state the caller cannot use, else its
    freshness (the highest wins); ``adopt(response) -> bool`` installs it
    (False: try another attempt); ``on_give_up()`` runs once every attempt is
    exhausted. ``send(peer, request)`` puts a request on the wire.
    """

    #: Simulated seconds attempt ``k`` collects responses for is ``k`` times
    #: this — later attempts wait longer, peers may be settling a checkpoint.
    FETCH_WINDOW = 0.25
    MAX_ATTEMPTS = 8
    #: Attempts that insist on the 2f+1 freshness quorum before f+1 will do.
    FULL_QUORUM_ATTEMPTS = 3

    def __init__(
        self,
        owner: Any,
        peers: Sequence[str],
        f: int,
        send: Callable[[str, CatchUpRequest], None],
        rank: Callable[[CatchUpResponse], int | None],
        adopt: Callable[[CatchUpResponse], bool],
        on_give_up: Callable[[], None],
    ) -> None:
        self.owner = owner
        self._peers = [p for p in peers if p != owner.pid]
        self._f = f
        self._send = send
        self._rank = rank
        self._adopt = adopt
        self._on_give_up = on_give_up
        #: ``(seq, state digest)`` of the newest checkpoint the owner's group
        #: certified to the owner itself; None for an owner that orders nothing.
        self.certificate: tuple[int, bytes] | None = None
        self.active = False
        self.attempt = 0
        self.rounds = 0  # rounds started, each up to MAX_ATTEMPTS attempts
        self.failures = 0  # rounds that exhausted every attempt
        # sender -> its answer in the current attempt.
        self._responses: dict[str, CatchUpResponse] = {}
        self._timer: Any = None
        self._trace_parent: Any = None

    def start(self, trace_parent: Any = None) -> None:
        """Begin at attempt 1, abandoning any attempt in flight."""
        self.stop()
        self.attempt = 0
        self.rounds += 1
        self._trace_parent = trace_parent
        self._next_attempt()

    def stop(self) -> None:
        self.active = False
        # Snapshots are the largest payloads in the system; a finished
        # round must not keep every peer's image parked.
        self._responses = {}
        if self._timer is not None:
            self.owner.cancel_timer(self._timer)
            self._timer = None

    def required_matching(self) -> int:
        if self.attempt <= self.FULL_QUORUM_ATTEMPTS:
            return min(2 * self._f + 1, len(self._peers))
        return self._f + 1

    def _next_attempt(self) -> None:
        if self.attempt >= self.MAX_ATTEMPTS:
            self.failures += 1
            self._on_give_up()
            return
        self.active = True
        self.attempt += 1
        owner = self.owner
        t = owner.telemetry
        if t.enabled:
            t.point(
                "recovery.transfer",
                parent=self._trace_parent,
                pid=owner.pid,
                attempt=self.attempt,
                quorum=self.required_matching(),
            )
        request = CatchUpRequest(attempt=self.attempt, sender=owner.pid)
        for peer in self._peers:
            self._send(peer, request)
        self._timer = owner.set_timer(
            self.FETCH_WINDOW * self.attempt, lambda: self._settle(self._best())
        )

    def handle_response(self, src: str, response: CatchUpResponse) -> None:
        if not self.active or response.attempt != self.attempt:
            return  # stale attempt
        if response.sender != src or src not in self._peers:
            return
        self._responses[src] = response
        # Adopt as soon as some answer qualifies — no need to sit out the
        # rest of the window.
        best = self._best()
        if best is not None:
            self._settle(best)

    def _best(self) -> CatchUpResponse | None:
        """The freshest usable answer whose checkpoint and blob are each
        vouched for (see the module doc)."""
        required = self.required_matching()
        answers = [(r, (r.stable_seq, digest(r.checkpoint)), digest(r.blob))
                   for r in self._responses.values()]
        claims = Counter(claim for _, claim, _ in answers)
        blobs = Counter(blob for _, _, blob in answers)
        best, best_rank = None, None
        for response, claim, blob in answers:
            if claim != self.certificate and claims[claim] < required:
                continue
            if response.blob and blobs[blob] < required:
                continue
            rank = self._rank(response)
            if rank is not None and (best_rank is None or rank > best_rank):
                best, best_rank = response, rank
        return best

    def _settle(self, best: CatchUpResponse | None) -> None:
        # The round is closed before adopting: what an adoption unblocks may
        # itself call start() (a reader that finds a fresh feed gap).
        self.stop()
        if best is None or not self._adopt(best):
            self._next_attempt()
