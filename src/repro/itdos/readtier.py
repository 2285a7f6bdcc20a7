"""The non-voting read-only replica tier.

The Backup / Replica Directory Node pattern applied to ITDOS: a
:class:`ReadOnlyElement` hosts the same servants as its domain's core
elements and serves the tentative read fast path, but it is **outside the
3f+1 write quorum entirely** — it is not in the domain's BFT replica set,
never joins the ordering multicast group, never sends ordered replies, and
its read replies are tagged ``tier="read"`` so client voters keep them out
of quorum arithmetic. Adding readers therefore scales read capacity without
re-deriving any quorum, and a Byzantine reader can at worst serve a reply
nobody counts.

State maintenance:

* **Commit feed** — every core element streams each committed ordered
  payload to every reader (:class:`~repro.itdos.messages.CommitFeed`,
  emitted from the BFT execute upcall). A reader applies index ``i`` once
  it holds ``f+1`` byte-identical copies for ``i`` from distinct core
  elements — at least one honest, so the reader's queue is always a prefix
  of the committed order. Applied payloads run through the ordinary ORB
  pump, so the reader's servant state and commit watermark
  (``queue.processed_count``) track the core elements exactly.
* **Catch-up** — a reader that boots late, restarts, or detects a
  persistent feed gap runs the same round a rejoining core element does
  (:class:`~repro.bft.catchup.CatchUp`, same
  ``CatchUpRequest``/``CatchUpResponse`` pair, same 2f+1 → f+1 quorum
  schedule over the queue images peers send). It
  needs no petition and has no tail to replay; it accepts any agreed image
  at or past its own position.

Keying: the Group Manager registers and fences readers like core elements
(they appear in every connection's participant set and receive
GmShareEnvelopes on each (re)issue), so an expelled reader loses its keys
through the same §3.6 machinery — it just never appears in a quorum.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.bft.catchup import CatchUp
from repro.bft.messages import CatchUpResponse
from repro.crypto.signing import RsaSigner
from repro.itdos.domain import SystemDirectory
from repro.itdos.element import QueueElement, parse_image
from repro.itdos.messages import CommitFeed, GmShareEnvelope, ReadRequest
from repro.orb.core import Orb
from repro.sim.process import Process


class ReadOnlyElement(QueueElement, Process):
    """A non-voting read-tier element of one replication domain."""

    READ_TIER = "read"

    #: Feeds buffered this far beyond the applied prefix trigger a resync —
    #: a gap this wide means the missing feeds are lost, not late.
    FEED_GAP_LIMIT = 64
    #: Simulated seconds a missing next-index feed may stay missing (while
    #: later feeds accumulate) before the reader falls back to a full sync.
    FEED_STALL_TIMEOUT = 5.0

    def __init__(
        self,
        pid: str,
        directory: SystemDirectory,
        domain_id: str,
        orb: Orb,
        signer: RsaSigner,
        queue_max_bytes: int = 1 << 22,
    ) -> None:
        if pid not in directory.domain(domain_id).read_only_ids:
            raise ValueError(f"{pid!r} is not in the read tier of {domain_id!r}")
        Process.__init__(self, pid)
        self._init_element(directory, domain_id, orb, signer, "queue", queue_max_bytes)
        # f+1 byte-identical feeds per index gate application (see module doc).
        self._feed_buffer: dict[int, dict[str, bytes]] = {}
        self._feed_stall_timer: Any = None
        info = self.domain_info
        self._fetch = CatchUp(
            self, info.element_ids, info.f, self.send, self._rank, self._adopt_sync,
            on_give_up=self._mark_diverged,  # cannot catch up: stop serving reads
        )
        self.feeds_applied = 0
        self.syncs_completed = 0
        # Delivery dispatch table: everything a reader consumes.
        self._handlers: dict[type, Callable[[str, Any], Any]] = {
            CommitFeed: self._handle_commit_feed,
            CatchUpResponse: self._fetch.handle_response,
            ReadRequest: self._serve_read,
            GmShareEnvelope: self._handle_server_share,
        }

    # -- quorum isolation: what is not a reader's job ---------------------------

    def _not_my_job(self, *args: Any) -> None:
        """Ordered replies, first or repeated, come from core elements only:
        a reader's would be an extra ballot in the client's ReplyVoter. §3.6
        accusations carry quorum weight (f+1 domain change_requests); a
        non-voting element contributes observability, not accusations. And
        a reply copy to a core element's nested call rides the committed
        stream past every reader, addressed to none of them."""

    _send_reply = _resend_reply = _not_my_job
    _report_request_fault = _process_ordered_reply = _not_my_job

    def _issue_nested(self, parked, record, request_id, call) -> None:  # noqa: ANN001
        # A nested invocation needs a client role inside another domain's
        # ordering, and its reply only travels through *core* ordering —
        # a reader would park forever. Fail safe: flag the reader out of
        # service (reads get refused; the core domain is unaffected) rather
        # than wedge the pump. Read tiers are for flat workloads.
        self._parked = None
        parked.generator.close()
        self._mark_diverged()

    # -- message routing -------------------------------------------------------

    def on_message(self, src: str, payload: Any) -> None:
        # A type with no row is dropped: a reader has no ordering protocol
        # to speak, no client role, and may not vouch for state.
        handler = self._handlers.get(type(payload))
        if handler is not None:
            handler(src, payload)

    # -- commit-feed application ----------------------------------------------

    def _handle_commit_feed(self, src: str, feed: CommitFeed) -> None:
        if feed.domain_id != self.domain_id or src != feed.sender:
            return
        if src not in self.domain_info.element_ids:
            return
        if feed.index <= self.queue.total_appended:
            return  # already applied (duplicate or late copy)
        votes = self._feed_buffer.setdefault(feed.index, {})
        if src in votes:
            return
        votes[src] = feed.payload
        self._apply_ready_feeds()

    def _apply_ready_feeds(self) -> None:
        """Apply buffered feeds in index order, each at f+1 agreement."""
        applied = False
        while True:
            next_index = self.queue.total_appended + 1
            votes = self._feed_buffer.get(next_index)
            payload = self._feed_quorum(votes) if votes else None
            if payload is None:
                break
            del self._feed_buffer[next_index]
            self._apply_payload(next_index, payload)
            applied = True
        if applied:
            self._prune_feed_buffer()
            self._pump()
        self._check_feed_gap()

    def _feed_quorum(self, votes: dict[str, bytes]) -> bytes | None:
        counts: dict[bytes, int] = {}
        for payload in votes.values():
            counts[payload] = counts.get(payload, 0) + 1
            if counts[payload] >= self.domain_info.f + 1:
                return payload
        return None

    def _apply_payload(self, index: int, payload: bytes) -> None:
        # Reader queue seqs are local bookkeeping (feed indices; after a
        # sync restore, whatever core seqs the snapshot carried) — keep them
        # monotone, nothing else reads them.
        last_seq = self.queue.items[-1].seq if self.queue.items else 0
        self._append(max(index, last_seq), payload)
        self.feeds_applied += 1
        t = self.telemetry
        if t.enabled:
            t.registry.counter(
                "read_tier_feeds_applied_total",
                "Committed payloads applied from the commit feed",
                labels=("element",),
            ).labels(element=self.pid).inc()

    def _prune_feed_buffer(self) -> None:
        for index in [i for i in self._feed_buffer if i <= self.queue.total_appended]:
            del self._feed_buffer[index]

    def _check_feed_gap(self) -> None:
        """A persistent hole in the feed stream forces a full resync."""
        if self.syncing or not self._feed_buffer:
            self._cancel_feed_stall()
            return
        if max(self._feed_buffer) > self.queue.total_appended + self.FEED_GAP_LIMIT:
            self._cancel_feed_stall()
            self.resync()
            return
        if self._feed_stall_timer is None:
            self._feed_stall_timer = self.set_timer(
                self.FEED_STALL_TIMEOUT, self._on_feed_stall
            )

    def _cancel_feed_stall(self) -> None:
        if self._feed_stall_timer is not None:
            self.cancel_timer(self._feed_stall_timer)
            self._feed_stall_timer = None

    def _on_feed_stall(self) -> None:
        self._feed_stall_timer = None
        if self.syncing:
            return
        next_index = self.queue.total_appended + 1
        if self._feed_buffer and next_index not in self._feed_buffer:
            self.resync()
        elif self._feed_buffer:
            # Copies exist but no f+1 agreement yet; keep waiting bounded.
            self._check_feed_gap()

    # -- full catch-up (the shared fetch-and-adopt round) -----------------------

    @property
    def syncing(self) -> bool:
        return self._fetch.active

    def resync(self) -> None:
        """Fetch and adopt a cross-validated snapshot from the core tier.

        While syncing the reader keeps serving reads from its (stale but
        consistent) committed prefix — the watermark tag keeps those
        replies honest, and they carry no quorum weight anyway.
        """
        if not self.syncing:
            self._fetch.start()

    def _rank(self, response: CatchUpResponse) -> int | None:
        image = parse_image(response.blob)
        if image is None or image["appended"] < self.queue.total_appended:
            return None
        return image["appended"]

    def _adopt_sync(self, response: CatchUpResponse) -> bool:
        image = parse_image(response.blob)
        if image is None or not self._restore_queue_state(image):
            return False
        self.diverged = False
        self.syncs_completed += 1
        self._prune_feed_buffer()
        t = self.telemetry
        if t.enabled:
            t.registry.counter(
                "read_tier_syncs_total",
                "Full catch-up state transfers completed by readers",
                labels=("element",),
            ).labels(element=self.pid).inc()
        self._apply_ready_feeds()
        self._pump()
        return True

    def on_restart(self) -> None:
        self._wipe_volatile()
        self._feed_buffer.clear()
        self._feed_stall_timer = None
        # A restarted reader resyncs instead of staying diverged — its
        # whole state is derived, so re-derivation is always legal.
        self._fetch.start()
