"""Application-level Byzantine elements for the chaos harness.

The wire adversary (:mod:`repro.chaos.adversary`) models line noise and
signed-garbage equivocation; these classes model a *protocol-correct lie*:
an element inside the f budget that follows every rule except one. They
plug into :meth:`ItdosSystem.add_server_domain` via the ``byzantine`` /
``reader_class`` hooks, so a chaos cell's ground truth names exactly which
pids run them.
"""

from __future__ import annotations

from repro.itdos.messages import ReadRequest
from repro.itdos.readtier import ReadOnlyElement
from repro.itdos.replica import ItdosServerElement


class ForgedWatermarkElement(ItdosServerElement):
    """A core element whose tentative reads lie about the commit watermark.

    Alternates between *futuristic* (claims a prefix nobody committed yet)
    and *stale* (claims an old prefix while serving current state) — both
    validly MACed, so only the client's 2f+1 matching-(watermark, value)
    quorum stands between the lie and a decided read. The chaos invariant
    ``read-decided-beyond-commit`` asserts the quorum always wins.
    """

    #: How far ahead the forged watermark claims to be.
    FORGE_AHEAD = 7

    def _serve_read(self, src: str, envelope: ReadRequest) -> None:
        queue = self.queue
        true_processed = queue.processed_count
        if envelope.read_id % 2:
            queue.processed_count = true_processed + self.FORGE_AHEAD
        else:
            queue.processed_count = max(0, true_processed - self.FORGE_AHEAD)
        try:
            super()._serve_read(src, envelope)
        finally:
            queue.processed_count = true_processed


class LaggingReader(ReadOnlyElement):
    """A read-tier element that silently drops most of its commit feed.

    Models a reader that fell far behind (slow disk, long GC pause): it
    keeps serving reads from its stale prefix — legal, the watermark tag
    makes staleness explicit — until the feed gap forces a full catch-up.
    """

    #: Apply only every ``KEEP_EVERY``-th feed index; drop the rest.
    KEEP_EVERY = 4

    def _handle_commit_feed(self, src, feed) -> None:  # noqa: ANN001
        if feed.index % self.KEEP_EVERY:
            return
        super()._handle_commit_feed(src, feed)
