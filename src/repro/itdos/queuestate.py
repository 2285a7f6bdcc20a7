"""The message-queue state machine.

§3.1: "An ITDOS server implements a message queue that *is* the state
machine. Whenever Castro–Liskov synchronizes the replica state, the message
queue is synchronized." Each element appends totally ordered payloads and
processes them through the ORB; the replicated "state" for checkpointing is
the *unprocessed* queue suffix plus the processed count — bounded and
independent of application object size (the paper's scalability claim,
experiment E4).

The queue supports selective extraction (``pop_first``) because a parked
servant awaiting a nested reply must consume that reply from the totally
ordered channel *before* resuming, while other traffic stays queued (§3.1's
two-thread technique).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.crypto.encoding import canonical_bytes, parse_canonical


class QueueOverflow(Exception):
    """The queue exceeded its memory budget.

    §3.1: the queue lives in "a contiguous block of memory" and must be
    garbage-collected; an element that cannot keep up within the budget is
    subject to expulsion (virtual synchrony).
    """


@dataclass
class QueueItem:
    seq: int
    payload: bytes


@dataclass
class MessageQueue:
    """Ordered queue of unprocessed payloads with a byte budget."""

    max_bytes: int = 1 << 20
    items: list[QueueItem] = field(default_factory=list)
    processed_count: int = 0
    total_appended: int = 0
    bytes_held: int = 0
    # Cumulative payload bytes ever appended: the ordered-history volume
    # this replica carried. Under sharding (E20) this is the direct
    # measure of selective replication — each shard's elements see only
    # their partition's share of the traffic.
    bytes_appended: int = 0

    def append(self, seq: int, payload: bytes) -> None:
        # Non-decreasing, not strictly increasing: every request of one
        # ordered batch carries the batch's sequence number, so a BFT
        # instance may append several same-seq payloads back to back.
        if self.items and seq < self.items[-1].seq:
            raise ValueError("queue sequence numbers must not decrease")
        size = len(payload)
        if self.bytes_held + size > self.max_bytes:
            raise QueueOverflow(
                f"queue budget exceeded: {self.bytes_held + size} > {self.max_bytes}"
            )
        self.items.append(QueueItem(seq=seq, payload=payload))
        self.bytes_held += size
        self.total_appended += 1
        self.bytes_appended += size

    def __len__(self) -> int:
        return len(self.items)

    def head(self) -> QueueItem | None:
        return self.items[0] if self.items else None

    def pop_head(self) -> QueueItem:
        if not self.items:
            raise IndexError("queue is empty")
        item = self.items.pop(0)
        self.bytes_held -= len(item.payload)
        self.processed_count += 1
        return item

    def pop_first(self, predicate: Callable[[bytes], bool]) -> QueueItem | None:
        """Extract the first item whose payload satisfies ``predicate``.

        Used while a servant is parked on a nested invocation: only the
        awaited reply may jump the queue; everything else keeps its order.
        """
        for index, item in enumerate(self.items):
            if predicate(item.payload):
                self.items.pop(index)
                self.bytes_held -= len(item.payload)
                self.processed_count += 1
                return item
        return None

    # -- checkpoint integration ------------------------------------------------

    def snapshot(self) -> bytes:
        """Serialize the queue state for a PBFT checkpoint.

        All elements hold identical queues (same ordered payloads, same
        processing progress), so snapshots digest identically across a
        correct heterogeneous domain.
        """
        return canonical_bytes(
            {
                "processed": self.processed_count,
                "items": [[item.seq, item.payload] for item in self.items],
            }
        )

    def restore(self, raw: bytes) -> None:
        """Adopt a snapshot fetched by catch-up.

        Snapshots arrive from peers, so nothing is installed until the
        whole snapshot validates: entries must be well-formed
        ``[seq, payload]`` pairs with non-decreasing sequence numbers
        (batched requests share one number), and the byte total must fit
        this queue's budget. On failure the queue is left untouched.
        """
        data = parse_canonical(raw)
        if not isinstance(data, dict) or "items" not in data:
            raise ValueError("malformed queue snapshot")
        processed = data.get("processed")
        if not isinstance(processed, int) or isinstance(processed, bool) or processed < 0:
            raise ValueError("malformed queue snapshot: bad processed count")
        entries = data["items"]
        if not isinstance(entries, list):
            raise ValueError("malformed queue snapshot: items is not a list")
        items: list[QueueItem] = []
        total = 0
        last_seq: int | None = None
        for entry in entries:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError("malformed queue snapshot entry")
            seq, payload = entry
            if not isinstance(seq, int) or isinstance(seq, bool):
                raise ValueError("malformed queue snapshot entry: bad seq")
            if not isinstance(payload, bytes):
                raise ValueError("malformed queue snapshot entry: bad payload")
            if last_seq is not None and seq < last_seq:
                raise ValueError("queue snapshot sequence numbers must not decrease")
            last_seq = seq
            total += len(payload)
            if total > self.max_bytes:
                raise QueueOverflow(
                    f"queue snapshot exceeds budget: {total} > {self.max_bytes}"
                )
            items.append(QueueItem(seq=seq, payload=payload))
        self.items = items
        self.processed_count = processed
        self.bytes_held = total
        self.total_appended = processed + len(items)
        self.bytes_appended = total
