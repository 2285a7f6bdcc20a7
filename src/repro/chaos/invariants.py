"""Global safety invariants, asserted after every delivered message.

The checker is an omniscient observer, fed two ways. Processes report each
ordered batch, servant dispatch and decided fast-path read as an event on
``Network.observer`` (the checker is that observer; nothing keeps a history
list), and the checker buffers the events. Key stores, watermarks,
checkpoints and votes it reads directly from process state. After every
delivery (the observer's ``on_deliver``) it judges what it holds and raises
:class:`InvariantViolation` the moment any cross-process safety predicate
breaks — never inside the process that reported the event — so a recorded
violation trace ends at the exact delivery that broke the system, not at
whatever later symptom a test would have noticed.

Predicates (the paper's safety story, made executable):

* **prefix agreement** — every replica agrees on the batch digest at each
  sequence number it executed (PBFT safety).
* **no duplicate execution** — per (connection, request id), a servant
  dispatches at most once, ids strictly increasing (§3.6).
* **vote consistency** — a decided reply vote has ≥ f+1 distinct
  supporters, at least one of them outside the corrupt set.
* **key-epoch fence monotonicity** — per connection, the membership epoch
  and fence floor never regress, and no held key generation predates the
  floor (§3.5 + recovery fencing).
* **checkpoint/watermark consistency** — stable_seq ≤ last_executed ≤
  high watermark per replica; stable snapshots agree across a domain at
  equal sequence numbers.
* **read staleness bound** — a tentative read reply from an honest element
  never claims a watermark beyond the domain's committed prefix (the
  furthest any honest core element has appended), and every decided
  fast-path read at a client sits within that bound too: a read can be
  stale, never futuristic (E19).
* **cross-shard atomicity** — no transaction is ever recorded as
  committed by one honest process and aborted by another, across shards
  and the coordinator domain alike (E20's atomic-commit safety bar).

Liveness (eventual reply under bounded loss) is asserted by the runner
once the schedule's horizon passes, via :meth:`InvariantChecker.final`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crypto.digests import digest


class InvariantViolation(AssertionError):
    """A global safety predicate failed; carries the structured violation."""

    def __init__(self, violation: "Violation") -> None:
        super().__init__(str(violation))
        self.violation = violation


@dataclass(frozen=True)
class Violation:
    name: str
    process: str
    detail: str
    time: float

    def __str__(self) -> str:
        return f"[{self.name}] at {self.process} (t={self.time:.4f}): {self.detail}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "process": self.process,
            "detail": self.detail,
            "time": self.time,
        }


class InvariantChecker:
    """Asserts the global predicates over one :class:`ItdosSystem`."""

    def __init__(
        self,
        system: Any,
        corrupt: frozenset[str] | set[str] = frozenset(),
        deep_check_interval: int = 4,
    ) -> None:
        self.system = system
        self.corrupt = set(corrupt)
        self.violations: list[Violation] = []
        self.checks_run = 0
        # Full-state scans (key stores, watermarks, checkpoints, votes) run
        # every ``deep_check_interval`` deliveries; ordering and dispatch
        # events are judged on every delivery.
        self.deep_check_interval = max(1, deep_check_interval)
        self._events = 0
        # Observer events not yet judged, in the order they happened.
        self._orders: list[tuple[str, int, bytes]] = []
        self._dispatches: list[tuple[str, int, int]] = []
        self._decided_reads: list[tuple[str, int, int, int]] = []
        # Reference committed-order digests, first writer wins.
        self._order_ref: dict[tuple[str, int], bytes] = {}
        self._last_dispatch: dict[tuple[str, int], int] = {}
        self._epoch_floor: dict[tuple[str, int], tuple[int, int]] = {}
        self._checkpoint_ref: dict[tuple[str, int], bytes] = {}

    # -- the Network.observer hooks: record only; on_deliver judges --------

    def on_order(self, pid: str, seq: int, batch_digest: bytes) -> None:
        self._orders.append((pid, seq, batch_digest))

    def on_execute(self, pid: str, seq: int, client_id: str, timestamp: int) -> None:
        """Nothing to judge: the batch's own order event covers it."""

    def on_dispatch(self, pid: str, conn_id: int, request_id: int) -> None:
        self._dispatches.append((pid, conn_id, request_id))

    def on_read_decided(
        self, pid: str, conn_id: int, read_id: int, watermark: int
    ) -> None:
        self._decided_reads.append((pid, conn_id, read_id, watermark))

    # -- wiring -------------------------------------------------------------

    def _replicas(self) -> list[tuple[str, Any]]:
        """(domain_id, replica) for every ordering participant: GM and core
        elements, not the read tier (it orders nothing)."""
        out = [("gm", gm) for gm in self.system.gm_elements]
        for domain_id, info in self.system.directory.domains.items():
            if info.kind != "gm":
                out.extend(
                    (domain_id, self.system.elements[pid]) for pid in info.element_ids
                )
        return out

    def _key_stores(self) -> list[Any]:
        procs = list(self.system.elements.values())
        procs.extend(self.system.clients.values())
        return [p for p in procs if getattr(p, "key_store", None) is not None]

    def _fail(self, name: str, process: str, detail: str) -> None:
        violation = Violation(
            name=name, process=process, detail=detail, time=self.system.network.now
        )
        self.violations.append(violation)
        raise InvariantViolation(violation)

    # -- the delivery hook: judge ------------------------------------------

    def on_deliver(self, src: str, dst: str, payload: Any) -> None:
        self._events += 1
        self.checks_run += 1
        self.check_ordering()
        self.check_dispatches()
        self.check_read_reply(src, payload)
        if self._events % self.deep_check_interval == 0:
            self.deep_check()

    def deep_check(self) -> None:
        self.check_key_fences()
        self.check_watermarks()
        self.check_checkpoints()
        self.check_vote_consistency()
        self.check_decided_reads()
        self.check_cross_shard_atomicity()

    # -- individual predicates ----------------------------------------------

    def check_ordering(self) -> None:
        """Committed-sequence prefix agreement across each domain."""
        orders, self._orders = self._orders, []
        for pid, seq, batch_digest in orders:
            element = self.system.elements.get(pid)
            domain_id = "gm" if element is None else element.domain_id
            ref = self._order_ref.setdefault((domain_id, seq), batch_digest)
            if ref != batch_digest:
                self._fail(
                    "order-divergence",
                    pid,
                    f"seq {seq}: {batch_digest.hex()[:16]} != {ref.hex()[:16]}",
                )

    def check_dispatches(self) -> None:
        """No duplicate servant execution per (connection, request id)."""
        dispatches, self._dispatches = self._dispatches, []
        for pid, conn_id, request_id in dispatches:
            key = (pid, conn_id)
            last = self._last_dispatch.get(key, 0)
            if request_id <= last:
                self._fail(
                    "duplicate-dispatch",
                    pid,
                    f"conn {conn_id}: request {request_id} after {last}",
                )
            self._last_dispatch[key] = request_id

    def check_key_fences(self) -> None:
        """Per-connection epoch/fence monotonicity; no fenced keys held."""
        for proc in self._key_stores():
            for conn_id, keys in proc.key_store.connections.items():
                state_key = (proc.pid, conn_id)
                prev_epoch, prev_floor = self._epoch_floor.get(state_key, (0, 0))
                if keys.current_epoch < prev_epoch or keys.fence_floor < prev_floor:
                    self._fail(
                        "fence-regression",
                        proc.pid,
                        f"conn {conn_id}: epoch {keys.current_epoch} floor "
                        f"{keys.fence_floor} after epoch {prev_epoch} floor {prev_floor}",
                    )
                self._epoch_floor[state_key] = (keys.current_epoch, keys.fence_floor)
                for key_id, epoch in keys.epoch_of.items():
                    if epoch < keys.fence_floor:
                        self._fail(
                            "fenced-key-held",
                            proc.pid,
                            f"conn {conn_id}: generation {key_id} from epoch "
                            f"{epoch} < floor {keys.fence_floor}",
                        )

    def check_watermarks(self) -> None:
        """stable_seq ≤ last_executed ≤ high watermark at every replica."""
        for _, replica in self._replicas():
            if replica.stable_seq > replica.last_executed:
                self._fail(
                    "watermark-inversion",
                    replica.pid,
                    f"stable {replica.stable_seq} > executed {replica.last_executed}",
                )
            if replica.last_executed > replica.high_watermark:
                self._fail(
                    "watermark-overrun",
                    replica.pid,
                    f"executed {replica.last_executed} > high {replica.high_watermark}",
                )

    def check_checkpoints(self) -> None:
        """Stable snapshots agree across a domain at equal sequence numbers."""
        for domain_id, replica in self._replicas():
            if replica.stable_seq <= 0:
                continue
            snapshot_digest = digest(replica.stable_checkpoint()[1])
            key = (domain_id, replica.stable_seq)
            ref = self._checkpoint_ref.setdefault(key, snapshot_digest)
            if ref != snapshot_digest:
                self._fail(
                    "checkpoint-divergence",
                    replica.pid,
                    f"stable seq {replica.stable_seq}: "
                    f"{snapshot_digest.hex()[:16]} != {ref.hex()[:16]}",
                )

    def check_vote_consistency(self) -> None:
        """Every decided reply vote has ≥ f+1 distinct supporters, not all
        of them from the corrupt set."""
        for client in self.system.clients.values():
            for conn_id, connection in client.endpoint.connections.items():
                decision = connection.voter._decided
                if decision is None or not decision.decided:
                    continue
                supporters = set(decision.supporters)
                needed = connection.target.f + 1
                if len(supporters) < needed:
                    self._fail(
                        "vote-thin-quorum",
                        client.pid,
                        f"conn {conn_id}: {len(supporters)} supporters < {needed}",
                    )
                if supporters and supporters <= self.corrupt:
                    self._fail(
                        "vote-all-corrupt",
                        client.pid,
                        f"conn {conn_id}: supporters {sorted(supporters)} all corrupt",
                    )

    def _committed_prefix(self, domain_id: str) -> int | None:
        """The furthest any *honest* core element has appended — the upper
        bound on what any honest tentative read can have seen."""
        info = self.system.directory.domains.get(domain_id)
        if info is None:
            return None
        positions = [
            self.system.elements[pid].queue.total_appended
            for pid in info.element_ids
            if pid not in self.corrupt and pid in self.system.elements
        ]
        return max(positions) if positions else None

    def check_read_reply(self, src: str, payload: Any) -> None:
        """An honest element's tentative read never outruns the committed
        prefix (E19: reads may be stale, never futuristic)."""
        from repro.itdos.messages import ReadReply

        if not isinstance(payload, ReadReply):
            return
        if src != payload.sender or src in self.corrupt:
            return
        element = self.system.elements.get(src)
        if element is None:
            return
        bound = self._committed_prefix(element.domain_id)
        if bound is not None and payload.watermark > bound:
            self._fail(
                "read-beyond-commit",
                src,
                f"read {payload.read_id}: watermark {payload.watermark} "
                f"> committed prefix {bound}",
            )

    def check_decided_reads(self) -> None:
        """Every decided fast-path read sits within the committed prefix.

        Byzantine core elements may serve forged watermarks; the 2f+1
        matching-(watermark, value) quorum must keep any such forgery from
        ever *deciding* a read beyond what the honest domain committed.
        """
        reads, self._decided_reads = self._decided_reads, []
        for pid, conn_id, read_id, watermark in reads:
            owner = self.system.clients.get(pid) or self.system.elements[pid]
            connection = owner.endpoint.connections.get(conn_id)
            if connection is None:
                continue  # dropped since: its target is no longer known
            bound = self._committed_prefix(connection.target.domain_id)
            if bound is not None and watermark > bound:
                self._fail(
                    "read-decided-beyond-commit",
                    pid,
                    f"conn {conn_id} read {read_id}: decided watermark "
                    f"{watermark} > committed prefix {bound}",
                )

    def check_cross_shard_atomicity(self) -> None:
        """No honest process both commits and aborts the same transaction.

        Every participant servant and every coordinator element records its
        transaction outcomes in a ``txn_decisions`` map (E20). Atomicity of
        BFT cross-shard commit means the union of those maps — across
        shards, across replicas within a shard, and across the coordinator
        domain — never assigns one transaction two different decisions.
        A Byzantine coordinator member may *try* to send commit to one
        shard and abort to another; the participants' f+1 request voters
        must keep any such forgery from ever being recorded.
        """
        seen: dict[str, tuple[str, str]] = {}  # txn -> (decision, where)
        for element in self.system.elements.values():
            if element.pid in self.corrupt:
                continue
            adapter = getattr(getattr(element, "orb", None), "adapter", None)
            if adapter is None:
                continue
            for servant in adapter._servants.values():
                decisions = getattr(servant, "txn_decisions", None)
                if not decisions:
                    continue
                for txn, decision in decisions.items():
                    prior = seen.get(txn)
                    if prior is None:
                        seen[txn] = (decision, element.pid)
                    elif prior[0] != decision:
                        self._fail(
                            "cross-shard-atomicity",
                            element.pid,
                            f"txn {txn}: {decision!r} here but "
                            f"{prior[0]!r} at {prior[1]}",
                        )

    # -- end-of-run checks ---------------------------------------------------

    def final(self, pending: dict[Any, Any] | None = None) -> None:
        """Run every predicate once more; ``pending`` maps still-unanswered
        invocation labels to their submission context (eventual-reply
        liveness under a bounded-loss schedule)."""
        self.check_ordering()
        self.check_dispatches()
        self.deep_check()
        if pending:
            labels = ", ".join(str(k) for k in list(pending)[:8])
            self._fail(
                "liveness",
                "client",
                f"{len(pending)} invocation(s) never decided: {labels}",
            )
