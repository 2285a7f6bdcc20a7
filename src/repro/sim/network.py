"""The simulated network.

Connects processes, applies a latency model, optional loss, and partitions,
and counts traffic for the experiments. The network also owns the
scheduler — one :class:`Network` is one self-contained simulation world.

Fault-model correspondence to the paper's assumptions (§2.2):

* "The network does not partition such that more than f of the replicated
  servers becomes unreachable" — partitions are injectable but experiments
  honour this bound except where they deliberately violate it.
* "If one correct process delivers a message, all correct processes will
  eventually deliver a message" — loss is modelled per-message; reliability
  above raw loss is the job of the protocol layers (retransmission in PBFT).
"""

from __future__ import annotations

import random
from dataclasses import astuple, dataclass, field, replace
from typing import Any

from repro.obs.telemetry import NOOP_TELEMETRY, Telemetry
from repro.sim.latency import FixedLatency, LatencyModel
from repro.sim.multicast import MulticastGroup
from repro.sim.process import Process, ProcessId
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceRecorder


@dataclass
class NetworkConfig:
    """Tunable behaviour of a simulation world."""

    seed: int = 0
    latency: LatencyModel = field(default_factory=FixedLatency)
    drop_probability: float = 0.0
    # Extra fixed cost per byte of payload, modelling serialisation +
    # transmission time (0 disables size-dependent delay).
    per_byte_delay: float = 0.0
    # Assert on every send that the payload round-trips through the real
    # wire codec (repro.net.wire) — catches object-graph leakage that only
    # a TCP backend would reject. Off by default: it encodes every message
    # twice, which the large benchmark runs cannot afford.
    check_wire: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        if self.per_byte_delay < 0:
            raise ValueError("per_byte_delay must be non-negative")


@dataclass
class TrafficStats:
    """Aggregate counters used by the benchmark harness."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    multicasts_sent: int = 0

    def reset(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        self.multicasts_sent = 0

    def snapshot(self) -> "TrafficStats":
        """A point-in-time copy of the counters."""
        return replace(self)

    def delta(self, later: "TrafficStats") -> "TrafficStats":
        """Traffic between this snapshot and ``later``."""
        return TrafficStats(
            *(after - before for before, after in zip(astuple(self), astuple(later)))
        )


def payload_size(payload: Any) -> int:
    """Best-effort wire size of a payload.

    Payloads that know their encoded size expose ``wire_size()``; raw bytes
    report their length; everything else contributes a nominal header-sized
    constant so message *counts* still dominate cost models.
    """
    size_fn = getattr(payload, "wire_size", None)
    if callable(size_fn):
        return int(size_fn())
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    return 64


class Network:
    """A world of processes exchanging messages under a latency model."""

    def __init__(self, config: NetworkConfig | None = None) -> None:
        self.config = config or NetworkConfig()
        self.scheduler = Scheduler()
        self.rng = random.Random(self.config.seed)
        self.check_wire = self.config.check_wire
        # The delivery mechanism behind the fault/latency gates. The
        # simulator's own transport is the default; repro.net swaps in a
        # real-wire implementation through this same seam.
        from repro.net.transport import SimTransport

        self.transport: Any = SimTransport(self)
        self.processes: dict[ProcessId, Process] = {}
        self.groups: dict[str, MulticastGroup] = {}
        self.trace = TraceRecorder()
        self.trace.enabled = False
        self.stats = TrafficStats()
        self.telemetry: Telemetry = NOOP_TELEMETRY
        # Metric children cached at enable time so the wire hot path pays one
        # attribute load + method call per event, never a labels() lookup.
        self._m_sent = self._m_delivered = self._m_dropped = self._m_bytes = None
        # Pairs (a, b) that cannot currently communicate, stored symmetrically.
        self._partitioned: set[frozenset[ProcessId]] = set()
        # Transmission filters (firewall proxies): every filter must return
        # True for a message to pass; a False verdict drops it at the wire.
        self._filters: list = []
        # Wire-level adversary (repro.chaos): ``intercept(src, dst, payload,
        # size)`` may return None (pass through untouched) or a list of
        # ``(extra_delay, payload)`` deliveries — empty meaning the message
        # is swallowed. Orthogonal to filters/partitions, which model
        # *infrastructure*; the adversary models the §2.2 threat itself.
        self.adversary: Any = None
        # History observer: processes report each ordered batch, execution,
        # servant dispatch and decided fast-path read as it happens
        # (``on_order``, ``on_execute``, ``on_dispatch``, ``on_read_decided``,
        # each with the reporting pid first) instead of keeping a list, and
        # the transport calls ``on_deliver(src, dst, payload)`` after a
        # receiver processed a message — the chaos InvariantChecker hangs
        # its global safety assertions off that.
        self.observer: Any = None

    # -- topology ----------------------------------------------------------

    def add_process(self, process: Process) -> Process:
        """Register a process; ids must be unique within the network."""
        if process.pid in self.processes:
            raise ValueError(f"duplicate process id {process.pid!r}")
        self.processes[process.pid] = process
        process.attach(self)
        return process

    def get_process(self, pid: ProcessId) -> Process:
        return self.processes[pid]

    def create_group(self, address: str) -> MulticastGroup:
        """Allocate a multicast address. Reallocation of a live address fails."""
        if address in self.groups:
            raise ValueError(f"multicast address {address!r} already allocated")
        group = MulticastGroup(address)
        self.groups[address] = group
        return group

    @property
    def multicast_addresses_allocated(self) -> int:
        """How many multicast addresses exist (experiment E2's resource)."""
        return len(self.groups)

    # -- partitions ---------------------------------------------------------

    def partition(self, side_a: set[ProcessId], side_b: set[ProcessId]) -> None:
        """Disconnect every pair (a, b) with a in ``side_a`` and b in ``side_b``."""
        for a in side_a:
            for b in side_b:
                if a != b:
                    self._partitioned.add(frozenset((a, b)))

    def heal(self) -> None:
        """Remove all partitions."""
        self._partitioned.clear()

    def is_partitioned(self, a: ProcessId, b: ProcessId) -> bool:
        return frozenset((a, b)) in self._partitioned

    # -- filters (enclave firewalls) ----------------------------------------

    def add_filter(self, fn) -> None:
        """Install a transmission filter ``fn(src, dst, payload) -> bool``.

        Filters model in-path enclave firewalls (the paper's IT-CORBA proxy,
        Figure 1): a message is dropped unless every filter admits it.
        """
        self._filters.append(fn)

    def remove_filter(self, fn) -> None:
        self._filters.remove(fn)

    # -- transmission -------------------------------------------------------

    def send(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        """Point-to-point send with latency, loss, and partition checks."""
        self.stats.messages_sent += 1
        size = payload_size(payload)
        self.stats.bytes_sent += size
        if self.trace.enabled:
            self.trace.record(self.scheduler.now, "send", src, dst, payload)
        if self._m_sent is not None:
            self._m_sent.inc()
            self._m_bytes.inc(size)
        self._transmit(src, dst, payload, size)

    def multicast(self, src: ProcessId, group_addr: str, payload: Any) -> None:
        """Fan a payload out to every member of ``group_addr``.

        The sender receives its own copy iff it is a member — matching IP
        multicast loopback semantics, which the BFT layer relies on.
        """
        group = self.groups.get(group_addr)
        if group is None:
            raise KeyError(f"unknown multicast address {group_addr!r}")
        members = group.ordered()
        size = payload_size(payload)
        self.stats.multicasts_sent += 1
        self.stats.messages_sent += len(members)
        self.stats.bytes_sent += size * len(members)
        if self.trace.enabled:
            self.trace.record(self.scheduler.now, "multicast", src, group_addr, payload)
        if self._m_sent is not None:  # per copy, as the unicast path counts
            self._m_sent.inc(len(members))
            self._m_bytes.inc(size * len(members))
        for member in members:
            self._transmit(src, member, payload, size)

    def _drop(self, src: ProcessId, dst: ProcessId, payload: Any, reason: str) -> None:
        self.stats.messages_dropped += 1
        if self.trace.enabled:
            self.trace.record(self.scheduler.now, "drop", src, dst, payload)
        if self._m_dropped is not None:
            self._m_dropped.labels(reason=reason).inc()

    def _transmit(self, src: ProcessId, dst: ProcessId, payload: Any, size: int) -> None:
        """The fault gates, in order, then the transport seam. An unarmed
        gate (no partition, no loss, no adversary) costs one truth test."""
        if dst not in self.processes:
            # Receiver gone (e.g. expelled then deregistered): drop silently,
            # as IP would.
            self._drop(src, dst, payload, "unreachable")
            return
        if self._partitioned and self.is_partitioned(src, dst):
            self._drop(src, dst, payload, "partition")
            return
        if self.config.drop_probability and self.rng.random() < self.config.drop_probability:
            self._drop(src, dst, payload, "loss")
            return
        for admit in self._filters:
            if not admit(src, dst, payload):
                self._drop(src, dst, payload, "filter")
                return
        if self.adversary is not None:
            verdict = self.adversary.intercept(src, dst, payload, size)
            if verdict is not None:
                if not verdict:
                    self._drop(src, dst, payload, "chaos")
                    return
                for extra_delay, adjusted in verdict:
                    self.transport.transmit(src, dst, adjusted, size, extra_delay)
                return
        self.transport.transmit(src, dst, payload, size, 0.0)

    # -- running ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.scheduler.now

    def run(self, **kwargs: Any) -> None:
        """Proxy to :meth:`Scheduler.run`."""
        self.scheduler.run(**kwargs)

    def enable_trace(self, capacity: int | None = None) -> TraceRecorder:
        """Turn on message tracing and return the recorder."""
        self.trace.enabled = True
        if capacity is not None:
            self.trace.capacity = capacity
        return self.trace

    def enable_telemetry(self) -> Telemetry:
        """Attach a live :class:`Telemetry` facade clocked by this world."""
        if not self.telemetry.enabled:
            self.telemetry = Telemetry(enabled=True, clock=lambda: self.scheduler.now)
            registry = self.telemetry.registry
            self._m_sent = registry.counter(
                "net_messages_sent_total", "Unicast transmissions (incl. multicast fan-out)"
            )
            self._m_delivered = registry.counter(
                "net_messages_delivered_total", "Messages handed to a receiver"
            )
            self._m_dropped = registry.counter(
                "net_messages_dropped_total", "Wire-level drops", labels=("reason",)
            )
            self._m_bytes = registry.counter(
                "net_bytes_sent_total", "Payload bytes put on the wire"
            )
        return self.telemetry
