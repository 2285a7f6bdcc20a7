"""A Network-compatible world hosting ONE process over a real transport.

In the simulator, one :class:`~repro.sim.network.Network` owns every
process. In the wire backend each OS process owns exactly one protocol
element, and the "network" it is attached to is this facade: the same
attribute surface a :class:`~repro.sim.process.Process` touches
(``scheduler``, ``send``, ``multicast``, ``telemetry``, ``stats``) but with
sends routed to a :class:`Transport` and timers on the wall clock. Multicast goes over the topology's group map with IP multicast
loopback semantics: the sender receives its own copy iff it is a member,
which the BFT layer relies on. The remote members are handed to the
transport in one call, so it can encode the payload once for all of them.

Nothing is sized here: bytes are the frames the transport wrote
(``transport.stats["bytes_sent"]``), so the ``size`` handed on is 0.

Link faults come through the same ``adversary`` slot as the simulator's
(a :class:`~repro.chaos.adversary.ChaosController` in practice): every
remote copy is put to ``adversary.intercept`` exactly as
``Network._transmit`` does, so one plan means one thing on both backends.
"""

from __future__ import annotations

import logging
from typing import Any

from repro.net.clock import RealTimeScheduler
from repro.net.transport import Transport
from repro.obs.telemetry import NOOP_TELEMETRY, Telemetry
from repro.sim.network import TrafficStats
from repro.sim.process import Process, ProcessId


class NetWorld:
    """One process's view of the cluster, over a real wire."""

    def __init__(
        self,
        scheduler: RealTimeScheduler,
        transport: Transport,
        groups: dict[str, tuple[str, ...]],
        telemetry: bool = False,
    ) -> None:
        self.scheduler = scheduler
        self.transport = transport
        self.groups = {addr: tuple(sorted(pids)) for addr, pids in groups.items()}
        self.stats = TrafficStats()
        self.telemetry: Telemetry = NOOP_TELEMETRY
        if telemetry:
            self.telemetry = Telemetry(enabled=True, clock=lambda: scheduler.now)
        self.hosted: Process | None = None
        self.delivery_errors = 0
        self.observer: Any = None  # as Network.observer
        self.adversary: Any = None  # as Network.adversary

    # -- wiring -------------------------------------------------------------

    def host(self, process: Process) -> None:
        """Attach the one process this OS process runs."""
        self.hosted = process
        process.attach(self)  # type: ignore[arg-type] - duck-typed Network

    @property
    def now(self) -> float:
        return self.scheduler.now

    # -- transmission -------------------------------------------------------

    def send(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        self.stats.messages_sent += 1
        if self.hosted is not None and dst == self.hosted.pid:
            # Self-send: stay off the wire, but keep the asynchrony — the
            # simulator never delivers re-entrantly and protocol code
            # (quorum counting mid-handler) relies on that.
            self.scheduler.schedule(0.0, lambda: self.deliver(src, payload))
            return
        if self.adversary is not None:
            self._intercept(src, dst, payload)
        else:
            self.transport.transmit(src, dst, payload, 0, 0.0)

    def multicast(self, src: ProcessId, group_addr: str, payload: Any) -> None:
        members = self.groups.get(group_addr)
        if members is None:
            raise KeyError(f"unknown multicast address {group_addr!r}")
        self.stats.multicasts_sent += 1
        self.stats.messages_sent += len(members)
        own = self.hosted.pid if self.hosted is not None else None
        remote = [member for member in members if member != own]
        if len(remote) != len(members):
            # Own copy: off the wire and asynchronous, as in send().
            self.scheduler.schedule(0.0, lambda: self.deliver(src, payload))
        if self.adversary is not None:
            for dst in remote:
                self._intercept(src, dst, payload)
        else:
            self.transport.transmit_many(src, remote, payload, 0, 0.0)

    def _intercept(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        """One remote copy through the adversary: ``None`` passes, ``[]``
        drops, else each ``(extra_delay, payload)`` goes on the wire."""
        verdict = self.adversary.intercept(src, dst, payload, 0)
        if verdict is None:
            self.transport.transmit(src, dst, payload, 0, 0.0)
            return
        if not verdict:
            self.stats.messages_dropped += 1
        for extra_delay, adjusted in verdict:
            self.transport.transmit(src, dst, adjusted, 0, extra_delay)

    # -- inbound ------------------------------------------------------------

    def deliver(self, src: ProcessId, payload: Any) -> None:
        """Hand one decoded payload to the hosted process.

        A malformed or Byzantine payload must never kill the connection:
        protocol layers already treat garbage as evidence, so anything
        that still escapes is counted and dropped.
        """
        if self.hosted is None:
            return
        self.stats.messages_delivered += 1
        try:
            self.hosted.deliver(src, payload)
        except Exception:  # noqa: BLE001 - wire garbage must not stop the node
            self.delivery_errors += 1
            logging.getLogger("repro.net").exception(
                "delivery from %s raised (payload %s)", src, type(payload).__name__
            )

    # -- simulator-surface stubs -------------------------------------------

    def run(self, **kwargs: Any) -> None:
        raise RuntimeError(
            "NetWorld has no run(): the asyncio loop drives a real node. "
            "Use ItdosClient.async_invoke / await instead of the sync stub."
        )

    def enable_telemetry(self) -> Telemetry:
        if not self.telemetry.enabled:
            self.telemetry = Telemetry(
                enabled=True, clock=lambda: self.scheduler.now
            )
        return self.telemetry
