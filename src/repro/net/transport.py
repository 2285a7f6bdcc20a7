"""The transport seam between protocol objects and a delivery mechanism.

:class:`~repro.sim.network.Network` decides *whether* a message survives
(partitions, loss, filters, the chaos adversary) and *what* it costs
(latency model); the :class:`Transport` decides *how* a surviving message
reaches the destination process. Factoring the seam this way keeps every
fault/latency model in the deterministic oracle while letting a second
implementation put the same payloads on a real wire:

* :class:`SimTransport` — posts an in-memory delivery on the simulation's
  discrete-event scheduler;
* :class:`~repro.net.tcp.AsyncioTransport` — frames the payload through
  :mod:`repro.net.wire` and writes it to a TCP peer.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import Network
    from repro.sim.process import ProcessId


class Transport(ABC):
    """Delivery mechanism for payloads that passed the network's fault gates."""

    @abstractmethod
    def transmit(
        self,
        src: "ProcessId",
        dst: "ProcessId",
        payload: Any,
        size: int,
        extra_delay: float,
    ) -> None:
        """Carry one payload toward ``dst``. Loss after this point is the
        transport's own (modelled or physical) behaviour."""

    def transmit_many(
        self, src: "ProcessId", dsts: Iterable["ProcessId"], payload: Any,
        size: int, extra_delay: float,
    ) -> None:
        """One payload toward each of ``dsts``, in order (override to share work)."""
        for dst in dsts:
            self.transmit(src, dst, payload, size, extra_delay)

    def close(self) -> None:
        """Release transport resources (sockets, queues). Default: nothing."""


class SimTransport(Transport):
    """In-memory delivery on the simulation scheduler."""

    def __init__(self, network: "Network") -> None:
        self.network = network

    def transmit(
        self,
        src: "ProcessId",
        dst: "ProcessId",
        payload: Any,
        size: int,
        extra_delay: float,
    ) -> None:
        network = self.network
        if network.check_wire:
            # Oracle duty: a payload that cannot cross a *real* process
            # boundary must fail here, in the deterministic backend, not
            # as a marshalling crash on a production wire.
            from repro.net.wire import assert_wire_encodable

            assert_wire_encodable(payload)
        delay = network.config.latency.sample(network.rng)
        delay += size * network.config.per_byte_delay + extra_delay

        def do_deliver() -> None:
            # Receiver may have been removed or crashed in the interim.
            process = network.processes.get(dst)
            if process is None:
                network.stats.messages_dropped += 1
                if network._m_dropped is not None:
                    network._m_dropped.labels(reason="late").inc()
                return
            network.stats.messages_delivered += 1
            if network.trace.enabled:
                network.trace.record(network.scheduler.now, "deliver", src, dst, payload)
            if network._m_delivered is not None:
                network._m_delivered.inc()
                # Feed the phi-accrual timeliness estimator: every delivery
                # is one inter-arrival observation for its sender.
                network.telemetry.detect.observe_arrival(src, network.scheduler.now)
            process.deliver(src, payload)
            if network.observer is not None:
                network.observer.on_deliver(src, dst, payload)

        network.scheduler.post(delay, do_deliver)
