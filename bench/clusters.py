"""The two back ends a workload runs on, behind one small interface.

Both host the same f = 1 deployment (4 Group Manager elements, 4 replicas,
the clients) built by public constructors only:

* :class:`SimCluster` — the deployment as built, on its discrete-event
  simulator; ``drive`` runs the scheduler.
* :class:`WireCluster` — the same elements lifted, each onto its own
  ``RealTimeScheduler`` + ``NetWorld`` + ``AsyncioTransport``, all on one
  asyncio loop in this process, talking over loopback TCP. In-process
  rather than ``ClusterLauncher`` because the harness must own payload
  size, warm-up, slicing and probes, and nine interpreters on two vCPUs
  measure the OS scheduler.

A cluster submits invocations through ``ItdosClient.async_invoke`` and is
driven until a predicate holds; the caller owns the closed loop.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.net.bench import pick_base_port
from repro.net.clock import RealTimeScheduler
from repro.net.config import TopologyConfig
from repro.net.tcp import AsyncioTransport
from repro.net.world import NetWorld

#: Simulated seconds the GM coin-toss bootstrap is given before requests.
SETTLE_SIM_SECONDS = 1.0
QUIESCE_WIRE_SECONDS = 0.25
#: Wall-clock cap on one slice of a wire workload, and the scheduler-event
#: cap on one slice of a sim workload: a stuck request ends the run as a
#: failure and never hangs the benchmark.
WIRE_SLICE_TIMEOUT = 60.0
SIM_SLICE_MAX_EVENTS = 2_000_000


class SimCluster:
    """A deployment on the discrete-event simulator."""

    backend = "sim"

    def __init__(self, system: Any, domain: str, object_key: bytes, clients: int) -> None:
        self.system = system
        self.ref = system.ref(domain, object_key)
        self.clients = [
            system.clients.get(f"client-{i}") or system.add_client(f"client-{i}")
            for i in range(clients)
        ]

    def settle(self) -> None:
        self.system.settle(SETTLE_SIM_SECONDS)

    def submit(self, client: int, operation: str, args: tuple, on_result: Callable) -> None:
        self.clients[client].async_invoke(self.ref, operation, args, on_result)

    def drive(self, done: Callable[[], bool]) -> None:
        try:
            self.system.network.run(stop_when=done, max_events=SIM_SLICE_MAX_EVENTS)
        except RuntimeError:
            pass  # livelock valve tripped: the caller sees `done()` false

    def wake(self) -> None:
        """Nothing to wake: ``drive`` polls its predicate after every event."""

    def traffic(self) -> tuple[int, int]:
        stats = self.system.network.stats
        return stats.messages_sent, stats.bytes_sent

    def transports(self) -> list:
        return []

    @property
    def sim_now(self) -> float:
        return self.system.network.now

    @property
    def sim_events(self) -> int:
        return self.system.network.scheduler.events_executed

    def quiesce(self) -> None:
        """Let the replicas that were outvoted on the last reply catch up."""
        self.system.settle(SETTLE_SIM_SECONDS)

    def close(self) -> None:
        pass


class WireCluster:
    """The same deployment over real loopback TCP, inside this process."""

    backend = "wire"

    def __init__(self, config: TopologyConfig, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        self.config = config
        config.base_port = pick_base_port(len(config.node_ids()))
        self.system = config.build_system()
        self.ref = self.system.ref(config.domain, config.object_key)
        self.clients = [self.system.clients[name] for name in config.clients]
        self.nodes: dict[str, tuple[Any, RealTimeScheduler, AsyncioTransport]] = {}
        gms = {gm.pid: gm for gm in self.system.gm_elements}
        for pid in config.node_ids():
            element = (
                self.system.clients.get(pid) or gms.get(pid) or self.system.elements[pid]
            )
            scheduler = RealTimeScheduler(loop)
            world = NetWorld(
                scheduler,
                transport=None,  # type: ignore[arg-type] - bound just below
                groups=config.groups(),
                telemetry=False,
            )
            transport = AsyncioTransport(
                pid,
                config.address_book(),
                loop,
                world.deliver,
                max_frame_bytes=config.max_frame_bytes,
                queue_limit=config.queue_limit,
            )
            world.transport = transport
            world.host(element)
            orb = getattr(element, "orb", None)
            if orb is not None:
                orb.telemetry = world.telemetry
            self.nodes[pid] = (element, scheduler, transport)

    def settle(self) -> None:
        """Listen, link every node to every server (the cluster barrier),
        then kick the GM coin-toss bootstrap."""
        self.loop.run_until_complete(self._barrier())
        for pid in self.config.gm_ids:
            self.nodes[pid][0].start()

    async def _barrier(self) -> None:
        for _element, _scheduler, transport in self.nodes.values():
            await transport.start()
        servers = [*self.config.gm_ids, *self.config.element_ids]
        for pid, (_element, _scheduler, transport) in self.nodes.items():
            await transport.ensure_links([p for p in servers if p != pid], timeout=30.0)

    def submit(self, client: int, operation: str, args: tuple, on_result: Callable) -> None:
        self.clients[client].async_invoke(self.ref, operation, args, on_result)

    def drive(self, done: Callable[[], bool]) -> None:
        """Run the loop until :meth:`wake` is called (or the slice cap)."""
        self._wake = self.loop.create_future()
        if done():
            return
        try:
            self.loop.run_until_complete(
                asyncio.wait_for(self._wake, WIRE_SLICE_TIMEOUT)
            )
        except asyncio.TimeoutError:
            pass  # the caller sees `done()` false

    def wake(self) -> None:
        if not self._wake.done():
            self._wake.set_result(None)

    def traffic(self) -> tuple[int, int]:
        frames = sum(t.stats["frames_sent"] for _e, _s, t in self.nodes.values())
        size = sum(t.stats["bytes_sent"] for _e, _s, t in self.nodes.values())
        return frames, size

    def transports(self) -> list[AsyncioTransport]:
        return [transport for _e, _s, transport in self.nodes.values()]

    sim_now = 0.0
    sim_events = 0

    def quiesce(self) -> None:
        """Let the replicas that were outvoted on the last reply catch up."""
        self.loop.run_until_complete(asyncio.sleep(QUIESCE_WIRE_SECONDS))

    def close(self) -> None:
        """Protocol timers, wall-clock timers, then the sockets."""
        for element, scheduler, _transport in self.nodes.values():
            element.cancel_all_timers()
            scheduler.cancel_all()

        async def stop() -> None:
            for _element, _scheduler, transport in self.nodes.values():
                await transport.stop()

        self.loop.run_until_complete(stop())
