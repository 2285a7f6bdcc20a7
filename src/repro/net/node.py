"""The per-process node harness: one OS process, one ITDOS element.

``python -m repro serve --config topology.toml --node calc-e1`` boots one
element of a real cluster:

1. build the full deterministic :class:`ItdosSystem` from the topology's
   seed (every process derives byte-identical key material this way — the
   bootstrap doubles as the out-of-band PKI ceremony, §2.2);
2. lift this node's own element out of the simulated world onto a
   :class:`~repro.net.world.NetWorld` backed by a real
   :class:`~repro.net.tcp.AsyncioTransport`;
3. wait for links to every server peer (the cluster barrier), then play
   the role: GM elements kick the coin-toss bootstrap, rejoining replicas
   petition for readmission + queue state transfer, clients drive the
   workload through :meth:`ItdosClient.async_invoke`;
4. on SIGTERM/SIGINT (or workload completion), shut down cleanly: SMIOP
   send queues drained, retransmission timers cancelled, wall-clock timers
   cancelled, TCP links closed, telemetry exported as JSONL.

The harness leaves breadcrumbs in ``--out``: ``<node>.ready`` once the
barrier passes, ``<node>.result.json`` for clients, ``<node>.stats.json``
always, ``<node>.telemetry.jsonl`` when telemetry is on. The cluster
launcher (:mod:`repro.net.launcher`) and the CI smoke gate key off these.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from typing import Any

from repro.net.clock import RealTimeScheduler
from repro.net.config import TopologyConfig
from repro.net.tcp import AsyncioTransport
from repro.net.world import NetWorld

#: Exit codes: 0 clean, 1 workload/recovery failure, 2 bad usage.
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    os.replace(tmp, path)  # atomic: watchers never see a partial file


def _touch(path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(str(os.getpid()))


class NodeHarness:
    """Everything one OS process needs to host one element."""

    def __init__(
        self,
        config: TopologyConfig,
        node_id: str,
        out_dir: str,
        rejoin: bool = False,
    ) -> None:
        self.config = config
        self.node_id = node_id
        self.out_dir = out_dir
        self.rejoin = rejoin
        self.role = config.role_of(node_id)
        self.system: Any = None
        self.element: Any = None
        self.world: NetWorld | None = None
        self.transport: AsyncioTransport | None = None
        self.scheduler: RealTimeScheduler | None = None
        self.stop_event: asyncio.Event | None = None
        self.rejoin_outcome: bool | None = None
        self.workload_report: dict | None = None
        self._rejoin_task: asyncio.Future | None = None

    # -- wiring --------------------------------------------------------------

    def _build(self, loop: asyncio.AbstractEventLoop) -> None:
        config = self.config
        self.system = config.build_system()
        if self.role == "client":
            self.element = self.system.clients[self.node_id]
        elif self.role == "gm":
            self.element = next(
                gm for gm in self.system.gm_elements if gm.pid == self.node_id
            )
        else:
            self.element = self.system.elements[self.node_id]
        self.scheduler = RealTimeScheduler(loop)
        world = NetWorld(
            self.scheduler,
            transport=None,  # type: ignore[arg-type] - bound just below
            groups=config.groups(),
            telemetry=config.telemetry,
        )
        self.transport = AsyncioTransport(
            self.node_id,
            config.address_book(),
            loop,
            world.deliver,
            max_frame_bytes=config.max_frame_bytes,
            queue_limit=config.queue_limit,
        )
        world.transport = self.transport
        if config.faults is not None:
            from repro.chaos.adversary import ChaosController

            world.adversary = ChaosController(world, config.faults, seed=config.seed)
        self.world = world
        world.host(self.element)
        # The bootstrap bound the ORB to the (inert) sim world's telemetry;
        # rebind to this node's live facade so spans ride the wall clock.
        orb = getattr(self.element, "orb", None)
        if orb is not None:
            orb.telemetry = world.telemetry
        # Stamp every metric this process reports with its shard identity
        # so `repro metrics --from-node` can aggregate per shard (E20).
        if world.telemetry.enabled:
            world.telemetry.registry.constant_labels = {
                "shard": self.shard_label()
            }
        # Every OS process is a fresh incarnation of its pid: seed BFT
        # client timestamps and SMIOP request ids from the local clock so
        # they stay monotonic across restarts. A reused timestamp hits the
        # replicas' client-table dedup; a reused request id on a GM-reused
        # connection is discarded below the §3.6 high-water mark (and would
        # repeat an AEAD traffic nonce under the reissued key).
        endpoint = getattr(self.element, "endpoint", None)
        if endpoint is not None and hasattr(endpoint, "timestamp_base"):
            incarnation = int(time.time() * 1000)
            endpoint.timestamp_base = incarnation
            endpoint.request_id_base = incarnation

    def home_domain(self) -> str:
        """The replication domain this node belongs to (replicas/readers)."""
        for domain_id in self.config.domain_ids:
            if self.node_id in self.config.element_ids_of(domain_id):
                return domain_id
        return self.config.domain

    def shard_label(self) -> str:
        """Metric label value: the node's shard domain, or its role."""
        if self.role in ("replica", "read-only"):
            return self.home_domain()
        return self.role  # "gm" / "client"

    # -- roles ---------------------------------------------------------------

    async def _start_role(self) -> None:
        if self.role == "gm":
            self.element.start()
        elif self.role == "read-only" and self.rejoin:
            # A reader's whole state is derived from the committed stream,
            # so a restarted reader just re-adopts it from the core tier —
            # no GM petition, no membership change.
            self.element.resync()
        elif self.role == "replica" and self.rejoin:
            # Background: readmission takes several protocol round trips
            # (petition through GM ordering, then transfer windows) and must
            # not make the node deaf to SIGTERM meanwhile.
            self._rejoin_task = asyncio.ensure_future(self._recover_membership())

    async def _recover_membership(self) -> None:
        """Crash-restart path: petition the GM back in and adopt the queue."""
        loop = asyncio.get_running_loop()
        done: asyncio.Future[bool] = loop.create_future()
        self.element.recover_membership(
            fresh_keys=True,
            on_complete=lambda ok: None if done.done() else done.set_result(ok),
        )
        try:
            self.rejoin_outcome = await asyncio.wait_for(done, timeout=120.0)
        except asyncio.TimeoutError:
            self.rejoin_outcome = False
        # Checkpoint the stats file so launchers can observe the verdict
        # without tearing the node down.
        self._export()

    def _request_plan(self, index: int, written: int) -> tuple[str, tuple, Any]:
        """The index-th request of the mixed read/write client workload.

        Deterministic interleave: request ``index`` is a read iff the
        rounded cumulative read budget ``read_fraction * (index+1)``
        crosses an integer — so a 0.9 fraction yields exactly the 90/10
        pattern every node and every run agrees on.
        """
        fraction = self.config.read_fraction
        is_read = int(fraction * (index + 1)) > int(fraction * index)
        if self.config.workload == "kv":
            if is_read:
                key = f"k{written - 1}" if written else "k-none"
                return "get", (key,), (f"v{written - 1}" if written else "")
            return "put", (f"k{written}", f"v{written}"), None
        if is_read:
            return "mean", ([float(index), 1000.0],), (float(index) + 1000.0) / 2.0
        return "add", (float(index), 1000.0), float(index) + 1000.0

    async def _run_workload(self) -> dict:
        """The client driver: mixed read/write requests over the real wire.

        Writes go through BFT ordering as always; with ``read_fastpath``
        on, reads take the tentative path (2f+1 matching core replies at
        one watermark) and transparently fall back to ordering otherwise.
        """
        config = self.config
        loop = asyncio.get_running_loop()
        if config.shards > 1:
            # Sharded topology: route each request to its key's home shard
            # (one ref — one virtual connection — per shard domain).
            shard_map = config.shard_map()
            refs = {
                domain_id: self.system.ref(domain_id, config.object_key)
                for domain_id in shard_map.domain_ids
            }

            def ref_for(key: str):
                return refs[shard_map.domain_for(key)]

        else:
            home_ref = self.system.ref(config.domain, config.object_key)

            def ref_for(key: str):
                return home_ref

        latencies: list[float] = []
        read_latencies: list[float] = []
        errors: list[str] = []
        okay = 0
        written = 0
        reads = 0
        for index in range(config.requests):
            future: asyncio.Future[Any] = loop.create_future()

            def on_result(value: Any, future: asyncio.Future = future) -> None:
                if not future.done():
                    future.set_result(value)

            started = loop.time()
            operation, args, expected = self._request_plan(index, written)
            is_read = operation in ("get", "mean")
            key = str(args[0]) if self.config.workload == "kv" else ""
            self.element.async_invoke(ref_for(key), operation, args, on_result)
            try:
                value = await asyncio.wait_for(future, timeout=60.0)
            except asyncio.TimeoutError:
                errors.append(f"request {index}: timed out")
                break
            elapsed = loop.time() - started
            latencies.append(elapsed)
            if is_read:
                reads += 1
                read_latencies.append(elapsed)
            else:
                written += 1
            if expected is not None and value != expected:
                errors.append(f"request {index}: got {value!r} != {expected!r}")
            else:
                okay += 1
        report = {
            "node": self.node_id,
            "workload": config.workload,
            "requests": config.requests,
            "completed": len(latencies),
            "okay": okay,
            "errors": errors,
            "latencies": latencies,
            "reads": reads,
            "read_latencies": read_latencies,
        }
        report.update(self._read_path_stats())
        return report

    def _read_path_stats(self) -> dict:
        """Fast-path counters across the client's SMIOP connections."""
        endpoint = getattr(self.element, "endpoint", None)
        hits = fallbacks = sent = 0
        for connection in getattr(endpoint, "connections", {}).values():
            hits += getattr(connection, "read_fastpath_hits", 0)
            fallbacks += getattr(connection, "read_fastpath_fallbacks", 0)
            sent += getattr(connection, "reads_sent", 0)
        return {
            "read_fastpath_hits": hits,
            "read_fastpath_fallbacks": fallbacks,
            "reads_sent": sent,
        }

    # -- shutdown ------------------------------------------------------------

    async def _shutdown(self) -> None:
        element, world = self.element, self.world
        # Drain SMIOP: adapter send queues cleared, virtual connections
        # closed, retransmission timers cancelled.
        orb = getattr(element, "orb", None)
        if orb is not None:
            for protocol in orb._transports.values():
                shutdown = getattr(protocol, "shutdown", None)
                if shutdown is not None:
                    shutdown()
        elif getattr(element, "endpoint", None) is not None:
            element.endpoint.shutdown()
        element.cancel_all_timers()
        assert self.scheduler is not None and self.transport is not None
        self.scheduler.cancel_all()
        await self.transport.stop()
        self._export()
        assert world is not None
        if world.telemetry.enabled:
            from repro.obs import telemetry_records, write_jsonl

            path = os.path.join(self.out_dir, f"{self.node_id}.telemetry.jsonl")
            try:
                write_jsonl(path, telemetry_records(world.telemetry))
            except OSError:
                pass  # telemetry is best-effort on the way down

    def _export(self) -> None:
        assert self.world is not None and self.transport is not None
        assert self.scheduler is not None
        stats = {
            "node": self.node_id,
            "role": self.role,
            "shard": self.shard_label(),
            "rejoin": self.rejoin,
            "rejoin_outcome": self.rejoin_outcome,
            "uptime": self.scheduler.now,
            "timers_fired": self.scheduler.events_executed,
            "transport": dict(self.transport.stats),
            "world": {
                "messages_sent": self.world.stats.messages_sent,
                "messages_delivered": self.world.stats.messages_delivered,
                "multicasts_sent": self.world.stats.multicasts_sent,
                "delivery_errors": self.world.delivery_errors,
            },
        }
        if self.world.adversary is not None:
            stats["faults_applied"] = dict(self.world.adversary.applied)
            stats["faults_rolled"] = self.world.adversary.rolled
        if self.role == "replica":
            stats["replica"] = {
                "dispatched": len(self.element.dispatched),
                "view": self.element.view,
                "diverged": self.element.diverged,
                "last_executed": self.element.last_executed,
                "undecryptable_skipped": self.element.undecryptable_skipped,
                "reads_served": self.element.reads_served,
                "reads_refused": self.element.reads_refused,
            }
        elif self.role == "read-only":
            stats["read_only"] = {
                "feeds_applied": self.element.feeds_applied,
                "watermark": self.element.queue.processed_count,
                "reads_served": self.element.reads_served,
                "reads_refused": self.element.reads_refused,
                "syncs_completed": self.element.syncs_completed,
                "diverged": self.element.diverged,
            }
        elif self.role == "client":
            stats["client"] = self._read_path_stats()
        _write_json(
            os.path.join(self.out_dir, f"{self.node_id}.stats.json"), stats
        )

    # -- main ----------------------------------------------------------------

    async def run(self) -> int:
        loop = asyncio.get_running_loop()
        os.makedirs(self.out_dir, exist_ok=True)
        self.stop_event = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.stop_event.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-POSIX loop: rely on workload completion / kill
        self._build(loop)
        assert self.transport is not None
        await self.transport.start()
        _touch(os.path.join(self.out_dir, f"{self.node_id}.listening"))
        # The cluster barrier. Servers boot together and must see every
        # other server before protocol traffic starts. A client only needs
        # the quorums it will actually use — f crashed replicas (and f_gm
        # crashed GM shares) are a *tolerated* condition, not a boot error.
        try:
            if self.role == "client":
                # One quorum per shard domain: a client of a sharded
                # topology talks to every shard, each with its own f budget.
                groups = [(self.config.gm_ids, self.config.f_gm)]
                groups.extend(
                    (self.config.element_ids_of(domain_id), self.config.f)
                    for domain_id in self.config.domain_ids
                )
                for group, f in groups:
                    await self.transport.ensure_quorum(
                        list(group), len(group) - f, timeout=30.0
                    )
            else:
                # Servers link to the GM domain and their own shard's
                # elements; shards never talk to each other on the wire
                # (the cross-shard coordinator is a simulator deployment).
                peers = [
                    pid
                    for pid in (
                        *self.config.gm_ids,
                        *self.config.element_ids_of(self.home_domain()),
                    )
                    if pid != self.node_id
                ]
                await self.transport.ensure_links(peers, timeout=30.0)
        except (asyncio.TimeoutError, TimeoutError):
            print(
                f"{self.node_id}: cluster barrier timed out "
                f"({self.transport.links_up} links up)",
                file=sys.stderr,
            )
            await self.transport.stop()
            return EXIT_FAILED
        _touch(os.path.join(self.out_dir, f"{self.node_id}.ready"))
        await self._start_role()
        exit_code = EXIT_OK
        if self.role == "client":
            workload = asyncio.ensure_future(self._run_workload())
            stopper = asyncio.ensure_future(self.stop_event.wait())
            done, _pending = await asyncio.wait(
                (workload, stopper), return_when=asyncio.FIRST_COMPLETED
            )
            stopper.cancel()
            if workload in done:
                report = workload.result()
                self.workload_report = report
                _write_json(
                    os.path.join(self.out_dir, f"{self.node_id}.result.json"),
                    report,
                )
                if report["errors"] or report["okay"] < report["requests"]:
                    exit_code = EXIT_FAILED
            else:
                workload.cancel()
        else:
            await self.stop_event.wait()
            if self._rejoin_task is not None:
                if not self._rejoin_task.done():
                    self._rejoin_task.cancel()
                elif self.rejoin_outcome is False:
                    exit_code = EXIT_FAILED
        await self._shutdown()
        return exit_code


async def run_node(
    config: TopologyConfig, node_id: str, out_dir: str, rejoin: bool = False
) -> int:
    return await NodeHarness(config, node_id, out_dir, rejoin=rejoin).run()


def serve(
    config_path: str, node_id: str, out_dir: str = ".", rejoin: bool = False
) -> int:
    """``python -m repro serve --config T.toml --node PID --out DIR``."""
    try:
        config = TopologyConfig.load(config_path)
    except (OSError, ValueError) as exc:
        print(f"serve: cannot load {config_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return asyncio.run(run_node(config, node_id, out_dir, rejoin=rejoin))
    except KeyboardInterrupt:
        return EXIT_OK
