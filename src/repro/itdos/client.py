"""The singleton ITDOS client process.

A singleton client (Figure 1, left) holds an ORB with the SMIOP transport;
invoking through a stub transparently performs the Figure 3 handshake on
first use, then encrypts, submits into the server domain's ordering, and
votes the reply copies — "all of this interaction is accomplished
transparently to the application developer" (§3.3).
"""

from __future__ import annotations

from typing import Any

from repro.giop.ior import ObjectRef
from repro.itdos.domain import SystemDirectory
from repro.itdos.keys import KeyStore
from repro.itdos.smiop import SmiopTransport
from repro.itdos.sockets import SmiopEndpoint
from repro.orb.core import Orb
from repro.orb.errors import NoResponse
from repro.orb.pluggable import Connection
from repro.orb.stubs import Stub
from repro.sim.process import Process


class ItdosClient(Process):
    """A non-replicated CORBA client speaking SMIOP."""

    def __init__(self, pid: str, directory: SystemDirectory) -> None:
        super().__init__(pid)
        if directory.dprf_public is None:
            raise ValueError("directory has no DPRF public parameters")
        self.directory = directory
        self.orb = Orb(directory.repository, platform=directory.platform_of(pid))
        self.key_store = KeyStore(directory.dprf_public)
        # Telemetry attaches after the process joins a network; bind lazily.
        self.key_store.telemetry_provider = lambda: self.telemetry
        self.key_store.owner_pid = pid
        self.endpoint = SmiopEndpoint(
            self, directory, self.key_store, kind="singleton"
        )
        self.orb.register_transport(SmiopTransport(self.endpoint))

    def on_message(self, src: str, payload: Any) -> None:
        self.endpoint.handle_message(src, payload)

    # -- synchronous convenience API (drives the simulation) -------------------

    def stub(self, ref: ObjectRef) -> Stub:
        """A stub whose calls run the simulation until the voted reply."""
        interface = self.directory.repository.lookup(ref.interface_name)
        return Stub(ref, interface, self._sync_invoke)

    def _sync_invoke(self, ref: ObjectRef, operation: str, args: tuple[Any, ...]) -> Any:
        outcome: list[bytes | None] = []
        t = self.telemetry
        root = (
            t.begin(
                "client.invoke",
                pid=self.pid,
                iface=ref.interface_name,
                op=operation,
            )
            if t.enabled
            else None
        )
        root_ctx = root.ctx if root is not None else None

        def on_connection(connection: Connection) -> None:
            op = self.directory.repository.lookup(ref.interface_name).operation(operation)
            wire = self.orb.marshal_request(
                ref, operation, args,
                request_id=self._peek_request_id(connection),
                response_expected=not op.oneway,
            )
            # The handshake lands asynchronously; re-enter the invocation's
            # span so the request rides the same trace.
            with t.use(root_ctx):
                if op.oneway:
                    connection.send_request(wire, None)
                    outcome.append(None)
                else:
                    connection.send_request(
                        wire, outcome.append, read_only=op.read_only
                    )

        with t.use(root_ctx):
            self.orb.transport_for(ref).connect(ref, on_connection)
        network = self.network
        network.run(stop_when=lambda: bool(outcome), max_events=2_000_000)
        if root is not None:
            t.end(root)
            t.registry.histogram(
                "client_invoke_seconds",
                "End-to-end invocation latency at the client stub",
                labels=("iface", "op"),
            ).labels(iface=ref.interface_name, op=operation).observe(
                root.end - root.start
            )
        if not outcome:
            raise NoResponse(f"no voted reply for {ref.interface_name}.{operation}")
        wire = outcome[0]
        if wire is None:
            return None
        return Orb.result_from_reply(self.orb.unmarshal_reply(wire))

    # -- asynchronous API (caller drives the simulation) ------------------------

    def async_invoke(
        self,
        ref: ObjectRef,
        operation: str,
        args: tuple[Any, ...],
        on_result: Any,
    ) -> None:
        """Submit one invocation without running the scheduler.

        ``on_result`` receives the unmarshalled result once the reply vote
        decides. The SMIOP send queue serialises overlapping submissions
        (one outstanding request per connection, §3.6), so callers may
        submit while an earlier call is still in flight. Used by drivers
        that own the event loop themselves — e.g. the chaos ScheduleRunner.
        """

        def on_connection(connection: Connection) -> None:
            op = self.directory.repository.lookup(ref.interface_name).operation(
                operation
            )
            wire = self.orb.marshal_request(
                ref, operation, args,
                request_id=self._peek_request_id(connection),
                response_expected=not op.oneway,
            )
            if op.oneway:
                connection.send_request(wire, None)
                on_result(None)
                return
            connection.send_request(
                wire,
                lambda reply: on_result(
                    Orb.result_from_reply(self.orb.unmarshal_reply(reply))
                ),
                read_only=op.read_only,
            )

        self.orb.transport_for(ref).connect(ref, on_connection)

    # -- sharding ---------------------------------------------------------------

    def router(self, shard_map: Any, refs: dict, txn_ref: Any = None) -> Any:
        """A :class:`~repro.itdos.sharding.ShardRouter` over this client.

        The router resolves each application key to its home shard domain
        (E20) and fans independent requests out concurrently — one virtual
        connection per shard, each keeping its own §3.6 discipline.
        """
        from repro.itdos.sharding import ShardRouter

        return ShardRouter(self, shard_map, refs, txn_ref=txn_ref)

    @staticmethod
    def _peek_request_id(connection: Connection) -> int:
        """The id the socket will assign next (ids live in the socket layer,
        but GIOP wants the id inside the marshalled message too)."""
        inner = getattr(connection, "connection", None)
        if inner is not None:
            return inner._next_request_id + 1
        return 1
