"""Plain IIOP over the simulator: the unreplicated baseline.

One server process, point-to-point "TCP" with a one-round-trip connection
handshake, no replication, no voting, no encryption. Benchmarks compare
ITDOS against this to quantify the price of intrusion tolerance (E10), and
the connection-establishment experiment (E2) uses its handshake cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.giop.ior import ObjectRef
from repro.orb.core import Orb
from repro.orb.errors import CommFailure
from repro.orb.pluggable import Connection, PluggableProtocol, ReplyHandler
from repro.orb.stubs import Stub
from repro.sim.process import Process


@dataclass(frozen=True)
class _TcpSyn:
    conn_id: int


@dataclass(frozen=True)
class _TcpAck:
    conn_id: int


@dataclass(frozen=True)
class _GiopPacket:
    conn_id: int
    wire: bytes

    def wire_size(self) -> int:
        return len(self.wire) + 8


class IiopServer(Process):
    """Hosts an ORB and serves GIOP requests over simulated TCP."""

    def __init__(self, pid: str, orb: Orb) -> None:
        super().__init__(pid)
        self.orb = orb
        self.requests_served = 0

    def ref_for(self, object_key: bytes) -> ObjectRef:
        return self.orb.adapter.make_ref(object_key, domain_id=self.pid, transport="iiop")

    def on_message(self, src: str, payload: Any) -> None:
        from repro.giop.messages import (
            CloseConnectionMessage,
            GiopError,
            LocateRequestMessage,
            LocateStatus,
            RequestMessage,
            decode_message,
            encode_locate_reply,
            encode_message_error,
        )
        from repro.orb.errors import ObjectNotExist

        if isinstance(payload, _TcpSyn):
            self.send(src, _TcpAck(conn_id=payload.conn_id))
            return
        if not isinstance(payload, _GiopPacket):
            return
        try:
            decoded = decode_message(self.orb.repository, payload.wire)
        except GiopError:
            self.send(
                src,
                _GiopPacket(conn_id=payload.conn_id, wire=encode_message_error()),
            )
            return
        if isinstance(decoded, LocateRequestMessage):
            try:
                self.orb.adapter.servant_for(decoded.object_key)
                status = LocateStatus.OBJECT_HERE
            except ObjectNotExist:
                status = LocateStatus.UNKNOWN_OBJECT
            self.send(
                src,
                _GiopPacket(
                    conn_id=payload.conn_id,
                    wire=encode_locate_reply(decoded.request_id, status),
                ),
            )
            return
        if isinstance(decoded, CloseConnectionMessage):
            return  # peer closed; nothing server-side to tear down here
        if not isinstance(decoded, RequestMessage):
            return
        message = decoded
        try:
            result = self.orb.dispatch(message)
            if hasattr(result, "send") and hasattr(result, "throw"):
                raise CommFailure(
                    "nested invocations require the ITDOS transport; "
                    "the IIOP baseline hosts plain servants only"
                )
            reply = self.orb.marshal_reply(message, result)
        except Exception as exc:  # noqa: BLE001 - marshalled back to caller
            reply = self.orb.marshal_exception_reply(message, exc)
        self.requests_served += 1
        if message.response_expected:
            self.send(src, _GiopPacket(conn_id=payload.conn_id, wire=reply))


class _IiopConnection(Connection):
    """Client end of one simulated TCP connection."""

    def __init__(self, client: "IiopClient", server_pid: str, conn_id: int) -> None:
        self.client = client
        self.server_pid = server_pid
        self.conn_id = conn_id
        self._open = False
        self._next_request_id = 0
        self._handlers: dict[int, ReplyHandler] = {}
        self._locate_handlers: dict[int, Any] = {}

    @property
    def connected(self) -> bool:
        return self._open

    def next_request_id(self) -> int:
        self._next_request_id += 1
        return self._next_request_id

    def send_request(
        self, wire: bytes, on_reply: ReplyHandler | None, read_only: bool = False
    ) -> None:
        # IIOP has no fast path; the read_only hint is accepted and ignored.
        if not self._open:
            raise CommFailure("connection not established")
        message = self.client.orb.unmarshal_request(wire)
        if on_reply is not None:
            self._handlers[message.request_id] = on_reply
        self.client.send(self.server_pid, _GiopPacket(conn_id=self.conn_id, wire=wire))

    def send_locate(self, object_key: bytes, on_status) -> None:
        """GIOP LocateRequest: probe whether the peer serves an object."""
        from repro.giop.messages import encode_locate_request

        if not self._open:
            raise CommFailure("connection not established")
        request_id = self.next_request_id()
        self._locate_handlers[request_id] = on_status
        self.client.send(
            self.server_pid,
            _GiopPacket(
                conn_id=self.conn_id, wire=encode_locate_request(request_id, object_key)
            ),
        )

    def handle_reply(self, wire: bytes) -> None:
        from repro.giop.messages import (
            GiopError,
            LocateReplyMessage,
            ReplyMessage,
            decode_message,
        )

        try:
            message = decode_message(self.client.orb.repository, wire)
        except GiopError:
            return
        if isinstance(message, LocateReplyMessage):
            handler = self._locate_handlers.pop(message.request_id, None)
            if handler is not None:
                handler(message.locate_status)
            return
        if isinstance(message, ReplyMessage):
            handler = self._handlers.pop(message.request_id, None)
            if handler is not None:
                handler(wire)

    def close(self) -> None:
        from repro.giop.messages import encode_close_connection

        if self._open:
            self.client.send(
                self.server_pid,
                _GiopPacket(conn_id=self.conn_id, wire=encode_close_connection()),
            )
        self._open = False
        self.client._drop_connection(self)


class IiopTransport(PluggableProtocol):
    """Pluggable protocol adapter for the IIOP client."""

    name = "iiop"

    def __init__(self, client: "IiopClient") -> None:
        self.client = client

    def connect(self, ref: ObjectRef, on_ready: Callable[[Connection], None]) -> None:
        self.client.connect(ref.domain_id, on_ready)


class IiopClient(Process):
    """Unreplicated CORBA client over simulated TCP."""

    def __init__(self, pid: str, orb: Orb) -> None:
        super().__init__(pid)
        self.orb = orb
        self._next_conn = 0
        self._connections: dict[int, _IiopConnection] = {}
        self._by_server: dict[str, _IiopConnection] = {}
        self._awaiting_ack: dict[int, Callable[[Connection], None]] = {}
        orb.register_transport(IiopTransport(self))
        self.handshakes = 0

    def connect(self, server_pid: str, on_ready: Callable[[Connection], None]) -> None:
        existing = self._by_server.get(server_pid)
        if existing is not None and existing.connected:
            on_ready(existing)  # connection reuse (§3.4)
            return
        self._next_conn += 1
        connection = _IiopConnection(self, server_pid, self._next_conn)
        self._connections[connection.conn_id] = connection
        self._by_server[server_pid] = connection
        self._awaiting_ack[connection.conn_id] = on_ready
        self.handshakes += 1
        self.send(server_pid, _TcpSyn(conn_id=connection.conn_id))

    def _drop_connection(self, connection: _IiopConnection) -> None:
        self._connections.pop(connection.conn_id, None)
        if self._by_server.get(connection.server_pid) is connection:
            del self._by_server[connection.server_pid]

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, _TcpAck):
            connection = self._connections.get(payload.conn_id)
            on_ready = self._awaiting_ack.pop(payload.conn_id, None)
            if connection is not None:
                connection._open = True
                if on_ready is not None:
                    on_ready(connection)
            return
        if isinstance(payload, _GiopPacket):
            connection = self._connections.get(payload.conn_id)
            if connection is not None:
                connection.handle_reply(payload.wire)

    # -- synchronous convenience API (drives the simulation) -----------------

    def locate(self, ref: ObjectRef) -> bool:
        """GIOP LocateRequest round trip: is the object served there?"""
        from repro.giop.messages import LocateStatus

        outcome: list[LocateStatus] = []

        def on_connection(connection: Connection) -> None:
            assert isinstance(connection, _IiopConnection)
            connection.send_locate(ref.object_key, outcome.append)

        self.connect(ref.domain_id, on_connection)
        network = self.network
        network.run(stop_when=lambda: bool(outcome), max_events=100_000)
        if not outcome:
            raise CommFailure("no locate reply")
        return outcome[0] == LocateStatus.OBJECT_HERE

    def stub(self, ref: ObjectRef) -> Stub:
        """A stub whose calls run the simulation until the reply arrives."""
        interface = self.orb.repository.lookup(ref.interface_name)
        return Stub(ref, interface, self._sync_invoke)

    def _sync_invoke(self, ref: ObjectRef, operation: str, args: tuple[Any, ...]) -> Any:
        outcome: list[Any] = []

        def on_connection(connection: Connection) -> None:
            assert isinstance(connection, _IiopConnection)
            request_id = connection.next_request_id()
            oneway = self.orb.repository.lookup(ref.interface_name).operation(operation).oneway
            wire = self.orb.marshal_request(
                ref, operation, args, request_id, response_expected=not oneway
            )
            if oneway:
                connection.send_request(wire, None)
                outcome.append(("result", None))
                return
            connection.send_request(
                wire, lambda reply: outcome.append(("reply", reply))
            )

        self.connect(ref.domain_id, on_connection)
        network = self.network
        network.run(stop_when=lambda: bool(outcome), max_events=1_000_000)
        if not outcome:
            raise CommFailure(f"no reply for {ref.interface_name}.{operation}")
        kind, value = outcome[0]
        if kind == "result":
            return value
        return Orb.result_from_reply(self.orb.unmarshal_reply(value))
