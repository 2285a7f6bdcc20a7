"""SMIOP: the Secure Multicast Inter-ORB Protocol pluggable transport.

Figure 2's stack, top to bottom: ORB → SMIOP pluggable protocol → ITDOS
Sockets → Secure Reliable Multicast (PBFT) → IP multicast. This module is
the thin adapter that slots the ITDOS socket layer (:mod:`repro.itdos.sockets`)
under the ORB through the pluggable protocol interface — the exact
integration point the paper uses in TAO (§3.3).
"""

from __future__ import annotations

from typing import Callable

from repro.giop.ior import ObjectRef
from repro.itdos.sockets import OutgoingConnection, SmiopEndpoint
from repro.orb.pluggable import Connection, PluggableProtocol, ReplyHandler


class SmiopConnectionAdapter(Connection):
    """Presents an ITDOS virtual connection through the ORB's interface.

    A virtual connection admits one outstanding two-way request (§3.6's
    one-per-connection rule, enforced by the socket layer). Rather than
    surface that as an error to the ORB, the adapter queues extra requests
    and pumps the queue as replies decide — so many application-level calls
    can be submitted back to back and the ordering layer's batching can
    amortize them.
    """

    def __init__(self, connection: OutgoingConnection) -> None:
        self.connection = connection
        self._send_queue: list[tuple[bytes, ReplyHandler]] = []
        # Fast-path reads have their own one-outstanding discipline and
        # queue: a read may be in flight *concurrently* with an ordered
        # request (reads touch no ordered state), but reads serialise among
        # themselves so the read-id space mirrors §3.6's request-id rules.
        self._read_queue: list[tuple[bytes, ReplyHandler]] = []

    @property
    def connected(self) -> bool:
        return self.connection.connected

    def send_request(
        self, wire: bytes, on_reply: ReplyHandler | None, read_only: bool = False
    ) -> None:
        if on_reply is None:
            # Oneway: no reply slot consumed, never queued.
            self.connection.send_request(wire, None)
            return
        if (
            read_only
            and self.connection.endpoint.directory.read_fastpath
        ):
            if self.connection.outstanding_read or self._read_queue:
                self._read_queue.append((wire, on_reply))
                return
            self._dispatch_read(wire, on_reply)
            return
        if self.connection.outstanding or self._send_queue:
            self._send_queue.append((wire, on_reply))
            return
        self._dispatch(wire, on_reply)

    def _dispatch(self, wire: bytes, on_reply: ReplyHandler) -> None:
        def chained(reply: bytes) -> None:
            # The socket clears its reply slot before invoking the handler,
            # so the pump below sees the connection as free even if the
            # handler itself raises.
            try:
                on_reply(reply)
            finally:
                self._pump_queue()

        self.connection.send_request(wire, chained)

    def _pump_queue(self) -> None:
        while self._send_queue and not self.connection.outstanding:
            wire, on_reply = self._send_queue.pop(0)
            self._dispatch(wire, on_reply)

    # -- read fast path -------------------------------------------------------

    def _dispatch_read(self, wire: bytes, on_reply: ReplyHandler) -> None:
        def chained(reply: bytes) -> None:
            try:
                on_reply(reply)
            finally:
                self._pump_reads()

        def fallback() -> None:
            # Timeout or divergence: resubmit the *same* GIOP wire through
            # the ordered path, transparently to the caller. Tentative
            # execution touched no server state and consumed no ordered
            # request id, so this cannot double-execute; the ordered path's
            # own retransmission then guarantees the reply decides.
            self.send_request(wire, on_reply, read_only=False)
            self._pump_reads()

        self.connection.read_request(wire, chained, fallback)

    def _pump_reads(self) -> None:
        while self._read_queue and not self.connection.outstanding_read:
            wire, on_reply = self._read_queue.pop(0)
            self._dispatch_read(wire, on_reply)

    def close(self) -> None:
        self._send_queue.clear()
        self._read_queue.clear()
        self.connection.close()


class SmiopTransport(PluggableProtocol):
    """Pluggable protocol: ``smiop`` object references ride ITDOS sockets."""

    name = "smiop"

    def __init__(self, endpoint: SmiopEndpoint) -> None:
        self.endpoint = endpoint
        self._adapters: dict[int, SmiopConnectionAdapter] = {}

    def shutdown(self) -> None:
        """Element stop: drain every adapter's §3.6 send queue and close the
        underlying virtual connections (cancelling their retry timers)."""
        for adapter in self._adapters.values():
            adapter.close()
        self._adapters.clear()
        self.endpoint.shutdown()

    def connect(self, ref: ObjectRef, on_ready: Callable[[Connection], None]) -> None:
        # One adapter per virtual connection: the adapter owns the §3.6 send
        # queue, so every invocation must share it. A fresh adapter per
        # connect() call would give each caller a private queue that nothing
        # pumps once the shared socket is busy — the queued request would
        # hang forever.
        def wrap(connection: "OutgoingConnection") -> None:
            adapter = self._adapters.get(connection.conn_id)
            if adapter is None or adapter.connection is not connection:
                adapter = SmiopConnectionAdapter(connection)
                self._adapters[connection.conn_id] = adapter
            on_ready(adapter)

        self.endpoint.connect(ref.domain_id, wrap)
