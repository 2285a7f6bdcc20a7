"""The asyncio TCP transport: real sockets under the protocol stack.

One :class:`AsyncioTransport` serves one OS process. It listens on the
process's own topology address and keeps one outbound link per peer:

* **framing** — every datagram is one length-prefixed frame
  (:mod:`repro.net.framing`) around an addressed, wire-encoded payload
  (:mod:`repro.net.wire`); a payload for several peers is encoded once;
* **no task per frame** — links and inbound connections are asyncio
  protocols: a send is one ``transport.write`` on the caller's stack, a
  read goes from a reused buffer through the frame decoder to the
  delivery upcall. The only task is a link's dialler;
* **reconnect** — links dial eagerly and redial on failure with capped
  exponential backoff. Frames accepted while a link is down wait in its
  backlog and go out in order when it comes up; frames already handed to
  a socket that then dies are lost (protocol layers retransmit);
* **backpressure** — a link writes through until asyncio's write buffer
  passes its high-water mark, then holds frames in a backlog bounded by
  ``queue_limit``; when that is full the *newest* frame is dropped and
  counted. Dropping (rather than blocking the single-threaded protocol
  loop) is exactly the wire's §2.2 contract: loss is allowed,
  retransmission is the protocol's job;
* **hardening** — inbound streams that desynchronise, claim oversize
  frames, or carry undecodable datagrams are dropped at the frame layer
  with a counter; a Byzantine peer cannot crash the receiver.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Iterable

from repro.net.framing import DEFAULT_MAX_FRAME, FrameDecoder, FrameError, encode_frame
from repro.net.transport import Transport
from repro.net.wire import WireCodecError, decode_datagram, encode_datagram
from repro.net.wire import readdress_datagram

#: Reconnect backoff: BASE * 2^attempt, capped.
RECONNECT_BASE = 0.05
RECONNECT_CAP = 2.0
#: An inbound connection's reused read buffer doubles when a ``recv`` fills it.
READ_BUFFER_MIN, READ_BUFFER_MAX = 4 * 1024, 64 * 1024


class _PeerLink(asyncio.Protocol):
    """Outbound connection: write-through, bounded backlog, reconnecting dialler."""

    def __init__(
        self, transport: "AsyncioTransport", pid: str, host: str, port: int
    ) -> None:
        self.transport = transport
        self.pid, self.host, self.port = pid, host, port
        self.backlog: deque[bytes] = deque()
        self.connected = asyncio.Event()
        self._stream: asyncio.WriteTransport | None = None
        self._writable = False  # connected and below the high-water mark
        self._ever_connected = False
        self._closed = False
        self.task = transport.loop.create_task(self._dial(), name=f"link:{pid}")

    async def _dial(self) -> None:
        attempt = 0
        while True:
            try:
                await self.transport.loop.create_connection(
                    lambda: self, self.host, self.port
                )
                return
            except OSError:
                delay = min(RECONNECT_BASE * (2**attempt), RECONNECT_CAP)
                attempt += 1
                await asyncio.sleep(delay)

    # -- asyncio.Protocol ---------------------------------------------------

    def connection_made(self, stream: asyncio.BaseTransport) -> None:
        if self._closed:
            stream.close()
            return
        if self._ever_connected:
            self.transport.stats["reconnects"] += 1
        self._ever_connected = True
        self._stream = stream  # type: ignore[assignment]
        self.connected.set()
        self.resume_writing()

    def pause_writing(self) -> None:
        self._writable = False

    def resume_writing(self) -> None:
        self._writable = True
        backlog = self.backlog
        # A write may cross the high-water mark and pause us mid-flush.
        while backlog and self._writable:
            self._write(backlog.popleft())

    def connection_lost(self, exc: Exception | None) -> None:
        self._stream = None
        self._writable = False
        self.connected.clear()
        if not self._closed:
            self.task = self.transport.loop.create_task(
                self._dial(), name=f"link:{self.pid}"
            )

    # -- sending ------------------------------------------------------------

    def _write(self, frame: bytes) -> None:
        self._stream.write(frame)  # type: ignore[union-attr]
        stats = self.transport.stats
        stats["frames_sent"] += 1
        stats["bytes_sent"] += len(frame)

    def enqueue(self, frame: bytes) -> bool:
        """Send ``frame`` now or hold it; ``False`` when the backlog is full."""
        if self._writable:  # implies an empty backlog: order is kept
            self._write(frame)
        elif len(self.backlog) < self.transport.queue_limit:
            self.backlog.append(frame)
        else:
            return False
        return True

    def close(self) -> None:
        self._closed = True
        self.task.cancel()
        if self._stream is not None:
            # Flush what the socket buffer holds - unless the link is paused:
            # that peer is not reading, and the flush would never end.
            (self._stream.close if self._writable else self._stream.abort)()


class _InboundPeer(asyncio.BufferedProtocol):
    """One accepted connection: bytes -> frames -> the delivery upcall.
    Reads land in one reused buffer (no allocation per ``recv``)."""

    def __init__(self, transport: "AsyncioTransport") -> None:
        self.transport = transport
        self.decoder = FrameDecoder(max_frame_bytes=transport.max_frame_bytes)
        self._read_buffer = memoryview(bytearray(READ_BUFFER_MIN))

    def connection_made(self, stream: asyncio.BaseTransport) -> None:
        self.stream = stream
        self.transport._inbound.add(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._read_buffer

    def buffer_updated(self, nbytes: int) -> None:
        transport = self.transport
        transport.stats["bytes_received"] += nbytes
        data = self._read_buffer[:nbytes]
        if nbytes == len(self._read_buffer) < READ_BUFFER_MAX:
            self._read_buffer = memoryview(bytearray(2 * nbytes))  # offer more
        try:
            frames = self.decoder.feed(data)
        except FrameError:
            # Desynchronised or hostile stream: kill the connection;
            # the peer's link will redial with a fresh decoder.
            transport.stats["recv_dropped_bad_frame"] += 1
            self.stream.close()
            return
        for body in frames:
            transport._handle_frame(body)

    def connection_lost(self, exc: Exception | None) -> None:
        self.transport._inbound.discard(self)


class AsyncioTransport(Transport):
    """Length-prefixed GIOP/SMIOP traffic over asyncio TCP streams."""

    def __init__(
        self,
        own_pid: str,
        address_book: dict[str, tuple[str, int]],
        loop: asyncio.AbstractEventLoop,
        on_deliver: Callable[[str, Any], None],
        max_frame_bytes: int = DEFAULT_MAX_FRAME,
        queue_limit: int = 1024,
    ) -> None:
        self.own_pid = own_pid
        self.address_book = dict(address_book)
        self.loop = loop
        self.on_deliver = on_deliver
        self.max_frame_bytes = max_frame_bytes
        self.queue_limit = queue_limit
        self._links: dict[str, _PeerLink] = {}
        self._server: asyncio.base_events.Server | None = None
        self._inbound: set[_InboundPeer] = set()
        self.stats: dict[str, int] = {
            "frames_sent": 0,
            "frames_received": 0,
            "bytes_sent": 0,
            "bytes_received": 0,
            "sends_dropped_queue_full": 0,
            "sends_dropped_unknown_peer": 0,
            "recv_dropped_bad_frame": 0,
            "recv_dropped_misrouted": 0,
            "reconnects": 0,
        }

    # -- server side --------------------------------------------------------

    async def start(self) -> None:
        host, port = self.address_book[self.own_pid]
        self._server = await self.loop.create_server(
            lambda: _InboundPeer(self), host, port
        )

    def _handle_frame(self, body: bytes) -> None:
        try:
            src, dst, payload = decode_datagram(body)
        except WireCodecError:
            self.stats["recv_dropped_bad_frame"] += 1
            return
        if dst != self.own_pid:
            self.stats["recv_dropped_misrouted"] += 1
            return
        self.stats["frames_received"] += 1
        self.on_deliver(src, payload)

    # -- client side --------------------------------------------------------

    def _link_for(self, dst: str) -> _PeerLink | None:
        link = self._links.get(dst)
        if link is None:
            address = self.address_book.get(dst)
            if address is None:
                return None
            link = _PeerLink(self, dst, address[0], address[1])
            self._links[dst] = link
        return link

    def transmit(
        self, src: str, dst: str, payload: Any, size: int, extra_delay: float
    ) -> None:
        self.transmit_many(src, (dst,), payload, size, extra_delay)

    def transmit_many(
        self, src: str, dsts: Iterable[str], payload: Any, size: int, extra_delay: float
    ) -> None:
        """One payload to several peers: one encode, re-addressed for every
        further known destination."""
        body: bytes | None = None
        for dst in dsts:
            if dst not in self.address_book:
                # Unknown (e.g. expelled and deregistered): drop silently, as IP would.
                self.stats["sends_dropped_unknown_peer"] += 1
                continue
            if body is None:
                body = encode_datagram(src, dst, payload)
            else:
                body = readdress_datagram(body, dst)
            frame = encode_frame(body, max_frame_bytes=self.max_frame_bytes)
            if extra_delay > 0:
                self.loop.call_later(extra_delay, self._enqueue, dst, frame)
            else:
                self._enqueue(dst, frame)

    def _enqueue(self, dst: str, frame: bytes) -> None:
        link = self._link_for(dst)
        if link is None:
            self.stats["sends_dropped_unknown_peer"] += 1
        elif not link.enqueue(frame):
            self.stats["sends_dropped_queue_full"] += 1

    # -- readiness & shutdown ----------------------------------------------

    async def ensure_links(self, peers: list[str], timeout: float = 30.0) -> None:
        """Dial every peer and wait until all links are up (cluster barrier).

        Raises ``TimeoutError`` if any peer stays unreachable — the
        launcher treats that as a failed deployment, not a protocol fault.
        """
        links = [self._link_for(pid) for pid in peers if pid != self.own_pid]
        waits = [link.connected.wait() for link in links if link is not None]
        if waits:
            await asyncio.wait_for(asyncio.gather(*waits), timeout=timeout)

    async def ensure_quorum(
        self, peers: list[str], minimum: int, timeout: float = 30.0
    ) -> None:
        """Dial every peer; wait until at least ``minimum`` links are up.

        The client-side barrier: a voter needs 2f+1 live replicas, not all
        3f+1 — a cluster already missing a (tolerated) crashed node must
        still accept new clients.
        """
        links = [
            link
            for pid in peers
            if pid != self.own_pid
            if (link := self._link_for(pid)) is not None
        ]
        minimum = min(minimum, len(links))

        async def poll() -> None:
            while sum(1 for link in links if link.connected.is_set()) < minimum:
                await asyncio.sleep(0.02)

        await asyncio.wait_for(poll(), timeout=timeout)

    @property
    def links_up(self) -> int:
        return sum(1 for link in self._links.values() if link.connected.is_set())

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, close links and inbound peers."""
        links = list(self._links.values())
        self._links.clear()
        for link in links:
            link.close()
        for peer in self._inbound:
            peer.stream.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.gather(*(link.task for link in links), return_exceptions=True)
        # One more turn so connection_lost runs before the loop is torn down.
        await asyncio.sleep(0)

    def close(self) -> None:
        """Sync best-effort close (Transport interface); prefer ``stop``."""
        if self.loop.is_running():
            self.loop.create_task(self.stop())
