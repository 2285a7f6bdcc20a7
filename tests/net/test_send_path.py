"""The real-wire send and receive paths: encode once, write through, no
reader task to kill."""

import asyncio

import pytest

from repro.bft import messages as bft
from repro.chaos.adversary import ChaosController
from repro.chaos.schedule import ChaosPlan, PartitionWindow
from repro.crypto.encoding import canonical_bytes
from repro.itdos.messages import PayloadError, decode_payload
from repro.net import tcp, wire
from repro.net.clock import RealTimeScheduler
from repro.net.framing import encode_frame
from repro.net.tcp import AsyncioTransport
from repro.net.wire import (
    WireCodecError,
    decode_datagram,
    encode_datagram,
    readdress_datagram,
)
from repro.net.world import NetWorld
from tests.crypto.test_encoding_reference import nested_lists
from tests.net.test_tcp import eventually, free_ports, make_pair
from tests.net.test_world import Recorder

MESSAGE = bft.PrepareMsg(
    view=3, seq=9, request_digest=b"\x07" * 32, sender="a", auth={"b": b"\x02" * 8}
)


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_readdressed_datagram_equals_a_fresh_encode():
    first = encode_datagram("a", "b", MESSAGE)
    for dst in ("c", "a-much-longer-destination-name", "ü", ""):
        assert readdress_datagram(first, dst) == encode_datagram("a", dst, MESSAGE)
        assert decode_datagram(readdress_datagram(first, dst)) == ("a", dst, MESSAGE)


@pytest.mark.parametrize("payload", [MESSAGE, b"", b"raw" * 5000, ("t", 1, None)])
def test_datagram_envelope_is_the_canonical_mapping(payload):
    """The envelope is the canonical encoding of three values without names,
    ``dst`` first so a multicast swaps the head (the mapping ``{"dst", "p",
    "src"}`` this test is named for lost its keys)."""
    assert encode_datagram("src-pid", "dst-pid", payload) == canonical_bytes(
        ["dst-pid", wire.encode_wire_payload(payload), "src-pid"]
    )


class Socket:
    """A connected link's stream: keeps the frames written to it."""

    def __init__(self, dst, written):
        self.dst, self.written = dst, written

    def write(self, frame):
        self.written.append((self.dst, frame))

    def close(self):
        pass


def test_multicast_encodes_the_payload_once(monkeypatch):
    datagram_encodes = count_calls(monkeypatch, tcp, "encode_datagram")
    readdresses = count_calls(monkeypatch, tcp, "readdress_datagram")
    sized = count_calls(monkeypatch, bft.PrepareMsg, "wire_size")

    async def scenario():
        loop = asyncio.get_running_loop()
        book = {pid: ("127.0.0.1", 1) for pid in "abcd"}
        process = Recorder("a")
        world = NetWorld(RealTimeScheduler(loop), None, {"grp": ("d", "b", "a", "c")})
        transport = AsyncioTransport("a", book, loop, world.deliver)
        frames = []
        for dst in "bcd":  # every link up, its socket a recorder
            transport._link_for(dst).connection_made(Socket(dst, frames))
        world.transport = transport
        world.host(process)
        world.multicast("a", "grp", MESSAGE)
        delivered_synchronously = list(process.received)
        await asyncio.sleep(0.02)
        await transport.stop()
        return world, transport.stats, frames, delivered_synchronously, process.received

    world, stats, frames, delivered_synchronously, received = asyncio.run(scenario())
    # Three remote members: the payload is laid out once, the other two
    # frames are that one re-addressed.
    assert len(datagram_encodes) == 1 and len(readdresses) == 2
    assert frames == [
        (dst, encode_frame(encode_datagram("a", dst, MESSAGE))) for dst in "bcd"
    ]
    assert delivered_synchronously == []  # own copy is never re-entrant
    assert received == [("a", MESSAGE)]
    assert world.stats.messages_sent == 4
    # Bytes are the frames the transport wrote; no copy was sized by a model.
    assert stats["frames_sent"] == 3
    assert stats["bytes_sent"] == sum(len(frame) for _dst, frame in frames)
    assert world.stats.bytes_sent == 0 and sized == []


def test_dropped_and_unknown_destinations_cost_no_encode(monkeypatch):
    datagram_encodes = count_calls(monkeypatch, tcp, "encode_datagram")
    cut = PartitionWindow(start=0.0, end=60.0, group_a=frozenset({"b"}))
    judged = []

    class Spy(ChaosController):
        def intercept(self, src, dst, payload, size):
            judged.append(dst)
            return super().intercept(src, dst, payload, size)

    async def scenario():
        loop = asyncio.get_running_loop()
        a, _b, _ia, _ib, _ = make_pair(loop)
        world = NetWorld(RealTimeScheduler(loop), a, {"grp": ("a", "b", "stranger")})
        world.host(Recorder("a"))
        world.adversary = Spy(world, ChaosPlan(horizon=60.0, partitions=(cut,)))
        world.send("a", "b", b"partitioned")
        world.send("a", "stranger", b"unknown")
        world.multicast("a", "grp", b"all lost")
        await a.stop()
        return world, a.stats

    world, stats = asyncio.run(scenario())
    assert datagram_encodes == []
    assert judged == ["b", "stranger", "b", "stranger"]  # one each, in order
    assert world.stats.messages_dropped == 2
    assert stats["sends_dropped_unknown_peer"] == 2


def test_deeply_nested_frame_is_dropped_and_the_receiver_lives_on():
    hostile = nested_lists(3000)

    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, inbox_b, book = make_pair(loop)
        await a.start()
        await b.start()
        _reader, writer = await asyncio.open_connection(*book["b"])
        writer.write(encode_frame(hostile))
        # ... and the same bomb inside a well-addressed datagram's payload.
        writer.write(encode_frame(canonical_bytes({"src": "x", "dst": "b", "p": hostile})))
        await writer.drain()
        await eventually(lambda: b.stats["recv_dropped_bad_frame"] == 2)
        # The same connection is still served, and so is a fresh one.
        writer.write(encode_frame(encode_datagram("x", "b", b"same-connection")))
        await writer.drain()
        a.transmit("a", "b", b"fresh-connection", 0, 0.0)
        await eventually(lambda: len(inbox_b) == 2)
        writer.close()
        await a.stop()
        await b.stop()
        return sorted(inbox_b), b.stats

    inbox_b, stats = asyncio.run(scenario())
    assert inbox_b == [("a", b"fresh-connection"), ("x", b"same-connection")]
    assert stats["recv_dropped_bad_frame"] == 2
    assert stats["frames_received"] == 2


def test_nesting_bomb_is_an_ordinary_decode_error_in_both_backends():
    hostile = nested_lists(3000)
    with pytest.raises(WireCodecError):
        decode_datagram(hostile)
    with pytest.raises(PayloadError):  # the simulator's SMIOP payload path
        decode_payload(hostile)


@pytest.mark.parametrize("name", [["PrepareMsg"], {"a": 1}, 7, None])
def test_unhashable_wire_type_name_is_a_codec_error(name):
    from tests.net.test_wire_reference import in_envelope, laid

    body = in_envelope(laid(b"O", canonical_bytes(name), count=0))
    with pytest.raises(WireCodecError, match="unknown wire type"):
        decode_datagram(body)


def test_peer_that_never_reads_costs_bounded_memory_and_counted_drops():
    """A peer that accepts and then stalls: the socket buffer fills, asyncio
    pauses the link, the backlog fills, the newest frames are dropped."""
    queue_limit, frame_payload, attempts = 8, b"z" * 65536, 400

    accepted = []

    class NeverReads(asyncio.Protocol):
        def connection_made(self, transport):
            transport.pause_reading()
            accepted.append(transport)

    async def scenario():
        loop = asyncio.get_running_loop()
        port_a, port_b = free_ports(2)
        book = {"a": ("127.0.0.1", port_a), "b": ("127.0.0.1", port_b)}
        server = await loop.create_server(NeverReads, *book["b"])
        a = AsyncioTransport("a", book, loop, lambda s, p: None, queue_limit=queue_limit)
        await a.ensure_links(["b"], timeout=5.0)
        link = a._links["b"]
        held = []
        for _ in range(attempts):
            a.transmit("a", "b", frame_payload, 0, 0.0)
            await asyncio.sleep(0)
            held.append(
                len(link.backlog) * len(frame_payload)
                + link._stream.get_write_buffer_size()
            )
        stats = dict(a.stats)
        backlog = len(link.backlog)
        await a.stop()
        server.close()
        for transport in accepted:
            transport.abort()
        await server.wait_closed()
        return stats, backlog, max(held)

    stats, backlog, most_held = asyncio.run(scenario())
    assert backlog == queue_limit
    assert stats["sends_dropped_queue_full"] > attempts // 2
    assert stats["frames_sent"] + backlog + stats["sends_dropped_queue_full"] == attempts
    # asyncio's buffer overshoots its 64 KiB high-water mark by at most the
    # frame that crossed it; the backlog adds queue_limit frames.
    assert most_held <= (queue_limit + 3) * (len(frame_payload) + 256)


def test_backlog_flushes_in_order_when_the_peer_comes_up():
    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, inbox_b, _ = make_pair(loop)
        for index in range(5):  # b is not listening yet: frames wait in order
            a.transmit("a", "b", index, 0, 0.0)
        assert a.stats["frames_sent"] == 0
        await b.start()
        await eventually(lambda: len(inbox_b) == 5)
        a.transmit("a", "b", 5, 0, 0.0)  # link is up: written through
        sent_synchronously = a.stats["frames_sent"]
        await eventually(lambda: len(inbox_b) == 6)
        await a.stop()
        await b.stop()
        return inbox_b, sent_synchronously

    inbox_b, sent_synchronously = asyncio.run(scenario())
    assert inbox_b == [("a", index) for index in range(6)]
    assert sent_synchronously == 6


def test_decoder_keeps_nothing_of_a_read_buffer_the_caller_reuses():
    from repro.net.framing import FrameDecoder

    stream = encode_frame(b"first") + encode_frame(b"second-and-unfinished")
    scratch = bytearray(len(stream) - 4)
    scratch[:] = stream[:-4]
    decoder = FrameDecoder()
    with memoryview(scratch) as view:
        frames = decoder.feed(view)
    scratch[:] = b"\xff" * len(scratch)  # the next recv lands on the same bytes
    assert frames == [b"first"]
    assert decoder.feed(stream[-4:]) == [b"second-and-unfinished"]


def test_frames_larger_than_the_read_buffer_arrive_intact():
    big = [bytes([index]) * 200_000 for index in range(4)]

    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, inbox_b, _ = make_pair(loop)
        await a.start()
        await b.start()
        for payload in (b"small", *big, b"small again"):
            a.transmit("a", "b", payload, 0, 0.0)
        await eventually(lambda: len(inbox_b) == 6)
        grown = [len(peer._read_buffer) for peer in b._inbound]
        await a.stop()
        await b.stop()
        return inbox_b, grown

    inbox_b, grown = asyncio.run(scenario())
    assert [payload for _src, payload in inbox_b] == [b"small", *big, b"small again"]
    assert grown == [tcp.READ_BUFFER_MAX]  # doubled up to the cap, no further
