"""AsyncioTransport over real loopback sockets: delivery, hardening, reconnect."""

import asyncio
import socket

import pytest

from repro.bft import messages as bft
from repro.net.framing import FrameError
from repro.net.tcp import AsyncioTransport


def free_ports(count):
    sockets, ports = [], []
    for _ in range(count):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        sockets.append(probe)
        ports.append(probe.getsockname()[1])
    for probe in sockets:
        probe.close()
    return ports


def make_pair(loop, **kwargs):
    port_a, port_b = free_ports(2)
    book = {"a": ("127.0.0.1", port_a), "b": ("127.0.0.1", port_b)}
    inbox_a, inbox_b = [], []
    a = AsyncioTransport("a", book, loop,
                        lambda src, p: inbox_a.append((src, p)), **kwargs)
    b = AsyncioTransport("b", book, loop,
                        lambda src, p: inbox_b.append((src, p)))
    return a, b, inbox_a, inbox_b, book


async def eventually(predicate, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(0.01)


def test_transmit_delivers_protocol_messages():
    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, inbox_b, _ = make_pair(loop)
        await a.start()
        await b.start()
        message = bft.PrepareMsg(
            view=0, seq=1, request_digest=b"\x01" * 16,
            sender="a", auth={"b": b"\x02" * 8},
        )
        a.transmit("a", "b", message, 0, 0.0)
        a.transmit("a", "b", b"raw-bytes", 0, 0.0)
        await eventually(lambda: len(inbox_b) == 2)
        await a.stop()
        await b.stop()
        return a, b, inbox_b, message

    a, b, inbox_b, message = asyncio.run(scenario())
    assert inbox_b == [("a", message), ("a", b"raw-bytes")]
    assert a.stats["frames_sent"] == 2
    assert b.stats["frames_received"] == 2
    assert b.stats["bytes_received"] > 0


def test_ensure_links_barrier_and_counters():
    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, _ib, _ = make_pair(loop)
        await a.start()
        await b.start()
        await a.ensure_links(["b"], timeout=5.0)
        up = a.links_up
        await a.stop()
        await b.stop()
        return up

    assert asyncio.run(scenario()) == 1


def test_unknown_peer_drops_silently():
    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, _ib, _ = make_pair(loop)
        await a.start()
        a.transmit("a", "stranger", b"x", 0, 0.0)
        dropped = a.stats["sends_dropped_unknown_peer"]
        await a.stop()
        return dropped

    assert asyncio.run(scenario()) == 1


def test_oversize_payload_refuses_to_send():
    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, _ib, _ = make_pair(loop, max_frame_bytes=128)
        with pytest.raises(FrameError):
            a.transmit("a", "b", b"z" * 1024, 0, 0.0)
        await a.stop()

    asyncio.run(scenario())


def test_garbage_stream_cannot_crash_the_reader():
    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, inbox_b, book = make_pair(loop)
        await a.start()
        await b.start()
        # A hostile peer writes junk straight at b's listening socket.
        _reader, writer = await asyncio.open_connection(*book["b"])
        writer.write(b"THIS IS NOT A FRAME " * 10)
        await writer.drain()
        writer.close()
        await eventually(lambda: b.stats["recv_dropped_bad_frame"] == 1)
        # b still accepts well-formed traffic afterwards.
        a.transmit("a", "b", b"still-alive", 0, 0.0)
        await eventually(lambda: len(inbox_b) == 1)
        await a.stop()
        await b.stop()
        return inbox_b

    assert asyncio.run(scenario()) == [("a", b"still-alive")]


def test_misrouted_datagram_is_dropped():
    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, inbox_b, book = make_pair(loop)
        await b.start()
        # a deliberately frames a datagram addressed to someone else and
        # sends it down b's pipe (address-book confusion / hostile relay).
        book_lying = dict(book)
        book_lying["c"] = book["b"]
        liar = AsyncioTransport("a", book_lying, loop, lambda s, p: None)
        liar.transmit("a", "c", b"not-for-b", 0, 0.0)
        await eventually(lambda: b.stats["recv_dropped_misrouted"] == 1)
        await liar.stop()
        await b.stop()
        return inbox_b

    assert asyncio.run(scenario()) == []


def test_reconnect_redelivers_across_server_restart():
    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, inbox_b, book = make_pair(loop)
        await a.start()
        await b.start()
        a.transmit("a", "b", b"one", 0, 0.0)
        await eventually(lambda: len(inbox_b) == 1)
        await b.stop()  # peer crashes
        await asyncio.sleep(0.1)  # let the link fail and start redialing
        # Peer restarts on the same address (fresh transport, same inbox).
        b2 = AsyncioTransport("b", book, loop,
                             lambda src, p: inbox_b.append((src, p)))
        await b2.start()
        # The wire is at-least-once-with-loss: a frame written into a
        # just-died socket may vanish. Retransmit like the protocol does
        # until the reborn peer hears us.
        deadline = loop.time() + 10.0
        while len(inbox_b) < 2:
            assert loop.time() < deadline, "link never recovered"
            a.transmit("a", "b", b"two", 0, 0.0)
            await asyncio.sleep(0.05)
        reconnects = a.stats["reconnects"]
        await a.stop()
        await b2.stop()
        return inbox_b, reconnects

    inbox_b, reconnects = asyncio.run(scenario())
    assert inbox_b[0] == ("a", b"one")
    assert inbox_b[1] == ("a", b"two")
    assert reconnects >= 1


def test_queue_full_drops_newest():
    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, _ib, _ = make_pair(loop, queue_limit=2)
        # Never start the server: the link cannot drain, the queue fills.
        for _ in range(5):
            a.transmit("a", "b", b"x", 0, 0.0)
        dropped = a.stats["sends_dropped_queue_full"]
        await a.stop()
        return dropped

    assert asyncio.run(scenario()) >= 2


def test_hostile_frames_cost_one_counted_drop_each_and_never_raise():
    """The mutated corpus of ``test_wire_reference`` at the frame handler:
    a frame is delivered, misrouted or one ``recv_dropped_bad_frame`` -
    nothing else moves, nothing raises, and the good frame behind a bad one
    in the same read still arrives."""
    from repro.net import tcp
    from repro.net.framing import encode_frame
    from repro.net.wire import WireCodecError, decode_datagram, encode_datagram
    from tests.net.test_wire_reference import mutated_frames, restructured_frames, same

    delivered = []
    transport = AsyncioTransport(
        "kv-e2", {}, None, lambda src, payload: delivered.append((src, payload))
    )
    outcomes = {"frames_received": [], "recv_dropped_misrouted": [], "recv_dropped_bad_frame": []}
    for body in mutated_frames(11, 1500) + restructured_frames(11, 500):
        before, already = dict(transport.stats), len(delivered)
        transport._handle_frame(body)
        moved = {name: count - before[name] for name, count in transport.stats.items()}
        (counter,) = (name for name, by in moved.items() if by)
        assert moved[counter] == 1
        outcomes[counter].append(body)
        try:
            src, dst, payload = decode_datagram(body)
        except WireCodecError:
            assert counter == "recv_dropped_bad_frame"
            continue
        assert counter == ("frames_received" if dst == "kv-e2" else "recv_dropped_misrouted")
        assert len(delivered) == already + (dst == "kv-e2")
        assert dst != "kv-e2" or same(delivered[-1], (src, payload))
    assert all(len(bodies) > 20 for bodies in outcomes.values()), {
        name: len(bodies) for name, bodies in outcomes.items()
    }
    assert len(delivered) == len(outcomes["frames_received"])

    good = encode_datagram("kv-e1", "kv-e2", b"behind a bad frame")
    peer = tcp._InboundPeer(transport)
    for bad in outcomes["recv_dropped_bad_frame"][:100]:
        dropped, already = transport.stats["recv_dropped_bad_frame"], len(delivered)
        read = memoryview(encode_frame(bad) + encode_frame(good))
        while read:  # one read when it fits the buffer, as most do
            buffer = peer.get_buffer(-1)
            size = min(len(buffer), len(read))
            buffer[:size] = read[:size]
            peer.buffer_updated(size)
            read = read[size:]
        assert transport.stats["recv_dropped_bad_frame"] == dropped + 1
        assert delivered[already:] == [("kv-e1", b"behind a bad frame")]
