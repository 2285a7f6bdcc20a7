"""NetWorld: the one-process Network facade over a Transport."""

import asyncio

import pytest

from repro.net.clock import RealTimeScheduler
from repro.net.transport import Transport
from repro.net.world import NetWorld
from repro.sim.process import Process


class FakeTransport(Transport):
    def __init__(self):
        self.sent = []

    def transmit(self, src, dst, payload, size, extra_delay):
        self.sent.append((src, dst, payload))


class Recorder(Process):
    def __init__(self, pid):
        super().__init__(pid)
        self.received = []

    def on_message(self, src, payload):
        self.received.append((src, payload))


class Exploder(Process):
    def on_message(self, src, payload):
        raise RuntimeError("byzantine payload")


GROUPS = {"calc": ("a", "b", "c"), "gm": ("g0", "g1")}


def make_world(process, loop):
    transport = FakeTransport()
    world = NetWorld(RealTimeScheduler(loop), transport, GROUPS)
    world.host(process)
    return world, transport


def test_remote_send_goes_to_transport(monkeypatch):
    from tests.net.test_send_path import MESSAGE, count_calls

    sized = count_calls(monkeypatch, type(MESSAGE), "wire_size")

    async def scenario():
        world, transport = make_world(Recorder("a"), asyncio.get_running_loop())
        world.send("a", "b", b"ping")
        world.send("a", "b", MESSAGE)
        world.multicast("a", "gm", MESSAGE)
        return world, transport

    world, transport = asyncio.run(scenario())
    assert transport.sent == [
        ("a", "b", b"ping"), ("a", "b", MESSAGE), ("a", "g0", MESSAGE), ("a", "g1", MESSAGE)
    ]
    assert world.stats.messages_sent == 4
    # The world sizes nothing: bytes are what the transport writes
    # (tests/net/test_send_path.py counts them against the frames).
    assert world.stats.bytes_sent == 0 and sized == []


def test_self_send_stays_off_the_wire_but_is_asynchronous():
    async def scenario():
        process = Recorder("a")
        world, transport = make_world(process, asyncio.get_running_loop())
        world.send("a", "a", b"note")
        sync_view = list(process.received)  # must not deliver re-entrantly
        await asyncio.sleep(0.02)
        return transport, sync_view, process.received

    transport, sync_view, received = asyncio.run(scenario())
    assert transport.sent == []
    assert sync_view == []
    assert received == [("a", b"note")]


def test_multicast_fans_out_with_loopback_semantics():
    async def scenario():
        process = Recorder("a")
        world, transport = make_world(process, asyncio.get_running_loop())
        world.multicast("a", "calc", b"m")  # member: self-copy scheduled
        world.multicast("a", "gm", b"g")  # non-member: wire only
        await asyncio.sleep(0.02)
        return world, transport, process.received

    world, transport, received = asyncio.run(scenario())
    assert [(d, p) for _s, d, p in transport.sent] == [
        ("b", b"m"), ("c", b"m"), ("g0", b"g"), ("g1", b"g"),
    ]
    assert received == [("a", b"m")]  # own copy iff a member
    assert world.stats.multicasts_sent == 2


def test_unknown_multicast_address_raises():
    async def scenario():
        world, _ = make_world(Recorder("a"), asyncio.get_running_loop())
        with pytest.raises(KeyError):
            world.multicast("a", "nowhere", b"x")

    asyncio.run(scenario())


def test_byzantine_payload_cannot_kill_delivery():
    async def scenario():
        world, _ = make_world(Exploder("a"), asyncio.get_running_loop())
        world.deliver("b", b"garbage")
        return world

    world = asyncio.run(scenario())
    assert world.delivery_errors == 1
    assert world.stats.messages_delivered == 1


def test_run_is_refused():
    async def scenario():
        world, _ = make_world(Recorder("a"), asyncio.get_running_loop())
        with pytest.raises(RuntimeError):
            world.run()

    asyncio.run(scenario())
