"""The wire's one link-fault gate: ``NetWorld.adversary``, run by the chaos
controller exactly as the simulator's ``Network`` runs it."""

import asyncio

import pytest

from repro.chaos.adversary import ChaosController
from repro.chaos.schedule import ChaosPlan, PartitionWindow
from repro.net.clock import RealTimeScheduler
from repro.net.config import TopologyConfig
from repro.net.node import NodeHarness
from repro.net.transport import Transport
from repro.net.world import NetWorld
from repro.sim.network import Network
from repro.sim.process import Process
from tests.net.test_tcp import eventually, make_pair
from tests.net.test_world import Recorder

GROUPS = {"grp": ("a", "b", "c")}


class RecordingTransport(Transport):
    def __init__(self):
        self.sent = []

    def transmit(self, src, dst, payload, size, extra_delay):
        self.sent.append((src, dst, payload, extra_delay))


class Clock:
    """A scheduler whose time the test sets."""

    now = 0.0


def make_world(plan, seed=0):
    """A world hosting ``x`` (never a destination), gated by ``plan``."""
    clock, transport = Clock(), RecordingTransport()
    world = NetWorld(clock, transport, GROUPS)
    world.host(Recorder("x"))
    world.adversary = ChaosController(world, plan, seed=seed)
    return world, transport, clock


def kinds(controller):
    return [(event.kind, event.src, event.dst) for event in controller.events]


def test_no_fault_passes():
    world, transport, _clock = make_world(ChaosPlan(horizon=10.0))
    world.send("a", "b", b"ping")
    world.multicast("x", "grp", b"fan")
    assert transport.sent == [
        ("a", "b", b"ping", 0.0),
        ("x", "a", b"fan", 0.0),
        ("x", "b", b"fan", 0.0),
        ("x", "c", b"fan", 0.0),
    ]
    assert world.adversary.events == []


def test_validation():
    for fields in (
        {"p_drop": 1.5},
        {"p_equivocate": -0.1},
        {"max_extra_delay": -1.0},
        {"duplicate_delay": -0.5},
        {"reorder_factor": 0.5},
        {"horizon": 0.0},
        {"horizon": float("inf")},
        {"partitions": (PartitionWindow(2.0, 2.0, frozenset({"a"})),)},
    ):
        with pytest.raises(ValueError):
            ChaosPlan(**{"horizon": 10.0, **fields})


def test_certain_drop_and_delay():
    world, transport, _clock = make_world(ChaosPlan(horizon=10.0, p_drop=1.0))
    world.send("a", "b", b"doomed")
    world.multicast("x", "grp", b"doomed too")
    assert transport.sent == []
    assert world.stats.messages_dropped == 4
    assert world.adversary.applied == {"drop": 4}

    plan = ChaosPlan(horizon=10.0, p_delay=1.0, max_extra_delay=0.05)
    world, transport, _clock = make_world(plan)
    world.send("a", "b", b"late")
    [(src, dst, payload, extra_delay)] = transport.sent
    assert (src, dst, payload) == ("a", "b", b"late")
    assert 0.0 <= extra_delay <= 0.05
    assert world.adversary.applied == {"delay": 1}


def test_partition_and_heal():
    window = PartitionWindow(start=1.0, end=2.0, group_a=frozenset({"c"}))
    world, transport, clock = make_world(ChaosPlan(horizon=3.0, partitions=(window,)))
    clock.now = 1.5
    world.send("a", "c", b"1")
    world.send("c", "a", b"2")
    world.send("a", "b", b"3")  # same side of the cut
    clock.now = 2.0  # healed
    world.send("a", "c", b"4")
    clock.now = 3.0  # past the horizon: the plan is quiet
    world.send("c", "b", b"5")
    assert [payload for _s, _d, payload, _x in transport.sent] == [b"3", b"4", b"5"]
    assert kinds(world.adversary) == [("partition", "a", "c"), ("partition", "c", "a")]


def built_world(config, tmp_path):
    """The world ``calc-e0``'s harness builds from ``config``."""

    async def build():
        harness = NodeHarness(config, "calc-e0", str(tmp_path))
        harness._build(asyncio.get_running_loop())
        return harness.world

    return asyncio.run(build())


def test_from_config(tmp_path):
    """A node's world gates with the topology's plan, seeded by the
    topology's seed."""
    table = {"horizon": 5.0, "p_drop": 1.0, "partitions": [
        {"start": 0.0, "end": 1.0, "group_a": ["calc-e1"]},
    ]}
    plan = TopologyConfig.from_dict({"faults": table}).faults
    world = built_world(TopologyConfig(seed=3, faults=plan), tmp_path)
    assert isinstance(world.adversary, ChaosController)
    assert world.adversary.plan is plan
    assert world.adversary.rng.random() == ChaosController(world, plan, seed=3).rng.random()


def test_from_config_empty_spec_has_no_default_link(tmp_path):
    """A topology without ``[faults]`` leaves the slot empty, and every
    copy goes to the transport untouched."""
    config = TopologyConfig.from_dict({"seed": 3})
    assert config.faults is None
    world = built_world(config, tmp_path)
    assert world.adversary is None
    transport = world.transport = RecordingTransport()
    world.send("calc-e0", "calc-e1", b"ping")
    assert transport.sent == [("calc-e0", "calc-e1", b"ping", 0.0)]


def test_seeded_drops_are_deterministic():
    def run(seed):
        world, transport, _clock = make_world(ChaosPlan(horizon=10.0, p_drop=0.5), seed)
        for i in range(40):
            world.send("a", "b", bytes([i]))
        return kinds(world.adversary), transport.sent

    assert run(42) == run(42)
    events, sent = run(42)
    assert events and sent  # some dropped, some passed
    assert run(43) != run(42)


#: Time, sender, and a destination pid or the multicast group.
SCRIPT = [(0.1 * step, "abcx"[step % 4], ("b", "grp", "c", "a")[step % 3]) for step in range(60)]


def scripted_plan():
    return ChaosPlan(
        horizon=5.0,
        p_drop=0.2,
        p_duplicate=0.2,
        p_delay=0.2,
        p_reorder=0.1,
        p_corrupt=0.1,
        partitions=(PartitionWindow(start=1.0, end=2.5, group_a=frozenset({"b"})),),
    )


def test_one_plan_gives_one_fault_sequence_on_both_backends():
    """Network and NetWorld, one plan and one seed: the same faults fire on
    the same copies, and the same copies reach the transport."""
    # The world hosts "x", so every scripted copy is remote to it (a
    # member's own multicast copy included), as every copy is to Network.
    world, wire_transport, clock = make_world(scripted_plan(), seed=7)
    for at, src, dst in SCRIPT:
        clock.now = at
        payload = f"{src}@{at:.1f}".encode()
        (world.multicast if dst == "grp" else world.send)(src, dst, payload)

    network = Network()
    for pid in "abcx":
        network.add_process(Process(pid))
    group = network.create_group("grp")
    for pid in GROUPS["grp"]:
        group.join(pid)
    sim_transport = network.transport = RecordingTransport()
    controller = network.adversary = ChaosController(network, scripted_plan(), seed=7)
    for at, src, dst in SCRIPT:
        payload = f"{src}@{at:.1f}".encode()
        send = network.multicast if dst == "grp" else network.send
        network.scheduler.post(at, lambda s=send, a=(src, dst, payload): s(*a))
    network.run()

    assert kinds(controller) == kinds(world.adversary)
    assert {kind for kind, _s, _d in kinds(controller)} == {
        "drop", "duplicate", "delay", "reorder", "corrupt", "partition"
    }
    assert sim_transport.sent == wire_transport.sent


def test_world_gate_on_a_real_wire():
    """Over loopback TCP: a dropped copy never reaches the socket, a delayed
    one arrives no earlier than its delay."""

    async def scenario():
        loop = asyncio.get_running_loop()
        a, b, _ia, inbox_b, _ = make_pair(loop)
        await a.start()
        await b.start()
        world = NetWorld(RealTimeScheduler(loop), a, {})
        world.host(Recorder("a"))
        world.adversary = ChaosController(world, ChaosPlan(horizon=60.0, p_drop=1.0))
        world.send("a", "b", b"doomed")
        await asyncio.sleep(0.1)
        dropped = (list(inbox_b), a.stats["frames_sent"])
        # reorder_factor 1 makes the extra delay exactly max_extra_delay.
        late = ChaosPlan(horizon=60.0, p_reorder=1.0, max_extra_delay=0.2, reorder_factor=1.0)
        world.adversary = ChaosController(world, late)
        sent_at = loop.time()
        world.send("a", "b", b"late")
        await eventually(lambda: inbox_b)
        waited = loop.time() - sent_at
        await a.stop()
        await b.stop()
        return dropped, inbox_b, waited

    (dropped_inbox, frames_sent), inbox_b, waited = asyncio.run(scenario())
    assert dropped_inbox == [] and frames_sent == 0
    assert inbox_b == [("a", b"late")]
    assert waited >= 0.2
