"""Unit tests for the simulated network and process actors."""

import pytest

from repro.sim import (
    FixedLatency,
    Network,
    NetworkConfig,
    Process,
    UniformLatency,
)


class Recorder(Process):
    """Test process that records every delivery."""

    def __init__(self, pid):
        super().__init__(pid)
        self.received = []

    def on_message(self, src, payload):
        self.received.append((src, payload, self.now))


class Echo(Process):
    """Replies to every message with ('echo', payload)."""

    def on_message(self, src, payload):
        self.send(src, ("echo", payload))


def make_net(**kwargs):
    return Network(NetworkConfig(**kwargs))


def test_point_to_point_delivery():
    net = make_net(latency=FixedLatency(0.01))
    a, b = Recorder("a"), Recorder("b")
    net.add_process(a)
    net.add_process(b)
    a.send("b", "hello")
    net.run()
    assert b.received == [("a", "hello", 0.01)]


def test_duplicate_pid_rejected():
    net = make_net()
    net.add_process(Recorder("a"))
    with pytest.raises(ValueError):
        net.add_process(Recorder("a"))


def test_request_reply_round_trip():
    net = make_net(latency=FixedLatency(0.005))
    client, server = Recorder("client"), Echo("server")
    net.add_process(client)
    net.add_process(server)
    client.send("server", "ping")
    net.run()
    assert client.received == [("server", ("echo", "ping"), 0.01)]


def test_send_to_unknown_process_is_dropped():
    net = make_net()
    a = Recorder("a")
    net.add_process(a)
    a.send("ghost", "boo")
    net.run()
    assert net.stats.messages_dropped == 1


def test_crashed_process_neither_sends_nor_receives():
    net = make_net()
    a, b = Recorder("a"), Recorder("b")
    net.add_process(a)
    net.add_process(b)
    b.crash()
    a.send("b", "m1")
    b.send("a", "m2")
    net.run()
    assert b.received == []
    assert a.received == []


def test_recovered_process_receives_again():
    net = make_net()
    a, b = Recorder("a"), Recorder("b")
    net.add_process(a)
    net.add_process(b)
    b.crash()
    b.recover()
    a.send("b", "m")
    net.run()
    assert len(b.received) == 1


def test_partition_blocks_both_directions():
    net = make_net()
    a, b = Recorder("a"), Recorder("b")
    net.add_process(a)
    net.add_process(b)
    net.partition({"a"}, {"b"})
    a.send("b", "x")
    b.send("a", "y")
    net.run()
    assert a.received == [] and b.received == []
    assert net.stats.messages_dropped == 2


def test_heal_restores_connectivity():
    net = make_net()
    a, b = Recorder("a"), Recorder("b")
    net.add_process(a)
    net.add_process(b)
    net.partition({"a"}, {"b"})
    net.heal()
    a.send("b", "x")
    net.run()
    assert len(b.received) == 1


def test_drop_probability_loses_some_messages():
    net = make_net(seed=42, drop_probability=0.5)
    a, b = Recorder("a"), Recorder("b")
    net.add_process(a)
    net.add_process(b)
    for _ in range(200):
        a.send("b", "m")
    net.run()
    assert 0 < len(b.received) < 200
    assert net.stats.messages_dropped + net.stats.messages_delivered == 200


def test_determinism_same_seed_same_delivery_times():
    def run_once():
        net = make_net(seed=7, latency=UniformLatency(0.001, 0.01))
        a, b = Recorder("a"), Recorder("b")
        net.add_process(a)
        net.add_process(b)
        for i in range(50):
            a.send("b", i)
        net.run()
        return [(p, t) for (_, p, t) in b.received]

    assert run_once() == run_once()


def test_different_seed_differs():
    def run_once(seed):
        net = make_net(seed=seed, latency=UniformLatency(0.001, 0.01))
        a, b = Recorder("a"), Recorder("b")
        net.add_process(a)
        net.add_process(b)
        for i in range(20):
            a.send("b", i)
        net.run()
        return [t for (_, _, t) in b.received]

    assert run_once(1) != run_once(2)


def test_multicast_reaches_all_members_not_others():
    net = make_net()
    procs = [Recorder(f"p{i}") for i in range(4)]
    for p in procs:
        net.add_process(p)
    group = net.create_group("224.0.0.1")
    group.join("p0")
    group.join("p1")
    group.join("p2")
    procs[3].send  # p3 not a member
    procs[0].multicast("224.0.0.1", "hello")
    net.run()
    assert len(procs[0].received) == 1  # loopback to sender-member
    assert len(procs[1].received) == 1
    assert len(procs[2].received) == 1
    assert len(procs[3].received) == 0


def test_multicast_sender_not_member_gets_no_loopback():
    net = make_net()
    a, b = Recorder("a"), Recorder("b")
    net.add_process(a)
    net.add_process(b)
    group = net.create_group("g")
    group.join("b")
    a.multicast("g", "m")
    net.run()
    assert a.received == []
    assert len(b.received) == 1


def test_multicast_unknown_address_raises():
    net = make_net()
    a = Recorder("a")
    net.add_process(a)
    with pytest.raises(KeyError):
        a.multicast("nope", "m")


def test_multicast_address_allocation_counted():
    net = make_net()
    net.create_group("g1")
    net.create_group("g2")
    assert net.multicast_addresses_allocated == 2
    with pytest.raises(ValueError):
        net.create_group("g1")


def test_group_leave_stops_delivery():
    net = make_net()
    a, b = Recorder("a"), Recorder("b")
    net.add_process(a)
    net.add_process(b)
    group = net.create_group("g")
    group.join("b")
    group.leave("b")
    a.multicast("g", "m")
    net.run()
    assert b.received == []


def test_per_byte_delay_slows_large_messages():
    net = make_net(latency=FixedLatency(0.001), per_byte_delay=0.0001)
    a, b = Recorder("a"), Recorder("b")
    net.add_process(a)
    net.add_process(b)
    a.send("b", b"x" * 100)  # 0.001 + 100*0.0001 = 0.011
    net.run()
    assert b.received[0][2] == pytest.approx(0.011)


def test_timers_fire_and_cancel():
    net = make_net()
    a = Recorder("a")
    net.add_process(a)
    fired = []
    a.set_timer(1.0, lambda: fired.append("t1"))
    h = a.set_timer(2.0, lambda: fired.append("t2"))
    a.cancel_timer(h)
    net.run()
    assert fired == ["t1"]


def test_timer_suppressed_by_crash():
    net = make_net()
    a = Recorder("a")
    net.add_process(a)
    fired = []
    a.set_timer(1.0, lambda: fired.append("t"))
    a.crash()
    net.run()
    assert fired == []


def test_timers_due_during_a_crash_fire_in_order_on_recover():
    net = make_net()
    a = Recorder("a")
    net.add_process(a)
    fired = []
    a.set_timer(1.0, lambda: fired.append(("t1", a.now)))
    a.set_timer(2.0, lambda: fired.append(("t2", a.now)))
    a.set_timer(5.0, lambda: fired.append(("t3", a.now)))
    a.crash()
    net.run(until=3.0)
    assert fired == []
    a.recover()
    assert fired == [("t1", 3.0), ("t2", 3.0)]
    net.run()
    assert fired[2:] == [("t3", 5.0)]


@pytest.mark.parametrize("discard", ["restart", "cancel_all_timers"])
def test_restart_and_cancel_all_timers_discard_overdue_timers(discard):
    net = make_net()
    a = Recorder("a")
    net.add_process(a)
    fired = []
    a.set_timer(1.0, lambda: fired.append("t"))
    a.crash()
    net.run()
    getattr(a, discard)()
    a.recover()
    assert fired == []


def test_unattached_process_send_raises():
    p = Recorder("lonely")
    with pytest.raises(RuntimeError):
        p.send("x", "m")


def test_traffic_stats_counted():
    net = make_net()
    a, b = Recorder("a"), Recorder("b")
    net.add_process(a)
    net.add_process(b)
    a.send("b", b"abcd")
    net.run()
    assert net.stats.messages_sent == 1
    assert net.stats.messages_delivered == 1
    assert net.stats.bytes_sent == 4


def test_trace_recorder_captures_send_and_deliver():
    net = make_net()
    trace = net.enable_trace()
    a, b = Recorder("a"), Recorder("b")
    net.add_process(a)
    net.add_process(b)
    a.send("b", "m")
    net.run()
    kinds = [e.kind for e in trace]
    assert kinds == ["send", "deliver"]
    assert trace.events[0].src == "a"
    assert trace.events[0].dst == "b"


def test_trace_filter_and_labels():
    net = make_net()
    trace = net.enable_trace()
    a, b = Recorder("a"), Recorder("b")
    net.add_process(a)
    net.add_process(b)
    a.send("b", "m1")
    b.send("a", "m2")
    net.run()
    assert len(trace.filter(kind="send")) == 2
    assert len(trace.filter(kind="send", src="a")) == 1
    assert trace.labels(kind="send") == ["str", "str"]
