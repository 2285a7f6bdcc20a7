"""The Transport seam: sim delivery routes through it; check_wire polices it."""

import pytest

from repro.chaos.schedule import Scenario
from repro.net.transport import SimTransport, Transport
from repro.net.wire import WireCodecError
from repro.sim import FixedLatency, Network, NetworkConfig, Process
from repro.workloads.scenarios import build_calc_system


#: scenario label -> registered message types its checked cell put on the wire
CROSSED: dict[str, set[str]] = {}


class Recorder(Process):
    def __init__(self, pid):
        super().__init__(pid)
        self.received = []

    def on_message(self, src, payload):
        self.received.append((src, payload))


class CountingTransport(Transport):
    """Wraps the sim transport, counting what crosses the seam."""

    def __init__(self, inner):
        self.inner = inner
        self.transmits = 0

    def transmit(self, src, dst, payload, size, extra_delay):
        self.transmits += 1
        self.inner.transmit(src, dst, payload, size, extra_delay)


def test_network_default_transport_is_sim():
    net = Network(NetworkConfig(latency=FixedLatency(0.001)))
    assert isinstance(net.transport, SimTransport)
    assert net.transport.network is net


def test_sends_route_through_the_seam():
    net = Network(NetworkConfig(latency=FixedLatency(0.001)))
    counter = CountingTransport(net.transport)
    net.transport = counter
    a, b = Recorder("a"), Recorder("b")
    net.add_process(a)
    net.add_process(b)
    a.send("b", b"ping")
    net.run(until=1.0)
    assert b.received == [("a", b"ping")]
    assert counter.transmits == 1


def test_check_wire_rejects_object_graph_leakage():
    net = Network(NetworkConfig(latency=FixedLatency(0.001), check_wire=True))
    a, b = Recorder("a"), Recorder("b")
    net.add_process(a)
    net.add_process(b)

    class Leaky:  # shared-address-space-only payload
        pass

    with pytest.raises(WireCodecError):
        a.send("b", Leaky())


def test_check_wire_full_itdos_session():
    """Regression (the PR's contract): every payload the whole stack emits
    during bootstrap, ordering, voting, and GM traffic is canonically
    bytes-encodable and re-encodes byte-identically."""
    system = build_calc_system(f=1, seed=3)
    system.network.check_wire = True
    client = system.add_client("client-0")
    stub = client.stub(system.ref("calc", b"calc"))
    assert stub.add(2.0, 3.0) == 5.0
    assert stub.mean([1.0, 2.0, 3.0]) == 2.0
    system.settle(2.0)  # GM coin traffic, rekey ticks, checkpoints
    assert system.network.stats.messages_delivered > 0


#: Which cell puts what on the wire was surveyed, not assumed: the ``vc``
#: cell's half-second primary crash is shorter than the view-change timeout
#: on most seeds (no ``NewViewMsg`` on seeds 0-7), so the view changes come
#: from ``rec`` seed 0; BFT state transfer only runs in the cross-shard cell.
CHECKED_CELLS = [
    (Scenario(batch_size=4, forced_view_change=True), 0),
    (Scenario(pipeline_window=4, mid_run_recovery=True), 0),
    (Scenario(read_fastpath=True), 1),
    (Scenario(cross_shard=True), 0),
]


@pytest.mark.parametrize(
    "scenario,seed", CHECKED_CELLS, ids=[cell.label for cell, _ in CHECKED_CELLS]
)
def test_check_wire_chaos_cell_matches_the_reference_codec(scenario, seed, monkeypatch):
    """Live shapes, not only samples: every payload a chaos-smoke cell puts
    on the (simulated) wire goes through the codec with the two-pass
    reference beside it - bytes and objects."""
    from repro import schema
    from repro.chaos.runner import ScheduleRunner
    from repro.net import wire
    from tests.net import reference_wire as reference
    from tests.net.test_wire_reference import same

    crossed = CROSSED.setdefault(scenario.label, set())

    def note_types(value):
        plan = schema.plan_of(type(value))
        if plan is not None:
            crossed.add(plan.name)
            value = [getattr(value, name) for name in plan.names]
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (list, tuple)):
            for item in value:
                note_types(item)

    round_trip = wire.assert_wire_encodable
    mismatches = []  # kept here as well: a handler may swallow the raise

    def with_the_oracle(payload):
        raw = round_trip(payload)
        body = wire.encode_datagram("src", "dst", payload)
        if not (
            raw == reference.encode_wire_payload(payload)
            and same(wire.decode_wire_payload(raw), reference.decode_wire_payload(raw))
            and same(wire.decode_datagram(body), reference.decode_datagram(body))
        ):
            mismatches.append(payload)
            raise AssertionError(f"codec and reference disagree on {payload!r}")
        note_types(payload)
        return raw

    run_cell = ScheduleRunner._run_cell

    def checked(self, system, *args):
        system.network.check_wire = True
        return run_cell(self, system, *args)

    monkeypatch.setattr(wire, "assert_wire_encodable", with_the_oracle)
    monkeypatch.setattr(ScheduleRunner, "_run_cell", checked)
    result = ScheduleRunner(scenarios=(scenario,), seeds=(seed,)).run_one(scenario, seed)
    assert not mismatches and result.ok, (mismatches[:1], result.violations)
    assert result.deliveries > 500 and len(crossed) >= 10


def test_the_checked_chaos_cells_crossed_the_deep_shapes():
    crossed = set().union(*CROSSED.values())
    assert len(CROSSED) == len(CHECKED_CELLS)
    assert {"NewViewMsg", "ViewChangeMsg", "PreparedCertificate", "FillMsg",
            "StateResponseMsg", "QueueStateResponse", "CommitFeed"} <= crossed
    assert len(crossed) >= 20, sorted(crossed)
