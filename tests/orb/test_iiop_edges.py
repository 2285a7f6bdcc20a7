"""IIOP edge paths: generator servants rejected, SMIOP adapter delegation."""

import pytest

from repro.giop.idl import InterfaceRepository
from repro.orb.core import Orb
from repro.orb.errors import BadOperation, CommFailure
from repro.orb.iiop import IiopClient, IiopServer
from repro.orb.servant import PendingCall, Servant
from repro.sim import FixedLatency, Network, NetworkConfig
from tests.orb.conftest import CALCULATOR


class NestedServant(Servant):
    """Generator servant — legal under ITDOS, not under plain IIOP."""

    interface = CALCULATOR

    def add(self, a, b):
        from repro.giop.ior import ObjectRef

        yield PendingCall(ObjectRef("Counter", "x", b"k"), "increment", (1,))
        return a + b


def test_iiop_rejects_generator_servants():
    repository = InterfaceRepository()
    repository.register(CALCULATOR)
    network = Network(NetworkConfig(seed=0, latency=FixedLatency(0.001)))
    server_orb = Orb(repository)
    server_orb.adapter.activate(b"calc", NestedServant())
    server = IiopServer("server", server_orb)
    network.add_process(server)
    client = IiopClient("client", Orb(repository))
    network.add_process(client)
    stub = client.stub(server.ref_for(b"calc"))
    with pytest.raises(CommFailure, match="nested invocations require"):
        stub.add(1.0, 2.0)


def test_send_on_unestablished_connection_raises():
    from repro.orb.iiop import _IiopConnection

    repository = InterfaceRepository()
    repository.register(CALCULATOR)
    network = Network(NetworkConfig(seed=0))
    client = IiopClient("client", Orb(repository))
    network.add_process(client)
    connection = _IiopConnection(client, "nowhere", 1)
    with pytest.raises(CommFailure):
        connection.send_request(b"", None)
    with pytest.raises(CommFailure):
        connection.send_locate(b"k", lambda s: None)


def test_smiop_adapter_delegates():
    """The pluggable-protocol adapter forwards to the ITDOS connection."""
    from repro.itdos.smiop import SmiopConnectionAdapter

    class FakeConnection:
        def __init__(self):
            self.sent = []
            self.closed = False

        @property
        def connected(self):
            return True

        def send_request(self, wire, on_reply):
            self.sent.append((wire, on_reply))

        def close(self):
            self.closed = True

    fake = FakeConnection()
    adapter = SmiopConnectionAdapter(fake)
    assert adapter.connected
    adapter.send_request(b"wire", None)
    assert fake.sent == [(b"wire", None)]
    adapter.close()
    assert fake.closed


def test_stub_repr_and_pending_call_label():
    from repro.giop.ior import ObjectRef
    from repro.orb.stubs import Stub
    from repro.sim.trace import TraceRecorder

    ref = ObjectRef("Calculator", "dom", b"k")
    stub = Stub(ref, CALCULATOR, lambda *a: None)
    assert "Calculator@dom" in repr(stub)
    recorder = TraceRecorder()
    recorder.record(0.0, "send", "a", "b", PendingCall(ref, "add", (1.0, 2.0)))
    assert recorder.events[0].label == "PendingCall(operation=add)"
