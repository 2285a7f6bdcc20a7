"""GIOP LocateRequest / LocateReply / CloseConnection / MessageError."""

import pytest

from repro.giop.idl import InterfaceRepository
from repro.giop.messages import (
    CloseConnectionMessage,
    GiopError,
    LocateReplyMessage,
    LocateRequestMessage,
    LocateStatus,
    MessageErrorMessage,
    decode_message,
    encode_close_connection,
    encode_locate_reply,
    encode_locate_request,
    encode_message_error,
)


@pytest.fixture()
def repo():
    return InterfaceRepository()


def test_locate_request_roundtrip(repo):
    wire = encode_locate_request(7, b"obj-key", byte_order="little")
    message = decode_message(repo, wire)
    assert isinstance(message, LocateRequestMessage)
    assert message.request_id == 7
    assert message.object_key == b"obj-key"
    assert message.byte_order == "little"


def test_locate_reply_roundtrip(repo):
    wire = encode_locate_reply(7, LocateStatus.OBJECT_HERE)
    message = decode_message(repo, wire)
    assert isinstance(message, LocateReplyMessage)
    assert message.locate_status == LocateStatus.OBJECT_HERE


def test_locate_reply_bad_status_rejected(repo):
    wire = bytearray(encode_locate_reply(7, LocateStatus.OBJECT_HERE))
    wire[-1] = 99  # corrupt the status ordinal
    with pytest.raises(GiopError):
        decode_message(repo, bytes(wire))


def test_close_connection_roundtrip(repo):
    message = decode_message(repo, encode_close_connection())
    assert isinstance(message, CloseConnectionMessage)


def test_message_error_roundtrip(repo):
    message = decode_message(repo, encode_message_error())
    assert isinstance(message, MessageErrorMessage)


# -- through the IIOP transport -------------------------------------------------


@pytest.fixture()
def iiop_world():
    from repro.orb.core import Orb
    from repro.orb.iiop import IiopClient, IiopServer
    from repro.sim import FixedLatency, Network, NetworkConfig
    from tests.orb.conftest import CalculatorServant

    import tests.orb.conftest as oc

    repository = InterfaceRepository()
    repository.register(oc.CALCULATOR)
    network = Network(NetworkConfig(seed=0, latency=FixedLatency(0.001)))
    server_orb = Orb(repository)
    server_orb.adapter.activate(b"calc", CalculatorServant())
    server = IiopServer("server", server_orb)
    network.add_process(server)
    client = IiopClient("client", Orb(repository))
    network.add_process(client)
    return network, server, client


def test_locate_existing_object(iiop_world):
    _, server, client = iiop_world
    assert client.locate(server.ref_for(b"calc")) is True


def test_locate_missing_object(iiop_world):
    from repro.giop.ior import ObjectRef

    _, server, client = iiop_world
    ghost = ObjectRef("Calculator", "server", b"ghost", transport="iiop")
    assert client.locate(ghost) is False


def test_garbage_packet_yields_message_error(iiop_world):
    network, server, client = iiop_world
    from repro.orb.iiop import _GiopPacket

    received = []
    original = client.on_message

    def spy(src, payload):
        if isinstance(payload, _GiopPacket):
            received.append(payload.wire[:8])
        original(src, payload)

    client.on_message = spy
    client.send("server", _GiopPacket(conn_id=1, wire=b"NOT-GIOP-AT-ALL"))
    network.run()
    assert received, "server should answer garbage with MessageError"
    # Header prefix: magic + version + flags + msg type; type octet 6 is
    # MessageError.
    assert received[0][:4] == b"GIOP"
    assert received[0][7] == 6


def test_close_connection_notifies_server(iiop_world):
    network, server, client = iiop_world
    stub = client.stub(server.ref_for(b"calc"))
    stub.add(1.0, 1.0)
    connection = next(iter(client._connections.values()))
    connection.close()
    network.run()
    assert not connection.connected
    # A fresh invocation transparently re-establishes.
    stub2 = client.stub(server.ref_for(b"calc"))
    assert stub2.add(2.0, 2.0) == 4.0
    assert client.handshakes == 2