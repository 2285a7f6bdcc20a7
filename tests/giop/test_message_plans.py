"""Message plans are bounded by the IDL, and the reference coder is off the path.

A repository builds one :class:`~repro.giop.codec.OperationPlan` per IDL
operation when the interface is registered, and finds it on decode by the
exact bytes of the operation and interface strings. Nothing a peer sends —
object keys, unknown names — is cached or compiled, and the interpreted
``CdrEncoder``/``CdrDecoder`` (``reference_cdr.py``, not part of the
package) never run on a live invocation.
"""

from __future__ import annotations

import importlib
import random
import string

import pytest

from repro.giop.codec import codec_cache_stats
from repro.giop.idl import InterfaceRepository
from repro.giop.messages import (
    GiopError,
    MsgType,
    decode_message,
    encode_request,
    peek_request_header,
)
from repro.orb.errors import UserException
from repro.workloads.scenarios import (
    CALCULATOR,
    KVSTORE,
    build_calc_system,
    build_read_heavy_system,
)
from tests.giop.reference_cdr import CdrDecoder, CdrEncoder
from tests.giop.reference_messages import FastEncoder, _finish


def _raw_request(object_key: bytes, operation: str, interface: str, order: str) -> bytes:
    """A well-formed request naming anything, written by the reference coder."""
    body = FastEncoder(order)
    body.write_primitive("ulong", 1)
    body.write_primitive("boolean", True)
    body.write_octets(object_key)
    body.write_primitive("string", operation)
    body.write_primitive("string", interface)
    return _finish(body, MsgType.REQUEST)


def _table_sizes(repository: InterfaceRepository) -> tuple[int, ...]:
    return (len(repository.plans), *map(len, repository.wire_plans))


def test_plan_tables_are_a_function_of_the_idl():
    first, second = InterfaceRepository(), InterfaceRepository()
    for repository in (first, second):
        repository.register(CALCULATOR)
        repository.register(KVSTORE)
        repository.register(CALCULATOR)  # re-registration adds nothing
    operations = len(CALCULATOR.operations) + len(KVSTORE.operations)
    assert _table_sizes(first) == (operations, operations, operations)
    for order in (0, 1):
        assert first.wire_plans[order].keys() == second.wire_plans[order].keys()
    # The key is each string exactly as sent: length word, UTF-8, NUL.
    assert (b"\x00\x00\x00\x04add\x00", b"\x00\x00\x00\x0bCalculator\x00") in first.wire_plans[0]
    assert (b"\x04\x00\x00\x00add\x00", b"\x0b\x00\x00\x00Calculator\x00") in first.wire_plans[1]


def test_unknown_names_and_random_keys_grow_nothing():
    system = build_calc_system(f=1, seed=5)
    client = system.add_client("alice")
    assert client.stub(system.ref("calc", b"calc")).add(1.0, 2.0) == 3.0
    repository = system.directory.repository  # live: it just decoded traffic
    known = {op.name for op in CALCULATOR.operations}
    tables, cache = _table_sizes(repository), codec_cache_stats()["size"]
    rng = random.Random(11)
    for i in range(10_000):
        key = rng.randbytes(rng.randrange(40))
        name = "".join(rng.choices(string.ascii_letters + "_é", k=rng.randrange(1, 12)))
        if name in known:
            name += "_"
        operation, interface = (name, "Calculator") if i % 2 else ("add", name)
        wire = _raw_request(key, operation, interface, rng.choice(("big", "little")))
        with pytest.raises(GiopError):
            decode_message(repository, wire)
        # The preamble reader does not require a known operation.
        header = peek_request_header(wire)
        assert (header.object_key, header.operation) == (key, operation)
    assert _table_sizes(repository) == tables
    assert codec_cache_stats()["size"] == cache


def test_registering_after_traffic_decodes_at_once():
    repository = InterfaceRepository()
    repository.register(CALCULATOR)
    for i in range(20):
        wire = encode_request(repository, "Calculator", "add", (1.0, float(i)), request_id=i)
        assert decode_message(repository, wire).args == (1.0, float(i))
    writer = InterfaceRepository()
    writer.register(KVSTORE)
    wire = encode_request(writer, "KvStore", "get", ("k",), request_id=3, object_key=b"kv")
    with pytest.raises(GiopError):
        decode_message(repository, wire)
    repository.register(KVSTORE)
    message = decode_message(repository, wire)
    assert (message.operation, message.args, message.object_key) == ("get", ("k",), b"kv")


def test_reference_coder_never_runs_on_a_live_invocation(monkeypatch):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.giop.cdr")
    ran: list[str] = []

    def tripwire(name):
        def method(*args, **kwargs):
            ran.append(name)
            raise AssertionError(f"{name} ran")

        return method

    for cls in (CdrEncoder, CdrDecoder):
        for name, value in list(vars(cls).items()):
            if callable(value):
                monkeypatch.setattr(cls, name, tripwire(f"{cls.__name__}.{name}"))

    system = build_calc_system(f=1, seed=8)
    calc = system.add_client("alice").stub(system.ref("calc", b"calc"))
    for i in range(50):
        assert calc.add(float(i), 0.5) == i + 0.5
    with pytest.raises(UserException):
        calc.divide(1.0, 0.0)

    kv = build_read_heavy_system(f=1, seed=8, readers=1)
    client = kv.add_client("bob")
    store = client.stub(kv.ref("kv", b"kv"))
    store.put("k", "v")
    assert store.get("k") == "v"
    [connection] = client.endpoint.connections.values()
    assert connection.read_fastpath_hits == 1

    from repro.orb.core import Orb
    from repro.orb.iiop import IiopClient, IiopServer
    from repro.sim import FixedLatency, Network, NetworkConfig
    from repro.workloads.scenarios import CalculatorServant, standard_repository

    repository = standard_repository()
    network = Network(NetworkConfig(seed=0, latency=FixedLatency(0.001)))
    server_orb = Orb(repository)
    server_orb.adapter.activate(b"calc", CalculatorServant())
    server = IiopServer("server", server_orb)
    network.add_process(server)
    iiop = IiopClient("client", Orb(repository))
    network.add_process(iiop)
    assert iiop.locate(server.ref_for(b"calc")) is True
    assert ran == []
