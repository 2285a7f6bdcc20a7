"""Wire codec fidelity: value equality AND byte identity across the seam."""

import pytest

from repro import schema
from repro.bft import messages as bft
from repro.net.wire import (
    WireCodecError,
    assert_wire_encodable,
    decode_datagram,
    decode_wire_payload,
    encode_datagram,
    encode_wire_payload,
)
from tests.message_samples import message_classes, scratch_registry


def make_request(auth: bytes | None = b"\x01" * 8) -> bft.ClientRequest:
    return bft.ClientRequest(
        client_id="client-0", timestamp=3, payload=b"op-bytes", auth=auth
    )


def make_pre_prepare() -> bft.PrePrepareMsg:
    batch = bft.BatchMsg(requests=(make_request(), make_request(auth=None)))
    return bft.PrePrepareMsg(
        view=0,
        seq=7,
        request_digest=b"\xaa" * 16,
        batch=batch,
        sender="calc-e0",
        auth={"calc-e1": b"\x02" * 8, "calc-e2": b"\x03" * 8},
    )


def test_dataclass_round_trip_value_equality():
    message = make_pre_prepare()
    decoded = decode_wire_payload(encode_wire_payload(message))
    assert decoded == message
    # Tuple-ness restored from type hints, not flattened to lists.
    assert isinstance(decoded.batch.requests, tuple)


def test_round_trip_restores_auth_byte_identically():
    """Dataclass ``==`` ignores auth; the wire must not."""
    message = make_request(auth=b"\xfe" * 8)
    decoded = decode_wire_payload(encode_wire_payload(message))
    assert decoded.auth == b"\xfe" * 8
    # assert_wire_encodable enforces this via re-encode byte identity:
    # strip the auth and the re-encoding changes.
    wire = assert_wire_encodable(message)
    stripped = bft.ClientRequest(
        client_id="client-0", timestamp=3, payload=b"op-bytes", auth=None
    )
    assert stripped == message  # compare=False: equality is blind...
    assert encode_wire_payload(stripped) != wire  # ...the wire is not


def test_encode_is_canonical_and_deterministic():
    message = make_pre_prepare()
    assert encode_wire_payload(message) == encode_wire_payload(message)
    # decode → re-encode is the identity on bytes (the E18 acceptance
    # criterion: both backends put the same bytes on the wire).
    wire = encode_wire_payload(message)
    assert encode_wire_payload(decode_wire_payload(wire)) == wire


def test_plain_value_payloads_round_trip():
    for payload in (None, True, 42, 2.5, "text", b"bytes", [1, "a", b"b"],
                    {"k": [1, 2]}, ("flat", 1.0, 2.0)):
        assert_wire_encodable(payload)


def test_unregistered_object_rejected():
    class NotAMessage:
        pass

    with pytest.raises(WireCodecError):
        encode_wire_payload(NotAMessage())


def test_unknown_wire_type_rejected_on_decode():
    from repro.crypto.encoding import canonical_bytes

    raw = canonical_bytes({"__wire__": "NoSuchType", "f": {}})
    with pytest.raises(WireCodecError):
        decode_wire_payload(raw)


def test_malformed_bytes_rejected():
    with pytest.raises(WireCodecError):
        decode_wire_payload(b"\xff\xfe not canonical TLV")


def test_datagram_round_trip():
    message = make_pre_prepare()
    src, dst, payload = decode_datagram(
        encode_datagram("calc-e0", "calc-e1", message)
    )
    assert (src, dst) == ("calc-e0", "calc-e1")
    assert payload == message


def test_datagram_missing_fields_rejected():
    """The envelope is ``encode_datagram``'s bytes and nothing else: the
    three keys, in its order, with lengths that add up to the body."""
    import struct

    from repro.crypto.encoding import canonical_bytes
    from tests.net.test_wire_reference import hand_laid

    def mapping(*items, count=None):
        return hand_laid(*map(canonical_bytes, items), count=count)

    payload = encode_wire_payload(7)
    good = mapping("dst", "b", "p", payload, "src", "a")
    assert good == encode_datagram("a", "b", 7)
    assert decode_datagram(good) == ("a", "b", 7)
    past_the_body = bytearray(good)
    p_length_at = good.index(b"B", good.index(b"p")) + 1
    past_the_body[p_length_at : p_length_at + 4] = struct.pack(">I", len(good))
    for bad in (
        canonical_bytes({"src": "a", "p": b""}),  # no dst
        mapping("dst", "b", "p", payload, "src", "a", "ttl", 3),  # an extra key
        mapping("p", payload, "dst", "b", "src", "a"),  # swapped key order
        mapping("dst", "b", "p", payload, "src", "a", count=2),  # count != 3
        mapping("dst", "b", "p", payload, "src", "a", count=4),
        mapping("dst", "b", "p", "not bytes", "src", "a"),  # p is a string
        mapping("dst", 7, "p", payload, "src", "a"),  # dst is an int
        bytes(past_the_body),  # p claims more than the body holds
        good + b"N",  # trailing bytes after src
        good[:-1] + b"ab",  # ... or inside it, past its length
        mapping("dst", "b", "p", payload + b"N", "src", "a"),  # ... or after the payload
        good[:-1],
        b"not a datagram at all",
    ):
        with pytest.raises(WireCodecError):
            decode_datagram(bad)


def test_every_protocol_message_type_is_registered():
    """The registry is the whole cross-process vocabulary and nothing else:
    every frozen dataclass the three message modules define, by name."""
    registry = schema.registered()
    assert registry == message_classes()
    # One catch-up pair, one signed petition: the duplicates are gone.
    assert not set(registry) & {"ReadSyncRequest", "ReadSyncResponse", "ReadmitRequest"}


def test_queue_state_response_round_trips_with_servant_state():
    """The catch-up response crosses the seam byte-identically with a
    non-empty ``app_state`` and a checkpoint certificate."""
    import dataclasses

    from repro.crypto.encoding import canonical_bytes
    from repro.recovery.messages import QueueStateResponse

    snapshot = canonical_bytes({"mode": "queue", "chain": b"\x07" * 32, "appended": 8})
    response = QueueStateResponse(
        sender="kv-e1",
        domain_id="kv",
        attempt=2,
        appended=9,
        chain=b"\x09" * 32,
        snapshot=canonical_bytes({"processed": 8, "items": [[9, b"payload"]]}),
        last_executed=9,
        stable_seq=8,
        checkpoint_snapshot=snapshot,
        app_state=canonical_bytes({"app": {"k0": "v0", "k1": "v1"}}),
        checkpoint_proof=tuple(
            bft.CheckpointMsg(seq=8, state_digest=b"\x05" * 32, sender=f"kv-e{i}")
            for i in range(3)
        ),
    )
    wire = assert_wire_encodable(response)
    decoded = decode_wire_payload(wire)
    assert decoded == response
    assert decoded.fingerprint() == response.fingerprint()
    assert encode_wire_payload(decoded) == wire
    without_app = dataclasses.replace(
        response, app_state=canonical_bytes({"app": None})
    )
    assert without_app.fingerprint() != response.fingerprint()
    assert response.wire_size() - without_app.wire_size() == len(
        response.app_state
    ) - len(without_app.app_state)


def test_registration_compiles_tuple_coercers_from_hints():
    """Every shape the per-message ``_coerce`` used to interpret."""
    import dataclasses

    with scratch_registry():

        @schema.message
        @dataclasses.dataclass(frozen=True)
        class Shapes:
            many: tuple[int, ...]
            nested: tuple[tuple[str, ...], ...]
            pair: tuple[str, tuple[int, ...]]
            bare: tuple
            plain: list

        assert schema.registered()["Shapes"] is Shapes
        # The wire form's constants: the head up to the field map, then the
        # fields in canonical (sorted) order, each with its key item.
        plan = schema.plan_of(Shapes)
        assert plan.wire_head == (
            b"S\x00\x00\x00\x08__wire__S\x00\x00\x00\x06ShapesS\x00\x00\x00\x01f"
        )
        assert [(key, name) for key, name, _ in plan.wire_keys] == [
            (b"S\x00\x00\x00\x04bare", "bare"),
            (b"S\x00\x00\x00\x04many", "many"),
            (b"S\x00\x00\x00\x06nested", "nested"),
            (b"S\x00\x00\x00\x04pair", "pair"),
            (b"S\x00\x00\x00\x05plain", "plain"),
        ]
        assert plan.wire_keys[2][2](([["a"], []])) == (("a",), ())  # nested's coercer
        assert plan.wire_keys[4][2] is None and plan.wire_fields["plain"] is None
        assert plan.wire_fields["nested"] is plan.wire_keys[2][2]
        value = Shapes((1, 2), (("a",), ()), ("k", (3,)), (1, "x"), [1, (2,)])
        assert encode_wire_payload(value).startswith(
            b"M" + (len(encode_wire_payload(value)) - 5).to_bytes(4, "big")
            + b"\x00\x00\x00\x02" + plan.wire_head + b"M"
        )
        decoded = decode_wire_payload(encode_wire_payload(value))
        assert decoded == dataclasses.replace(value, plain=[1, [2]])
        assert type(decoded.nested[0]) is tuple and type(decoded.pair[1]) is tuple
        bad_arity = dataclasses.replace(value, pair=("k", (3,), "extra"))
        with pytest.raises(WireCodecError, match="2-tuple"):
            decode_wire_payload(encode_wire_payload(bad_arity))
        not_a_sequence = dataclasses.replace(value, many=7)
        with pytest.raises(WireCodecError, match="expected sequence"):
            decode_wire_payload(encode_wire_payload(not_a_sequence))
    assert "Shapes" not in schema.registered()
    with pytest.raises(WireCodecError):  # forgotten: no longer encodable
        encode_wire_payload(value)


def test_second_class_under_a_registered_name_or_kind_is_refused():
    """What ``register_wire_type`` / ``register_payload_kind`` each refused."""
    import dataclasses

    with scratch_registry():
        with pytest.raises(ValueError, match="already registered"):

            @schema.message
            @dataclasses.dataclass(frozen=True)
            class PrepareMsg:  # noqa: F811 - the clash is the point
                view: int

        with pytest.raises(ValueError, match="already registered"):

            @schema.message(kind="smiop_request")
            @dataclasses.dataclass(frozen=True)
            class Impostor:
                conn_id: int

    assert schema.registered()["PrepareMsg"] is bft.PrepareMsg
