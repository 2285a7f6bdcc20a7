"""The message schema: one field list, three byte forms, read off the registry.

Nothing here names a message class to cover it: the parametrised cases come
from :func:`repro.schema.registered`, the samples from the type hints
(:mod:`tests.message_samples`), and the golden bytes from a file generated
on the commit before the schema existed — so every byte the hand-written
serialisers produced is pinned, for all types, in all forms.
"""

import dataclasses
import json
import pathlib

import pytest

from repro import schema
from repro.bft.messages import BftMessage
from repro.crypto.encoding import canonical_bytes, parse_canonical
from repro.itdos.messages import PayloadError, parse_payload
from repro.net.wire import decode_wire_payload, encode_wire_payload
from tests.message_samples import (
    byte_forms,
    sample,
    samples,
    scratch_registry,
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_messages.json").read_text()
)
REGISTERED = sorted(schema.registered().items())


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_every_byte_form_matches_the_pre_schema_golden(label):
    assert byte_forms(samples()[label]) == GOLDEN[label]


def test_golden_covers_every_registered_type():
    assert {label.split("/")[0] for label in GOLDEN} == set(dict(REGISTERED))


@pytest.mark.parametrize("name,cls", REGISTERED)
def test_three_forms_of_every_registered_type(name, cls):
    message = sample(cls)
    plan = schema.plan_of(cls)
    assert plan.names == tuple(f.name for f in dataclasses.fields(cls))

    # wire: value-equal, tuple-typed where hinted, byte-identical re-encode
    wire = encode_wire_payload(message)
    decoded = decode_wire_payload(wire)
    assert type(decoded) is cls and decoded == message
    assert encode_wire_payload(decoded) == wire
    assert parse_canonical(wire)["__wire__"] == name

    # signed: every field but ``auth`` and the declared unsigned ones
    if isinstance(message, BftMessage):
        signed = message.canonical_fields()
        unsigned = {"auth"} | ({"batch"} if name == "PrePrepareMsg" else set())
        assert list(signed) == [n for n in plan.names if n not in unsigned]
        stamped = (
            dataclasses.replace(message, auth=b"\xee" * 16)
            if "auth" in plan.names
            else message
        )
        assert stamped.canonical_fields() == signed
        assert parse_canonical(canonical_bytes(message))["__type__"] == name

    # ordered: kinded types survive to_payload -> parse_payload
    if hasattr(cls, "to_payload"):
        payload = message.to_payload()
        assert parse_payload(payload) == message
        assert parse_payload(payload).to_payload() == payload
        assert isinstance(parse_canonical(payload)["kind"], str)


def test_a_new_message_is_one_decorated_dataclass():
    """Defined here, never added to any list: all three forms round-trip,
    nested messages and tuples included."""
    from repro.bft.messages import PrepareMsg

    with scratch_registry():

        @schema.message
        @dataclasses.dataclass(frozen=True)
        class Leaf:
            tag: str
            weights: tuple[int, ...] = ()

        @schema.message(kind="scratch_probe", unsigned=("hint",))
        @dataclasses.dataclass(frozen=True)
        class Probe(BftMessage):
            seq: int
            leaves: tuple[Leaf, ...]
            pair: tuple[Leaf, tuple[bytes, ...]]
            witness: PrepareMsg
            hint: bytes = b""
            auth: bytes | None = dataclasses.field(default=None, compare=False)

        witness = sample(PrepareMsg)
        probe = Probe(
            seq=4,
            leaves=(Leaf("a", (1, 2)), Leaf("b")),
            pair=(Leaf("c", (3,)), (b"x", b"y")),
            witness=witness,
            hint=b"not signed",
            auth=b"\x01" * 8,
        )
        leaf_dicts = [{"tag": "a", "weights": [1, 2]}, {"tag": "b", "weights": []}]
        assert probe.canonical_fields() == {
            "seq": 4,
            "leaves": leaf_dicts,
            "pair": [{"tag": "c", "weights": [3]}, [b"x", b"y"]],
            "witness": witness.canonical_fields(),
        }
        assert probe.content_digest() == dataclasses.replace(
            probe, hint=b"other", auth=None
        ).content_digest()
        # wire_size() models the signed form: an unsigned field weighs nothing
        assert probe.wire_size() == dataclasses.replace(
            probe, hint=b"longer" * 9
        ).wire_size()

        payload = probe.to_payload()
        ordered = parse_canonical(payload)
        assert ordered["kind"] == "scratch_probe" and ordered["leaves"] == leaf_dicts
        assert ordered["hint"] == b"not signed" and ordered["auth"] == b"\x01" * 8
        rebuilt = parse_payload(payload)
        assert rebuilt == probe and rebuilt.auth == probe.auth
        assert type(rebuilt.pair[0]) is Leaf and type(rebuilt.leaves) is tuple

        wire = encode_wire_payload(probe)
        assert decode_wire_payload(wire) == probe
        assert encode_wire_payload(decode_wire_payload(wire)) == wire

        with pytest.raises(PayloadError):  # a leaf that is not a leaf
            parse_payload(canonical_bytes({**ordered, "leaves": [7]}))
    with pytest.raises(PayloadError):  # forgotten with the block
        parse_payload(payload)
