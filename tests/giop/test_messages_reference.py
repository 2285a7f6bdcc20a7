"""The one-pass message coder against the reference coder it replaced.

``repro.giop.messages`` writes and reads a GIOP message in one pass over the
operation's plan; ``tests/giop/reference_messages.py`` is the coder it
replaced, kept as the oracle. Every operation of the repositories the tests
and workloads build (plus one interface for the enum, struct and oneway
shapes they lack), both byte orders, request ids past 2**32, object keys of
every pad phase, all reply kinds: the bytes must be identical and the
decoded values equal. Structured mutations of valid messages must then be
accepted by both coders with equal values, or rejected by both with
``GiopError``.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.giop import messages as product
from repro.giop.codec import CdrError
from repro.giop.idl import IdlError, InterfaceDef, InterfaceRepository, Operation, Parameter
from repro.giop.messages import GiopError, LocateStatus, ReplyStatus
from repro.giop.typecodes import (
    TC_BOOLEAN,
    TC_DOUBLE,
    TC_STRING,
    TC_ULONG,
    TC_VOID,
    EnumType,
    SequenceType,
    StructType,
    TypeCodeError,
)
from repro.workloads.scenarios import standard_repository
from tests.giop import reference_messages as reference
from tests.giop.test_property_roundtrip import _value_for
from tests.itdos.conftest import make_repository

COLOR = EnumType("Color", ("red", "green", "blue"))
SAMPLE = StructType(
    "Sample",
    (("ok", TC_BOOLEAN), ("seq", TC_ULONG), ("value", TC_DOUBLE), ("label", TC_STRING)),
)
PROBE = InterfaceDef(
    "Probe",
    (
        Operation("paint", (Parameter("color", COLOR), Parameter("on", TC_BOOLEAN)), COLOR),
        Operation("read", (Parameter("id", TC_ULONG),), SequenceType(SAMPLE)),
        Operation("latest", (), SAMPLE),
        Operation("note", (Parameter("text", TC_STRING),), TC_VOID, oneway=True),
    ),
)


def _probe_repository() -> InterfaceRepository:
    repository = InterfaceRepository()
    repository.register(PROBE)
    return repository


REPOSITORIES = [make_repository(), standard_repository(), _probe_repository()]
OPERATIONS = [
    (repository, interface.name, op)
    for repository in REPOSITORIES
    for interface in repository._interfaces.values()
    for op in interface.operations
]
ORDERS = st.sampled_from(["big", "little"])
EXCEPTION = st.tuples(st.text(max_size=24), st.text(max_size=24))


def _args(draw, op) -> tuple:
    return tuple(draw(_value_for(param.tc)) for param in op.params)


def _result(draw, op):
    return None if op.result is TC_VOID else draw(_value_for(op.result))


def _outcome(decode, *args):
    """What a decoder makes of a message: the value, or GiopError."""
    try:
        return decode(*args)
    except GiopError:
        return GiopError


def _agree(repository, wire: bytes) -> object:
    """Both coders accept ``wire`` with equal values, or both raise
    GiopError (compared by repr, so a NaN from a flipped double agrees)."""
    expected = _outcome(reference.decode_message, repository, wire)
    got = _outcome(product.decode_message, repository, wire)
    assert (type(got), repr(got)) == (type(expected), repr(expected)), wire.hex()
    if wire[7:8] == b"\x00":
        expected = _outcome(reference.peek_request_header, wire)
        assert repr(_outcome(product.peek_request_header, wire)) == repr(expected)
    return got


# -- valid messages ------------------------------------------------------------------


@st.composite
def requests(draw):
    repository, interface, op = draw(st.sampled_from(OPERATIONS))
    fields = dict(
        args=_args(draw, op),
        request_id=draw(st.integers(min_value=0, max_value=2**40)),
        object_key=draw(st.binary(max_size=7)),
        response_expected=draw(st.booleans()),
        byte_order=draw(ORDERS),
    )
    return repository, interface, op, fields


@st.composite
def replies(draw):
    repository, interface, op = draw(st.sampled_from(OPERATIONS))
    status = draw(st.sampled_from(list(ReplyStatus)))
    result = _result(draw, op) if status == ReplyStatus.NO_EXCEPTION else draw(EXCEPTION)
    fields = dict(
        request_id=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        result=result,
        reply_status=status,
        byte_order=draw(ORDERS),
    )
    return repository, interface, op, fields


def _encode_request(coder, repository, interface, op, fields) -> bytes:
    return coder.encode_request(repository, interface, op.name, **fields)


def _encode_reply(coder, repository, interface, op, fields) -> bytes:
    return coder.encode_reply(repository, interface, op.name, **fields)


@settings(max_examples=300, deadline=None)
@given(case=requests())
def test_property_request_bytes_and_values_match_reference(case):
    repository, interface, op, fields = case
    wire = _encode_request(product, repository, interface, op, fields)
    assert wire == _encode_request(reference, repository, interface, op, fields)
    message = _agree(repository, wire)
    assert message.args == fields["args"]
    assert message.request_id == fields["request_id"] & 0xFFFFFFFF
    assert message.object_key == fields["object_key"]
    assert product.peek_request_header(wire) == reference.peek_request_header(wire)


@settings(max_examples=300, deadline=None)
@given(case=replies())
def test_property_reply_bytes_and_values_match_reference(case):
    repository, interface, op, fields = case
    wire = _encode_reply(product, repository, interface, op, fields)
    assert wire == _encode_reply(reference, repository, interface, op, fields)
    message = _agree(repository, wire)
    assert message.reply_status is fields["reply_status"]
    assert message.result == fields["result"]


def test_every_operation_both_orders_and_every_key_pad_phase():
    for repository, interface, op in OPERATIONS:
        args = tuple(_first_value(param.tc) for param in op.params)
        for order in ("big", "little"):
            for key_len in range(8):
                fields = dict(args=args, request_id=2**32 + key_len,
                              object_key=bytes(range(key_len)), byte_order=order)
                wire = _encode_request(product, repository, interface, op, fields)
                assert wire == _encode_request(reference, repository, interface, op, fields)
                assert _agree(repository, wire).args == args
            fields = dict(request_id=9, result=_first_result(op), byte_order=order)
            wire = _encode_reply(product, repository, interface, op, fields)
            assert wire == _encode_reply(reference, repository, interface, op, fields)
            _agree(repository, wire)


def _first_value(tc):
    """A fixed conforming value for ``tc``."""
    if isinstance(tc, EnumType):
        return tc.labels[-1]
    if isinstance(tc, SequenceType):
        return [_first_value(tc.element)] * 2
    if isinstance(tc, StructType):
        return {name: _first_value(field_tc) for name, field_tc in tc.fields}
    return {"boolean": True, "double": 0.5, "string": "é", "long": -3, "ulong": 3}[tc.kind]


def _first_result(op):
    return None if op.result is TC_VOID else _first_value(op.result)


def test_same_rejections_on_encode():
    repository = standard_repository()
    user = ReplyStatus.USER_EXCEPTION
    cases = [
        (CdrError, lambda c: c.encode_reply(repository, "Calculator", "add", 2**32, 1.0)),
        (CdrError, lambda c: c.encode_reply(repository, "Calculator", "add", 1, "x")),
        (TypeCodeError,
         lambda c: c.encode_request(repository, "Calculator", "add", (1.0, True), 1)),
        (IdlError, lambda c: c.encode_request(repository, "Calculator", "nope", (), 1)),
        (IdlError, lambda c: c.encode_reply(repository, "Nope", "add", 1)),
        (ValueError,
         lambda c: c.encode_reply(repository, "Calculator", "divide", 1, ("id",), user)),
        (ValueError, lambda c: c.encode_close_connection("middle")),
    ]
    for error, encode in cases:
        for coder in (product, reference):
            with pytest.raises(error):
                encode(coder)


def test_locate_close_and_error_messages_match_reference():
    repository = InterfaceRepository()
    for order in ("big", "little"):
        for key in (b"", b"k", b"kv-0001"):
            wire = product.encode_locate_request(2**32 - 1, key, byte_order=order)
            assert wire == reference.encode_locate_request(2**32 - 1, key, byte_order=order)
            _agree(repository, wire)
        for status in LocateStatus:
            wire = product.encode_locate_reply(5, status, byte_order=order)
            assert wire == reference.encode_locate_reply(5, status, byte_order=order)
            _agree(repository, wire)
        for name in ("encode_close_connection", "encode_message_error"):
            wire = getattr(product, name)(order)
            assert wire == getattr(reference, name)(order)
            _agree(repository, wire)


# -- mutated messages ------------------------------------------------------------------


def _ulong(wire: bytes, at: int) -> int:
    return struct.unpack_from("<I" if wire[6] & 1 else ">I", wire, at)[0]


def _put_ulong(wire: bytearray, at: int, value: int) -> None:
    struct.pack_into("<I" if wire[6] & 1 else ">I", wire, at, value & 0xFFFFFFFF)


def _names(wire: bytes) -> tuple[int, int, int, int]:
    """Offsets of the operation string and the interface string."""
    at = 24 + _ulong(wire, 20) if wire[7] == 0 else 20
    op_at = at + (-at % 4)
    op_end = op_at + 4 + _ulong(wire, op_at)
    interface_at = op_end + (-op_end % 4)
    return op_at, op_end, interface_at, interface_at + 4 + _ulong(wire, interface_at)


def _resized(wire: bytearray) -> bytes:
    _put_ulong(wire, 8, len(wire) - 12)
    return bytes(wire)


def _mutations(wire: bytes, mask: int):
    """Structured corruptions of a valid request or reply."""
    for i in range(len(wire)):  # each byte flipped
        mutated = bytearray(wire)
        mutated[i] ^= mask
        yield bytes(mutated)
    for cut in range(len(wire)):  # truncated, with and without a fixed size
        yield wire[:cut]
        if cut >= 12:
            yield _resized(bytearray(wire[:cut]))
    yield wire + b"\x00"
    yield _resized(bytearray(wire + b"\x01\x02\x03"))
    op_at, op_end, interface_at, interface_end = _names(wire)
    for start, end in ((op_at, op_end), (interface_at, interface_end)):
        unknown = bytearray(wire)
        unknown[start + 4 : end - 1] = b"q" * (end - start - 5)
        yield bytes(unknown)
        bad_utf8 = bytearray(wire)
        bad_utf8[start + 4] = 0xFF
        yield bytes(bad_utf8)
        no_nul = bytearray(wire)
        no_nul[end - 1] = ord("x")
        yield bytes(no_nul)
        for length in (0, 1, end - start - 5, end - start - 3, 2**31):
            relength = bytearray(wire)
            _put_ulong(relength, start, length)
            yield bytes(relength)
    for pad in [*range(op_end, interface_at), *(range(17, 20) if wire[7] == 0 else ())]:
        padded = bytearray(wire)  # a known name behind a non-zero pad byte
        padded[pad] = 0x55
        yield bytes(padded)
    if wire[7] == 0:
        boolean = bytearray(wire)
        boolean[16] = 2
        yield bytes(boolean)
        for key_len in (_ulong(wire, 20) + 1, 2**32 - 1):
            rekeyed = bytearray(wire)
            _put_ulong(rekeyed, 20, key_len)
            yield bytes(rekeyed)
    else:
        for status in (3, 4, 9):
            restatus = bytearray(wire)
            _put_ulong(restatus, 16, status)
            yield bytes(restatus)
    for at, value in ((0, ord("X")), (4, 2), (5, 3), (6, wire[6] ^ 1), (6, wire[6] | 2)):
        header = bytearray(wire)
        header[at] = value
        yield bytes(header)
    for msg_type in range(256):
        retyped = bytearray(wire)
        retyped[7] = msg_type
        yield bytes(retyped)
    for size in (len(wire) - 13, len(wire) - 11, 0, 2**32 - 1):
        resized = bytearray(wire)
        _put_ulong(resized, 8, size)
        yield bytes(resized)


@settings(max_examples=60, deadline=None)
@given(case=requests(), mask=st.integers(min_value=1, max_value=255))
def test_property_mutated_requests_agree_with_reference(case, mask):
    repository, interface, op, fields = case
    wire = _encode_request(product, repository, interface, op, fields)
    for mutated in _mutations(wire, mask):
        _agree(repository, mutated)


@settings(max_examples=60, deadline=None)
@given(case=replies(), mask=st.integers(min_value=1, max_value=255))
def test_property_mutated_replies_agree_with_reference(case, mask):
    repository, interface, op, fields = case
    wire = _encode_reply(product, repository, interface, op, fields)
    for mutated in _mutations(wire, mask):
        _agree(repository, mutated)


def test_known_name_behind_non_zero_pad_is_accepted_by_both():
    repository = standard_repository()
    wire = bytearray(product.encode_request(
        repository, "KvStore", "get", ("k",), request_id=3, object_key=b"k"
    ))
    op_at, op_end, interface_at, _end = _names(bytes(wire))
    assert interface_at - op_end == 0 and op_at - 25 == 3  # "get\0" needs no pad
    for pad in (17, 25, 26, 27):
        wire[pad] = 0x7F
    message = _agree(repository, bytes(wire))
    assert (message.operation, message.args) == ("get", ("k",))
