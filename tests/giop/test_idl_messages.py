"""Tests for IDL definitions and GIOP message encode/decode."""

import pytest

from repro.giop.idl import (
    IdlError,
    InterfaceDef,
    InterfaceRepository,
    Operation,
    Parameter,
)
from repro.giop.messages import (
    GiopError,
    ReplyMessage,
    ReplyStatus,
    RequestMessage,
    decode_message,
    encode_reply,
    encode_request,
)
from repro.giop.typecodes import (
    TC_DOUBLE,
    TC_LONG,
    TC_STRING,
    TC_VOID,
    SequenceType,
    TypeCodeError,
)

CALCULATOR = InterfaceDef(
    "Calculator",
    (
        Operation("add", (Parameter("a", TC_DOUBLE), Parameter("b", TC_DOUBLE)), TC_DOUBLE),
        Operation("reset", (), TC_VOID),
        Operation("log", (Parameter("line", TC_STRING),), TC_VOID, oneway=True),
        Operation("history", (), SequenceType(TC_DOUBLE)),
    ),
)


@pytest.fixture()
def repo():
    repository = InterfaceRepository()
    repository.register(CALCULATOR)
    return repository


# -- IDL ---------------------------------------------------------------------


def test_operation_lookup(repo):
    iface = repo.lookup("Calculator")
    assert iface.operation("add").result is TC_DOUBLE
    assert iface.has_operation("reset")
    assert not iface.has_operation("divide")
    with pytest.raises(IdlError):
        iface.operation("divide")


def test_unknown_interface(repo):
    with pytest.raises(IdlError):
        repo.lookup("Nope")
    assert not repo.knows("Nope")
    assert repo.knows("Calculator")


def test_conflicting_interface_registration(repo):
    different = InterfaceDef("Calculator", ())
    with pytest.raises(IdlError):
        repo.register(different)
    repo.register(CALCULATOR)  # idempotent re-registration ok
    assert len(repo) == 1


def test_duplicate_operation_names_rejected():
    with pytest.raises(IdlError):
        InterfaceDef("Bad", (Operation("x"), Operation("x")))


def test_duplicate_param_names_rejected():
    with pytest.raises(IdlError):
        Operation("op", (Parameter("a", TC_LONG), Parameter("a", TC_LONG)))


def test_oneway_cannot_return():
    with pytest.raises(IdlError):
        Operation("bad", (), TC_LONG, oneway=True)


def test_validate_args():
    op = CALCULATOR.operation("add")
    op.validate_args((1.0, 2.0))
    with pytest.raises(TypeCodeError, match="takes 2 args"):
        op.validate_args((1.0,))
    with pytest.raises(TypeCodeError, match=r"add\(b\)"):
        op.validate_args((1.0, "x"))


# -- GIOP messages -------------------------------------------------------------


@pytest.mark.parametrize("byte_order", ["big", "little"])
def test_request_roundtrip(repo, byte_order):
    wire = encode_request(
        repo, "Calculator", "add", (1.5, 2.5),
        request_id=7, object_key=b"calc-1", byte_order=byte_order,
    )
    msg = decode_message(repo, wire)
    assert isinstance(msg, RequestMessage)
    assert msg.request_id == 7
    assert msg.operation == "add"
    assert msg.interface_name == "Calculator"
    assert msg.object_key == b"calc-1"
    assert msg.args == (1.5, 2.5)
    assert msg.response_expected is True
    assert msg.byte_order == byte_order


@pytest.mark.parametrize("byte_order", ["big", "little"])
def test_reply_roundtrip(repo, byte_order):
    wire = encode_reply(
        repo, "Calculator", "add", request_id=7, result=4.0, byte_order=byte_order
    )
    msg = decode_message(repo, wire)
    assert isinstance(msg, ReplyMessage)
    assert msg.request_id == 7
    assert msg.reply_status == ReplyStatus.NO_EXCEPTION
    assert msg.result == 4.0


def test_void_reply_roundtrip(repo):
    wire = encode_reply(repo, "Calculator", "reset", request_id=1)
    msg = decode_message(repo, wire)
    assert msg.result is None


def test_exception_reply_roundtrip(repo):
    wire = encode_reply(
        repo, "Calculator", "add", request_id=2,
        result=("IDL:DivideByZero:1.0", "denominator was zero"),
        reply_status=ReplyStatus.USER_EXCEPTION,
    )
    msg = decode_message(repo, wire)
    assert msg.reply_status == ReplyStatus.USER_EXCEPTION
    assert msg.result == ("IDL:DivideByZero:1.0", "denominator was zero")


def test_sequence_result_roundtrip(repo):
    wire = encode_reply(repo, "Calculator", "history", request_id=3, result=[1.0, 2.0])
    assert decode_message(repo, wire).result == [1.0, 2.0]


def test_cross_endian_decode(repo):
    """A little-endian request decodes correctly on any receiver."""
    wire = encode_request(
        repo, "Calculator", "add", (1.0, -2.0), request_id=1, byte_order="little"
    )
    big_wire = encode_request(
        repo, "Calculator", "add", (1.0, -2.0), request_id=1, byte_order="big"
    )
    assert wire != big_wire  # different bytes...
    assert decode_message(repo, wire).args == decode_message(repo, big_wire).args


def test_encode_validates_signature(repo):
    with pytest.raises(TypeCodeError):
        encode_request(repo, "Calculator", "add", ("x", 1.0), request_id=1)
    with pytest.raises(IdlError):
        encode_request(repo, "Calculator", "nope", (), request_id=1)


def test_decode_rejects_bad_magic(repo):
    with pytest.raises(GiopError, match="magic"):
        decode_message(repo, b"POIG" + b"\x00" * 20)


def test_decode_rejects_short_message(repo):
    with pytest.raises(GiopError, match="shorter"):
        decode_message(repo, b"GIOP")


def test_decode_rejects_bad_version(repo):
    wire = bytearray(encode_request(repo, "Calculator", "reset", (), request_id=1))
    wire[4] = 9
    with pytest.raises(GiopError, match="version"):
        decode_message(repo, bytes(wire))


def test_decode_rejects_size_mismatch(repo):
    wire = encode_request(repo, "Calculator", "reset", (), request_id=1)
    with pytest.raises(GiopError, match="size mismatch"):
        decode_message(repo, wire + b"\x00")


def test_decode_rejects_unknown_msg_type(repo):
    wire = bytearray(encode_request(repo, "Calculator", "reset", (), request_id=1))
    wire[7] = 99
    with pytest.raises(GiopError, match="unknown message type"):
        decode_message(repo, bytes(wire))


def test_decode_rejects_unknown_interface(repo):
    wire = encode_request(repo, "Calculator", "reset", (), request_id=1)
    empty = InterfaceRepository()
    with pytest.raises(GiopError):
        decode_message(empty, wire)


def test_canonical_fields_stable_across_byte_order(repo):
    """Unmarshalled content is byte-order independent — the voting premise."""
    big = decode_message(
        repo, encode_request(repo, "Calculator", "add", (1.0, 2.0), request_id=5)
    )
    little = decode_message(
        repo,
        encode_request(
            repo, "Calculator", "add", (1.0, 2.0), request_id=5, byte_order="little"
        ),
    )
    assert big.canonical_fields() == little.canonical_fields()
