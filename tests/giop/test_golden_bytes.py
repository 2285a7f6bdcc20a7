"""Known-answer test: GIOP wire bytes as hex literals, both byte orders.

There is one coder; the fuzz suite compares it with the reference in
``repro.giop.cdr``, but both live in this repo and could drift together.
These literals were laid out by hand from the CDR rules (alignment relative
to the body start, NUL-terminated length-prefixed strings, IEEE 754) and
pin the encoder and the decoder to something outside the codebase.
"""

import pytest

from repro.giop.idl import InterfaceDef, InterfaceRepository, Operation, Parameter
from repro.giop.messages import (
    ReplyStatus,
    decode_message,
    encode_reply,
    encode_request,
)
from repro.giop.typecodes import (
    TC_BOOLEAN,
    TC_DOUBLE,
    TC_STRING,
    TC_ULONG,
    SequenceType,
    StructType,
)
from repro.workloads.scenarios import CALCULATOR

SAMPLE = StructType(
    "Sample",
    (("ok", TC_BOOLEAN), ("seq", TC_ULONG), ("value", TC_DOUBLE), ("label", TC_STRING)),
)
SENSOR = InterfaceDef(
    "Sensor",
    (Operation("read", (Parameter("id", TC_ULONG),), SequenceType(SAMPLE)),),
)
SAMPLES = [
    {"ok": True, "seq": 1, "value": 0.5, "label": "a"},
    {"ok": False, "seq": 2, "value": -2.0, "label": "bcd"},
]
DIVIDE_BY_ZERO = ("IDL:Calculator/DivideByZero:1.0", "b is zero")

GOLDEN = {
    # "GIOP" 1.2 | flags | REQUEST | size 56 || id 7 | response_expected 1
    # +3 pad | octets[4] "calc" | string[4] "add\0" | string[11]
    # "Calculator\0" +1 pad (8-align at body offset 40) | 2.0 | 3.0
    ("add", "big"): (
        "47494f50010200000000003800000007010000000000000463616c6300000004"
        "616464000000000b43616c63756c61746f720000400000000000000040080000"
        "00000000"
    ),
    ("add", "little"): (
        "47494f50010201003800000007000000010000000400000063616c6304000000"
        "616464000b00000043616c63756c61746f720000000000000000004000000000"
        "00000840"
    ),
    # REPLY | size 88 || id 8 | NO_EXCEPTION | string[5] "read\0" +3 pad |
    # string[7] "Sensor\0" +1 pad | sequence length 2 | per element:
    # boolean, pad to 4, ulong, pad to 8, double, string — the second
    # element starts unaligned (body offset 62), so its padding differs.
    ("read", "big"): (
        "47494f5001020001000000580000000800000000000000057265616400000000"
        "0000000753656e736f720000000000020100000000000001000000003fe00000"
        "0000000000000002610000000000000200000000c00000000000000000000004"
        "62636400"
    ),
    ("read", "little"): (
        "47494f5001020101580000000800000000000000050000007265616400000000"
        "0700000053656e736f7200000200000001000000010000000000000000000000"
        "0000e03f0200000061000000020000000000000000000000000000c004000000"
        "62636400"
    ),
    # REPLY | size 86 || id 9 | USER_EXCEPTION | "divide\0" +1 pad |
    # "Calculator\0" +1 pad | string[32] exception id | string[10] text
    ("divide", "big"): (
        "47494f5001020001000000560000000900000001000000076469766964650000"
        "0000000b43616c63756c61746f7200000000002049444c3a43616c63756c6174"
        "6f722f44697669646542795a65726f3a312e30000000000a62206973207a6572"
        "6f00"
    ),
    ("divide", "little"): (
        "47494f5001020101560000000900000001000000070000006469766964650000"
        "0b00000043616c63756c61746f7200002000000049444c3a43616c63756c6174"
        "6f722f44697669646542795a65726f3a312e30000a00000062206973207a6572"
        "6f00"
    ),
}


@pytest.fixture(scope="module")
def repo():
    repository = InterfaceRepository()
    repository.register(CALCULATOR)
    repository.register(SENSOR)
    return repository


@pytest.mark.parametrize("byte_order", ["big", "little"])
def test_request_known_answer(repo, byte_order):
    golden = bytes.fromhex(GOLDEN["add", byte_order])
    wire = encode_request(
        repo, "Calculator", "add", (2.0, 3.0), request_id=7,
        object_key=b"calc", byte_order=byte_order,
    )
    assert wire == golden
    message = decode_message(repo, golden)
    assert (message.request_id, message.object_key) == (7, b"calc")
    assert (message.interface_name, message.operation) == ("Calculator", "add")
    assert message.args == (2.0, 3.0)
    assert message.response_expected is True
    assert message.byte_order == byte_order


@pytest.mark.parametrize("byte_order", ["big", "little"])
def test_struct_sequence_reply_known_answer(repo, byte_order):
    golden = bytes.fromhex(GOLDEN["read", byte_order])
    wire = encode_reply(
        repo, "Sensor", "read", request_id=8, result=SAMPLES, byte_order=byte_order
    )
    assert wire == golden
    message = decode_message(repo, golden)
    assert message.reply_status == ReplyStatus.NO_EXCEPTION
    assert message.result == SAMPLES
    assert [type(item["ok"]) for item in message.result] == [bool, bool]


@pytest.mark.parametrize("byte_order", ["big", "little"])
def test_user_exception_reply_known_answer(repo, byte_order):
    golden = bytes.fromhex(GOLDEN["divide", byte_order])
    wire = encode_reply(
        repo, "Calculator", "divide", request_id=9, result=DIVIDE_BY_ZERO,
        reply_status=ReplyStatus.USER_EXCEPTION, byte_order=byte_order,
    )
    assert wire == golden
    message = decode_message(repo, golden)
    assert message.reply_status == ReplyStatus.USER_EXCEPTION
    assert message.result == DIVIDE_BY_ZERO
