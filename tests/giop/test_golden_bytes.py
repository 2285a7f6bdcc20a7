"""Known-answer test: GIOP wire bytes as hex literals, both byte orders.

There is one coder; the fuzz suite compares it with the reference in
``tests/giop/reference_cdr.py``, but both live in this repo and could drift
together.
The ``GOLDEN`` literals were laid out by hand from the CDR rules (alignment
relative to the body start, NUL-terminated length-prefixed strings, IEEE 754)
and pin the encoder and the decoder to something outside the codebase.

``RECORDED`` was taken from the coder that preceded the per-operation message
plans, before they replaced it: a request and a reply for every operation of
the calculator and key-value interfaces in both byte orders (object keys of
1–4 octets, so every pad phase before the operation name; one request id
past 2**32, which the request masks), every kind of exception reply, and the
locate, close and error messages. Any later change to the GIOP layer proves
the bytes unmoved against it in milliseconds.
"""

import pytest

from repro.giop.idl import InterfaceDef, InterfaceRepository, Operation, Parameter
from repro.giop.messages import (
    LocateStatus,
    ReplyStatus,
    decode_message,
    encode_close_connection,
    encode_locate_reply,
    encode_locate_request,
    encode_message_error,
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
from repro.workloads.scenarios import CALCULATOR, KVSTORE

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


# (interface, operation, args, result, object key, request id, response_expected)
OPERATION_CASES = [
    ("Calculator", "add", (2.0, 3.0), 5.0, b"c", 11, True),
    ("Calculator", "divide", (1.0, 4.0), 0.25, b"ca", 12, True),
    ("Calculator", "mean", ([1.0, 2.0, 4.5],), 2.5, b"cal", 13, True),
    ("Calculator", "store", (7.25,), None, b"calc", 2**32 + 14, False),
    ("Calculator", "history", (), [1.0, 2.5], b"c", 15, True),
    ("KvStore", "put", ("k1", "v1"), None, b"kv", 16, True),
    ("KvStore", "get", ("k1",), "vé", b"kv-", 17, True),
    ("KvStore", "size", (), 3, b"kv-0", 18, True),
]
EXCEPTION_CASES = [
    (ReplyStatus.USER_EXCEPTION, "Calculator", "divide",
     ("IDL:Calculator/DivideByZero:1.0", "b is zero"), 21),
    (ReplyStatus.SYSTEM_EXCEPTION, "KvStore", "get",
     ("IDL:omg.org/CORBA/UNKNOWN:1.0", "servant raised"), 22),
    (ReplyStatus.LOCATION_FORWARD, "KvStore", "size", ("kv-2", ""), 23),
]
RECORDED = {
    ("add", "request", "big"): (
        "47494f5001020000000000380000000b01000000000000016300000000000004"
        "616464000000000b43616c63756c61746f720000400000000000000040080000"
        "00000000"
    ),
    ("add", "reply", "big"): (
        "47494f5001020001000000280000000b0000000000000004616464000000000b"
        "43616c63756c61746f7200004014000000000000"
    ),
    ("add", "request", "little"): (
        "47494f5001020100380000000b00000001000000010000006300000004000000"
        "616464000b00000043616c63756c61746f720000000000000000004000000000"
        "00000840"
    ),
    ("add", "reply", "little"): (
        "47494f5001020101280000000b0000000000000004000000616464000b000000"
        "43616c63756c61746f7200000000000000001440"
    ),
    ("divide", "request", "big"): (
        "47494f5001020000000000400000000c01000000000000026361000000000007"
        "64697669646500000000000b43616c63756c61746f720000000000003ff00000"
        "000000004010000000000000"
    ),
    ("divide", "reply", "big"): (
        "47494f5001020001000000300000000c00000000000000076469766964650000"
        "0000000b43616c63756c61746f720000000000003fd0000000000000"
    ),
    ("divide", "request", "little"): (
        "47494f5001020100400000000c00000001000000020000006361000007000000"
        "64697669646500000b00000043616c63756c61746f7200000000000000000000"
        "0000f03f0000000000001040"
    ),
    ("divide", "reply", "little"): (
        "47494f5001020101300000000c00000000000000070000006469766964650000"
        "0b00000043616c63756c61746f72000000000000000000000000d03f"
    ),
    ("mean", "request", "big"): (
        "47494f5001020000000000480000000d010000000000000363616c0000000005"
        "6d65616e000000000000000b43616c63756c61746f720000000000033ff00000"
        "0000000040000000000000004012000000000000"
    ),
    ("mean", "reply", "big"): (
        "47494f5001020001000000300000000d00000000000000056d65616e00000000"
        "0000000b43616c63756c61746f720000000000004004000000000000"
    ),
    ("mean", "request", "little"): (
        "47494f5001020100480000000d000000010000000300000063616c0005000000"
        "6d65616e000000000b00000043616c63756c61746f7200000300000000000000"
        "0000f03f00000000000000400000000000001240"
    ),
    ("mean", "reply", "little"): (
        "47494f5001020101300000000d00000000000000050000006d65616e00000000"
        "0b00000043616c63756c61746f720000000000000000000000000440"
    ),
    ("store", "request", "big"): (
        "47494f5001020000000000380000000e000000000000000463616c6300000006"
        "73746f72650000000000000b43616c63756c61746f72000000000000401d0000"
        "00000000"
    ),
    ("store", "reply", "big"): (
        "47494f5001020001000000230000000e000000000000000673746f7265000000"
        "0000000b43616c63756c61746f7200"
    ),
    ("store", "request", "little"): (
        "47494f5001020100380000000e000000000000000400000063616c6306000000"
        "73746f72650000000b00000043616c63756c61746f7200000000000000000000"
        "00001d40"
    ),
    ("store", "reply", "little"): (
        "47494f5001020101230000000e000000000000000600000073746f7265000000"
        "0b00000043616c63756c61746f7200"
    ),
    ("history", "request", "big"): (
        "47494f50010200000000002b0000000f01000000000000016300000000000008"
        "686973746f7279000000000b43616c63756c61746f7200"
    ),
    ("history", "reply", "big"): (
        "47494f5001020001000000380000000f0000000000000008686973746f727900"
        "0000000b43616c63756c61746f720000000000023ff000000000000040040000"
        "00000000"
    ),
    ("history", "request", "little"): (
        "47494f50010201002b0000000f00000001000000010000006300000008000000"
        "686973746f7279000b00000043616c63756c61746f7200"
    ),
    ("history", "reply", "little"): (
        "47494f5001020101380000000f0000000000000008000000686973746f727900"
        "0b00000043616c63756c61746f72000002000000000000000000f03f00000000"
        "00000440"
    ),
    ("put", "request", "big"): (
        "47494f5001020000000000330000001001000000000000026b76000000000004"
        "70757400000000084b7653746f726500000000036b31000000000003763100"
    ),
    ("put", "reply", "big"): (
        "47494f50010200010000001c0000001000000000000000047075740000000008"
        "4b7653746f726500"
    ),
    ("put", "request", "little"): (
        "47494f5001020100330000001000000001000000020000006b76000004000000"
        "70757400080000004b7653746f726500030000006b31000003000000763100"
    ),
    ("put", "reply", "little"): (
        "47494f50010201011c0000001000000000000000040000007075740008000000"
        "4b7653746f726500"
    ),
    ("get", "request", "big"): (
        "47494f50010200000000002b0000001101000000000000036b762d0000000004"
        "67657400000000084b7653746f726500000000036b3100"
    ),
    ("get", "reply", "big"): (
        "47494f5001020001000000240000001100000000000000046765740000000008"
        "4b7653746f7265000000000476c3a900"
    ),
    ("get", "request", "little"): (
        "47494f50010201002b0000001100000001000000030000006b762d0004000000"
        "67657400080000004b7653746f726500030000006b3100"
    ),
    ("get", "reply", "little"): (
        "47494f5001020101240000001100000000000000040000006765740008000000"
        "4b7653746f7265000400000076c3a900"
    ),
    ("size", "request", "big"): (
        "47494f5001020000000000280000001201000000000000046b762d3000000005"
        "73697a6500000000000000084b7653746f726500"
    ),
    ("size", "reply", "big"): (
        "47494f50010200010000002400000012000000000000000573697a6500000000"
        "000000084b7653746f72650000000003"
    ),
    ("size", "request", "little"): (
        "47494f5001020100280000001200000001000000040000006b762d3005000000"
        "73697a6500000000080000004b7653746f726500"
    ),
    ("size", "reply", "little"): (
        "47494f50010201012400000012000000000000000500000073697a6500000000"
        "080000004b7653746f72650003000000"
    ),
    ("USER_EXCEPTION", "reply", "big"): (
        "47494f5001020001000000560000001500000001000000076469766964650000"
        "0000000b43616c63756c61746f7200000000002049444c3a43616c63756c6174"
        "6f722f44697669646542795a65726f3a312e30000000000a62206973207a6572"
        "6f00"
    ),
    ("USER_EXCEPTION", "reply", "little"): (
        "47494f5001020101560000001500000001000000070000006469766964650000"
        "0b00000043616c63756c61746f7200002000000049444c3a43616c63756c6174"
        "6f722f44697669646542795a65726f3a312e30000a00000062206973207a6572"
        "6f00"
    ),
    ("SYSTEM_EXCEPTION", "reply", "big"): (
        "47494f5001020001000000530000001600000002000000046765740000000008"
        "4b7653746f7265000000001e49444c3a6f6d672e6f72672f434f5242412f554e"
        "4b4e4f574e3a312e300000000000000f73657276616e742072616973656400"
    ),
    ("SYSTEM_EXCEPTION", "reply", "little"): (
        "47494f5001020101530000001600000002000000040000006765740008000000"
        "4b7653746f7265001e00000049444c3a6f6d672e6f72672f434f5242412f554e"
        "4b4e4f574e3a312e300000000f00000073657276616e742072616973656400"
    ),
    ("LOCATION_FORWARD", "reply", "big"): (
        "47494f50010200010000003100000017000000030000000573697a6500000000"
        "000000084b7653746f726500000000056b762d32000000000000000100"
    ),
    ("LOCATION_FORWARD", "reply", "little"): (
        "47494f50010201013100000017000000030000000500000073697a6500000000"
        "080000004b7653746f726500050000006b762d32000000000100000000"
    ),
    ("locate", "request", "big"): (
        "47494f50010200030000000c0000001f000000046b762d30"
    ),
    ("locate", "reply", "big"): (
        "47494f5001020004000000080000002000000001"
    ),
    ("close", "-", "big"): (
        "47494f500102000500000000"
    ),
    ("error", "-", "big"): (
        "47494f500102000600000000"
    ),
    ("locate", "request", "little"): (
        "47494f50010201030c0000001f000000040000006b762d30"
    ),
    ("locate", "reply", "little"): (
        "47494f5001020104080000002000000001000000"
    ),
    ("close", "-", "little"): (
        "47494f500102010500000000"
    ),
    ("error", "-", "little"): (
        "47494f500102010600000000"
    ),
}


@pytest.fixture(scope="module")
def workload_repo():
    repository = InterfaceRepository()
    repository.register(CALCULATOR)
    repository.register(KVSTORE)
    return repository


def _recorded(*key):
    return bytes.fromhex(RECORDED[key])


@pytest.mark.parametrize("byte_order", ["big", "little"])
@pytest.mark.parametrize("case", OPERATION_CASES, ids=[c[1] for c in OPERATION_CASES])
def test_recorded_operation_messages(workload_repo, case, byte_order):
    interface, operation, args, result, key, request_id, response = case
    request = encode_request(
        workload_repo, interface, operation, args, request_id=request_id,
        object_key=key, response_expected=response, byte_order=byte_order,
    )
    assert request == _recorded(operation, "request", byte_order)
    message = decode_message(workload_repo, request)
    assert (message.args, message.object_key) == (args, key)
    assert (message.request_id, message.response_expected) == (request_id & 0xFFFFFFFF, response)
    reply = encode_reply(
        workload_repo, interface, operation, request_id & 0xFFFFFFFF, result,
        byte_order=byte_order,
    )
    assert reply == _recorded(operation, "reply", byte_order)
    assert decode_message(workload_repo, reply).result == result


@pytest.mark.parametrize("byte_order", ["big", "little"])
@pytest.mark.parametrize("case", EXCEPTION_CASES, ids=[c[0].name for c in EXCEPTION_CASES])
def test_recorded_exception_replies(workload_repo, case, byte_order):
    status, interface, operation, result, request_id = case
    wire = encode_reply(
        workload_repo, interface, operation, request_id, result,
        reply_status=status, byte_order=byte_order,
    )
    assert wire == _recorded(status.name, "reply", byte_order)
    message = decode_message(workload_repo, wire)
    assert (message.reply_status, message.result) == (status, result)


@pytest.mark.parametrize("byte_order", ["big", "little"])
def test_recorded_locate_close_and_error(workload_repo, byte_order):
    cases = [
        (("locate", "request"), encode_locate_request(31, b"kv-0", byte_order=byte_order)),
        (("locate", "reply"),
         encode_locate_reply(32, LocateStatus.OBJECT_HERE, byte_order=byte_order)),
        (("close", "-"), encode_close_connection(byte_order)),
        (("error", "-"), encode_message_error(byte_order)),
    ]
    for key, wire in cases:
        assert wire == _recorded(*key, byte_order)
        assert decode_message(workload_repo, wire).byte_order == byte_order
