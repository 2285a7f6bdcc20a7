"""GIOP message formats (Request / Reply subset, version 1.2-shaped).

Wire layout::

    GIOP header:  "GIOP" | major | minor | flags | msg_type | ulong size
    Request body: ulong request_id | boolean response_expected |
                  octets object_key | string operation |
                  string interface_name  (ITDOS extension, §3.6) |
                  CDR-encoded in-args per the operation signature
    Reply body:   ulong request_id | ulong reply_status |
                  result / exception payload

Flag bit 0 carries the sender's byte order (1 = little endian), which is the
mechanism that lets heterogeneous peers interoperate — and the reason equal
values can have unequal bytes.

A message is written and read in one pass: precompiled header and preamble
structs, then the operation's :class:`~repro.giop.codec.OperationPlan`
(name strings as CDR bytes, body codecs), found on receipt by the exact
bytes of the two name strings — a table the registered IDL alone fills.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Any

from repro.giop.codec import CdrError, OperationPlan, cdr_string, read_string
from repro.giop.idl import InterfaceRepository

MAGIC = b"GIOP"
VERSION = (1, 2)
HEADER_SIZE = 12


class GiopError(Exception):
    """Malformed GIOP message."""


class MsgType(IntEnum):
    REQUEST = 0
    REPLY = 1
    CANCEL_REQUEST = 2
    LOCATE_REQUEST = 3
    LOCATE_REPLY = 4
    CLOSE_CONNECTION = 5
    MESSAGE_ERROR = 6
    FRAGMENT = 7


class ReplyStatus(IntEnum):
    NO_EXCEPTION = 0
    USER_EXCEPTION = 1
    SYSTEM_EXCEPTION = 2
    LOCATION_FORWARD = 3


@dataclass(frozen=True)
class RequestMessage:
    """A decoded GIOP Request with already-unmarshalled arguments."""

    request_id: int
    response_expected: bool
    object_key: bytes
    operation: str
    interface_name: str
    args: tuple[Any, ...]
    byte_order: str

    def canonical_fields(self) -> dict:  # hand-written: CDR is its wire form, not the schema
        return {
            "request_id": self.request_id,
            "response_expected": self.response_expected,
            "object_key": self.object_key,
            "operation": self.operation,
            "interface_name": self.interface_name,
            "args": list(self.args),
        }


class LocateStatus(IntEnum):
    UNKNOWN_OBJECT = 0
    OBJECT_HERE = 1
    OBJECT_FORWARD = 2


@dataclass(frozen=True)
class LocateRequestMessage:
    """GIOP LocateRequest: does this endpoint serve the object key?"""

    request_id: int
    object_key: bytes
    byte_order: str


@dataclass(frozen=True)
class LocateReplyMessage:
    """GIOP LocateReply."""

    request_id: int
    locate_status: LocateStatus
    byte_order: str


@dataclass(frozen=True)
class CloseConnectionMessage:
    """GIOP CloseConnection: orderly shutdown notice (header only)."""

    byte_order: str


@dataclass(frozen=True)
class MessageErrorMessage:
    """GIOP MessageError: the peer sent something unparseable (header only)."""

    byte_order: str


@dataclass(frozen=True)
class ReplyMessage:
    """A decoded GIOP Reply with an already-unmarshalled result."""

    request_id: int
    reply_status: ReplyStatus
    # NO_EXCEPTION: the operation result (None for void).
    # USER_EXCEPTION / SYSTEM_EXCEPTION: (exception_id, description).
    result: Any
    operation: str
    interface_name: str
    byte_order: str

    def canonical_fields(self) -> dict:  # hand-written: CDR is its wire form, not the schema
        return {
            "request_id": self.request_id,
            "reply_status": int(self.reply_status),
            "result": list(self.result) if isinstance(self.result, tuple) else self.result,
            "operation": self.operation,
            "interface_name": self.interface_name,
        }


# The header and every preamble as one precompiled Struct per byte order
# (index 0 big, 1 little — the header's flags bit 0); they are the same for
# every operation. Decode offsets are into the whole message: the header is
# 12 bytes, so 4-alignment is the same as from the body start, and the body
# codecs (8-aligned) get a view from the body start.
_ORDERS = ("big", "little")


def _structs(fmt: str) -> tuple[struct.Struct, struct.Struct]:
    return struct.Struct(">" + fmt), struct.Struct("<" + fmt)


_PREFIX = MAGIC + bytes(VERSION)
#: "GIOP" major minor | flags | message type | body size
_HEADER = _structs("6sBBI")
#: request id | response_expected | 3 pad | object key length
_REQUEST_PREAMBLE = _structs("IB3xI")
#: reply: request id | status; LocateRequest: request id | key length;
#: LocateReply: request id | status
_ULONG_PAIR = _structs("II")
_ULONG = _structs("I")
_MSG_TYPES = tuple(MsgType)
_REPLY_STATUSES = tuple(ReplyStatus)
_LOCATE_STATUSES = tuple(LocateStatus)
_KEY_AT = HEADER_SIZE + _REQUEST_PREAMBLE[0].size


def _start(packer: struct.Struct, *values: Any) -> bytearray:
    """A message buffer: the header reserved, then ``values`` as the preamble."""
    buf = bytearray(HEADER_SIZE + packer.size)
    try:
        packer.pack_into(buf, HEADER_SIZE, *values)
    except struct.error as exc:
        raise CdrError(f"cannot pack preamble {values!r}: {exc}") from exc
    return buf


def _finish(buf: bytearray, order: int, msg_type: MsgType) -> bytes:
    """Fill in the reserved GIOP header; the body is copied once, here."""
    _HEADER[order].pack_into(buf, 0, _PREFIX, order, msg_type, len(buf) - HEADER_SIZE)
    return bytes(buf)


def encode_request(
    repository: InterfaceRepository,
    interface_name: str,
    operation: str,
    args: tuple[Any, ...],
    request_id: int,
    object_key: bytes = b"",
    response_expected: bool = True,
    byte_order: str = "big",
) -> bytes:
    """Marshal a complete GIOP Request message.

    Argument values are validated and encoded against the operation
    signature found in the interface repository.
    """
    plan = repository.plan(interface_name, operation)
    plan.op.validate_args(args)
    order = _ORDERS.index(byte_order)
    # GIOP request ids are CDR ulongs and wrap at 2^32; the transport-level
    # id (SMIOP's, clock-seeded per incarnation) is unbounded and stays the
    # authoritative correlation key.
    preamble = (request_id & 0xFFFFFFFF, response_expected, len(object_key))
    buf = _start(_REQUEST_PREAMBLE[order], *preamble)
    buf += object_key + b"\x00" * (-len(object_key) % 4)
    buf += plan.names[order]
    for codec, arg in zip(plan.params, args):
        codec.encode_value_into(buf, arg, order, HEADER_SIZE)
    return _finish(buf, order, MsgType.REQUEST)


def encode_reply(
    repository: InterfaceRepository,
    interface_name: str,
    operation: str,
    request_id: int,
    result: Any = None,
    reply_status: ReplyStatus = ReplyStatus.NO_EXCEPTION,
    byte_order: str = "big",
) -> bytes:
    """Marshal a complete GIOP Reply message."""
    plan = repository.plan(interface_name, operation)
    order = _ORDERS.index(byte_order)
    buf = _start(_ULONG_PAIR[order], request_id, reply_status)
    # Replies echo operation/interface so the standalone marshalling engine
    # (and the voter) can interpret them without request-side context.
    buf += plan.names[order]
    if reply_status == ReplyStatus.NO_EXCEPTION:
        if plan.result is not None:
            plan.result.encode_value_into(buf, result, order, HEADER_SIZE)
    else:
        exception_id, description = result
        for text in (exception_id, description):
            buf += b"\x00" * (-len(buf) % 4) + cdr_string(text, order)
    return _finish(buf, order, MsgType.REPLY)


def encode_locate_request(
    request_id: int, object_key: bytes, byte_order: str = "big"
) -> bytes:
    order = _ORDERS.index(byte_order)
    buf = _start(_ULONG_PAIR[order], request_id, len(object_key))
    buf += object_key
    return _finish(buf, order, MsgType.LOCATE_REQUEST)


def encode_locate_reply(
    request_id: int, locate_status: LocateStatus, byte_order: str = "big"
) -> bytes:
    order = _ORDERS.index(byte_order)
    buf = _start(_ULONG_PAIR[order], request_id, locate_status)
    return _finish(buf, order, MsgType.LOCATE_REPLY)


def encode_close_connection(byte_order: str = "big") -> bytes:
    order = _ORDERS.index(byte_order)
    return _finish(bytearray(HEADER_SIZE), order, MsgType.CLOSE_CONNECTION)


def encode_message_error(byte_order: str = "big") -> bytes:
    order = _ORDERS.index(byte_order)
    return _finish(bytearray(HEADER_SIZE), order, MsgType.MESSAGE_ERROR)


def _split_message(data: bytes) -> tuple[bytes, int, int]:
    """Validate the GIOP header; return (data as bytes, byte order, type)."""
    if type(data) is not bytes:
        data = bytes(data)
    if len(data) < HEADER_SIZE:
        raise GiopError("message shorter than GIOP header")
    order = data[6] & 0x01
    prefix, _flags, msg_type, size = _HEADER[order].unpack_from(data)
    if prefix != _PREFIX:
        if prefix[:4] != MAGIC:
            raise GiopError(f"bad magic {prefix[:4]!r}")
        raise GiopError(f"unsupported GIOP version {prefix[4]}.{prefix[5]}")
    if msg_type >= len(_MSG_TYPES):
        raise GiopError(f"unknown message type {msg_type}")
    if len(data) - HEADER_SIZE != size:
        raise GiopError(
            f"size mismatch: header says {size}, body is {len(data) - HEADER_SIZE}"
        )
    return data, order, msg_type


@dataclass(frozen=True)
class RequestHeader:
    """The fixed preamble of a GIOP Request, without the argument payload."""

    request_id: int
    response_expected: bool
    object_key: bytes
    operation: str
    interface_name: str
    byte_order: str


def _request_preamble(data: bytes, order: int) -> tuple[int, bool, int]:
    """(request id, response_expected, offset past the object key)."""
    request_id, response, key_len = _REQUEST_PREAMBLE[order].unpack_from(
        data, HEADER_SIZE
    )
    if response > 1:
        raise CdrError(f"invalid boolean octet {response}")
    key_end = _KEY_AT + key_len
    if key_end > len(data):
        raise CdrError(f"truncated stream: object key of {key_len} bytes")
    return request_id, response == 1, key_end


def peek_request_header(data: bytes) -> RequestHeader:
    """Decode only a Request's preamble (id through interface name).

    The SMIOP sender uses this to recover operation/interface from its own
    just-marshalled bytes without re-unmarshalling the argument payload.
    Any well-formed names are accepted, registered or not.
    """
    data, order, msg_type = _split_message(data)
    if msg_type != MsgType.REQUEST:
        raise GiopError(f"expected REQUEST, got {_MSG_TYPES[msg_type].name}")
    try:
        request_id, response_expected, key_end = _request_preamble(data, order)
        operation, pos = read_string(data, key_end, order)
        interface_name, _ = read_string(data, pos, order)
    except (CdrError, struct.error) as exc:
        raise GiopError(f"cannot decode REQUEST header: {exc}") from exc
    return RequestHeader(
        request_id,
        response_expected,
        data[_KEY_AT:key_end],
        operation,
        interface_name,
        _ORDERS[order],
    )


def _plan_at(
    repository: InterfaceRepository, data: bytes, pos: int, order: int
) -> tuple[OperationPlan, int]:
    """The plan named by the operation and interface strings at ``pos``,
    and the offset past them. Both strings are looked up as the bytes they
    are on the wire (length word, UTF-8, NUL); the pad between them is
    skipped unread, as a string reader skips it."""
    ulong = _ULONG[order]
    op_at = pos + (-pos % 4)
    op_end = op_at + 4 + ulong.unpack_from(data, op_at)[0]
    interface_at = op_end + (-op_end % 4)
    end = interface_at + 4 + ulong.unpack_from(data, interface_at)[0]
    if end > len(data):
        raise CdrError(f"truncated stream: interface name ends at {end}")
    names = (data[op_at:op_end], data[interface_at:end])
    plan = repository.wire_plans[order].get(names)
    if plan is None:
        raise GiopError(f"unknown operation {names[0][4:68]!r} of {names[1][4:68]!r}")
    return plan, end


def decode_message(
    repository: InterfaceRepository, data: bytes
) -> RequestMessage | ReplyMessage:
    """Parse and unmarshal one GIOP message (the receiver-makes-right side).

    This is exactly the "marshalling engine" of §3.6: given only the wire
    bytes and the interface repository, recover typed values — the Group
    Manager uses it to re-vote on proof messages outside any ORB.
    """
    data, order, msg_type = _split_message(data)
    try:
        if msg_type == MsgType.REQUEST:
            return _decode_request(repository, data, order)
        if msg_type == MsgType.REPLY:
            return _decode_reply(repository, data, order)
        if msg_type == MsgType.LOCATE_REQUEST:
            request_id, key_len = _ULONG_PAIR[order].unpack_from(data, HEADER_SIZE)
            key_end = HEADER_SIZE + 8 + key_len
            if key_end > len(data):
                raise CdrError(f"truncated stream: object key of {key_len} bytes")
            key = data[HEADER_SIZE + 8 : key_end]
            return LocateRequestMessage(request_id, key, _ORDERS[order])
        if msg_type == MsgType.LOCATE_REPLY:
            request_id, status = _ULONG_PAIR[order].unpack_from(data, HEADER_SIZE)
            if status >= len(_LOCATE_STATUSES):
                raise CdrError(f"unknown locate status {status}")
            return LocateReplyMessage(request_id, _LOCATE_STATUSES[status], _ORDERS[order])
        if msg_type == MsgType.CLOSE_CONNECTION:
            return CloseConnectionMessage(_ORDERS[order])
        if msg_type == MsgType.MESSAGE_ERROR:
            return MessageErrorMessage(_ORDERS[order])
    except (CdrError, struct.error) as exc:
        raise GiopError(f"cannot decode {_MSG_TYPES[msg_type].name}: {exc}") from exc
    raise GiopError(f"unsupported message type {_MSG_TYPES[msg_type].name}")


def _decode_request(
    repository: InterfaceRepository, data: bytes, order: int
) -> RequestMessage:
    request_id, response_expected, key_end = _request_preamble(data, order)
    plan, pos = _plan_at(repository, data, key_end, order)
    args = []
    if plan.params:
        body = memoryview(data)[HEADER_SIZE:]
        pos -= HEADER_SIZE
        for codec in plan.params:
            value, pos = codec.decode_value(body, pos, order)
            args.append(value)
    return RequestMessage(
        request_id,
        response_expected,
        data[_KEY_AT:key_end],
        plan.operation,
        plan.interface_name,
        tuple(args),
        _ORDERS[order],
    )


def _decode_reply(
    repository: InterfaceRepository, data: bytes, order: int
) -> ReplyMessage:
    request_id, status = _ULONG_PAIR[order].unpack_from(data, HEADER_SIZE)
    if status >= len(_REPLY_STATUSES):
        raise CdrError(f"unknown reply status {status}")
    plan, pos = _plan_at(repository, data, HEADER_SIZE + 8, order)
    result: Any = None
    if status:  # not NO_EXCEPTION
        exception_id, pos = read_string(data, pos, order)
        result = (exception_id, read_string(data, pos, order)[0])
    elif plan.result is not None:
        result = plan.result.decode_value(
            memoryview(data)[HEADER_SIZE:], pos - HEADER_SIZE, order
        )[0]
    return ReplyMessage(
        request_id,
        _REPLY_STATUSES[status],
        result,
        plan.operation,
        plan.interface_name,
        _ORDERS[order],
    )
