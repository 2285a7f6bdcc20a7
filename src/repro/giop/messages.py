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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Any

from repro.giop.cdr import CdrError
from repro.giop.codec import FastDecoder, FastEncoder
from repro.giop.idl import IdlError, InterfaceRepository
from repro.giop.typecodes import TC_VOID, TypeCodeError

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

    def trace_label(self) -> str:
        return f"Request({self.interface_name}.{self.operation}#{self.request_id})"

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

    def trace_label(self) -> str:
        return f"LocateRequest(#{self.request_id})"


@dataclass(frozen=True)
class LocateReplyMessage:
    """GIOP LocateReply."""

    request_id: int
    locate_status: LocateStatus
    byte_order: str

    def trace_label(self) -> str:
        return f"LocateReply(#{self.request_id},{self.locate_status.name})"


@dataclass(frozen=True)
class CloseConnectionMessage:
    """GIOP CloseConnection: orderly shutdown notice (header only)."""

    byte_order: str

    def trace_label(self) -> str:
        return "CloseConnection"


@dataclass(frozen=True)
class MessageErrorMessage:
    """GIOP MessageError: the peer sent something unparseable (header only)."""

    byte_order: str

    def trace_label(self) -> str:
        return "MessageError"


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

    def trace_label(self) -> str:
        return f"Reply({self.interface_name}.{self.operation}#{self.request_id})"

    def canonical_fields(self) -> dict:  # hand-written: CDR is its wire form, not the schema
        return {
            "request_id": self.request_id,
            "reply_status": int(self.reply_status),
            "result": list(self.result) if isinstance(self.result, tuple) else self.result,
            "operation": self.operation,
            "interface_name": self.interface_name,
        }


def _finish(encoder: FastEncoder, msg_type: MsgType) -> bytes:
    """Prepend the GIOP header and recycle the pooled encoder buffer."""
    body = encoder.getvalue()
    encoder.release()
    flags = 0x01 if encoder.byte_order == "little" else 0x00
    prefix = "<" if encoder.byte_order == "little" else ">"
    return (
        MAGIC
        + bytes(VERSION)
        + bytes([flags, int(msg_type)])
        + struct.pack(prefix + "I", len(body))
        + body
    )


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
    interface = repository.lookup(interface_name)
    op = interface.operation(operation)
    op.validate_args(args)
    body = FastEncoder(byte_order)
    # GIOP request ids are CDR ulongs and wrap at 2^32; the transport-level
    # id (SMIOP's, clock-seeded per incarnation) is unbounded and stays the
    # authoritative correlation key.
    body.write_primitive("ulong", request_id & 0xFFFFFFFF)
    body.write_primitive("boolean", response_expected)
    body.write_octets(object_key)
    body.write_primitive("string", operation)
    body.write_primitive("string", interface_name)
    for param, arg in zip(op.params, args):
        body.encode(param.tc, arg)
    return _finish(body, MsgType.REQUEST)


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
    interface = repository.lookup(interface_name)
    op = interface.operation(operation)
    body = FastEncoder(byte_order)
    body.write_primitive("ulong", request_id)
    body.write_primitive("ulong", int(reply_status))
    # Replies echo operation/interface so the standalone marshalling engine
    # (and the voter) can interpret them without request-side context.
    body.write_primitive("string", operation)
    body.write_primitive("string", interface_name)
    if reply_status == ReplyStatus.NO_EXCEPTION:
        if op.result is not TC_VOID:
            body.encode(op.result, result)
    else:
        exception_id, description = result
        body.write_primitive("string", exception_id)
        body.write_primitive("string", description)
    return _finish(body, MsgType.REPLY)


def encode_locate_request(
    request_id: int, object_key: bytes, byte_order: str = "big"
) -> bytes:
    body = FastEncoder(byte_order)
    body.write_primitive("ulong", request_id)
    body.write_octets(object_key)
    return _finish(body, MsgType.LOCATE_REQUEST)


def encode_locate_reply(
    request_id: int, locate_status: LocateStatus, byte_order: str = "big"
) -> bytes:
    body = FastEncoder(byte_order)
    body.write_primitive("ulong", request_id)
    body.write_primitive("ulong", int(locate_status))
    return _finish(body, MsgType.LOCATE_REPLY)


def encode_close_connection(byte_order: str = "big") -> bytes:
    body = FastEncoder(byte_order)
    return _finish(body, MsgType.CLOSE_CONNECTION)


def encode_message_error(byte_order: str = "big") -> bytes:
    body = FastEncoder(byte_order)
    return _finish(body, MsgType.MESSAGE_ERROR)


def _split_message(data: bytes) -> tuple[MsgType, str, Any]:
    """Validate the GIOP header; return (msg_type, byte_order, body).

    The body is a zero-copy :class:`memoryview` slice of the caller's
    buffer rather than a ``bytes`` copy.
    """
    if len(data) < HEADER_SIZE:
        raise GiopError("message shorter than GIOP header")
    if data[:4] != MAGIC:
        raise GiopError(f"bad magic {bytes(data[:4])!r}")
    major, minor = data[4], data[5]
    if (major, minor) != VERSION:
        raise GiopError(f"unsupported GIOP version {major}.{minor}")
    flags = data[6]
    byte_order = "little" if flags & 0x01 else "big"
    try:
        msg_type = MsgType(data[7])
    except ValueError as exc:
        raise GiopError(f"unknown message type {data[7]}") from exc
    prefix = "<" if byte_order == "little" else ">"
    (size,) = struct.unpack(prefix + "I", data[8:12])
    body = memoryview(data)[HEADER_SIZE:]
    if len(body) != size:
        raise GiopError(f"size mismatch: header says {size}, body is {len(body)}")
    return msg_type, byte_order, body


@dataclass(frozen=True)
class RequestHeader:
    """The fixed preamble of a GIOP Request, without the argument payload."""

    request_id: int
    response_expected: bool
    object_key: bytes
    operation: str
    interface_name: str
    byte_order: str


def peek_request_header(data: bytes) -> RequestHeader:
    """Decode only a Request's preamble (id through interface name).

    The SMIOP sender uses this to recover operation/interface from its own
    just-marshalled bytes without re-unmarshalling the argument payload.
    """
    msg_type, byte_order, body = _split_message(data)
    if msg_type != MsgType.REQUEST:
        raise GiopError(f"expected REQUEST, got {msg_type.name}")
    decoder = FastDecoder(body, byte_order)
    try:
        return RequestHeader(
            request_id=decoder.read_primitive("ulong"),
            response_expected=decoder.read_primitive("boolean"),
            object_key=decoder.read_octets(),
            operation=decoder.read_primitive("string"),
            interface_name=decoder.read_primitive("string"),
            byte_order=byte_order,
        )
    except CdrError as exc:
        raise GiopError(f"cannot decode REQUEST header: {exc}") from exc


def decode_message(
    repository: InterfaceRepository, data: bytes
) -> RequestMessage | ReplyMessage:
    """Parse and unmarshal one GIOP message (the receiver-makes-right side).

    This is exactly the "marshalling engine" of §3.6: given only the wire
    bytes and the interface repository, recover typed values — the Group
    Manager uses it to re-vote on proof messages outside any ORB.
    """
    msg_type, byte_order, body = _split_message(data)
    decoder = FastDecoder(body, byte_order)
    try:
        if msg_type == MsgType.REQUEST:
            return _decode_request(repository, decoder, byte_order)
        if msg_type == MsgType.REPLY:
            return _decode_reply(repository, decoder, byte_order)
        if msg_type == MsgType.LOCATE_REQUEST:
            return LocateRequestMessage(
                request_id=decoder.read_primitive("ulong"),
                object_key=decoder.read_octets(),
                byte_order=byte_order,
            )
        if msg_type == MsgType.LOCATE_REPLY:
            return LocateReplyMessage(
                request_id=decoder.read_primitive("ulong"),
                locate_status=LocateStatus(decoder.read_primitive("ulong")),
                byte_order=byte_order,
            )
        if msg_type == MsgType.CLOSE_CONNECTION:
            return CloseConnectionMessage(byte_order=byte_order)
        if msg_type == MsgType.MESSAGE_ERROR:
            return MessageErrorMessage(byte_order=byte_order)
    except (CdrError, TypeCodeError, IdlError, ValueError) as exc:
        raise GiopError(f"cannot decode {msg_type.name}: {exc}") from exc
    raise GiopError(f"unsupported message type {msg_type.name}")


def _decode_request(
    repository: InterfaceRepository, decoder: FastDecoder, byte_order: str
) -> RequestMessage:
    request_id = decoder.read_primitive("ulong")
    response_expected = decoder.read_primitive("boolean")
    object_key = decoder.read_octets()
    operation = decoder.read_primitive("string")
    interface_name = decoder.read_primitive("string")
    op = repository.lookup(interface_name).operation(operation)
    args = tuple(decoder.decode(param.tc) for param in op.params)
    return RequestMessage(
        request_id=request_id,
        response_expected=response_expected,
        object_key=object_key,
        operation=operation,
        interface_name=interface_name,
        args=args,
        byte_order=byte_order,
    )


def _decode_reply(
    repository: InterfaceRepository, decoder: FastDecoder, byte_order: str
) -> ReplyMessage:
    request_id = decoder.read_primitive("ulong")
    reply_status = ReplyStatus(decoder.read_primitive("ulong"))
    operation = decoder.read_primitive("string")
    interface_name = decoder.read_primitive("string")
    op = repository.lookup(interface_name).operation(operation)
    result: Any
    if reply_status == ReplyStatus.NO_EXCEPTION:
        result = None if op.result is TC_VOID else decoder.decode(op.result)
    else:
        exception_id = decoder.read_primitive("string")
        description = decoder.read_primitive("string")
        result = (exception_id, description)
    return ReplyMessage(
        request_id=request_id,
        reply_status=reply_status,
        result=result,
        operation=operation,
        interface_name=interface_name,
        byte_order=byte_order,
    )
