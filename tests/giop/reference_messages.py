"""Reference GIOP message coder: the oracle for ``repro.giop.messages``.

This is the coder the product ran until one message plan per operation
replaced it, verbatim apart from the buffer pool (which only recycled
``bytearray`` objects): the preamble is written by the interpreted
``CdrEncoder.write_primitive`` and read back by ``FastDecoder.read_primitive``,
the header is parsed through ``MsgType(...)`` and a concatenated
``struct.unpack`` format, operations are found by name in the repository,
and only argument and result bodies run through ``compile_codec`` plans.
``FastEncoder``/``FastDecoder`` — the ``CdrEncoder``/``CdrDecoder``
subclasses that routed values through compiled plans — live here too; the
codec tests drive the compiled plans through them.
``test_messages_reference.py`` holds the product to this, bytes and values,
on every operation of the test and workload repositories and on mutated
messages.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.giop.codec import _FIXED_LEAVES, _bool_dec, _StringOp, compile_codec
from repro.giop.idl import IdlError, InterfaceRepository
from repro.giop.messages import (
    HEADER_SIZE,
    MAGIC,
    VERSION,
    CloseConnectionMessage,
    GiopError,
    LocateReplyMessage,
    LocateRequestMessage,
    LocateStatus,
    MessageErrorMessage,
    MsgType,
    ReplyMessage,
    ReplyStatus,
    RequestHeader,
    RequestMessage,
)
from repro.giop.typecodes import TC_VOID, TypeCode, TypeCodeError
from tests.giop.reference_cdr import CdrDecoder, CdrEncoder, CdrError


class FastEncoder(CdrEncoder):
    """CdrEncoder that routes through compiled plans.

    Byte-for-byte compatible with the reference encoder it subclasses for
    the primitive/octet writers.
    """

    def __init__(self, byte_order: str = "big") -> None:
        super().__init__(byte_order)
        self._order = 0 if byte_order == "big" else 1

    def encode(self, tc: TypeCode, value: Any) -> None:
        """Marshal ``value`` per ``tc``, rejecting the same values as the
        interpreted ``validate``-then-encode path."""
        compile_codec(tc).encode_value_into(self._buffer, value, self._order)

    def release(self) -> None:
        """Drop the output buffer (call after getvalue())."""
        self._buffer = bytearray()


class FastDecoder(CdrDecoder):
    """CdrDecoder over a zero-copy memoryview cursor with compiled plans."""

    def __init__(self, data: Any, byte_order: str = "big") -> None:
        if byte_order not in ("big", "little"):
            raise ValueError("byte_order must be 'big' or 'little'")
        self.byte_order = byte_order
        self._prefix = ">" if byte_order == "big" else "<"
        self._order = 0 if byte_order == "big" else 1
        # No bytes(data) copy — the cursor reads the caller's buffer.
        self._data = data if isinstance(data, memoryview) else memoryview(data)
        self._pos = 0

    def _take(self, size: int) -> bytes:
        if self._pos + size > len(self._data):
            raise CdrError(
                f"truncated stream: need {size} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        chunk = bytes(self._data[self._pos : self._pos + size])
        self._pos += size
        return chunk

    def read_primitive(self, kind: str) -> Any:
        leaf = _FIXED_LEAVES.get(kind)
        if leaf is not None:
            char, size, align = leaf
            self._align(align)
            pos = self._pos
            if pos + size > len(self._data):
                raise CdrError(
                    f"truncated stream: need {size} bytes at offset {pos}, "
                    f"have {len(self._data) - pos}"
                )
            (raw,) = struct.unpack_from(self._prefix + char, self._data, pos)
            self._pos = pos + size
            if kind == "boolean":
                return _bool_dec(raw)
            return raw
        if kind == "string":
            flat: list = []
            self._pos = _STRING_OP.decode(self._data, self._pos, flat, self._order)
            return flat[0]
        if kind == "void":
            return None
        raise CdrError(f"unknown primitive kind {kind}")  # pragma: no cover

    def decode(self, tc: TypeCode) -> Any:
        value, self._pos = compile_codec(tc).decode_value(
            self._data, self._pos, self._order
        )
        return value


_STRING_OP = _StringOp(0)


def _finish(encoder: FastEncoder, msg_type: MsgType) -> bytes:
    """Prepend the GIOP header."""
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
    interface = repository.lookup(interface_name)
    op = interface.operation(operation)
    op.validate_args(args)
    body = FastEncoder(byte_order)
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
    interface = repository.lookup(interface_name)
    op = interface.operation(operation)
    body = FastEncoder(byte_order)
    body.write_primitive("ulong", request_id)
    body.write_primitive("ulong", int(reply_status))
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
    return _finish(FastEncoder(byte_order), MsgType.CLOSE_CONNECTION)


def encode_message_error(byte_order: str = "big") -> bytes:
    return _finish(FastEncoder(byte_order), MsgType.MESSAGE_ERROR)


def _split_message(data: bytes) -> tuple[MsgType, str, Any]:
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


def peek_request_header(data: bytes) -> RequestHeader:
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


def decode_message(repository: InterfaceRepository, data: bytes) -> Any:
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
