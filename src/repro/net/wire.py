"""Payload-object ↔ bytes codec shared by both execution backends.

The simulator hands :class:`~repro.sim.process.Process` objects *Python
objects* (frozen protocol dataclasses); a TCP socket hands the peer bytes.
This module is the contract between the two: every payload a process may
legitimately put on the wire encodes to canonical bytes and decodes back
to an equal object, so

* the asyncio backend can carry the exact same protocol traffic, and
* the simulator can *assert* that no object-graph leakage crosses a
  process boundary (``Network.check_wire``) — a payload only a shared
  address space could deliver is a bug the real wire would surface as a
  crash, so the oracle surfaces it first.

The bytes are the canonical TLV encoding (:mod:`repro.crypto.encoding`) of
``{"__wire__": <name>, "f": {<field>: <value>...}}`` for a
:func:`repro.schema.message` dataclass, every field included (``auth`` too,
which the *signed* form leaves out) and nested messages the same way. Both
directions are one pass between bytes and objects, with no dict tree in
between: the writer lays each value behind the head and key items its
class's :class:`~repro.schema.Plan` holds as constants; the reader walks the
frame once, matches those keys as bytes and reads a field map straight into
constructor arguments, restoring tuples from the type hints. The two-pass
codec this replaced is the test oracle (``tests/net/reference_wire.py``).
"""

from __future__ import annotations

import struct
from typing import Any

from repro.crypto.encoding import MAX_PARSE_DEPTH, _emit, _pack_container_head
from repro.crypto.encoding import _parse_one, _unpack_ulong, canonical_bytes
from repro.schema import FIELDS_KEY, WIRE_KEY, Plan, plan_named, plan_of

_TAG_S, _TAG_B, _TAG_I, _TAG_L = b"SBIL"
# A message in canonical order opens ``S 8 "__wire__" S <name>`` and goes
# on ``S 1 "f" M <field map>``: the constant bytes around the two lengths.
_OPEN = canonical_bytes(WIRE_KEY) + b"S"
_FIELDS = canonical_bytes(FIELDS_KEY) + b"M"


class WireCodecError(ValueError):
    """Payload cannot cross a real process boundary."""


def _write(value: Any, pieces: list[bytes]) -> int:
    """Append ``value``'s encoding to ``pieces``; return its byte length. A
    message is its plan's constant head and key items around its values."""
    plan = plan_of(type(value))
    if plan is None and not isinstance(value, (list, tuple, dict)):
        return _emit(value, pieces)  # atoms, and whatever canonical_bytes refuses
    slot = len(pieces)
    pieces.append(b"")  # the header (a message's two), once the items are sized
    size = 4
    if plan is not None:
        for key, field, _ in plan.wire_keys:
            pieces.append(key)
            size += len(key) + _write(getattr(value, field), pieces)
        head = plan.wire_head
        outer = _pack_container_head(b"M", 9 + len(head) + size, 2)
        inner = _pack_container_head(b"M", size, len(plan.wire_keys))
        pieces[slot] = b"".join((outer, head, inner))
        return 14 + len(head) + size
    tag = b"M" if isinstance(value, dict) else b"L"
    if tag == b"M":
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"dict keys must be str, got {type(key).__name__}")
            size += _emit(key, pieces) + _write(value[key], pieces)
    else:
        for item in value:
            size += _write(item, pieces)
    pieces[slot] = _pack_container_head(tag, size, len(value))
    return 5 + size


def _read(raw: bytes, pos: int, limit: int, depth: int) -> tuple[Any, int]:
    """One value starting at ``pos`` and where it ends: ``parse_canonical``'s
    descent, check for check, except that a mapping of message shape becomes
    the message. ``limit`` ends the input; ``depth`` more containers may open."""
    if pos + 5 > limit or (tag := raw[pos]) not in b"SBILM":
        return _parse_one(raw, pos, limit, depth)  # N T F D, or no value at all
    end = pos + 5 + _unpack_ulong(raw, pos + 1)[0]
    pos += 5
    if end > limit:
        raise ValueError("truncated canonical body")
    if tag == _TAG_S:
        return str(raw[pos:end], "utf-8"), end
    if tag == _TAG_B:
        return raw[pos:end], end
    if tag == _TAG_I:
        return int(str(raw[pos:end], "ascii")), end
    if end - pos < 4:
        raise ValueError("container body too short")
    if depth == 0:
        raise ValueError(f"containers nested deeper than {MAX_PARSE_DEPTH}")
    depth -= 1
    count = _unpack_ulong(raw, pos)[0]
    pos += 4
    if tag == _TAG_L:
        value: Any = []
        for _ in range(count):
            item, pos = _read(raw, pos, limit, depth)
            value.append(item)
    elif (
        count == 2
        and raw.startswith(_OPEN, pos)
        and (name_at := pos + len(_OPEN) + 4) <= end
        and raw.startswith(_FIELDS, fields_at := name_at + _unpack_ulong(raw, name_at - 4)[0])
        and fields_at + len(_FIELDS) + 8 <= end  # the field map's length and count
        and (plan := plan_named(str(raw[name_at:fields_at], "utf-8"))) is not None
    ):
        value, pos = _read_fields(raw, fields_at + len(_FIELDS), limit, depth, plan)
    else:
        value = {}
        for _ in range(count):
            key, pos = _parse_one(raw, pos, limit, depth)
            if type(key) is not str:
                raise ValueError("dict key is not a string")
            value[key], pos = _read(raw, pos, limit, depth)
        if len(value) == 2 and WIRE_KEY in value and FIELDS_KEY in value:
            # Message shape, but not a known name then an ``f`` map in that
            # order: refused, or built from the fields as read.
            name, fields = value[WIRE_KEY], value[FIELDS_KEY]
            plan = plan_named(name) if type(name) is str else None
            if plan is None or type(fields) is not dict:
                raise WireCodecError(f"unknown wire type {name!r}, or fields not a mapping")
            try:
                value = plan.build(fields)
            except (TypeError, ValueError) as exc:
                raise WireCodecError(f"cannot rebuild {name}: {exc}") from exc
    if pos != end:
        raise ValueError("container body length mismatch")
    return value, end


def _read_fields(raw: bytes, pos: int, limit: int, depth: int, plan: Plan) -> tuple[Any, int]:
    """``plan``'s message from the field map whose length and count are at
    ``pos``, read straight into constructor arguments: values read (nested
    messages built) then coerced, unknown keys read and dropped, absent
    fields left to the dataclass defaults."""
    try:
        end = pos + 4 + _unpack_ulong(raw, pos)[0]
        if not pos + 8 <= end <= limit:
            raise ValueError("field map truncated or too short")
        if depth == 0:
            raise ValueError(f"containers nested deeper than {MAX_PARSE_DEPTH}")
        depth -= 1
        kwargs, left = {}, _unpack_ulong(raw, pos + 4)[0]
        pos += 8
        for key, field, coerce in plan.wire_keys:  # in the order encoders write
            if not left or not raw.startswith(key, pos):
                break
            value, pos = _read(raw, pos + len(key), limit, depth)
            kwargs[field] = value if coerce is None else coerce(value)
            left -= 1
        for _ in range(left):  # out of that order, unknown, repeated: key by key
            field, pos = _parse_one(raw, pos, limit, depth)
            if type(field) is not str:
                raise ValueError("dict key is not a string")
            value, pos = _read(raw, pos, limit, depth)
            if field in plan.wire_fields:
                coerce = plan.wire_fields[field]
                kwargs[field] = value if coerce is None else coerce(value)
        if pos != end:
            raise ValueError("container body length mismatch")
        return plan.cls(**kwargs), end
    except (TypeError, ValueError) as exc:
        raise WireCodecError(f"cannot rebuild {plan.name}: {exc}") from exc


def _read_all(raw: bytes, pos: int, limit: int) -> Any:
    """The one value that is all of ``raw[pos:limit]``."""
    value, end = _read(raw, pos, limit, MAX_PARSE_DEPTH)
    if end != limit:
        raise ValueError(f"trailing bytes after canonical value at {end}")
    return value


def encode_wire_payload(payload: Any) -> bytes:
    """Canonical bytes for one cross-process payload (object or plain value)."""
    pieces: list[bytes] = []
    try:
        _write(payload, pieces)
    except (TypeError, ValueError) as exc:
        raise WireCodecError(
            f"payload {type(payload).__name__} is not wire-encodable: {exc}"
        ) from exc
    return b"".join(pieces)


def decode_wire_payload(raw: bytes) -> Any:
    """Inverse of :func:`encode_wire_payload`."""
    try:
        return _read_all(raw, 0, len(raw))
    except ValueError as exc:
        raise WireCodecError(f"malformed wire payload: {exc}") from exc


def assert_wire_encodable(payload: Any) -> bytes:
    """Round-trip ``payload`` through the codec, raising on any infidelity.

    Checks both value equality (the protocol's view) and re-encode byte
    identity (covers ``auth`` material that dataclass ``==`` deliberately
    ignores). Returns the encoding so callers can reuse it.
    """
    wire = encode_wire_payload(payload)
    decoded = decode_wire_payload(wire)
    if decoded != payload and not (
        isinstance(payload, tuple) and list(payload) == decoded
    ):
        raise WireCodecError(
            f"payload {type(payload).__name__} does not round-trip: "
            f"{payload!r} != {decoded!r}"
        )
    again = encode_wire_payload(decoded)
    if again != wire:
        raise WireCodecError(
            f"payload {type(payload).__name__} re-encodes differently "
            "(auth or field-order infidelity)"
        )
    return wire


# The datagram envelope, hand-laid: the canonical encoding of
# ``{"dst": dst, "p": <payload bytes>, "src": src}`` (keys sort in that
# order), so the head can be swapped without re-encoding what follows it.
# Each head is constant bytes around the lengths that vary.
_DST_HEAD = struct.Struct(">cI13sI")  # M len | 3 items, S 3 "dst", S | len(dst)
_P_HEAD = struct.Struct(">7sI")  # S 1 "p", B | len(payload)
_SRC_HEAD = struct.Struct(">9sI")  # S 3 "src", S | len(src)
_DST_KEY = b"\x00\x00\x00\x03" + canonical_bytes("dst") + b"S"
_P_KEY = canonical_bytes("p") + b"B"
_SRC_KEY = canonical_bytes("src") + b"S"


def _addressed(dst: str, *rest: Any) -> bytes:
    """The envelope head for ``dst`` joined onto the ``p``/``src`` pieces."""
    to = dst.encode("utf-8")
    body_len = _DST_HEAD.size - 5 + len(to) + sum(map(len, rest))
    return b"".join((_DST_HEAD.pack(b"M", body_len, _DST_KEY, len(to)), to, *rest))


def encode_datagram(src: str, dst: str, payload: Any) -> bytes:
    """One addressed frame body: who sent it, who it is for, the payload."""
    wire = encode_wire_payload(payload)
    sender = src.encode("utf-8")
    p_head, src_head = _P_HEAD.pack(_P_KEY, len(wire)), _SRC_HEAD.pack(_SRC_KEY, len(sender))
    return _addressed(dst, p_head, wire, src_head, sender)


def readdress_datagram(body: bytes, dst: str) -> bytes:
    """``body`` (an :func:`encode_datagram` result) for another destination:
    same source, same payload bytes, nothing re-encoded (multicast fan-out)."""
    old_dst_len = _DST_HEAD.unpack_from(body)[-1]
    return _addressed(dst, memoryview(body)[_DST_HEAD.size + old_dst_len :])


def decode_datagram(body: bytes) -> tuple[str, str, Any]:
    """Inverse of :func:`encode_datagram` and of nothing else: the three heads
    in its order with lengths that add up to ``body``, the payload read in
    place between them; any other bytes are a :class:`WireCodecError`."""
    try:
        tag, body_len, dst_key, dst_len = _DST_HEAD.unpack_from(body)
        dst_end = _DST_HEAD.size + dst_len
        p_key, p_len = _P_HEAD.unpack_from(body, dst_end)
        p_end = dst_end + _P_HEAD.size + p_len
        src_key, src_len = _SRC_HEAD.unpack_from(body, p_end)
        src_at = p_end + _SRC_HEAD.size
        if (tag, body_len, dst_key, p_key, src_key, src_at + src_len) != (
            b"M", len(body) - 5, _DST_KEY, _P_KEY, _SRC_KEY, len(body)
        ):
            raise ValueError("not the envelope encode_datagram lays out")
        src, dst = str(body[src_at:], "utf-8"), str(body[_DST_HEAD.size : dst_end], "utf-8")
        return src, dst, _read_all(body, p_end - p_len, p_end)
    except (ValueError, struct.error) as exc:
        raise WireCodecError(f"malformed datagram: {exc}") from exc
