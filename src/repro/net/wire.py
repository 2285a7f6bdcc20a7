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

Encoding is the canonical TLV scheme (:mod:`repro.crypto.encoding`) over a
shape-driven translation: a :func:`repro.schema.message` dataclass becomes
``{"__wire__": <name>, "f": {<field>: <value>...}}`` with every field
translated recursively (including ``auth`` material, which the *signed*
canonical form deliberately excludes — the wire must carry it). Decoding
rebuilds objects bottom-up and restores tuple-ness from the dataclass's
type hints, so a round-tripped message is ``==`` to the original and
re-encodes byte-identically. (A type is known once its module is imported.)
"""

from __future__ import annotations

import struct
from typing import Any

from repro.crypto.encoding import canonical_bytes, parse_canonical
from repro.schema import plan_named, plan_of

_WIRE_KEY = "__wire__"
_FIELDS_KEY = "f"


class WireCodecError(ValueError):
    """Payload cannot cross a real process boundary."""


def _encode_value(value: Any) -> Any:
    kind = type(value)
    plan = plan_of(kind)
    if plan is not None:
        return {
            _WIRE_KEY: plan.name,
            _FIELDS_KEY: {
                field: _encode_value(getattr(value, field)) for field in plan.names
            },
        }
    if kind is bytes or kind is str or kind is int:
        return value
    if isinstance(value, (list, tuple)):
        return [_encode_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode_value(item) for key, item in value.items()}
    return value


def _decode_value(value: Any) -> Any:
    kind = type(value)
    if kind is dict:
        if len(value) == 2 and _WIRE_KEY in value and _FIELDS_KEY in value:
            name = value[_WIRE_KEY]
            plan = plan_named(name) if isinstance(name, str) else None
            if plan is None:
                raise WireCodecError(f"unknown wire type {name!r}")
            raw_fields = value[_FIELDS_KEY]
            if not isinstance(raw_fields, dict):
                raise WireCodecError(f"wire type {name!r}: fields is not a dict")
            try:
                return plan.build(raw_fields, _decode_value)
            except (TypeError, ValueError) as exc:
                raise WireCodecError(f"cannot rebuild {name}: {exc}") from exc
        return {key: _decode_value(item) for key, item in value.items()}
    if kind is list:
        return [_decode_value(item) for item in value]
    return value


def encode_wire_payload(payload: Any) -> bytes:
    """Canonical bytes for one cross-process payload (object or plain value)."""
    try:
        return canonical_bytes(_encode_value(payload))
    except (TypeError, ValueError) as exc:
        raise WireCodecError(
            f"payload {type(payload).__name__} is not wire-encodable: {exc}"
        ) from exc


def decode_wire_payload(raw: bytes) -> Any:
    """Inverse of :func:`encode_wire_payload`."""
    try:
        parsed = parse_canonical(raw)
    except ValueError as exc:
        raise WireCodecError(f"malformed wire payload: {exc}") from exc
    return _decode_value(parsed)


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
_DST_HEAD = struct.Struct(">cII cI3s cI")  # M len 3 | S 3 "dst" | S len(dst)
_P_HEAD = struct.Struct(">cI1s cI")  # S 1 "p" | B len(payload)
_SRC_HEAD = struct.Struct(">cI3s cI")  # S 3 "src" | S len(src)


def _addressed(dst: str, *rest: Any) -> bytes:
    """The envelope head for ``dst`` joined onto the ``p``/``src`` pieces."""
    to = dst.encode("utf-8")
    body_len = 4 + 13 + len(to) + sum(map(len, rest))
    head = _DST_HEAD.pack(b"M", body_len, 3, b"S", 3, b"dst", b"S", len(to))
    return b"".join((head, to, *rest))


def encode_datagram(src: str, dst: str, payload: Any) -> bytes:
    """One addressed frame body: who sent it, who it is for, the payload."""
    wire = encode_wire_payload(payload)
    sender = src.encode("utf-8")
    p_head = _P_HEAD.pack(b"S", 1, b"p", b"B", len(wire))
    src_head = _SRC_HEAD.pack(b"S", 3, b"src", b"S", len(sender))
    return _addressed(dst, p_head, wire, src_head, sender)


def readdress_datagram(body: bytes, dst: str) -> bytes:
    """``body`` (an :func:`encode_datagram` result) for another destination:
    same source, same payload bytes, nothing re-encoded (multicast fan-out)."""
    old_dst_len = _DST_HEAD.unpack_from(body)[-1]
    return _addressed(dst, memoryview(body)[_DST_HEAD.size + old_dst_len :])


def decode_datagram(body: bytes) -> tuple[str, str, Any]:
    try:
        fields = parse_canonical(body)
    except ValueError as exc:
        raise WireCodecError(f"malformed datagram: {exc}") from exc
    if (
        not isinstance(fields, dict)
        or not isinstance(fields.get("src"), str)
        or not isinstance(fields.get("dst"), str)
        or not isinstance(fields.get("p"), bytes)
    ):
        raise WireCodecError("datagram missing src/dst/payload")
    return fields["src"], fields["dst"], decode_wire_payload(fields["p"])
