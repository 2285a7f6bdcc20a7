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
shape-driven translation: a registered dataclass becomes
``{"__wire__": <name>, "f": {<field>: <value>...}}`` with every field
translated recursively (including ``auth`` material, which the *signed*
canonical form deliberately excludes — the wire must carry it). Decoding
rebuilds objects bottom-up and restores tuple-ness from the dataclass's
type hints, so a round-tripped message is ``==`` to the original and
re-encodes byte-identically.
"""

from __future__ import annotations

import dataclasses
import struct
import typing
from typing import Any, Callable

from repro.crypto.encoding import canonical_bytes, parse_canonical

_WIRE_KEY = "__wire__"
_FIELDS_KEY = "f"


class WireCodecError(ValueError):
    """Payload cannot cross a real process boundary."""


#: Per-type plans, computed once at registration: class -> (wire name, field
#: names) to encode; wire name -> (class, per-field tuple coercers) to decode.
_ENCODE_PLANS: dict[type, tuple[str, tuple[str, ...]]] = {}
_DECODE_PLANS: dict[str, tuple[type, tuple[tuple[str, Callable | None], ...]]] = {}


def register_wire_type(cls: type, name: str | None = None) -> type:
    """Register a frozen-dataclass payload type for wire transfer.

    Idempotent for the same class; a different class under an existing
    name is a deployment bug and raises.
    """
    wire_name = name or cls.__name__
    existing = _DECODE_PLANS.get(wire_name)
    if existing is not None and existing[0] is not cls:
        raise ValueError(f"wire type {wire_name!r} already registered")
    # PEP 563 modules store hints as strings; resolve them here, once.
    hints = typing.get_type_hints(cls)
    names = tuple(f.name for f in dataclasses.fields(cls))
    _ENCODE_PLANS[cls] = (wire_name, names)
    coercers = tuple((field, _coercer(hints.get(field))) for field in names)
    _DECODE_PLANS[wire_name] = (cls, coercers)
    return cls


def registered_wire_types() -> dict[str, type]:
    return {name: plan[0] for name, plan in _DECODE_PLANS.items()}


def _encode_value(value: Any) -> Any:
    kind = type(value)
    plan = _ENCODE_PLANS.get(kind)
    if plan is not None:
        return {
            _WIRE_KEY: plan[0],
            _FIELDS_KEY: {
                field: _encode_value(getattr(value, field)) for field in plan[1]
            },
        }
    if kind is bytes or kind is str or kind is int:
        return value
    if isinstance(value, (list, tuple)):
        return [_encode_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode_value(item) for key, item in value.items()}
    return value


def _coercer(hint: Any) -> Callable[[Any], Any] | None:
    """Compile a field's type hint into the function that restores the tuples
    the canonical encoding flattens, or ``None`` when values pass through."""
    if typing.get_origin(hint) is not tuple and hint is not tuple:
        # Unions (e.g. ``dict[str, bytes] | bytes | None`` auth) and atoms:
        # the shape-driven decode already rebuilt any nested objects.
        return None
    args = typing.get_args(hint)
    if not args or (len(args) == 2 and args[1] is Ellipsis):
        arity, inners = None, [_coercer(args[0]) if args else None]
    else:
        arity, inners = len(args), [_coercer(arg) for arg in args]

    def coerce_tuple(value: Any) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise WireCodecError(
                f"expected sequence for {hint}, got {type(value).__name__}"
            )
        if arity is None:  # ``tuple`` or ``tuple[X, ...]``
            return tuple(value if inners[0] is None else map(inners[0], value))
        if arity != len(value):
            raise WireCodecError(
                f"expected {arity}-tuple for {hint}, got {len(value)} items"
            )
        return tuple(
            item if inner is None else inner(item) for inner, item in zip(inners, value)
        )

    return coerce_tuple


def _decode_value(value: Any) -> Any:
    kind = type(value)
    if kind is dict:
        if len(value) == 2 and _WIRE_KEY in value and _FIELDS_KEY in value:
            name = value[_WIRE_KEY]
            plan = _DECODE_PLANS.get(name) if isinstance(name, str) else None
            if plan is None:
                raise WireCodecError(f"unknown wire type {name!r}")
            raw_fields = value[_FIELDS_KEY]
            if not isinstance(raw_fields, dict):
                raise WireCodecError(f"wire type {name!r}: fields is not a dict")
            kwargs: dict[str, Any] = {}
            for field, coerce in plan[1]:
                if field not in raw_fields:
                    continue  # absent field: the dataclass default applies
                item = _decode_value(raw_fields[field])
                kwargs[field] = item if coerce is None else coerce(item)
            try:
                return plan[0](**kwargs)
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


def _register_builtin_types() -> None:
    """Register every payload type the protocol layers put on the wire."""
    from repro.bft import messages as bft
    from repro.itdos import messages as itdos
    from repro.recovery import messages as recovery

    for cls in (
        bft.ClientRequest,
        bft.BatchMsg,
        bft.PrePrepareMsg,
        bft.PrepareMsg,
        bft.CommitMsg,
        bft.BftReply,
        bft.CheckpointMsg,
        bft.PreparedCertificate,
        bft.ViewChangeMsg,
        bft.NewViewMsg,
        bft.StatusMsg,
        bft.FillMsg,
        bft.StateRequestMsg,
        bft.StateResponseMsg,
        itdos.SmiopRequest,
        itdos.SmiopReply,
        itdos.BodyRequest,
        itdos.BodyReply,
        itdos.ReadRequest,
        itdos.ReadReply,
        itdos.CommitFeed,
        itdos.GmShareEnvelope,
        itdos.OpenRequest,
        itdos.ProofItem,
        itdos.ChangeRequest,
        itdos.RekeyTick,
        itdos.CoinMessage,
        recovery.RejoinPetition,
        recovery.QueueStateRequest,
        recovery.QueueStateResponse,
    ):
        register_wire_type(cls)


_register_builtin_types()
