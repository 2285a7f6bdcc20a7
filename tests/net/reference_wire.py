"""Reference wire codec: the oracle for ``repro.net.wire``.

This is the two-pass codec the product ran until the plan-driven one
replaced it, verbatim: a message becomes a ``{"__wire__": name, "f":
{...}}`` dict tree that ``canonical_bytes`` then encodes; a frame is parsed
by ``parse_canonical`` into a dict tree (the envelope first, then the
payload it copied out as ``bytes``) that ``_decode_value`` walks into
objects. ``Plan.build``'s ``decode=`` hook went with it and is written out
in ``_build``. ``test_wire_reference.py`` holds the product to this, bytes
and objects, on samples, on live traffic and on mutated frames.
"""

from __future__ import annotations

from typing import Any

from repro.crypto.encoding import canonical_bytes, parse_canonical
from repro.net.wire import WireCodecError
from repro.schema import Plan, plan_named, plan_of

_WIRE_KEY = "__wire__"
_FIELDS_KEY = "f"


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


def _build(plan: Plan, fields: dict) -> Any:
    kwargs = {}
    for name, coerce in plan.coercers:
        if name in fields:
            item = _decode_value(fields[name])
            kwargs[name] = item if coerce is None else coerce(item)
    return plan.cls(**kwargs)


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
                return _build(plan, raw_fields)
            except (TypeError, ValueError) as exc:
                raise WireCodecError(f"cannot rebuild {name}: {exc}") from exc
        return {key: _decode_value(item) for key, item in value.items()}
    if kind is list:
        return [_decode_value(item) for item in value]
    return value


def encode_wire_payload(payload: Any) -> bytes:
    try:
        return canonical_bytes(_encode_value(payload))
    except (TypeError, ValueError) as exc:
        raise WireCodecError(
            f"payload {type(payload).__name__} is not wire-encodable: {exc}"
        ) from exc


def decode_wire_payload(raw: bytes) -> Any:
    try:
        parsed = parse_canonical(raw)
    except ValueError as exc:
        raise WireCodecError(f"malformed wire payload: {exc}") from exc
    return _decode_value(parsed)


def encode_datagram(src: str, dst: str, payload: Any) -> bytes:
    return canonical_bytes({"src": src, "dst": dst, "p": encode_wire_payload(payload)})


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
