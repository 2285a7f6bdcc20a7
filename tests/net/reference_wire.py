"""Reference wire codec: the oracle for ``repro.net.wire``.

Written apart from the product, two passes each way, from the layout alone:

* a message is its field values in declaration order, without names; in a
  field hinted as one message class, or as a tuple of one, it is
  ``L | length | field count | values``, anywhere else
  ``O | length | field count | S <class name> | values``;
* a field hinted ``str``, ``bytes`` or ``bool`` is that atom and no other, a
  field hinted ``int`` an int or a bool; every other field is a plain
  canonical-TLV value;
* a datagram is ``L`` of three items: ``S dst``, ``B payload``, ``S src``.

Encoding builds a tree of :class:`Node` (atoms already as bytes) and then
lays it; decoding parses the bytes into that tree, bounded at
``MAX_PARSE_DEPTH`` containers, and then walks it into objects by the
field hints. ``test_wire_reference.py`` holds the product to this, bytes
and objects, on samples, on live traffic and on mutated frames.
"""

from __future__ import annotations

import struct
import typing
from dataclasses import dataclass
from typing import Any

from repro.crypto.encoding import MAX_PARSE_DEPTH, canonical_bytes
from repro.net.wire import WireCodecError
from repro.schema import Plan, plan_named, plan_of

_ATOMS = (int, str, bytes, bool)


def _admits(atom: type, value: Any) -> bool:
    return type(value) is atom or (atom is int and type(value) is bool)
_FIXED = {b"N": None, b"T": True, b"F": False}


@dataclass
class Node:
    """A container: its tag, its head's count and its items (an ``M``'s
    keys and values alternate; an ``O``'s first item is the class name)."""

    tag: bytes
    count: int
    items: list


def _shape(hint: Any) -> tuple[str, Any]:
    """("atom", type), ("message", class), ("messages", class) or ("plain", None)."""
    if hint in _ATOMS:
        return "atom", hint
    if isinstance(hint, type) and plan_of(hint) is not None:
        return "message", hint
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis and isinstance(args[0], type) \
                and plan_of(args[0]) is not None:
            return "messages", args[0]
    return "plain", None


# -- encode: value -> tree -> bytes ----------------------------------------------


def _fields(value: Any, plan: Plan) -> list:
    items = []
    for name in plan.names:
        field, (shape, of) = getattr(value, name), _shape(plan.hints[name])
        if shape == "atom":
            if not _admits(of, field):
                raise TypeError(f"{plan.name}.{name} holds {type(field).__name__}")
            items.append(canonical_bytes(field))
        elif shape == "message":
            items.append(_unnamed(field, of))
        elif shape == "messages":
            if type(field) is not tuple:
                raise TypeError(f"{plan.name}.{name} is not a tuple")
            items.append(Node(b"L", len(field), [_unnamed(item, of) for item in field]))
        else:
            items.append(_tree(field))
    return items


def _unnamed(value: Any, cls: type) -> Node:
    if type(value) is not cls:
        raise TypeError(f"expected {cls.__name__}, got {type(value).__name__}")
    plan = plan_of(cls)
    return Node(b"L", len(plan.names), _fields(value, plan))


def _tree(value: Any) -> Any:
    plan = plan_of(type(value))
    if plan is not None:
        return Node(b"O", len(plan.names), [canonical_bytes(plan.name), *_fields(value, plan)])
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("dict keys must be str")
        pairs = [part for key in sorted(value) for part in (canonical_bytes(key), _tree(value[key]))]
        return Node(b"M", len(value), pairs)
    if isinstance(value, (list, tuple)):
        return Node(b"L", len(value), [_tree(item) for item in value])
    return canonical_bytes(value)  # an atom; TypeError/ValueError for the rest


def _lay(node: Any) -> bytes:
    if isinstance(node, bytes):
        return node
    body = struct.pack(">I", node.count) + b"".join(map(_lay, node.items))
    return node.tag + struct.pack(">I", len(body)) + body


# -- decode: bytes -> tree -> value ----------------------------------------------


def _parse(raw: bytes, pos: int, limit: int, depth: int) -> tuple[Any, int]:
    if pos >= limit:
        raise ValueError("truncated value")
    tag = raw[pos : pos + 1]
    if tag in _FIXED:
        return _FIXED[tag], pos + 1
    if tag == b"D":
        if pos + 9 > limit:
            raise ValueError("truncated float")
        return struct.unpack(">d", raw[pos + 1 : pos + 9])[0], pos + 9
    if pos + 5 > limit:
        raise ValueError("truncated length")
    end = pos + 5 + struct.unpack(">I", raw[pos + 1 : pos + 5])[0]
    if end > limit:
        raise ValueError("truncated body")
    body = raw[pos + 5 : end]
    if tag == b"S":
        return body.decode("utf-8"), end
    if tag == b"B":
        return bytes(body), end
    if tag == b"I":
        return int(body.decode("ascii")), end
    if tag not in (b"L", b"M", b"O"):
        raise ValueError(f"unknown tag {tag!r}")
    if len(body) < 4:
        raise ValueError("container too short")
    if depth == 0:
        raise ValueError(f"containers nested deeper than {MAX_PARSE_DEPTH}")
    count = struct.unpack(">I", body[:4])[0]
    items, at = [], pos + 9
    for _ in range({b"L": count, b"M": 2 * count, b"O": count + 1}[tag]):
        item, at = _parse(raw, at, end, depth - 1)
        items.append(item)
    if at != end:
        raise ValueError("container length mismatch")
    return Node(tag, count, items), end


def parse_tree(raw: bytes) -> Any:
    node, end = _parse(raw, 0, len(raw), MAX_PARSE_DEPTH)
    if end != len(raw):
        raise ValueError("trailing bytes")
    return node


def _build(plan: Plan, count: int, nodes: list) -> Any:
    if count != len(plan.names):
        raise ValueError(f"{plan.name}: {count} fields")
    values = []
    for (name, coerce), node in zip(plan.coercers, nodes):
        shape, of = _shape(plan.hints[name])
        if shape == "atom":
            if not _admits(of, node):
                raise ValueError(f"{plan.name}.{name}: not {of.__name__}")
            values.append(node)
        elif shape == "message":
            values.append(_message(node, of))
        elif shape == "messages":
            if not (isinstance(node, Node) and node.tag == b"L"):
                raise ValueError(f"{plan.name}.{name}: not a list")
            values.append(tuple(_message(item, of) for item in node.items))
        else:
            value = _value(node)
            values.append(value if coerce is None else coerce(value))
    return plan.cls(*values)


def _message(node: Any, cls: type) -> Any:
    if not (isinstance(node, Node) and node.tag == b"L"):
        raise ValueError(f"not an unnamed {cls.__name__}")
    return _build(plan_of(cls), node.count, node.items)


def _value(node: Any) -> Any:
    if not isinstance(node, Node):
        return node
    if node.tag == b"L":
        return [_value(item) for item in node.items]
    if node.tag == b"M":
        keys, values = node.items[::2], node.items[1::2]
        if not all(type(key) is str for key in keys):
            raise ValueError("dict key is not a string")
        return {key: _value(item) for key, item in zip(keys, values)}
    name = node.items[0]
    plan = plan_named(name) if type(name) is str else None
    if plan is None:
        raise WireCodecError(f"unknown wire type {name!r}")
    return _build(plan, node.count, node.items[1:])


def encode_wire_payload(payload: Any) -> bytes:
    try:
        return _lay(_tree(payload))
    except (TypeError, ValueError) as exc:
        raise WireCodecError(
            f"payload {type(payload).__name__} is not wire-encodable: {exc}"
        ) from exc


def decode_wire_payload(raw: bytes) -> Any:
    try:
        return _value(parse_tree(raw))
    except (TypeError, ValueError) as exc:
        raise WireCodecError(f"malformed wire payload: {exc}") from exc


def encode_datagram(src: str, dst: str, payload: Any) -> bytes:
    items = [canonical_bytes(dst), canonical_bytes(encode_wire_payload(payload)), canonical_bytes(src)]
    return _lay(Node(b"L", 3, items))


def decode_datagram(body: bytes) -> tuple[str, str, Any]:
    try:
        envelope = parse_tree(body)
    except ValueError as exc:
        raise WireCodecError(f"malformed datagram: {exc}") from exc
    if not (
        isinstance(envelope, Node) and envelope.tag == b"L" and envelope.count == 3
        and [type(item) for item in envelope.items] == [str, bytes, str]
    ):
        raise WireCodecError("datagram is not [dst, payload, src]")
    dst, payload, src = envelope.items
    return src, dst, decode_wire_payload(payload)
