"""Payload-object ↔ bytes codec shared by both execution backends.

The simulator hands :class:`~repro.sim.process.Process` objects *Python
objects* (frozen protocol dataclasses); a TCP socket hands the peer bytes.
This module is the contract between the two: every payload a process may
legitimately put on the wire encodes to one byte string and decodes back to
an equal object, so

* the asyncio backend can carry the exact same protocol traffic, and
* the simulator can *assert* that no object-graph leakage crosses a
  process boundary (``Network.check_wire``) — a payload only a shared
  address space could deliver is a bug the real wire would surface as a
  crash, so the oracle surfaces it first.

The bytes are canonical TLV items (:mod:`repro.crypto.encoding`: tag |
ulong length | body, containers with a ulong count), and a message says
each field once, by position: a :func:`repro.schema.message` dataclass is
its field values in declaration order, with no key items. In a field hinted
as one message class, or a tuple of one, it is ``L | length | field count |
values``; anywhere else (the top-level payload, a plain list or mapping) it
names its class: ``O | length | field count | S <name> | values``. A field
hinted ``str``, ``bytes`` or ``bool`` is that atom, one hinted ``int`` an
``I`` (or ``T``/``F``: a ``bool`` is an ``int``); any other field (``auth``'s
union, tuples of atoms) is a plain value. Per message class the writer and
the reader are generated source, compiled on first use from its
:class:`~repro.schema.Plan`, one pass each way; the reader reads exactly
the writer's layout and calls the class positionally. Anything else — a
wrong count or tag, an unknown name, bytes left over, nesting past
``MAX_PARSE_DEPTH`` — is a :class:`WireCodecError`, as is a value its
field's hint does not admit on encode. The two-pass codec
``tests/net/reference_wire.py`` is the test oracle.
"""

from __future__ import annotations

import struct
import typing
from typing import Any, Callable

from repro.crypto.encoding import MAX_PARSE_DEPTH, _emit, _pack_container_head
from repro.crypto.encoding import _parse_one, _unpack_ulong, canonical_bytes
from repro.schema import Plan, plan_named, plan_of

_TAG_L, _TAG_O = b"LO"  # as ``raw[pos]`` reads them
_pack_atom_head = struct.Struct(">cI").pack
#: Per string atom a field may be hinted as: its tag, how a compiled writer
#: encodes ``v``, how a compiled reader decodes ``raw[a:p]`` (an ``int`` or a
#: ``bool`` field has a template of its own).
_ATOMS = {
    str: (b"S", "v.encode()", "str(raw[a:p], 'utf-8')"),
    bytes: (b"B", "v", "raw[a:p]"),
}


class WireCodecError(ValueError):
    """Payload cannot cross a real process boundary."""


def _writer(plan: Plan) -> Callable[[Any, list[bytes], bool], int]:
    return _WRITERS.get(plan) or _WRITERS.setdefault(plan, _compile_writer(plan))


def _reader(plan: Plan) -> Callable[[bytes, int, int, int, int], Any]:
    return _READERS.get(plan) or _READERS.setdefault(plan, _compile_reader(plan))


def _write(value: Any, pieces: list[bytes]) -> int:
    """Append ``value``'s encoding to ``pieces``; return its byte length.
    A message here names its class."""
    plan = plan_of(type(value))
    if plan is not None:
        return _writer(plan)(value, pieces, True)
    if not isinstance(value, (list, tuple, dict)):
        return _emit(value, pieces)  # atoms, and whatever canonical_bytes refuses
    slot = len(pieces)
    pieces.append(b"")  # the header, once the items are sized
    size = 4
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


def _write_one(value: Any, plan: Plan, pieces: list[bytes]) -> int:
    """A field hinted as ``plan``'s class: the message, unnamed."""
    if type(value) is not plan.cls:
        raise TypeError(f"expected {plan.name}, got {type(value).__name__}")
    return _writer(plan)(value, pieces, False)


def _write_many(values: Any, plan: Plan, pieces: list[bytes]) -> int:
    """A field hinted as a tuple of ``plan``'s class: a list of them, unnamed."""
    if type(values) is not tuple:
        raise TypeError(f"expected a tuple of {plan.name}, got {type(values).__name__}")
    slot = len(pieces)
    pieces.append(b"")
    size = 4
    for value in values:
        size += _write_one(value, plan, pieces)
    pieces[slot] = _pack_container_head(b"L", size, len(values))
    return 5 + size


def _open(raw: bytes, pos: int, limit: int, depth: int, tag: int) -> tuple[int, int, int]:
    """The ``tag`` container's head at ``pos``: (its count, where its items
    start, where it ends), once it is known to fit in ``limit`` and ``depth``."""
    if pos + 9 > limit or raw[pos] != tag:
        raise ValueError(f"expected a {chr(tag)} container")
    end = pos + 5 + _unpack_ulong(raw, pos + 1)[0]
    if end > limit:
        raise ValueError("truncated canonical body")
    if end < pos + 9:
        raise ValueError("container body too short")
    if depth == 0:
        raise ValueError(f"containers nested deeper than {MAX_PARSE_DEPTH}")
    return _unpack_ulong(raw, pos + 5)[0], pos + 9, end


def _read(raw: bytes, pos: int, limit: int, depth: int) -> tuple[Any, int]:
    """One value starting at ``pos`` and where it ends: ``parse_canonical``'s
    descent, check for check, plus the named message. ``limit`` ends the
    input; ``depth`` more containers may open."""
    if pos >= limit or (tag := raw[pos]) not in b"LMO":
        return _parse_one(raw, pos, limit, depth)  # the atoms, or no value at all
    count, at, end = _open(raw, pos, limit, depth, tag)
    depth -= 1
    if tag == _TAG_O:
        name, at = _parse_one(raw, at, end, depth)
        plan = plan_named(name) if type(name) is str else None
        if plan is None:
            raise WireCodecError(f"unknown wire type {name!r}")
        return _reader(plan)(raw, at, end, depth, count), end
    if tag == _TAG_L:
        value: Any = []
        for _ in range(count):
            item, at = _read(raw, at, end, depth)
            value.append(item)
    else:
        value = {}
        for _ in range(count):
            key, at = _parse_one(raw, at, end, depth)
            if type(key) is not str:
                raise ValueError("dict key is not a string")
            value[key], at = _read(raw, at, end, depth)
    if at != end:
        raise ValueError("container body length mismatch")
    return value, end


def _read_one(raw: bytes, pos: int, limit: int, depth: int, plan: Plan) -> tuple[Any, int]:
    """A field hinted as ``plan``'s class: its unnamed list of values."""
    count, at, end = _open(raw, pos, limit, depth, _TAG_L)
    return _reader(plan)(raw, at, end, depth - 1, count), end


def _read_many(raw: bytes, pos: int, limit: int, depth: int, plan: Plan) -> tuple[Any, int]:
    """A field hinted as a tuple of ``plan``'s class."""
    count, at, end = _open(raw, pos, limit, depth, _TAG_L)
    items = []
    for _ in range(count):
        item, at = _read_one(raw, at, end, depth - 1, plan)
        items.append(item)
    if at != end:
        raise ValueError("container body length mismatch")
    return tuple(items), end


def _field_kind(hint: Any) -> tuple[str, Any]:
    """How a field hinted ``hint`` is laid: one atom, an unnamed message, a
    tuple of unnamed messages, or a plain value."""
    if hint is int or hint is bool:
        return hint.__name__, hint
    if hint in _ATOMS:
        return "atom", hint
    plan = plan_of(hint) if isinstance(hint, type) else None
    if plan is not None:
        return "one", plan
    args = typing.get_args(hint) if typing.get_origin(hint) is tuple else ()
    if len(args) == 2 and args[1] is Ellipsis and isinstance(args[0], type):
        if (plan := plan_of(args[0])) is not None:
            return "many", plan
    return "plain", None


_WRITE = {  # per field kind; ``v`` is the field's value
    "atom": """
    v = o.{name}
    if type(v) is not {atom}: raise TypeError("{cls}.{name} is not {atom}")
    b = {encode}
    append(atom_head({tag!r}, len(b)))
    append(b)
    size += 5 + len(b)""",
    "bool": """
    v = o.{name}
    if type(v) is not bool: raise TypeError("{cls}.{name} is not bool")
    append(b'T' if v else b'F')
    size += 1""",
    "int": """
    v = o.{name}
    if type(v) is int:
        b = str(v).encode()
        append(atom_head(b'I', len(b)))
        append(b)
        size += 5 + len(b)
    elif type(v) is bool:  # an int too
        append(b'T' if v else b'F')
        size += 1
    else: raise TypeError("{cls}.{name} is not int")""",
    "one": """
    size += write_one(o.{name}, n{i}, pieces)""",
    "many": """
    size += write_many(o.{name}, n{i}, pieces)""",
    "plain": """
    size += write(o.{name}, pieces)""",
}
_READ = {  # per field kind; a field read moves ``p`` past it
    "atom": """
    if p + 5 > end or raw[p] != {tag_byte}: raise ValueError("{cls}.{name}: expected {atom}")
    a = p + 5
    p = a + unpack(raw, p + 1)[0]
    if p > end: raise ValueError("truncated canonical body")
    v{i} = {decode}""",
    "bool": """
    if p >= end or raw[p] not in b'TF': raise ValueError("{cls}.{name}: expected bool")
    v{i}, p = raw[p] == 84, p + 1""",
    "int": """
    if p + 5 <= end and raw[p] == 73:
        a = p + 5
        p = a + unpack(raw, p + 1)[0]
        if p > end: raise ValueError("truncated canonical body")
        v{i} = int(str(raw[a:p], 'ascii'))
    elif p < end and raw[p] in b'TF':
        v{i}, p = raw[p] == 84, p + 1
    else: raise ValueError("{cls}.{name}: expected int")""",
    "one": """
    v{i}, p = read_one(raw, p, end, depth, n{i})""",
    "many": """
    v{i}, p = read_many(raw, p, end, depth, n{i})""",
    "plain": """
    v{i}, p = read(raw, p, end, depth){coerce}""",
}


def _compile(
    plan: Plan, role: str, template: str, fields: dict[str, str], scope: dict[str, Any]
) -> Callable:
    """``<role>_<name>``, which ``template`` defines for ``plan``, one ``fields``
    entry per field; charged to this file, so a profiler counts its time here."""
    lines = []
    for i, (name, coerce) in enumerate(plan.coercers):
        kind, of = _field_kind(plan.hints[name])
        tag, encode, decode = _ATOMS.get(of, (b"", "", ""))
        scope.update({f"n{i}": of, f"c{i}": coerce})
        lines.append(fields[kind].format(
            i=i, name=name, cls=plan.name, atom=getattr(of, "__name__", ""), tag=tag,
            tag_byte=tag[0] if tag else 0, encode=encode, decode=decode,
            coerce=f"\n    v{i} = c{i}(v{i})" if coerce else "",
        ))
    function = f"{role}_{plan.name}"
    source = template.format(
        function=function, fields="".join(lines), cls=plan.name, count=len(plan.names),
        values=", ".join(f"v{i}" for i in range(len(plan.names))),
    )
    exec(compile(source, __file__, "exec"), scope)  # noqa: S102 - names, constants
    return scope[function]


def _compile_writer(plan: Plan) -> Callable[[Any, list[bytes], bool], int]:
    """``plan``'s writer: the head (``O`` and the class name when ``named``,
    else ``L``), then each field's value, inline when its hint is an atom."""
    name = canonical_bytes(plan.name)
    return _compile(plan, "write", """
def {function}(o, pieces, named):
    append = pieces.append
    slot = len(pieces)
    append(b'')
    size = 4{fields}
    if named:
        pieces[slot] = head(b'O', size + name_len, count) + name
        return 5 + name_len + size
    pieces[slot] = head(b'L', size, count)
    return 5 + size
""", _WRITE, {
        "write": _write, "write_one": _write_one, "write_many": _write_many,
        "atom_head": _pack_atom_head, "head": _pack_container_head,
        "name": name, "name_len": len(name), "count": len(plan.names),
    })


def _compile_reader(plan: Plan) -> Callable[[bytes, int, int, int, int], Any]:
    """``plan``'s reader of the ``count`` field values from ``p`` to ``end``
    (the container's head already read); ``depth`` more containers may open."""
    return _compile(plan, "read", """
def {function}(raw, p, end, depth, count):
    if count != {count}: raise ValueError(f"{cls} has {count} fields, not {{count}}"){fields}
    if p != end: raise ValueError("bytes after the last field")
    return cls({values})
""", _READ, {
        "unpack": _unpack_ulong, "read": _read, "read_one": _read_one,
        "read_many": _read_many, "cls": plan.cls,
    })


_WRITERS: dict[Plan, Callable[[Any, list[bytes], bool], int]] = {}
_READERS: dict[Plan, Callable[[bytes, int, int, int, int], Any]] = {}


def _read_all(raw: bytes, pos: int, limit: int) -> Any:
    """The one value that is all of ``raw[pos:limit]``."""
    value, end = _read(raw, pos, limit, MAX_PARSE_DEPTH)
    if end != limit:
        raise ValueError(f"trailing bytes after canonical value at {end}")
    return value


def encode_wire_payload(payload: Any) -> bytes:
    """The bytes of one cross-process payload (object or plain value)."""
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
    except (TypeError, ValueError) as exc:
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


# The datagram envelope, hand-laid: ``L`` of three items, the destination
# first, then the payload's own bytes as one ``B`` atom and the source, so
# the head can be swapped without re-encoding what follows it.
_DST_HEAD = struct.Struct(">cIIcI")  # L len | 3 items | S len(dst)
_ATOM_HEAD = struct.Struct(">cI")  # B len(payload), then S len(src)
_ITEMS = 3


def _addressed(dst: str, *rest: Any) -> bytes:
    """The envelope head for ``dst`` joined onto the payload and source pieces."""
    to = dst.encode("utf-8")
    body_len = _DST_HEAD.size - 5 + len(to) + sum(map(len, rest))
    return b"".join((_DST_HEAD.pack(b"L", body_len, _ITEMS, b"S", len(to)), to, *rest))


def encode_datagram(src: str, dst: str, payload: Any) -> bytes:
    """One addressed frame body: who it is for, the payload, who sent it."""
    wire = encode_wire_payload(payload)
    sender = src.encode("utf-8")
    return _addressed(
        dst, _pack_atom_head(b"B", len(wire)), wire, _pack_atom_head(b"S", len(sender)), sender
    )


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
        tag, body_len, items, dst_tag, dst_len = _DST_HEAD.unpack_from(body)
        dst_end = _DST_HEAD.size + dst_len
        p_tag, p_len = _ATOM_HEAD.unpack_from(body, dst_end)
        p_end = dst_end + _ATOM_HEAD.size + p_len
        src_tag, src_len = _ATOM_HEAD.unpack_from(body, p_end)
        src_at = p_end + _ATOM_HEAD.size
        if (tag, body_len, items, dst_tag, p_tag, src_tag, src_at + src_len) != (
            b"L", len(body) - 5, _ITEMS, b"S", b"B", b"S", len(body)
        ):
            raise ValueError("not the envelope encode_datagram lays out")
        src, dst = str(body[src_at:], "utf-8"), str(body[_DST_HEAD.size : dst_end], "utf-8")
        return src, dst, _read_all(body, p_end - p_len, p_end)
    except (TypeError, ValueError, struct.error) as exc:
        raise WireCodecError(f"malformed datagram: {exc}") from exc
