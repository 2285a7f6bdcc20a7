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
between. Per message class they are generated source, compiled on first use
from its :class:`~repro.schema.Plan` (``wire_head``, ``wire_keys``, the
field hints): the writer lays each field's key item and value, an atom of
the hinted type (``None`` where the hint admits it) inline; the reader reads
exactly that layout into locals and calls the class with keyword arguments,
and at its first deviation hands the rest of the map to the one fallback,
:func:`_read_fields`, key by key. Plain values are not compiled. The
two-pass codec this replaced is the test oracle (``tests/net/reference_wire.py``).
"""

from __future__ import annotations

import struct
import types
import typing
from typing import Any, Callable

from repro.crypto.encoding import MAX_PARSE_DEPTH, _emit, _pack_container_head
from repro.crypto.encoding import _parse_one, _unpack_ulong, canonical_bytes
from repro.schema import FIELDS_KEY, WIRE_KEY, Plan, plan_named, plan_of

_TAG_S, _TAG_B, _TAG_I, _TAG_L = b"SBIL"
# A message in canonical order opens ``S 8 "__wire__" S <name>`` and goes
# on ``S 1 "f" M <field map>``: the constant bytes around the two lengths.
_OPEN = canonical_bytes(WIRE_KEY) + b"S"
_FIELDS = canonical_bytes(FIELDS_KEY) + b"M"
_pack_ulong = struct.Struct(">I").pack
#: Per atom a field may be hinted as: its tag, how a compiled writer encodes
#: ``v``, how a compiled reader decodes ``raw[a:e]``.
_ATOMS = {
    int: (b"I", "str(v).encode()", "int(str(raw[a:e], 'ascii'))"),
    str: (b"S", "v.encode()", "str(raw[a:e], 'utf-8')"),
    bytes: (b"B", "v", "raw[a:e]"),
}


class WireCodecError(ValueError):
    """Payload cannot cross a real process boundary."""


class _Deviation(Exception):
    """A compiled reader met bytes outside its writer's layout."""


def _write(value: Any, pieces: list[bytes]) -> int:
    """Append ``value``'s encoding to ``pieces``; return its byte length."""
    plan = plan_of(type(value))
    if plan is not None:
        write = _WRITERS.get(plan) or _WRITERS.setdefault(plan, _compile_writer(plan))
        return write(value, pieces)
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
        read = _READERS.get(plan) or _READERS.setdefault(plan, _compile_reader(plan))
        value, pos = read(raw, fields_at + len(_FIELDS), limit, depth)
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


def _read_fields(
    raw: bytes, pos: int, limit: int, depth: int, plan: Plan,
    at: int = 0, kwargs: dict | None = None,
) -> tuple[Any, int]:
    """``plan``'s message from the field map at ``pos``, key by key (from
    ``at``, holding ``kwargs``, when a compiled reader hands it over): unknown
    keys read and dropped, repeats overwritten, absent fields defaulted."""
    try:
        end = pos + 4 + _unpack_ulong(raw, pos)[0]
        if not pos + 8 <= end <= limit:
            raise ValueError("field map truncated or too short")
        if depth == 0:
            raise ValueError(f"containers nested deeper than {MAX_PARSE_DEPTH}")
        depth -= 1
        kwargs = kwargs or {}
        left, pos = _unpack_ulong(raw, pos + 4)[0] - len(kwargs), at or pos + 8
        for _ in range(left):
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


def _field_kind(hint: Any) -> tuple[str, bytes, str, str]:
    """(kind, tag, encode, decode) for a field hinted ``hint``: the atom it
    names, ``None`` or anything (``auth``'s unions), or anything."""
    if hint in _ATOMS:
        return ("atom", *_ATOMS[hint])
    if typing.get_origin(hint) in (typing.Union, types.UnionType) and (
        type(None) in typing.get_args(hint)
    ):
        return ("none", b"N", "", "")
    return ("any", b"", "", "")


_WRITE = {  # per field kind; ``k`` is the key item, ``t`` it with the tag
    "atom": """
    v = o.{name}
    if type(v) is {atom}:
        b = {encode}
        append(t{i} + pack_len(len(b)))
        append(b)
        size += {width} + 5 + len(b)
    else:
        append(k{i})
        size += {width} + write(v, pieces)""",
    "none": """
    v = o.{name}
    if v is None:
        append(t{i})
        size += {width} + 1
    else:
        append(k{i})
        size += {width} + write(v, pieces)""",
    "any": """
    append(k{i})
    size += {width} + write(o.{name}, pieces)""",
}
_READ = {  # per field kind; a field read whole moves ``p`` and ``i`` on
    "atom": """
        a = {width} + 5 + p
        if a > end or not raw.startswith(t{i}, p): raise Deviation
        e = a + unpack(raw, a - 4)[0]
        if e > end: raise Deviation
        v{i}, p, i = {decode}, e, {i} + 1""",
    "none": """
        if raw.startswith(t{i}, p):
            v{i}, p, i = None, {width} + 1 + p, {i} + 1
        elif raw.startswith(k{i}, p):
            v{i}, p = read(raw, p + {width}, limit, inner)
            v{i}, i = {coerced}, {i} + 1
        else: raise Deviation""",
    "any": """
        if not raw.startswith(k{i}, p): raise Deviation
        v{i}, p = read(raw, p + {width}, limit, inner)
        v{i}, i = {coerced}, {i} + 1""",
}


def _compile(
    plan: Plan, role: str, template: str, fields: dict[str, str], scope: dict[str, Any]
) -> Callable:
    """``<role>_<name>``, which ``template`` defines for ``plan``, one ``fields``
    entry per field; charged to this file, so a profiler counts its time here."""
    lines = []
    for i, (key, name, coerce) in enumerate(plan.wire_keys):
        kind, tag, encode, decode = _field_kind(hint := plan.hints[name])
        scope.update({f"k{i}": key, f"t{i}": key + tag, f"c{i}": coerce})
        lines.append(fields[kind].format(
            i=i, name=name, width=len(key), atom=getattr(hint, "__name__", ""), encode=encode,
            decode=decode, coerced=f"c{i}(v{i})" if coerce else f"v{i}",
        ))
    names = [name for _, name, _ in plan.wire_keys]
    values = [f"v{i}" for i in range(len(names))]
    function = f"{role}_{plan.name}"
    source = template.format(
        function=function, name=plan.name, fields="".join(lines), head=len(plan.wire_head),
        count=len(values), values=", ".join(values), unset=" = ".join([*values, "None"]),
        kwargs=", ".join(map("{}={}".format, names, values)),
    )
    exec(compile(source, __file__, "exec"), scope)  # noqa: S102 - names, constants
    return scope[function]


def _compile_writer(plan: Plan) -> Callable[[Any, list[bytes]], int]:
    """``plan``'s writer: the head, then per field the key item and value,
    laid inline when the hint names it, else through :func:`_write`."""
    head = plan.wire_head
    return _compile(plan, "write", """
def {function}(o, pieces):
    append = pieces.append
    slot = len(pieces)
    append(b'')
    size = 4{fields}
    pieces[slot] = pack_head(b'M', 9 + {head} + size, middle, size, count)
    return 14 + {head} + size
""", _WRITE, {
        "write": _write, "pack_len": _pack_ulong,
        # M <outer length> <2 items> head M <inner length> <field count>
        "pack_head": struct.Struct(f">cI{len(head) + 5}sI4s").pack,
        "middle": _pack_ulong(2) + head + b"M", "count": _pack_ulong(len(plan.wire_keys)),
    })


def _compile_reader(plan: Plan) -> Callable[[bytes, int, int, int], tuple[Any, int]]:
    """``plan``'s reader of the field map at ``pos``: the writer's layout
    inline; at the first deviation the map and the fields read so far go to
    :func:`_read_fields`, so no value is read twice (one pass, hostile or not)."""
    return _compile(plan, "read", """
def {function}(raw, pos, limit, depth):
    end = pos + 4 + unpack(raw, pos)[0]
    if not pos + 8 <= end <= limit or depth == 0 or unpack(raw, pos + 4)[0] != {count}:
        return read_fields(raw, pos, limit, depth, plan)
    inner, p, i = depth - 1, pos + 8, 0
    {unset}
    try:{fields}
        if p == end:
            return cls({kwargs}), end
    except Deviation:
        pass
    except (TypeError, ValueError) as exc:
        raise WireCodecError(f"cannot rebuild {name}: {{exc}}") from exc
    return read_fields(raw, pos, limit, depth, plan, p, dict(zip(names[:i], [{values}])))
""", _READ, {
        "unpack": _unpack_ulong, "read": _read, "read_fields": _read_fields, "cls": plan.cls,
        "plan": plan, "names": [name for _, name, _ in plan.wire_keys],
        "Deviation": _Deviation, "WireCodecError": WireCodecError,
    })


_WRITERS: dict[Plan, Callable[[Any, list[bytes]], int]] = {}
_READERS: dict[Plan, Callable[[bytes, int, int, int], tuple[Any, int]]] = {}


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
