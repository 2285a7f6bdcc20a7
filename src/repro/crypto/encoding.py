"""Canonical serialisation of structured values.

Protocol messages must be signed, and signatures require a deterministic byte
representation. ``canonical_bytes`` implements a small tag-length-value
scheme over the JSON-ish value universe the protocols use: ``None``, bools,
ints, floats, strings, bytes, sequences, and string-keyed mappings (encoded
with sorted keys). Two structurally equal values always encode identically;
values of different types never collide (every atom is tagged).

Layout: ``N`` / ``T`` / ``F`` alone; ``D`` + 8-byte big-endian double;
``I`` / ``S`` / ``B`` + ulong length + body (decimal ASCII, UTF-8, raw);
``L`` / ``M`` + ulong length + ulong count + the items (a mapping's items are
key, value, key, value... in sorted key order).

Both directions are one pass: the encoder appends pieces to one list and
joins once, the parser walks integer offsets with ``unpack_from``; both are
fuzzed against the original coder (``tests/crypto/reference_encoding.py``).
"""

from __future__ import annotations

import math
import struct
from typing import Any

_pack_atom_head = struct.Struct(">cI").pack  # tag, body length
_pack_container_head = struct.Struct(">cII").pack  # tag, body length, count
_pack_float = struct.Struct(">cd").pack
_unpack_ulong = struct.Struct(">I").unpack_from
_unpack_double = struct.Struct(">d").unpack_from

#: Deepest container nesting ``parse_canonical`` accepts. The deepest value
#: the protocols build (NewViewMsg > view-change > prepared certificate >
#: batch) nests 15; a peer sending thousands gets a ``ValueError``.
MAX_PARSE_DEPTH = 96


def canonical_bytes(value: Any) -> bytes:
    """Encode ``value`` into canonical bytes.

    Raises :class:`TypeError` for unsupported types and :class:`ValueError`
    for NaN floats (NaN != NaN would make signature verification ambiguous).
    Dataclass-style objects may participate by defining ``canonical_fields()``
    returning a dict.
    """
    pieces: list[bytes] = []
    _emit(value, pieces)
    return b"".join(pieces)


def _emit(value: Any, pieces: list[bytes]) -> int:
    """Append ``value``'s encoding to ``pieces``; return its byte length.
    Exact types first; subclasses and the rest fall to the ``isinstance`` chain."""
    kind = type(value)
    if kind is str:
        tag, body = b"S", value.encode("utf-8")
    elif kind is bytes:
        tag, body = b"B", value
    elif kind is int:
        tag, body = b"I", str(value).encode("ascii")
    elif kind is dict:
        slot = len(pieces)
        pieces.append(b"")  # the header, once the items' sizes are known
        size = 4
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"dict keys must be str, got {type(key).__name__}")
            body = key.encode("utf-8")
            pieces.append(_pack_atom_head(b"S", len(body)))
            pieces.append(body)
            size += 5 + len(body) + _emit(value[key], pieces)
        pieces[slot] = _pack_container_head(b"M", size, len(value))
        return 5 + size
    elif kind is list or kind is tuple:
        slot = len(pieces)
        pieces.append(b"")
        size = 4
        for item in value:
            size += _emit(item, pieces)
        pieces[slot] = _pack_container_head(b"L", size, len(value))
        return 5 + size
    elif value is None or kind is bool:
        pieces.append(b"N" if value is None else b"T" if value else b"F")
        return 1
    elif isinstance(value, float):
        if math.isnan(value):
            raise ValueError("cannot canonically encode NaN")
        pieces.append(_pack_float(b"D", value))
        return 9
    elif isinstance(value, int):
        tag, body = b"I", str(value).encode("ascii")
    elif isinstance(value, str):
        tag, body = b"S", value.encode("utf-8")
    elif isinstance(value, (bytes, bytearray)):
        tag, body = b"B", bytes(value)
    elif isinstance(value, (list, tuple)):
        return _emit(list(value), pieces)
    elif isinstance(value, dict):
        return _emit(dict(value), pieces)
    elif callable(getattr(value, "canonical_fields", None)):
        fields = value.canonical_fields()
        return _emit({"__type__": type(value).__name__, **fields}, pieces)
    else:
        raise TypeError(f"cannot canonically encode {type(value).__name__}")
    pieces.append(_pack_atom_head(tag, len(body)))
    pieces.append(body)
    return 5 + len(body)


def parse_canonical(raw: bytes) -> Any:
    """Inverse of :func:`canonical_bytes` for the plain value universe.

    Objects encoded via ``canonical_fields()`` come back as dicts (including
    their ``__type__`` marker) — protocol layers re-hydrate those themselves.
    Raises :class:`ValueError` on malformed input, trailing bytes, or
    containers nested deeper than :data:`MAX_PARSE_DEPTH`.
    """
    value, pos = _parse_one(raw, 0, len(raw), MAX_PARSE_DEPTH)
    if pos != len(raw):
        raise ValueError(f"trailing bytes after canonical value at {pos}")
    return value


_TAG_S, _TAG_B, _TAG_I, _TAG_L, _TAG_D = b"SBILD"
_SINGLETONS = {ord("N"): None, ord("T"): True, ord("F"): False}


def _parse_one(raw: bytes, pos: int, limit: int, depth: int) -> tuple[Any, int]:
    """One value starting at ``pos``; ``limit`` is the end of the input and
    ``depth`` how many more container levels may open."""
    if pos >= limit:
        raise ValueError("truncated canonical value")
    tag = raw[pos]
    pos += 1
    if tag not in b"SBILM":
        if tag in _SINGLETONS:
            return _SINGLETONS[tag], pos
        if tag != _TAG_D:
            raise ValueError(f"unknown canonical tag {bytes((tag,))!r}")
        if pos + 8 > limit:
            raise ValueError("truncated float")
        return _unpack_double(raw, pos)[0], pos + 8
    if pos + 4 > limit:
        raise ValueError("truncated length prefix")
    end = pos + 4 + _unpack_ulong(raw, pos)[0]
    pos += 4
    if end > limit:
        raise ValueError("truncated canonical body")
    if tag == _TAG_S:
        return str(raw[pos:end], "utf-8"), end
    if tag == _TAG_B:
        return bytes(raw[pos:end]), end
    if tag == _TAG_I:
        return int(str(raw[pos:end], "ascii")), end
    # list / dict: body = ulong count + concatenated items
    if end - pos < 4:
        raise ValueError("container body too short")
    if depth == 0:
        raise ValueError(f"containers nested deeper than {MAX_PARSE_DEPTH}")
    depth -= 1
    count = _unpack_ulong(raw, pos)[0]
    pos += 4
    if tag == _TAG_L:
        items = []
        for _ in range(count):
            item, pos = _parse_one(raw, pos, limit, depth)
            items.append(item)
        if pos != end:
            raise ValueError("list body length mismatch")
        return items, end
    mapping = {}
    for _ in range(count):
        if pos + 5 <= limit and raw[pos] == _TAG_S:
            # Half of a message's atoms are field names: read them here
            # rather than through one more call.
            key_end = pos + 5 + _unpack_ulong(raw, pos + 1)[0]
            if key_end > limit:
                raise ValueError("truncated canonical body")
            key = str(raw[pos + 5 : key_end], "utf-8")
            pos = key_end
        else:
            key, pos = _parse_one(raw, pos, limit, depth)
            if type(key) is not str:
                raise ValueError("dict key is not a string")
        mapping[key], pos = _parse_one(raw, pos, limit, depth)
    if pos != end:
        raise ValueError("dict body length mismatch")
    return mapping, end
