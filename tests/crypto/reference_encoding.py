"""Reference canonical TLV coder: the oracle for ``repro.crypto.encoding``.

This is the original coder, verbatim: ``canonical_bytes`` recurses and
concatenates, ``_parse_one`` slices per atom. The product runs the one-pass
rewrite; ``test_encoding_reference.py`` fuzzes the two against each other
(equal bytes, equal exception types, equal accept/reject sets). The one
intended difference is nesting depth: this parser recurses until Python's
stack gives out, the product's stops at ``MAX_PARSE_DEPTH`` with a
``ValueError``.
"""

from __future__ import annotations

import math
import struct
from typing import Any

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_LIST = b"L"
_TAG_DICT = b"M"


def _length_prefixed(tag: bytes, body: bytes) -> bytes:
    return tag + struct.pack(">I", len(body)) + body


def canonical_bytes(value: Any) -> bytes:
    """Encode ``value`` into canonical bytes.

    Raises :class:`TypeError` for unsupported types and :class:`ValueError`
    for NaN floats (NaN != NaN would make signature verification ambiguous).
    Dataclass-style objects may participate by defining ``canonical_fields()``
    returning a dict.
    """
    if value is None:
        return _TAG_NONE
    # bool must be tested before int (bool is an int subclass).
    if value is True:
        return _TAG_TRUE
    if value is False:
        return _TAG_FALSE
    if isinstance(value, int):
        body = str(value).encode("ascii")
        return _length_prefixed(_TAG_INT, body)
    if isinstance(value, float):
        if math.isnan(value):
            raise ValueError("cannot canonically encode NaN")
        return _TAG_FLOAT + struct.pack(">d", value)
    if isinstance(value, str):
        return _length_prefixed(_TAG_STR, value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return _length_prefixed(_TAG_BYTES, bytes(value))
    if isinstance(value, (list, tuple)):
        body = b"".join(canonical_bytes(item) for item in value)
        return _length_prefixed(_TAG_LIST, struct.pack(">I", len(value)) + body)
    if isinstance(value, dict):
        parts = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"dict keys must be str, got {type(key).__name__}")
            parts.append(canonical_bytes(key))
            parts.append(canonical_bytes(value[key]))
        body = b"".join(parts)
        return _length_prefixed(_TAG_DICT, struct.pack(">I", len(value)) + body)
    fields_fn = getattr(value, "canonical_fields", None)
    if callable(fields_fn):
        fields = fields_fn()
        return canonical_bytes({"__type__": type(value).__name__, **fields})
    raise TypeError(f"cannot canonically encode {type(value).__name__}")


def parse_canonical(raw: bytes) -> Any:
    """Inverse of :func:`canonical_bytes` for the plain value universe.

    Objects encoded via ``canonical_fields()`` come back as dicts (including
    their ``__type__`` marker) — protocol layers re-hydrate those themselves.
    Raises :class:`ValueError` on malformed input or trailing bytes.
    """
    value, pos = _parse_one(raw, 0)
    if pos != len(raw):
        raise ValueError(f"trailing bytes after canonical value at {pos}")
    return value


def _parse_one(raw: bytes, pos: int) -> tuple[Any, int]:
    if pos >= len(raw):
        raise ValueError("truncated canonical value")
    tag = raw[pos : pos + 1]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_FLOAT:
        if pos + 8 > len(raw):
            raise ValueError("truncated float")
        (value,) = struct.unpack(">d", raw[pos : pos + 8])
        return value, pos + 8
    if tag not in (_TAG_INT, _TAG_STR, _TAG_BYTES, _TAG_LIST, _TAG_DICT):
        raise ValueError(f"unknown canonical tag {tag!r}")
    if pos + 4 > len(raw):
        raise ValueError("truncated length prefix")
    (length,) = struct.unpack(">I", raw[pos : pos + 4])
    pos += 4
    if pos + length > len(raw):
        raise ValueError("truncated canonical body")
    end = pos + length
    if tag == _TAG_INT:
        return int(raw[pos:end].decode("ascii")), end
    if tag == _TAG_STR:
        return raw[pos:end].decode("utf-8"), end
    if tag == _TAG_BYTES:
        return bytes(raw[pos:end]), end
    # list / dict: body = ulong count + concatenated items
    if length < 4:
        raise ValueError("container body too short")
    (count,) = struct.unpack(">I", raw[pos : pos + 4])
    cursor = pos + 4
    if tag == _TAG_LIST:
        items = []
        for _ in range(count):
            item, cursor = _parse_one(raw, cursor)
            items.append(item)
        if cursor != end:
            raise ValueError("list body length mismatch")
        return items, end
    mapping = {}
    for _ in range(count):
        key, cursor = _parse_one(raw, cursor)
        if not isinstance(key, str):
            raise ValueError("dict key is not a string")
        value, cursor = _parse_one(raw, cursor)
        mapping[key] = value
    if cursor != end:
        raise ValueError("dict body length mismatch")
    return mapping, end
