"""The reference Common Data Representation coder: a TypeCode tree walker.

The product marshals through the compiled plans of :mod:`repro.giop.codec`;
this interpreted coder is the oracle they are fuzzed against
(``test_codec_equivalence.py``, ``test_messages_reference.py``).

CDR's two defining features, both faithfully implemented:

* **Receiver-makes-right byte order** — the sender marshals in its native
  order and flags it in the GIOP header; the receiver adapts. This is why
  two heterogeneous replicas produce different bytes for the same values,
  and why ITDOS must vote above the marshalling layer (§3.6).
* **Natural alignment** — every primitive is aligned to its size relative
  to the start of the encapsulation, with padding octets inserted.

Floats use IEEE 754 single/double wire format via :mod:`struct`.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.giop.codec import CdrError
from repro.giop.typecodes import (
    EnumType,
    SequenceType,
    StructType,
    TypeCode,
    TypeCodeError,
)


_INT_FORMATS = {
    "octet": ("B", 1),
    "boolean": ("B", 1),
    "short": ("h", 2),
    "ushort": ("H", 2),
    "long": ("i", 4),
    "ulong": ("I", 4),
    "longlong": ("q", 8),
    "ulonglong": ("Q", 8),
}
_FLOAT_FORMATS = {"float": ("f", 4), "double": ("d", 8)}


class CdrEncoder:
    """Append-only CDR output stream."""

    def __init__(self, byte_order: str = "big") -> None:
        if byte_order not in ("big", "little"):
            raise ValueError("byte_order must be 'big' or 'little'")
        self.byte_order = byte_order
        self._prefix = ">" if byte_order == "big" else "<"
        self._buffer = bytearray()

    def _align(self, size: int) -> None:
        remainder = len(self._buffer) % size
        if remainder:
            self._buffer.extend(b"\x00" * (size - remainder))

    def write_raw(self, data: bytes) -> None:
        """Unaligned raw octets (used for already-encoded bodies)."""
        self._buffer.extend(data)

    def write_primitive(self, kind: str, value: Any) -> None:
        if kind in _INT_FORMATS:
            fmt, size = _INT_FORMATS[kind]
            self._align(size)
            raw = int(value) if kind == "boolean" else value
            try:
                self._buffer.extend(struct.pack(self._prefix + fmt, raw))
            except struct.error as exc:
                raise CdrError(f"cannot pack {value!r} as {kind}") from exc
            return
        if kind in _FLOAT_FORMATS:
            fmt, size = _FLOAT_FORMATS[kind]
            self._align(size)
            try:
                self._buffer.extend(struct.pack(self._prefix + fmt, float(value)))
            except (struct.error, OverflowError) as exc:
                raise CdrError(f"cannot pack {value!r} as {kind}") from exc
            return
        if kind == "string":
            encoded = value.encode("utf-8") + b"\x00"
            self.write_primitive("ulong", len(encoded))
            self._buffer.extend(encoded)
            return
        if kind == "void":
            return
        raise CdrError(f"unknown primitive kind {kind}")  # pragma: no cover

    def write_octets(self, data: bytes) -> None:
        """Length-prefixed octet sequence."""
        self.write_primitive("ulong", len(data))
        self._buffer.extend(data)

    def encode(self, tc: TypeCode, value: Any) -> None:
        """Marshal ``value`` per TypeCode ``tc`` (validates first)."""
        try:
            tc.validate(value)
        except TypeCodeError as exc:
            raise CdrError(str(exc)) from exc
        self._encode_unchecked(tc, value)

    def _encode_unchecked(self, tc: TypeCode, value: Any) -> None:
        if isinstance(tc, SequenceType):
            self.write_primitive("ulong", len(value))
            for item in value:
                self._encode_unchecked(tc.element, item)
            return
        if isinstance(tc, StructType):
            for field_name, field_tc in tc.fields:
                self._encode_unchecked(field_tc, value[field_name])
            return
        if isinstance(tc, EnumType):
            self.write_primitive("ulong", tc.ordinal(value))
            return
        self.write_primitive(tc.kind, value)

    def getvalue(self) -> bytes:
        return bytes(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)


class CdrDecoder:
    """Cursor over a CDR stream; mirrors :class:`CdrEncoder`."""

    def __init__(self, data: bytes, byte_order: str = "big") -> None:
        if byte_order not in ("big", "little"):
            raise ValueError("byte_order must be 'big' or 'little'")
        self.byte_order = byte_order
        self._prefix = ">" if byte_order == "big" else "<"
        self._data = bytes(data)
        self._pos = 0

    def _align(self, size: int) -> None:
        remainder = self._pos % size
        if remainder:
            pad = size - remainder
            if self._pos + pad > len(self._data):
                raise CdrError(
                    f"truncated stream: need {pad} padding byte(s) at offset "
                    f"{self._pos}, have {len(self._data) - self._pos}"
                )
            self._pos += pad

    def _take(self, size: int) -> bytes:
        if self._pos + size > len(self._data):
            raise CdrError(
                f"truncated stream: need {size} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        chunk = self._data[self._pos : self._pos + size]
        self._pos += size
        return chunk

    def read_primitive(self, kind: str) -> Any:
        if kind in _INT_FORMATS:
            fmt, size = _INT_FORMATS[kind]
            self._align(size)
            (raw,) = struct.unpack(self._prefix + fmt, self._take(size))
            if kind == "boolean":
                if raw not in (0, 1):
                    raise CdrError(f"invalid boolean octet {raw}")
                return bool(raw)
            return raw
        if kind in _FLOAT_FORMATS:
            fmt, size = _FLOAT_FORMATS[kind]
            self._align(size)
            (raw,) = struct.unpack(self._prefix + fmt, self._take(size))
            return raw
        if kind == "string":
            length = self.read_primitive("ulong")
            if length < 1:
                raise CdrError("string missing NUL terminator")
            raw = self._take(length)
            if raw[-1] != 0:
                raise CdrError("string not NUL-terminated")
            try:
                return raw[:-1].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CdrError("invalid UTF-8 in string") from exc
        if kind == "void":
            return None
        raise CdrError(f"unknown primitive kind {kind}")  # pragma: no cover

    def read_octets(self) -> bytes:
        length = self.read_primitive("ulong")
        return self._take(length)

    def decode(self, tc: TypeCode) -> Any:
        if isinstance(tc, SequenceType):
            length = self.read_primitive("ulong")
            if tc.bound is not None and length > tc.bound:
                raise CdrError(f"sequence length {length} exceeds bound {tc.bound}")
            return [self.decode(tc.element) for _ in range(length)]
        if isinstance(tc, StructType):
            return {
                field_name: self.decode(field_tc)
                for field_name, field_tc in tc.fields
            }
        if isinstance(tc, EnumType):
            return tc.label(self.read_primitive("ulong"))
        return self.read_primitive(tc.kind)

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def at_end(self) -> bool:
        return self._pos >= len(self._data)
