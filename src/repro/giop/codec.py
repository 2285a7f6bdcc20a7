"""Compiled CDR codecs and per-operation message plans: the marshal/vote path.

ITDOS votes on *unmarshalled* data (§3.6), so every request is CDR-encoded
once per sender and decoded ``3f+1`` times in the voters — marshalling, not
the ordering protocol, dominates once batching has amortized the quorum
traffic (Chondros et al. make the same observation about real PBFT
deployments). An interpreted coder walks the TypeCode tree recursively
and issues one ``struct.pack``/``unpack`` per field; this module compiles a
TypeCode tree **once** into a codec plan and reuses it for every value:

* contiguous runs of fixed-size primitives — across struct nesting
  boundaries — collapse into a single precomputed :class:`struct.Struct`,
  with CDR alignment padding baked into the format as ``x`` pad bytes
  (one format per entry phase mod 8, both byte orders);
* sequences of fixed-size elements encode/decode through one bulk
  ``pack``/``unpack_from`` call instead of one call per element;
* variable parts (strings, nested sequences) become dedicated plan ops;
* decode is **zero-copy**: a :class:`memoryview` cursor with
  ``struct.unpack_from``, never ``bytes(data)`` up front;
* encode appends to the caller's ``bytearray``, aligned relative to where
  the CDR stream starts in it, so a GIOP message is one buffer.

Codecs are cached per process, keyed on TypeCode identity (the cache pins
the TypeCode, so ``id`` reuse cannot alias entries). Receiver-makes-right
is preserved: each plan precompiles both byte orders. The compiler covers
every :class:`~repro.giop.typecodes.TypeCode` class and primitive kind; an
unknown TypeCode raises :class:`CdrError`.

:class:`OperationPlan` lays one IDL operation out for
:mod:`repro.giop.messages` (constant name bytes, body codecs); the
repository builds one per operation at registration. The recursive coder
lives in the tests (``tests/giop/reference_cdr.py``) as the reference these
are fuzzed against.
"""

from __future__ import annotations

import struct
from operator import itemgetter as _itemgetter
from typing import Any, Callable

from repro.giop.typecodes import (
    TC_VOID,
    EnumType,
    PrimitiveType,
    SequenceType,
    StructType,
    TypeCode,
)


class CdrError(Exception):
    """Malformed CDR stream or value/TypeCode mismatch during coding."""


# kind -> (struct format char, wire size, CDR natural alignment)
_FIXED_LEAVES = {
    "octet": ("B", 1, 1),
    "boolean": ("B", 1, 1),
    "short": ("h", 2, 2),
    "ushort": ("H", 2, 2),
    "long": ("i", 4, 4),
    "ulong": ("I", 4, 4),
    "longlong": ("q", 8, 8),
    "ulonglong": ("Q", 8, 8),
    "float": ("f", 4, 4),
    "double": ("d", 8, 8),
}

_PACK_ERRORS = (struct.error, OverflowError, TypeError, ValueError)


def _bool_dec(raw: int) -> bool:
    if raw not in (0, 1):
        raise CdrError(f"invalid boolean octet {raw}")
    return bool(raw)


def _enum_convs(tc: EnumType) -> tuple[Callable, Callable]:
    ordinals = {label: i for i, label in enumerate(tc.labels)}
    labels = tc.labels

    def enc(value: Any) -> int:
        try:
            return ordinals[value]
        except (KeyError, TypeError):
            raise CdrError(f"{value!r} is not a label of enum {tc.name}") from None

    def dec(raw: int) -> str:
        if 0 <= raw < len(labels):
            return labels[raw]
        raise CdrError(f"ordinal {raw} out of range for enum {tc.name}")

    return enc, dec


# -- flat value model -----------------------------------------------------------
#
# A plan works on a *flat* value list: one slot per non-struct node of the
# TypeCode tree, in depth-first field order. Encode flattens the nested
# value once, then each op consumes its slots; decode runs the ops to fill
# the flat list, then one prebuilt constructor re-nests it.


def _flattener_for(tc: TypeCode) -> Callable[[Any, list], None]:
    if isinstance(tc, StructType):
        width = len(tc.fields)
        if not any(isinstance(ftc, StructType) for _n, ftc in tc.fields):
            # All-leaf struct: one C-level itemgetter per value. (The width
            # check is what rejects extra keys; itemgetter catches missing.)
            if width == 1:
                (name, _ftc), = tc.fields

                def flatten_one(value: Any, out: list) -> None:
                    if len(value) != 1:
                        raise CdrError(f"struct {tc.name} expects 1 field")
                    out.append(value[name])

                return flatten_one
            getter = _itemgetter(*(name for name, _ftc in tc.fields))

            def flatten_leaves(value: Any, out: list) -> None:
                if len(value) != width:
                    raise CdrError(f"struct {tc.name} expects {width} fields")
                out += getter(value)

            return flatten_leaves
        subs = tuple((name, _flattener_for(ftc)) for name, ftc in tc.fields)

        def flatten(value: Any, out: list) -> None:
            if len(value) != width:
                raise CdrError(f"struct {tc.name} expects {width} fields")
            for name, fn in subs:
                fn(value[name], out)

        return flatten
    return lambda value, out: out.append(value)


def _builder_for(tc: TypeCode) -> tuple[int, Callable[[Any, int], Any]]:
    if isinstance(tc, StructType):
        if not any(isinstance(ftc, StructType) for _n, ftc in tc.fields):
            names = tuple(name for name, _ftc in tc.fields)
            width = len(names)

            def build_leaves(flat: Any, i: int) -> dict:
                return dict(zip(names, flat[i : i + width]))

            return width, build_leaves
        parts = []
        total = 0
        for name, ftc in tc.fields:
            count, fn = _builder_for(ftc)
            parts.append((name, count, fn))
            total += count
        subs = tuple(parts)

        def build(flat: Any, i: int) -> dict:
            value = {}
            for name, count, fn in subs:
                value[name] = fn(flat, i)
                i += count
            return value

        return total, build
    return 1, (lambda flat, i: flat[i])


# -- plan ops ------------------------------------------------------------------


class _Segment:
    """A contiguous run of fixed-size primitives as one Struct per phase.

    CDR alignment is relative to the encapsulation start, so the padding
    inside a run depends only on the run's entry offset mod 8 (every CDR
    alignment divides 8). The run is compiled once per phase and byte
    order, with padding baked in as ``x`` bytes.
    """

    __slots__ = ("start", "count", "enc_convs", "dec_convs", "checks", "units",
                 "sizes", "structs", "stable")

    def __init__(self, leaves: list[tuple], start: int) -> None:
        self.start = start
        self.count = len(leaves)
        self.enc_convs = tuple(
            (i, conv) for i, (_c, _s, _a, conv, _d, _k) in enumerate(leaves) if conv
        )
        self.dec_convs = tuple(
            (i, conv) for i, (_c, _s, _a, _e, conv, _k) in enumerate(leaves) if conv
        )
        # Value checks mirroring TypeCode.validate that struct.pack alone
        # would miss: booleans must be bool, numbers must not be (pack
        # happily coerces bool both ways).
        self.checks = tuple(
            (i, check == "bool")
            for i, (_c, _s, _a, _e, _d, check) in enumerate(leaves)
            if check
        )
        units = []
        sizes = []
        for phase in range(8):
            pos = phase
            body = []
            for char, size, align, _enc, _dec, _check in leaves:
                pad = -pos % align
                if pad:
                    body.append("x" * pad)
                body.append(char)
                pos += pad + size
            units.append("".join(body))
            sizes.append(pos - phase)
        self.units = tuple(units)
        self.sizes = tuple(sizes)
        self.structs = (
            tuple(struct.Struct(">" + unit) for unit in units),
            tuple(struct.Struct("<" + unit) for unit in units),
        )
        # The run "repeats" at phase p when encoding it lands back on a
        # phase with the identical layout — the bulk-sequence fast path.
        self.stable = tuple(
            units[(p + sizes[p]) % 8] == units[p] for p in range(8)
        )

    def encode(self, buf: bytearray, flat: list, order: int, origin: int) -> None:
        values = flat[self.start : self.start + self.count]
        for i, must_be_bool in self.checks:
            if (type(values[i]) is bool) is not must_be_bool:
                raise CdrError(
                    f"{'boolean' if must_be_bool else 'number'} expected, "
                    f"got {values[i]!r}"
                )
        for i, conv in self.enc_convs:
            values[i] = conv(values[i])
        packer = self.structs[order][(len(buf) - origin) % 8]
        try:
            buf += packer.pack(*values)
        except _PACK_ERRORS as exc:
            raise CdrError(f"cannot pack value run: {exc}") from exc

    def decode(self, view: memoryview, pos: int, flat: list, order: int) -> int:
        packer = self.structs[order][pos % 8]
        size = packer.size
        if pos + size > len(view):
            raise CdrError(
                f"truncated stream: need {size} bytes at offset {pos}, "
                f"have {len(view) - pos}"
            )
        values = packer.unpack_from(view, pos)
        if self.dec_convs:
            values = list(values)
            for i, conv in self.dec_convs:
                values[i] = conv(values[i])
        flat.extend(values)
        return pos + size


class _VoidOp:
    """``void`` occupies a flat slot but zero wire bytes."""

    __slots__ = ("slot",)

    def __init__(self, slot: int) -> None:
        self.slot = slot

    def encode(self, buf: bytearray, flat: list, order: int, origin: int) -> None:
        if flat[self.slot] is not None:
            raise CdrError(f"void must be None, got {flat[self.slot]!r}")

    def decode(self, view: memoryview, pos: int, flat: list, order: int) -> int:
        flat.append(None)
        return pos


class _StringOp:
    """Length-prefixed, NUL-terminated UTF-8 string."""

    __slots__ = ("slot",)

    def __init__(self, slot: int) -> None:
        self.slot = slot

    def encode(self, buf: bytearray, flat: list, order: int, origin: int) -> None:
        buf += b"\x00" * ((origin - len(buf)) % 4) + cdr_string(flat[self.slot], order)

    def decode(self, view: memoryview, pos: int, flat: list, order: int) -> int:
        value, pos = read_string(view, pos, order)
        flat.append(value)
        return pos


def cdr_string(value: Any, order: int) -> bytes:
    """``value`` as a CDR string: ulong length, UTF-8, NUL (no leading pad)."""
    if not isinstance(value, str):
        raise CdrError(f"cannot pack {value!r} as string")
    encoded = value.encode("utf-8")
    return (len(encoded) + 1).to_bytes(4, "big" if order == 0 else "little") + encoded + b"\x00"


def read_string(view: Any, pos: int, order: int) -> tuple[str, int]:
    """The CDR string at ``pos`` (4-aligned first) and the offset past it."""
    pos += -pos % 4 + 4
    if pos > len(view):
        raise CdrError(
            f"truncated stream: need a string length at offset {pos - 4}, "
            f"have {max(len(view) - pos + 4, 0)}"
        )
    length = int.from_bytes(view[pos - 4 : pos], "big" if order == 0 else "little")
    if length < 1:
        raise CdrError("string missing NUL terminator")
    if pos + length > len(view):
        raise CdrError(
            f"truncated stream: need {length} bytes at offset {pos}, "
            f"have {len(view) - pos}"
        )
    raw = view[pos : pos + length]
    if raw[length - 1] != 0:
        raise CdrError("string not NUL-terminated")
    try:
        return str(raw[: length - 1], "utf-8"), pos + length
    except UnicodeDecodeError as exc:
        raise CdrError("invalid UTF-8 in string") from exc


def _read_align(view: memoryview, pos: int, align: int) -> int:
    pad = -pos % align
    if pad:
        if pos + pad > len(view):
            raise CdrError(
                f"truncated stream: need {pad} padding byte(s) at offset {pos}, "
                f"have {len(view) - pos}"
            )
        pos += pad
    return pos


def _read_ulong(view: memoryview, pos: int, order: int) -> int:
    if pos + 4 > len(view):
        raise CdrError(
            f"truncated stream: need 4 bytes at offset {pos}, "
            f"have {len(view) - pos}"
        )
    return int.from_bytes(view[pos : pos + 4], "big" if order == 0 else "little")


class _BulkSeqOp:
    """Sequence of one fixed-size primitive: a single bulk pack/unpack."""

    __slots__ = ("slot", "char", "size", "align", "enc_conv", "dec_conv",
                 "bound", "kind")

    def __init__(self, slot: int, element: TypeCode, bound: int | None) -> None:
        self.slot = slot
        self.bound = bound
        if isinstance(element, EnumType):
            self.char, self.size, self.align = "I", 4, 4
            self.enc_conv, self.dec_conv = _enum_convs(element)
            self.kind = "enum"
        else:
            self.char, self.size, self.align = _FIXED_LEAVES[element.kind]
            self.enc_conv = self.dec_conv = None
            self.kind = element.kind

    def encode(self, buf: bytearray, flat: list, order: int, origin: int) -> None:
        value = flat[self.slot]
        if not isinstance(value, (list, tuple)):
            raise CdrError(f"cannot pack {value!r} as sequence")
        n = len(value)
        if self.bound is not None and n > self.bound:
            raise CdrError(f"sequence length {n} exceeds bound {self.bound}")
        pad = (origin - len(buf)) % 4
        buf += b"\x00" * pad + n.to_bytes(4, "big" if order == 0 else "little")
        if not n:
            return
        buf += b"\x00" * ((origin - len(buf)) % self.align)
        if self.kind == "boolean":
            if any(type(item) is not bool for item in value):
                raise CdrError("boolean sequence requires bool elements")
        elif self.enc_conv is None and any(type(item) is bool for item in value):
            raise CdrError(f"sequence of {self.kind} rejects bool elements")
        try:
            if self.size == 1:  # octet / boolean: raw byte run
                buf += bytes(value)
            elif self.enc_conv is not None:
                conv = self.enc_conv
                buf += struct.pack(
                    (">" if order == 0 else "<") + str(n) + self.char,
                    *[conv(item) for item in value],
                )
            else:
                buf += struct.pack(
                    (">" if order == 0 else "<") + str(n) + self.char, *value
                )
        except _PACK_ERRORS as exc:
            raise CdrError(f"cannot pack sequence of {self.kind}: {exc}") from exc

    def decode(self, view: memoryview, pos: int, flat: list, order: int) -> int:
        pos = _read_align(view, pos, 4)
        n = _read_ulong(view, pos, order)
        pos += 4
        if self.bound is not None and n > self.bound:
            raise CdrError(f"sequence length {n} exceeds bound {self.bound}")
        if not n:
            flat.append([])
            return pos
        pos = _read_align(view, pos, self.align)
        need = n * self.size
        if pos + need > len(view):
            raise CdrError(
                f"truncated stream: need {need} bytes at offset {pos}, "
                f"have {len(view) - pos}"
            )
        if self.kind == "octet":
            flat.append(list(view[pos : pos + need]))
        elif self.kind == "boolean":
            flat.append([_bool_dec(raw) for raw in view[pos : pos + need]])
        else:
            values = struct.unpack_from(
                (">" if order == 0 else "<") + str(n) + self.char, view, pos
            )
            conv = self.dec_conv
            if conv is not None:
                flat.append([conv(raw) for raw in values])
            else:
                flat.append(list(values))
        return pos + need


class _LoopSeqOp:
    """Sequence of compound elements, via the element's compiled plan.

    When the element is purely fixed-size and its run layout repeats
    (phase-stable), the whole tail of the sequence collapses into a single
    repeated-unit pack/unpack; otherwise elements go one compiled plan at
    a time — still far cheaper than interpretation.
    """

    __slots__ = ("slot", "element", "bound")

    def __init__(self, slot: int, element: "CompiledCodec", bound: int | None) -> None:
        self.slot = slot
        self.element = element
        self.bound = bound

    def encode(self, buf: bytearray, flat: list, order: int, origin: int) -> None:
        value = flat[self.slot]
        if not isinstance(value, (list, tuple)):
            raise CdrError(f"cannot pack {value!r} as sequence")
        n = len(value)
        if self.bound is not None and n > self.bound:
            raise CdrError(f"sequence length {n} exceeds bound {self.bound}")
        pad = (origin - len(buf)) % 4
        buf += b"\x00" * pad + n.to_bytes(4, "big" if order == 0 else "little")
        element = self.element
        seg = element.single_segment
        bulk = seg is not None and not seg.enc_convs
        i = 0
        while i < n:
            if bulk and n - i > 1:
                phase = (len(buf) - origin) % 8
                if seg.stable[phase]:
                    flat_tail: list = []
                    flatten = element.flatten
                    for item in value[i:]:
                        flatten(item, flat_tail)
                    # seg.checks guard what struct.pack coerces silently
                    # (bool-vs-number); the per-element encode runs them in
                    # _Segment.encode, so the bulk path must too or reject
                    # parity with the interpreted encoder breaks.
                    for j, must_be_bool in seg.checks:
                        for k in range(j, len(flat_tail), seg.count):
                            v = flat_tail[k]
                            if (type(v) is bool) is not must_be_bool:
                                raise CdrError(
                                    f"{'boolean' if must_be_bool else 'number'} "
                                    f"expected, got {v!r}"
                                )
                    try:
                        buf += struct.pack(
                            (">" if order == 0 else "<") + seg.units[phase] * (n - i),
                            *flat_tail,
                        )
                    except _PACK_ERRORS as exc:
                        raise CdrError(f"cannot pack sequence run: {exc}") from exc
                    return
            element.encode_value_into(buf, value[i], order, origin)
            i += 1

    def decode(self, view: memoryview, pos: int, flat: list, order: int) -> int:
        pos = _read_align(view, pos, 4)
        n = _read_ulong(view, pos, order)
        pos += 4
        if self.bound is not None and n > self.bound:
            raise CdrError(f"sequence length {n} exceeds bound {self.bound}")
        element = self.element
        seg = element.single_segment
        bulk = seg is not None and not seg.dec_convs
        out: list = []
        i = 0
        while i < n:
            if bulk and n - i > 1:
                phase = pos % 8
                if seg.stable[phase]:
                    remaining = n - i
                    need = seg.sizes[phase] * remaining
                    if pos + need > len(view):
                        raise CdrError(
                            f"truncated stream: need {need} bytes at offset "
                            f"{pos}, have {len(view) - pos}"
                        )
                    values = struct.unpack_from(
                        (">" if order == 0 else "<") + seg.units[phase] * remaining,
                        view,
                        pos,
                    )
                    count, build = element.count, element.build
                    out.extend(build(values, k * count) for k in range(remaining))
                    pos += need
                    break
            item, pos = element.decode_value(view, pos, order)
            out.append(item)
            i += 1
        flat.append(out)
        return pos


# -- the compiled codec ---------------------------------------------------------


class CompiledCodec:
    """One TypeCode's codec plan: flatten → ops → (re)build."""

    __slots__ = ("tc", "parts", "flatten", "build", "count", "single_segment")

    def __init__(self, tc: TypeCode) -> None:
        self.tc = tc
        items: list[tuple[str, Any]] = []
        _scan(tc, items)
        parts: list[Any] = []
        run: list[tuple] = []
        slot = 0
        run_start = 0
        for kind, payload in items:
            if kind == "fixed":
                if not run:
                    run_start = slot
                run.append(payload)
                slot += 1
                continue
            if run:
                parts.append(_Segment(run, run_start))
                run = []
            if kind == "string":
                parts.append(_StringOp(slot))
            elif kind == "void":
                parts.append(_VoidOp(slot))
            else:  # sequence
                seq_tc: SequenceType = payload
                element = seq_tc.element
                if isinstance(element, EnumType) or (
                    isinstance(element, PrimitiveType)
                    and element.kind in _FIXED_LEAVES
                ):
                    parts.append(_BulkSeqOp(slot, element, seq_tc.bound))
                else:
                    parts.append(
                        _LoopSeqOp(slot, compile_codec(element), seq_tc.bound)
                    )
            slot += 1
        if run:
            parts.append(_Segment(run, run_start))
        self.parts = tuple(parts)
        self.flatten = _flattener_for(tc)
        self.count, self.build = _builder_for(tc)
        self.single_segment = (
            parts[0]
            if len(parts) == 1
            and isinstance(parts[0], _Segment)
            and parts[0].count == self.count
            else None
        )

    def encode_value_into(self, buf: bytearray, value: Any, order: int, origin: int = 0) -> None:
        """Append ``value``, aligned relative to where the stream starts in ``buf``."""
        flat: list = []
        try:
            self.flatten(value, flat)
        except (KeyError, TypeError, AttributeError) as exc:
            raise CdrError(f"value does not match {self.tc!r}: {exc}") from exc
        for part in self.parts:
            part.encode(buf, flat, order, origin)

    def decode_value(self, view: memoryview, pos: int, order: int) -> tuple[Any, int]:
        flat: list = []
        for part in self.parts:
            pos = part.decode(view, pos, flat, order)
        return self.build(flat, 0), pos


def _scan(tc: TypeCode, items: list) -> None:
    """Flatten the TypeCode tree into plan items, one per flat slot."""
    if isinstance(tc, StructType):
        for _name, field_tc in tc.fields:
            _scan(field_tc, items)
        return
    if isinstance(tc, EnumType):
        enc, dec = _enum_convs(tc)
        items.append(("fixed", ("I", 4, 4, enc, dec, None)))
        return
    if isinstance(tc, SequenceType):
        items.append(("seq", tc))
        return
    if isinstance(tc, PrimitiveType):
        kind = tc.kind
        leaf = _FIXED_LEAVES.get(kind)
        if leaf is not None:
            char, size, align = leaf
            dec = _bool_dec if kind == "boolean" else None
            check = "bool" if kind == "boolean" else "notbool"
            items.append(("fixed", (char, size, align, None, dec, check)))
            return
        if kind == "string":
            items.append(("string", None))
            return
        if kind == "void":
            items.append(("void", None))
            return
    raise CdrError(f"no codec plan for TypeCode {tc!r}")


# -- codec cache ----------------------------------------------------------------

# id(tc) -> (tc, codec). The entry pins the TypeCode so its id can never be
# recycled onto a different object while cached.
_CODEC_CACHE: dict[int, tuple[TypeCode, "CompiledCodec"]] = {}
_CACHE_LIMIT = 4096
_CACHE_STATS = {"hits": 0, "misses": 0, "compiled": 0, "evictions": 0}


def compile_codec(tc: TypeCode) -> CompiledCodec:
    """The compiled codec for ``tc``; CdrError for an unknown TypeCode."""
    entry = _CODEC_CACHE.get(id(tc))
    if entry is not None:
        _CACHE_STATS["hits"] += 1
        return entry[1]
    _CACHE_STATS["misses"] += 1
    codec = CompiledCodec(tc)
    _CACHE_STATS["compiled"] += 1
    if len(_CODEC_CACHE) >= _CACHE_LIMIT:
        # Deployed repositories hold a few dozen TypeCodes; only test
        # fuzzers mint thousands. Wholesale reset keeps memory bounded.
        _CODEC_CACHE.clear()
        _CACHE_STATS["evictions"] += 1
    _CODEC_CACHE[id(tc)] = (tc, codec)
    return codec


def codec_cache_stats() -> dict[str, float]:
    total = _CACHE_STATS["hits"] + _CACHE_STATS["misses"]
    return {
        "size": float(len(_CODEC_CACHE)),
        "hit_rate": _CACHE_STATS["hits"] / total if total else 0.0,
        **{k: float(v) for k, v in _CACHE_STATS.items()},
    }


def clear_codec_cache() -> None:
    _CODEC_CACHE.clear()
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0


# -- operation plans -------------------------------------------------------------


class OperationPlan:
    """One IDL operation's GIOP message plan, laid out once per byte order.

    ``names[order]`` is the constant tail of a request or reply preamble:
    the operation string, its pad to 4 and the interface string, as CDR
    bytes. ``keys[order]`` is the same two strings without the pad — the
    exact bytes a message carries, and so the key a receiver looks the plan
    up by (the pad is never read). ``params`` and ``result`` are the body
    codecs from :func:`compile_codec`; ``result`` is None for ``void``.
    """

    __slots__ = ("interface_name", "operation", "op", "names", "keys", "params", "result")

    def __init__(self, interface_name: str, op: Any) -> None:
        self.interface_name = interface_name
        self.operation = op.name
        self.op = op
        self.keys = tuple(
            (cdr_string(op.name, order), cdr_string(interface_name, order))
            for order in (0, 1)
        )
        self.names = tuple(
            operation + b"\x00" * (-len(operation) % 4) + interface
            for operation, interface in self.keys
        )
        self.params = tuple(compile_codec(param.tc) for param in op.params)
        self.result = None if op.result is TC_VOID else compile_codec(op.result)
