"""Unit tests for the compiled codec layer (plan shapes, cache).

The compiled plans are driven through the ``FastEncoder``/``FastDecoder``
shells of the reference message coder, which hold them to the interpreted
``CdrEncoder``/``CdrDecoder`` API."""

import pytest

from repro.giop.codec import (
    CompiledCodec,
    clear_codec_cache,
    codec_cache_stats,
    compile_codec,
)
from repro.giop.idl import InterfaceDef, InterfaceRepository, Operation, Parameter
from repro.giop.messages import (
    GiopError,
    decode_message,
    encode_request,
    peek_request_header,
)
from repro.giop.typecodes import (
    TC_BOOLEAN,
    TC_DOUBLE,
    TC_FLOAT,
    TC_LONG,
    TC_LONGLONG,
    TC_OCTET,
    TC_SHORT,
    TC_STRING,
    TC_ULONG,
    TC_VOID,
    EnumType,
    SequenceType,
    StructType,
    TypeCode,
)
from tests.giop.reference_cdr import CdrDecoder, CdrEncoder, CdrError
from tests.giop.reference_messages import FastDecoder, FastEncoder

POINT = StructType("Point", (("x", TC_DOUBLE), ("y", TC_DOUBLE)))
SAMPLE = StructType(
    "Sample", (("t", TC_DOUBLE), ("value", TC_DOUBLE), ("seq", TC_ULONG))
)
FLAGGED = StructType("Flagged", (("flag", TC_BOOLEAN), ("n", TC_ULONG)))
COLOR = EnumType("Color", ("red", "green", "blue"))
MIXED = StructType(
    "Mixed",
    (
        ("flag", TC_BOOLEAN),
        ("id", TC_ULONG),
        ("name", TC_STRING),
        ("points", SequenceType(POINT)),
        ("samples", SequenceType(SAMPLE)),
        ("color", COLOR),
        ("tags", SequenceType(TC_STRING)),
        ("raw", SequenceType(TC_OCTET)),
        ("bits", SequenceType(TC_BOOLEAN)),
        ("vals", SequenceType(TC_DOUBLE, bound=16)),
        ("matrix", SequenceType(SequenceType(TC_LONG))),
        ("inner", StructType(
            "Inner", (("a", TC_OCTET), ("b", TC_LONGLONG), ("c", TC_SHORT))
        )),
    ),
)
MIXED_VALUE = {
    "flag": True,
    "id": 7,
    "name": "héllo",
    "points": [{"x": 1.5, "y": -2.25}, {"x": 0.0, "y": 3.5}, {"x": 9.0, "y": 1.0}],
    "samples": [{"t": 0.1, "value": 2.0, "seq": 1}, {"t": 0.2, "value": 3.0, "seq": 2}],
    "color": "green",
    "tags": ["a", "bb", ""],
    "raw": [0, 255, 17],
    "bits": [True, False, True],
    "vals": [1.0, 2.0],
    "matrix": [[1, 2, 3], [], [4]],
    "inner": {"a": 9, "b": -1234567890123, "c": -7},
}

CORPUS = [
    (TC_LONG, -5),
    (TC_DOUBLE, 1.0 / 3.0),
    (TC_STRING, "héllo wörld"),
    (TC_BOOLEAN, False),
    (COLOR, "blue"),
    (POINT, {"x": 0.5, "y": -1.5}),
    (SAMPLE, {"t": 0.25, "value": 1.5, "seq": 7}),
    (SequenceType(TC_DOUBLE), [float(i) * 0.5 for i in range(37)]),
    (SequenceType(TC_OCTET), list(range(200))),
    (SequenceType(TC_BOOLEAN), [True, False] * 9),
    (SequenceType(COLOR), ["red", "blue", "green", "red"]),
    (SequenceType(SAMPLE), [
        {"t": i * 0.5, "value": -i * 0.25, "seq": i} for i in range(11)
    ]),
    (SequenceType(POINT), [{"x": float(i), "y": -float(i)} for i in range(6)]),
    (SequenceType(FLAGGED), [{"flag": bool(i % 2), "n": i} for i in range(9)]),
    (SequenceType(TC_STRING), ["alpha", "", "β"]),
    (SequenceType(SequenceType(TC_ULONG)), [[1, 2], [], [3, 4, 5]]),
    (SequenceType(TC_DOUBLE), []),
    (MIXED, MIXED_VALUE),
]


@pytest.mark.parametrize("byte_order", ["big", "little"])
def test_corpus_byte_identical_to_interpreted(byte_order):
    for tc, value in CORPUS:
        interp = CdrEncoder(byte_order)
        interp.encode(tc, value)
        fast = FastEncoder(byte_order)
        fast.encode(tc, value)
        assert fast.getvalue() == interp.getvalue(), tc


@pytest.mark.parametrize("byte_order", ["big", "little"])
def test_corpus_decode_value_identical(byte_order):
    for tc, value in CORPUS:
        encoder = CdrEncoder(byte_order)
        encoder.encode(tc, value)
        wire = encoder.getvalue()
        decoder = FastDecoder(wire, byte_order)
        assert decoder.decode(tc) == value, tc
        assert decoder.at_end()
        assert decoder.remaining() == 0


def test_decode_accepts_memoryview_without_copy():
    encoder = CdrEncoder("big")
    encoder.encode(SAMPLE, {"t": 1.0, "value": 2.0, "seq": 3})
    view = memoryview(encoder.getvalue())
    decoder = FastDecoder(view, "big")
    assert decoder.decode(SAMPLE) == {"t": 1.0, "value": 2.0, "seq": 3}
    assert decoder._data.obj is view.obj


def test_truncation_rejected_at_every_offset():
    encoder = CdrEncoder("big")
    encoder.encode(MIXED, MIXED_VALUE)
    wire = encoder.getvalue()
    for cut in range(len(wire)):
        with pytest.raises(CdrError):
            FastDecoder(wire[:cut], "big").decode(MIXED)


def test_garbage_length_rejected_before_allocation():
    # A bulk sequence whose length word claims 2**31 elements must fail
    # the bounds check up front, not attempt a gigabyte unpack.
    wire = (2**31).to_bytes(4, "big") + b"\x00" * 64
    with pytest.raises(CdrError, match="truncated"):
        FastDecoder(wire, "big").decode(SequenceType(TC_DOUBLE))
    with pytest.raises(CdrError, match="truncated"):
        FastDecoder(wire, "big").decode(SequenceType(SAMPLE))


def test_bounded_sequence_rejected_on_decode():
    encoder = CdrEncoder("big")
    encoder.encode(SequenceType(TC_DOUBLE), [1.0, 2.0, 3.0])
    with pytest.raises(CdrError, match="bound"):
        FastDecoder(encoder.getvalue(), "big").decode(
            SequenceType(TC_DOUBLE, bound=2)
        )


def test_bad_enum_ordinal_and_boolean_rejected():
    with pytest.raises(CdrError, match="ordinal"):
        FastDecoder((7).to_bytes(4, "big"), "big").decode(COLOR)
    with pytest.raises(CdrError, match="boolean"):
        FastDecoder(b"\x05", "big").decode(TC_BOOLEAN)
    with pytest.raises(CdrError, match="boolean"):
        FastDecoder((2).to_bytes(4, "big") + b"\x01\x07", "big").decode(
            SequenceType(TC_BOOLEAN)
        )


def test_codec_cache_hits_and_clear():
    clear_codec_cache()
    codec = compile_codec(MIXED)
    assert isinstance(codec, CompiledCodec)
    again = compile_codec(MIXED)
    assert again is codec
    stats = codec_cache_stats()
    assert stats["hits"] >= 1
    assert stats["compiled"] >= 1
    assert stats["hit_rate"] > 0
    clear_codec_cache()
    assert codec_cache_stats()["size"] == 0


def test_unknown_typecode_raises_cdr_error():
    """The compiler covers every TypeCode class; anything else is an error,
    never a silent detour through the reference coder."""

    class LongAlias(TypeCode):
        kind = "long"

        def validate(self, value):
            TC_LONG.validate(value)

    alias = LongAlias()
    wire = (42).to_bytes(4, "big")
    for tc in (alias, SequenceType(alias), StructType("Wrap", (("n", alias),))):
        with pytest.raises(CdrError, match="no codec plan"):
            compile_codec(tc)
        with pytest.raises(CdrError, match="no codec plan"):
            FastEncoder("big").encode(tc, 42)
        with pytest.raises(CdrError, match="no codec plan"):
            FastDecoder(wire, "big").decode(tc)


def test_validation_parity_with_interpreted_encode():
    cases = [
        (TC_BOOLEAN, 1), (TC_LONG, True), (TC_LONG, 2**31), (TC_DOUBLE, True),
        (TC_OCTET, 256), (TC_STRING, b"x"), (TC_VOID, 0), (TC_FLOAT, 1e300),
        (SequenceType(TC_DOUBLE), "abc"),
        (SequenceType(TC_DOUBLE), [1.0, True]),
        (SequenceType(TC_DOUBLE, bound=2), [1.0, 2.0, 3.0]),
        (SequenceType(TC_BOOLEAN), [True, 1]),
        (SequenceType(TC_OCTET), [True]),
        (SequenceType(TC_LONG), [1, True]),
        (SequenceType(TC_STRING), "abc"),
        (POINT, {"x": 1.0}),
        (POINT, {"x": 1.0, "y": 2.0, "z": 3.0}),
        (POINT, {"x": 1.0, "z": 2.0}),
        (POINT, 7),
        (COLOR, "magenta"),
        (COLOR, True),
        (SequenceType(COLOR), ["red", "nope"]),
        (SequenceType(POINT), [{"x": 1.0, "y": True}]),
        # Multi-element phase-stable runs take the bulk fast path, which
        # must run the same bool-vs-number checks as per-element encode.
        (SequenceType(POINT), [{"x": 1.0, "y": 2.0}, {"x": 1.0, "y": True}]),
        (SequenceType(FLAGGED), [{"flag": True, "n": 1}, {"flag": 5, "n": 2}]),
        (SequenceType(FLAGGED), [{"flag": 1, "n": 1}, {"flag": 0, "n": 2}]),
        (SequenceType(FLAGGED), [{"flag": True, "n": True}, {"flag": False, "n": 2}]),
        (SequenceType(SAMPLE), [
            {"t": 0.1, "value": True, "seq": 1}, {"t": 0.2, "value": 3.0, "seq": 2},
        ]),
    ]
    for tc, value in cases:
        with pytest.raises(CdrError):
            interp = CdrEncoder("big")
            interp.encode(tc, value)
        with pytest.raises(CdrError):
            fast = FastEncoder("big")
            fast.encode(tc, value)


def test_bulk_struct_sequence_checks_every_element():
    """The bulk encode of a phase-stable struct sequence must reject a
    bool-vs-number mismatch in ANY element — not silently let struct.pack
    coerce it into wire bytes every decoder then rejects as malformed."""
    tc = SequenceType(FLAGGED)
    good = [{"flag": bool(i % 2), "n": i} for i in range(8)]
    for order in ("big", "little"):
        interp = CdrEncoder(order)
        interp.encode(tc, good)
        fast = FastEncoder(order)
        fast.encode(tc, good)
        assert fast.getvalue() == interp.getvalue()
        assert FastDecoder(fast.getvalue(), order).decode(tc) == good
        fast.release()
    for k in range(len(good)):
        int_for_bool = [dict(v) for v in good]
        int_for_bool[k]["flag"] = 5
        with pytest.raises(CdrError):
            FastEncoder("big").encode(tc, int_for_bool)
        bool_for_number = [dict(v) for v in good]
        bool_for_number[k]["n"] = True
        with pytest.raises(CdrError):
            FastEncoder("big").encode(tc, bool_for_number)


def test_peek_request_header_matches_full_decode():
    repo = InterfaceRepository()
    repo.register(InterfaceDef(
        "Calc", (Operation("mean", (Parameter("xs", SequenceType(TC_DOUBLE)),),
                           TC_DOUBLE),),
    ))
    for order in ("big", "little"):
        wire = encode_request(
            repo, "Calc", "mean", ([1.0, 2.0],), request_id=9,
            object_key=b"calc", byte_order=order,
        )
        header = peek_request_header(wire)
        full = decode_message(repo, wire)
        assert header.request_id == full.request_id
        assert header.response_expected == full.response_expected
        assert header.object_key == full.object_key
        assert header.operation == full.operation
        assert header.interface_name == full.interface_name
        assert header.byte_order == full.byte_order
    with pytest.raises(GiopError):
        peek_request_header(b"JUNK" + wire[4:])
    with pytest.raises(GiopError):
        peek_request_header(wire[:20])


def test_no_product_module_can_select_the_reference_coder():
    """One marshalling path: the recursive coder lives in the tests
    (``reference_cdr.py``). No product module names it; nothing switches
    coders."""
    import re
    from pathlib import Path

    import repro
    import repro.giop

    root = Path(repro.__file__).parent
    offenders = [
        path.relative_to(root).as_posix()
        for path in sorted(root.rglob("*.py"))
        if re.search(r"\bCdr(En|De)coder\b", path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
    assert [name for name in dir(repro.giop) if name.startswith("set_")] == []
