"""Tests for the CDR encoder/decoder, including cross-endian round trips."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    EnumType,
    SequenceType,
    StructType,
)
from tests.giop.reference_cdr import CdrDecoder, CdrEncoder, CdrError

POINT = StructType("Point", (("x", TC_DOUBLE), ("y", TC_DOUBLE)))
COLOR = EnumType("Color", ("RED", "GREEN", "BLUE"))


def roundtrip(tc, value, byte_order="big"):
    encoder = CdrEncoder(byte_order)
    encoder.encode(tc, value)
    decoder = CdrDecoder(encoder.getvalue(), byte_order)
    result = decoder.decode(tc)
    assert decoder.at_end()
    return result


@pytest.mark.parametrize("byte_order", ["big", "little"])
@pytest.mark.parametrize(
    "tc,value",
    [
        (TC_OCTET, 200),
        (TC_BOOLEAN, True),
        (TC_BOOLEAN, False),
        (TC_SHORT, -12345),
        (TC_LONG, -(2**31)),
        (TC_ULONG, 2**32 - 1),
        (TC_LONGLONG, -(2**63)),
        (TC_DOUBLE, 3.141592653589793),
        (TC_STRING, "héllo wörld"),
        (TC_STRING, ""),
        (SequenceType(TC_LONG), [1, -2, 3]),
        (POINT, {"x": 1.5, "y": -2.5}),
        (COLOR, "BLUE"),
    ],
)
def test_roundtrip_both_orders(byte_order, tc, value):
    assert roundtrip(tc, value, byte_order) == value


def test_float_single_precision_rounds():
    out = roundtrip(TC_FLOAT, 3.141592653589793)
    assert out == pytest.approx(3.1415927, abs=1e-6)
    assert out != 3.141592653589793


def test_byte_order_changes_wire_bytes():
    big = CdrEncoder("big")
    big.encode(TC_LONG, 0x01020304)
    little = CdrEncoder("little")
    little.encode(TC_LONG, 0x01020304)
    assert big.getvalue() == bytes([1, 2, 3, 4])
    assert little.getvalue() == bytes([4, 3, 2, 1])


def test_alignment_padding_inserted():
    encoder = CdrEncoder("big")
    encoder.encode(TC_OCTET, 1)
    encoder.encode(TC_LONG, 2)  # must pad to offset 4
    data = encoder.getvalue()
    assert len(data) == 8
    assert data[1:4] == b"\x00\x00\x00"


def test_alignment_decoder_skips_same_padding():
    encoder = CdrEncoder("big")
    encoder.encode(TC_OCTET, 9)
    encoder.encode(TC_DOUBLE, 2.5)
    decoder = CdrDecoder(encoder.getvalue(), "big")
    assert decoder.decode(TC_OCTET) == 9
    assert decoder.decode(TC_DOUBLE) == 2.5


def test_string_nul_terminated_on_wire():
    encoder = CdrEncoder("big")
    encoder.encode(TC_STRING, "ab")
    data = encoder.getvalue()
    # ulong length 3 (incl NUL), then 'a','b','\0'
    assert data == b"\x00\x00\x00\x03ab\x00"


def test_decoder_rejects_unterminated_string():
    with pytest.raises(CdrError):
        CdrDecoder(b"\x00\x00\x00\x02ab", "big").read_primitive("string")


def test_decoder_rejects_truncated_stream():
    with pytest.raises(CdrError, match="truncated"):
        CdrDecoder(b"\x00\x00", "big").decode(TC_LONG)


def test_decoder_rejects_stream_truncated_inside_padding():
    # One octet then a long: the long's 3 padding bytes fall past the end
    # of this 3-byte buffer. The cursor must not silently advance beyond
    # the stream; it must fail at the pad itself.
    from tests.giop.reference_messages import FastDecoder

    blob = b"\x09\x00\x00"
    for decoder in (CdrDecoder(blob, "big"), FastDecoder(blob, "big")):
        assert decoder.decode(TC_OCTET) == 9
        with pytest.raises(CdrError, match="truncated"):
            decoder.decode(TC_LONG)
    # The interpreted cursor fails at the pad octets themselves.
    decoder = CdrDecoder(blob, "big")
    decoder.decode(TC_OCTET)
    with pytest.raises(CdrError, match="padding"):
        decoder.read_primitive("long")


def test_decoder_rejects_invalid_boolean():
    with pytest.raises(CdrError):
        CdrDecoder(b"\x02", "big").decode(TC_BOOLEAN)


def test_decoder_rejects_bad_utf8():
    blob = b"\x00\x00\x00\x02\xff\x00"
    with pytest.raises(CdrError):
        CdrDecoder(blob, "big").read_primitive("string")


def test_encode_validates_first():
    encoder = CdrEncoder("big")
    with pytest.raises(CdrError):
        encoder.encode(TC_LONG, "not an int")
    assert len(encoder) == 0  # nothing partially written


def test_bounded_sequence_decode_rejects_oversize():
    unbounded = SequenceType(TC_LONG)
    bounded = SequenceType(TC_LONG, bound=2)
    encoder = CdrEncoder("big")
    encoder.encode(unbounded, [1, 2, 3])
    with pytest.raises(CdrError):
        CdrDecoder(encoder.getvalue(), "big").decode(bounded)


def test_octet_sequence_helpers():
    encoder = CdrEncoder("big")
    encoder.write_octets(b"\x01\x02\x03")
    decoder = CdrDecoder(encoder.getvalue(), "big")
    assert decoder.read_octets() == b"\x01\x02\x03"


def test_bad_byte_order_rejected():
    with pytest.raises(ValueError):
        CdrEncoder("middle")
    with pytest.raises(ValueError):
        CdrDecoder(b"", "pdp11")


def test_nested_structures_roundtrip():
    segment = StructType("Segment", (("a", POINT), ("b", POINT)))
    track = SequenceType(segment)
    value = [
        {"a": {"x": 0.0, "y": 0.5}, "b": {"x": 1.0, "y": 1.5}},
        {"a": {"x": 2.0, "y": 2.5}, "b": {"x": 3.0, "y": 3.5}},
    ]
    assert roundtrip(track, value, "little") == value


@settings(max_examples=50)
@given(
    value=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    byte_order=st.sampled_from(["big", "little"]),
)
def test_property_long_roundtrip(value, byte_order):
    assert roundtrip(TC_LONG, value, byte_order) == value


@settings(max_examples=50)
@given(
    value=st.floats(allow_nan=False, allow_infinity=False),
    byte_order=st.sampled_from(["big", "little"]),
)
def test_property_double_roundtrip_exact(value, byte_order):
    assert roundtrip(TC_DOUBLE, value, byte_order) == value


@settings(max_examples=50)
@given(value=st.text(max_size=50), byte_order=st.sampled_from(["big", "little"]))
def test_property_string_roundtrip(value, byte_order):
    assert roundtrip(TC_STRING, value, byte_order) == value


@settings(max_examples=30)
@given(
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
)
def test_property_cross_endian_value_equality(values):
    """The heterogeneity fact: same values, different bytes, equal decode."""
    seq = SequenceType(TC_DOUBLE)
    big = CdrEncoder("big")
    big.encode(seq, values)
    little = CdrEncoder("little")
    little.encode(seq, values)
    decoded_big = CdrDecoder(big.getvalue(), "big").decode(seq)
    decoded_little = CdrDecoder(little.getvalue(), "little").decode(seq)
    assert decoded_big == decoded_little == values
    if any(math.copysign(1.0, v) < 0 or v != 0 for v in values):
        assert big.getvalue() != little.getvalue()
