"""Fuzz the wire decoders: arbitrary bytes must fail *cleanly*.

A Byzantine peer controls every byte it sends; the CDR/GIOP decoders and
the ITDOS payload parser must reject garbage with their declared error
types — never an unhandled IndexError/KeyError/UnicodeDecodeError — and
never loop or allocate unboundedly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.encoding import parse_canonical
from repro.giop.messages import GiopError, decode_message, encode_request
from repro.giop.typecodes import TC_DOUBLE, TC_LONG, TC_STRING, SequenceType, StructType
from repro.itdos.messages import PayloadError, parse_payload
from tests.giop.reference_cdr import CdrDecoder, CdrError
from tests.itdos.conftest import make_repository

REPO = make_repository()
TYPECODES = [
    TC_LONG,
    TC_DOUBLE,
    TC_STRING,
    SequenceType(TC_DOUBLE),
    StructType("P", (("x", TC_DOUBLE), ("s", TC_STRING))),
]


@settings(max_examples=150, deadline=None)
@given(blob=st.binary(max_size=200), byte_order=st.sampled_from(["big", "little"]))
def test_property_cdr_decoder_fails_cleanly(blob, byte_order):
    for tc in TYPECODES:
        decoder = CdrDecoder(blob, byte_order)
        try:
            decoder.decode(tc)
        except CdrError:
            pass  # the declared failure mode


@settings(max_examples=150, deadline=None)
@given(blob=st.binary(max_size=200))
def test_property_giop_decoder_fails_cleanly(blob):
    try:
        decode_message(REPO, blob)
    except GiopError:
        pass


@settings(max_examples=150, deadline=None)
@given(blob=st.binary(max_size=200))
def test_property_itdos_payload_parser_fails_cleanly(blob):
    try:
        parse_payload(blob)
    except PayloadError:
        pass


@settings(max_examples=150, deadline=None)
@given(blob=st.binary(max_size=200))
def test_property_canonical_parser_fails_cleanly(blob):
    try:
        parse_canonical(blob)
    except ValueError:
        pass


@settings(max_examples=60, deadline=None)
@given(
    flip_position=st.integers(min_value=0, max_value=10_000),
    flip_mask=st.integers(min_value=1, max_value=255),
)
def test_property_bitflipped_giop_never_crashes(flip_position, flip_mask):
    """Flipping any byte of a valid message either still decodes or raises
    GiopError — no other exception type escapes."""
    wire = bytearray(
        encode_request(REPO, "Calculator", "add", (1.5, 2.5), request_id=9)
    )
    wire[flip_position % len(wire)] ^= flip_mask
    try:
        decode_message(REPO, bytes(wire))
    except GiopError:
        pass
