"""Property fuzz: compiled codecs are equivalent to the interpreted oracle.

Random TypeCode trees and conforming values, both byte orders, every
platform profile: the compiled path must produce byte-identical encodings,
value-identical decodings, and reject exactly the malformed streams the
interpreted coder rejects.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.giop.platforms import PLATFORMS
from repro.giop.typecodes import TypeCodeError
from tests.giop.reference_cdr import CdrDecoder, CdrEncoder, CdrError
from tests.giop.reference_messages import FastDecoder, FastEncoder
from tests.giop.test_property_roundtrip import _value_for, typed_values

_REJECTS = (CdrError, TypeCodeError)


def _values_equal(a, b) -> bool:
    """Exact structural equality, NaN-tolerant (NaN == NaN here)."""
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_values_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(_values_equal, a, b))
    return a == b


@settings(max_examples=120, deadline=None)
@given(pair=typed_values(), byte_order=st.sampled_from(["big", "little"]))
def test_property_compiled_encode_byte_identical(pair, byte_order):
    tc, value = pair
    interp = CdrEncoder(byte_order)
    interp.encode(tc, value)
    fast = FastEncoder(byte_order)
    fast.encode(tc, value)
    assert fast.getvalue() == interp.getvalue()
    fast.release()


@settings(max_examples=120, deadline=None)
@given(pair=typed_values(), byte_order=st.sampled_from(["big", "little"]))
def test_property_compiled_decode_value_identical(pair, byte_order):
    tc, value = pair
    encoder = CdrEncoder(byte_order)
    encoder.encode(tc, value)
    wire = encoder.getvalue()
    interp = CdrDecoder(wire, byte_order)
    fast = FastDecoder(wire, byte_order)
    assert fast.decode(tc) == interp.decode(tc)
    assert fast._pos == interp._pos
    assert fast.at_end()


@settings(max_examples=40, deadline=None)
@given(pair=typed_values(), profile=st.sampled_from(sorted(PLATFORMS)))
def test_property_platform_profiles_agree(pair, profile):
    # Perturbed values marshalled in each platform's native order still
    # match the oracle byte-for-byte and survive the round trip.
    tc, value = pair
    platform = PLATFORMS[profile]
    value = platform.perturb_result(value)
    interp = CdrEncoder(platform.byte_order)
    interp.encode(tc, value)
    fast = FastEncoder(platform.byte_order)
    fast.encode(tc, value)
    assert fast.getvalue() == interp.getvalue()
    assert FastDecoder(fast.getvalue(), platform.byte_order).decode(tc) == value
    fast.release()


@settings(max_examples=60, deadline=None)
@given(
    pair=typed_values(),
    byte_order=st.sampled_from(["big", "little"]),
    data=st.data(),
)
def test_property_truncated_stream_rejected(pair, byte_order, data):
    tc, value = pair
    encoder = CdrEncoder(byte_order)
    encoder.encode(tc, value)
    wire = encoder.getvalue()
    if not wire:  # e.g. bare void: nothing to truncate
        return
    cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    try:
        CdrDecoder(wire[:cut], byte_order).decode(tc)
        interp_rejects = False
    except _REJECTS:
        interp_rejects = True
    try:
        FastDecoder(wire[:cut], byte_order).decode(tc)
        fast_rejects = False
    except _REJECTS:
        fast_rejects = True
    assert fast_rejects == interp_rejects
    # A truncation that still parses can only happen when the prefix is a
    # complete encoding of some value (e.g. a shorter sequence) — and then
    # both paths must agree on that value too.
    if not interp_rejects:
        assert (
            FastDecoder(wire[:cut], byte_order).decode(tc)
            == CdrDecoder(wire[:cut], byte_order).decode(tc)
        )


@settings(max_examples=80, deadline=None)
@given(
    pair=typed_values(),
    byte_order=st.sampled_from(["big", "little"]),
    data=st.data(),
)
def test_property_corrupted_stream_agrees_with_oracle(pair, byte_order, data):
    # Flip one byte anywhere: both paths must agree on reject-vs-value,
    # and any error must stay in the CdrError family (no IndexError,
    # MemoryError, struct.error leaking out).
    tc, value = pair
    encoder = CdrEncoder(byte_order)
    encoder.encode(tc, value)
    wire = bytearray(encoder.getvalue())
    if not wire:
        return
    i = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    wire[i] ^= flip
    wire = bytes(wire)
    try:
        expected = CdrDecoder(wire, byte_order).decode(tc)
        interp_rejects = False
    except _REJECTS:
        interp_rejects = True
    try:
        got = FastDecoder(wire, byte_order).decode(tc)
        fast_rejects = False
    except _REJECTS:
        fast_rejects = True
    assert fast_rejects == interp_rejects
    if not interp_rejects:
        # _values_equal is the NaN-tolerant oracle comparison: a flipped
        # byte inside a double may decode as NaN on both paths.
        assert _values_equal(got, expected)


def _scalar_paths(value, path=()):
    """Paths to every bool/number leaf of a conforming value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _scalar_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _scalar_paths(item, path + (i,))
    elif isinstance(value, (bool, int, float)):
        yield path, value


def _replace_at(value, path, new):
    if not path:
        return new
    if isinstance(value, dict):
        out = dict(value)
    else:
        out = list(value)
    out[path[0]] = _replace_at(value[path[0]], path[1:], new)
    return out


@settings(max_examples=100, deadline=None)
@given(
    pair=typed_values(),
    byte_order=st.sampled_from(["big", "little"]),
    data=st.data(),
)
def test_property_encode_reject_parity(pair, byte_order, data):
    # Swap one scalar leaf bool<->number anywhere in the value (including
    # deep inside bulk-encoded sequence runs): compiled and interpreted
    # encoders must agree on accept-vs-reject, and on the bytes when both
    # accept. Guards the §3.6 invariant that a correct sender never
    # marshals wire bytes the voters would discard.
    tc, value = pair
    paths = list(_scalar_paths(value))
    if not paths:
        return
    path, leaf = data.draw(st.sampled_from(paths))
    poison = data.draw(st.integers(min_value=0, max_value=9)) if isinstance(
        leaf, bool
    ) else True
    mutated = _replace_at(value, path, poison)
    try:
        interp = CdrEncoder(byte_order)
        interp.encode(tc, mutated)
        interp_rejects = False
    except _REJECTS:
        interp_rejects = True
    fast = FastEncoder(byte_order)
    try:
        fast.encode(tc, mutated)
        fast_rejects = False
    except _REJECTS:
        fast_rejects = True
    assert fast_rejects == interp_rejects
    if not interp_rejects:
        assert fast.getvalue() == interp.getvalue()
        fast.release()


@settings(max_examples=40, deadline=None)
@given(
    pair=typed_values(),
    byte_order=st.sampled_from(["big", "little"]),
    data=st.data(),
)
def test_property_random_bytes_never_crash(pair, byte_order, data):
    tc, _value = pair
    blob = data.draw(st.binary(max_size=64))
    try:
        FastDecoder(blob, byte_order).decode(tc)
    except _REJECTS:
        pass
