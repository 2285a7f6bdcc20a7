"""The one-pass canonical coder against the reference it replaced."""

import enum
import math
from collections import OrderedDict, namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import encoding
from tests.crypto import reference_encoding as reference


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 70_000


class Millis(int):
    pass


class Ratio(float):
    pass


class Label(str):
    pass


class Blob(bytes):
    pass


Pair = namedtuple("Pair", "left right")


class Fielded:
    def __init__(self, fields):
        self.fields = fields

    def canonical_fields(self):
        return self.fields


class Opaque:
    pass


atoms = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN included: both coders must refuse it
    | st.text(max_size=12)  # surrogates included: both raise UnicodeEncodeError
    | st.binary(max_size=24)
    | st.binary(max_size=8).map(bytearray)
    | st.binary(max_size=8).map(Blob)
    | st.sampled_from([Colour.RED, Colour.BLUE, Millis(-5), Ratio(2.5), Ratio("nan")])
    | st.text(max_size=6).map(Label)
    | st.builds(Opaque)
)
keys = st.text(max_size=6) | st.text(max_size=4).map(Label) | st.integers(0, 3) | st.none()


def containers(children):
    string_keyed = st.dictionaries(st.text(max_size=6), children, max_size=4)
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.tuples(children, children).map(lambda pair: Pair(*pair))
        | st.dictionaries(keys, children, max_size=4)
        | string_keyed.map(OrderedDict)
        | string_keyed.map(Fielded)
    )


values = st.recursive(atoms, containers, max_leaves=14)


def outcome(fn, argument):
    """('ok', result) or ('raised', exception type)."""
    try:
        return "ok", fn(argument)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return "raised", type(exc)


def same_values(a, b):
    """Equality that also holds for NaN and tells -0.0 from 0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or (
            a == b and math.copysign(1, a) == math.copysign(1, b)
        )
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_values, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_values(a[k], b[k]) for k in a)
    return a == b


@settings(max_examples=400, deadline=None)
@given(values)
def test_encoder_matches_reference(value):
    assert outcome(encoding.canonical_bytes, value) == outcome(
        reference.canonical_bytes, value
    )


def mutated(raw, data):
    """A truncation, a splice, or a few overwritten bytes of ``raw``."""
    raw = bytearray(raw)
    kind = data.draw(st.sampled_from(["cut", "flip", "insert", "append"]))
    if kind == "cut":
        return bytes(raw[: data.draw(st.integers(0, len(raw)))])
    if kind == "append":
        return bytes(raw) + data.draw(st.binary(min_size=1, max_size=6))
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(raw) - 1))
        # Tags and small lengths are the interesting replacements.
        byte = data.draw(st.sampled_from(list(b"NTFDISBLM\x00\x01\x02\x05\xff")))
        if kind == "flip":
            raw[at] = byte
        else:
            raw.insert(at, byte)
    return bytes(raw)


plain_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
    | st.binary(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=600, deadline=None)
@given(plain_values, st.data())
def test_parser_accepts_and_rejects_what_the_reference_does(value, data):
    raw = mutated(reference.canonical_bytes(value), data)
    verdict, parsed = outcome(encoding.parse_canonical, raw)
    expected_verdict, expected = outcome(reference.parse_canonical, raw)
    assert verdict == expected_verdict
    if verdict == "ok":
        assert same_values(parsed, expected)
    else:
        assert issubclass(parsed, ValueError) and issubclass(expected, ValueError)


@given(st.binary(max_size=40))
def test_parser_on_arbitrary_bytes_matches_reference(raw):
    verdict, parsed = outcome(encoding.parse_canonical, raw)
    expected_verdict, expected = outcome(reference.parse_canonical, raw)
    assert verdict == expected_verdict
    assert verdict == "raised" or same_values(parsed, expected)


def nested_lists(levels):
    """``levels`` list containers around None: [[[...None...]]]."""
    raw = b"N"
    for _ in range(levels):
        raw = b"L" + (len(raw) + 4).to_bytes(4, "big") + (1).to_bytes(4, "big") + raw
    return raw


def test_nesting_bound_is_a_value_error_not_a_stack_overflow():
    deepest = nested_lists(encoding.MAX_PARSE_DEPTH)
    assert same_values(
        encoding.parse_canonical(deepest), reference.parse_canonical(deepest)
    )
    with pytest.raises(ValueError, match="nested deeper"):
        encoding.parse_canonical(nested_lists(encoding.MAX_PARSE_DEPTH + 1))
    # 3,000 levels is a 27 KB frame; the reference dies of RecursionError.
    hostile = nested_lists(3000)
    assert len(hostile) < 28_000
    with pytest.raises(ValueError, match="nested deeper"):
        encoding.parse_canonical(hostile)
    with pytest.raises(RecursionError):
        reference.parse_canonical(hostile)


def test_bound_leaves_fourfold_headroom_over_the_deepest_protocol_message():
    """A NewViewMsg carrying view-changes carrying prepared certificates
    carrying a batched pre-prepare is the deepest thing on the wire."""
    from repro.bft import messages as bft
    from repro.net.wire import encode_wire_payload

    request = bft.ClientRequest(client_id="c", timestamp=1, payload=b"op")
    pre_prepare = bft.PrePrepareMsg(
        view=0, seq=1, request_digest=b"d", sender="e0",
        batch=bft.BatchMsg(requests=(request,)), auth={"e1": b"mac"},
    )
    certificate = bft.PreparedCertificate(
        pre_prepare=pre_prepare, prepares=(bft.PrepareMsg(0, 1, b"d", "e1"),)
    )
    view_change = bft.ViewChangeMsg(
        new_view=1, stable_seq=0, checkpoint_proof=(), prepared=(certificate,),
        sender="e1",
    )
    new_view = bft.NewViewMsg(
        new_view=1, view_changes=(view_change,), pre_prepares=(pre_prepare,), sender="e1"
    )
    raw = encode_wire_payload(new_view)

    def depth(value):
        if isinstance(value, dict):
            return 1 + max(map(depth, value.values()), default=0)
        if isinstance(value, list):
            return 1 + max(map(depth, value), default=0)
        return 0

    assert 4 * depth(encoding.parse_canonical(raw)) <= encoding.MAX_PARSE_DEPTH
