"""Property test: arbitrary IDL type structures survive GIOP round trips.

Generates random TypeCodes (primitives, enums, nested sequences/structs)
together with conforming values, then checks:

* CDR encode/decode is the identity, on both byte orders;
* a full GIOP request/reply round trip preserves the values;
* cross-endian decode yields the same values as same-endian decode.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.giop.idl import InterfaceDef, InterfaceRepository, Operation, Parameter
from repro.giop.messages import decode_message, encode_reply, encode_request
from repro.giop.typecodes import (
    TC_BOOLEAN,
    TC_DOUBLE,
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
from tests.giop.reference_cdr import CdrDecoder, CdrEncoder

_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)

_PRIMITIVES = [
    (TC_OCTET, st.integers(min_value=0, max_value=255)),
    (TC_BOOLEAN, st.booleans()),
    (TC_SHORT, st.integers(min_value=-(2**15), max_value=2**15 - 1)),
    (TC_LONG, st.integers(min_value=-(2**31), max_value=2**31 - 1)),
    (TC_ULONG, st.integers(min_value=0, max_value=2**32 - 1)),
    (TC_LONGLONG, st.integers(min_value=-(2**63), max_value=2**63 - 1)),
    (TC_DOUBLE, st.floats(allow_nan=False, allow_infinity=False)),
    (TC_STRING, st.text(max_size=12)),
]


def _leaf():
    choices = [st.tuples(st.just(tc), value) for tc, value in _PRIMITIVES]
    enum = st.lists(_names, min_size=1, max_size=4, unique=True).flatmap(
        lambda labels: st.tuples(
            st.just(EnumType("E" + "_".join(labels), tuple(labels))),
            st.sampled_from(labels),
        )
    )
    return st.one_of(*choices, enum)


@st.composite
def typed_values(draw, depth=2):
    """(TypeCode, conforming value) pairs with nested containers."""
    if depth == 0:
        tc, value = draw(_leaf())
        return tc, value
    kind = draw(st.sampled_from(["leaf", "seq", "struct"]))
    if kind == "leaf":
        tc, value = draw(_leaf())
        return tc, value
    if kind == "seq":
        element_tc, _ = draw(typed_values(depth=depth - 1))
        # Draw several values OF THE SAME element type.
        length = draw(st.integers(min_value=0, max_value=3))
        values = []
        for _ in range(length):
            values.append(draw(_value_for(element_tc)))
        return SequenceType(element_tc), values
    field_count = draw(st.integers(min_value=1, max_value=3))
    fields = []
    value = {}
    used = set()
    for _ in range(field_count):
        name = draw(_names.filter(lambda n: n not in used))
        used.add(name)
        field_tc, field_value = draw(typed_values(depth=depth - 1))
        fields.append((name, field_tc))
        value[name] = field_value
    return StructType("S" + "".join(sorted(used)), tuple(fields)), value


def _value_for(tc):
    """A strategy producing one conforming value for an existing TypeCode."""
    for prim_tc, strat in _PRIMITIVES:
        if tc is prim_tc:
            return strat
    if isinstance(tc, EnumType):
        return st.sampled_from(tc.labels)
    if isinstance(tc, SequenceType):
        return st.lists(_value_for(tc.element), max_size=3)
    if isinstance(tc, StructType):
        return st.fixed_dictionaries(
            {name: _value_for(field_tc) for name, field_tc in tc.fields}
        )
    raise AssertionError(f"no strategy for {tc!r}")


@settings(max_examples=60, deadline=None)
@given(pair=typed_values(), byte_order=st.sampled_from(["big", "little"]))
def test_property_cdr_roundtrip_random_types(pair, byte_order):
    tc, value = pair
    encoder = CdrEncoder(byte_order)
    encoder.encode(tc, value)
    decoder = CdrDecoder(encoder.getvalue(), byte_order)
    assert decoder.decode(tc) == value
    assert decoder.at_end()


@settings(max_examples=40, deadline=None)
@given(
    pair=typed_values(),
    request_order=st.sampled_from(["big", "little"]),
    reply_order=st.sampled_from(["big", "little"]),
)
def test_property_giop_roundtrip_random_types(pair, request_order, reply_order):
    tc, value = pair
    interface = InterfaceDef(
        "Echo", (Operation("echo", (Parameter("x", tc),), tc),)
    )
    repo = InterfaceRepository()
    repo.register(interface)
    request_wire = encode_request(
        repo, "Echo", "echo", (value,), request_id=1, byte_order=request_order
    )
    request = decode_message(repo, request_wire)
    assert request.args == (value,)
    reply_wire = encode_reply(
        repo, "Echo", "echo", request_id=1, result=request.args[0],
        byte_order=reply_order,
    )
    reply = decode_message(repo, reply_wire)
    assert reply.result == value
