"""The positional wire codec against an independent two-pass one.

``tests/net/reference_wire.py`` is the oracle. Three properties:

* **same bytes, same objects** on everything an honest sender builds: every
  sample message, hypothesis nestings of them, plain values;
* **same accept set on hostile bytes**: whatever the reader accepts the
  reference accepts with an equal result, and whatever the reference
  refuses the reader refuses: a frame off the layout (a wrong count or tag,
  an unknown name, bytes left over, nesting past the bound) is refused by
  both;
* **one exception type**: only ``WireCodecError`` leaves either codec.
"""

import dataclasses
import itertools
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import schema
from repro.crypto.encoding import MAX_PARSE_DEPTH, canonical_bytes
from repro.net import wire
from repro.net.wire import WireCodecError
from tests.crypto.test_encoding_reference import (
    nested_lists,
    outcome,
    plain_values,
    same_values,
)
from tests.message_samples import sample, samples
from tests.net import reference_wire as reference

SAMPLES = samples()
NAMES = sorted(schema.registered())
TAGS = b"SBILMONTFD"
LENGTHS = (0, 1, 2**31, 2**32 - 1)


def same(a, b, key_order=True):
    """Deep equality that sees what dataclass ``==`` skips (``auth``), tells
    a tuple from a list and one key order from another, and holds for NaN."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        names = [field.name for field in dataclasses.fields(a)]
        return all(same(getattr(a, name), getattr(b, name), key_order) for name in names)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y, key_order) for x, y in zip(a, b))
    if isinstance(a, dict):
        keys = list if key_order else sorted
        return keys(a) == keys(b) and all(same(a[key], b[key], key_order) for key in a)
    return same_values(a, b)


def assert_codecs_agree_on(value):
    """Writer bytes equal; reader result equal, and re-encoded unchanged."""
    verdict, raw = outcome(wire.encode_wire_payload, value)
    assert (verdict, raw) == outcome(reference.encode_wire_payload, value)
    if verdict == "raised":
        assert raw is WireCodecError
        return
    verdict, decoded = outcome(wire.decode_wire_payload, raw)
    expected_verdict, expected = outcome(reference.decode_wire_payload, raw)
    assert verdict == expected_verdict
    if verdict == "raised":  # a field value its coercer refuses
        assert decoded is expected is WireCodecError
        return
    assert same(decoded, expected)
    assert wire.encode_wire_payload(decoded) == raw
    body = wire.encode_datagram("src-é", "dst", value)
    assert body == reference.encode_datagram("src-é", "dst", value)
    src, dst, payload = wire.decode_datagram(body)
    assert (src, dst) == ("src-é", "dst") and same(payload, expected)
    assert wire.readdress_datagram(body, "other") == wire.encode_datagram(
        "src-é", "other", value
    )


# -- (a) honest values -------------------------------------------------------------


@pytest.mark.parametrize("label", sorted(SAMPLES))
def test_every_sample_message_matches_the_reference(label):
    assert_codecs_agree_on(SAMPLES[label])
    assert same(wire.decode_wire_payload(wire.encode_wire_payload(SAMPLES[label])), SAMPLES[label])


def with_field(message, index, value):
    """``message`` with one field (any field: hints are not enforced at
    construction) holding ``value``."""
    fields = dataclasses.fields(message)
    try:
        return dataclasses.replace(message, **{fields[index % len(fields)].name: value})
    except ValueError:  # a validated enumeration (``requester_kind``)
        return message


AUTH = st.none() | st.binary(max_size=8) | st.dictionaries(st.text(max_size=3), st.binary(max_size=8), max_size=3)
MESSAGES = st.sampled_from([SAMPLES[label] for label in sorted(SAMPLES)])
nestings = st.recursive(
    MESSAGES | AUTH | st.integers() | st.text(max_size=4) | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=3)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=3)
    | st.builds(with_field, MESSAGES, st.integers(0, 20), children)
    | st.builds(lambda request, auth: dataclasses.replace(request, auth=auth),
                st.just(SAMPLES["ClientRequest"]), AUTH),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(nestings)
def test_nested_messages_match_the_reference(value):
    assert_codecs_agree_on(value)


@settings(max_examples=300, deadline=None)
@given(plain_values)
def test_plain_values_match_the_reference(value):
    assert_codecs_agree_on(value)


def test_the_writer_refuses_what_the_reference_refuses():
    """What no reader could take back: a value its field's hint does not
    admit is refused on encode, by both writers, as much as an opaque one."""

    class Opaque:
        pass

    prepare, pre_prepare = SAMPLES["PrepareMsg"], SAMPLES["PrePrepareMsg"]
    batch = pre_prepare.batch
    for value in (
        Opaque(), float("nan"), {1: "int key"}, {"k": Opaque()}, [{"a": 1, 2: 3}],
        dataclasses.replace(prepare, auth={"k": Opaque()}),
        dataclasses.replace(prepare, view="1"),  # a str in an int field
        dataclasses.replace(prepare, request_digest="d"),  # a str in a bytes field
        dataclasses.replace(prepare, sender=b"e1"),  # bytes in a str field
        dataclasses.replace(SAMPLES["SmiopReply"], is_digest=1),  # an int in a bool field
        dataclasses.replace(pre_prepare, batch=prepare),  # another class in a message field
        dataclasses.replace(pre_prepare, batch=[batch.requests]),  # its fields as a list
        dataclasses.replace(batch, requests=list(batch.requests)),  # a list, not a tuple
        dataclasses.replace(batch, requests=(prepare,)),  # another class in the tuple
    ):
        with pytest.raises(WireCodecError):
            wire.encode_wire_payload(value)
        assert_codecs_agree_on(value)


# -- (b) hostile bytes -------------------------------------------------------------


def mutate(body: bytes, rng: random.Random, corpus: list[bytes]) -> bytes:
    """One to three of: bit flip, tag swap, truncation, length or count
    rewrite, splice from another frame, a doubled or dropped span."""
    raw = bytearray(body)
    for _ in range(rng.choice((1, 1, 2, 3))):
        if not raw:
            break
        kind = rng.choice(("flip", "flip", "flip", "tag", "cut", "length", "splice", "double", "drop"))
        at = rng.randrange(len(raw))
        tags = [i for i, byte in enumerate(raw) if byte in TAGS] if kind in ("tag", "length") else []
        if kind == "flip":
            raw[at] ^= 1 << rng.randrange(8)
        elif kind == "tag" and tags:
            raw[rng.choice(tags)] = rng.choice(TAGS)
        elif kind == "cut":
            del raw[at:]
        elif kind == "length" and tags:
            at = rng.choice(tags) + rng.choice((1, 5))  # a length, or a count
            near = int.from_bytes(raw[at : at + 4], "big") + rng.choice((-1, 1))
            value = rng.choice((*LENGTHS, near % 2**32))
            raw[at : at + 4] = value.to_bytes(4, "big")
        elif kind == "splice":
            donor = rng.choice(corpus)
            start = rng.randrange(len(donor))
            raw[at:at] = donor[start : start + rng.randrange(1, 64)]
        elif kind == "double":
            raw[at:at] = raw[at : at + rng.randrange(1, 48)]
        elif kind == "drop":
            del raw[at : at + rng.randrange(1, 16)]
    return bytes(raw)


def corpus() -> list[bytes]:
    frames = [wire.encode_datagram("kv-e1", "kv-e2", SAMPLES[label]) for label in sorted(SAMPLES)]
    frames.append(wire.encode_datagram("a", "b", {"plain": [1, 2.5, None, True, b"x"]}))
    return frames


def mutated_frames(seed: int, count: int) -> list[bytes]:
    """``count`` mutated datagram bodies, the same for the same ``seed``."""
    rng, frames = random.Random(seed), corpus()
    return [mutate(rng.choice(frames), rng, frames) for _ in range(count)]


# Byte mutations mostly die of a length that no longer adds up. These edit
# the item tree instead and re-lay every length, so they reach what lies
# behind well-formed TLV: coercers, constructors, counts that do not match
# a class, items in another order, one type where another is expected.


def to_nodes(raw: bytes, pos: int = 0):
    """``raw`` as a tree: an atom is its bytes, ``L`` is ``[b"L", items]``,
    ``M`` is ``[b"M", [key, value] pairs]``, ``O`` is ``[b"O", [name, *values]]``;
    and where the value ends."""
    tag = raw[pos : pos + 1]
    if tag in b"NTFD":
        end = pos + (9 if tag == b"D" else 1)
        return raw[pos:end], end
    end = pos + 5 + int.from_bytes(raw[pos + 1 : pos + 5], "big")
    if tag in b"SBI":
        return raw[pos:end], end
    count, pos, items = int.from_bytes(raw[pos + 5 : pos + 9], "big"), pos + 9, []
    for _ in range(count + (tag == b"O")):
        item, pos = to_nodes(raw, pos)
        if tag == b"M":
            value, pos = to_nodes(raw, pos)
            item = [item, value]
        items.append(item)
    return [tag, items], end


def to_bytes(node) -> bytes:
    if isinstance(node, bytes):
        return node
    tag, items = node
    parts = [part for pair in items for part in pair] if tag == b"M" else items
    body = b"".join(map(to_bytes, parts))
    return tag + struct.pack(">II", len(body) + 4, len(items) - (tag == b"O")) + body


def values_of(node, found):
    """Every value in the tree, atoms and containers, ``node`` first."""
    found.append(node)
    if isinstance(node, list):
        for item in node[1]:
            values_of(item[1] if node[0] == b"M" else item, found)
    return found


def restructure(payload: bytes, rng: random.Random, donors: list[bytes]) -> bytes:
    """One to three of: a container's items shuffled, one repeated, dropped,
    inserted or replaced by a subtree of another message, a mapping key or a
    class name renamed, a message named where it was not or unnamed where it was."""
    tree = [b"L", [to_nodes(payload)[0]]]  # a root, so the payload is an item too
    for _ in range(rng.choice((1, 1, 2, 3))):
        found = [node for node in values_of(tree, []) if isinstance(node, list)]
        node = rng.choice(found)
        tag, items = node
        graft = rng.choice(values_of(to_nodes(rng.choice(donors))[0], []))
        first = 1 if tag == b"O" else 0  # an O's name stays first
        kind = rng.choice(("shuffle", "repeat", "drop", "insert", "replace", "rename", "name"))
        if kind == "shuffle":
            rest = items[first:]
            rng.shuffle(rest)
            items[first:] = rest
        elif kind == "repeat" and len(items) > first:
            items.insert(rng.randrange(first, len(items) + 1), rng.choice(items[first:]))
        elif kind == "drop" and len(items) > first:
            del items[rng.randrange(first, len(items))]
        elif kind == "insert":
            key = canonical_bytes(rng.choice(("zz", "auth", "view", "")))
            at = rng.randrange(first, len(items) + 1)
            items.insert(at, [key, graft] if tag == b"M" else graft)
        elif kind == "replace" and len(items) > first:
            at = rng.randrange(first, len(items))
            items[at] = [items[at][0], graft] if tag == b"M" else graft
        elif kind == "rename" and tag == b"O":
            items[0] = canonical_bytes(rng.choice(NAMES + ["NoSuchType"]))
        elif kind == "rename" and items and tag == b"M":
            keys = [pair[0] for kind_, pairs in found if kind_ == b"M" for pair in pairs]
            items[rng.randrange(len(items))][0] = rng.choice(keys)
        elif kind == "name" and tag == b"O":
            node[:] = [b"L", items[1:]]
        elif kind == "name" and tag == b"L" and node is not tree:
            node[:] = [b"O", [canonical_bytes(rng.choice(NAMES)), *items]]
    return b"".join(map(to_bytes, tree[1]))  # none, one, or several: all judged


def restructured_frames(seed: int, count: int) -> list[bytes]:
    rng = random.Random(seed)
    payloads = [wire.encode_wire_payload(SAMPLES[label]) for label in sorted(SAMPLES)]
    return [in_envelope(restructure(rng.choice(payloads), rng, payloads)) for _ in range(count)]


def judge(body: bytes) -> str:
    """Hold the product to the reference on one frame; say how it went."""
    verdict, got = outcome(wire.decode_datagram, body)
    expected_verdict, expected = outcome(reference.decode_datagram, body)
    if verdict == "raised":
        assert got is WireCodecError, f"{got.__name__} escaped on {body.hex()}"
    if expected_verdict == "raised":
        assert expected is WireCodecError  # the oracle's own contract
    assert verdict == expected_verdict, f"{verdict} where the reference {expected_verdict}: {body.hex()}"
    if verdict == "ok":
        assert same(got, expected), body.hex()
        return "both accept"
    return "both reject"


def tally(frames: list[bytes]) -> dict[str, int]:
    counts = dict.fromkeys(("both accept", "both reject"), 0)
    for body in frames:
        counts[judge(body)] += 1
    return counts


@pytest.mark.parametrize("seed", range(4))
def test_mutated_frames_are_judged_as_the_reference_judges_them(seed):
    counts = tally(mutated_frames(seed, 1500))
    # The fuzz reaches both sides: mutants survive, mutants die.
    assert counts["both accept"] > 40 and counts["both reject"] > 500, counts


@pytest.mark.parametrize("seed", range(4))
def test_restructured_frames_are_judged_as_the_reference_judges_them(seed):
    counts = tally(restructured_frames(seed, 1500))
    assert counts["both accept"] > 300 and counts["both reject"] > 300, counts


def test_every_unmutated_frame_is_accepted_by_both():
    assert {judge(body) for body in corpus()} == {"both accept"}


def laid(tag: bytes, *items: bytes, count: int | None = None) -> bytes:
    """A container of ``tag`` holding ``items`` (already encoded); its count
    is the number of items unless given."""
    body = b"".join(items)
    count = len(items) if count is None else count
    return tag + struct.pack(">II", len(body) + 4, count) + body


def named(name: str, *values: bytes, count: int | None = None) -> bytes:
    """A named message: ``O``, the field count, the class name, ``values``."""
    count = len(values) if count is None else count
    return laid(b"O", canonical_bytes(name), *values, count=count)


def field_values(message, **values) -> list[bytes]:
    """The fields of ``message`` in declaration order, each as the writer
    lays it (from ``values`` where it names the field)."""
    plan = schema.plan_of(type(message))
    top = wire.encode_wire_payload(message)
    found = to_nodes(top)[0][1][1:]
    return [
        wire.encode_wire_payload(values[name]) if name in values else to_bytes(node)
        for name, node in zip(plan.names, found)
    ]


def in_envelope(payload: bytes, src: bytes = b"a", dst: bytes = b"b") -> bytes:
    """``encode_datagram``'s layout around raw (possibly invalid) parts."""
    return laid(
        b"L",
        b"S" + struct.pack(">I", len(dst)) + dst,
        b"B" + struct.pack(">I", len(payload)) + payload,
        b"S" + struct.pack(">I", len(src)) + src,
    )


def refused_by_both(payload: bytes) -> None:
    """``payload`` is a ``WireCodecError`` to both codecs, alone and in an
    envelope, and nothing else escapes."""
    for codec in (wire, reference):
        assert outcome(codec.decode_wire_payload, payload) == ("raised", WireCodecError)
    assert judge(in_envelope(payload)) == "both reject"


def test_an_envelope_out_of_layout_is_refused_by_both():
    """Three items, ``dst`` ``p`` ``src``, in that order: nothing else."""
    dst, p, src = canonical_bytes("b"), canonical_bytes(canonical_bytes(7)), canonical_bytes("a")
    in_layout = laid(b"L", dst, p, src)
    assert in_layout == wire.encode_datagram("a", "b", 7)
    assert judge(in_layout) == "both accept"
    for body in (
        laid(b"L", src, dst, p),  # another order
        laid(b"L", dst, p, src, canonical_bytes(None)),  # a fourth item
        laid(b"L", dst, p, src, count=2),
        laid(b"L", dst, p, src, count=4),
        laid(b"M", dst, p, src, count=3),  # another container
        canonical_bytes({"dst": "b", "p": canonical_bytes(7), "src": "a"}),  # the old mapping
        laid(b"L", dst, canonical_bytes(7), src),  # p not bytes
        laid(b"L", canonical_bytes(7), p, src),  # dst not a string
    ):
        assert judge(body) == "both reject"


def test_fields_out_of_declaration_order_are_refused():
    """Where the reversed fields' types differ the frame is refused; the
    name-keyed mapping the wire used to carry is no message at all."""
    prepare = SAMPLES["PrepareMsg"]
    values = field_values(prepare)
    refused_by_both(named("PrepareMsg", *values[::-1]))
    old_form = canonical_bytes({"__wire__": "PrepareMsg", "f": {"view": 1}})
    assert wire.decode_wire_payload(old_form) == {"__wire__": "PrepareMsg", "f": {"view": 1}}
    assert judge(in_envelope(old_form)) == "both accept"  # ... a plain mapping


def test_a_message_with_a_field_too_many_or_too_few_is_refused():
    prepare = SAMPLES["PrepareMsg"]
    values = field_values(prepare)
    assert named("PrepareMsg", *values) == wire.encode_wire_payload(prepare)
    for payload in (
        named("PrepareMsg", *values, canonical_bytes(None)),  # one more, counted
        named("PrepareMsg", *values[:-1]),  # one fewer, counted
        named("PrepareMsg", *values, count=len(values) + 1),  # the count alone
        named("PrepareMsg", *values, count=len(values) - 1),
        named("PrepareMsg", *values[:-1], count=len(values)),  # the items alone
        named("PrepareMsg"),
    ):
        refused_by_both(payload)


HOSTILE = {
    "empty": b"",
    "one byte": b"L",
    "short of the first head": wire.encode_datagram("a", "b", 7)[:10],
    "short of the payload head": wire.encode_datagram("a", "b", 7)[:17],
    "short of the source head": wire.encode_datagram("a", "b", 7)[:-4],
    "src is not UTF-8": in_envelope(canonical_bytes(7), src=b"\xff\xfe"),
    "dst is not UTF-8": in_envelope(canonical_bytes(7), dst=b"\xc3"),
    "wire name is not UTF-8": in_envelope(
        laid(b"O", b"S\x00\x00\x00\x02\xff\xfe", count=0)
    ),
    "wire name is not a string": in_envelope(laid(b"O", canonical_bytes(7), count=0)),
    "no wire name": in_envelope(laid(b"O", count=0)),
    "a str field is not UTF-8": in_envelope(
        named("PrepareMsg", *field_values(SAMPLES["PrepareMsg"])[:3],
              b"S\x00\x00\x00\x02\xff\xfe", canonical_bytes(None))
    ),
    "mapping key is not UTF-8": in_envelope(laid(b"M", b"S\x00\x00\x00\x01\xff", b"N", count=1)),
    # The name-keyed form the wire used to carry is a plain mapping now; with
    # a key that is no string it is no value at all.
    "field key is a list": in_envelope(canonical_bytes({"__wire__": "PrepareMsg", "f": {}})
                                       .replace(b"M\x00\x00\x00\x04\x00\x00\x00\x00",
                                                laid(b"M", canonical_bytes(["view"]), b"N", count=1))),
    "field key is not UTF-8": in_envelope(canonical_bytes({"__wire__": "PrepareMsg", "f": {}})
                                          .replace(b"M\x00\x00\x00\x04\x00\x00\x00\x00",
                                                   laid(b"M", b"S\x00\x00\x00\x02\xff\xfe", b"N", count=1))),
    "constructor misses its arguments": in_envelope(named("PrepareMsg")),
    "fields is a list": in_envelope(
        named("PrepareMsg", canonical_bytes(list(dataclasses.astuple(SAMPLES["PrepareMsg"]))[:4]))
    ),
    "fields is a message": in_envelope(named("PrepareMsg", wire.encode_wire_payload(SAMPLES["CommitMsg"]))),
    "integer is not decimal": in_envelope(b"I\x00\x00\x00\x03abc"),
    "int field is not decimal": in_envelope(
        named("PrepareMsg", b"I\x00\x00\x00\x03abc", *field_values(SAMPLES["PrepareMsg"])[1:])
    ),
    "coercer meets an int": in_envelope(
        named("ViewChangeMsg", *field_values(SAMPLES["ViewChangeMsg"], checkpoints=7))
    ),
    "coercer meets a wrong arity": in_envelope(
        named("ViewChangeMsg", *field_values(SAMPLES["ViewChangeMsg"], checkpoints=[[1, 2, 3]]))
    ),
    "constructor refuses a value": in_envelope(
        named("OpenRequest", *field_values(SAMPLES["OpenRequest"], requester_kind="nobody"))
    ),
    "a named message where an unnamed one is due": in_envelope(
        named("PrePrepareMsg", *field_values(
            SAMPLES["PrePrepareMsg"], batch=SAMPLES["PrePrepareMsg"].batch))
    ),
    "an unnamed message where a list of them is due": in_envelope(
        named("FillMsg", field_values(SAMPLES["FillMsg"])[0][9:], canonical_bytes("e1"))
    ),
    "nesting bomb": nested_lists(3000),
    "nesting bomb in an envelope": in_envelope(nested_lists(3000)),
    "last byte missing": in_envelope(canonical_bytes(7))[:-1],
    "payload length past the body": laid(
        b"L", canonical_bytes("b"), b"B" + struct.pack(">I", 9999) + canonical_bytes(7),
        canonical_bytes("a"),
    ),
}


@pytest.mark.parametrize("label", sorted(HOSTILE))
def test_hostile_frame_is_a_codec_error_to_both(label):
    with pytest.raises(WireCodecError):
        wire.decode_datagram(HOSTILE[label])
    assert judge(HOSTILE[label]) == "both reject"


def test_an_over_long_decimal_is_judged_as_the_reference_judges_it():
    """CPython >= 3.11 refuses to parse more than 4,300 digits (a
    ``ValueError``); 3.10 parses them. Either way: what the reference does."""
    assert judge(in_envelope(b"I" + struct.pack(">I", 5000) + b"7" * 5000)) in (
        "both accept",
        "both reject",
    )


def in_lists(raw: bytes, levels: int) -> bytes:
    for _ in range(levels):
        raw = laid(b"L", raw)
    return raw


def test_nesting_is_bounded_exactly_where_the_reference_bounds_it():
    assert judge(in_envelope(in_lists(b"N", MAX_PARSE_DEPTH))) == "both accept"
    assert judge(in_envelope(in_lists(b"N", MAX_PARSE_DEPTH + 1))) == "both reject"
    # A message spends one level, and each message inside it one more.
    message = wire.encode_wire_payload(SAMPLES["ClientRequest"])
    assert judge(in_envelope(in_lists(message, MAX_PARSE_DEPTH - 1))) == "both accept"
    assert judge(in_envelope(in_lists(message, MAX_PARSE_DEPTH))) == "both reject"
    with pytest.raises(WireCodecError, match="nested deeper"):
        wire.decode_wire_payload(in_lists(message, MAX_PARSE_DEPTH))
    batch = wire.encode_wire_payload(SAMPLES["BatchMsg"])  # its list, its requests: 3
    assert judge(in_envelope(in_lists(batch, MAX_PARSE_DEPTH - 3))) == "both accept"
    assert judge(in_envelope(in_lists(batch, MAX_PARSE_DEPTH - 2))) == "both reject"


def test_every_registered_message_has_a_field_without_a_default():
    """A short frame is refused by its count; it could not be built either:
    the reader passes every value positionally, and no registered class
    would make up a missing one from a default."""
    for name, cls in schema.registered().items():
        required = [
            field.name
            for field in dataclasses.fields(cls)
            if field.default is field.default_factory is dataclasses.MISSING
        ]
        assert required, name


# -- (c) every registered plan, through its compiled writer and reader ----------------


def plan_sample(name):
    return sample(schema.registered()[name])


@pytest.mark.parametrize("name", NAMES)
def test_every_plan_writes_and_reads_as_the_reference_does(name):
    """Honest values in every auth form are written byte for byte as the
    reference writes them and read back equal."""
    message = plan_sample(name)
    honest = [message]
    if "auth" in schema.plan_of(type(message)).names:
        honest += [dataclasses.replace(message, auth=auth)
                   for auth in (None, b"\x0b" * 32, {"e1": b"\x01" * 8, "e2": b"\x02" * 8})]
    for value in honest:
        assert_codecs_agree_on(value)
        assert same(wire.decode_wire_payload(wire.encode_wire_payload(value)), value)


@pytest.mark.parametrize("name", NAMES)
def test_a_bool_in_an_int_field_is_still_t_or_f(name):
    """A ``bool`` is an ``int``: an int field may hold one, laid ``T``/``F``
    in the int's place, and it comes back a ``bool``."""
    message = plan_sample(name)
    plan = schema.plan_of(type(message))
    int_fields = [field for field in plan.names if plan.hints[field] is int]
    for field, flag in zip(int_fields, itertools.cycle((True, False))):
        value = with_field(message, plan.names.index(field), flag)
        assert_codecs_agree_on(value)
        position = plan.names.index(field)
        assert field_values(value)[position] == (b"T" if flag else b"F")
        assert getattr(wire.decode_wire_payload(wire.encode_wire_payload(value)), field) is flag


#: Values of every other tag for each atom-hinted slot.
WRONG = {int: ["7", b"7", None, 2.5, [7], {"k": 7}], bytes: [7, "7", None, True, 2.5, [b"7"]],
         str: [b"7", 7, None, False, 2.5, ["7"]], bool: [1, "T", b"T", None, 2.5, [True]]}


def off_layout(message) -> dict[str, bytes]:
    """label -> payload bytes off the writer's layout for ``message``'s plan,
    each of which both codecs refuse."""
    plan = schema.plan_of(type(message))
    values = field_values(message)
    shapes = {
        "one field too many": named(plan.name, *values, canonical_bytes(1)),
        "one field too few": named(plan.name, *values[:-1]),
        "count one over": named(plan.name, *values, count=len(values) + 1),
        "count one under": named(plan.name, *values, count=len(values) - 1),
        "trailing bytes": named(plan.name, *values) + b"N",
        "trailing bytes inside": laid(b"O", canonical_bytes(plan.name), *values, b"N",
                                      count=len(values)),
        "another name": named("NoSuchType", *values),
    }
    for position, name in enumerate(plan.names):
        for index, wrong in enumerate(WRONG.get(plan.hints[name], ())):
            shapes[f"{name} holds {type(wrong).__name__} #{index}"] = named(
                plan.name, *field_values(message, **{name: wrong})
            )
    return shapes


@pytest.mark.parametrize("name", NAMES)
def test_every_plan_hands_frames_off_its_layout_to_the_key_by_key_path(name):
    """Named for the key-by-key fallback reader such frames once went to.
    There is none now: every frame off the plan's layout is refused, by
    the compiled reader and the reference alike."""
    for label, payload in off_layout(plan_sample(name)).items():
        assert judge(in_envelope(payload)) == "both reject", label


# -- (d) hostile positional frames, as properties ------------------------------------


PLANS = st.sampled_from(NAMES).map(plan_sample)


@settings(max_examples=200, deadline=None)
@given(PLANS, st.sampled_from((-1, 1)), st.booleans())
def test_a_field_count_off_by_one_is_refused(message, by, items_too):
    """The head's count one off, with the items to match it or not."""
    values = field_values(message)
    plan = schema.plan_of(type(message))
    if items_too:
        values = values + [canonical_bytes(0)] if by > 0 else values[:-1]
    refused_by_both(named(plan.name, *values, count=len(plan.names) + by))


ATOM_POSITIONS = [
    (name, field, atom)
    for name in NAMES
    for field, atom in schema.plan_of(schema.registered()[name]).hints.items()
    if atom in WRONG
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ATOM_POSITIONS), st.data())
def test_a_wrong_atom_tag_in_any_position_is_refused(position, data):
    name, field, atom = position
    wrong = data.draw(st.sampled_from(WRONG[atom]))
    refused_by_both(named(name, *field_values(plan_sample(name), **{field: wrong})))


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=12).filter(lambda text: text not in NAMES), PLANS)
def test_an_unregistered_top_level_name_is_refused(name, message):
    refused_by_both(named(name, *field_values(message)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SAMPLES)), st.binary(min_size=1, max_size=12), st.booleans())
def test_trailing_bytes_are_refused(label, tail, inside):
    """After the payload, or inside the message's container past its last field."""
    message = SAMPLES[label]
    if inside:
        plan = schema.plan_of(type(message))
        payload = laid(b"O", canonical_bytes(plan.name), *field_values(message), tail,
                       count=len(plan.names))
    else:
        payload = wire.encode_wire_payload(message) + tail
    refused_by_both(payload)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(SAMPLES)))
def test_nesting_one_past_the_bound_is_refused(label):
    """Each sample in plain lists to exactly the bound is taken; one level
    more is refused by both."""
    payload = wire.encode_wire_payload(SAMPLES[label])
    depth = 1 + max(
        (len(path) for path in container_paths(to_nodes(payload)[0])), default=0
    )
    at_bound = in_lists(payload, MAX_PARSE_DEPTH - depth)
    assert judge(in_envelope(at_bound)) == "both accept"
    refused_by_both(laid(b"L", at_bound))


def container_paths(node, path=()):
    """Every chain of containers below ``node`` (each a tuple of tags)."""
    if not isinstance(node, list):
        return []
    tag, items = node
    children = [value for _, value in items] if tag == b"M" else items
    found = [path]
    for child in children:
        if isinstance(child, list):
            found += container_paths(child, (*path, child[0]))
    return found
