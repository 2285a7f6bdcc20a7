"""The plan-driven wire codec against the two-pass one it replaced.

``tests/net/reference_wire.py`` is the oracle. Three properties:

* **same bytes, same objects** on everything an honest sender builds: every
  sample message, hypothesis nestings of them, plain values;
* **same accept set on hostile bytes**: whatever the reader accepts the
  reference accepts with an equal result, and nothing the reference rejects
  gets through. The reader may reject *more* in exactly two ways, each
  pinned by a named example below: (i) an envelope that is not byte for
  byte what ``encode_datagram`` lays out, (ii) a nested message that does
  not build inside a value the two-pass decoder dropped unread (under an
  unknown field key, or under a key a later duplicate overwrote);
* **one exception type**: only ``WireCodecError`` leaves ``decode_datagram``.
"""

import dataclasses
import itertools
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import schema
from repro.bft import messages as bft
from repro.crypto.encoding import MAX_PARSE_DEPTH, canonical_bytes, parse_canonical
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
TAGS = b"SBILMNTFD"
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
    class Opaque:
        pass

    for value in (Opaque(), float("nan"), {1: "int key"}, {"k": Opaque()}, [{"a": 1, 2: 3}],
                  dataclasses.replace(SAMPLES["PrepareMsg"], auth={"k": Opaque()})):
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
# behind well-formed TLV: coercers, constructors, unknown and repeated
# keys, maps out of order, one type where another is expected.


def to_nodes(raw: bytes, pos: int = 0):
    """``raw`` as a tree: an atom is its bytes, ``L`` is ``[b"L", items]``,
    ``M`` is ``[b"M", [key, value] pairs]``; and where the value ends."""
    tag = raw[pos : pos + 1]
    if tag in b"NTFD":
        end = pos + (9 if tag == b"D" else 1)
        return raw[pos:end], end
    end = pos + 5 + int.from_bytes(raw[pos + 1 : pos + 5], "big")
    if tag in b"SBI":
        return raw[pos:end], end
    count, pos, items = int.from_bytes(raw[pos + 5 : pos + 9], "big"), pos + 9, []
    for _ in range(count):
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
    parts = items if tag == b"L" else [part for pair in items for part in pair]
    body = b"".join(map(to_bytes, parts))
    return tag + struct.pack(">II", len(body) + 4, len(items)) + body


def values_of(node, found):
    """Every value in the tree, atoms and containers, ``node`` first."""
    found.append(node)
    if isinstance(node, list):
        for item in node[1]:
            values_of(item[1] if node[0] == b"M" else item, found)
    return found


def restructure(payload: bytes, rng: random.Random, donors: list[bytes]) -> bytes:
    """One to three of: a container's items shuffled, one repeated, dropped,
    inserted (under a key that is sometimes a field name) or replaced by a
    subtree of another message, a key renamed to another key of the tree."""
    tree = [b"L", [to_nodes(payload)[0]]]  # a root, so the payload is an item too
    for _ in range(rng.choice((1, 1, 2, 3))):
        found = [node for node in values_of(tree, []) if isinstance(node, list)]
        tag, items = rng.choice(found)
        graft = rng.choice(values_of(to_nodes(rng.choice(donors))[0], []))
        kind = rng.choice(("shuffle", "repeat", "drop", "insert", "replace", "rename"))
        if kind == "shuffle":
            rng.shuffle(items)
        elif kind == "repeat" and items:
            items.insert(rng.randrange(len(items) + 1), rng.choice(items))
        elif kind == "drop" and items:
            del items[rng.randrange(len(items))]
        elif kind == "insert":
            key = canonical_bytes(rng.choice(("zz", "auth", "f", "__wire__", "view", "")))
            items.insert(rng.randrange(len(items) + 1), [key, graft] if tag == b"M" else graft)
        elif kind == "replace" and items:
            at = rng.randrange(len(items))
            items[at] = [items[at][0], graft] if tag == b"M" else graft
        elif kind == "rename" and items and tag == b"M":
            keys = [pair[0] for kind_, pairs in found if kind_ == b"M" for pair in pairs]
            items[rng.randrange(len(items))][0] = rng.choice(keys)
    return b"".join(map(to_bytes, tree[1]))  # none, one, or several: all judged


def restructured_frames(seed: int, count: int) -> list[bytes]:
    rng = random.Random(seed)
    payloads = [wire.encode_wire_payload(SAMPLES[label]) for label in sorted(SAMPLES)]
    return [in_envelope(restructure(rng.choice(payloads), rng, payloads)) for _ in range(count)]


def without_what_two_passes_drop(raw: bytes) -> bytes:
    """``raw`` re-encoded without the values the two-pass decoder never
    decoded: overwritten duplicates (the tree lost them) and unknown field
    keys (``Plan.build`` skipped them)."""

    def keep(value):
        if type(value) is list:
            return [keep(item) for item in value]
        if type(value) is not dict:
            return value
        if len(value) == 2 and "__wire__" in value and "f" in value:
            names = schema.plan_named(value["__wire__"]).names
            fields = {key: keep(item) for key, item in value["f"].items() if key in names}
            return {"__wire__": value["__wire__"], "f": fields}
        return {key: keep(item) for key, item in value.items()}

    return canonical_bytes(keep(parse_canonical(raw)))


def judge(body: bytes) -> str:
    """Hold the product to the reference on one frame; say how it went."""
    verdict, got = outcome(wire.decode_datagram, body)
    expected_verdict, expected = outcome(reference.decode_datagram, body)
    if verdict == "raised":
        assert got is WireCodecError, f"{got.__name__} escaped on {body.hex()}"
    if expected_verdict == "raised":
        assert expected is WireCodecError  # the oracle's own contract
        assert verdict == "raised", f"accepted what the reference rejects: {body.hex()}"
        return "both reject"
    if verdict == "ok":
        assert same(got, expected), body.hex()
        return "both accept"
    # The reader rejected what the reference accepts: only (i) or (ii).
    envelope = parse_canonical(body)
    if canonical_bytes({key: envelope[key] for key in ("dst", "p", "src")}) != body:
        return "extra: envelope"
    cleaned = without_what_two_passes_drop(envelope["p"])  # its keys sorted, too
    assert same(wire.decode_wire_payload(cleaned), expected[2], key_order=False), body.hex()
    return "extra: dropped value"


def tally(frames: list[bytes]) -> dict[str, int]:
    counts = dict.fromkeys(
        ("both accept", "both reject", "extra: envelope", "extra: dropped value"), 0
    )
    for body in frames:
        counts[judge(body)] += 1
    return counts


@pytest.mark.parametrize("seed", range(4))
def test_mutated_frames_are_judged_as_the_reference_judges_them(seed):
    counts = tally(mutated_frames(seed, 1500))
    # The fuzz reaches every side: mutants survive, mutants die, and the
    # payload-level extra rejection stays the rarity it was sized as.
    assert counts["both accept"] > 40 and counts["both reject"] > 500, counts
    assert counts["extra: dropped value"] <= 15, counts


@pytest.mark.parametrize("seed", range(4))
def test_restructured_frames_are_judged_as_the_reference_judges_them(seed):
    counts = tally(restructured_frames(seed, 1500))
    assert counts["both accept"] > 300 and counts["both reject"] > 300, counts
    assert counts["extra: envelope"] == 0, counts  # the envelope was laid by the book


def test_every_unmutated_frame_is_accepted_by_both():
    assert {judge(body) for body in corpus()} == {"both accept"}


def hand_laid(*items: bytes, count: int | None = None) -> bytes:
    """An ``M`` holding ``items`` (already-encoded keys and values)."""
    body = b"".join(items)
    count = len(items) // 2 if count is None else count
    return b"M" + struct.pack(">II", len(body) + 4, count) + body


def test_extra_rejection_i_an_envelope_out_of_layout():
    """The reference takes any mapping with the three keys; the reader only
    ``encode_datagram``'s bytes."""
    dst, p, src = (
        (canonical_bytes(key), canonical_bytes(value))
        for key, value in (("dst", "b"), ("p", canonical_bytes(7)), ("src", "a"))
    )
    in_layout = hand_laid(*dst, *p, *src)
    assert in_layout == wire.encode_datagram("a", "b", 7)
    assert judge(in_layout) == "both accept"
    extra_key = (canonical_bytes("zzz"), canonical_bytes(None))
    for body in (
        hand_laid(*src, *dst, *p),  # key order
        hand_laid(*dst, *p, *src, *extra_key),  # a fourth key
        hand_laid(*dst, *p, *src, *src),  # a repeated key: four items
    ):
        assert reference.decode_datagram(body) == ("a", "b", 7)
        assert judge(body) == "extra: envelope"


def message_bytes(name: str, *field_items: bytes) -> bytes:
    return hand_laid(
        canonical_bytes("__wire__"), canonical_bytes(name),
        canonical_bytes("f"), hand_laid(*field_items),
    )


def test_extra_rejection_ii_a_broken_message_the_two_pass_decoder_never_built():
    prepare = SAMPLES["PrepareMsg"]
    good = wire.encode_wire_payload(prepare)
    fields = [
        part
        for name in sorted(schema.plan_of(bft.PrepareMsg).names)
        for part in (canonical_bytes(name), wire.encode_wire_payload(getattr(prepare, name)))
    ]
    assert message_bytes("PrepareMsg", *fields) == good
    broken = message_bytes("NoSuchType")
    healthy = wire.encode_wire_payload(SAMPLES["CommitMsg"])
    with pytest.raises(WireCodecError, match="unknown wire type"):
        wire.decode_wire_payload(broken)

    def datagram(payload):
        return canonical_bytes({"dst": "b", "p": payload, "src": "a"})

    # An unknown key is ignored by both - whatever well-formed value it holds.
    for ignored in (canonical_bytes([1, {"k": None}]), healthy):
        body = datagram(message_bytes("PrepareMsg", *fields, canonical_bytes("zz"), ignored))
        assert judge(body) == "both accept"
    # ... but the reader reads it, so a message that does not build is an error
    unknown_key = datagram(message_bytes("PrepareMsg", *fields, canonical_bytes("zz"), broken))
    assert same(reference.decode_datagram(unknown_key), ("a", "b", prepare))
    assert judge(unknown_key) == "extra: dropped value"
    # ... and so is one under a key that a later duplicate overwrites.
    overwritten = datagram(message_bytes("PrepareMsg", canonical_bytes("auth"), broken, *fields))
    assert same(reference.decode_datagram(overwritten), ("a", "b", prepare))
    assert judge(overwritten) == "extra: dropped value"
    # Malformed TLV under an ignored key was never acceptable to either.
    torn = datagram(message_bytes("PrepareMsg", *fields, canonical_bytes("zz"), b"S\x00\x00\x00\x09ab"))
    assert judge(torn) == "both reject"


def test_message_shape_out_of_canonical_order_is_still_the_message():
    """``f`` before ``__wire__``, fields unsorted, one absent (defaulted),
    a key repeated: no encoder of ours writes these; both decoders build."""
    prepare = SAMPLES["PrepareMsg"]
    items = {
        name: (canonical_bytes(name), wire.encode_wire_payload(getattr(prepare, name)))
        for name in schema.plan_of(bft.PrepareMsg).names
    }
    unsorted = [part for name in ("view", "sender", "seq", "request_digest", "auth") for part in items[name]]
    no_auth = [part for name in ("request_digest", "sender", "seq", "view") for part in items[name]]
    repeated = [*items["view"], *unsorted]
    for field_items, expected in (
        (unsorted, prepare),
        (no_auth, dataclasses.replace(prepare, auth=None)),
        (repeated, prepare),
    ):
        for payload in (
            message_bytes("PrepareMsg", *field_items),
            hand_laid(canonical_bytes("f"), hand_laid(*field_items),
                      canonical_bytes("__wire__"), canonical_bytes("PrepareMsg")),
        ):
            assert same(wire.decode_wire_payload(payload), expected)
            assert judge(canonical_bytes({"dst": "b", "p": payload, "src": "a"})) == "both accept"
    # Three items, one key twice: a two-key mapping to both decoders.
    doubled = hand_laid(canonical_bytes("__wire__"), canonical_bytes("CommitMsg"),
                        canonical_bytes("__wire__"), canonical_bytes("PrepareMsg"),
                        canonical_bytes("f"), hand_laid(*unsorted))
    assert same(wire.decode_wire_payload(doubled), prepare)
    assert same(reference.decode_wire_payload(doubled), prepare)


# -- (c) only WireCodecError -------------------------------------------------------


def in_envelope(payload: bytes, src: bytes = b"a", dst: bytes = b"b") -> bytes:
    """``encode_datagram``'s layout around raw (possibly invalid) parts."""
    return hand_laid(
        canonical_bytes("dst"), b"S" + struct.pack(">I", len(dst)) + dst,
        canonical_bytes("p"), b"B" + struct.pack(">I", len(payload)) + payload,
        canonical_bytes("src"), b"S" + struct.pack(">I", len(src)) + src,
    )


HOSTILE = {
    "empty": b"",
    "one byte": b"M",
    "short of the first head": wire.encode_datagram("a", "b", 7)[:20],
    "short of the payload head": wire.encode_datagram("a", "b", 7)[:25],
    "short of the source head": wire.encode_datagram("a", "b", 7)[:-6],
    "src is not UTF-8": in_envelope(canonical_bytes(7), src=b"\xff\xfe"),
    "dst is not UTF-8": in_envelope(canonical_bytes(7), dst=b"\xc3"),
    "wire name is not UTF-8": in_envelope(
        hand_laid(canonical_bytes("__wire__"), b"S\x00\x00\x00\x02\xff\xfe",
                  canonical_bytes("f"), hand_laid())
    ),
    "field key is not UTF-8": in_envelope(
        message_bytes("PrepareMsg", b"S\x00\x00\x00\x02\xff\xfe", canonical_bytes(1))
    ),
    "mapping key is not UTF-8": in_envelope(hand_laid(b"S\x00\x00\x00\x01\xff", b"N")),
    "field key is a list": in_envelope(
        message_bytes("PrepareMsg", canonical_bytes(["view"]), canonical_bytes(1))
    ),
    "integer is not decimal": in_envelope(b"I\x00\x00\x00\x03abc"),
    "coercer meets an int": in_envelope(
        message_bytes("BatchMsg", canonical_bytes("requests"), canonical_bytes(7))
    ),
    "coercer meets a wrong arity": in_envelope(
        message_bytes("NewViewMsg", canonical_bytes("view_changes"), canonical_bytes([[1, 2, 3]]))
    ),
    "constructor misses its arguments": in_envelope(message_bytes("PrepareMsg")),
    "fields is a list": in_envelope(
        hand_laid(canonical_bytes("__wire__"), canonical_bytes("PrepareMsg"),
                  canonical_bytes("f"), canonical_bytes([]))
    ),
    "fields is a message": in_envelope(
        hand_laid(canonical_bytes("f"), wire.encode_wire_payload(SAMPLES["CommitMsg"]),
                  canonical_bytes("__wire__"), canonical_bytes("PrepareMsg"))
    ),
    "nesting bomb": nested_lists(3000),
    "nesting bomb in an envelope": in_envelope(nested_lists(3000)),
    "last byte missing": in_envelope(canonical_bytes(7))[:-1],
    "payload length past the body": hand_laid(
        canonical_bytes("dst"), canonical_bytes("b"),
        canonical_bytes("p"), b"B" + struct.pack(">I", 9999) + canonical_bytes(7),
        canonical_bytes("src"), canonical_bytes("a"),
    ),
}


@pytest.mark.parametrize("label", sorted(HOSTILE))
def test_hostile_frame_is_a_codec_error_to_both(label):
    with pytest.raises(WireCodecError):
        wire.decode_datagram(HOSTILE[label])
    assert judge(HOSTILE[label]) == "both reject"


def test_every_registered_message_has_a_field_without_a_default():
    """Why "fields is a message" above is a rejection to both: read out of
    canonical order, ``f`` is already an object and the reader refuses it;
    the reference sees a dict with no field name in it and calls the
    constructor bare - a ``TypeError`` for every class there is."""
    for name, cls in schema.registered().items():
        required = [
            field.name
            for field in dataclasses.fields(cls)
            if field.default is field.default_factory is dataclasses.MISSING
        ]
        assert required, name


def test_an_over_long_decimal_is_judged_as_the_reference_judges_it():
    """CPython >= 3.11 refuses to parse more than 4,300 digits (a
    ``ValueError``); 3.10 parses them. Either way: what the reference does."""
    assert judge(in_envelope(b"I" + struct.pack(">I", 5000) + b"7" * 5000)) in (
        "both accept",
        "both reject",
    )


def test_nesting_is_bounded_exactly_where_the_reference_bounds_it():
    def in_lists(raw, levels):
        for _ in range(levels):
            raw = b"L" + struct.pack(">II", len(raw) + 4, 1) + raw
        return raw

    assert judge(in_envelope(in_lists(b"N", MAX_PARSE_DEPTH))) == "both accept"
    assert judge(in_envelope(in_lists(b"N", MAX_PARSE_DEPTH + 1))) == "both reject"
    # A message spends two levels: its mapping and its field map.
    message = wire.encode_wire_payload(SAMPLES["ClientRequest"])
    assert judge(in_envelope(in_lists(message, MAX_PARSE_DEPTH - 2))) == "both accept"
    assert judge(in_envelope(in_lists(message, MAX_PARSE_DEPTH - 1))) == "both reject"
    with pytest.raises(WireCodecError, match="nested deeper"):
        wire.decode_wire_payload(in_lists(message, MAX_PARSE_DEPTH - 1))


# -- (d) every registered plan, through its compiled writer and reader ----------------
#
# ``net/wire.py`` compiles a writer and a reader per plan from the field hints.
# The reader reads the writer's layout inline and hands anything else to the
# key-by-key path; these hold both paths to the reference for every plan,
# with the handing-over observed, not assumed.


@pytest.fixture
def handed_over(monkeypatch):
    """The plans whose compiled reader handed a field map to the key-by-key
    path (readers are recompiled against the counting fallback)."""
    plans = []
    fallback = wire._read_fields

    def counted(raw, pos, limit, depth, plan, *read_so_far):
        plans.append(plan.name)
        return fallback(raw, pos, limit, depth, plan, *read_so_far)

    monkeypatch.setattr(wire, "_read_fields", counted)
    monkeypatch.setattr(wire, "_READERS", {})
    return plans


def plan_sample(name):
    return sample(schema.registered()[name])


def field_items(message, names, **values):
    """The fields ``names`` of ``message`` in that order, each as the writer
    lays it: key item, then value (from ``values`` where it names the field,
    which need not pass the message's own validation)."""
    return [
        part for field in names
        for part in (canonical_bytes(field),
                     wire.encode_wire_payload(values.get(field, getattr(message, field))))
    ]


#: A value of another atom type for an ``int``/``bytes``/``str`` slot.
WRONG_TAG = {int: "7", bytes: 7, str: b"7"}


def off_layout(message):
    """label -> payload bytes outside the writer's layout for ``message``'s plan."""
    plan = schema.plan_of(type(message))
    names = sorted(plan.names)
    unknown = (canonical_bytes("zz"), canonical_bytes(1))
    shapes = {
        "unknown extra key": message_bytes(plan.name, *field_items(message, names), *unknown),
        "unknown key first": message_bytes(plan.name, *unknown, *field_items(message, names)),
    }
    if len(names) > 1:
        shapes["fields out of writer order"] = message_bytes(
            plan.name, *field_items(message, names[::-1])
        )
    for field in dataclasses.fields(message):
        if (field.default, field.default_factory) != (dataclasses.MISSING, dataclasses.MISSING):
            present = [name for name in names if name != field.name]
            shapes[f"defaulted {field.name} absent"] = message_bytes(
                plan.name, *field_items(message, present)
            )
        wrong = WRONG_TAG.get(plan.hints[field.name])
        if wrong is not None:
            shapes[f"wrong tag in {field.name}"] = message_bytes(
                plan.name, *field_items(message, names, **{field.name: wrong})
            )
    return shapes


@pytest.mark.parametrize("name", sorted(schema.registered()))
def test_every_plan_writes_and_reads_as_the_reference_does(name, handed_over):
    """Honest values in every auth form are written byte for byte as the
    reference writes them and read back by the compiled reader alone."""
    message = plan_sample(name)
    honest = [message]
    if "auth" in schema.plan_of(type(message)).names:
        honest += [dataclasses.replace(message, auth=auth)
                   for auth in (None, b"\x0b" * 32, {"e1": b"\x01" * 8, "e2": b"\x02" * 8})]
    for value in honest:
        assert_codecs_agree_on(value)
    assert handed_over == []


@pytest.mark.parametrize("name", sorted(schema.registered()))
def test_a_bool_in_an_int_field_is_still_t_or_f(name, handed_over):
    message = plan_sample(name)
    plan = schema.plan_of(type(message))
    int_fields = [field for field in sorted(plan.names) if plan.hints[field] is int]
    for field, flag in zip(int_fields, itertools.cycle((True, False))):
        value = with_field(message, plan.names.index(field), flag)
        assert_codecs_agree_on(value)
        assert canonical_bytes(field) + (b"T" if flag else b"F") in wire.encode_wire_payload(value)
    assert handed_over.count(name) == 2 * len(int_fields)  # decoded, then re-decoded


@pytest.mark.parametrize("name", sorted(schema.registered()))
def test_every_plan_hands_frames_off_its_layout_to_the_key_by_key_path(name, handed_over):
    for label, payload in off_layout(plan_sample(name)).items():
        handed_over.clear()
        assert judge(in_envelope(payload)) in ("both accept", "both reject"), label
        assert handed_over[:1] == [name], label
