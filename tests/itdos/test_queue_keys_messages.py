"""Unit tests for the message queue, key store, and payload serialisation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.dprf import dprf_setup
from repro.crypto.groups import TOY_GROUP
from repro.crypto.symmetric import KEY_SIZE, SymmetricKey
from repro.itdos.keys import KeyStore
from repro.itdos.messages import (
    ChangeRequest,
    CoinMessage,
    OpenRequest,
    PayloadError,
    ProofItem,
    SmiopReply,
    SmiopRequest,
    key_share_from_dict,
    key_share_to_dict,
    parse_payload,
)
from repro.itdos.queuestate import MessageQueue, QueueOverflow


# -- MessageQueue ---------------------------------------------------------------


def test_queue_fifo_order():
    queue = MessageQueue()
    queue.append(1, b"a")
    queue.append(2, b"b")
    assert queue.pop_head().payload == b"a"
    assert queue.pop_head().payload == b"b"
    assert queue.processed_count == 2


def test_queue_sequence_must_not_decrease():
    queue = MessageQueue()
    queue.append(5, b"x")
    # Equal sequence numbers are fine: every request of one ordered batch
    # shares the batch's BFT sequence number.
    queue.append(5, b"y")
    with pytest.raises(ValueError):
        queue.append(4, b"z")


def test_queue_overflow():
    queue = MessageQueue(max_bytes=10)
    queue.append(1, b"12345")
    with pytest.raises(QueueOverflow):
        queue.append(2, b"123456")


def test_queue_pop_first_preserves_order_of_rest():
    queue = MessageQueue()
    for i, payload in enumerate([b"a", b"target", b"c"], start=1):
        queue.append(i, payload)
    item = queue.pop_first(lambda p: p == b"target")
    assert item.payload == b"target"
    assert [i.payload for i in queue.items] == [b"a", b"c"]
    assert queue.pop_first(lambda p: p == b"nope") is None


def test_queue_snapshot_restore_roundtrip():
    queue = MessageQueue()
    queue.append(1, b"a")
    queue.append(2, b"b")
    queue.pop_head()
    snapshot = queue.snapshot()
    other = MessageQueue()
    other.restore(snapshot)
    assert other.processed_count == 1
    assert [i.payload for i in other.items] == [b"b"]
    assert other.total_appended == 2
    assert other.bytes_held == 1


def test_queue_snapshot_deterministic():
    def build():
        queue = MessageQueue()
        queue.append(1, b"x")
        queue.append(2, b"y")
        return queue.snapshot()

    assert build() == build()


def test_queue_restore_rejects_garbage():
    queue = MessageQueue()
    with pytest.raises(ValueError):
        queue.restore(b"not canonical")


def test_queue_byte_accounting():
    queue = MessageQueue()
    queue.append(1, b"abc")
    queue.append(2, b"de")
    assert queue.bytes_held == 5
    queue.pop_head()
    assert queue.bytes_held == 2


# -- KeyStore ------------------------------------------------------------------


@pytest.fixture(scope="module")
def dprf():
    return dprf_setup(TOY_GROUP, n=4, f=1, rng=random.Random(0))


def test_key_assembly_completes_at_threshold(dprf):
    public, holders = dprf
    store = KeyStore(public)
    nonce = b"conn-1-key-0"
    assert store.offer_share("gm-0", 1, 0, nonce, holders[0].evaluate(nonce)) is None
    key = store.offer_share("gm-1", 1, 0, nonce, holders[1].evaluate(nonce))
    assert key is not None
    assert store.current_key(1).material == key.material


def test_invalid_share_recorded_and_excluded(dprf):
    public, holders = dprf
    store = KeyStore(public)
    nonce = b"n"
    good = holders[0].evaluate(nonce)
    from repro.crypto.dprf import KeyShare

    forged = KeyShare(index=2, value=good.value, proof=good.proof)
    assert store.offer_share("gm-2", 1, 0, nonce, forged) is None
    assert store.invalid_share_events == [("gm-2", 1, 0)]
    # Honest shares still assemble.
    store.offer_share("gm-0", 1, 0, nonce, good)
    key = store.offer_share("gm-1", 1, 0, nonce, holders[1].evaluate(nonce))
    assert key is not None


def test_mismatching_nonce_rejected(dprf):
    public, holders = dprf
    store = KeyStore(public)
    store.offer_share("gm-0", 1, 0, b"nonce-A", holders[0].evaluate(b"nonce-A"))
    assert (
        store.offer_share("gm-1", 1, 0, b"nonce-B", holders[1].evaluate(b"nonce-B"))
        is None
    )
    assert ("gm-1", 1, 0) in store.invalid_share_events


def test_rekey_generation_supersedes(dprf):
    public, holders = dprf
    store = KeyStore(public)
    for key_id, nonce in [(0, b"gen0"), (1, b"gen1")]:
        for holder, gm in zip(holders[:2], ("gm-0", "gm-1")):
            store.offer_share(gm, 1, key_id, nonce, holder.evaluate(nonce))
    assert store.current_key(1).key_id == 1
    assert store.key_for(1, 0) is not None  # recent generations retained
    # Generations older than the retention window are dropped.
    from repro.itdos.keys import ConnectionKeys

    horizon = ConnectionKeys.RETAINED_GENERATIONS + 1
    for holder, gm in zip(holders[:2], ("gm-0", "gm-1")):
        store.offer_share(
            gm, 1, horizon, b"gen-far", holder.evaluate(b"gen-far")
        )
    assert store.key_for(1, 0) is None
    assert store.key_for(1, horizon) is not None
    assert store.current_key(1).key_id == horizon


def test_when_key_callback_fires(dprf):
    public, holders = dprf
    store = KeyStore(public)
    fired = []
    store.when_key(1, 0, fired.append)
    nonce = b"n"
    store.offer_share("gm-0", 1, 0, nonce, holders[0].evaluate(nonce))
    assert not fired
    store.offer_share("gm-1", 1, 0, nonce, holders[1].evaluate(nonce))
    assert len(fired) == 1
    # Late subscription fires immediately.
    late = []
    store.when_key(1, 0, late.append)
    assert len(late) == 1


def test_duplicate_share_index_ignored(dprf):
    public, holders = dprf
    store = KeyStore(public)
    nonce = b"n"
    store.offer_share("gm-0", 1, 0, nonce, holders[0].evaluate(nonce))
    assert store.offer_share("gm-0b", 1, 0, nonce, holders[0].evaluate(nonce)) is None
    assert store.current_key(1) is None  # still only one distinct index


def test_first_seen_nonce_does_not_own_the_assembly(dprf):
    """A share verifies against whatever nonce its holder evaluated, so one
    GM element getting in first with its own nonce must not lock the
    honest ones out: the key combines from the nonce f_gm+1 agree on."""
    public, holders = dprf
    store = KeyStore(public)
    assert store.offer_share("gm-3", 1, 0, b"liar", holders[3].evaluate(b"liar")) is None
    assert store.offer_share("gm-0", 1, 0, b"true", holders[0].evaluate(b"true")) is None
    key = store.offer_share("gm-1", 1, 0, b"true", holders[1].evaluate(b"true"))
    assert key is not None and store.current_key(1).material == key.material
    # The disagreement is on record, but only as soft "nonce" evidence
    # against whoever differed from the first-seen nonce.
    assert {gm for gm, _, _ in store.invalid_share_events} == {"gm-0", "gm-1"}


def test_shares_only_combine_when_their_envelopes_agree(dprf):
    """``claims`` — the connection metadata of the envelope a share came in
    — is part of what f_gm+1 elements must agree on: a valid share for the
    right nonce under different claims is a different statement."""
    public, holders = dprf
    store = KeyStore(public)
    nonce = b"n"
    honest, liar = ("alice", "singleton"), ("mallory", "singleton")
    store.offer_share("gm-3", 1, 0, nonce, holders[3].evaluate(nonce), claims=liar)
    assert (
        store.offer_share("gm-0", 1, 0, nonce, holders[0].evaluate(nonce), claims=honest)
        is None
    )
    assert store.current_key(1) is None  # two valid shares, two statements
    key = store.offer_share(
        "gm-1", 1, 0, nonce, holders[1].evaluate(nonce), claims=honest
    )
    assert key is not None
    assert store.invalid_share_events == []  # same nonce throughout


def test_straggler_share_after_assembly_is_still_verified(dprf):
    public, holders = dprf
    store = KeyStore(public)
    nonce = b"n"
    for index, gm in enumerate(("gm-0", "gm-1")):
        store.offer_share(gm, 1, 0, nonce, holders[index].evaluate(nonce))
    assert store.current_key(1) is not None
    good = holders[2].evaluate(nonce)
    assert store.offer_share("gm-2", 1, 0, nonce, good) is None
    assert store.invalid_share_events == []
    forged = type(good)(index=holders[3].index, value=good.value, proof=good.proof)
    assert store.offer_share("gm-3", 1, 0, nonce, forged) is None
    assert store.invalid_share_events == [("gm-3", 1, 0)]


# -- payload serialisation ---------------------------------------------------------


@pytest.mark.parametrize(
    "message",
    [
        SmiopRequest(conn_id=1, request_id=2, key_id=0, ciphertext=b"\x01\x02", sender="alice"),
        SmiopReply(
            conn_id=1, request_id=2, key_id=0, ciphertext=b"\x03",
            sender="calc-e0", signature=b"\x04" * 8,
        ),
        OpenRequest(
            requester="alice", requester_kind="singleton",
            requester_domain="", target_domain="calc",
        ),
        ChangeRequest(
            requester="alice", requester_kind="singleton", requester_domain="",
            accused_domain="calc", accused=("calc-e2",), request_id=3,
            proof=(ProofItem(sender="calc-e0", plaintext=b"p", signature=b"s"),),
        ),
        CoinMessage(phase="commit", pid="gm-0", value=b"\x05" * 32),
        CoinMessage(phase="reveal", pid="gm-1", value=b"\x06" * 32),
    ],
)
def test_payload_roundtrip(message):
    assert parse_payload(message.to_payload()) == message


def test_parse_payload_rejects_garbage():
    with pytest.raises(PayloadError):
        parse_payload(b"\xff\xfe garbage")
    from repro.crypto.encoding import canonical_bytes

    with pytest.raises(PayloadError):
        parse_payload(canonical_bytes({"kind": "martian"}))
    with pytest.raises(PayloadError):
        parse_payload(canonical_bytes([1, 2, 3]))


def test_open_request_validates_kind():
    with pytest.raises(ValueError):
        OpenRequest(
            requester="x", requester_kind="cabal",
            requester_domain="", target_domain="t",
        )


def test_key_share_dict_roundtrip(dprf):
    _, holders = dprf
    share = holders[0].evaluate(b"nonce")
    fields = key_share_to_dict(b"nonce", share)
    nonce, rebuilt = key_share_from_dict(fields)
    assert nonce == b"nonce"
    assert rebuilt == share


@settings(max_examples=25)
@given(
    conn=st.integers(min_value=0, max_value=2**31),
    req=st.integers(min_value=0, max_value=2**31),
    blob=st.binary(max_size=64),
)
def test_property_smiop_request_roundtrip(conn, req, blob):
    message = SmiopRequest(
        conn_id=conn, request_id=req, key_id=0, ciphertext=blob, sender="s"
    )
    assert parse_payload(message.to_payload()) == message


# -- key-epoch fence monotonicity under reordered announcements ---------------


def _gen(key_id):
    return SymmetricKey(material=bytes([key_id % 251]) * KEY_SIZE, key_id=key_id)


def test_fence_floor_monotonic_under_reordered_announcements():
    """A delayed pre-readmission generation must adopt the newer epoch
    fence it carries monotonically — never wind the fence (or epoch) back."""
    from repro.itdos.keys import ConnectionKeys

    keys = ConnectionKeys(conn_id=1)
    assert keys.install(_gen(0), epoch=1, fence_floor=0)
    assert keys.install(_gen(2), epoch=3, fence_floor=2)  # readmission
    assert keys.current_epoch == 3 and keys.fence_floor == 2
    # A reordered generation from the fenced-off epoch 1 arrives late:
    # its key material must be refused, and the fence must not regress.
    assert not keys.install(_gen(1), epoch=1, fence_floor=0)
    assert keys.current_epoch == 3 and keys.fence_floor == 2
    assert keys.get(1) is None


def test_fence_raise_purges_previously_installed_epochs():
    from repro.itdos.keys import ConnectionKeys

    keys = ConnectionKeys(conn_id=1)
    assert keys.install(_gen(0), epoch=1)
    assert keys.install(_gen(1), epoch=2)
    # Readmission at epoch 3 fences everything before epoch 2.
    assert keys.install(_gen(2), epoch=3, fence_floor=2)
    assert keys.get(0) is None  # epoch-1 generation purged
    assert keys.get(1) is not None  # epoch-2 generation survives
    assert keys.fence_floor == 2


def test_fence_announcement_adopted_even_when_key_rejected():
    """The fence rides authenticated share traffic: even a generation too
    old to install still moves the fence forward before being refused."""
    from repro.itdos.keys import ConnectionKeys

    keys = ConnectionKeys(conn_id=1)
    far = ConnectionKeys.RETAINED_GENERATIONS + 5
    assert keys.install(_gen(far), epoch=1)
    # This generation is below the retention window -> rejected, but its
    # (higher) epoch/fence announcement must still be adopted.
    assert not keys.install(_gen(0), epoch=4, fence_floor=3)
    assert keys.current_epoch == 4
    assert keys.fence_floor == 3
    assert keys.get(far) is None  # pre-floor epoch-1 key now fenced out


def test_parse_payload_wraps_missing_and_mistyped_fields():
    """A known-kind payload with fields missing or of the wrong type (a
    corrupted wire image) must raise PayloadError, never a raw KeyError /
    TypeError — every dispatch site catches only PayloadError."""
    from repro.crypto.encoding import canonical_bytes, parse_canonical

    message = SmiopRequest(
        conn_id=1, request_id=2, key_id=0, ciphertext=b"c", sender="alice"
    )
    fields = parse_canonical(message.to_payload())
    for missing in [k for k in fields if k != "kind"]:
        broken = {k: v for k, v in fields.items() if k != missing}
        with pytest.raises(PayloadError):
            parse_payload(canonical_bytes(broken))
    mistyped = dict(fields)
    mistyped["request_id"] = "not-an-int"
    try:
        parse_payload(canonical_bytes(mistyped))
    except PayloadError:
        pass  # either outcome is fine, as long as nothing else escapes


@pytest.mark.parametrize(
    "kind", [["x"], {"k": "x"}, 7, None, b"smiop_request", True, 2.5, [], ""]
)
def test_parse_payload_rejects_any_kind_value(kind):
    """The ``kind`` tag is attacker-controlled and need not be a string: an
    unhashable one used to escape the parser as a raw ``TypeError`` from
    the registry lookup, outside the ``try``."""
    from repro.crypto.encoding import canonical_bytes

    with pytest.raises(PayloadError):
        parse_payload(canonical_bytes({"kind": kind}))
    with pytest.raises(PayloadError):
        parse_payload(canonical_bytes({"kind": kind, "pid": "p", "value": b"v"}))


_NOT_A_SEQUENCE = [7, None, b"raw", "text", {"k": 1}]
_NOT_PROOF_ITEMS = [[7], [None], [["nested"]], [{"sender": "s"}], [{"sender": "s", "junk": 1}]]


@pytest.mark.parametrize(
    "field,garbage",
    [("accused", g) for g in _NOT_A_SEQUENCE]
    + [("proof", g) for g in _NOT_A_SEQUENCE + _NOT_PROOF_ITEMS],
)
def test_parse_payload_rejects_garbage_inside_change_request(field, garbage):
    from repro.crypto.encoding import canonical_bytes, parse_canonical

    message = ChangeRequest(
        requester="c",
        requester_kind="singleton",
        requester_domain="",
        accused_domain="kv",
        accused=("kv-e0",),
        request_id=3,
        proof=(ProofItem(sender="kv-e0", plaintext=b"p", signature=b"s"),),
    )
    fields = parse_canonical(message.to_payload())
    assert parse_payload(canonical_bytes(fields)) == message
    with pytest.raises(PayloadError):
        parse_payload(canonical_bytes({**fields, field: garbage}))


@pytest.mark.parametrize("target", ["kv", "gm"])
def test_client_ordered_poison_payload_leaves_the_domain_serving(target):
    """A registered singleton client gets ``{"kind": ["x"]}`` ordered. Every
    correct element must shrug it off — it used to raise out of the execute
    upcall and stay at the queue head, re-raising on every later request."""
    from repro.crypto.encoding import canonical_bytes
    from repro.workloads.scenarios import build_kv_system

    system = build_kv_system(f=1, seed=7)
    system.settle(1.0)
    client = system.add_client("mallory")
    stub = client.stub(system.ref("kv", b"kv"))
    stub.put("before", "1")
    endpoint = client.endpoint
    engine = endpoint.gm_engine if target == "gm" else endpoint.engine_for("kv")
    victims = system.gm_elements if target == "gm" else system.domain_elements("kv")
    executed = [element.last_executed for element in victims]
    engine.invoke(canonical_bytes({"kind": ["x"]}))
    system.settle(1.0)  # raised TypeError out of run() before the fix
    assert [e.last_executed for e in victims] == [n + 1 for n in executed]  # it WAS ordered
    stub.put("after", "2")
    system.settle(1.0)
    for element in system.domain_elements("kv"):
        assert element.orb.adapter.servant_for(b"kv").data == {"before": "1", "after": "2"}
        assert element.queue.head() is None and not element.diverged
