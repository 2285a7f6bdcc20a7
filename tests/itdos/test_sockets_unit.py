"""Unit-level tests for the ITDOS socket layer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.digests import digest
from repro.crypto.encoding import canonical_bytes
from repro.itdos.messages import GmShareEnvelope, SmiopReply
from repro.itdos.sockets import traffic_nonce
from tests.itdos.conftest import CalculatorServant, make_system


def connected_system():
    system = make_system(seed=200)
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    stub.add(1.0, 1.0)
    connection = next(iter(client.endpoint.connections.values()))
    return system, client, stub, connection


def test_one_outstanding_request_enforced():
    system, client, stub, connection = connected_system()
    wire = client.orb.marshal_request(
        system.ref("calc", b"calc"), "add", (1.0, 2.0), request_id=2
    )
    connection.send_request(wire, lambda plaintext: None)
    wire2 = client.orb.marshal_request(
        system.ref("calc", b"calc"), "add", (3.0, 4.0), request_id=3
    )
    with pytest.raises(RuntimeError, match="outstanding"):
        connection.send_request(wire2, lambda plaintext: None)


def test_send_without_key_raises():
    system, client, stub, connection = connected_system()
    connection.endpoint.key_store.connections.clear()
    wire = client.orb.marshal_request(
        system.ref("calc", b"calc"), "add", (1.0, 2.0), request_id=2
    )
    with pytest.raises(RuntimeError, match="no communication key"):
        connection.send_request(wire, lambda plaintext: None)


def test_reply_with_bad_ciphertext_discarded():
    system, client, stub, connection = connected_system()
    discarded_before = connection.voter.discarded
    key = client.key_store.current_key(connection.conn_id)
    forged = SmiopReply(
        conn_id=connection.conn_id,
        request_id=99,
        key_id=key.key_id,
        ciphertext=b"\x00" * 64,
        sender="calc-e0",
        signature=b"\x00" * 32,
    )
    # Begin a matching outstanding request first so the id is current.
    wire = client.orb.marshal_request(
        system.ref("calc", b"calc"), "add", (1.0, 2.0), request_id=2
    )
    connection.send_request(wire, lambda plaintext: None)
    forged2 = SmiopReply(
        conn_id=connection.conn_id,
        request_id=2,
        key_id=key.key_id,
        ciphertext=b"\x00" * 64,
        sender="calc-e0",
        signature=b"\x00" * 32,
    )
    connection.handle_reply(forged2)
    assert connection.voter.discarded > discarded_before


def test_reply_with_forged_signature_discarded():
    from repro.crypto.symmetric import encrypt

    system, client, stub, connection = connected_system()
    key = client.key_store.current_key(connection.conn_id)
    wire = client.orb.marshal_request(
        system.ref("calc", b"calc"), "add", (1.0, 2.0), request_id=2
    )
    connection.send_request(wire, lambda plaintext: None)
    reply_wire = client.orb.marshal_request(  # any decodable bytes
        system.ref("calc", b"calc"), "add", (9.0, 9.0), request_id=2
    )
    nonce = traffic_nonce(connection.conn_id, 2, "calc-e0", "rep")
    forged = SmiopReply(
        conn_id=connection.conn_id,
        request_id=2,
        key_id=key.key_id,
        ciphertext=encrypt(key, reply_wire, nonce),
        sender="calc-e0",
        signature=b"\xde\xad" * 32,  # not calc-e0's signature
    )
    before = connection.voter.discarded
    connection.handle_reply(forged)
    assert connection.voter.discarded == before + 1


def test_share_envelope_for_someone_else_ignored():
    system, client, stub, connection = connected_system()
    envelope = GmShareEnvelope(
        gm_element="gm-0",
        recipient="bob",  # not alice
        conn_id=7,
        key_id=0,
        client="bob",
        client_kind="singleton",
        client_domain="",
        target_domain="calc",
        ciphertext=b"\x00" * 64,
    )
    assert client.endpoint.handle_gm_share("gm-0", envelope) is False


def test_share_envelope_spoofed_source_ignored():
    system, client, stub, connection = connected_system()
    envelope = GmShareEnvelope(
        gm_element="gm-0",
        recipient="alice",
        conn_id=7,
        key_id=0,
        client="alice",
        client_kind="singleton",
        client_domain="",
        target_domain="calc",
        ciphertext=b"\x00" * 64,
    )
    # src claims to be gm-1 but envelope says gm-0: reject.
    assert client.endpoint.handle_gm_share("gm-1", envelope) is False


def test_reply_from_wrong_source_not_routed():
    system, client, stub, connection = connected_system()
    key = client.key_store.current_key(connection.conn_id)
    reply = SmiopReply(
        conn_id=connection.conn_id,
        request_id=1,
        key_id=key.key_id,
        ciphertext=b"x",
        sender="calc-e0",
        signature=b"s",
    )
    # Network source differs from the claimed sender: not consumed.
    assert client.endpoint.handle_message("calc-e1", reply) is False


@given(
    st.integers(min_value=0, max_value=2**64),
    st.integers(min_value=0, max_value=2**64),
    st.text(max_size=24),
    st.sampled_from(["req", "rep", "dig", "body", "trq", "trd"]) | st.text(max_size=8),
)
def test_traffic_nonce_is_the_digest_of_its_canonical_map(conn, req, sender, direction):
    expected = digest(
        canonical_bytes({"conn": conn, "req": req, "sender": sender, "dir": direction})
    )[:16]
    assert traffic_nonce(conn, req, sender, direction) == expected


def test_traffic_nonce_non_ascii_sender():
    sender = "élément-ζ-0"
    expected = digest(
        canonical_bytes({"conn": 3, "req": 2**64, "sender": sender, "dir": "rep"})
    )[:16]
    assert traffic_nonce(3, 2**64, sender, "rep") == expected


def test_traffic_nonce_uniqueness():
    nonces = {
        traffic_nonce(conn, req, sender, direction)
        for conn in (1, 2)
        for req in (1, 2, 3)
        for sender in ("a", "b")
        for direction in ("req", "rep", "dig", "body")
    }
    assert len(nonces) == 2 * 3 * 2 * 4


def test_oneway_operation_through_itdos():
    """Oneway GIOP operations ride the ordered channel without replies."""
    from repro.giop.idl import InterfaceDef, Operation, Parameter
    from repro.giop.typecodes import TC_STRING, TC_VOID
    from repro.orb.servant import Servant
    from tests.itdos.conftest import make_repository
    from repro.itdos.bootstrap import ItdosSystem

    NOTIFIER = InterfaceDef(
        "Notifier",
        (Operation("notify", (Parameter("text", TC_STRING),), TC_VOID, oneway=True),
         Operation("count", (), TC_VOID)),
    )
    repo = make_repository()
    repo.register(NOTIFIER)

    class NotifierServant(Servant):
        interface = NOTIFIER

        def __init__(self):
            self.notes = []

        def notify(self, text):
            self.notes.append(text)

        def count(self):
            return None

    system = ItdosSystem(seed=201, repository=repo)
    system.add_server_domain(
        "notes", f=1, servants=lambda element: {b"n": NotifierServant()}
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("notes", b"n"))
    assert stub.notify("hello") is None
    assert stub.notify("world") is None
    stub.count()  # a normal call to flush/synchronise
    system.settle(1.0)
    for element in system.domain_elements("notes"):
        servant = element.orb.adapter.servant_for(b"n")
        assert servant.notes == ["hello", "world"]


def test_reply_decode_memoized_on_identical_copies():
    """Homogeneous replicas send byte-identical reply copies: one decode,
    the rest served from the memo. §3.6 voting still sees all 3f+1 votes."""
    system = make_system(seed=202, heterogeneous=False)
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    assert stub.add(2.0, 3.0) == 5.0
    connection = next(iter(client.endpoint.connections.values()))
    # 3f+1 = 4 identical copies; the voter decides once a quorum matches,
    # so at least one later copy is served from the memo instead of a
    # second full unmarshal.
    assert connection.reply_memo_hits >= 1
    hits_before = connection.reply_memo_hits
    assert stub.add(4.0, 5.0) == 9.0  # fresh bytes, fresh decode, fresh memo hits
    assert connection.reply_memo_hits > hits_before


def test_reply_decode_memo_isolated_from_result_mutation():
    """A consumer mutating a delivered result must not poison the memo:
    later copies of the same plaintext must reach the voter pristine, or
    correct replicas would be flagged as dissenting (REVIEW: the memo used
    to alias one mutable dict/list across voter, callback, and cache)."""
    system = make_system(seed=205, heterogeneous=False)
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    stub.store(1.5)
    connection = next(iter(client.endpoint.connections.values()))
    offered = []
    pristine_offer = connection.voter.offer

    def recording_offer(sender, request_id, value, raw=None):
        if isinstance(value[1], list):
            offered.append(value)
        pristine_offer(sender, request_id, value, raw=raw)

    connection.voter.offer = recording_offer
    assert stub.history() == [1.5]
    system.settle(1.0)  # let the post-decision straggler copies arrive
    # Homogeneous replicas send identical plaintext: the memo did hit.
    assert connection.reply_memo_hits >= 1
    assert len(offered) == 4  # 3f+1 copies all reached the voter
    assert all(value == (0, [1.5]) for value in offered)
    # Each copy is a fresh object — memo hits must not share one list.
    assert len({id(value[1]) for value in offered}) == len(offered)
    # And none aliases the cache entry: mutating every delivered result
    # leaves the memo pristine for future hits on the same plaintext.
    for value in offered:
        value[1].append("poison")
    cached = [
        entry for entry in connection._reply_memo.values()
        if isinstance(entry[1], list)
    ]
    assert cached and all(entry == (0, [1.5]) for entry in cached)


def test_reply_decode_memo_keeps_heterogeneous_voting_exact():
    """Heterogeneous replies differ (byte order, FP jitter) so the memo
    rarely hits — and must never change what the voter decides."""
    system = make_system(seed=203, heterogeneous=True)
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    result = stub.add(0.1, 0.2)
    assert result == pytest.approx(0.3, rel=1e-9)
    connection = next(iter(client.endpoint.connections.values()))
    # Memoization is pure caching: every copy still reaches the voter.
    assert connection.voter.discarded == 0


def test_reply_unmarshal_telemetry_sources():
    from repro.itdos.bootstrap import ItdosSystem
    from tests.itdos.conftest import make_repository

    system = ItdosSystem(
        seed=204, repository=make_repository(), heterogeneous=False, telemetry=True
    )
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    assert stub.add(1.0, 2.0) == 3.0
    family = system.telemetry.registry.get("smiop_reply_unmarshal_total")
    decoded = family.labels(source="decode").value
    memoized = family.labels(source="memo").value
    assert decoded >= 1
    assert memoized >= 1
    # every copy that reached the unmarshal stage was accounted for
    connection = next(iter(client.endpoint.connections.values()))
    assert decoded + memoized == connection.reply_decodes + connection.reply_memo_hits


def test_clean_invoke_never_retransmits():
    system, client, stub, connection = connected_system()
    assert stub.add(2.0, 3.0) == 5.0
    assert connection.retransmissions == 0
    assert connection._retry_timer is None  # cancelled on decision


def test_lost_request_is_retransmitted_with_backoff():
    """If every reply copy is lost, the socket re-submits the outstanding
    request (fresh SMIOP image, same request id) until the vote decides —
    the client-side half of at-most-once: server dedup absorbs the extras."""
    system, client, stub, connection = connected_system()
    engine = connection.endpoint.engine_for(connection.target.domain_id)
    swallowed = []
    original_invoke = engine.invoke
    engine.invoke = swallowed.append  # black-hole the ordering layer
    wire = client.orb.marshal_request(
        system.ref("calc", b"calc"), "add", (4.0, 5.0), request_id=2
    )
    replies = []
    connection.send_request(wire, replies.append)
    system.network.run(until=system.network.now + 10.0)
    assert not replies
    assert connection.retransmissions >= 2
    assert len(swallowed) == 1 + connection.retransmissions
    # Heal the path: the next scheduled retransmission alone must complete
    # the invocation with no help from the original submission.
    engine.invoke = original_invoke
    before = connection.retransmissions
    system.network.run(until=system.network.now + 10.0)
    assert replies, "retransmission did not recover the lost request"
    assert connection.retransmissions > before
    assert connection._retry_timer is None  # stopped once decided


# -- copies that can no longer count skip the crypto ------------------------------


def test_closed_loop_decrypts_and_verifies_only_copies_that_can_count(monkeypatch):
    """A closed loop (each request issued from the previous decision, as
    ``bench/child.py`` does) leaves the previous request's stragglers arriving
    under a stale id: they are discarded before decrypt and RSA verify, and
    the decode memo never holds more than the vote in progress."""
    from repro.itdos import sockets

    system = make_system(seed=7)
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    client = system.add_client("alice")
    ref = system.ref("calc", b"calc")
    client.stub(ref).add(0.0, 0.0)
    system.settle(1.0)
    connection = next(iter(client.endpoint.connections.values()))
    voter = connection.voter
    counts = {"decrypt": 0, "verify": 0, "current": 0, "stale": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sockets, "decrypt", counted("decrypt", sockets.decrypt))
    keyring = system.directory.keyring
    monkeypatch.setattr(keyring, "verify", counted("verify", keyring.verify))
    pristine_offer, pristine_handle = voter.offer, connection.handle_reply

    def offer(sender, request_id, value, raw=None):
        counts["current"] += request_id == voter.current_request_id
        pristine_offer(sender, request_id, value, raw=raw)

    def handle_reply(reply):
        counts["stale"] += reply.request_id != voter.current_request_id
        pristine_handle(reply)

    voter.offer, connection.handle_reply = offer, handle_reply
    discarded_before = voter.discarded
    memo_sizes, left = [], [8]

    def issue(i):
        def on_result(value):
            assert value == float(i)
            # Only this vote's plaintexts are memoised: nothing older.
            assert all(entry == (0, float(i)) for entry in connection._reply_memo.values())
            memo_sizes.append(len(connection._reply_memo))
            left[0] -= 1
            if left[0]:
                issue(i + 1)
        client.async_invoke(ref, "add", (float(i), 0.0), on_result)

    issue(1)
    system.network.run(stop_when=lambda: left[0] == 0)
    assert len(memo_sizes) == 8 and all(size >= 1 for size in memo_sizes)
    assert counts["stale"] > 0  # the closed loop does leave stragglers behind
    assert counts["decrypt"] == counts["verify"] == counts["current"]
    assert voter.discarded - discarded_before == counts["stale"]


def replayed_copies():
    """A telemetry-on calc system whose client just decided a request, then
    began a new one without running the network. Returns the system, the
    connection, the previous request's reply copies and the observed
    ``(sender, reason)`` garbage reports."""
    system = make_system(seed=206, telemetry=True)
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    stub.add(1.0, 1.0)
    system.settle(1.0)
    connection = next(iter(client.endpoint.connections.values()))
    copies = []
    pristine_handle = connection.handle_reply

    def record(reply):
        copies.append(reply)
        pristine_handle(reply)

    connection.handle_reply = record
    assert stub.add(2.0, 2.0) == 4.0
    system.settle(1.0)
    assert len(copies) == 4
    connection.handle_reply = pristine_handle
    garbage = []
    system.telemetry.detect.observe_garbage = lambda sender, reason: garbage.append(
        (sender, reason)
    )
    wire = client.orb.marshal_request(
        system.ref("calc", b"calc"), "add", (3.0, 3.0), request_id=9
    )
    connection.send_request(wire, lambda plaintext: None)
    return system, connection, copies, garbage


def flipped(reply, **changes):
    from dataclasses import replace

    ciphertext = bytes([reply.ciphertext[0] ^ 0x01]) + reply.ciphertext[1:]
    return replace(reply, ciphertext=ciphertext, **changes)


def reply_discards(system, reason):
    family = system.telemetry.registry.get("voter_discarded_total")
    return family.labels(kind="reply", reason=reason).value if family else 0


def test_forged_copy_under_a_stale_id_is_stale_not_garbage():
    """The trade-off: the request id travels in the clear, so a corrupted
    copy claiming a stale id is discarded unread and reported to nobody."""
    system, connection, copies, garbage = replayed_copies()
    stale = reply_discards(system, "stale")
    connection.handle_reply(flipped(copies[0]))
    assert reply_discards(system, "stale") == stale + 1
    assert garbage == []


def test_forged_copy_under_the_current_id_is_still_decrypt_garbage():
    system, connection, copies, garbage = replayed_copies()
    current = connection.voter.current_request_id
    connection.handle_reply(flipped(copies[0], request_id=current))
    assert reply_discards(system, "decrypt") == 1
    assert garbage == [(copies[0].sender, "decrypt")]


def test_duplicate_from_a_ballot_holder_is_dropped_before_decrypt(monkeypatch):
    from repro.itdos import sockets

    system, connection, copies, garbage = replayed_copies()
    own = []
    pristine_handle = connection.handle_reply

    def record(reply):
        own.append(reply)
        pristine_handle(reply)

    connection.handle_reply = record
    system.settle(1.0)  # the new request's copies arrive and are voted
    assert connection.voter.decision is not None and own
    decrypts = []
    monkeypatch.setattr(
        sockets, "decrypt", lambda key, ciphertext: decrypts.append(ciphertext)
    )
    duplicates = reply_discards(system, "duplicate")
    pristine_handle(own[0])
    assert decrypts == []
    assert reply_discards(system, "duplicate") == duplicates + 1


def test_a_failed_decrypt_does_not_cost_the_sender_its_ballot():
    """A forged copy under a sender's name that fails decrypt takes no
    ballot, so that sender's genuine copy, arriving later, still counts."""
    system, connection, copies, garbage = replayed_copies()
    sender = copies[0].sender
    current = connection.voter.current_request_id
    connection.handle_reply(flipped(copies[0], request_id=current))
    assert garbage == [(sender, "decrypt")]
    assert sender not in connection.voter._box.raw
    system.settle(1.0)
    assert sender in connection.voter._box.raw


def test_stale_copy_under_a_missing_key_generation_is_not_parked():
    system, connection, copies, garbage = replayed_copies()
    key_store = connection.endpoint.key_store
    future = copies[0].key_id + 5
    stale = reply_discards(system, "stale")
    connection.handle_reply(flipped(copies[0], key_id=future))
    assert reply_discards(system, "stale") == stale + 1
    assert (connection.conn_id, future) not in key_store._waiters
    # The same copy under the current id waits for its key generation.
    current = connection.voter.current_request_id
    connection.handle_reply(flipped(copies[0], key_id=future, request_id=current))
    assert (connection.conn_id, future) in key_store._waiters
