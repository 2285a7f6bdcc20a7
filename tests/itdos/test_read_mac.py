"""Tentative read replies carry a MAC under a key one client shares with one
element.

The MAC binds ``conn_id``, ``read_id``, ``sender``, ``tier``, ``watermark``
and the ciphertext. Every attack below therefore costs the client one HMAC
and is discarded with reason ``"mac"`` before anything is decrypted or
voted; none of them helps a quorum form.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chaos.byzantine import ForgedWatermarkElement
from repro.crypto.digests import hmac_digest
from repro.itdos.bootstrap import ItdosSystem
from repro.itdos.messages import ReadReply, read_reply_mac
from repro.workloads.scenarios import (
    KvStoreServant,
    standard_repository,
)
from tests.history import History


def make_kv(
    domains: tuple[str, ...] = ("kv",),
    readers: int = 0,
    byzantine: dict | None = None,
    read_fastpath: bool = True,
) -> ItdosSystem:
    system = ItdosSystem(
        seed=0,
        repository=standard_repository(),
        heterogeneous=False,
        read_fastpath=read_fastpath,
        telemetry=True,
    )
    History(system.network)
    for domain in domains:
        system.add_server_domain(
            domain,
            f=1,
            servants=lambda element: {b"kv": KvStoreServant()},
            readers=readers,
            byzantine=byzantine,
            )
    system.settle(1.0)  # GM bootstrap
    return system


@pytest.fixture
def read_replies(monkeypatch) -> list[ReadReply]:
    """Every ReadReply put on the simulated wire, in send order."""
    from repro.net.transport import SimTransport

    seen: list[ReadReply] = []
    real = SimTransport.transmit

    def spy(self, src, dst, payload, size, extra_delay):
        if isinstance(payload, ReadReply):
            seen.append(payload)
        return real(self, src, dst, payload, size, extra_delay)

    monkeypatch.setattr(SimTransport, "transmit", spy)
    return seen


def connection_to(client, domain: str):
    [connection] = [
        c for c in client.endpoint.connections.values()
        if c.target.domain_id == domain
    ]
    return connection


def mac_discards(system) -> float:
    family = system.telemetry.registry.get("voter_discarded_total")
    return family.labels(kind="read", reason="mac").value if family else 0


def start_read(client, ref, key: str) -> list:
    """Fan one ``get`` out without running the simulation: the read is
    pending and no element has answered yet."""
    results: list = []
    client.async_invoke(ref, "get", (key,), results.append)
    return results


def remac(reply: ReadReply, key: bytes, conn_id: int, **changes) -> ReadReply:
    """``reply`` with ``changes``, MACed under ``key`` as if for ``conn_id``."""
    forged = dataclasses.replace(reply, **changes)
    return dataclasses.replace(
        forged,
        mac=read_reply_mac(
            key, conn_id, forged.read_id, forged.sender, forged.tier,
            forged.watermark, forged.ciphertext,
        ),
    )


# -- binding the whole reply ------------------------------------------------


def test_reply_replayed_under_a_new_read_id_is_discarded(read_replies):
    """Read 1's replies, re-labelled as read 2's after the client's own
    write, used to pass decryption and the {watermark, body} signature:
    three of them decided the value the write had replaced."""
    system = make_kv()
    client = system.add_client("alice")
    ref = system.ref("kv", b"kv")
    stub = client.stub(ref)
    stub.put("k", "v1")
    assert stub.get("k") == "v1"
    stale = [r for r in read_replies if r.read_id == 1]
    assert len(stale) == 4
    stub.put("k", "v2")
    connection = connection_to(client, "kv")
    results = start_read(client, ref, "k")
    assert connection.read_voter.current_read_id == 2
    for reply in stale:
        client.on_message(reply.sender, dataclasses.replace(reply, read_id=2))
    assert mac_discards(system) == 4
    assert results == [] and connection.read_fastpath_hits == 1
    system.run_until(lambda: bool(results))
    assert results == ["v2"]
    assert connection.read_fastpath_hits == 2
    assert connection.read_fastpath_fallbacks == 0


def test_reply_moved_to_another_connection_is_discarded(read_replies):
    system = make_kv(domains=("kv", "kw"))
    client = system.add_client("alice")
    kv, kw = system.ref("kv", b"kv"), system.ref("kw", b"kv")
    client.stub(kv).put("k", "v1")
    assert client.stub(kv).get("k") == "v1"
    client.stub(kw).put("k", "w1")
    moved_from = connection_to(client, "kv")
    target = connection_to(client, "kw")
    key_id = client.key_store.current_key(target.conn_id).key_id
    stale = [r for r in read_replies if r.conn_id == moved_from.conn_id]
    assert len(stale) == 4
    results = start_read(client, kw, "k")
    assert target.read_voter.current_read_id == 1  # the same read id
    for reply in stale:
        client.on_message(
            reply.sender,
            dataclasses.replace(reply, conn_id=target.conn_id, key_id=key_id),
        )
    assert mac_discards(system) == 4
    system.run_until(lambda: bool(results))
    assert results == ["w1"]
    assert target.read_fastpath_hits == 1


# -- forgery ----------------------------------------------------------------


class SenderForgingElement(ForgedWatermarkElement):
    """Answers every read a second time for each other core element, with
    its own forged watermark, MACed under the one read key it holds. On the
    wire a frame's source is self-declared, so the forgeries claim the
    impersonated element as their source too. They go out first: without
    the MAC check two of them would arrive before the honest replies they
    impersonate."""

    def send(self, dst, payload) -> None:
        if isinstance(payload, ReadReply):
            key = self.directory.read_key(dst, self.pid)
            for other in self.directory.domain(self.domain_id).element_ids:
                if other != self.pid:
                    forged = remac(payload, key, payload.conn_id, sender=other)
                    self.network.send(other, dst, forged)
        super().send(dst, payload)


def test_forged_senders_within_f_are_discarded_and_never_form_a_quorum():
    system = make_kv(byzantine={"kv-e1": SenderForgingElement})
    client = system.add_client("alice")
    stub = client.stub(system.ref("kv", b"kv"))
    stub.put("k", "v1")
    stub.put("k", "v2")
    # Read 1 forges a futuristic watermark, read 2 a stale one.
    assert stub.get("k") == "v2"
    assert stub.get("k") == "v2"
    connection = connection_to(client, "kv")
    assert connection.read_fastpath_hits == 2
    assert connection.read_fastpath_fallbacks == 0
    assert mac_discards(system) == 6  # three forgeries a read
    history = system.network.observer
    decided = history.read_decisions[(client.pid, connection.conn_id)]
    assert [watermark for _, watermark in decided] == [2, 2]


def test_a_readers_key_does_not_verify_as_a_core_elements(read_replies):
    system = make_kv(readers=1)
    client = system.add_client("alice")
    ref = system.ref("kv", b"kv")
    stub = client.stub(ref)
    stub.put("k", "v1")
    assert stub.get("k") == "v1"
    system.settle(0.5)  # the reader's (late) reply
    [own] = [r for r in read_replies if r.sender == "kv-r0"]
    reader_key = system.directory.read_key("alice", "kv-r0")
    core_key = system.directory.read_key("alice", "kv-e0")
    assert reader_key != core_key
    connection = connection_to(client, "kv")
    results = start_read(client, ref, "k")
    # The reader claims to be core element kv-e0 on the current read, in
    # the frame's self-declared source as well.
    claim = remac(
        own, reader_key, connection.conn_id,
        read_id=2, sender="kv-e0", tier="core",
    )
    client.on_message("kv-e0", claim)
    assert mac_discards(system) == 1
    system.run_until(lambda: bool(results))
    assert results == ["v1"]


# -- where the keys come from -----------------------------------------------


def test_every_client_element_pair_has_its_own_key():
    system = make_kv(readers=2)
    for name in ("alice", "bob"):
        system.add_client(name)
    # A domain built after the clients keys them too.
    system.add_server_domain(
        "kw", f=1, servants=lambda element: {b"kv": KvStoreServant()}
    )
    elements = system.directory.domain("kv").all_ids + system.directory.domain(
        "kw"
    ).element_ids
    keys = {
        (client, element): system.directory.read_key(client, element)
        for client in ("alice", "bob")
        for element in elements
    }
    assert len(keys) == 2 * (4 + 2 + 4)
    assert all(isinstance(key, bytes) and len(key) == 32 for key in keys.values())
    assert len(set(keys.values())) == len(keys)
    assert system.directory.read_keys == keys
    assert system.directory.read_key("alice", "gm-0") is None
    assert system.directory.read_key("kv-e0", "kv-e1") is None


def build_for_keys(read_fastpath: bool) -> ItdosSystem:
    system = ItdosSystem(
        seed=4, repository=standard_repository(), read_fastpath=read_fastpath
    )
    system.add_server_domain(
        "kv", f=1, servants=lambda element: {b"kv": KvStoreServant()}, readers=1
    )
    system.add_client("alice")
    return system


def test_the_same_seed_derives_the_same_read_keys():
    """What every ``repro serve`` node relies on: it builds the whole
    deployment from the topology seed and must arrive at the same keys."""
    assert (
        build_for_keys(True).directory.read_keys
        == build_for_keys(True).directory.read_keys
    )


def test_fastpath_off_derives_no_read_keys_and_moves_no_other_draw():
    off, on = build_for_keys(False), build_for_keys(True)
    assert off.directory.read_keys == {}
    assert len(on.directory.read_keys) == 5
    assert off.rng.getstate() == on.rng.getstate()
    assert off.directory.pairwise_keys == on.directory.pairwise_keys
    assert [off.directory.keyring.public_key(pid) for pid in off.elements] == [
        on.directory.keyring.public_key(pid) for pid in on.elements
    ]


@given(
    st.binary(min_size=1, max_size=80),
    st.integers(min_value=0, max_value=2**64),
    st.integers(min_value=0, max_value=2**64),
    st.text(max_size=16),
    st.sampled_from(["core", "read"]),
    st.integers(min_value=0, max_value=2**32),
    st.binary(max_size=200),
)
def test_read_reply_mac_is_the_hmac_of_head_then_ciphertext(
    key, conn_id, read_id, sender, tier, watermark, ciphertext
):
    """Passing head and ciphertext as two parts MACs the bytes the
    concatenating version did."""
    head = f"{conn_id}:{read_id}:{watermark}:{len(sender)}:{sender}{len(tier)}:{tier}"
    assert read_reply_mac(
        key, conn_id, read_id, sender, tier, watermark, ciphertext
    ) == hmac_digest(key, head.encode() + ciphertext)


def test_a_late_reader_reply_is_observed_once_however_often_it_is_replayed(monkeypatch):
    """A reader's reply held back until its read decided, then delivered 50
    times: one lag observation, and 49 copies refused before the MAC."""
    from repro.net.transport import SimTransport

    held: list[ReadReply] = []
    real = SimTransport.transmit

    def hold_reader_replies(self, src, dst, payload, size, extra_delay):
        if isinstance(payload, ReadReply) and payload.tier == "read":
            held.append(payload)
            return None
        return real(self, src, dst, payload, size, extra_delay)

    monkeypatch.setattr(SimTransport, "transmit", hold_reader_replies)
    system = make_kv(readers=1)
    client = system.add_client("alice")
    stub = client.stub(system.ref("kv", b"kv"))
    stub.put("k", "v1")
    assert stub.get("k") == "v1"
    [late] = held
    connection = connection_to(client, "kv")
    assert connection._read_handler is None  # the read settled on core replies
    registry = system.telemetry.registry

    def duplicates():
        family = registry.get("voter_discarded_total")
        return family.labels(kind="read", reason="duplicate").value if family else 0

    before = duplicates()
    for _ in range(50):
        client.on_message(late.sender, late)
    lag = registry.get("read_tier_reply_lag")
    assert lag.labels(element=late.sender).count == 1
    assert duplicates() == before + 49
