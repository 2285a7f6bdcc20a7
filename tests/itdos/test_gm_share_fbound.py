"""One Group Manager element — inside ``f_gm = 1`` — cannot break a connection.

§3.5: participants "can verify which Group Manager replication domain
elements acted correctly". A GM element holds a genuine DPRF share and a
genuine pairwise key with every participant, so its envelopes authenticate
and it can produce a *valid* share for any nonce it likes. Neither the
communication key nor a single field of the server-side connection record
may therefore come from fewer than ``f_gm + 1`` agreeing GM elements.
"""

from __future__ import annotations

import pytest

from repro.crypto.digests import digest
from repro.crypto.encoding import canonical_bytes
from repro.crypto.symmetric import SymmetricKey, encrypt
from repro.itdos.messages import GmShareEnvelope, key_share_to_dict
from repro.workloads.scenarios import build_kv_system, build_read_heavy_system


def forged_envelope(system, recipient, share_nonce=b"poison", valid=True, **fields):
    """What a faulty ``gm-3`` can send ``recipient``: an envelope under the
    real pairwise key, carrying its own share of ``share_nonce`` (or, with
    ``valid=False``, a share that fails verification)."""
    gm = system.gm_elements[3]
    share = gm.shareholder.evaluate(share_nonce)
    nonce = share_nonce if valid else b"not-what-it-evaluated"
    pairwise = SymmetricKey(material=system.directory.pairwise_key(gm.pid, recipient))
    defaults = dict(
        gm_element=gm.pid,
        recipient=recipient,
        conn_id=1,
        key_id=0,
        client="alice",
        client_kind="singleton",
        client_domain="",
        target_domain="kv",
        ciphertext=encrypt(
            pairwise,
            canonical_bytes(key_share_to_dict(nonce, share)),
            digest(recipient.encode())[:16],
        ),
    )
    return gm, GmShareEnvelope(**{**defaults, **fields})


def attack(system, recipients, **fields):
    for pid in recipients:
        gm, envelope = forged_envelope(system, pid, **fields)
        gm.send(pid, envelope)
    system.settle(0.1)


def put_and_wait(system, client, seconds=30.0):
    results = []
    client.async_invoke(system.ref("kv", b"kv"), "put", ("k", "v"), results.append)
    deadline = system.network.now + seconds
    system.network.run(
        until=deadline, stop_when=lambda: bool(results), max_events=2_000_000
    )
    return bool(results)


@pytest.fixture()
def kv():
    system = build_kv_system(f=1, seed=7)
    system.settle(1.0)
    return system


@pytest.mark.parametrize("valid", [False, True], ids=["garbage-share", "valid-share"])
def test_one_gm_element_cannot_poison_the_nonce_of_a_connection(kv, valid):
    """First-seen-nonce adoption let gm-3 pre-empt connection 1: every
    honest share was then rejected as a "nonce" mismatch, forever."""
    elements = kv.domain_elements("kv")
    attack(kv, [e.pid for e in elements], valid=valid)
    alice = kv.add_client("alice")
    assert put_and_wait(kv, alice)
    assert all(e.key_store.current_key(1) is not None for e in elements)
    assert [len(e.dispatched) for e in elements] == [1, 1, 1, 1]


def test_one_gm_element_cannot_poison_a_singleton_clients_assembly(kv):
    alice = kv.add_client("alice")
    attack(kv, ["alice"])
    assert put_and_wait(kv, alice)
    assert alice.key_store.current_key(1) is not None


@pytest.mark.parametrize("with_reader", [False, True], ids=["core", "core+reader"])
def test_one_gm_element_cannot_name_the_client_of_a_connection(with_reader):
    """The connection record used to be created from the first envelope of
    any single GM element: with ``client="mallory"`` every server element
    executed alice's request and sent the reply to mallory."""
    if with_reader:
        system = build_read_heavy_system(seed=7, readers=1)
    else:
        system = build_kv_system(f=1, seed=7)
    system.settle(1.0)
    servers = system.domain_elements("kv") + system.read_tier("kv")
    attack(system, [e.pid for e in servers], key_id=1, client="mallory")
    assert all(1 not in e.incoming for e in servers)  # one voice: no record
    alice = system.add_client("alice")
    assert put_and_wait(system, alice, seconds=20.0)
    system.settle(0.5)
    assert [e.incoming[1].client for e in servers] == ["alice"] * len(servers)
    assert [len(e.dispatched) for e in servers] == [1] * len(servers)


@pytest.mark.parametrize(
    "fields",
    [
        {"target_domain": "nope"},
        {"client_kind": "domain", "client_domain": "nope"},
    ],
    ids=["unknown-target", "unknown-client-domain"],
)
def test_an_envelope_naming_an_unknown_domain_is_dropped(fields):
    """Either used to raise ``KeyError`` out of ``on_message`` — out of
    ``Scheduler.run`` on the simulator."""
    system = build_read_heavy_system(seed=7, readers=1)
    system.settle(1.0)
    alice = system.add_client("alice")
    servers = system.domain_elements("kv") + system.read_tier("kv")
    attack(system, [e.pid for e in servers] + ["alice"], **fields)
    assert all(1 not in e.incoming for e in servers)
    assert put_and_wait(system, alice)
