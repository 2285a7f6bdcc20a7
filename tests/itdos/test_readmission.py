"""EXTENSION tests: re-admitting a repaired element (paper §4 future work).

The paper's prototype stops at expulsion ("replacement remains to be
implemented"). The extension implemented here: a repaired element petitions
the Group Manager; the GM rekeys its groups with the element included; the
element repairs its servant state through object-mode checkpoint catch-up,
which restores its group's certified checkpoints even while it is keyed out.
"""

import pytest

from repro.itdos.bootstrap import ItdosSystem
from repro.itdos.faults import LyingElement
from repro.itdos.messages import encode_payload
from repro.workloads.scenarios import (
    KvStoreServant,
    standard_repository,
)


def build_object_mode_system(seed=0, byzantine=None):
    system = ItdosSystem(
        seed=seed,
        repository=standard_repository(),
        heterogeneous=False,  # object mode: state digests must agree
        checkpoint_interval=4,
    )
    system.add_server_domain(
        "kv",
        f=1,
        servants=lambda element: {b"kv": KvStoreServant()},
        state_mode="object",
        byzantine=byzantine or {},
    )
    return system


def expel_liar(system, client, stub):
    """Drive detection and expulsion of the lying element kv-e2."""
    stub.put("k0", "v0")
    stub.size()  # the liar corrupts this int result -> detected
    system.settle(4.0)
    for gm in system.gm_elements:
        assert "kv-e2" in gm.state.expelled
    return system.elements["kv-e2"]


def test_full_expel_repair_readmit_cycle():
    system = build_object_mode_system(seed=71, byzantine={2: LyingElement})
    client = system.add_client("alice")
    stub = client.stub(system.ref("kv", b"kv"))
    liar = expel_liar(system, client, stub)

    # Traffic while expelled: the element's queue head blocks on a key
    # generation it will never receive, so it serves none of it. Its
    # checkpoints then disagree with its group's, and object mode catches
    # its servant state up from the certified ones.
    served_before = len(liar.dispatched)
    for i in range(6):
        stub.put(f"missed-{i}", "x")
    system.settle(2.0)
    served_while_out = len(liar.dispatched)
    assert served_while_out == served_before
    assert liar.catch_up.rounds >= 1

    # Repair and petition.
    liar.repaired = True
    verdicts = []
    liar.petition_readmission(verdicts.append)
    system.run_until(lambda: bool(verdicts))
    assert verdicts[0] == b"READMITTED"
    for gm in system.gm_elements:
        assert "kv-e2" not in gm.state.expelled

    # Post-readmission traffic: the element serves again...
    for i in range(8):
        stub.put(f"back-{i}", "y")
    assert stub.size() == 15  # 1 + 6 + 8
    system.settle(6.0)
    assert len(liar.dispatched) > served_while_out
    # ...and its servant state was repaired by checkpoint catch-up.
    servant = liar.orb.adapter.servant_for(b"kv")
    assert servant.size() >= 7  # includes keys it never saw in plaintext
    assert not liar.diverged


def test_readmission_is_idempotent_and_guarded():
    system = build_object_mode_system(seed=72)
    client = system.add_client("alice")
    stub = client.stub(system.ref("kv", b"kv"))
    stub.put("a", "1")
    element = system.domain_elements("kv")[0]

    # Petition while not expelled: OK (idempotent, no rekey storm).
    keys_before = [len(gm.keys_issued) for gm in system.gm_elements]
    verdicts = []
    element.petition_readmission(verdicts.append)
    system.run_until(lambda: bool(verdicts))
    assert verdicts[0] == b"OK"
    assert [len(gm.keys_issued) for gm in system.gm_elements] == keys_before


def test_third_party_cannot_readmit():
    """Only the element itself may petition (the GM checks the BFT client
    identity against the petitioned element), and the unsigned
    ``readmit_request`` that used to do the same thing is no longer a
    payload kind the GM knows."""
    system = build_object_mode_system(seed=73, byzantine={2: LyingElement})
    client = system.add_client("alice")
    stub = client.stub(system.ref("kv", b"kv"))
    liar = expel_liar(system, client, stub)
    mallory = system.add_client("mallory")
    petition = liar.recovery.make_petition()  # genuinely signed by kv-e2
    legacy = encode_payload(
        "readmit_request",
        {"requester": "kv-e2", "element": "kv-e2", "domain_id": "kv"},
    )
    for sender, payload in ((mallory, petition.to_payload()), (liar, legacy)):
        verdicts = []
        sender.endpoint.gm_engine.invoke(payload, verdicts.append)
        system.run_until(lambda: bool(verdicts))
        assert verdicts[0] == b"BAD"
    for gm in system.gm_elements:
        assert "kv-e2" in gm.state.expelled


def test_readmitted_element_reexpelled_if_still_faulty():
    """If the 'repair' was a sham, detection and expulsion repeat."""
    system = build_object_mode_system(seed=74, byzantine={2: LyingElement})
    client = system.add_client("alice")
    stub = client.stub(system.ref("kv", b"kv"))
    liar = expel_liar(system, client, stub)
    # Petition WITHOUT repairing.
    verdicts = []
    liar.petition_readmission(verdicts.append)
    system.run_until(lambda: bool(verdicts))
    assert verdicts[0] == b"READMITTED"
    # It lies again on the next voted int result -> expelled again.
    stub.put("z", "9")
    assert stub.size() == 2
    system.settle(4.0)
    for gm in system.gm_elements:
        assert "kv-e2" in gm.state.expelled
    assert any(len(gm.expulsions) >= 2 for gm in system.gm_elements)
