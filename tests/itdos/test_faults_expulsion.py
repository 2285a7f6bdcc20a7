"""Value faults, detection, expulsion, and rekeying (§2, §3.5, §3.6)."""

import pytest

from repro.chaos.byzantine import (
    LyingElement,
    MuteElement,
    forged_change_request,
)
from tests.itdos.conftest import CalculatorServant, make_system


def lying_system(seed=0):
    system = make_system(seed=seed)
    system.add_server_domain(
        "calc",
        f=1,
        servants=lambda element: {b"calc": CalculatorServant()},
        byzantine={"calc-e2": LyingElement},
    )
    return system


def test_lying_element_masked_by_voter():
    system = lying_system()
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    assert stub.add(2.0, 3.0) == 5.0  # the lie never wins the vote


def test_mute_element_tolerated():
    system = make_system()
    system.add_server_domain(
        "calc",
        f=1,
        servants=lambda element: {b"calc": CalculatorServant()},
        byzantine={"calc-e1": MuteElement},
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    assert stub.add(1.0, 1.0) == 2.0


def test_fault_detected_and_reported():
    system = lying_system()
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    stub.add(2.0, 3.0)
    system.settle(1.0)
    sent = client.endpoint.change_requests_sent
    assert sent, "client should have reported the dissenting element"
    assert sent[0].accused == ("calc-e2",)
    assert len(sent[0].proof) >= 3  # 2f+1 signed replies as evidence


def test_gm_expels_on_valid_proof():
    system = lying_system()
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    stub.add(2.0, 3.0)
    system.settle(3.0)
    for gm in system.gm_elements:
        assert "calc-e2" in gm.state.expelled
        assert gm.expulsions and gm.expulsions[0] == ("calc-e2",)


def test_rekey_after_expulsion_locks_out_faulty_element():
    system = lying_system()
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    stub.add(2.0, 3.0)
    system.settle(3.0)
    conn_id = next(iter(client.endpoint.connections))
    new_key = client.key_store.current_key(conn_id)
    assert new_key.key_id == 1  # rekeyed once
    expelled = system.elements["calc-e2"]
    expelled_key = expelled.key_store.current_key(conn_id)
    # The expelled element never receives generation-1 shares.
    assert expelled_key is None or expelled_key.key_id == 0
    # Honest elements hold the new generation.
    for pid in ("calc-e0", "calc-e1", "calc-e3"):
        key = system.elements[pid].key_store.current_key(conn_id)
        assert key is not None and key.key_id == 1
        assert key.material == new_key.material


def test_service_continues_after_expulsion():
    system = lying_system()
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    stub.add(2.0, 3.0)
    system.settle(3.0)
    # Post-expulsion invocations still work (3 honest elements >= 2f+1).
    assert stub.add(10.0, 20.0) == 30.0
    assert stub.add(1.5, 1.5) == 3.0


def test_forged_proof_denied():
    """A malicious client cannot expel correct processes (§3.6)."""
    system = make_system()
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    client = system.add_client("mallory")
    # Establish a connection first so the system is live.
    stub = client.stub(system.ref("calc", b"calc"))
    stub.add(1.0, 1.0)
    forged = forged_change_request("mallory", "calc", ("calc-e0",))
    results = []
    client.endpoint.gm_engine.invoke(forged.to_payload(), results.append)
    system.run_until(lambda: bool(results))
    assert results[0] == b"DENIED"
    system.settle(1.0)
    for gm in system.gm_elements:
        assert not gm.state.expelled
        assert gm.denied_change_requests >= 1
    # The accused element still serves.
    assert stub.add(2.0, 2.0) == 4.0


def test_proof_with_replayed_old_request_id_denied():
    """Proof items must match the claimed request id (replay protection)."""
    system = lying_system()
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    stub.add(2.0, 3.0)
    system.settle(3.0)
    # Take the legitimate change request and tamper with its request_id.
    original = client.endpoint.change_requests_sent[0]
    import dataclasses

    tampered = dataclasses.replace(original, request_id=original.request_id + 7)
    results = []
    client.endpoint.gm_engine.invoke(tampered.to_payload(), results.append)
    system.run_until(lambda: bool(results))
    assert results[0] in (b"DENIED", b"OK")  # OK only if already expelled
    if results[0] == b"DENIED":
        assert all("calc-e2" in gm.state.expelled for gm in system.gm_elements)


def test_cannot_expel_more_than_f_at_once():
    system = make_system()
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    stub.add(1.0, 1.0)
    over_f = forged_change_request("alice", "calc", ("calc-e0", "calc-e1"))
    results = []
    client.endpoint.gm_engine.invoke(over_f.to_payload(), results.append)
    system.run_until(lambda: bool(results))
    assert results[0] == b"DENIED"


def test_expelled_element_cannot_decrypt_new_traffic():
    system = lying_system()
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    stub.add(2.0, 3.0)
    system.settle(3.0)
    expelled = system.elements["calc-e2"]
    served_before = len(expelled.dispatched)
    stub.store(42.0)  # new traffic under the new key
    system.settle(1.0)
    # The expelled element keeps receiving ordered ciphertext but cannot
    # decrypt it: no new dispatches happen there.
    assert len(expelled.dispatched) == served_before
    # Honest elements did process it.
    assert any(
        len(system.elements[pid].dispatched) > served_before
        for pid in ("calc-e0", "calc-e1", "calc-e3")
    )
