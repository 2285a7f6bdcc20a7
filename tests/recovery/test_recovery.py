"""repro.recovery: rejoin handshake, queue state transfer, key epochs,
and the proactive recovery rotation.

These drive the paper's missing membership half (§4 "replacement remains
to be implemented") end to end in *queue* mode — the paper's own state
model, where an expelled element cannot be repaired by object-state copy
and must re-adopt the message queue from its peers.
"""

import pytest

from repro.itdos.bootstrap import ItdosSystem
from repro.itdos.faults import LyingElement
from repro.recovery.messages import (
    QueueStateRequest,
    QueueStateResponse,
    RejoinPetition,
    petition_body,
)
from repro.workloads.scenarios import (
    CalculatorServant,
    build_bank_system,
    build_kv_system,
    standard_repository,
)


def build_queue_mode_system(seed=7, byzantine=None, telemetry=False):
    system = ItdosSystem(
        seed=seed,
        repository=standard_repository(),
        checkpoint_interval=4,
        telemetry=telemetry,
    )
    system.add_server_domain(
        "calc",
        f=1,
        servants=lambda element: {b"calc": CalculatorServant()},
        byzantine=byzantine or {},
    )
    return system


def expel_liar(system, stub):
    """Drive detection and expulsion of the lying element calc-e2."""
    stub.add(2.0, 3.0)
    system.settle(3.0)
    for gm in system.gm_elements:
        assert "calc-e2" in gm.state.expelled
    return system.elements["calc-e2"]


def recover(system, element, fresh_keys=False):
    verdicts, done = [], []
    element.recover_membership(
        callback=verdicts.append, fresh_keys=fresh_keys, on_complete=done.append
    )
    system.run_until(lambda: bool(done))
    return verdicts[0], done[0]


def test_queue_mode_expel_recover_cycle():
    """The acceptance scenario: an expelled LyingElement with repaired=True
    is readmitted, catches up via queue state transfer (no object-state
    copy), and votes with the majority again."""
    system = build_queue_mode_system(byzantine={2: LyingElement})
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    liar = expel_liar(system, stub)
    for i in range(5):  # traffic the expelled element misses
        stub.add(float(i), 1.0)
    system.settle(1.0)
    # Keyed out: the backlog blocks on a generation it will never receive.
    assert len(liar.queue) >= 5

    liar.repaired = True
    verdict, recovered = recover(system, liar)
    assert verdict == b"READMITTED"
    assert recovered
    assert not liar.diverged
    assert liar.recovery.transfers_completed == 1
    # Caught up to a peer's queue, not via app-state copy.
    honest = system.elements["calc-e0"]
    assert liar.queue.snapshot() == honest.queue.snapshot()
    assert liar._append_chain == honest._append_chain

    served_before = len(liar.dispatched)
    assert stub.add(10.0, 20.0) == 30.0
    system.settle(1.0)
    assert len(liar.dispatched) > served_before  # voting with the majority
    for gm in system.gm_elements:
        assert "calc-e2" not in gm.state.expelled


def test_forged_petition_is_rejected():
    """A petition whose signature does not verify flips nothing."""
    system = build_queue_mode_system(seed=8, byzantine={2: LyingElement})
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    liar = expel_liar(system, stub)
    forged = RejoinPetition(
        element="calc-e2",
        domain_id="calc",
        fresh_keys=False,
        nonce=10**9,
        signature=b"not-a-real-signature",
    )
    verdicts = []
    liar.endpoint.gm_engine.invoke(forged.to_payload(), verdicts.append)
    system.run_until(lambda: bool(verdicts))
    assert verdicts[0] == b"BAD"
    for gm in system.gm_elements:
        assert "calc-e2" in gm.state.expelled


def test_third_party_cannot_rejoin_someone_else():
    """Even a correctly signed petition is refused when submitted by a
    different BFT client than the petitioned element."""
    system = build_queue_mode_system(seed=9, byzantine={2: LyingElement})
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    liar = expel_liar(system, stub)
    petition = liar.recovery.make_petition()  # genuinely signed by calc-e2
    mallory = system.add_client("mallory")
    verdicts = []
    mallory.endpoint.gm_engine.invoke(petition.to_payload(), verdicts.append)
    system.run_until(lambda: bool(verdicts))
    assert verdicts[0] == b"BAD"
    for gm in system.gm_elements:
        assert "calc-e2" in gm.state.expelled


def test_replayed_petition_is_rejected():
    """The monotone nonce makes an old (captured) petition worthless."""
    system = build_queue_mode_system(seed=10)
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    stub.add(1.0, 1.0)
    element = system.domain_elements("calc")[0]
    petition = element.recovery.make_petition()
    first, second = [], []
    element.endpoint.gm_engine.invoke(petition.to_payload(), first.append)
    system.run_until(lambda: bool(first))
    assert first[0] == b"OK"
    element.endpoint.gm_engine.invoke(petition.to_payload(), second.append)
    system.run_until(lambda: bool(second))
    assert second[0] == b"REPLAY"


def test_fresh_keys_refresh_rotates_epoch_without_membership_change():
    """A member in good standing (the proactive-recovery restart case) can
    force a key-epoch rotation; a plain petition cannot."""
    system = build_queue_mode_system(seed=11)
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    stub.add(1.0, 1.0)
    element = system.domain_elements("calc")[0]
    gm = system.gm_elements[0]
    assert gm.state.key_epoch == 0
    keys_before = len(gm.keys_issued)

    verdict, recovered = recover(system, element, fresh_keys=True)
    assert verdict == b"REFRESHED"
    assert recovered
    assert gm.state.key_epoch == 1
    assert len(gm.keys_issued) > keys_before
    assert gm.readmissions == []  # no membership change

    # Plain petition: idempotent OK, no rekey.
    keys_before = len(gm.keys_issued)
    verdict, recovered = recover(system, element)
    assert verdict == b"OK" and recovered
    assert len(gm.keys_issued) == keys_before
    assert gm.state.key_epoch == 1


def test_epoch_fence_kills_pre_expulsion_keys():
    """Post-readmission, generations from before the expulsion are fenced
    out of every honest key store even though the generation-retention
    window would have kept them — old-epoch ciphertexts cannot land."""
    system = build_queue_mode_system(seed=12, byzantine={2: LyingElement})
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    liar = expel_liar(system, stub)
    conn_id = next(iter(client.endpoint.connections))
    stolen = liar.key_store.key_for(conn_id, 0)  # what the intruder held
    assert stolen is not None

    liar.repaired = True
    verdict, recovered = recover(system, liar)
    assert verdict == b"READMITTED" and recovered
    system.settle(1.0)  # let the rotated shares land everywhere

    for pid in ("calc-e0", "calc-e1", "calc-e3"):
        keys = system.elements[pid].key_store.connections[conn_id]
        # Epoch 0 -> (expulsion) 1 -> (readmission) 2; the readmission
        # raises the fence floor to 1, dropping every epoch-0 generation.
        # Generation 0 is far inside the retention window
        # (RETAINED_GENERATIONS = 8), so only the epoch fence can have
        # removed it.
        assert keys.current_epoch == 2
        assert keys.fence_floor == 1
        assert keys.get(stolen.key_id) is None
        assert all(e >= keys.fence_floor for e in keys.epoch_of.values())
    client_keys = client.key_store.connections[conn_id]
    assert client_keys.get(stolen.key_id) is None


def test_restart_then_recover_catches_up():
    """A full reboot (volatile state wiped) recovers via state transfer."""
    system = build_queue_mode_system(seed=13)
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    stub.add(1.0, 2.0)
    element = system.domain_elements("calc")[1]
    element.crash()
    for i in range(4):
        stub.add(float(i), 2.0)  # ordered while the element is down
    element.restart()
    assert element.diverged  # a rebooted queue-mode element distrusts itself

    verdict, recovered = recover(system, element, fresh_keys=True)
    assert verdict == b"REFRESHED" and recovered
    assert not element.diverged
    honest = system.domain_elements("calc")[0]
    assert element.queue.snapshot() == honest.queue.snapshot()
    served_before = len(element.dispatched)
    assert stub.add(5.0, 5.0) == 10.0
    system.settle(1.0)
    assert len(element.dispatched) > served_before


def test_recovered_element_has_its_peers_servant_state():
    """A queue position is adopted together with the servant state that
    belongs to it: the element that was down for 25 of 30 puts comes back
    holding every key, and answering reads gets nobody expelled."""
    system = build_kv_system(seed=5)
    client = system.add_client("alice")
    stub = client.stub(system.ref("kv", b"kv"))
    for i in range(5):
        stub.put(f"k{i}", f"v{i}")
    victim = system.elements["kv-e2"]
    victim.crash()
    for i in range(5, 30):
        stub.put(f"k{i}", f"v{i}")
    victim.restart()

    verdict, recovered = recover(system, victim)
    assert verdict == b"OK" and recovered
    assert not victim.diverged
    stores = {
        element.pid: element.orb.adapter.servant_for(b"kv").data
        for element in system.domain_elements("kv")
    }
    assert len(stores["kv-e0"]) == 30
    assert all(store == stores["kv-e0"] for store in stores.values())
    assert victim.queue.processed_count == system.elements["kv-e0"].queue.processed_count
    # What was transferred now includes the store, not just the queue.
    assert victim.recovery.bytes_transferred > 240

    for i in range(10, 20):
        assert stub.get(f"k{i}") == f"v{i}"
    system.settle(3.0)
    for gm in system.gm_elements:
        assert gm.state.expelled == set()


def test_element_parked_on_a_nested_call_does_not_vouch_for_state():
    """While a bank element's servant is suspended inside its nested ledger
    call, its state matches no queue position — it must not answer a
    catch-up fetch until the call resolves."""
    system = build_bank_system(seed=3)
    client = system.add_client("alice")
    results = []
    client.async_invoke(
        system.ref("bank", b"bank"), "audited_deposit", ("acct", 10.0), results.append
    )
    responder = system.elements["bank-e0"]
    system.run_until(lambda: responder._parked is not None)

    sent = []
    responder.send = lambda dst, payload: sent.append((dst, payload))
    request = QueueStateRequest(requester="bank-e1", domain_id="bank", attempt=1)
    responder.deliver("bank-e1", request)
    assert sent == []
    del responder.send

    system.run_until(lambda: bool(results))
    assert responder._parked is None
    responder.send = lambda dst, payload: sent.append((dst, payload))
    responder.deliver("bank-e1", request)
    [(dst, response)] = sent
    assert dst == "bank-e1" and isinstance(response, QueueStateResponse)


def test_proactive_rotation_cycles_all_elements():
    """The scheduler round-robins restart -> rejoin -> transfer across the
    domain; every cycle completes and the epoch advances each time."""
    system = build_queue_mode_system(seed=14, telemetry=True)
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    stub.add(1.0, 1.0)
    scheduler = system.enable_proactive_recovery("calc", period=2.0, downtime=0.05)
    system.settle(9.0)  # four periods -> all four elements rotated
    scheduler.stop()
    system.settle(2.0)

    assert scheduler.cycles_started == 4
    assert scheduler.cycles_completed == 4
    restarted = {pid for _, pid, phase in scheduler.events if phase == "restart"}
    assert restarted == {"calc-e0", "calc-e1", "calc-e2", "calc-e3"}
    assert all(
        phase in ("restart", "recovered") for _, _, phase in scheduler.events
    )
    gm = system.gm_elements[0]
    assert gm.state.key_epoch == 4  # one fresh-keys rotation per cycle
    assert gm.state.expelled == set()
    # The service is intact after the whole rotation.
    assert stub.add(20.0, 22.0) == 42.0
    for element in system.domain_elements("calc"):
        assert not element.diverged
        assert not element.crashed
    # Health board saw the epoch advance.
    assert system.telemetry.health.key_epoch == 4
