"""Whole-system determinism and multi-domain scale.

Determinism is a correctness requirement (§2: replicas are deterministic
state machines; the simulator extends that discipline to whole runs), and
the Group Manager must serialise concurrent connection establishment from
many clients across many domains.
"""

import pytest

from tests.history import History
from tests.itdos.conftest import (
    BankServant,
    CalculatorServant,
    LedgerServant,
    make_system,
)


def run_scenario(seed):
    """A mixed workload; returns a full observable fingerprint."""
    system = make_system(seed=seed)
    history = History(system.network)
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    system.add_server_domain(
        "ledger", f=1, servants=lambda element: {b"ledger": LedgerServant()}
    )
    alice = system.add_client("alice")
    bob = system.add_client("bob")
    calc_ref = system.ref("calc", b"calc")
    ledger_ref = system.ref("ledger", b"ledger")
    results = [
        alice.stub(calc_ref).add(1.0, 2.0),
        bob.stub(ledger_ref).record("entry-1"),
        alice.stub(ledger_ref).record("entry-2"),
        bob.stub(calc_ref).mean([1.0, 2.0, 3.0]),
    ]
    system.settle(1.0)
    fingerprint = {
        "results": results,
        "time": system.network.now,
        "messages": system.network.stats.messages_sent,
        "bytes": system.network.stats.bytes_sent,
        "gm_snapshot": system.gm_elements[0]._gm_snapshot(),
        "executions": {pid: history.executions[pid] for pid in sorted(system.elements)},
    }
    return fingerprint


def test_whole_system_run_is_deterministic():
    first = run_scenario(seed=77)
    second = run_scenario(seed=77)
    assert first == second


def test_different_seeds_differ_in_schedule_not_results():
    first = run_scenario(seed=77)
    second = run_scenario(seed=78)
    assert first["results"] == second["results"]  # semantics seed-independent
    assert first["gm_snapshot"] != second["gm_snapshot"]  # crypto material differs


def test_many_domains_many_clients():
    """5 domains x 6 clients, interleaved: one GM serialises all opens."""
    system = make_system(seed=80)
    for d in range(5):
        system.add_server_domain(
            f"svc-{d}", f=1, servants=lambda element: {b"o": CalculatorServant()}
        )
    clients = [system.add_client(f"c{i}") for i in range(6)]
    for i, client in enumerate(clients):
        for d in range(5):
            stub = client.stub(system.ref(f"svc-{d}", b"o"))
            assert stub.add(float(i), float(d)) == float(i) + float(d)
    # 6 clients x 5 domains = 30 distinct connections, ids 1..30.
    gm = system.gm_elements[0]
    assert gm.state.next_conn_id == 30
    assert len(gm.state.connections) == 30
    # Each client holds 5 connections with 5 distinct keys.
    for client in clients:
        assert len(client.endpoint.connections) == 5
        materials = {
            client.key_store.current_key(conn).material
            for conn in client.endpoint.connections
        }
        assert len(materials) == 5
    # Per §3.5, every (client, domain) pair has a unique key: all 30 differ.
    all_materials = {
        client.key_store.current_key(conn).material
        for client in clients
        for conn in client.endpoint.connections
    }
    assert len(all_materials) == 30


def test_interleaved_nested_and_plain_load():
    system = make_system(seed=81)
    system.add_server_domain(
        "ledger", f=1, servants=lambda element: {b"ledger": LedgerServant()}
    )
    ledger_ref = system.ref("ledger", b"ledger")
    system.add_server_domain(
        "bank",
        f=1,
        servants=lambda element: {
            b"bank": BankServant(element=element, ledger_ref=ledger_ref)
        },
    )
    clients = [system.add_client(f"client-{i}") for i in range(3)]
    bank_ref = system.ref("bank", b"bank")
    for round_number in range(3):
        for i, client in enumerate(clients):
            stub = client.stub(bank_ref)
            stub.audited_deposit(f"acct-{i}", 10.0)
    # All three accounts, 3 rounds each.
    check = clients[0].stub(bank_ref)
    for i in range(3):
        assert check.balance(f"acct-{i}") == 30.0
    system.settle(2.0)
    for element in system.domain_elements("ledger"):
        servant = element.orb.adapter.servant_for(b"ledger")
        assert servant.count() == 9
