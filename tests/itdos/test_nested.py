"""Nested invocations: one replication domain as a client of another (§3.1).

The Bank domain's ``audited_deposit`` makes a nested call to the Ledger
domain: each bank element submits the nested request through its own SMIOP
endpoint; the ledger's elements vote the request copies (f_bank+1 equal),
execute once, and send their replies back *through the bank's ordering*;
each bank element's reply voter resumes the parked servant generator.
"""

import pytest

from repro.chaos.byzantine import LyingElement
from tests.itdos.conftest import BankServant, LedgerServant, make_system


def bank_system(seed=0, bank_byzantine=None, ledger_byzantine=None):
    system = make_system(seed=seed)
    system.add_server_domain(
        "ledger",
        f=1,
        servants=lambda element: {b"ledger": LedgerServant()},
        byzantine=ledger_byzantine or {},
    )
    ledger_ref = system.ref("ledger", b"ledger")
    system.add_server_domain(
        "bank",
        f=1,
        servants=lambda element: {
            b"bank": BankServant(element=element, ledger_ref=ledger_ref)
        },
        byzantine=bank_byzantine or {},
    )
    return system


def test_nested_invocation_end_to_end():
    system = bank_system()
    client = system.add_client("alice")
    stub = client.stub(system.ref("bank", b"bank"))
    assert stub.audited_deposit("acct-1", 100.0) == 100.0


def test_nested_state_consistent_across_both_domains():
    system = bank_system()
    client = system.add_client("alice")
    stub = client.stub(system.ref("bank", b"bank"))
    stub.audited_deposit("acct-1", 100.0)
    stub.audited_deposit("acct-1", 50.0)
    assert stub.balance("acct-1") == 150.0
    system.settle(2.0)
    # Every ledger element recorded exactly two entries, in order.
    for element in system.domain_elements("ledger"):
        servant = element.orb.adapter.servant_for(b"ledger")
        assert servant.entries == [
            "deposit acct-1 100.0",
            "deposit acct-1 50.0",
        ]
    # Every bank element agrees on the balance.
    for element in system.domain_elements("bank"):
        servant = element.orb.adapter.servant_for(b"bank")
        assert servant.balances == {"acct-1": 150.0}


def test_ledger_executes_each_logical_request_once():
    """The ledger sees 4 copies (one per bank element) but executes once —
    the voter "eliminates duplicate requests ... from replicas" (§3.6)."""
    system = bank_system()
    client = system.add_client("alice")
    stub = client.stub(system.ref("bank", b"bank"))
    stub.audited_deposit("acct-9", 10.0)
    system.settle(2.0)
    for element in system.domain_elements("ledger"):
        records = [d for d in element.dispatched if d[2] == "record"]
        assert len(records) == 1


def test_plain_and_nested_operations_interleave():
    system = bank_system()
    client = system.add_client("alice")
    stub = client.stub(system.ref("bank", b"bank"))
    stub.deposit("a", 1.0)
    stub.audited_deposit("a", 2.0)
    stub.deposit("a", 4.0)
    assert stub.balance("a") == 7.0


def test_nested_with_lying_ledger_element():
    """A Byzantine ledger element cannot corrupt the nested result the bank
    elements resume with."""
    system = bank_system(ledger_byzantine={"ledger-e1": LyingElement})
    client = system.add_client("alice")
    stub = client.stub(system.ref("bank", b"bank"))
    assert stub.audited_deposit("acct", 25.0) == 25.0
    system.settle(2.0)
    for element in system.domain_elements("bank"):
        servant = element.orb.adapter.servant_for(b"bank")
        assert servant.balances == {"acct": 25.0}


def test_nested_connection_reused_across_requests():
    system = bank_system()
    client = system.add_client("alice")
    stub = client.stub(system.ref("bank", b"bank"))
    stub.audited_deposit("a", 1.0)
    stub.audited_deposit("a", 1.0)
    system.settle(2.0)
    for element in system.domain_elements("bank"):
        assert element.endpoint.open_requests_sent == 1


def test_two_clients_nested_requests_serialized():
    system = bank_system()
    alice = system.add_client("alice")
    bob = system.add_client("bob")
    ref = system.ref("bank", b"bank")
    alice.stub(ref).audited_deposit("x", 5.0)
    bob.stub(ref).audited_deposit("x", 7.0)
    assert alice.stub(ref).balance("x") == 12.0
