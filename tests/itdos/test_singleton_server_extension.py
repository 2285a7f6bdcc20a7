"""EXTENSION: replicated clients invoking singleton servers.

§2: "Our architecture currently does not support replicated clients
invoking operations on singleton servers; however extending ITDOS to
include that capability would not be too difficult, since the voting
mechanism required is already used by the replication domain elements."

Here a singleton server is simply an f=0 replication domain with one
element; the server-side RequestVoter (threshold f_client+1) is exactly
the "voting mechanism ... already used", so the capability falls out of
the architecture — validating the paper's remark.
"""

import pytest

from tests.itdos.conftest import BankServant, LedgerServant, make_system


def test_f0_singleton_server_with_singleton_client():
    system = make_system(seed=600)
    system.add_server_domain(
        "solo", f=0, servants=lambda element: {b"ledger": LedgerServant()}
    )
    assert system.directory.domain("solo").n == 1
    client = system.add_client("alice")
    stub = client.stub(system.ref("solo", b"ledger"))
    assert stub.record("entry") == 1
    assert stub.count() == 1


def test_replicated_client_invokes_singleton_server():
    """The bank (f=1, 4 elements) nests calls into a singleton ledger."""
    system = make_system(seed=601)
    system.add_server_domain(
        "solo-ledger", f=0, servants=lambda element: {b"ledger": LedgerServant()}
    )
    ledger_ref = system.ref("solo-ledger", b"ledger")
    system.add_server_domain(
        "bank",
        f=1,
        servants=lambda element: {
            b"bank": BankServant(element=element, ledger_ref=ledger_ref)
        },
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("bank", b"bank"))
    assert stub.audited_deposit("acct", 50.0) == 50.0
    assert stub.audited_deposit("acct", 25.0) == 75.0
    system.settle(2.0)
    # The singleton ledger received 4 request copies per deposit (one per
    # bank element) but executed each logical request exactly once.
    element = system.domain_elements("solo-ledger")[0]
    records = [d for d in element.dispatched if d[2] == "record"]
    assert len(records) == 2
    servant = element.orb.adapter.servant_for(b"ledger")
    assert servant.entries == ["deposit acct 50.0", "deposit acct 25.0"]


def test_singleton_server_offers_no_fault_tolerance():
    """The extension is availability-limited exactly as the paper implies:
    crash the singleton and nested invocations stall (the bank domain parks
    awaiting a nested reply that cannot come)."""
    system = make_system(seed=602)
    system.add_server_domain(
        "solo-ledger", f=0, servants=lambda element: {b"ledger": LedgerServant()}
    )
    ledger_ref = system.ref("solo-ledger", b"ledger")
    system.add_server_domain(
        "bank",
        f=1,
        servants=lambda element: {
            b"bank": BankServant(element=element, ledger_ref=ledger_ref)
        },
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("bank", b"bank"))
    assert stub.audited_deposit("acct", 10.0) == 10.0
    system.domain_elements("solo-ledger")[0].crash()
    from repro.orb.errors import NoResponse

    # Bounded run: no voted reply can form.
    with pytest.raises((NoResponse, RuntimeError)):
        client.network.run = _bounded_run(client.network)
        stub.audited_deposit("acct", 10.0)


def _bounded_run(network):
    original = network.run

    def run(**kwargs):
        kwargs["max_events"] = min(kwargs.get("max_events", 100_000), 100_000)
        return original(**kwargs)

    return run
