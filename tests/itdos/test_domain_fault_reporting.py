"""Domain-origin fault detection and expulsion (§2, §3.6).

Two directions, both without proof (a replication domain is a trustworthy
source, so the GM acts on f+1 matching change_requests):

* a Byzantine *server* element sends faulty replies to a replicated client
  domain — the client domain's elements each detect the dissenter;
* a Byzantine *client* element sends faulty nested requests — the server
  domain's request voters each detect the dissenter.
"""

from repro.chaos.byzantine import LyingElement, RequestCorruptingElement
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


def test_lying_server_element_expelled_by_client_domain():
    """Bank elements (a replication domain) detect the lying ledger element
    and the GM expels it on f+1 matching domain change_requests."""
    system = bank_system(ledger_byzantine={"ledger-e2": LyingElement})
    client = system.add_client("alice")
    stub = client.stub(system.ref("bank", b"bank"))
    assert stub.audited_deposit("acct", 10.0) == 10.0  # the lie is masked
    system.settle(4.0)
    for gm in system.gm_elements:
        assert "ledger-e2" in gm.state.expelled
    # At least f+1 distinct bank elements filed matching reports.
    reporters = {
        element.pid
        for element in system.domain_elements("bank")
        if any(
            cr.accused == ("ledger-e2",)
            for cr in element.endpoint.change_requests_sent
        )
    }
    assert len(reporters) >= 2


def test_domain_reports_carry_no_proof():
    system = bank_system(ledger_byzantine={"ledger-e1": LyingElement})
    client = system.add_client("alice")
    stub = client.stub(system.ref("bank", b"bank"))
    stub.audited_deposit("a", 5.0)
    system.settle(4.0)
    reports = [
        cr
        for element in system.domain_elements("bank")
        for cr in element.endpoint.change_requests_sent
    ]
    assert reports
    assert all(cr.proof == () for cr in reports)
    assert all(cr.requester_kind == "domain" for cr in reports)


def test_single_domain_element_report_insufficient():
    """One change_request from a domain (f=1 needs 2) must not expel."""
    from repro.itdos.messages import ChangeRequest

    system = bank_system()
    client = system.add_client("alice")
    stub = client.stub(system.ref("bank", b"bank"))
    stub.audited_deposit("a", 1.0)  # wire everything up
    rogue = system.domain_elements("bank")[0]
    request = ChangeRequest(
        requester=rogue.pid,
        requester_kind="domain",
        requester_domain="bank",
        accused_domain="ledger",
        accused=("ledger-e0",),
        request_id=1,
        proof=(),
    )
    results = []
    rogue.endpoint.gm_engine.invoke(request.to_payload(), results.append)
    system.run_until(lambda: bool(results))
    assert results[0] == b"PENDING"
    system.settle(1.0)
    for gm in system.gm_elements:
        assert "ledger-e0" not in gm.state.expelled


def test_request_corrupting_client_element_expelled():
    """A bank element that corrupts its nested requests is detected by the
    ledger domain's request voters and expelled."""
    system = bank_system(bank_byzantine={"bank-e1": RequestCorruptingElement})
    client = system.add_client("alice")
    stub = client.stub(system.ref("bank", b"bank"))
    # The corrupted copy loses the request vote; the honest 3 copies win.
    assert stub.audited_deposit("acct", 20.0) == 20.0
    system.settle(4.0)
    for gm in system.gm_elements:
        assert "bank-e1" in gm.state.expelled
    # Ledger elements each recorded exactly one executed request.
    for element in system.domain_elements("ledger"):
        records = [d for d in element.dispatched if d[2] == "record"]
        assert len(records) == 1


def test_service_continues_after_client_element_expulsion():
    system = bank_system(bank_byzantine={"bank-e1": RequestCorruptingElement})
    client = system.add_client("alice")
    stub = client.stub(system.ref("bank", b"bank"))
    stub.audited_deposit("acct", 20.0)
    system.settle(4.0)
    # Post-expulsion, nested deposits still work (3 honest bank elements).
    assert stub.audited_deposit("acct", 5.0) == 25.0
    assert stub.balance("acct") == 25.0
