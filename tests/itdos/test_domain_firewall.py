"""Tests for domain configuration, the system directory, and the firewall."""

import pytest

from repro.bft.messages import ClientRequest, PrepareMsg
from repro.itdos.domain import DomainInfo, SystemDirectory
from repro.itdos.firewall import EnclaveFirewall
from repro.itdos.messages import OpenRequest
from tests.itdos.conftest import CalculatorServant, make_repository, make_system


# -- DomainInfo / SystemDirectory ------------------------------------------------


def test_domain_info_enforces_3f_plus_1():
    with pytest.raises(ValueError):
        DomainInfo(domain_id="d", element_ids=("a", "b", "c"), f=1)
    info = DomainInfo(domain_id="d", element_ids=("a", "b", "c", "d"), f=1)
    assert info.n == 4


def test_domain_info_bad_kind():
    with pytest.raises(ValueError):
        DomainInfo(domain_id="d", element_ids=("a",), f=0, kind="mystery")


def test_directory_single_gm():
    directory = SystemDirectory(repository=make_repository())
    directory.add_domain(DomainInfo("gm", ("g0", "g1", "g2", "g3"), f=1, kind="gm"))
    with pytest.raises(ValueError):
        directory.add_domain(DomainInfo("gm2", ("h0",), f=0, kind="gm"))
    assert directory.gm_domain.domain_id == "gm"


def test_directory_duplicate_domain():
    directory = SystemDirectory(repository=make_repository())
    directory.add_domain(DomainInfo("d", ("a",), f=0))
    with pytest.raises(ValueError):
        directory.add_domain(DomainInfo("d", ("b",), f=0))


def test_directory_lookup_errors():
    directory = SystemDirectory(repository=make_repository())
    with pytest.raises(KeyError):
        directory.domain("nope")
    with pytest.raises(KeyError):
        directory.pairwise_key("gm-0", "alice")


def test_domain_of_element():
    directory = SystemDirectory(repository=make_repository())
    info = directory.add_domain(DomainInfo("d", ("a", "b", "c", "d4"), f=1))
    assert directory.domain_of_element("b") is info
    assert directory.domain_of_element("zz") is None


def test_bft_config_consistent():
    directory = SystemDirectory(repository=make_repository(), checkpoint_interval=8)
    directory.add_domain(DomainInfo("d", ("a", "b", "c", "d4"), f=1))
    config = directory.bft_config_for("d")
    assert config.checkpoint_interval == 8
    assert config.replica_ids == ("a", "b", "c", "d4")


def test_comparators_from_directory():
    directory = SystemDirectory(repository=make_repository())
    reply_cmp = directory.reply_comparator("Calculator", "add")
    assert reply_cmp.equal(1.0, 1.0 + 1e-12)
    request_cmp = directory.request_comparator("Calculator", "add")
    assert request_cmp.equal((1.0, 2.0), (1.0 + 1e-12, 2.0))
    assert not request_cmp.equal((1.0, 2.0), (9.0, 2.0))
    assert not request_cmp.equal((1.0,), (1.0, 2.0))


# -- firewall ------------------------------------------------------------------------


def test_firewall_passes_protocol_traffic_and_blocks_garbage():
    firewall = EnclaveFirewall("client-fw", {"alice"})
    # Protocol message crossing the boundary: admitted.
    open_req = OpenRequest(
        requester="alice", requester_kind="singleton",
        requester_domain="", target_domain="calc",
    )
    request = ClientRequest(client_id="alice", timestamp=1, payload=open_req.to_payload())
    assert firewall.admit("alice", "gm-0", request)
    # Arbitrary object crossing the boundary: blocked.
    assert not firewall.admit("alice", "gm-0", ("raw", b"bytes"))
    # Malformed SMIOP payload inside a ClientRequest: blocked.
    bogus = ClientRequest(client_id="alice", timestamp=2, payload=b"\xff\xferaw")
    assert not firewall.admit("alice", "gm-0", bogus)
    assert firewall.passed == 1
    assert firewall.blocked == 2


def test_firewall_ignores_internal_traffic():
    firewall = EnclaveFirewall("fw", {"a", "b"})
    assert firewall.admit("a", "b", object())  # inside the enclave: not our business
    assert firewall.admit("x", "y", object())  # entirely outside: not our business
    assert firewall.passed == 0 and firewall.blocked == 0


def test_firewall_admits_bft_protocol_messages():
    firewall = EnclaveFirewall("fw", {"calc-e0"})
    prepare = PrepareMsg(view=0, seq=1, request_digest=b"\x00" * 32, sender="calc-e1")
    assert firewall.admit("calc-e1", "calc-e0", prepare)


def test_system_works_with_firewalls_installed():
    """F1's setting: client-side and server-side firewalls in path."""
    system = make_system()
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    client = system.add_client("alice")
    client_fw = EnclaveFirewall("client-fw", {"alice"}).install(system.network)
    server_fw = EnclaveFirewall(
        "server-fw", set(system.directory.domain("calc").element_ids)
    ).install(system.network)
    stub = client.stub(system.ref("calc", b"calc"))
    assert stub.add(2.0, 3.0) == 5.0
    assert client_fw.passed > 0
    assert server_fw.passed > 0
    assert client_fw.blocked == 0  # nothing illegitimate in a clean run


def test_firewall_blocks_exfiltration():
    """The StateLeakElement's side channel dies at the enclave boundary."""
    from repro.chaos.byzantine import StateLeakElement
    from repro.sim.process import Process

    class Eavesdropper(Process):
        def __init__(self):
            super().__init__("eavesdropper")
            self.loot = []

        def on_message(self, src, payload):
            self.loot.append(payload)

    system = make_system()
    system.add_server_domain(
        "calc",
        f=1,
        servants=lambda element: {b"calc": CalculatorServant()},
        byzantine={"calc-e0": StateLeakElement},
    )
    system.network.add_process(Eavesdropper())
    spy = system.network.get_process("eavesdropper")
    firewall = EnclaveFirewall(
        "server-fw", set(system.directory.domain("calc").element_ids)
    ).install(system.network)
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    stub.store(777.0)
    system.settle(1.0)
    assert spy.loot == []  # the leak was blocked at the boundary
    assert firewall.blocked >= 1
