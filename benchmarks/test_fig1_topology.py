"""F1 — Figure 1: singleton client and replicated server, through firewalls.

Reproduces the paper's nominal configuration as a verified message-flow
trace: the client invocation leaves the client enclave through its firewall
proxy, fans out through the server domain's secure reliable multicast, is
executed by every element, and 3f+1 replies return to the client's voter.
"""

from benchmarks.conftest import once, print_table
from repro.itdos.firewall import EnclaveFirewall
from repro.workloads.scenarios import build_calc_system


def test_fig1_singleton_client_replicated_server(benchmark):
    def scenario():
        system = build_calc_system(f=1, seed=1)
        client = system.add_client("alice")
        client_fw = EnclaveFirewall("client-fw", {"alice"}).install(system.network)
        elements = set(system.directory.domain("calc").element_ids)
        server_fw = EnclaveFirewall("server-fw", elements).install(system.network)
        stub = client.stub(system.ref("calc", b"calc"))
        stub.add(2.0, 3.0)  # includes connection establishment
        trace = system.network.enable_trace()
        result = stub.add(40.0, 2.0)
        return system, client_fw, server_fw, trace, result

    system, client_fw, server_fw, trace, result = once(benchmark, scenario)
    assert result == 42.0

    # The client's SMIOP request entered the server domain's ordering...
    requests_in = trace.filter(kind="send", src="alice", label="ClientRequest(client_id=alice,timestamp=2)")
    assert requests_in, "client request should appear on the wire"
    # ...the ordering protocol ran among the 4 elements...
    prepares = trace.filter(kind="multicast", label="PrepareMsg(view=0,seq=2,sender=calc-e1)")
    assert prepares
    # ...and 3f+1 = 4 elements each sent a reply to the client.
    replies = [
        e for e in trace.filter(kind="send", dst="alice")
        if e.label.startswith("SmiopReply(")
    ]
    assert len(replies) == 4

    # Firewalls were in path and passed only protocol traffic.
    assert client_fw.passed > 0 and server_fw.passed > 0
    assert client_fw.blocked == 0 and server_fw.blocked == 0

    element_rows = []
    for pid in system.directory.domain("calc").element_ids:
        platform = system.directory.platform_of(pid)
        element = system.elements[pid]
        element_rows.append(
            [pid, platform.name, platform.byte_order, len(element.dispatched)]
        )
    print_table(
        "Figure 1 — replication domain behind server-side firewalls",
        ["element", "platform", "byte order", "requests executed"],
        element_rows,
    )
    print_table(
        "Figure 1 — boundary crossings",
        ["proxy", "passed", "blocked"],
        [
            ["client-side firewall", client_fw.passed, client_fw.blocked],
            ["server-side firewall", server_fw.passed, server_fw.blocked],
        ],
    )
    benchmark.extra_info["replies_to_client"] = len(replies)
    benchmark.extra_info["firewall_passed"] = client_fw.passed + server_fw.passed
