"""F3 — Figure 3: connection establishment.

Verifies the 5-step handshake, in order:

1. open_request from the client to the Group Manager;
2. communication key shares to the target replication domain;
3. communication key shares to the client;
4. the (encrypted) CORBA invocation to the server via Castro–Liskov;
5. the reply back to the client.
"""

from benchmarks.conftest import once, print_table
from repro.workloads.scenarios import build_calc_system


def test_fig3_connection_establishment(benchmark):
    def scenario():
        system = build_calc_system(f=1, seed=3)
        system.settle(2.0)  # let the GM coin-toss bootstrap finish first
        trace = system.network.enable_trace()
        client = system.add_client("alice")
        stub = client.stub(system.ref("calc", b"calc"))
        result = stub.add(2.0, 2.0)
        return system, trace, result

    system, trace, result = once(benchmark, scenario)
    assert result == 4.0
    elements = set(system.directory.domain("calc").element_ids)
    gm_ids = set(system.directory.gm_domain.element_ids)

    def first_time(events):
        return min(e.time for e in events)

    # Step 1: open_request enters the GM.
    step1 = [
        e for e in trace.filter(kind="send", src="alice")
        if e.dst in gm_ids and e.label.startswith("ClientRequest(")
    ]
    # Steps 2 and 3: GM elements send key shares to the server elements and
    # to the client.
    shares = [e for e in trace.filter(kind="send") if e.label.startswith("GmShareEnvelope(")]
    step2 = [e for e in shares if e.dst in elements]
    step3 = [e for e in shares if e.dst == "alice"]
    # Step 4: the encrypted invocation (a BFT client request carrying the
    # SMIOP envelope) reaches the server domain.
    step4 = [
        e for e in trace.filter(kind="send", src="alice")
        if e.dst in elements and e.label.startswith("ClientRequest(")
    ]
    # Step 5: replies back to the client.
    step5 = [
        e for e in trace.filter(kind="send", dst="alice")
        if e.label.startswith("SmiopReply(")
    ]

    assert step1 and step2 and step3 and step4 and step5
    # Share fan-out: every GM element sends one share per participant.
    assert len(step2) == 4 * 4  # 4 GM elements x 4 server elements
    assert len(step3) == 4  # 4 GM elements x 1 client
    # Temporal order of the steps (first occurrence of each).
    t1, t2, t3 = first_time(step1), first_time(step2), first_time(step3)
    t4, t5 = first_time(step4), first_time(step5)
    assert t1 < t2 <= t3 < t4 < t5

    # Render the flow the way Figure 3 draws it: client, GM, server lanes.
    from repro.sim.trace import render_sequence_diagram

    collapse = {pid: "gm[4]" for pid in gm_ids}
    collapse.update({pid: "calc[4]" for pid in elements})
    diagram = render_sequence_diagram(
        trace.events, ["alice", "gm[4]", "calc[4]"], collapse=collapse, max_rows=40
    )
    print("\n--- Figure 3 as a sequence diagram (merged fan-outs) ---")
    print(diagram)

    print_table(
        "Figure 3 — connection establishment trace",
        ["step", "message", "count", "first at (ms)"],
        [
            ["(1)", "open_request -> Group Manager", len(step1), f"{t1 * 1000:.2f}"],
            ["(2)", "key shares -> target domain", len(step2), f"{t2 * 1000:.2f}"],
            ["(3)", "key shares -> client", len(step3), f"{t3 * 1000:.2f}"],
            ["(4)", "encrypted invocation -> server", len(step4), f"{t4 * 1000:.2f}"],
            ["(5)", "replies -> client", len(step5), f"{t5 * 1000:.2f}"],
        ],
    )
    benchmark.extra_info["handshake_ms"] = (t4 - t1) * 1000
